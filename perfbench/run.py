"""Cold-process benchmark of the uqsl2 verifier: time to verdict.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload ss-engine --seed 1 --seconds 25 --trace 0

Every timed repetition runs in a new interpreter (perfbench/worker.py).  The
memo dicts in moncat and k0ring are module globals keyed by n, so a fresh
AlgebraContext in a long-lived process does not give cold caches.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced repetition and prints the per-layer metrics (tracer.py).  The last
line of stdout is one JSON object; a full record with provenance and the raw
wall times goes to .perfbench_results/.

verify_s and instance_ms_* are wall times scaled to the reference speed:
each instance time is multiplied by the `speed` its worker measured with a
fixed reference loop sampled around it (worker.py).  On the 2-vCPU
reference box, where raw times swing with the load of other tenants, the
quartile spread of ss-engine's verify_s over ten seeds fell from 15-21% raw
to 1.4% scaled.  setup_s, per-layer self times and trace.overhead_frac are
raw.

Exit code 0 whenever a result is printed, including one with "correct":
false; 2 on bad arguments or a checkout without src/uqsl2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_results")
WORKER = os.path.join(HERE, "worker.py")

N = 16  # n^2 at n = 4; labels (i, j) with 1 <= i <= N/2, j in {0, 1}
HALF = N // 2
CHILD_TIMEOUT_S = 150.0
RUN_DEADLINE_S = 170.0  # a run must end within 180 s; later children time out
SETUP_PROBES = 8
TAIL_BEYOND = 10


# -- workloads ------------------------------------------------------------------


def _fusion_case(i1: int, i2: int) -> str:
    """The four cases of simple_simple_rule / projective_simple_rule."""
    if 2 * i1 - 1 >= N - 2 * i2 + 1:
        return "A" if i1 <= i2 else "B"
    return "C" if i1 <= i2 else "D"


def _simple_dim(i: int) -> int:
    return N - 2 * i + 1


def _strata(step: int) -> list[tuple[int, int]]:
    """Every `step`-th (i1, i2) label class of each fusion case, in order of
    falling product dimension, so each case keeps its share of the sample and
    its largest product.

    Cost is set by (i1, i2); the j bits twist signs and grades.  The seed
    draws the j bits inside each class, so every seed covers the same cost
    spectrum and the run-to-run spread stays small.
    """
    by_case: dict[str, list[tuple[int, int, int]]] = {}
    for i1 in range(1, HALF + 1):
        for i2 in range(1, HALF + 1):
            dim = _simple_dim(i1) * _simple_dim(i2)
            by_case.setdefault(_fusion_case(i1, i2), []).append((dim, i1, i2))
    out = []
    for case in sorted(by_case):
        for _, i1, i2 in sorted(by_case[case], reverse=True)[::step]:
            out.append((i1, i2))
    return out


def ss_instances(rng: random.Random) -> list[list[int]]:
    """Ordered S(2i1,j1) (x) S(2i2,j2) pairs from 11 of the 64 label classes."""
    return [[i1, rng.randrange(2), i2, rng.randrange(2)] for i1, i2 in _strata(7)]


def ps_instances(rng: random.Random) -> list[list]:
    """P(2i1,j1) (x) S(2i2,j2) or S (x) P from 9 of the 64 label classes.

    The factor order alternates along the classes, so the sample holds both
    orders; the seed does not draw it, because the order alone moves the
    cost of some classes by 20%.
    """
    return [
        [i1, rng.randrange(2), i2, rng.randrange(2), ("PS", "SP")[k % 2]]
        for k, (i1, i2) in enumerate(_strata(8))
    ]


# The axiom suite's cost depends steeply on its --seed (the exponents of the
# sampled monomials): 11.8 s at seed 0 against 4.4 s at seed 7 on the same
# box.  A seed-driven suite would spread far past any useful bound, so the
# workload runs the acceptance gate's seed 0.  The lemmas suite does the same
# work at every seed, so it takes the benchmark's --seed.
AXIOMS_CLI_SEED = 0


def make_spec(workload: str, seed: int) -> dict:
    rng = random.Random(seed)
    if workload == "ss-engine":
        return {"runner": "ss-engine", "instances": ss_instances(rng)}
    if workload == "ps-cover":
        return {"runner": "ps-cover", "instances": ps_instances(rng)}
    cli_seed = AXIOMS_CLI_SEED if workload == "axioms" else seed
    return {"runner": "cli",
            "instances": [["verify", "--suite", workload, "--n", "4", "--seed", str(cli_seed)]]}


WORKLOADS = ("ss-engine", "ps-cover", "axioms", "lemmas")
# Repetitions per run at --seconds 25, so that a run takes 20-35 s on the
# reference box (2 vCPU Xeon, Python 3.11); other --seconds scale them, with
# at least two.  A fixed count gives every run the same number of timing
# samples and the same tail percentile.  The engine workloads repeat three
# times: with an odd number of samples per instance, an odd instance count
# and 10 samples beyond the tail, both the median and the tail sample fall
# in the middle of one instance's block of samples instead of on the seam
# between two instances of different cost.  Two repetitions let a
# whole-suite workload compare stdout byte for byte.
REPS_AT_25S = {"ss-engine": 3, "ps-cover": 3, "axioms": 2, "lemmas": 3}
MIN_REPS = 2


def repetitions(workload: str, seconds: int) -> int:
    return max(MIN_REPS, round(REPS_AT_25S[workload] * seconds / 25))


# -- child processes ------------------------------------------------------------


def spawn(spec: dict, deadline: float) -> dict | None:
    """Run one worker; None if it crashed, timed out or printed no result."""
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, repr(spawned), json.dumps(spec)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


# -- statistics -----------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile); with too few samples it is the maximum,
    reported as percentile 100.
    """
    ordered = sorted(values)
    k = len(ordered)
    if k <= TAIL_BEYOND:
        return ordered[-1], 100
    return ordered[k - TAIL_BEYOND - 1], (100 * (k - TAIL_BEYOND)) // k


# -- provenance -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # git would search the parent directories
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256() -> str:
    """Digest of src/uqsl2/*.py: identifies the code where git is absent."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "uqsl2")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "loadavg_1m_start": os.getloadavg()[0],
    }


# -- one run --------------------------------------------------------------------


def judge(reps: list[dict | None], spec: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over all repetitions.

    A crashed repetition fails all its instances.  A whole-suite repetition
    also fails when its stdout differs from the first repetition's.
    """
    attempted = failed = 0
    notes = []
    reference = None
    for r, rep in enumerate(reps):
        count = len(spec["instances"])
        attempted += count
        if rep is None:
            failed += count
            notes.append(f"repetition {r} crashed or timed out")
            continue
        for iid, inst in enumerate(rep["instances"]):
            ok = inst["ok"]
            if inst["stdout"] is not None:
                if reference is None:
                    reference = inst["stdout"]
                elif inst["stdout"] != reference:
                    ok = False
                    notes.append(f"repetition {r}: stdout differs from the first repetition")
            if not ok:
                failed += 1
                notes.append(f"repetition {r} instance {iid} {spec['instances'][iid]}: "
                             f"{inst['error'] or 'wrong verdict'}")
    return attempted, failed, notes


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    record["provenance"] = provenance()
    spec = make_spec(workload, seed)
    record["instances"] = spec["instances"]

    # Untimed: fills __pycache__ and the file cache, which users have warm.
    if spawn({"setup_only": True}, deadline) is None:
        raise RuntimeError("the worker cannot import uqsl2 from this checkout")
    probes = [spawn({"setup_only": True}, deadline) for _ in range(SETUP_PROBES)]
    record["setup_probes"] = probes
    setups = [p["setup_s"] for p in probes if p is not None]

    reps: list[dict | None] = []
    if trace:
        reps.append(spawn(spec, deadline))
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.jsonl.gz")
        reps.append(spawn({**spec, "trace": True, "spans_path": spans}, deadline))
        record["spans_path"] = os.path.relpath(spans, ROOT)
    else:
        for _ in range(repetitions(workload, seconds)):
            reps.append(spawn(spec, deadline))

    attempted, failed, notes = judge(reps, spec)
    record["notes"] = notes
    good = [rep for rep in reps if rep is not None]
    setups.extend(rep["setup_s"] for rep in good)
    record["repetitions"] = [
        None if rep is None else {k: v for k, v in rep.items() if k != "instances"}
        | {"instance_s": [inst["s"] for inst in rep["instances"]],
           "instance_speed": [inst.get("speed") for inst in rep["instances"]]}
        for rep in reps
    ]

    if trace:
        metrics = {}
        if len(good) == 2 and "layers" in good[1]:
            base, traced = good
            layers = dict(traced["layers"])
            layers["trace.overhead_frac"] = traced["verify_s"] / base["verify_s"] - 1.0
            metrics = layers
            if traced.get("unwrapped_bindings"):
                notes.append(f"unwrapped bindings: {traced['unwrapped_bindings']}")
                failed = max(failed, 1)
    else:
        # every instance of every repetition is one timing sample; a
        # whole-suite workload has one instance per repetition
        per_instance = [
            inst["s"] * inst["speed"] * 1000.0 for rep in good for inst in rep["instances"]
        ]
        tail_ms, tail_pct = tail(per_instance) if per_instance else (0.0, 100)
        record["instance_samples"] = len(per_instance)
        record["tail_percentile"] = tail_pct
        metrics = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "verify_s": statistics.median(
                sum(inst["s"] * inst["speed"] for inst in rep["instances"]) for rep in good
            ) if good else 0.0,
            "instance_ms_p50": statistics.median(per_instance) if per_instance else 0.0,
            "instance_ms_tail": tail_ms,
            "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in good) if good else 0.0,
            "verified_frac": (attempted - failed) / attempted,
        }
    record["setup_samples_s"] = setups
    record["provenance"]["loadavg_1m_end"] = os.getloadavg()[0]
    record["wall_s"] = time.monotonic() - start
    record["result"] = {
        "correct": failed == 0 and bool(good) and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record


UNITS = {
    "setup_s": "s",
    "verify_s": "s",
    "instance_ms_p50": "ms",
    "instance_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "verified_frac": "ratio",
}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "uqsl2", "__init__.py")):
        print("error: no src/uqsl2 in this checkout", file=sys.stderr)
        return 2
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    result = record["result"]
    result["metrics"] = {
        name: {"value": value, "unit": unit_of(name)} for name, value in result["metrics"].items()
    }
    for note in record["notes"]:
        print(f"note: {note}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
