"""Self-tests of the per-layer trace.

Usage (from the root of a checkout): python3 perfbench/selftest.py [--seed S]

Runs the traced run of every workload twice with the same seed and checks:

1. every per-layer counter is nonzero on the workloads whose work it counts,
   and exactly zero where the layer is predicted idle (inversions, linalg,
   reps and moncat on axioms; mono_mul and delta on the tensor workloads),
   which fails if a binding of a traced function was left unwrapped;
2. the two runs give identical *_calls, *_ratio and moncat.tensor_dim_sum.

Prints one line per check and trace.overhead_frac beside the counts; exits 1
if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

ENGINE = ("ss-engine", "ps-cover")
ALL = ("ss-engine", "ps-cover", "axioms", "lemmas")

# counter -> workloads on which it must be nonzero
NONZERO = {
    "cyclo.mul_calls": ALL,
    "cyclo.inverse_calls": ("ss-engine", "ps-cover", "lemmas"),
    "linalg.echelon_add_calls": ("ss-engine", "ps-cover", "lemmas"),
    "linalg.blockkernel_add_calls": ("ss-engine", "ps-cover", "lemmas"),
    "reps.hom_to_simple_calls": ("ss-engine", "ps-cover", "lemmas"),
    "reps.hom_from_simple_calls": ("ss-engine", "lemmas"),
    "reps.apply_map_calls": ("ss-engine", "ps-cover", "lemmas"),
    "moncat.tensor_calls": ENGINE,
    "moncat.tensor_dim_sum": ENGINE,
    "moncat.decompose_self_s": ("ss-engine",),
    "moncat.composition_counts_self_s": ENGINE,
    "qgroup.mono_mul_calls": ("axioms", "lemmas"),
    "quasihopf.delta_calls": ("axioms",),
    "cli.self_s": ("axioms", "lemmas"),
}

# counter -> workloads on which it must be exactly zero
ZERO = {
    "cyclo.inverse_calls": ("axioms",),
    "linalg.echelon_add_calls": ("axioms",),
    "linalg.blockkernel_add_calls": ("axioms",),
    "linalg.self_s": ("axioms",),
    "reps.hom_to_simple_calls": ("axioms",),
    "reps.hom_from_simple_calls": ("axioms", "ps-cover"),
    "reps.apply_map_calls": ("axioms",),
    "reps.self_s": ("axioms",),
    "moncat.tensor_calls": ("axioms", "lemmas"),
    "moncat.decompose_self_s": ("axioms", "lemmas", "ps-cover"),
    "qgroup.mono_mul_calls": ENGINE,
    "qgroup.self_s": ENGINE,
    "quasihopf.delta_calls": ENGINE + ("lemmas",),
    "quasihopf.self_s": ENGINE + ("lemmas",),
    "cli.self_s": ENGINE,
}


def deterministic(name: str) -> bool:
    return name.endswith("_calls") or name.endswith("_ratio") or name == "moncat.tensor_dim_sum"


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=400,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: traced run failed\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"correct": result["correct"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="self-tests of the per-layer trace")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    failures = 0

    def check(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {text}")

    for workload in ALL:
        first = traced_run(workload, args.seed)
        second = traced_run(workload, args.seed)
        check(first["correct"] and second["correct"], f"{workload}: verdicts correct")
        for name, where in NONZERO.items():
            if workload in where:
                check(first[name] > 0, f"{workload}: {name} = {first[name]} is nonzero")
        for name, where in ZERO.items():
            if workload in where:
                check(first[name] == 0, f"{workload}: {name} = {first[name]} is zero")
        counts = {k: v for k, v in first.items() if deterministic(k)}
        differ = {k: (v, second[k]) for k, v in counts.items() if second[k] != v}
        check(not differ, f"{workload}: {len(counts)} counts identical across two traced runs"
              + (f", differ: {differ}" if differ else ""))
        print(f"      {workload}: trace.overhead_frac = {first['trace.overhead_frac']:.3f}, "
              f"{second['trace.overhead_frac']:.3f}")
        print("      " + json.dumps(counts, sort_keys=True))
    print(f"selftest: {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
