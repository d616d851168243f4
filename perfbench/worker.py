"""One timed repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py SPAWN_MONOTONIC SPEC_JSON

SPAWN_MONOTONIC is the parent's time.monotonic() just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so set-up time covers
interpreter start, importing uqsl2 and building AlgebraContext(4).  SPEC_JSON
holds the workload, its generated instances and whether to trace.  The
result is one JSON object on stdout; everything uqsl2 prints is captured.

In an untraced repetition each instance also gets a `speed`: REFERENCE_S
over the mean duration of a fixed piece of reference work, timed every
SAMPLE_INTERVAL_S, in the samples taken during the instance or within
SPEED_WINDOW_S of it.  On a shared machine the same process runs up to 1.6x
slower for seconds to minutes at a time (a fixed loop measured 121-201 ms
back to back), which no in-run median removes; the parent scales each
instance time by its speed.  Sampling time is subtracted from the instance
it interrupted.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
N = 4
REFERENCE_S = 0.010  # about the median of reference_work() on the reference box
SAMPLE_INTERVAL_S = 0.25
SPEED_WINDOW_S = 1.0


def reference_work() -> float:
    """Fixed pure-Python work, big-int arithmetic and dict updates like the
    verifier's inner loops; returns its wall time."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    x = 3 ** 60
    for i in range(25000):
        k = (i * 7919) & 1023
        acc[k] = acc.get(k, 0) + x * (i | 1) // 7
    return time.perf_counter() - start


class SpeedSampler:
    """Times reference_work() every SAMPLE_INTERVAL_S from a SIGALRM handler,
    which runs in the main thread between bytecodes of the work it pauses."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, *_) -> None:
        self.samples.append((time.perf_counter(), reference_work()))

    def __enter__(self) -> "SpeedSampler":
        reference_work()  # warm-up, not recorded
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def busy(self, t0: float, t1: float) -> float:
        """Sampling time spent inside the interval [t0, t1)."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def speed(self, t0: float, t1: float) -> float:
        """Box speed over [t0, t1], relative to the reference box."""
        lo, hi = t0 - SPEED_WINDOW_S, t1 + SPEED_WINDOW_S
        return REFERENCE_S / statistics.fmean(d for s, d in self.samples if lo <= s <= hi)


def _import_program():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import uqsl2
    from uqsl2 import cli  # noqa: F401
    from uqsl2.qgroup import AlgebraContext

    where = os.path.dirname(os.path.abspath(uqsl2.__file__))
    if where != os.path.join(src, "uqsl2"):
        raise RuntimeError(f"imported uqsl2 from {where}, not from this checkout")
    return AlgebraContext(N)


# Each runner does the timed work of one instance and returns a check, run
# after the clock stops, that gives (verdict is right, captured stdout).


def _ss_instance(ctx, inst):
    """decompose(S (x) S) against the four-case fusion rule."""
    from uqsl2 import moncat, reps

    i1, j1, i2, j2 = inst
    result = moncat.decompose(moncat.tensor(reps.simple(ctx, i1, j1), reps.simple(ctx, i2, j2)))
    rule = moncat.simple_simple_rule
    return lambda: (result.ok and result.summands == rule(ctx, i1, j1, i2, j2), None)


def _ps_instance(ctx, inst):
    """The projective-cover certificate of one P (x) S or S (x) P product."""
    from uqsl2 import moncat, reps

    pi, pj, si, sj, order = inst
    expected = moncat.projective_simple_rule(ctx, pi, pj, si, sj)
    P, S = reps.projective(ctx, pi, pj), reps.simple(ctx, si, sj)
    T = moncat.tensor(P, S) if order == "PS" else moncat.tensor(S, P)
    verdict = moncat._cover_certificate(T, expected)
    return lambda: (verdict is None, None)


def _cli_instance(ctx, argv):
    """cli.main in process; stdout is captured for the byte-identity check."""
    from uqsl2 import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    text = out.getvalue()
    lines = text.splitlines()
    # every report line PASS; the last line is the suite summary
    all_pass = bool(lines) and all(line.startswith("PASS  ") for line in lines[:-1])
    return lambda: (code == 0 and all_pass, text)


RUNNERS = {"ss-engine": _ss_instance, "ps-cover": _ps_instance, "cli": _cli_instance}


def main(argv: list[str]) -> int:
    spawned = float(argv[1])
    spec = json.loads(argv[2])
    ctx = _import_program()
    setup_s = time.monotonic() - spawned
    out = {"setup_s": setup_s}
    if spec.get("setup_only"):
        print(json.dumps(out))
        return 0

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        out["unwrapped_bindings"] = tracer.unwrapped_bindings()

    runner = RUNNERS[spec["runner"]]
    sampler = SpeedSampler() if tracer is None else None
    records = []
    intervals = []
    clock = time.perf_counter
    with sampler or contextlib.nullcontext():
        for iid, inst in enumerate(spec["instances"]):
            t0 = clock()
            try:
                if tracer is None:
                    check = runner(ctx, inst)
                else:
                    check = tracer.run_instance(iid, runner, ctx, inst)
                t1 = clock()
                ok, stdout = check()
                error = None
            except Exception as exc:  # a raised instance is a failed verdict, not an abort
                t1 = clock()
                ok, stdout, error = False, None, f"{type(exc).__name__}: {exc}"
            elapsed = t1 - t0 - (sampler.busy(t0, t1) if sampler else 0.0)
            records.append({"ok": bool(ok), "s": elapsed, "error": error, "stdout": stdout})
            intervals.append((t0, t1))
    if sampler is not None:
        for record, (t0, t1) in zip(records, intervals):
            record["speed"] = sampler.speed(t0, t1)
    out["verify_s"] = sum(r["s"] for r in records)
    out["instances"] = records
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
