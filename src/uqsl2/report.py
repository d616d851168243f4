"""Verification reports shared by all verifier routines, and the one runner
that makes them."""

from __future__ import annotations

import functools
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import ParamSpec

P = ParamSpec("P")

# What a verifier body yields: None per passing instance, or a counterexample.
Counterexamples = Iterator[str | None]


@dataclass
class CheckReport:
    """Outcome of one verified statement: pass/fail plus evidence counters."""

    statement: str
    passed: bool
    instances: int = 0
    counterexample: str | None = None
    wall_time: float = 0.0

    def to_dict(self) -> dict:
        out = {
            "statement": self.statement,
            "status": "pass" if self.passed else "fail",
            "instances": self.instances,
            "wall_time": round(self.wall_time, 3),
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def verifier(
    statement: str | Callable[P, str],
) -> Callable[[Callable[P, Counterexamples]], Callable[P, CheckReport]]:
    """Turn a generator of counterexamples into a function returning a
    `CheckReport`.

    The generator yields one item per checked instance: None when the
    instance holds, a counterexample string when it fails.  The returned
    function runs the generator inside the call, counts one instance per
    item up to and including the first counterexample, closes the generator
    there, and reports the elapsed wall time.  A generator is never resumed
    after a counterexample, so the code after a failing yield may assume
    that the instance held.  `statement` is the claim the report names, the
    same on pass and on fail; when it depends on the arguments, pass a
    function of the verifier's arguments instead.
    """

    def wrap(gen: Callable[P, Counterexamples]) -> Callable[P, CheckReport]:
        @functools.wraps(gen)
        def run(*args: P.args, **kwargs: P.kwargs) -> CheckReport:
            start = time.perf_counter()
            text = statement(*args, **kwargs) if callable(statement) else statement
            instances = 0
            counterexample = None
            items = gen(*args, **kwargs)
            try:
                for item in items:
                    instances += 1
                    if item is not None:
                        counterexample = item
                        break
            finally:
                items.close()
            return CheckReport(
                text, counterexample is None, instances, counterexample,
                time.perf_counter() - start,
            )

        return run

    return wrap
