"""Verification reports shared by all verifier routines."""

from __future__ import annotations

from dataclasses import dataclass


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

