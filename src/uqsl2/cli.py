"""Command-line driver: build modules, run verification suites, export tables.

Exit codes: 0 success, 1 a verified statement failed, 2 invalid input,
3 I/O or internal failure.  All stdout output is deterministic for a fixed
configuration (including the seed); timings go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import __version__
from .errors import InvalidArgumentError, UQSL2Error, UnsupportedParameterError
from .k0ring import k0_reports, k0_table
from .moncat import clebsch_gordan_table, decompose, summand_name, tensor, tensor_reports
from .qgroup import AlgebraContext
from .quasihopf import QuasiHopfData, axiom_reports
from .report import CheckReport
from .reps import (
    Representation,
    family_T,
    family_V,
    family_Vt,
    family_W,
    family_Wt,
    projective,
    rep_to_dict,
    simple,
    socle_multiplicities,
    top_multiplicities,
    verify_block_structure,
    verify_family_constructors,
    verify_structure_counts,
    verma,
)

SUITES = ("axioms", "lemmas", "tensor", "k0", "all")
TABLE_KINDS = ("cg-ss", "cg-ps", "k0")


@dataclass
class RunConfig:
    n: int = 4
    fmt: str = "text"
    seed: int = 0
    slow: bool = False
    out: str | None = None


# Size bounds, checked before anything is built: dim u = n^6 (262144 at
# n = 8), and a strand module of length l has dimension about 16*l at n = 4.
MAX_N = 8
MAX_L = 32


def check_n(n: int) -> None:
    if n <= 0 or n % 4 != 0:
        raise UnsupportedParameterError(f"n must be a positive multiple of 4, got {n}")
    if n > MAX_N:
        raise UnsupportedParameterError(f"n must be at most {MAX_N}, got {n}")


def check_l(l: int | None) -> None:
    if l is not None and l > MAX_L:
        raise InvalidArgumentError(f"l must be at most {MAX_L}, got {l}")


def _emit(text: str, cfg: RunConfig) -> None:
    if cfg.out is None:
        sys.stdout.write(text)
        return
    with open(cfg.out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _jsonable(value):
    """Make evidence dictionaries JSON-safe: stringify non-scalar keys."""
    if isinstance(value, dict):
        return {
            (k if isinstance(k, str) else str(k)): _jsonable(v) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


# -- verify -------------------------------------------------------------------------


def suite_reports(ctx: AlgebraContext, suite: str, seed: int, slow: bool) -> list[CheckReport]:
    out: list[CheckReport] = []
    if suite in ("axioms", "all"):
        out.extend(axiom_reports(QuasiHopfData(ctx), seed=seed))
    if suite in ("lemmas", "all"):
        out.append(ctx.verify_idempotent_system())
        out.append(ctx.verify_commutation_lemmas())
        out.append(verify_structure_counts(ctx))
        out.append(verify_block_structure(ctx))
        out.append(verify_family_constructors(ctx))
        out.append(ctx.verify_regular_decomposition(slow=slow))
    if suite in ("tensor", "all"):
        out.extend(tensor_reports(ctx, seed=seed))
    if suite in ("k0", "all"):
        out.extend(k0_reports(ctx))
    return out


def cmd_verify(suite: str, cfg: RunConfig) -> int:
    ctx = AlgebraContext(cfg.n)
    reports = suite_reports(ctx, suite, cfg.seed, cfg.slow)
    for r in reports:
        print(f"[time] {r.statement}: {r.wall_time:.1f}s", file=sys.stderr)
    if cfg.fmt == "json":
        checks = []
        for r in reports:
            d = r.to_dict()
            d.pop("wall_time", None)
            checks.append(d)
        payload = {
            "suite": suite,
            "version": __version__,
            "n": cfg.n,
            "seed": cfg.seed,
            "status": "pass" if all(r.passed for r in reports) else "fail",
            "checks": checks,
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=["statement", "status", "instances", "counterexample"],
            lineterminator="\n",
        )
        writer.writeheader()
        for r in reports:
            writer.writerow(
                {
                    "statement": r.statement,
                    "status": "pass" if r.passed else "fail",
                    "instances": r.instances,
                    "counterexample": r.counterexample or "",
                }
            )
        _emit(buf.getvalue(), cfg)
    else:
        lines = []
        for r in reports:
            mark = "PASS" if r.passed else "FAIL"
            lines.append(f"{mark}  {r.statement}  [instances={r.instances}]")
            if r.counterexample:
                lines.append(f"      counterexample: {r.counterexample}")
        good = sum(1 for r in reports if r.passed)
        lines.append(
            f"suite {suite}: {good}/{len(reports)} checks passed (n={cfg.n}, seed={cfg.seed})"
        )
        _emit("\n".join(lines) + "\n", cfg)
    return 0 if all(r.passed for r in reports) else 1


# -- module -------------------------------------------------------------------------

TWO_ARG_FAMILIES = {"simple": simple, "projective": projective, "verma": verma}
THREE_ARG_FAMILIES = {"V": family_V, "Vt": family_Vt, "W": family_W, "Wt": family_Wt}


def build_module(
    ctx: AlgebraContext,
    family: str,
    i: int | None,
    j: int | None,
    l: int | None,
    lam: int | None,
) -> Representation:
    if i is None or j is None:
        raise InvalidArgumentError("--i and --j are required")
    if family in TWO_ARG_FAMILIES:
        return TWO_ARG_FAMILIES[family](ctx, i, j)
    if family in THREE_ARG_FAMILIES:
        if l is None:
            raise InvalidArgumentError(f"family {family} needs --l")
        return THREE_ARG_FAMILIES[family](ctx, i, j, l)
    if family == "T":
        if l is None or lam is None:
            raise InvalidArgumentError("family T needs --l and --lambda")
        return family_T(ctx, i, j, l, ctx.field.from_int(lam))
    raise InvalidArgumentError(f"unknown family {family!r}")


def module_payload(M: Representation) -> dict:
    classes: dict[str, int] = {}
    for r in range(M.dim):
        grade = M.grades[r] if M.grades is not None else None
        key = str((M.kexp[r], M.khatexp[r], grade))
        classes[key] = classes.get(key, 0) + 1
    tops = {
        summand_name(("S", i, j)): m for (i, j), m in sorted(top_multiplicities(M).items())
    }
    socles = {
        summand_name(("S", i, j)): m
        for (i, j), m in sorted(socle_multiplicities(M).items())
    }
    out = rep_to_dict(M)
    out["character"] = dict(sorted(classes.items()))
    out["top"] = tops
    out["socle"] = socles
    return out


def cmd_module(args: argparse.Namespace, cfg: RunConfig) -> int:
    ctx = AlgebraContext(cfg.n)
    M = build_module(ctx, args.family, args.i, args.j, args.l, args.lam)
    payload = module_payload(M)
    if cfg.fmt == "json":
        _emit(json.dumps({"version": __version__, "n": cfg.n, **payload}, indent=2) + "\n", cfg)
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf,
            fieldnames=["index", "k_exponent", "khat_exponent", "grade"],
            lineterminator="\n",
        )
        buf.write(f"# uqsl2 {__version__} module={M.label} n={cfg.n}\n")
        writer.writeheader()
        for r in range(M.dim):
            writer.writerow(
                {
                    "index": r,
                    "k_exponent": M.kexp[r],
                    "khat_exponent": M.khatexp[r],
                    "grade": M.grades[r] if M.grades is not None else "",
                }
            )
        _emit(buf.getvalue(), cfg)
    else:
        lines = [f"{M.label}: dim {M.dim}"]
        if M.grades is not None:
            lines.append(f"grades {min(M.grades)}..{max(M.grades)}")
        lines.append("top: " + (", ".join(f"{k} x{v}" for k, v in payload["top"].items()) or "-"))
        lines.append(
            "socle: " + (", ".join(f"{k} x{v}" for k, v in payload["socle"].items()) or "-")
        )
        _emit("\n".join(lines) + "\n", cfg)
    return 0


# -- tensor -------------------------------------------------------------------------


def parse_label(ctx: AlgebraContext, text: str, lam: int | None) -> Representation:
    family, sep, rest = text.partition(":")
    if not sep:
        raise InvalidArgumentError(f"label {text!r} must look like family:i,j[,l]")
    try:
        nums = [int(p) for p in rest.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"label {text!r} has non-integer parts") from exc
    if family in TWO_ARG_FAMILIES and len(nums) == 2:
        return build_module(ctx, family, nums[0], nums[1], None, None)
    if len(nums) == 3:
        check_l(nums[2])
    if family in THREE_ARG_FAMILIES and len(nums) == 3:
        return build_module(ctx, family, nums[0], nums[1], nums[2], None)
    if family == "T" and len(nums) == 3:
        return build_module(ctx, family, nums[0], nums[1], nums[2], lam)
    raise InvalidArgumentError(f"label {text!r} has the wrong shape for family {family!r}")


def cmd_tensor(args: argparse.Namespace, cfg: RunConfig) -> int:
    ctx = AlgebraContext(cfg.n)
    left = parse_label(ctx, args.left, args.lam)
    right = parse_label(ctx, args.right, args.lam)
    result = decompose(tensor(left, right))
    payload = {
        "version": __version__,
        "n": cfg.n,
        "left": left.label,
        "right": right.label,
        "dim": left.dim * right.dim,
        "status": "decomposed" if result.ok else "hypothesis-violation",
        "summands": {
            summand_name(k): m
            for k, m in sorted(result.summands.items(), key=lambda kv: summand_name(kv[0]))
        },
        "violations": list(result.violations),
        "evidence": _jsonable(result.evidence),
    }
    if cfg.fmt == "json":
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
    elif cfg.fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(
            buf, fieldnames=["left", "right", "summand", "multiplicity"], lineterminator="\n"
        )
        writer.writeheader()
        for name, m in payload["summands"].items():
            writer.writerow(
                {"left": left.label, "right": right.label, "summand": name, "multiplicity": m}
            )
        _emit(buf.getvalue(), cfg)
    else:
        lines = [f"{left.label} (x) {right.label}: dim {payload['dim']}"]
        if result.ok:
            lines.append(
                "summands: "
                + ", ".join(f"{name} x{m}" for name, m in payload["summands"].items())
            )
        else:
            lines.append("hypothesis-violation:")
            lines.extend(f"  {v}" for v in result.violations)
        _emit("\n".join(lines) + "\n", cfg)
    standard = all(
        lab.partition(":")[0] in ("simple", "projective") for lab in (args.left, args.right)
    )
    return 1 if standard and not result.ok else 0


# -- table --------------------------------------------------------------------------


def cmd_table(kind: str, cfg: RunConfig) -> int:
    ctx = AlgebraContext(cfg.n)
    if kind == "cg-ss":
        rows = clebsch_gordan_table(ctx, "SxS")
        fields = ["left", "right", "summand", "multiplicity"]
    elif kind == "cg-ps":
        rows = clebsch_gordan_table(ctx, "PxS")
        fields = ["left", "right", "summand", "multiplicity"]
    elif kind == "k0":
        rows = k0_table(ctx)
        fields = ["left", "right", "class", "coefficient"]
    else:
        raise InvalidArgumentError(f"unknown table kind {kind!r}")
    if cfg.fmt == "json":
        payload = {
            "table": kind,
            "version": __version__,
            "n": cfg.n,
            "seed": cfg.seed,
            "rows": rows,
        }
        _emit(json.dumps(payload, indent=2) + "\n", cfg)
    else:
        buf = io.StringIO()
        buf.write(f"# uqsl2 {__version__} table={kind} n={cfg.n} seed={cfg.seed}\n")
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        _emit(buf.getvalue(), cfg)
    return 0


# -- argument parsing ---------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=int, default=4, help="order parameter, multiple of 4")
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", dest="fmt"
    )
    common.add_argument("--seed", type=int, default=0, help="seed for randomized sweeps")
    common.add_argument("--slow", action="store_true", help="run exhaustive variants")
    common.add_argument("--out", help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="uqsl2",
        description="exact construction and verification of u_q^s(sl2) and its modules",
    )
    parser.add_argument("--version", action="version", version=f"uqsl2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("--suite", choices=SUITES, default="all")

    p = sub.add_parser("module", parents=[common], help="emit one module")
    p.add_argument("family", choices=sorted(TWO_ARG_FAMILIES) + sorted(THREE_ARG_FAMILIES) + ["T"])
    p.add_argument("--i", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--lambda", type=int, dest="lam")

    p = sub.add_parser("tensor", parents=[common], help="decompose a tensor product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--lambda", type=int, dest="lam")

    p = sub.add_parser("table", parents=[common], help="export a multiplication table")
    p.add_argument("kind", choices=TABLE_KINDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig(
        n=args.n,
        fmt=args.fmt,
        seed=args.seed,
        slow=args.slow,
        out=args.out,
    )
    try:
        check_n(cfg.n)
        check_l(getattr(args, "l", None))
        if args.command == "verify":
            return cmd_verify(args.suite, cfg)
        if args.command == "module":
            return cmd_module(args, cfg)
        if args.command == "tensor":
            return cmd_tensor(args, cfg)
        if args.command == "table":
            return cmd_table(args.kind, cfg)
        raise InvalidArgumentError(f"unknown command {args.command!r}")
    except (UnsupportedParameterError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except UQSL2Error as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # A crash is not a failed statement: exit 3, never 1.  traceback is
        # imported here so that start-up does not pay for it.
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
