"""Command-line driver: build modules, run verification suites, export tables.

Every command builds its result once, as three views: a JSON payload, a CSV
table (with an optional `# uqsl2 ...` comment line) and text lines.
`_render` writes the view that `--format` selects; `table` has no text view
and writes its CSV table instead.  `main` is the one place that checks the
size bounds and the `--out` directory, dispatches through `COMMANDS` and
writes to stdout or to the `--out` file.

Exit codes: 0 success, 1 a verified statement failed, 2 invalid input,
3 I/O or internal failure.  All stdout output is deterministic for a fixed
configuration, as no statement samples; timings go to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import re
import sys

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
    verify_idempotent_system,
    verify_regular_decomposition,
    verify_structure_counts,
    verma,
)

SUITES = ("axioms", "lemmas", "tensor", "k0", "all")
TABLE_KINDS = ("cg-ss", "cg-ps", "k0")

# Size bounds, checked before anything is built: dim u = n^6 (262144 at
# n = 8), and a strand module of length l has dimension about 16*l at n = 4.
MAX_N = 8
MAX_L = 32


def integer(text: str) -> int:
    """An int written in ASCII digits with an optional leading minus, for
    labels and flags: int() alone also reads "+3", " 3", "0_3" and non-ASCII
    digits such as the Devanagari one."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def check_n(n: int) -> None:
    """n must be a power of two from 4 to MAX_N (`cyclo.FieldContext`)."""
    if n > MAX_N:
        raise UnsupportedParameterError(f"n must be at most {MAX_N}, got {n}")
    if n < 4 or n & (n - 1):
        raise UnsupportedParameterError(f"n must be a power of two from 4 to {MAX_N}, got {n}")


def check_l(l: int | None) -> None:
    if l is not None and l > MAX_L:
        raise InvalidArgumentError(f"l must be at most {MAX_L}, got {l}")


def check_out(path: str | None) -> None:
    """--out must name a writable file, or a new file in an existing,
    writable directory, so that a missing or unwritable directory, or a path
    that is a directory, fails with the error `open` would give before any
    command spends its time."""
    if path is None:
        return
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    if not os.path.isdir(folder):
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    # `open` needs to write the file if it exists, else its directory
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


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


def _render(args: argparse.Namespace, payload: dict, fields: list[str], rows: list[dict],
            text: list[str] | None, comment: str = "") -> str:
    """The view of one result that `--format` selects: the JSON payload, the
    CSV table (after a `# uqsl2 <version> <comment>` line when a comment is
    given), or the text lines; a result without text lines shows its CSV."""
    if args.fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if args.fmt == "text" and text is not None:
        return "\n".join(text) + "\n"
    buf = io.StringIO()
    if comment:
        buf.write(f"# uqsl2 {__version__} {comment}\n")
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _counts(mult: dict[tuple[int, int], int]) -> dict[str, int]:
    """Simple multiplicities keyed by printed name, in label order."""
    return {summand_name(("S", i, j)): m for (i, j), m in sorted(mult.items())}


def _listing(head: str, named: dict[str, int]) -> str:
    return f"{head}: " + (", ".join(f"{k} x{v}" for k, v in named.items()) or "-")


# -- verify -------------------------------------------------------------------------


def suite_reports(ctx: AlgebraContext, suite: str) -> list[CheckReport]:
    out: list[CheckReport] = []
    if suite in ("axioms", "all"):
        out.extend(axiom_reports(QuasiHopfData(ctx)))
    if suite in ("lemmas", "all"):
        out.append(verify_idempotent_system(ctx))
        out.append(ctx.verify_commutation_lemmas())
        out.append(verify_structure_counts(ctx))
        out.append(verify_block_structure(ctx))
        out.append(verify_family_constructors(ctx))
        out.append(verify_regular_decomposition(ctx))
    if suite in ("tensor", "all"):
        out.extend(tensor_reports(ctx))
    if suite in ("k0", "all"):
        out.extend(k0_reports(ctx))
    return out


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    reports = suite_reports(AlgebraContext(args.n), args.suite)
    for r in reports:
        print(f"[time] {r.statement}: {r.wall_time:.1f}s", file=sys.stderr)
    passed = all(r.passed for r in reports)
    payload = {"suite": args.suite, "version": __version__, "n": args.n, "seed": args.seed,
               "status": "pass" if passed else "fail",
               "checks": [{k: v for k, v in r.to_dict().items() if k != "wall_time"}
                          for r in reports]}
    rows = [{"statement": r.statement, "status": "pass" if r.passed else "fail",
             "instances": r.instances, "counterexample": r.counterexample or ""}
            for r in reports]
    text = []
    for r in reports:
        text.append(f"{'PASS' if r.passed else 'FAIL'}  {r.statement}  [instances={r.instances}]")
        if r.counterexample:
            text.append(f"      counterexample: {r.counterexample}")
    good = sum(1 for r in reports if r.passed)
    text.append(f"suite {args.suite}: {good}/{len(reports)} checks passed "
                f"(n={args.n}, seed={args.seed})")
    fields = ["statement", "status", "instances", "counterexample"]
    return (0 if passed else 1), _render(args, payload, fields, rows, text)


# -- module -------------------------------------------------------------------------

# name -> (constructor, whether it takes --l), in the order `module --help`
# lists them; T also takes --lambda, its tube parameter.
FAMILIES = {
    "projective": (projective, False),
    "simple": (simple, False),
    "verma": (verma, False),
    "V": (family_V, True),
    "Vt": (family_Vt, True),
    "W": (family_W, True),
    "Wt": (family_Wt, True),
    "T": (family_T, True),
}


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
    if family not in FAMILIES:
        raise InvalidArgumentError(f"unknown family {family!r}")
    make, takes_l = FAMILIES[family]
    for flag, value, takes in (("--l", l, takes_l), ("--lambda", lam, family == "T")):
        if takes and value is None:
            raise InvalidArgumentError(f"family {family} needs {flag}")
        if not takes and value is not None:
            raise InvalidArgumentError(f"family {family} does not take {flag}")
    if family == "T":
        return make(ctx, i, j, l, ctx.field.from_int(lam))
    return make(ctx, i, j, l) if takes_l else make(ctx, i, j)


def cmd_module(args: argparse.Namespace) -> tuple[int, str]:
    M = build_module(AlgebraContext(args.n), args.family, args.i, args.j, args.l, args.lam)
    character: dict[str, int] = {}
    for r in range(M.dim):
        key = str((M.kexp[r], M.khatexp[r], M.grades[r] if M.grades is not None else None))
        character[key] = character.get(key, 0) + 1
    top = _counts(top_multiplicities(M))
    socle = _counts(socle_multiplicities(M))
    payload = {"version": __version__, "n": args.n, **rep_to_dict(M),
               "character": dict(sorted(character.items())), "top": top, "socle": socle}
    rows = [{"index": r, "k_exponent": M.kexp[r], "khat_exponent": M.khatexp[r],
             "grade": M.grades[r] if M.grades is not None else ""} for r in range(M.dim)]
    text = [f"{M.label}: dim {M.dim}"]
    if M.grades is not None:
        text.append(f"grades {min(M.grades)}..{max(M.grades)}")
    text += [_listing("top", top), _listing("socle", socle)]
    fields = ["index", "k_exponent", "khat_exponent", "grade"]
    return 0, _render(args, payload, fields, rows, text, f"module={M.label} n={args.n}")


# -- tensor -------------------------------------------------------------------------


def parse_label(ctx: AlgebraContext, text: str, lam: int | None) -> Representation:
    family, sep, rest = text.partition(":")
    if not sep:
        raise InvalidArgumentError(f"label {text!r} must look like family:i,j[,l]")
    try:
        nums = [integer(p) for p in rest.split(",")]
    except ValueError as exc:
        raise InvalidArgumentError(f"label {text!r} has non-integer parts") from exc
    if len(nums) == 3:
        check_l(nums[2])
    if family not in FAMILIES or len(nums) != (3 if FAMILIES[family][1] else 2):
        raise InvalidArgumentError(f"label {text!r} has the wrong shape for family {family!r}")
    i, j, *l = nums
    return build_module(ctx, family, i, j, l[0] if l else None, lam if family == "T" else None)


def cmd_tensor(args: argparse.Namespace) -> tuple[int, str]:
    families = {lab.partition(":")[0] for lab in (args.left, args.right)}
    if args.lam is not None and "T" not in families:
        raise InvalidArgumentError("--lambda is taken only with a family T label")
    ctx = AlgebraContext(args.n)
    left = parse_label(ctx, args.left, args.lam)
    right = parse_label(ctx, args.right, args.lam)
    T = tensor(left, right)
    result = decompose(T)
    evidence = {"top_counts": result.evidence["top_counts"],
                "socle_counts": socle_multiplicities(T), **result.evidence}
    summands = {
        summand_name(k): m
        for k, m in sorted(result.summands.items(), key=lambda kv: summand_name(kv[0]))
    }
    payload = {"version": __version__, "n": args.n, "left": left.label, "right": right.label,
               "dim": left.dim * right.dim,
               "status": "decomposed" if result.ok else "hypothesis-violation",
               "summands": summands, "violations": list(result.violations),
               "evidence": _jsonable(evidence)}
    rows = [{"left": left.label, "right": right.label, "summand": name, "multiplicity": m}
            for name, m in summands.items()]
    text = [f"{left.label} (x) {right.label}: dim {payload['dim']}"]
    if result.ok:
        text.append("summands: " + ", ".join(f"{name} x{m}" for name, m in summands.items()))
    else:
        text.append("hypothesis-violation:")
        text.extend(f"  {v}" for v in result.violations)
    standard = families <= {"simple", "projective"}
    fields = ["left", "right", "summand", "multiplicity"]
    return (1 if standard and not result.ok else 0), _render(args, payload, fields, rows, text)


# -- table --------------------------------------------------------------------------


def cmd_table(args: argparse.Namespace) -> tuple[int, str]:
    ctx = AlgebraContext(args.n)
    if args.kind == "k0":
        rows, fields = k0_table(ctx), ["left", "right", "class", "coefficient"]
    else:
        rows = clebsch_gordan_table(ctx, "SxS" if args.kind == "cg-ss" else "PxS")
        fields = ["left", "right", "summand", "multiplicity"]
    payload = {"table": args.kind, "version": __version__, "n": args.n, "rows": rows}
    comment = f"table={args.kind} n={args.n}"
    return 0, _render(args, payload, fields, rows, None, comment)


# -- argument parsing ---------------------------------------------------------------

COMMANDS = {"verify": cmd_verify, "module": cmd_module, "tensor": cmd_tensor, "table": cmd_table}


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--n", type=integer, default=4, help="order parameter, 4 or 8")
    common.add_argument(
        "--format", choices=("text", "json", "csv"), default="text", dest="fmt"
    )
    common.add_argument("--out", help="write output to this file instead of stdout")

    parser = argparse.ArgumentParser(
        prog="uqsl2",
        description="exact construction and verification of u_q^s(sl2) and its modules",
    )
    parser.add_argument("--version", action="version", version=f"uqsl2 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    # no statement reads --seed; verify only echoes it, and keeps it for the
    # callers that pass it (perfbench/run.py does)
    p.add_argument("--seed", type=integer, default=0, help="echoed in the output; nothing reads it")
    p.add_argument("--suite", choices=SUITES, default="all")

    p = sub.add_parser("module", parents=[common], help="emit one module")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("--i", type=integer)
    p.add_argument("--j", type=integer)
    p.add_argument("--l", type=integer)
    p.add_argument("--lambda", type=integer, dest="lam")

    p = sub.add_parser("tensor", parents=[common], help="decompose a tensor product")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--lambda", type=integer, dest="lam")

    p = sub.add_parser("table", parents=[common], help="export a multiplication table")
    p.add_argument("kind", choices=TABLE_KINDS)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        check_n(args.n)
        check_l(getattr(args, "l", None))
        check_out(args.out)
        code, output = COMMANDS[args.command](args)
        if args.out is None:
            sys.stdout.write(output)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        return code
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
