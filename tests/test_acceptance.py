"""Acceptance gate: every top-level guarantee of the package, one line each.

Each test runs one guarantee end to end at n = 4 with exact arithmetic,
prints a single PASS/FAIL line with its wall time, and enforces the
stated runtime budget.  The stretch configuration at n = 8 is opt-in via
UQSL2_STRETCH=1 and carries no budget.
"""

import hashlib
import os
import subprocess
import sys
import time

import pytest

from uqsl2 import cli
from uqsl2.k0ring import k0_reports
from uqsl2.moncat import tensor_reports
from uqsl2.qgroup import AlgebraContext
from uqsl2.quasihopf import axiom_reports
from uqsl2.reps import (
    all_labels,
    verify_block_structure,
    verify_family_constructors,
    verify_idempotent_system,
    verify_projective_vs_ideal,
    verify_regular_decomposition,
    verify_structure_counts,
)

from test_cli import GOLDEN_VIEWS


def _gate(name: str, reports, budget: float, start: float, capsys) -> None:
    elapsed = time.time() - start
    ok = all(r.passed for r in reports)
    mark = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"\n{mark} {name} ({elapsed:.1f}s, budget {budget:.0f}s)", flush=True)
    for r in reports:
        assert r.passed, f"{r.statement}: {r.counterexample}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget"


def test_quasi_hopf_axiom_suite(qh, capsys):
    start = time.time()
    _gate("quasi-Hopf axiom suite", axiom_reports(qh), 300, start, capsys)


def test_idempotent_system(actx, capsys):
    start = time.time()
    _gate(
        "primitive idempotent system", [verify_idempotent_system(actx)], 60, start, capsys
    )


def test_commutation_sweep(actx, capsys):
    start = time.time()
    rep = actx.verify_commutation_lemmas()
    assert rep.instances >= 4 * (actx.N - 1)
    _gate("power commutation sweep", [rep], 60, start, capsys)


def test_structure_census_and_quiver(actx, capsys):
    start = time.time()
    reports = [verify_structure_counts(actx), verify_block_structure(actx)]
    _gate("structure census and block quiver", reports, 600, start, capsys)


def test_regular_module_decomposition_exhaustive(actx, capsys):
    """u = sum of the shifted ideals u*gamma_k E^h, each isomorphic to P_k,
    exhaustively over the labels: the socle argument of
    `verify_regular_decomposition` together with its premise, the matrix
    model of every P_k against u*gamma_k inside u, for all 16 labels (its
    other premises, the census and the idempotent system, are items 4
    and 2)."""
    start = time.time()
    reports = [verify_regular_decomposition(actx)]
    reports.extend(verify_projective_vs_ideal(actx, i, j) for i, j in all_labels(actx))
    _gate("regular-module decomposition into P_k = u*gamma_k", reports, 300, start, capsys)


def test_strand_family_constructors(actx, capsys):
    start = time.time()
    _gate(
        "strand family constructors", [verify_family_constructors(actx)], 900, start, capsys
    )


def test_tensor_product_sweeps(actx, capsys, monkeypatch):
    """The tensor suite, its statements with their instance counts, and the
    text of `verify --suite tensor` rendered from these reports, so the
    sweeps run once for both."""
    start = time.time()
    reports = tensor_reports(actx)
    _gate("tensor decomposition sweeps", reports, 3600, start, capsys)
    assert [(r.statement, r.instances) for r in reports] == [
        ("the one-dimensional module of trivial class is a tensor unit", 64),
        ("projective-by-simple products match the fusion rule", 512),
        ("simple-by-simple products match the fusion rule, every summand is simple or "
         "projective, and the mixed case with i1 > i2 reads both factors as simple", 256),
    ]
    argv = ("verify", "--suite", "tensor", "--format", "text")
    monkeypatch.setattr(cli, "suite_reports", lambda ctx, suite: reports)
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VIEWS[argv]


def test_grothendieck_ring(actx, capsys):
    start = time.time()
    _gate("Grothendieck ring presentation and products", k0_reports(actx), 30, start, capsys)


def test_table_determinism(capsys, child_env):
    start = time.time()

    def run():
        return subprocess.run(
            [sys.executable, "-m", "uqsl2.cli", "table", "cg-ss", "--n", "4"],
            capture_output=True,
            text=True,
            env=child_env,
        )

    outputs = [run(), run()]
    ok = (
        all(p.returncode == 0 for p in outputs)
        and outputs[0].stdout == outputs[1].stdout
        and len(outputs[0].stdout.splitlines()) > 256
    )
    elapsed = time.time() - start
    mark = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n{mark} table determinism across fresh processes ({elapsed:.1f}s)", flush=True)
    assert ok


@pytest.mark.skipif(
    os.environ.get("UQSL2_STRETCH") != "1", reason="stretch run is opt-in (UQSL2_STRETCH=1)"
)
def test_stretch_parameter_n8(capsys):
    import random

    from uqsl2.moncat import decompose, simple_simple_rule, tensor
    from uqsl2.reps import simple

    start = time.time()
    ctx = AlgebraContext(8)
    reports = k0_reports(ctx)
    rng = random.Random(0)
    labels = all_labels(ctx)
    pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(20)]
    ok = all(r.passed for r in reports)
    for (i1, j1), (i2, j2) in pairs:
        want = simple_simple_rule(ctx, i1, j1, i2, j2)
        res = decompose(tensor(simple(ctx, i1, j1), simple(ctx, i2, j2)))
        if not res.ok or res.summands != want:
            ok = False
            break
    elapsed = time.time() - start
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} stretch run at n=8 ({elapsed:.1f}s)", flush=True)
    for r in reports:
        assert r.passed, f"{r.statement}: {r.counterexample}"
    assert ok
