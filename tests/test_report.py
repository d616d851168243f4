"""The verifier runner, and the failure path of one verifier per module."""

import pytest

from uqsl2 import k0ring, moncat, quasihopf, reps
from uqsl2.qgroup import AlgebraContext
from uqsl2.quasihopf import QuasiHopfData, TensorElement
from uqsl2.report import verifier

from oracles import graded_tilings


def test_runner_counts_every_passing_item():
    @verifier(lambda n: f"{n} items hold")
    def holds(n):
        for _ in range(n):
            yield None

    rep = holds(5)
    assert (rep.statement, rep.passed, rep.instances, rep.counterexample) == (
        "5 items hold", True, 5, None
    )
    assert rep.wall_time >= 0


def test_runner_stops_at_first_counterexample():
    resumed = []
    closed = []

    @verifier("items below three hold")
    def items():
        try:
            for k in range(1, 10):
                yield None if k < 3 else f"item {k}"
                resumed.append(k)
        finally:
            closed.append(True)

    rep = items()
    assert (rep.statement, rep.passed, rep.instances, rep.counterexample) == (
        "items below three hold", False, 3, "item 3"
    )
    assert resumed == [1, 2]
    assert closed == [True]


def test_runner_on_empty_generator():
    @verifier("nothing to check")
    def empty():
        yield from ()

    rep = empty()
    assert (rep.passed, rep.instances, rep.counterexample) == (True, 0, None)


def _drop_first_summand(rule):
    def broken(ctx, i1, j1, i2, j2):
        out = dict(rule(ctx, i1, j1, i2, j2))
        del out[next(iter(out))]
        return out

    return broken


def _fail_engine(*args, **kwargs):
    raise AssertionError("the engine ran where no check needs it")


def _flip_one_parity(rule):
    """S(12,1) (x) S(14,0) is stated with S(14,0) in place of S(14,1)."""

    def flipped(ctx, i1, j1, i2, j2):
        out = dict(rule(ctx, i1, j1, i2, j2))
        if (i1, j1, i2, j2) == (6, 1, 7, 0):
            out[("S", 7, 0)] = out.pop(("S", 7, 1))
        return out

    return flipped


def _unlinked_projective(original):
    """P_k without the F entries from its generator chain into its a-chain,
    so F^(n^2-1) kills every vector of class chi_k."""

    def unlinked(ctx, i, j):
        P = original(ctx, i, j)
        F = {c: {r: s for r, s in col.items() if c < ctx.N or r >= ctx.N}
             for c, col in P.F.items()}
        return reps.Representation(ctx, P.label, P.kexp, P.khatexp, P.E, F, P.grades)

    return unlinked


def _bump_one_group_coefficient(original):
    """e_(4,0) with one more unit on the grouplike 1."""

    def bumped(self, i, j):
        e = original(self, i, j)
        if (i, j) != (2, 0):
            return e
        return e + self.one_elem

    return bumped


def _bump_chain_g_f(original):
    def bumped(f, i, s):
        return original(f, i, s) + f.one

    return bumped


def _unbalanced_delta(original):
    """Coproduct of E-height one that also carries 1 (x) 1."""

    def delta_mono(self, key):
        out = original(self, key)
        if key[3] - key[0] != 1:
            return out
        terms = dict(out.terms)
        terms[((0, 0, 0, 0), (0, 0, 0, 0))] = self.actx.field.one
        return TensorElement(self.actx, 2, terms)

    return delta_mono


def _flip_phi_exponent(original):
    """The reassociator exponent with its sign flipped: Phi^-1 for Phi."""

    def flipped(n, i, j, k):
        return -original(n, i, j, k) % n

    return flipped


def _extra_unit_class(original):
    """Products with S(4,0) on the right gain one trivial class."""

    def expand(ctx, i1, j1, i2, j2):
        out = dict(original(ctx, i1, j1, i2, j2))
        if (i2, j2) == (2, 0):
            out[(ctx.half, 0)] = out.get((ctx.half, 0), 0) + 1
        return out

    return expand


def _bump_one_constant(original):
    """[S(6,1)][S(10,0)] gains one [S(2,0)] in both orders, so the products
    stay symmetric."""

    def bumped(ctx, k1, k2):
        out = dict(original(ctx, k1, k2))
        if {k1, k2} == {(3, 1), (5, 0)}:
            out[(1, 0)] += 1
        return out

    return bumped


SS_STATEMENT = (
    "simple-by-simple products match the fusion rule, every summand is "
    "simple or projective, and the mixed case with i1 > i2 reads both "
    "factors as simple"
)

# (verifier, faults as (owner, name, replacement given the original),
#  statement, instances, counterexample)
FAULTS = [
    (
        lambda ctx: moncat.verify_simple_simple_tensors(ctx),
        [(moncat, "simple_simple_rule", _drop_first_summand)],
        SS_STATEMENT,
        1,
        "S(2,0)(x)S(2,0): engine found P(14,1) + P(12,0) + P(10,1) + P(8,0) + P(6,1) + "
        "P(4,0) + P(2,1) + S(16,0), rule says P(14,1) + P(12,0) + P(10,1) + P(8,0) + "
        "P(6,1) + P(4,0) + P(2,1)",
    ),
    (
        lambda ctx: reps.verify_regular_decomposition(ctx),
        [(reps, "projective", _unlinked_projective)],
        "regular module decomposes into shifted projectives",
        2,
        "w_(2,0) E^(n^2-2) != 0 undecided: it acts as zero on P(2,0)",
    ),
    (
        lambda ctx: reps.verify_idempotent_system(ctx),
        [(AlgebraContext, "idempotent_e", _bump_one_group_coefficient)],
        "primitive orthogonal idempotent decomposition of the unit",
        4,
        "e_(4,0) does not act as the indicator of its class",
    ),
    (
        lambda ctx: reps.verify_projective_vs_ideal(ctx, 1, 0),
        [(reps, "_chain_g_f", _bump_chain_g_f)],
        "matrix model of P(2,0) matches the left ideal model inside u",
        4,
        "F action on generator chain vector 1 disagrees inside u",
    ),
    (
        lambda ctx: QuasiHopfData(ctx).verify_grading(),
        [(QuasiHopfData, "delta_mono", _unbalanced_delta)],
        "coproduct preserves the height grading",
        3,
        "monomial (0, 0, 0, 1) split ((0, 0, 0, 0), (0, 0, 0, 0))",
    ),
    (
        lambda ctx: QuasiHopfData(ctx).verify_quasi_coassociativity(),
        [(quasihopf, "_phi_exponent", _flip_phi_exponent)],
        "coproduct is coassociative up to the reassociator",
        3,
        "AlgebraElement((1,0,0,0,0,0,0,0)*E)",
    ),
    (
        lambda ctx: k0ring.verify_character_homomorphisms(ctx),
        [(k0ring, "_expand_products", _extra_unit_class)],
        "dimension and parity are ring homomorphisms on K0",
        5,
        "character mismatch at (1, 0) x (2, 0)",
    ),
    (
        lambda ctx: moncat.verify_simple_simple_tensors(ctx),
        [(moncat, "simple_simple_rule", _flip_one_parity)],
        SS_STATEMENT,
        189,
        "S(12,1)(x)S(14,0): engine found S(14,1) + S(12,0) + S(10,1), "
        "rule says S(14,0) + S(12,0) + S(10,1)",
    ),
    (
        lambda ctx: k0ring.verify_fusion_consistency(ctx),
        [
            (k0ring, "_expand_products", _extra_unit_class),
            (moncat, "decompose", lambda _: _fail_engine),
        ],
        "K0 products equal the composition classes of tensor products",
        19,
        "structure constants at (1, 0) x (2, 0) differ from the composition "
        "counts of the tensor module",
    ),
    (
        lambda ctx: k0ring.verify_ring_axioms(ctx),
        [(k0ring, "basis_product", _bump_one_constant)],
        "K0 is a commutative unital ring with nonnegative structure constants",
        345,
        "associativity fails at (8, 1), (3, 0), (5, 0)",
    ),
]


@pytest.mark.parametrize(
    "run, faults, statement, instances, counterexample",
    FAULTS,
    ids=["moncat", "regular-undecided", "idempotent", "reps", "quasihopf", "reassociator",
         "k0ring", "ss-parity", "k0-fusion", "k0-associativity"],
)
def test_injected_fault_is_reported(
    monkeypatch, run, faults, statement, instances, counterexample
):
    ctx = AlgebraContext(4)  # fresh, so no memo outlives the fault
    for owner, name, make in faults:
        monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    rep = run(ctx)
    assert rep.passed is False
    assert rep.statement == statement
    assert rep.instances == instances
    assert rep.counterexample == counterexample


def test_graded_tiling_oracle_catches_a_flipped_parity(monkeypatch):
    """The "ss-parity" fault fails the graded-tiling oracle at the instance
    where the old tensor statement failed, 16 + 189 = 205, and nowhere
    else."""
    monkeypatch.setattr(moncat, "simple_simple_rule",
                        _flip_one_parity(moncat.simple_simple_rule))
    results = list(graded_tilings(AlgebraContext(4)))
    assert [(k, name) for k, (name, holds) in enumerate(results, 1) if not holds] == [
        (205, "S(12,1)(x)S(14,0)")]
