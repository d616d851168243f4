import random

import pytest

from oracles import (
    axiom_sample_failures,
    axiom_samples,
    cocycle_failures,
    ef_height_failures,
    grading_certificate,
    grading_sample_failure,
    grading_samples,
    phi_by_triples,
)
from uqsl2 import quasihopf
from uqsl2.qgroup import AlgebraContext, AlgebraElement, _group_mul
from uqsl2.quasihopf import (
    UNIT_KEY,
    QuasiHopfData,
    TensorElement,
    axiom_reports,
    k_orbits,
    tensor_of,
    unit_tensor,
)


def test_delta_on_grouplikes(actx, qh):
    for eps in (0, 1):
        for c in (0, 1, 5, 7):
            g = actx.group_elem(eps, c)
            assert qh.delta(g) == tensor_of(g, g)
    for i in range(actx.n):
        expected = TensorElement(actx, 2, {})
        for i1 in range(actx.n):
            i2 = (i - i1) % actx.n
            expected = expected + tensor_of(actx.idempotent_1(i1), actx.idempotent_1(i2))
        assert qh.delta(actx.idempotent_1(i)) == expected


def test_counit_values(actx, qh):
    f = actx.field
    assert qh.counit(actx.k) == f.one
    assert qh.counit(actx.khat) == f.one
    assert qh.counit(actx.E).is_zero()
    assert qh.counit(actx.F).is_zero()
    for i in range(actx.n):
        eps_val = qh.counit(actx.idempotent_1(i))
        assert eps_val == (f.one if i == 0 else f.zero)


def _seeded_pairs(actx, seed, count=10):
    rng = random.Random(seed)
    for _ in range(count):
        kx = (rng.randrange(4), rng.randrange(2), rng.randrange(actx.half), rng.randrange(4))
        ky = (rng.randrange(4), rng.randrange(2), rng.randrange(actx.half), rng.randrange(4))
        yield AlgebraElement(actx, {kx: actx.field.one}), AlgebraElement(actx, {ky: actx.field.one})


def test_antipode_on_idempotents_and_antimultiplicativity(actx, qh):
    for i in range(actx.n):
        assert qh.antipode(actx.idempotent_1(i)) == actx.idempotent_1((actx.n - i) % actx.n)
    for x, y in _seeded_pairs(actx, 5):
        assert qh.antipode(x * y) == qh.antipode(y) * qh.antipode(x)


def _multiplicativity_failures(qh, seed=6):
    """The seeded monomial pairs (x, y) with D(x y) != D(x) D(y)."""
    return [
        (x, y) for x, y in _seeded_pairs(qh.actx, seed)
        if qh.delta(x * y) != qh.delta(x) * qh.delta(y)
    ]


def test_delta_is_multiplicative(actx, qh):
    # the premise under which the counit, coassociativity and zigzag
    # identities hold on all of u once they hold on the generators
    assert _multiplicativity_failures(qh) == []
    assert qh.delta(actx.F * actx.E) == qh.delta(actx.F) * qh.delta(actx.E)
    assert qh.delta(actx.E * actx.F) == qh.delta(actx.E) * qh.delta(actx.F)


def test_axioms_hold_on_the_old_samples(qh):
    counit, coassoc, zigzag = axiom_samples(qh, 0)
    assert (len(counit), len(coassoc), len(zigzag)) == (34, 10, 148)
    assert axiom_sample_failures(qh, 0) == {
        "counit": None, "coassociativity": None, "zigzag": None
    }


def test_tensor_element_algebra(actx):
    x = actx.E + actx.k
    y = actx.F
    left = tensor_of(x, actx.one_elem) * tensor_of(actx.one_elem, y)
    assert left == tensor_of(x, y)
    u3 = unit_tensor(actx, 3)
    assert tensor_of(actx.one_elem, actx.one_elem, actx.one_elem) == u3
    promoted = tensor_of(x, y).insert_unit_leg(1)
    assert promoted == tensor_of(x, actx.one_elem, y)


def test_reassociator_inverse(actx, qh):
    assert qh.phi() * qh.phi_inv() == unit_tensor(actx, 3)


def test_phi_rows_match_the_triple_sum(qh):
    # term for term: both prune every cancelled key
    assert qh.phi().terms == phi_by_triples(qh, +1).terms
    assert qh.phi_inv().terms == phi_by_triples(qh, -1).terms


@pytest.mark.parametrize("n", [4, 8])
def test_phi_exponent_is_a_cocycle(n):
    # the scalar form of the pentagon, which `verify_pentagon` decides as
    # the tensor identity
    assert cocycle_failures(n) == []


def test_cocycle_check_rejects_a_perturbed_exponent(monkeypatch):
    exponent = quasihopf._phi_exponent
    monkeypatch.setattr(
        quasihopf, "_phi_exponent",
        lambda n, i, j, k: (exponent(n, i, j, k) + (i == j == k == 1)) % n,
    )
    assert cocycle_failures(4)
    rep = QuasiHopfData(AlgebraContext(4)).verify_pentagon()
    assert (rep.passed, rep.instances, rep.counterexample) == (
        False, 1, "tensor product identity"
    )


def _commutes_with_phi_directly(qh, lhs, rhs) -> bool:
    """The oracle for `QuasiHopfData.commutes_with_phi`: both products by
    Phi, formed in u^(x 3) and compared."""
    phi = qh.phi()
    return phi * lhs == rhs * phi


def _coassociativity_sides(qh, x):
    """((D (x) id) D(x), (id (x) D) D(x))."""
    dx = qh.delta(x)
    return qh.delta_on_leg(dx, 0), qh.delta_on_leg(dx, 1)


def test_mode_check_matches_the_direct_products(qh):
    for x in axiom_samples(qh, 0)[1]:
        lhs, rhs = _coassociativity_sides(qh, x)
        assert qh.commutes_with_phi(lhs, rhs)
        assert _commutes_with_phi_directly(qh, lhs, rhs)


def test_mode_check_and_oracle_reject_a_sign_flipped_reassociator(monkeypatch):
    exponent = quasihopf._phi_exponent
    monkeypatch.setattr(
        quasihopf, "_phi_exponent", lambda n, i, j, k: -exponent(n, i, j, k) % n
    )
    ctx = AlgebraContext(4)  # fresh, so Phi and its twists use the flipped exponent
    qh = QuasiHopfData(ctx)
    lhs, rhs = _coassociativity_sides(qh, ctx.E)
    assert not qh.commutes_with_phi(lhs, rhs)
    assert not _commutes_with_phi_directly(qh, lhs, rhs)


def test_mode_check_and_oracle_reject_a_perturbed_coefficient(actx, qh):
    lhs, rhs = _coassociativity_sides(qh, actx.E)
    # one coefficient moved, and one term on an orbit lhs does not meet
    stray = ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, actx.N - 1))
    assert stray not in lhs.terms
    key = min(rhs.terms)
    for terms in ({**rhs.terms, key: rhs.terms[key] + actx.field.one},
                  {**rhs.terms, stray: actx.field.one}):
        bad = TensorElement(actx, 3, terms)
        assert not qh.commutes_with_phi(lhs, bad)
        assert not _commutes_with_phi_directly(qh, lhs, bad)


@pytest.mark.parametrize("n", [4, 8])
def test_k_orbit_split_composes_back(n):
    ctx = AlgebraContext(n)
    split = k_orbits(ctx)
    assert set(split) == {(eps, c) for eps in (0, 1) for c in range(ctx.half)}
    assert len(split) == n * n
    k_pows = [(0, 0)]
    for _ in range(n):
        k_pows.append(_group_mul(n, 1, 0, *k_pows[-1]))
    assert k_pows[n] == (0, 0)
    for (eps, c), (c0, t) in split.items():
        assert 0 <= c0 < n and 0 <= t < n
        assert _group_mul(n, *k_pows[t], 0, c0) == (eps, c)
        # k moves a grouplike one place along its orbit
        assert split[_group_mul(n, 1, 0, eps, c)] == (c0, (t + 1) % n)


def _grading_splits_directly(qh, key) -> list[tuple]:
    """The oracle for `oracles.grading_certificate`: D(key) formed, and its
    terms whose heights do not add up to the height of key."""
    h = key[3] - key[0]
    return [
        (ka, kb) for (ka, kb) in qh.delta_mono(key).terms
        if (ka[3] - ka[0]) + (kb[3] - kb[0]) != h
    ]


def _factor_product(qh, key):
    """D(F^a) D(g) D(E^d), the product the certificate reasons about."""
    a, eps, c, d = key
    return (
        qh.delta_mono((a, 0, 0, 0)) * qh.delta_mono((0, eps, c, 0)) * qh.delta_mono((0, 0, 0, d))
    )


def test_ef_normal_forms_keep_heights(actx):
    # the premise of `verify_grading`: the product of u is graded
    assert ef_height_failures(actx) == []


def test_grading_certificate_matches_the_exact_read(qh):
    keys = grading_samples(qh, 0)
    assert len(keys) == 40
    for key in keys:
        assert grading_certificate(qh, key), key
        assert _grading_splits_directly(qh, key) == [], key
        assert qh.delta_mono(key) == _factor_product(qh, key), key
    assert grading_sample_failure(qh, 0) is None


def test_grading_certificate_declines_an_off_height_product(monkeypatch):
    # F^12 * k also gains the unit, a key of the wrong height; the pair is
    # on leg 0 of D(F^12) D(k), reached by the first sampled monomial only.
    # The fault breaks the premise that the product is graded, not the
    # grading of a generator's coproduct, so `verify_grading` passes and
    # the old samples catch it.
    pair = ((12, 0, 0, 0), (0, 1, 0, 0))
    mono_mul = AlgebraContext.mono_mul
    delta_mono = QuasiHopfData.delta_mono
    calls = []

    def faulty_mono_mul(self, k1, k2):
        out = mono_mul(self, k1, k2)
        return out + ((UNIT_KEY, 0, ()),) if (k1, k2) == pair else out

    def spied_delta_mono(self, key):
        calls.append(key)
        return delta_mono(self, key)

    monkeypatch.setattr(AlgebraContext, "mono_mul", faulty_mono_mul)
    monkeypatch.setattr(QuasiHopfData, "delta_mono", spied_delta_mono)
    qh = QuasiHopfData(AlgebraContext(4))  # fresh, so no product outlives the fault
    assert qh.verify_grading().passed
    keys = grading_samples(qh, 0)
    key = keys[32]
    assert key == (12, 1, 0, 8)
    calls.clear()
    failure = grading_sample_failure(qh, 0)
    assert key in calls
    # the grid was certified: only its two grouplikes, read as factors
    assert set(calls) & set(keys[:32]) == {(0, 0, 1, 0), (0, 1, 5, 0)}
    assert not grading_certificate(qh, key)
    splits = _grading_splits_directly(qh, key)
    assert splits
    assert failure == (33, f"monomial {key} split {splits[0]}")


def test_grading_certificate_trusts_the_factors_it_reads(monkeypatch):
    # A coproduct that gains 1 (x) 1 only on keys with a, d >= 1 keeps the
    # factors D(F^a), D(g), D(E^d) right, so the grading certificate trusts
    # them, and the counit, coassociativity, zigzag and grading checks
    # pass: they read the generators, and the fault breaks their premise
    # that D is multiplicative, not an identity on a generator.  The
    # premise test and the old samples catch it.
    original = QuasiHopfData.delta_mono

    def delta_mono(self, key):
        out = original(self, key)
        if key[0] == 0 or key[3] == 0:
            return out
        return TensorElement(
            self.actx, 2, {**out.terms, (UNIT_KEY, UNIT_KEY): self.actx.field.one}
        )

    monkeypatch.setattr(QuasiHopfData, "delta_mono", delta_mono)
    qh = QuasiHopfData(AlgebraContext(4))
    assert all(rep.passed for rep in axiom_reports(qh))
    assert grading_sample_failure(qh, 0) is None
    assert _multiplicativity_failures(qh)
    f, e = qh.actx.F, qh.actx.E
    assert qh.delta(f * e) != qh.delta(f) * qh.delta(e)
    assert axiom_sample_failures(qh, 0) == {
        "counit": (1, 1, 3, 1),
        "coassociativity": axiom_samples(qh, 0)[1][6],
        "zigzag": (1, 0, 0, 1),
    }
    key = (1, 0, 1, 1)
    assert qh.delta_mono(key) != _factor_product(qh, key)


def test_delta_is_not_strictly_coassociative(qh):
    dE = qh.delta(qh.actx.E)
    assert qh.delta_on_leg(dE, 0) != qh.delta_on_leg(dE, 1)


def test_wrong_evaluation_element_breaks_zigzag(actx, qh):
    # With the evaluation element replaced by 1 the left zigzag must fail on E.
    out = actx.zero_elem
    for (ka, kb), s in qh.delta(actx.E).terms.items():
        piece = qh.antipode_mono(ka) * AlgebraElement(actx, {kb: actx.field.one})
        out = out + piece.scale(s)
    assert not out.is_zero()


def test_axiom_reports_all_pass(qh):
    reports = axiom_reports(qh)
    assert len(reports) == 6
    for rep in reports:
        assert rep.passed, f"{rep.statement}: {rep.counterexample}"
        assert rep.instances > 0
