import random

import pytest

from uqsl2 import linalg
from uqsl2.cyclo import qint
from uqsl2.errors import ContextMismatchError, InvalidArgumentError
from uqsl2.qgroup import AlgebraContext, AlgebraElement, _group_mul
from uqsl2.reps import verify_projective_vs_ideal, verify_regular_decomposition

from oracles import heights, idempotent_failures, regular_rank, socle_shift_failures


def test_generator_relations(actx):
    f = actx.field
    one = actx.one_elem
    k, kh, E, F = actx.k, actx.khat, actx.E, actx.F
    assert k ** actx.n == one
    assert kh ** actx.half == one
    assert kh ** actx.n == actx.kinv * actx.kinv
    assert k * kh == kh * k
    assert k * actx.kinv == one
    assert kh * actx.khat_inv == one
    assert k * E * actx.kinv == E.scale(f.qbar)
    assert k * F * actx.kinv == F.scale(f.qbarpow(-1))
    assert kh * E * actx.khat_inv == E.scale(f.qbar * f.qpow(-2))
    assert kh * F * actx.khat_inv == F.scale(f.qbarpow(-1) * f.qpow(2))
    assert (E ** actx.N).is_zero()
    assert (F ** actx.N).is_zero()
    assert F * E - (E * F).scale(f.qpow(-1)) == one - actx.kinv_khat


def test_perturbed_relations_fail(actx):
    f = actx.field
    one = actx.one_elem
    E, F = actx.E, actx.F
    assert F * E - (E * F).scale(f.q) != one - actx.kinv_khat
    assert F * E - (E * F).scale(f.qpow(-1)) != one + actx.kinv_khat
    assert actx.k * E * actx.kinv != E.scale(f.qbarpow(-1))


def test_group_elem_encoding(actx):
    n, half = actx.n, actx.half
    k, khat = actx.k, actx.khat
    assert k * k == actx.group_elem(0, -n)
    assert _group_mul(n, 1, 0, 1, 0) == (0, (-n) % half)
    assert (khat ** n) * k * k == actx.one_elem
    labels = [(e, c) for e in (0, 1) for c in range(half)]
    elems = {g: actx.group_elem(*g) for g in labels}
    assert len(set(elems.values())) == n * n
    for g1, x1 in elems.items():
        for g2, x2 in elems.items():
            assert x1 * x2 == elems[_group_mul(n, *g1, *g2)]
        # The inverse as the antipode forms it: k^-1 = k khat^n.
        eps, c = g1
        assert _group_mul(n, eps, c, eps, eps * n - c) == (0, 0)
        assert x1 * actx.group_elem(eps, eps * n - c) == actx.one_elem
    assert actx._weight(1, n + 1) == (n * n - 2) % (n * n)
    assert actx._weight(1, n // 2) == n * n // 2


def test_group_weight_is_conjugation_phase(actx):
    f = actx.field
    for eps in (0, 1):
        for c in range(actx.half):
            g = actx.group_elem(eps, c)
            w = actx._weight(eps, c)
            assert g * actx.E == (actx.E * g).scale(f.qpow(w))
            assert g * actx.F == (actx.F * g).scale(f.qpow(-w))


def test_associativity_on_random_triples(actx):
    rng = random.Random(20260813)
    f = actx.field

    def rand_elem():
        out = actx.zero_elem
        for _ in range(3):
            a = rng.randrange(actx.N)
            d = rng.randrange(actx.N)
            eps = rng.randrange(2)
            c = rng.randrange(actx.half)
            coeff = f.from_int(rng.randrange(-3, 4))
            out = out + actx.monomial(a, eps, c, d, coeff)
        return out

    for _ in range(100):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)


def test_products_preserve_height(actx):
    rng = random.Random(99)
    for _ in range(40):
        a1, d1 = rng.randrange(8), rng.randrange(8)
        a2, d2 = rng.randrange(8), rng.randrange(8)
        m1 = actx.monomial(a1, rng.randrange(2), rng.randrange(actx.half), d1)
        m2 = actx.monomial(a2, rng.randrange(2), rng.randrange(actx.half), d2)
        prod = m1 * m2
        hs = heights(prod)
        assert len(hs) <= 1
        if hs:
            assert hs == {(d1 - a1) + (d2 - a2)}


def test_k_eigenprojectors(actx):
    f = actx.field
    total = actx.zero_elem
    for i in range(actx.n):
        pi = actx.idempotent_1(i)
        total = total + pi
        assert pi * pi == pi
        assert actx.k * pi == pi.scale(f.qbarpow(i))
        for i2 in range(i):
            assert (pi * actx.idempotent_1(i2)).is_zero()
    assert total == actx.one_elem
    assert actx.flat() * actx.flat_inv() == actx.one_elem
    with pytest.raises(InvalidArgumentError):
        actx.idempotent_1(actx.n)


def test_primitive_idempotents(actx):
    """The eigenvalues of each e_{2i,j}, and by products in u what
    `reps.verify_idempotent_system` reads off the characters of u^0: all
    ordered products, the sum and the rank of each u^0 e."""
    f = actx.field
    for i in range(1, actx.half + 1):
        for j in (0, 1):
            e = actx.idempotent_e(i, j)
            assert actx.kinv_khat * e == e.scale(f.qpow(2 * i))
            assert actx.k_khat_half * e == e.scale(f.sign(j))
    assert idempotent_failures(actx) == []
    for bad in ((0, 0), (actx.half + 1, 0), (1, 2)):
        with pytest.raises(InvalidArgumentError):
            actx.idempotent_e(*bad)


def test_ef_table_matches_closed_form(actx):
    f = actx.field
    kkc = (actx.n + 1) % actx.half
    for a in range(1, actx.N):
        qa = qint(f, a, f.q)
        expected = {
            (a, 0, 0, 1): f.qpow(a),
            (a - 1, 1, kkc, 0): f.qpow(a) * qa,
            (a - 1, 0, 0, 0): -(f.q * qa),
        }
        got = {(ap, eps, c, dp): s for ap, eps, c, dp, s in actx.ef(1, a)}
        assert got == expected


def test_commutation_lemma_report(actx):
    rep = actx.verify_commutation_lemmas()
    assert rep.passed, rep.counterexample
    assert rep.instances == 4 * (actx.N - 1) + 4 + 2 * actx.N


def test_alpha_vectors(actx):
    f = actx.field
    for i in range(1, actx.half + 1):
        for j in (0, 1):
            alpha = actx.alpha_vec(i, j)
            assert heights(alpha) == {1 - actx.N}
            assert (actx.F * alpha).is_zero()
            assert not (actx.e_power(actx.N - 1) * alpha).is_zero()
            assert actx.kinv_khat * alpha == alpha.scale(f.qpow(2 * i - 2))
            assert actx.k_khat_half * alpha == alpha.scale(f.sign(j + 1))
            ladder = actx.F * (actx.E * alpha)
            assert ladder == alpha.scale(f.one - f.qpow(2 * i - 2))


def test_gamma_vectors(actx):
    for i in range(1, actx.half + 1):
        for j in (0, 1):
            gamma = actx.gamma_vec(i, j)
            assert heights(gamma) == {2 * i - actx.N}
            assert actx.F * gamma == actx.beta_vec(i, j)
    direct = AlgebraElement(
        actx,
        {
            (actx.N - 2, eps, c, 0): s
            for (_, eps, c, _), s in actx.idempotent_e(1, 0).terms.items()
        },
    )
    assert actx.gamma_vec(1, 0) == direct


def _left_ideal_basis(actx, x):
    """A basis of u*x, closed under left multiplication by E, F, k, khat:
    the oracle for dim u*gamma, which `verify_projective_vs_ideal` derives
    from the chain checks instead of solving for it."""
    ech = linalg.Echelon(actx.field)
    basis = []
    queue = [x]
    gens = (actx.E, actx.F, actx.k, actx.khat)
    while queue:
        v = queue.pop()
        if v.is_zero() or ech.add(actx.coords(v)) is None:
            continue
        basis.append(v)
        for g in gens:
            queue.append(g * v)
    return basis


def test_gamma_generates_projective_of_dim_2nsq(actx):
    for i in range(1, actx.half + 1):
        for j in (0, 1):
            basis = _left_ideal_basis(actx, actx.gamma_vec(i, j))
            assert len(basis) == 2 * actx.N, (i, j)


def test_regular_decomposition_fast(actx):
    rep = verify_regular_decomposition(actx)
    assert rep.passed, rep.counterexample
    assert rep.instances == 1 + 2 * actx.half


def test_regular_decomposition_needs_a_height_homogeneous_socle_vector(monkeypatch):
    """One off-height term in alpha_(4,0) would give w_(4,0) = E^(n^2-1)
    alpha two heights.  `verify_regular_decomposition` reads no alpha, so
    it still passes; its premise `verify_projective_vs_ideal` builds the
    a-chain from alpha inside u and reports the bent vector."""
    ctx = AlgebraContext(4)  # fresh, so the bent alpha reaches no shared memo
    ctx.gamma_vec(2, 0)  # built from the true alpha before the bend
    real = AlgebraContext.alpha_vec

    def bent(self, i, j):
        alpha = real(self, i, j)
        if (i, j) != (2, 0):
            return alpha
        return alpha + AlgebraElement(self, {(self.N - 2, 0, 0, 0): self.field.one})

    monkeypatch.setattr(AlgebraContext, "alpha_vec", bent)
    assert verify_regular_decomposition(ctx).passed
    rep = verify_projective_vs_ideal(ctx, 2, 0)
    assert (rep.passed, rep.instances, rep.counterexample) == (
        False, 1, "F action on a-chain vector 0 disagrees inside u"
    )


def test_socle_shift_oracle(actx):
    """Each w_k = E^(n^2-1) alpha_k, formed in u, has one height and
    w_k E^(n^2-2i) != 0, as `verify_regular_decomposition` decides from
    its action on P_k."""
    assert socle_shift_failures(actx) == []


def test_regular_rank_oracle_spans_u(actx):
    """The exact cross-check of the socle argument: all n^6 spanning vectors
    E^l alpha E^h and E^l gamma E^h of the shifted ideals have rank dim u."""
    assert regular_rank(actx) == actx.dim == 4096


def test_monomial_index_is_injective(actx):
    seen = set()
    for a in range(actx.N):
        for eps in (0, 1):
            for c in range(actx.half):
                for d in range(actx.N):
                    idx = actx.monomial_index((a, eps, c, d))
                    assert 0 <= idx < actx.dim
                    seen.add(idx)
    assert len(seen) == actx.dim


def test_argument_validation(actx):
    with pytest.raises(InvalidArgumentError):
        actx.monomial(actx.N, 0, 0, 0)
    with pytest.raises(InvalidArgumentError):
        actx.E ** -1
    other = AlgebraContext(4)
    with pytest.raises(ContextMismatchError):
        actx.E + other.E

