"""Field arithmetic in Q(zeta_16) and Q(zeta_64), the integer kernels, and
the laws that every `Combination` (u, u(x)u, K0, Z[g,x]) shares."""

import random
from fractions import Fraction

import pytest

from uqsl2.cyclo import (
    _negacyclic_mul,
    make_context,
    qint,
    scalar_from_str,
    scalar_to_str,
)
from uqsl2.errors import (
    ContextMismatchError,
    DivisionByZeroError,
    InvalidArgumentError,
    UnsupportedParameterError,
)
from uqsl2.k0ring import K0Element, pres_g, pres_one, pres_x, simple_class
from uqsl2.qgroup import AlgebraContext, AlgebraElement
from uqsl2.quasihopf import TensorElement, tensor_of, unit_tensor


def test_context_rejects_bad_n():
    for bad in (0, 2, 3, 6, -4, 7, 12, 20, 24):
        with pytest.raises(UnsupportedParameterError):
            make_context(bad)


def test_primitive_root_order():
    ctx = make_context(4)
    assert ctx.N == 16
    assert ctx.degree == 8
    q = ctx.q
    powers = set()
    acc = ctx.one
    for _ in range(16):
        powers.add(acc.num)
        acc = acc * q
    assert acc == ctx.one
    assert len(powers) == 16  # exact multiplicative order 16
    assert ctx.qpow(8) == ctx.minus_one
    assert ctx.qbar == ctx.qpow(4)
    assert ctx.qbarpow(2) == ctx.minus_one  # qbar has order 4


def test_field_axioms_random():
    ctx = make_context(4)
    rng = random.Random(7)

    def rand_scalar():
        return ctx.from_coeffs(
            [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(8)]
        )

    for _ in range(40):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == ctx.zero
        assert a * ctx.one == a


def test_inverse_random():
    ctx = make_context(4)
    rng = random.Random(11)
    for _ in range(25):
        coeffs = [rng.randint(-6, 6) for _ in range(8)]
        if not any(coeffs):
            coeffs[0] = 1
        a = ctx.from_coeffs(coeffs)
        assert a * a.inverse() == ctx.one
        assert a / a == ctx.one


@pytest.mark.parametrize("n", [4, 8])
def test_residue_field_is_a_ring_map(n):
    ctx = make_context(n)
    assert ctx._residue_field is None  # built on first use only
    res = ctx.residue_field()
    assert ctx.residue_field() is res
    p, N = res.p, ctx.N
    assert p > 2**30 and p % N == 1
    assert not any(m % N == 1 for m in range(2**30 + 1, p) if pow(2, m - 1, m) == 1)
    assert pow(res.omega, N, p) == 1 and pow(res.omega, N // 2, p) != 1
    assert (res.zero, res.one) == (0, 1)
    assert res.reduce(ctx.q) == res.image(ctx.q) == res.omega
    assert res.reduce(ctx.minus_one) == res.neg(res.one) == p - 1
    rng = random.Random(5)

    def rand_scalar():
        return ctx.from_coeffs(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ctx.degree)]
        )

    for _ in range(40):
        a, b = rand_scalar(), rand_scalar()
        ra, rb = res.reduce(a), res.reduce(b)
        for r in (ra, rb, res.reduce(a * b), res.reduce(a + b), res.reduce(-a)):
            assert type(r) is int and 0 <= r < p
        assert res.reduce(a * b) == ra * rb % p
        assert res.reduce(a + b) == (ra + rb) % p
        assert res.reduce(a - b) == (ra - rb) % p
        assert res.reduce(-a) == -ra % p == res.neg(ra)
        if ra:
            assert ra * res.inverse(ra) % p == res.one
    assert res.reduce(ctx.zero) == 0
    with pytest.raises(DivisionByZeroError):
        res.inverse(res.zero)
    with pytest.raises(DivisionByZeroError):
        res.reduce(ctx.from_fraction(Fraction(1, p)))
    assert res.reduce(ctx.from_fraction(Fraction(p, 3))) == 0


def test_residue_qpow_is_the_reduced_power_of_q():
    ctx = make_context(4)
    res = ctx.residue_field()
    for e in range(-ctx.N, 2 * ctx.N):
        assert res.qpow(e) == res.reduce(ctx.qpow(e)), e


def test_inverse_of_zero_raises():
    ctx = make_context(4)
    with pytest.raises(DivisionByZeroError):
        ctx.zero.inverse()


def test_qpow_wraps_and_inverts():
    ctx = make_context(4)
    assert ctx.qpow(17) == ctx.q
    assert ctx.qpow(-1) * ctx.q == ctx.one
    assert ctx.qpow(-3) == ctx.qpow(13)


def test_qint_values():
    ctx = make_context(4)
    assert qint(ctx, 0) == ctx.zero
    assert qint(ctx, 1) == ctx.one
    assert qint(ctx, 2) == ctx.one + ctx.q
    # (s)_q * (q - 1) == q^s - 1
    for s in range(8):
        lhs = qint(ctx, s) * (ctx.q - ctx.one)
        assert lhs == ctx.qpow(s) - ctx.one
    # base exponent -1 gives the q^{-1}-integer
    for s in range(8):
        lhs = qint(ctx, s, base=ctx.qpow(-1)) * (ctx.qpow(-1) - ctx.one)
        assert lhs == ctx.qpow(-s) - ctx.one


def test_serialization_roundtrip():
    ctx = make_context(4)
    rng = random.Random(3)
    for _ in range(20):
        a = ctx.from_coeffs(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)]
        )
        text = scalar_to_str(a)
        assert scalar_from_str(ctx, text) == a
    assert scalar_to_str(ctx.one) == "1,0,0,0,0,0,0,0"
    assert scalar_from_str(ctx, "1/2") == ctx.from_fraction(Fraction(1, 2))
    with pytest.raises(InvalidArgumentError):
        scalar_from_str(ctx, "")
    with pytest.raises(InvalidArgumentError):
        scalar_from_str(ctx, "1,x")


def test_scalars_hashable_and_normalized():
    ctx = make_context(4)
    a = ctx.from_coeffs([Fraction(2, 4)])
    b = ctx.from_fraction(Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    assert a.den == 2 and a.num[0] == 1
    c = ctx.from_coeffs([Fraction(-1, 2)])
    assert (a + c).is_zero()


def _seeded_scalars(ctx, rng, count):
    """Units, rationals, two-term and dense scalars, each drawn with and
    without denominators, in turn."""
    m = ctx.degree
    out = []
    for t in range(count):
        kind, with_den = t % 4, t % 8 >= 4

        def coeff(bound):
            c = 0
            while not c:
                c = rng.randint(-bound, bound)
            return Fraction(c, rng.randint(2, 9)) if with_den else Fraction(c)

        coeffs = [Fraction(0)] * m
        if kind == 0:  # +-x^k, or a rational multiple of it
            coeffs[rng.randrange(m)] = coeff(1) if not with_den else coeff(5)
        elif kind == 1:
            coeffs[0] = coeff(50)
        elif kind == 2:
            for k in rng.sample(range(m), 2):
                coeffs[k] = coeff(9)
        else:
            coeffs = [coeff(4) if rng.random() < 0.8 else Fraction(0) for _ in range(m)]
            coeffs[rng.randrange(m)] = coeff(4)
        out.append(ctx.from_coeffs(coeffs))
    return out


def _euclid_inverse(ctx, s):
    """The inverse of a nonzero scalar by extended Euclid over Q against Phi_N."""

    def trim(p: list[Fraction]) -> list[Fraction]:
        while p and not p[-1]:
            p.pop()
        return p

    def polymul(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
        out = [Fraction(0)] * (len(p) + len(q) - 1) if p and q else []
        for i, pi in enumerate(p):
            if pi:
                for j, qj in enumerate(q):
                    out[i + j] += pi * qj
        return out

    def polydivmod(p: list[Fraction], q: list[Fraction]):
        quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
        rem = list(p)
        for k in range(len(quot) - 1, -1, -1):
            c = rem[k + len(q) - 1] / q[-1]
            quot[k] = c
            if c:
                for i, d in enumerate(q):
                    rem[k + i] -= c * d
        return quot, trim(rem)

    # Extended Euclid against Phi_N: maintain u with u * s == r (mod Phi_N).
    r0 = trim([Fraction(c) for c in ctx.phi_poly])
    r1 = trim([Fraction(x, s.den) for x in s.num])
    u0: list[Fraction] = []
    u1: list[Fraction] = [Fraction(1)]
    while len(r1) > 1:
        quot, rem = polydivmod(r0, r1)
        prod = polymul(quot, u1)
        nxt = [
            (u0[i] if i < len(u0) else Fraction(0))
            - (prod[i] if i < len(prod) else Fraction(0))
            for i in range(max(len(u0), len(prod)))
        ]
        r0, r1 = r1, rem
        u0, u1 = u1, trim(nxt)
        if not r1:
            raise DivisionByZeroError("scalar is a zero divisor modulo Phi_N")
    c = r1[0]
    return ctx.from_coeffs([x / c for x in u1])


@pytest.mark.parametrize("n", [4, 8])
def test_norm_tower_inverse_matches_euclid(n):
    """The norm tower against extended Euclid over Q, the inverse it
    replaced, as the oracle: the same normalized num, den and hash."""
    ctx = make_context(n)
    assert ctx.phi_poly == (1,) + (0,) * (ctx.degree - 1) + (1,)  # x^(N/2) + 1
    rng = random.Random(20 + n)
    for a in _seeded_scalars(ctx, rng, 200):
        inv = a.inverse()
        euclid = _euclid_inverse(ctx, a)
        assert (inv.num, inv.den) == (euclid.num, euclid.den)
        assert hash(inv) == hash(euclid)
        assert a * inv == ctx.one
    with pytest.raises(DivisionByZeroError):
        ctx.zero.inverse()


@pytest.mark.parametrize("n", [4, 8])
def test_shift_path_matches_general_product(n):
    ctx = make_context(n)
    m = ctx.degree
    assert len(ctx._unit_shift) == 2 * m
    rng = random.Random(30 + n)
    scalars = _seeded_scalars(ctx, rng, 100)
    for k in range(2 * m):
        unit = ctx.qpow(k)  # +x^k for k < m, -x^(k-m) above
        assert ctx._unit_shift[unit.num] == k and unit.den == 1
        for a in scalars:
            want = ctx._make(_negacyclic_mul(a.num, unit.num), a.den)
            for got in (a * unit, unit * a):
                assert (got.num, got.den) == (want.num, want.den)
                assert hash(got) == hash(want)


def _combination_cases(actx, other):
    """Per subclass of Combination: (an element x, the zero coefficient,
    elements with the same terms in another space paired with the error
    that `+` and `*` raise against them)."""
    f = actx.field
    u = actx.E * actx.F + actx.k.scale(f.qpow(3)) - actx.one_elem
    t = tensor_of(actx.E, actx.k) + tensor_of(actx.F, actx.one_elem).scale(f.q)
    k0 = simple_class(actx, 2, 0) * simple_class(actx, 3, 1) - 2 * simple_class(actx, 8, 0)
    pres = (pres_x() - pres_g()) * pres_x() + 3 * pres_one()
    return {
        "u": (u, f.zero, [(AlgebraElement(other, dict(u.terms)), ContextMismatchError)]),
        "u(x)u": (t, f.zero, [
            (TensorElement(other, 2, dict(t.terms)), ContextMismatchError),
            (TensorElement(actx, 3, dict(t.terms)), InvalidArgumentError),
        ]),
        "K0": (k0, 0, [(K0Element(other, dict(k0.terms)), ContextMismatchError)]),
        "Z[g,x]": (pres, 0, []),
    }


@pytest.mark.parametrize("space", ["u", "u(x)u", "K0", "Z[g,x]"])
def test_combination_laws(actx, space):
    f = actx.field
    x, zero, foreign = _combination_cases(actx, AlgebraContext(4))[space]
    assert x.terms and all(x.terms.values())
    assert (x + (-x)).terms == {}
    assert (x - x).terms == {}
    assert x.scale(zero).terms == {} and (x * zero).is_zero() and not x * zero
    y = (x + x) - x
    assert y == x and hash(y) == hash(x) and y is not x
    assert x * x == x * y
    assert 2 * x == x + x == x * 2
    if space in ("u", "u(x)u"):
        assert f.q * x == x.scale(f.q) == x * f.q
    assert f.q * 2 == f.from_int(2) * f.q == 2 * f.q
    for alien, error in foreign:
        assert alien.terms == x.terms
        assert x != alien and alien != x
        with pytest.raises(error):
            x + alien
        with pytest.raises(error):
            x * alien


def test_scalar_operands():
    """An int operand is lifted into the field; a Scalar of another field
    raises; any other type is left to the other operand."""
    f, g = make_context(4), make_context(4)
    assert 2 + f.q == f.q + 2 == f.from_int(2) + f.q
    assert 1 - f.q == f.one - f.q and f.q - 1 == f.q - f.one
    assert f.q * 0 == 0 * f.q == f.zero
    assert sum([f.q, f.q, f.one]) == f.q + f.q + f.one
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ContextMismatchError):
            op(f.q, g.q)
        with pytest.raises(TypeError):
            op(f.q, "2")
        with pytest.raises(TypeError):
            op("2", f.q)
    assert f.q.__mul__(1.5) is NotImplemented


# Denominators of the random coefficients that the product kernel clears.
KERNEL_DENS = (1, 2, 3, 7, 8)


def _reference_product(f, terms1, terms2, product):
    """The product term by term in Scalars, each structure constant
    (key, e, v) built as q^e * prod(v): the loop the kernel replaces."""
    acc = {}
    factors = {}
    for k1, s1 in terms1.items():
        for k2, s2 in terms2.items():
            for key, e, v in product(k1, k2):
                t = s1 * s2 * f.qpow(e)
                for vec in v:
                    if vec not in factors:
                        factors[vec] = f.from_coeffs(vec)
                    t = t * factors[vec]
                acc[key] = acc[key] + t if key in acc else t
    return {key: s for key, s in acc.items() if s}


def _assert_kernel_matches(f, x, y, product):
    want = _reference_product(f, x.terms, y.terms, product)
    got = f.combination_product(x.terms, y.terms, product)
    assert got == want
    assert all(got.values())
    assert {k: (s.num, s.den) for k, s in got.items()} == {k: (s.num, s.den) for k, s in want.items()}
    assert (x * y).terms == want


def _random_coeff(f, rng, pool):
    """A signed power of q, a small integer or a dense scalar, over a
    denominator from KERNEL_DENS; a value already drawn comes back often,
    so the kernel's grouping by value has repeats to group."""
    if pool and rng.random() < 0.4:
        return rng.choice(pool)
    while True:
        kind = rng.randrange(3)
        if kind == 0:
            s = f.qpow(rng.randrange(f.N))
        elif kind == 1:
            s = f.from_int(rng.choice((-3, -2, -1, 1, 2, 5)))
        else:
            s = f.from_coeffs([rng.randint(-4, 4) for _ in range(f.degree)])
        s = s * f.from_fraction(Fraction(1, rng.choice(KERNEL_DENS)))
        if s:
            pool.append(s)
            return s


def _random_mono(actx, rng, top):
    """A PBW key whose E and F exponents are small or near n^2 - 1, where
    products truncate."""
    exps = (0, 1, 2, 3) + ((actx.N - 2, actx.N - 1) if top else ())
    return (rng.choice(exps), rng.randrange(2), rng.randrange(actx.half), rng.choice(exps))


def _random_elem(actx, rng, pool, top=True):
    f = actx.field
    return AlgebraElement(actx, {
        _random_mono(actx, rng, top): _random_coeff(f, rng, pool) for _ in range(rng.randint(1, 6))
    })


def _random_tensor(actx, rng, pool, legs):
    f = actx.field
    terms = {}
    for _ in range(rng.randint(1, 5)):
        key = tuple(_random_mono(actx, rng, True) for _ in range(legs))
        terms[key] = _random_coeff(f, rng, pool)
    return TensorElement(actx, legs, terms)


def test_product_kernel_matches_reference(actx, qh):
    f = actx.field
    rng = random.Random(15)
    pool = []
    for _ in range(120):
        x, y = _random_elem(actx, rng, pool), _random_elem(actx, rng, pool)
        _assert_kernel_matches(f, x, y, actx.mono_mul)
    big = AlgebraContext(8)
    pool8 = []
    for _ in range(8):
        x, y = _random_elem(big, rng, pool8, top=False), _random_elem(big, rng, pool8, top=False)
        _assert_kernel_matches(big.field, x, y, big.mono_mul)
    for legs in (2, 3):
        for _ in range(20):
            x, y = _random_tensor(actx, rng, pool, legs), _random_tensor(actx, rng, pool, legs)
            _assert_kernel_matches(f, x, y, x._basis_product())
    phi = qh.phi()
    for _ in range(4):
        x = _random_tensor(actx, rng, pool, 3)
        _assert_kernel_matches(f, phi, x, x._basis_product())
        _assert_kernel_matches(f, x, phi, x._basis_product())
    # orthogonal idempotents: nonzero factors whose product cancels to zero
    i0, i1 = actx.idempotent_1(0), actx.idempotent_1(1)
    assert (i0 * i1).terms == {} and (i1 * i0).terms == {}
    assert f.combination_product(i0.terms, i1.terms, actx.mono_mul) == {}
    one = actx.one_elem
    assert (tensor_of(i0, one) * tensor_of(i1, one)).terms == {}
    assert (phi * qh.phi_inv()).terms == unit_tensor(actx, 3).terms


def test_product_kernel_wraps_exponents():
    """Toy structure constants with non-unit factors v and exponents e that
    are negative, at and above the degree 8 and above N = 16, so that the
    signed cyclic shift wraps in both directions."""
    f = make_context(4)
    big, other = f.from_coeffs([1, 1]), f.from_coeffs([2, 0, -1, 3])
    assert big.num not in f._unit_shift and other.num not in f._unit_shift

    def toy(k1, k2):
        return [
            ((k1 + k2) % 5, (7 * k1 + 11 * k2) % 8, ()),
            ((k1 * k2) % 5, 8 + 13 * k1, (big.num,)),
            ((k1 - k2) % 5, 20 + 30 * k2, (big.num, other.num)),
            ((2 * k1 + k2) % 5, -3 - 5 * k1, (other.num,)),
        ]

    rng = random.Random(12)
    pool = []
    for _ in range(12):
        x = {k: _random_coeff(f, rng, pool) for k in rng.sample(range(5), 3)}
        y = {k: _random_coeff(f, rng, pool) for k in rng.sample(range(5), 3)}
        got = f.combination_product(x, y, toy)
        assert got == _reference_product(f, x, y, toy) and all(got.values())
