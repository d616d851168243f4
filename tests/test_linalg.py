"""Exact sparse elimination: rank, nullspaces, span membership."""

import random
from fractions import Fraction

from uqsl2.cyclo import make_context
from uqsl2.linalg import Echelon, SpanSolver, _add_into, _axpy, nullspace_basis, rank


def _ctx():
    return make_context(4)


def _rand_row(ctx, rng, ncols, density=0.6):
    row = {}
    for c in range(ncols):
        if rng.random() < density:
            s = ctx.from_coeffs([Fraction(rng.randint(-3, 3)) for _ in range(4)])
            if not s.is_zero():
                row[c] = s
    return row


def test_rank_identity_and_duplicates():
    ctx = _ctx()
    rows = [{i: ctx.one} for i in range(5)]
    assert rank(ctx, rows) == 5
    assert rank(ctx, rows + rows) == 5
    assert rank(ctx, []) == 0
    assert len(nullspace_basis(ctx, rows, 7)) == 2


def test_rank_with_dependent_rows():
    ctx = _ctx()
    r1 = {0: ctx.one, 1: ctx.q}
    r2 = {1: ctx.one, 2: ctx.qpow(3)}
    # r3 = q * r1 + r2 is dependent
    r3 = {0: ctx.q, 1: ctx.q * ctx.q + ctx.one, 2: ctx.qpow(3)}
    assert rank(ctx, [r1, r2, r3]) == 2


def test_span_solver_roundtrip():
    ctx = _ctx()
    rng = random.Random(19)
    for _ in range(10):
        basis = [_rand_row(ctx, rng, 6) for _ in range(4)]
        coeffs = [ctx.from_int(rng.randint(-2, 2)) for _ in range(4)]
        target = {}
        for cf, row in zip(coeffs, basis):
            _axpy(target, row, cf)
        got = SpanSolver(ctx, basis, top=6).coords(target)
        assert got is not None
        rebuilt = {}
        for cf, row in zip(got, basis):
            _axpy(rebuilt, row, cf)
        assert rebuilt == target


def test_span_solver_rejects_outsider():
    ctx = _ctx()
    basis = [{0: ctx.one}, {1: ctx.one}]
    solver = SpanSolver(ctx, basis, top=3)
    assert solver.coords({2: ctx.one}) is None
    got = solver.coords({0: ctx.q, 1: ctx.minus_one})
    assert got == [ctx.q, ctx.minus_one]


def test_echelon_contains():
    ctx = _ctx()
    ech = Echelon(ctx)
    ech.add({0: ctx.one, 1: ctx.one})
    ech.add({1: ctx.one, 2: ctx.one})
    assert ech.contains({0: ctx.one, 2: ctx.minus_one})
    assert not ech.contains({0: ctx.one, 2: ctx.one})


def test_add_into_drops_a_cancelled_key():
    ctx = _ctx()
    d = {0: ctx.q, 1: ctx.one}
    _add_into(d, 0, -ctx.q)
    assert d == {1: ctx.one}
    _add_into(d, 2, ctx.zero)
    assert d == {1: ctx.one}


def test_axpy_by_zero_leaves_the_vector_alone():
    ctx = _ctx()
    d = {0: ctx.q, 3: ctx.one}
    _axpy(d, {0: ctx.one, 1: ctx.qpow(5)}, ctx.zero)
    assert d == {0: ctx.q, 3: ctx.one}


def test_kernel_takes_tuple_keys():
    ctx = _ctx()
    d = {((0, 0, 0, 0), (1, 0, 0, 0)): ctx.one}
    _axpy(d, {((0, 0, 0, 0), (1, 0, 0, 0)): ctx.one, ((1, 0, 0, 0),): ctx.q}, ctx.minus_one)
    assert d == {((1, 0, 0, 0),): -ctx.q}
    _add_into(d, ((1, 0, 0, 0),), ctx.q)
    assert d == {}


def test_axpy_matches_a_dense_reference():
    ctx = _ctx()
    rng = random.Random(23)
    ncols = 8
    cancelled = 0
    for _ in range(200):
        d = _rand_row(ctx, rng, ncols, density=0.4)
        vec = _rand_row(ctx, rng, ncols, density=0.4)
        s = ctx.from_coeffs([Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(4)])
        if rng.random() < 0.3:
            # s = 1 and vec[c] = -d[c] on some keys: those entries cancel.
            s = ctx.one
            for c in d:
                if rng.random() < 0.5:
                    vec[c] = -d[c]
        want = [d.get(c, ctx.zero) + s * vec.get(c, ctx.zero) for c in range(ncols)]
        before = set(d)
        _axpy(d, vec, s)
        cancelled += len(before - set(d))
        assert all(not v.is_zero() for v in d.values())
        assert [d.get(c, ctx.zero) for c in range(ncols)] == want
    assert cancelled
