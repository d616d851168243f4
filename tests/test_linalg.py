"""Exact sparse elimination: rank, nullspaces, span membership."""

import random
from fractions import Fraction

from uqsl2.cyclo import make_context
from uqsl2.linalg import Echelon, SpanSolver, nullspace_basis, rank


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
            for c, s in row.items():
                t = target.get(c, ctx.zero) + cf * s
                if t.is_zero():
                    target.pop(c, None)
                else:
                    target[c] = t
        got = SpanSolver(ctx, basis, top=6).coords(target)
        assert got is not None
        rebuilt = {}
        for cf, row in zip(got, basis):
            for c, s in row.items():
                t = rebuilt.get(c, ctx.zero) + cf * s
                if t.is_zero():
                    rebuilt.pop(c, None)
                else:
                    rebuilt[c] = t
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
