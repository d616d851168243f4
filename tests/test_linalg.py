"""Sparse elimination over Q(zeta_16) and its residue field F_p: rank,
nullspaces, and the fields' axpy kernels."""

import random
from fractions import Fraction

from uqsl2.cyclo import _add_into, _axpy, make_context
from uqsl2.linalg import Echelon, nullspace_basis, rank


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


def test_echelon_steps_and_factor_over_both_fields():
    """`eliminate` returns the steps that rebuild its input, `add` the
    factor that made the stored row monic, and None for a row already in
    the span, over Q(zeta_16) and over F_p."""
    ctx = _ctx()
    res = ctx.residue_field()
    ech = Echelon(ctx)
    ech.add({0: ctx.one, 1: ctx.one})
    ech.add({1: ctx.one, 2: ctx.one})
    assert not ech.reduce({0: ctx.one, 2: ctx.minus_one})
    assert ech.reduce({0: ctx.one, 2: ctx.one})
    rng = random.Random(37)
    spanned = 0
    for field in (ctx, res):
        for _ in range(20):
            ncols = rng.randint(3, 8)
            ech = Echelon(field)
            for _ in range(rng.randint(2, 7)):
                row = _rand_row(ctx, rng, ncols, density=0.5)
                if rng.random() < 0.3 and ech.pivot_rows:
                    # a combination of stored rows: in the span
                    row = {}
                    for piv in ech.pivot_rows.values():
                        field.axpy(row, piv, field.qpow(rng.randrange(ctx.N)))
                    before = dict(ech.pivot_rows)
                    assert ech.add(row) is None
                    assert ech.pivot_rows == before
                    spanned += 1
                    continue
                if field is res:
                    row = _reduce_row(res, row)
                out = dict(row)
                steps = ech.eliminate(out)
                assert [c for c, _ in steps] == sorted(c for c, _ in steps)
                assert not set(out) & set(ech.pivot_rows)
                rebuilt = dict(out)
                for col, cf in steps:
                    field.axpy(rebuilt, ech.pivot_rows[col], field.neg(cf))
                assert rebuilt == row
                assert ech.reduce(row) == out
                before = ech.rank
                factor = ech.add(row)
                if not out:
                    assert factor is None and ech.rank == before
                    continue
                col = min(out)
                product = factor * out[col]
                assert (product % res.p if field is res else product) == field.one
                assert ech.rank == before + 1
                assert ech.pivot_rows[col][col] == field.one
    assert spanned


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


def _reduce_row(res, row):
    return {c: t for c, s in row.items() if (t := res.reduce(s))}


def test_axpy_matches_a_dense_reference():
    """The exact kernel against dense sums, and the F_p kernel against the
    reduction of the exact result."""
    ctx = _ctx()
    res = ctx.residue_field()
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
        rd = _reduce_row(res, d)
        before = set(d)
        _axpy(d, vec, s)
        cancelled += len(before - set(d))
        assert all(not v.is_zero() for v in d.values())
        assert [d.get(c, ctx.zero) for c in range(ncols)] == want
        res.axpy(rd, _reduce_row(res, vec), res.reduce(s))
        assert rd == _reduce_row(res, d)
    assert cancelled


def test_rank_and_nullspace_over_both_fields():
    """Seeded p-integral systems over Q(zeta_16) with dependent rows, solved
    through the same entry points over Q(zeta_16) and over F_p."""
    ctx = _ctx()
    res = ctx.residue_field()
    p = res.p
    rng = random.Random(31)

    def dot(field, row, vec):
        if field is res:
            return sum(s * vec.get(c, 0) for c, s in row.items()) % p
        acc = ctx.zero
        for c, s in row.items():
            if c in vec:
                acc = acc + s * vec[c]
        return acc

    dropped = 0
    for _ in range(30):
        ncols = rng.randint(3, 9)
        rows = [_rand_row(ctx, rng, ncols, density=0.5) for _ in range(rng.randint(1, 5))]
        for _ in range(rng.randint(0, 3)):
            combo = {}
            for row in rows:
                _axpy(combo, row, ctx.from_coeffs([Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                                                    for _ in range(4)]))
            rows.append(combo)
        reduced = [_reduce_row(res, row) for row in rows]
        exact_rank, residue_rank = rank(ctx, rows), rank(res, reduced)
        assert residue_rank <= exact_rank
        assert residue_rank == exact_rank
        dropped += len(rows) - exact_rank
        for field, system, r in ((ctx, rows, exact_rank), (res, reduced, residue_rank)):
            basis = nullspace_basis(field, system, ncols)
            assert len(basis) == ncols - r
            for vec in basis:
                assert all(dot(field, row, vec) == field.zero for row in system)
            # each vector is 1 at its own free column and absent at every
            # other vector's: the private unit coordinates that the oracle
            # `sub_rep` reads
            ech = Echelon(field)
            for row in system:
                ech.add(row)
            free = [c for c in range(ncols) if c not in ech.pivot_rows]
            for t, (vec, c) in enumerate(zip(basis, free)):
                assert vec[c] == field.one
                assert all(c not in other for u, other in enumerate(basis) if u != t)
        # ech and basis are those of the last pass, over F_p
        stored = list(ech.pivot_rows.values()) + basis
        assert all(type(s) is int and 1 <= s < p for row in stored for s in row.values())
    assert dropped
