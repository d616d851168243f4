"""Sparse linear algebra over a field: Q(zeta_N) or its residue field F_p.

Rows are sparse vectors, dicts from a column index to a nonzero scalar of
the field.  Every algorithm here holds its field (`ctx`) and calls its
sparse kernel (`axpy`, `inverse`, `neg` and `one`; see cyclo), so one code
path serves both fields: over Q(zeta_N) the kernel is exact, over F_p it
works on ints reduced mod p.

`Echelon` is the one elimination structure, and `Echelon.eliminate` the
one loop that clears pivots.  It clears only pivots at columns the row
holds, so rows whose columns fall into groups that no row crosses (the
grade-pure rows of `reps.hom_from_simple` and `reps.quotient_rep`) are
eliminated group by group without a partition.
Pivot rows are stored monic, so clearing one subtracts a bounded multiple
of it and inverts nothing, and scalar sizes stay bounded however many rows
are reduced.
`Echelon.add` inverts once per new pivot row whose leading entry is not 1,
to make the row monic; back-substitution in `nullspace_basis` divides by
nothing, since every stored pivot is 1.
"""

from __future__ import annotations

from .cyclo import FieldContext, Scalar

Row = dict[int, Scalar]


class Echelon:
    """Incremental echelon form: feed rows, read off rank and membership.

    `pivot_rows` maps each pivot column to its row, monic there and zero
    at every smaller pivot column.
    """

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.pivot_rows: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def eliminate(self, row: Row) -> list[tuple[int, Scalar]]:
        """Clear every pivot of row in place, smallest column first.

        Returns the steps (col, cf), in order, with row += cf *
        pivot_rows[col]: the input is the output minus the sum of the cf *
        pivot_rows[col] (`reps.hom_space` reads relations off them).
        """
        ctx = self.ctx
        pivots = self.pivot_rows
        steps = []
        while True:
            hit = None
            for c in row:
                if c in pivots and (hit is None or c < hit):
                    hit = c
            if hit is None:
                return steps
            cf = ctx.neg(row[hit])
            ctx.axpy(row, pivots[hit], cf)
            steps.append((hit, cf))

    def reduce(self, row: Row) -> Row:
        """Eliminate all current pivots from a copy of row."""
        row = dict(row)
        self.eliminate(row)
        return row

    def add(self, row: Row) -> Scalar | None:
        """Insert a row: store its reduction divided by its leading entry.

        Returns the factor 1/lead that made the stored row monic (`one`
        when the lead already was), or None when the row lies in the span
        and the rank stays.
        """
        rem = self.reduce(row)
        if not rem:
            return None
        ctx = self.ctx
        col = min(rem)
        factor = ctx.one
        if rem[col] != factor:
            factor = ctx.inverse(rem[col])
            monic: Row = {}
            ctx.axpy(monic, rem, factor)
            rem = monic
        self.pivot_rows[col] = rem
        return factor


def rank(ctx: FieldContext, rows) -> int:
    ech = Echelon(ctx)
    for row in rows:
        if row:
            ech.add(row)
    return ech.rank


def nullspace_basis(ctx: FieldContext, rows, ncols: int) -> list[Row]:
    """Basis of {x : row . x = 0 for every row}, x over columns 0..ncols-1.

    One basis vector per free column: it is 1 at that column and 0 at every
    other free column.  Each is computed by back-substitution through the
    pivot rows in decreasing column order.  Each pivot row is monic at its pivot
    column, so x[col] = -(sum of row[c] * x[c] over c > col).
    Those sums are gathered column by column: once x[c] is known, `axpy`
    adds x[c] times column c of the pivot rows to every pending sum.
    """
    ech = Echelon(ctx)
    for row in rows:
        if row:
            ech.add(row)
    pivots = ech.pivot_rows
    # above[c]: {pivot column: entry at c} over the pivot rows, for c > pivot.
    above: dict[int, Row] = {}
    for col, row in pivots.items():
        for c, s in row.items():
            if c != col:
                above.setdefault(c, {})[col] = s
    order = sorted(pivots, reverse=True)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec: Row = {free: ctx.one}
        sums = dict(above.get(free, {}))
        for col in order:
            acc = sums.pop(col, None)
            if acc is not None:
                x = vec[col] = ctx.neg(acc)
                ctx.axpy(sums, above.get(col, {}), x)
        basis.append(vec)
    return basis
