"""Sparse exact linear algebra over Q(zeta_N).

A sparse vector is a dict from a hashable key (a column index, a PBW
monomial key, a tuple of them) to a nonzero Scalar: it never stores a zero.
Every sum into one goes through `_add_into` or `_axpy`, which drop a key
whose sum cancels.

Elimination is division-free (cross-multiplication) with per-row content
stripping, so reducing a row against the pivots inverts nothing.
`Echelon.add` inverts once per new pivot row whose leading entry is not 1,
to make the row monic, and `SpanSolver.coords` inverts once per query;
back-substitution in `nullspace_basis` divides by nothing, since every
stored pivot is 1.
The same code runs over a residue field F_p, whose elements have no content
to strip.
"""

from __future__ import annotations

import math

from .cyclo import FieldContext, Scalar

Row = dict[int, Scalar]


def _add_into(d: dict, key, s) -> None:
    """d[key] += s, dropping the key if the sum is zero."""
    cur = d.get(key)
    if cur is not None:
        s = cur + s
    if s.is_zero():
        d.pop(key, None)
    else:
        d[key] = s


def _axpy(d: dict, vec: dict, s) -> None:
    """d += s * vec, dropping every key whose sum is zero.

    One multiply per entry of vec, also when s is zero; a zero s leaves d
    as it was.  vec stores no zero, so s * v is zero only when s is.
    """
    keep_new = not s.is_zero()
    for key, v in vec.items():
        t = s * v
        if key in d:
            t = d[key] + t
            if t.is_zero():
                del d[key]
            else:
                d[key] = t
        elif keep_new:
            d[key] = t


def _strip_content(ctx: FieldContext, row: Row) -> Row:
    """Scale a row by a rational so integer content is 1; returns a new dict."""
    if not row:
        return row
    g = 0
    lden = 1
    for s in row.values():
        lden = lden * s.den // math.gcd(lden, s.den)
        for a in s.num:
            if a:
                g = math.gcd(g, a)
    if g == 0:
        return {}
    if g == 1 and lden == 1:
        return row
    out: Row = {}
    for c, s in row.items():
        out[c] = ctx._make([a * lden for a in s.num], s.den * g)
    return out


def _cross_eliminate(ctx: FieldContext, row: Row, piv_col: int, piv_row: Row) -> Row:
    """Return piv*row - coef*piv_row, clearing piv_col from row.

    Monic pivot rows take the subtraction-only path, which keeps scalar
    sizes bounded; integer gcd stripping alone cannot contain the
    coefficient growth of repeated cyclotomic cross-multiplication.
    """
    coef = row[piv_col]
    piv = piv_row[piv_col]
    if piv == ctx.one:
        out = dict(row)
    else:
        out = {c: piv * s for c, s in row.items()}
    _axpy(out, piv_row, -coef)
    out.pop(piv_col, None)
    return _strip_content(ctx, out) if ctx.has_content else out


class Echelon:
    """Incremental echelon form: feed rows, read off rank and membership."""

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.pivot_rows: dict[int, Row] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, row: Row) -> Row:
        """Eliminate all current pivots from a copy of row."""
        ctx = self.ctx
        row = dict(row)
        # Repeatedly clear the smallest column that has a pivot.
        while row:
            hit = None
            for c in row:
                if c in self.pivot_rows and (hit is None or c < hit):
                    hit = c
            if hit is None:
                break
            row = _cross_eliminate(ctx, row, hit, self.pivot_rows[hit])
        return row

    def add(self, row: Row) -> bool:
        """Insert a row; True if it increased the rank.

        Stored pivot rows are made monic, so later reductions only ever
        subtract bounded multiples and scalars cannot compound.
        """
        rem = self.reduce(row)
        if not rem:
            return False
        col = min(rem.keys())
        lead = rem[col]
        if lead != self.ctx.one:
            inv = lead.inverse()
            rem = {c: inv * s for c, s in rem.items()}
        self.pivot_rows[col] = rem
        return True

    def contains(self, row: Row) -> bool:
        return not self.reduce(row)


class BlockKernel:
    """Kernel of a sparse system whose variables split into groups that no
    row crosses: one incremental elimination per group.

    Rows are dicts over global variable positions and are routed to a group
    by their first key (every key of a row must belong to the same group).
    `saturated` turns True once every group reaches full rank, so the kernel
    is already zero and the caller can stop feeding rows.
    """

    def __init__(self, ctx: FieldContext, groups: list[list[int]]):
        self.ctx = ctx
        self.groups = groups
        self._block: dict[int, int] = {}
        self._local: dict[int, int] = {}
        for b, members in enumerate(groups):
            for t, p in enumerate(members):
                self._block[p] = b
                self._local[p] = t
        self._echs = [Echelon(ctx) for _ in groups]
        self._open = sum(1 for g in groups if g)

    @property
    def saturated(self) -> bool:
        return self._open == 0

    def add(self, row: Row) -> None:
        if not row:
            return
        b = self._block[next(iter(row))]
        ech = self._echs[b]
        if ech.rank == len(self.groups[b]):
            return
        local = self._local
        block = self._block
        moved: Row = {}
        for p, s in row.items():
            if block[p] != b:
                raise ValueError("row crosses variable groups")
            moved[local[p]] = s
        if ech.add(moved) and ech.rank == len(self.groups[b]):
            self._open -= 1

    def dim(self) -> int:
        return sum(len(g) - e.rank for g, e in zip(self.groups, self._echs))

    def basis(self) -> list[Row]:
        out: list[Row] = []
        for members, ech in zip(self.groups, self._echs):
            if not members:
                continue
            sols = nullspace_basis(self.ctx, list(ech.pivot_rows.values()), len(members))
            for vec in sols:
                out.append({members[p]: s for p, s in vec.items()})
        return out


def rank(ctx: FieldContext, rows) -> int:
    ech = Echelon(ctx)
    for row in rows:
        if row:
            ech.add(row)
    return ech.rank


class SpanSolver:
    """Reusable coordinate solver over a fixed independent spanning set.

    Bookkeeping columns live at and above `top`, above every real column,
    so elimination always pivots on real coordinates and the tag entries
    just record the linear combination that produced each reduced row.  The
    echelon is built once and queried many times.  Targets must be
    supported on columns strictly below `top`.
    """

    def __init__(self, ctx: FieldContext, basis: list[Row], top: int):
        self.ctx = ctx
        self.k = len(basis)
        self.top = top
        self.ech = Echelon(ctx)
        for i, b in enumerate(basis):
            if b and max(b.keys()) >= top:
                raise ValueError("basis entry reaches into tag columns")
            lifted = dict(b)
            lifted[top + i + 1] = ctx.one
            self.ech.add(lifted)

    def coords(self, target: Row):
        """Coefficients of target in the basis, or None if outside the span."""
        ctx = self.ctx
        lifted = dict(target)
        lifted[self.top] = ctx.one
        rem = self.ech.reduce(lifted)
        if any(c < self.top for c in rem):
            return None
        sigma = rem.get(self.top)
        if sigma is None:
            return None
        inv = sigma.inverse()
        coeffs = [ctx.zero] * self.k
        for c, s in rem.items():
            if c > self.top:
                coeffs[c - self.top - 1] = -(s * inv)
        return coeffs


def nullspace_basis(ctx: FieldContext, rows, ncols: int) -> list[Row]:
    """Basis of {x : row . x = 0 for every row}, x over columns 0..ncols-1.

    One basis vector per free column, computed by back-substitution through
    the pivot rows in decreasing column order.
    """
    ech = Echelon(ctx)
    for row in rows:
        if row:
            ech.add(row)
    pivots = ech.pivot_rows
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec: Row = {free: ctx.one}
        for col in sorted(pivots.keys(), reverse=True):
            if col >= free:
                continue
            row = pivots[col]
            acc = ctx.zero
            for c, s in row.items():
                if c != col and c in vec:
                    acc = acc + s * vec[c]
            if not acc.is_zero():
                # Echelon.add stores every pivot row monic: row[col] is one.
                vec[col] = -acc
        basis.append(vec)
    return basis
