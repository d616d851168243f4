"""Finite-dimensional modules over u: constructors, Hom spaces, structure.

A module is stored with the group part diagonalized: two exponent tuples
give the action of k and khat on each basis vector, while E and F are
sparse column maps.  All structural computations (tops, socles, radicals,
syzygies, isomorphism tests, blocks) reduce to exact linear algebra over
the cyclotomic field.
"""

from __future__ import annotations

from collections.abc import Iterable

from .cyclo import FieldContext, Scalar, _axpy, qint, scalar_to_str
from .errors import (
    ConstructionError,
    ContextMismatchError,
    DivisionByZeroError,
    EigendataError,
    InvalidArgumentError,
    RepresentationError,
)
from .linalg import Echelon, nullspace_basis, rank
from .qgroup import AlgebraContext, AlgebraElement
from .report import Counterexamples, verifier

Col = dict[int, Scalar]
SparseMap = dict[int, Col]


def _check_label(ctx: AlgebraContext, i: int, j: int) -> None:
    if not (isinstance(i, int) and 1 <= i <= ctx.half):
        raise InvalidArgumentError(f"highest-weight index i={i!r} outside 1..{ctx.half}")
    if j not in (0, 1):
        raise InvalidArgumentError(f"sign index j={j!r} must be 0 or 1")


def exps_from_class(ctx: AlgebraContext, lam_exp: int, sgn_bit: int) -> tuple[int, int]:
    """Exponents (a, b) with k acting as q^a and khat as q^b on a vector
    where k^{-1}khat acts as q^lam_exp and k khat^{n/2} acts as (-1)^sgn_bit.

    The pair is uniquely determined because khat^{n/2+1} equals the product
    of the two given operators and n/2+1 is invertible mod n^2.
    """
    n, N = ctx.n, ctx.N
    t = pow(n // 2 + 1, -1, N)
    khatexp = (t * ((N // 2) * sgn_bit + lam_exp)) % N
    kexp = (khatexp - lam_exp) % N
    if (n * kexp) % N != 0 or (n * khatexp + 2 * kexp) % N != 0:
        raise EigendataError(
            f"eigenvalue pair (q^{lam_exp}, (-1)^{sgn_bit}) is not realized by the group algebra"
        )
    return kexp, khatexp


class Representation:
    """A u-module with diagonal group action and sparse E/F column maps.

    E[c] and F[c] hold the image of basis vector c as {row: coefficient}.
    grades, when present, give an internal height with E of degree +1 and
    F of degree -1.  The coefficients live in `field`: ctx.field (the
    default), or its residue field F_p for a module made by `mod_p`; every
    operation on the module runs that field's kernel.
    """

    __slots__ = (
        "ctx", "field", "dim", "kexp", "khatexp", "E", "F", "grades", "label",
        "_classes", "_class_indices",
    )

    def __init__(self, ctx: AlgebraContext, label: str, kexp, khatexp,
                 E: SparseMap, F: SparseMap, grades=None, field=None):
        self.ctx = ctx
        self.field = ctx.field if field is None else field
        self.dim = len(kexp)
        if len(khatexp) != self.dim:
            raise RepresentationError("k and khat exponent lists differ in length")
        N = ctx.N
        self.kexp = tuple(e % N for e in kexp)
        self.khatexp = tuple(e % N for e in khatexp)
        self.E = E
        self.F = F
        self.grades = None if grades is None else tuple(grades)
        if self.grades is not None and len(self.grades) != self.dim:
            raise RepresentationError("grade list length mismatch")
        for name, mp in (("E", E), ("F", F)):
            # the column and row indices of every stored entry
            used = set(mp).union(*mp.values())
            if used and (min(used) < 0 or max(used) >= self.dim):
                raise RepresentationError(
                    f"{name} has an entry outside the basis 0..{self.dim - 1}"
                )
        self.label = label
        classes = []
        half_turn = (ctx.n // 2)
        for r in range(self.dim):
            lam = (self.khatexp[r] - self.kexp[r]) % N
            sgn_exp = (self.kexp[r] + half_turn * self.khatexp[r]) % N
            if sgn_exp == 0:
                sgn = 0
            elif sgn_exp == N // 2:
                sgn = 1
            else:
                raise RepresentationError(
                    f"basis vector {r}: k khat^{{n/2}} eigenvalue is not +-1"
                )
            classes.append((lam, sgn))
        self._classes = tuple(classes)
        idx: dict[tuple[int, int], list[int]] = {}
        for r, ch in enumerate(classes):
            idx.setdefault(ch, []).append(r)
        self._class_indices = {ch: tuple(rs) for ch, rs in idx.items()}

    # -- basic linear action ------------------------------------------------

    def classes(self) -> tuple[tuple[int, int], ...]:
        return self._classes

    def class_indices(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return self._class_indices

    def apply_map(self, mp: SparseMap, vec: Col) -> Col:
        axpy = self.field.axpy
        out: Col = {}
        for c, s in vec.items():
            col = mp.get(c)
            if col:
                axpy(out, col, s)
        return out

    def apply_E(self, vec: Col) -> Col:
        return self.apply_map(self.E, vec)

    def apply_F(self, vec: Col) -> Col:
        return self.apply_map(self.F, vec)

    def mod_p(self) -> "Representation":
        """This module with E and F reduced to the residue field F_p of its
        field: every entry becomes an int in [0, p), and entries that vanish
        mod p are dropped.  The residue field supplies the kernel that
        `apply_map`, the Hom solver and linalg then run on.  Refuses a
        residue module (ContextMismatchError) and an entry that is not
        p-integral (DivisionByZeroError)."""
        if self.field is not self.ctx.field:
            raise ContextMismatchError("only a module over the exact field reduces mod p")
        res = self.field.residue_field()

        def reduce(mp: SparseMap) -> SparseMap:
            out: SparseMap = {}
            for c, col in mp.items():
                rcol = {}
                for r, s in col.items():
                    t = res.reduce(s)
                    if t:
                        rcol[r] = t
                if rcol:
                    out[c] = rcol
            return out

        return Representation(self.ctx, self.label, self.kexp, self.khatexp,
                              reduce(self.E), reduce(self.F), self.grades, res)

    def act_matrix(self, x: AlgebraElement) -> SparseMap:
        """The matrix of x, column by column.

        The terms F^a k^eps khat^c E^d of x that share (a, d) act together
        as F^a h E^d, where h is the sum of their group parts.  h is
        diagonal, and its value on a basis vector depends only on the
        vector's k and khat exponents, so the context keeps one value per
        exponent pair, field and h.
        """
        if x.ctx is not self.ctx:
            raise ContextMismatchError("element and module use different algebra contexts")
        f = self.field
        parts: dict[tuple[int, int], list[tuple[int, int, Scalar]]] = {}
        for (a, eps, c, d), s in x.terms.items():
            parts.setdefault((a, d), []).append((eps, c, f.image(s)))
        out: SparseMap = {}
        pairs = list(zip(self.kexp, self.khatexp))
        for (a, d), group in parts.items():
            values = self.ctx.cached(("group_values", f, tuple(group)), dict)
            for pair in pairs:
                if pair not in values:
                    acc: Col = {}
                    for eps, c, s in group:
                        f.axpy(acc, {0: f.qpow(eps * pair[0] + c * pair[1])}, s)
                    values[pair] = acc.get(0, f.zero)
            h = [values[pair] for pair in pairs]
            for col in range(self.dim):
                if d:
                    w = self.E.get(col, {})
                    for _ in range(d - 1):
                        w = self.apply_E(w)
                    hw: Col = {}
                    for r, t in w.items():
                        f.axpy(hw, {r: t}, h[r])
                else:
                    hw = {col: h[col]} if h[col] else {}
                for _ in range(a):
                    hw = self.apply_F(hw)
                if col in out:
                    f.axpy(out[col], hw, f.one)
                elif hw:
                    out[col] = hw
        return {c: col for c, col in out.items() if col}

    # -- characters ----------------------------------------------------------

    def character(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for ch in self._classes:
            out[ch] = out.get(ch, 0) + 1
        return out

    def graded_character(self) -> dict[tuple[int, int, int], int]:
        if self.grades is None:
            raise InvalidArgumentError(f"module {self.label} carries no grading")
        out: dict[tuple[int, int, int], int] = {}
        for r, ch in enumerate(self._classes):
            key = (ch[0], ch[1], self.grades[r])
            out[key] = out.get(key, 0) + 1
        return out

    # -- defining relations ---------------------------------------------------

    def _conjugation_checks(self) -> Counterexamples:
        """The group conjugation rule, one instance per stored E or F entry
        (r, c): an E entry raises the k-exponent by n and the khat-exponent
        by n-2, and an F entry lowers them by the same amounts.  So E and F
        send each class to a single class.  `check_relations` reports these
        instances, and `hom_space` refuses a module at the first failure."""
        n, N = self.ctx.n, self.ctx.N
        for mp, dk, dkh, nm in ((self.E, n, n - 2, "E"), (self.F, -n, -(n - 2), "F")):
            for c, col in mp.items():
                for r in col:
                    ok = (self.kexp[r] - self.kexp[c] - dk) % N == 0 and \
                        (self.khatexp[r] - self.khatexp[c] - dkh) % N == 0
                    yield None if ok else (
                        f"{nm} entry ({r},{c}) breaks the group conjugation rule"
                    )

    @verifier(lambda self: f"defining relations hold on {self.label} (dim {self.dim})")
    def check_relations(self) -> Counterexamples:
        """Verify every defining relation of u on this module.

        E^{n^2} = 0 and F^{n^2} = 0 are decided per basis vector c with a
        certificate that can only fail safe.  `_walk_bounds` gives the length
        of the longest path leaving c in the map's support graph, with an
        arrow c -> r for every stored entry (r, c).  Because column c lists
        every row where the map may be nonzero, E^k e_c lies in the span of
        the basis vectors that walks of exactly k arrows from c reach.  So
        when no walk of n^2 arrows leaves c, E^{n^2} e_c = 0 without any
        arithmetic.  A stored zero only adds arrows, and so can only raise
        the bound.  A vector that reaches a cycle or a path of n^2 arrows
        runs the exact chain, which yields the same counterexample string.
        """
        f = self.field
        ctx = self.ctx
        n, N = ctx.n, ctx.N
        for r in range(self.dim):
            yield None if (n * self.kexp[r]) % N == 0 else (
                f"vector {r}: k eigenvalue is not an n-th root of unity"
            )
            yield None if (n * self.khatexp[r] + 2 * self.kexp[r]) % N == 0 else (
                f"vector {r}: khat^n != k^-2 on this vector"
            )
        yield from self._conjugation_checks()
        walks = ((_walk_bounds(self.E, self.dim, N), self.apply_E, "E"),
                 (_walk_bounds(self.F, self.dim, N), self.apply_F, "F"))
        for c in range(self.dim):
            for bound, apply, nm in walks:
                if bound[c] < N:
                    yield None
                    continue
                v: Col = {c: f.one}
                for _ in range(N):
                    v = apply(v)
                    if not v:
                        break
                yield f"{nm}^(n^2) does not vanish on vector {c}" if v else None
        # FE - q^-1 EF = 1 - k^-1 khat, and k^-1 khat = q^lam on vector c;
        # the right side is an exact scalar sent into this module's field
        exact = ctx.field
        minus_qinv = f.neg(f.qpow(-1))
        for c in range(self.dim):
            unit: Col = {c: f.one}
            lhs = self.apply_F(self.apply_E(unit))
            f.axpy(lhs, self.apply_E(self.apply_F(unit)), minus_qinv)
            rhs = f.image(exact.one - exact.qpow(self._classes[c][0]))
            ok = lhs == ({c: rhs} if rhs else {})
            yield None if ok else f"q-commutator of F and E is wrong on vector {c}"
        if self.grades is not None:
            for mp, step, nm in ((self.E, 1, "E"), (self.F, -1, "F")):
                for c, col in mp.items():
                    for r in col:
                        yield None if self.grades[r] - self.grades[c] == step else (
                            f"{nm} entry ({r},{c}) is not homogeneous of degree {step}"
                        )


def _walk_bounds(mp: SparseMap, dim: int, cap: int) -> list[int]:
    """For each basis vector c < dim, the length of the longest path leaving
    c in the support graph of mp, capped at `cap`; a vector that reaches a
    cycle gets `cap`.

    The graph has an arrow c -> r for every stored entry (r, c), so only the
    keys of mp are read and the coefficients' field does not matter.  A
    vector's bound is final once all its successors' are: sinks start a
    queue, and each vector enters it when its last successor is settled.  A
    vector never settled has a successor never settled, so in a finite graph
    it reaches a cycle.  No recursion, so depth is not limited by the stack.
    """
    preds: dict[int, list[int]] = {}
    pending: dict[int, int] = {}
    for c, col in mp.items():
        pending[c] = len(col)
        for r in col:
            preds.setdefault(r, []).append(c)
    depth: dict[int, int] = {}
    ready = [r for r in preds if not pending.get(r)]
    while ready:
        r = ready.pop()
        up = depth.get(r, 0) + 1
        for c in preds.get(r, ()):
            if depth.get(c, 0) < up:
                depth[c] = up
            pending[c] -= 1
            if not pending[c]:
                ready.append(c)
    return [cap if pending.get(c) else min(depth.get(c, 0), cap) for c in range(dim)]


# -- the E-chain ---------------------------------------------------------------


def _chain(ctx: AlgebraContext, i: int, j: int, v: int):
    """Class, grade and F-coefficient of chain coordinate v for label (i, j).

    The class is ((2i-2v) mod n^2, (v+j) mod 2) and the grade is v-n^2.  F
    sends v to v-1 with coefficient (w-1)_{1/q}(1-q^{2i-w}), w = (v-1) mod
    n^2 + 1, which vanishes exactly at v = 1 and at v = 2i, mod n^2.
    The triple is immutable, so it is memoised on ctx and shared.
    """
    def build():
        f = ctx.field
        N = ctx.N
        w = (v - 1) % N + 1
        coef = f.one - f.qpow(2 * i - w)
        if not coef.is_zero():
            coef = qint(f, w - 1, f.qpow(-1)) * coef
        return ((2 * i - 2 * v) % N, (v + j) % 2), v - N, coef

    return ctx.cached(("chain", i, j, v), build)


def _chain_g_f(f: FieldContext, i: int, s: int) -> Scalar:
    """F-coefficient on the generator chain of the projective:
    s_{1/q}(1-q^{1-s-2i})."""
    return qint(f, s, f.qpow(-1)) * (f.one - f.qpow(1 - s - 2 * i))


def _chain_g(ctx: AlgebraContext, i: int, s: int) -> Scalar:
    """`_chain_g_f` over ctx's field, memoised on ctx like `_chain`."""
    return ctx.cached(("chain_g", i, s), lambda: _chain_g_f(ctx.field, i, s))


def _assemble(ctx: AlgebraContext, label: str, eig, epairs, fpairs, grades=None) -> Representation:
    kexp = []
    khatexp = []
    for lam, sgn in eig:
        a, b = exps_from_class(ctx, lam % ctx.N, sgn % 2)
        kexp.append(a)
        khatexp.append(b)
    E: SparseMap = {}
    F: SparseMap = {}
    for mp, pairs in ((E, epairs), (F, fpairs)):
        for r, c, s in pairs:
            if s.is_zero():
                continue
            col = mp.setdefault(c, {})
            if r in col:
                raise ConstructionError(f"duplicate matrix entry ({r},{c}) in {label}")
            col[r] = s
    return Representation(ctx, label, kexp, khatexp, E, F, grades)


def _strand_module(ctx: AlgebraContext, label: str, i: int, j: int,
                   segments, bridge: int, lam: Scalar | None) -> Representation:
    """A module cut out of the E-chain of label (i, j).

    The chain has one basis vector for each integer coordinate v, of class
    ((2i-2v) mod n^2, (v+j) mod 2) and grade v-n^2.  E sends v to v+1 with
    coefficient 1, and F sends v to v-1 with (w-1)_{1/q}(1-q^{2i-w}),
    w = (v-1) mod n^2 + 1, which is 0 exactly at v = 1 and at v = 2i, mod n^2;
    `_chain` is the one place these formulas are computed.

    The module's basis is the coordinates of the [lo, hi] segments, in the
    order given, and an arrow is kept when its target is in the basis.  At
    the bridge residue b the chain turns round: no E arrow leaves a
    v = b mod n^2, and F sends v+1 to v with coefficient 1 in place of the
    chain coefficient 0.  With a tube parameter lam the module carries no
    grading, and F also sends each v = 1 mod n^2 to v+n^2-1 with
    coefficient lam.
    """
    f = ctx.field
    N = ctx.N
    order = [v for lo, hi in segments for v in range(lo, hi + 1)]
    pos = {v: p for p, v in enumerate(order)}
    eig = []
    grades = []
    epairs = []
    fpairs = [] if lam is None else \
        [(pos[v + N - 1], p, lam) for p, v in enumerate(order) if v % N == 1]
    for p, v in enumerate(order):
        cls, grade, coef = _chain(ctx, i, j, v)
        eig.append(cls)
        grades.append(grade)
        if (v - bridge) % N and v + 1 in pos:
            epairs.append((pos[v + 1], p, f.one))
        if v - 1 in pos:
            fpairs.append((pos[v - 1], p, coef if (v - 1 - bridge) % N else f.one))
    return _assemble(ctx, label, eig, epairs, fpairs, grades if lam is None else None)


def _zigzag(N: int, i: int, ne: int, na: int) -> list[tuple[int, int]]:
    """ne segments [m n^2+1, m n^2+2i-1], then na segments [t n^2+2i, (t+1) n^2]."""
    return [(m * N + 1, m * N + 2 * i - 1) for m in range(ne)] + \
           [(t * N + 2 * i, (t + 1) * N) for t in range(na)]


# -- constructors ---------------------------------------------------------------


def simple(ctx: AlgebraContext, i: int, j: int) -> Representation:
    """The simple module of dimension n^2-2i+1 with lowest weight data (i, j)."""
    _check_label(ctx, i, j)
    return _strand_module(ctx, f"S({2 * i},{j})", i, j, [(2 * i, ctx.N)], 0, None)


def projective(ctx: AlgebraContext, i: int, j: int) -> Representation:
    """The projective cover of S(2i,j): a-chain E^s.alpha (s < n^2) followed
    by the generator chain E^s.gamma."""
    _check_label(ctx, i, j)
    f = ctx.field
    N = ctx.N
    achain = [_chain(ctx, i, j, s + 1) for s in range(N)]
    gchain = [_chain(ctx, i, j, s + 2 * i) for s in range(N)]
    eig = [c[0] for c in achain + gchain]
    grades = [c[1] for c in achain + gchain]
    epairs = []
    fpairs = []
    for s in range(N - 1):
        epairs.append((s + 1, s, f.one))
        epairs.append((N + s + 1, N + s, f.one))
    for s in range(1, N):
        coefa = achain[s][2]
        if not coefa.is_zero():
            fpairs.append((s - 1, s, coefa))
        coefg = _chain_g(ctx, i, s)
        if not coefg.is_zero():
            fpairs.append((N + s - 1, N + s, coefg))
    for s in range(N):
        t = s + 2 * i - 2
        if 0 <= t <= N - 1:
            fpairs.append((t, N + s, f.qpow(-s)))
    return _assemble(ctx, f"P({2 * i},{j})", eig, epairs, fpairs, grades)


def verma(ctx: AlgebraContext, i: int, j: int) -> Representation:
    """The standard module E^s.alpha, s < n^2, with one broken F-arrow."""
    _check_label(ctx, i, j)
    return _strand_module(ctx, f"M({2 * i},{j})", i, j, [(1, ctx.N)], 0, None)


def family_V(ctx: AlgebraContext, i: int, j: int, l: int) -> Representation:
    """Zigzag module with l+1 socle-type strands and l lowest-weight strands;
    all cross arrows leave the socle-type strands."""
    _check_label(ctx, i, j)
    if l < 0:
        raise InvalidArgumentError("strand count l must be >= 0")
    return _strand_module(ctx, f"V({2 * i},{j};l={l})", i, j,
                          _zigzag(ctx.N, i, l + 1, l), 0, None)


def family_Vt(ctx: AlgebraContext, i: int, j: int, l: int) -> Representation:
    """Mirror zigzag module: all cross arrows leave the lowest-weight strands."""
    _check_label(ctx, i, j)
    if l < 0:
        raise InvalidArgumentError("strand count l must be >= 0")
    return _strand_module(ctx, f"Vt({2 * i},{j};l={l})", i, j,
                          _zigzag(ctx.N, i, l + 1, l), 2 * i - 1, None)


def family_W(ctx: AlgebraContext, i: int, j: int, l: int) -> Representation:
    """l full strands of length n^2 linked bottom-to-top by F arrows."""
    _check_label(ctx, i, j)
    if l < 1:
        raise InvalidArgumentError("strand count l must be >= 1")
    return _strand_module(ctx, f"W({2 * i},{j};l={l})", i, j, [(1, l * ctx.N)], 0, None)


def family_Wt(ctx: AlgebraContext, i: int, j: int, l: int) -> Representation:
    """Same strand pattern as family_W but with the two end strands truncated
    complementarily: the top strand stops below the break, the bottom strand
    starts at it."""
    _check_label(ctx, i, j)
    if l < 1:
        raise InvalidArgumentError("strand count l must be >= 1")
    N = ctx.N
    return _strand_module(ctx, f"Wt({2 * i},{j};l={l})", i, j,
                          [(2 * i - N, (l - 1) * N + 2 * i - 1)], 0, None)


def family_T(ctx: AlgebraContext, i: int, j: int, l: int, lam: Scalar) -> Representation:
    """Tube module: l pairs of strands closed up by an F arrow weighted by
    the parameter.  Carries no grading (the closing arrow mixes heights)."""
    _check_label(ctx, i, j)
    if l < 1:
        raise InvalidArgumentError("strand count l must be >= 1")
    if not isinstance(lam, Scalar):
        raise InvalidArgumentError("tube parameter must be a field Scalar")
    if lam.is_zero():
        raise InvalidArgumentError("tube parameter must be nonzero")
    return _strand_module(ctx, f"T({2 * i},{j};l={l};c={scalar_to_str(lam)})", i, j,
                          _zigzag(ctx.N, i, l, l), 0, lam)


def all_labels(ctx: AlgebraContext) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, ctx.half + 1) for j in (0, 1)]


def partner_label(ctx: AlgebraContext, i: int, j: int) -> tuple[int, int]:
    """The other vertex of the Ext-quiver component containing (i, j)."""
    return ctx.half + 1 - i, 1 - j


# -- Hom spaces ------------------------------------------------------------------


def transpose(M: Representation) -> Representation:
    """The tau-dual M^t: M's group exponents, grades and field, with
    E := F^T and F := E^T, built fresh on each call.

    tau (E <-> F, k and khat fixed) is an anti-automorphism of u: it fixes
    the group relations and FE - q^-1 EF = 1 - k^-1 khat (tau(FE) = FE),
    sends k E k^-1 = q^n E to the F relation k^-1 F k = q^n F, and swaps
    E^(n^2) = 0 with F^(n^2) = 0.  So M* with x.phi = phi o tau(x) is a
    module; in the dual basis it is M^t, where F^T raises the grade as E
    does.  Hence:

    - f -> f^T is a bijection Hom(M, N) = Hom(N^t, M^t);
    - S^t is simple with the character of S, and the simples have distinct
      characters, so S^t = S and dim Hom(M, S) = dim Hom(S, M^t): the top
      of M is the socle of M^t, and rad M, the joint kernel of the maps
      M -> S, is the annihilator of soc M^t, the span of the images of the
      maps S -> M^t;
    - a projective cover P -> M^t transposes to an essential embedding
      M -> P^t with P^t injective (Hom(-, P^t) = Hom(P, (-)^t) is exact),
      so cosyzygy(M) = syzygy(M^t)^t.
    """
    def flip(mp: SparseMap) -> SparseMap:
        out: SparseMap = {}
        for c, col in mp.items():
            for r, s in col.items():
                out.setdefault(r, {})[c] = s
        return out

    return Representation(M.ctx, f"{M.label}^t", M.kexp, M.khatexp,
                          flip(M.F), flip(M.E), M.grades, M.field)


def hom_from_simple(M: Representation, i: int, j: int, dim_only: bool = False):
    """Hom(S(2i,j), M), parametrized by the image of the lowest weight vector.

    This is the one Hom solver against a simple; maps M -> S(2i,j) are read
    from Hom(S(2i,j), M^t) through `transpose`.

    S(2i,j) has a lowest weight vector x_0 in the class chi0 of chain
    coordinate 2i, with x_t = E^t x_0 for t = 0..d, E x_d = 0 and
    F x_t = c_t x_{t-1} (c_t the F-coefficients of the chain, F x_0 = 0).
    A map is fixed by v, the image of x_0, a vector of M in class chi0, and
    v gives a map exactly when

        (1) F v = 0,  (2) E^{d+1} v = 0,  (3) F E^t v = c_t E^{t-1} v, t = 1..d.

    The unknowns are the coordinates of v on the class-chi0 basis vectors
    of M, and the system is solved in three stages, each over the kernel
    basis of the stage before it: K1 = ker (1); K2 = the vectors of K1 that
    satisfy (2), with E-chains built only from K1's basis; K3 = the vectors
    of K2 that satisfy (3), with the residuals formed only for K2's basis
    from its chains.  Each stage restricts the space to the solutions of a
    subset of the same linear equations, and each kernel is exact, so
    K3 = ker (1, 2, 3) over M's field whatever E and F are: the stages need
    no fallback and do not assume that M is a module.  When M is a
    u-module, F v = 0 and FE - q^{-1}EF = 1 - k^{-1}khat give (3) on all
    of ker (1), so stage 3 removes nothing; that is what makes the stages
    cheap, not what makes them right.

    Each stage feeds one `Echelon` over its positions (the basis vectors
    of the stage before) and stops as soon as its rank reaches their
    number, where the kernel is zero.  No partition by grade is needed.
    When M is graded, each stage constrains grade-pure vectors of M (basis
    vectors, then the kernel vectors of the stage before) through fixed
    words in E and F, so every constraint row is grade-pure over the
    positions.  `Echelon.eliminate` clears only pivots at columns the row
    holds, so a row meets only pivots of its own grade, in the order in
    which that grade's rows arrive: each grade gets the pivot rows it
    would get on its own.  A kernel vector of `nullspace_basis` is fixed
    by its free column (1 there, 0 at every other free column), and
    back-substitution reaches only pivots of that column's grade, so the
    kernel vectors are grade-pure and the next stage's rows are too.
    They come in column order, which within a grade is the grade's own
    order, so each grade's next stage is again the one it would run
    alone.  `dim_only` returns dim K3; otherwise each basis vector v of
    K3 gives the map x_t -> E^t v, as {t: column}.
    """
    ctx = M.ctx
    _check_label(ctx, i, j)
    f = M.field
    # x_t is chain coordinate 2i + t, so chi0 = ((-2i) mod n^2, j) and d = n^2 - 2i
    d = ctx.N - 2 * i
    # chains[k] = [v_k, E v_k, ...] over the basis v_k of the current stage;
    # stage 1 starts from the class-chi0 basis vectors and needs no chain.
    var_rows = M.class_indices().get((-2 * i % ctx.N, j), ())
    if not var_rows:
        return 0 if dim_only else []
    chains = [[{r: f.one}] for r in var_rows]
    for stage in range(3):
        # no stage starts empty: a zero kernel returns below, at full rank
        if stage == 0:
            pieces = [[M.F.get(r, {})] for r in var_rows]
        elif stage == 1:
            for ch in chains:
                for _ in range(d + 1):
                    ch.append(M.apply_E(ch[-1]))
            pieces = [[ch.pop()] for ch in chains]
        else:
            # only stage 3 reads the F-coefficients c_t of the chain
            coefs = [f.neg(f.image(_chain(ctx, i, j, 2 * i + t)[2])) for t in range(d + 1)]
            pieces = []
            for ch in chains:
                res = []
                for t in range(1, d + 1):
                    vec = M.apply_F(ch[t])
                    f.axpy(vec, ch[t - 1], coefs[t])
                    res.append(vec)
                pieces.append(res)
        npos = len(chains)
        ech = Echelon(f)
        # one row per (equation, coordinate of M), over positions in chains
        rows: dict[tuple[int, int], dict[int, Scalar]] = {}
        for pos, vecs in enumerate(pieces):
            for t, vec in enumerate(vecs):
                for rr, s in vec.items():
                    rows.setdefault((t, rr), {})[pos] = s
        for row in rows.values():
            ech.add(row)
            if ech.rank == npos:
                return 0 if dim_only else []
        if dim_only and stage == 2:
            return npos - ech.rank
        new = []
        for sol in nullspace_basis(f, list(ech.pivot_rows.values()), npos):
            ch = [{} for _ in chains[0]]
            for pos, cf in sol.items():
                for col, vec in zip(ch, chains[pos]):
                    f.axpy(col, vec, cf)
            new.append(ch)
        chains = new
    return [{t: col for t, col in enumerate(ch) if col} for ch in chains]


def socle_multiplicities(M: Representation) -> dict[tuple[int, int], int]:
    """Nonzero dim Hom(S, M) over M's field, for every simple S, keyed in
    label order."""
    out = {}
    for i, j in all_labels(M.ctx):
        s = hom_from_simple(M, i, j, dim_only=True)
        if s:
            out[(i, j)] = s
    return out


def top_multiplicities(M: Representation) -> dict[tuple[int, int], int]:
    """Nonzero dim Hom(M, S) = dim Hom(S, M^t): the socle of M^t (see
    `transpose`), keyed in label order."""
    return socle_multiplicities(transpose(M))


def _socle_sweep(Mt: Representation) -> tuple[dict[tuple[int, int], int], list[Col]]:
    """Nonzero dim Hom(S(2i,j), Mt) over the labels, keyed in label order,
    and the image columns of the maps, from one `hom_from_simple` solve per
    label.

    The image columns of the (i, j) maps span the S(2i,j)-part of soc Mt,
    so over all labels they span soc Mt.  Called with Mt = M^t, the counts
    are the top of M (see `transpose`).  No label is solved twice, and no
    two labels share work: the solve for (i, j) has one unknown per vector
    of Mt in the class chi0 = ((-2i) mod n^2, j) of the lowest weight
    vector of S(2i,j), and 2i runs over distinct residues mod n^2, so the
    start classes of different labels are disjoint.  A solve builds E-chains
    only from vectors of ker F in its own start class, and a chain is fixed
    by its start vector, so no two labels build the same chain.  When Mt is
    graded, every image column is grade-pure (see `hom_from_simple`).
    """
    tops: dict[tuple[int, int], int] = {}
    columns: list[Col] = []
    for i, j in all_labels(Mt.ctx):
        maps = hom_from_simple(Mt, i, j)
        if maps:
            tops[(i, j)] = len(maps)
        columns.extend(col for mat in maps for col in mat.values())
    return tops, columns


def first_radical_layers(
    M: Representation,
) -> tuple[dict[tuple[int, int], int], int, dict[tuple[int, int], int]]:
    """t0, the top of M; dim rad M; and t1, the top of rad M, from two
    sweeps of Hom solves.

    The first sweep, `_socle_sweep(M^t)`, gives t0 and the image columns
    that span soc M^t.  Their rank r is measured by the `Echelon` of
    `quotient_rep`, and dim rad M = dim M - r, since rad M is the
    annihilator of soc M^t (see `transpose`).  So (rad M)^t, the dual of
    rad M with the transposed action, is M^t / soc M^t: the restriction
    M* -> (rad M)* is onto, with kernel the functionals that vanish on
    rad M, which is soc M^t.  This quotient is well defined: conditions
    (1)-(3) of `hom_from_simple` say F v = 0, E^{d+1} v = 0 and
    F E^t v = c_t E^{t-1} v, so E and F map the span of each image chain
    v, E v, ..., E^d v into itself, whatever E and F M^t has, and each
    E^t v lies in one class, so k and khat do too.  So soc M^t, the sum of
    those spans, is a subspace that E, F, k and khat map into itself.  And
    by `transpose` top(rad M) = soc((rad M)^t), so the second sweep,
    `socle_multiplicities(M^t / soc M^t)`, gives t1.  When r = dim M,
    rad M = 0, the quotient is zero and the second sweep is skipped.

    Tops are nonzero counts keyed in label order.  The quotient is
    labelled "rad(label)^t", so no module label is solved twice.
    """
    Mt = transpose(M)
    tops, socle = _socle_sweep(Mt)
    R = quotient_rep(Mt, socle, f"rad({M.label})^t")
    return tops, R.dim, socle_multiplicities(R) if R.dim else {}


def projective_counts(
    M: Representation, labels: Iterable[tuple[int, int]]
) -> dict[tuple[int, int], int]:
    """b_k, the number of P_k summands of M, for the labels k given (keyed
    in that order, where nonzero): the rank over M's field of
    E^(n^2-1) F^(n^2-1) on M's vectors of class chi_k = (2i mod n^2, j),
    onto which rho_M(e_k) projects (`verify_idempotent_system`), so of
    rho_M(w_k), w_k = E^(n^2-1) alpha_k.
    1. W_k = u gamma_k is P_k (`verify_projective_vs_ideal`) and a summand
       of u (`verify_regular_decomposition`, h = 0), so every module map
       W_k -> M is y -> y m for some m in M.
    2. w_k != 0 (`verify_regular_decomposition`) lies in soc W_k, which is
       simple (census).  A map nonzero at w_k is injective on the socle,
       hence injective, hence split, as W_k is injective (u is Frobenius;
       Hausser and Nill, arXiv:math/9904164).
    3. So w_k X = 0 for every indecomposable X other than P_k, and on P_k
       the values of End(P_k) at w_k span a line, as End(P_k) is local and
       its radical kills the socle.  Krull-Schmidt gives rank = b_k.
    Over a self-injective algebra, soc A annihilates exactly the modules
    with no projective summand (Auslander, Reiten and Smalo,
    "Representation Theory of Artin Algebras", 1995, ch. IV).  E runs only
    on a basis of the span of the F^(n^2-1) images.  On a module made by
    `mod_p` the rank is that of the reduced matrix, at most the exact one.
    """
    f, N = M.field, M.ctx.N
    blocks = M.class_indices()
    out = {}
    for i, j in labels:
        rows: Iterable[Col] = ({c: f.one} for c in blocks.get((2 * i % N, j), ()))
        for apply in (M.apply_F, M.apply_E):
            ech = Echelon(f)
            for v in rows:
                for _ in range(N - 1):
                    v = apply(v)
                    if not v:
                        break
                else:
                    ech.add(v)
            rows = ech.pivot_rows.values()
        if ech.rank:
            out[(i, j)] = ech.rank
    return out


def residue_first(M: Representation, solve, accept):
    """solve(M.mod_p()) if `accept` takes it, else the exact solve(M): the
    one place that chooses between F_p and M's own field.  A refused result
    or an entry of M that is not p-integral runs `solve(M)`, which decides,
    so a failing input reads as it would without F_p; each caller argues
    why an accepted F_p result is right."""
    try:
        R = M.mod_p()
    except DivisionByZeroError:  # an entry has p in its denominator
        return solve(M)
    out = solve(R)
    return out if accept(out) else solve(M)


def quotient_rep(M: Representation, vectors: list[Col], label: str) -> Representation:
    """M / W for W the span of `vectors`, which E, F, k and khat must map
    into itself (not checked).

    The vectors go into one `Echelon`.  Its pivot rows are monic at their
    pivot columns, so the unit vectors at the other columns, kept in M's
    order, are a basis of M / W: every vector of M reduces modulo W to a
    unique combination of them.  E and F of a kept unit vector are its
    E and F columns in M; a column that meets a pivot is reduced by
    `Echelon.eliminate`, which subtracts bounded multiples of the monic
    pivot rows and inverts nothing.  A column that meets none is only
    renumbered.  k and khat act diagonally on M and map W into itself, so
    the kept unit vectors keep their k and khat exponents.  If M is graded
    and every vector is grade-pure, the pivot rows are grade-pure (a row
    meets only pivots of its own grade), reduction keeps a column's grade,
    and the quotient keeps the kept vectors' grades; otherwise it is
    ungraded.
    """
    ech = Echelon(M.field)
    for vec in vectors:
        ech.add(vec)
    pivots = ech.pivot_rows
    keep = [c for c in range(M.dim) if c not in pivots]
    index = {c: t for t, c in enumerate(keep)}

    def reduced(mp: SparseMap) -> SparseMap:
        out: SparseMap = {}
        for c in keep:
            col = mp.get(c)
            if col and not pivots.keys().isdisjoint(col):
                col = ech.reduce(col)
            if col:
                out[index[c]] = {index[r]: s for r, s in col.items()}
        return out

    grades = None
    if M.grades is not None and all(len({M.grades[r] for r in vec}) == 1 for vec in vectors):
        grades = [M.grades[c] for c in keep]
    return Representation(M.ctx, label, [M.kexp[c] for c in keep],
                          [M.khatexp[c] for c in keep], reduced(M.E), reduced(M.F),
                          grades, M.field)


def direct_sum(parts: list[Representation], label: str) -> Representation:
    if not parts:
        raise InvalidArgumentError("direct sum needs at least one summand")
    ctx, field = parts[0].ctx, parts[0].field
    kexp = []
    khatexp = []
    grades = []
    graded = all(p.grades is not None for p in parts)
    E: SparseMap = {}
    F: SparseMap = {}
    off = 0
    for p in parts:
        if p.ctx is not ctx:
            raise ContextMismatchError("direct sum across different contexts")
        if p.field is not field:
            raise ContextMismatchError("direct sum across different fields")
        kexp.extend(p.kexp)
        khatexp.extend(p.khatexp)
        if graded:
            grades.extend(p.grades)
        for mp, src in ((E, p.E), (F, p.F)):
            for c, col in src.items():
                mp[off + c] = {off + r: s for r, s in col.items()}
        off += p.dim
    return Representation(ctx, label, kexp, khatexp, E, F, grades if graded else None, field)


def hom_space(M: Representation, N: Representation) -> list[SparseMap]:
    """Basis of the space of module maps M -> N (columns over M, rows over N),
    found by spinning M (Lux and Szoke, "Computing homomorphism spaces
    between modules over finite dimensional algebras", Experimental Math.
    12, 2003).

    The spin keeps one `Echelon` of M's vectors, and for each pivot row b
    its image phi(b), a linear form in the unknowns stored as {unknown:
    vector of N}.  M's unit vectors are walked in index order, and one the
    rows do not yet span becomes a generator g: its reduced copy is a new
    row, and phi(g) is a set of fresh unknowns, one on each basis vector of
    N in g's class.  For every row b, in the order the rows arrive, and op
    in {E, F}, `Echelon.eliminate` reduces op_M(b), and op_N(phi(b)) is
    carried along with the same steps: they are the relation op_M(b) =
    residual - sum cf * b_s.  A zero residual imposes "reduced image = 0",
    one equation per row of N; a nonzero one becomes a new row whose image
    is the reduced image times the factor `Echelon.add` made it monic with.

    Why the kernel of these equations is Hom(M, N), for any E and F that
    obey the conjugation rule, which is checked; the other relations need
    not hold:

    - The rows span M: every unit vector reduces to zero or adds a row.
    - A module map satisfies every imposed relation, and its value on each
      row is the stored image at its generators' values.  Conversely a
      solution gives the rows images that satisfy every (row, op)
      relation, so the linear map it defines commutes with E and F.
    - Rows stay class-pure, and each row's image lies in N's part of the
      row's class.  Under the rule op sends each class chi to one class
      op(chi) in M and in N alike.  So op_M(b) lies in op(chi) for a row b
      of class chi, and it meets only pivots of that class, as elimination
      clears only columns the vector holds; op_N(phi(b)) and the images of
      those pivots lie in N's part of op(chi).  So restricting phi(g) to
      g's class is the k / khat condition, as it is for unknowns (row of N,
      column of M) taken in one class.

    The kernel is taken by `nullspace_basis` over the unknowns; each unit
    vector of M is then reduced once against the rows, and its steps write
    every solution back as a map on M's standard columns.  Both modules
    must hold the exact field: a module made by `mod_p` is refused.  A
    module with an E or F entry that breaks the conjugation rule is refused
    with RepresentationError, which names the module and the first such
    entry.
    """
    if M.ctx is not N.ctx:
        raise ContextMismatchError("Hom between modules over different contexts")
    if M.field is not M.ctx.field or N.field is not N.ctx.field:
        raise ContextMismatchError("Hom needs modules over the exact field, not a residue field")
    for X in (M, N):
        broken = next(filter(None, X._conjugation_checks()), None)
        if broken:
            raise RepresentationError(f"{X.label}: {broken}")
    nidx = N.class_indices()
    if not any(ch in nidx for ch in M.class_indices()):
        return []
    f = M.field
    axpy = f.axpy
    mclass = M.classes()
    ech = Echelon(f)
    images: dict[int, dict[int, Col]] = {}  # pivot column -> phi(its row)
    order: list[int] = []  # pivot columns in arrival order, the spin queue
    equations: list[Col] = []
    unknowns = 0

    def scaled(vec: Col, s: Scalar) -> Col:
        out: Col = {}
        axpy(out, vec, s)
        return out

    def add_row(vec: Col, phi: dict[int, Col] | None = None) -> None:
        """Store reduced vec as a row with image phi scaled as vec was, or,
        for no phi, with fresh unknowns on N's vectors of its class."""
        nonlocal unknowns
        piv = min(vec)
        factor = ech.add(vec)
        if phi is None:
            phi = {}
            for r in nidx.get(mclass[piv], ()):
                phi[unknowns] = {r: f.one}
                unknowns += 1
        elif factor != f.one:
            phi = {u: scaled(w, factor) for u, w in phi.items()}
        images[piv] = {u: w for u, w in phi.items() if w}
        order.append(piv)

    def impose(phi: dict[int, Col]) -> None:
        eqs: dict[int, Col] = {}
        for u, w in phi.items():
            for r, s in w.items():
                eqs.setdefault(r, {})[u] = s
        equations.extend(eqs.values())

    done = 0
    for c in range(M.dim):
        vec = {c: f.one}
        ech.eliminate(vec)
        if not vec:
            continue
        add_row(vec)
        while done < len(order):
            piv = order[done]
            b, phib = ech.pivot_rows[piv], images[piv]
            done += 1
            for mapM, mapN in ((M.E, N.E), (M.F, N.F)):
                vec = M.apply_map(mapM, b)
                phi = {u: N.apply_map(mapN, w) for u, w in phib.items()}
                for hit, cf in ech.eliminate(vec):
                    for u, w in images[hit].items():
                        axpy(phi.setdefault(u, {}), w, cf)
                if vec:
                    add_row(vec, phi)
                else:
                    impose(phi)
    sols = nullspace_basis(f, equations, unknowns)
    if not sols:
        return []
    # -e_c + sum cf * row = 0, so e_c = sum cf * row
    minus_one = f.neg(f.one)
    coords = [ech.eliminate({c: minus_one}) for c in range(M.dim)]
    maps = []
    for x in sols:
        values = {}  # the solution's image of each row
        for piv, img in images.items():
            val: Col = {}
            for u, w in img.items():
                xu = x.get(u)
                if xu is not None:
                    axpy(val, w, xu)
            values[piv] = val
        mat: SparseMap = {}
        for c, steps in enumerate(coords):
            col: Col = {}
            for piv, cf in steps:
                axpy(col, values[piv], cf)
            if col:
                mat[c] = col
        maps.append(mat)
    return maps


def compose_maps(A: SparseMap, B: SparseMap) -> SparseMap:
    """Matrix of A after B (B: L->M, A: M->N)."""
    out: SparseMap = {}
    for l, colB in B.items():
        acc: Col = {}
        for m, b in colB.items():
            colA = A.get(m)
            if colA:
                _axpy(acc, colA, b)
        if acc:
            out[l] = acc
    return out


def map_trace(f_ctx: FieldContext, A: SparseMap) -> Scalar:
    acc = f_ctx.zero
    for c, col in A.items():
        s = col.get(c)
        if s is not None:
            acc = acc + s
    return acc


def add_scaled_map(A: SparseMap, B: SparseMap, s: Scalar) -> SparseMap:
    out: SparseMap = {c: dict(col) for c, col in A.items()}
    for c, col in B.items():
        dst = out.setdefault(c, {})
        _axpy(dst, col, s)
        if not dst:
            del out[c]
    return out


def _is_invertible(f_ctx: FieldContext, A: SparseMap, dim: int) -> bool:
    return len(A) == dim and rank(f_ctx, list(A.values())) == dim


def _trace_gram(f_ctx: FieldContext, endos: list[SparseMap]) -> list[Col]:
    """Rows of the Gram matrix tr(endos[a] endos[b]) of the trace form."""
    rows = []
    for A in endos:
        row = {}
        for b, B in enumerate(endos):
            t = map_trace(f_ctx, compose_maps(A, B))
            if not t.is_zero():
                row[b] = t
        rows.append(row)
    return rows


def _end_is_local(f_ctx: FieldContext, endos: list[SparseMap]) -> bool:
    """True when the trace form on End has rank one, which proves End local.

    The radical of the trace form is the Jacobson radical J (faithful module,
    characteristic zero), so the form's rank equals dim End/J, and rank one
    makes End/J the ground field: End is local.  The test is one-sided.  A
    local End whose End/J is a division algebra of dimension above one over
    Q(zeta) has a higher rank, so False does not refute locality; `iso_test`
    returns None (undecided) when neither side passes.
    """
    return bool(endos) and rank(f_ctx, _trace_gram(f_ctx, endos)) == 1


def iso_test(M: Representation, N: Representation) -> bool | None:
    """Exact isomorphism test: True, False, or None when undecided.

    One search, in three steps.  It tries each basis map T_0, T_1, ... of
    Hom(M, N), then the running sums T_0 + ... + T_t (t >= 1), for an
    invertible intertwiner.  It then settles the remaining case through the
    trace-form radical of the endomorphism algebra, which is exact when the
    trace form proves either side's End local (`_end_is_local`).  When no
    invertible map is found and neither side passes, the test cannot decide
    and returns None; callers must treat None as neither a proof nor a
    disproof.  A module that breaks the group conjugation rule is refused
    by `hom_space` with RepresentationError.

    Hom(M, N), Hom(N, M) and End come from `hom_space`, which spins the
    source module from its generators (Lux and Szoke, Experimental Math.
    12, 2003): the unknowns are the generators' images only, and every
    relation the spin meets is imposed, so each basis is exact and the
    verdict rests on the rank and trace-form arguments alone.
    """
    if M.ctx is not N.ctx:
        raise ContextMismatchError("iso test across different contexts")
    f = M.field
    if M.dim != N.dim:
        return False
    if M.dim == 0:
        return True
    fwd = hom_space(M, N)
    if not fwd:
        return False
    for T in fwd:
        if _is_invertible(f, T, M.dim):
            return True
    acc: SparseMap = {}
    for t, T in enumerate(fwd):
        acc = add_scaled_map(acc, T, f.one)
        if t and _is_invertible(f, acc, M.dim):
            return True
    bwd = hom_space(N, M)
    if not bwd:
        return False
    # When End(X) is local, M and N are isomorphic exactly when some round
    # trip X -> Y -> X lies outside the radical of End(X), the radical of
    # its trace form.  End(N) is built only when End(M) fails the test.
    for X, outer, inner in ((M, bwd, fwd), (N, fwd, bwd)):
        end = hom_space(X, X)
        if not _end_is_local(f, end):
            continue
        for a in outer:
            for b in inner:
                w = compose_maps(a, b)
                for h in end:
                    if not map_trace(f, compose_maps(w, h)).is_zero():
                        return True
        return False
    return None


# -- syzygies ------------------------------------------------------------------


def syzygy(M: Representation) -> Representation:
    """Kernel of a projective cover of M, as the transpose of a quotient.

    The cover.  One `_socle_sweep(M^t)` gives t0, the top of M, and the
    image columns that span soc M^t; as functionals on M their joint kernel
    is rad M (see `transpose`).  A map h: P_k -> M from `hom_space` is
    fixed modulo rad M by h(gamma), gamma the generator of P_k, and its
    pairing vector (<phi, h(gamma)> over those columns phi) is zero exactly
    when h(gamma) lies in rad M.  So the maps whose pairing vectors are
    independent in one `Echelon` are those independent modulo rad M; t0_k
    of them for each k map onto the S_k-part of M / rad M, so their sum
    pi: C -> M, C the direct sum of their P's, is onto modulo rad M, hence
    onto, and C has the top of M: it is a projective cover.

    The kernel.  pi^t: M^t -> C^t is a module map (see `transpose`), and
    its image, spanned by the rows of pi, is the functionals phi o pi.
    ker pi is their joint kernel, so restricting functionals from C to
    ker pi is onto with kernel im pi^t: (ker pi)^t = C^t / im pi^t, and
    ker pi is `quotient_rep(C^t, rows of pi)` transposed.  Its dimension
    is dim C - rank pi, which is dim C - dim M exactly when pi is onto;
    that is checked.

    The premise.  `quotient_rep` needs im pi^t to be a submodule, which
    holds when each kept h is a module map: h E = E h, h F = F h, and h
    keeps the k and khat classes.  `hom_space` returns such maps; each
    kept one is checked here all the same, since a quotient by a subspace
    that E or F leaves is not a module.
    """
    ctx = M.ctx
    f = M.field
    tops, socle = _socle_sweep(transpose(M))
    pairings: dict[int, Col] = {}  # row r of M -> {column phi: phi[r]}
    for s, phi in enumerate(socle):
        for r, x in phi.items():
            pairings.setdefault(r, {})[s] = x
    ech = Echelon(f)
    blocks = []
    gen = ctx.N  # column of the generator gamma, the start of P's second E-chain
    for (i, j), top in tops.items():
        P = projective(ctx, i, j)
        picked = 0
        for h in hom_space(P, M):
            pairing: Col = {}
            for r, x in h.get(gen, {}).items():
                f.axpy(pairing, pairings.get(r, {}), x)
            if ech.add(pairing) is None:
                continue
            module_map = all(compose_maps(h, mpP) == compose_maps(mpM, h)
                             for mpP, mpM in ((P.E, M.E), (P.F, M.F)))
            if not module_map or any(M._classes[r] != P._classes[c]
                                     for c, col in h.items() for r in col):
                raise ConstructionError(f"a cover map {P.label} -> {M.label} is not a module map")
            blocks.append((P, h))
            picked += 1
        if picked != top:
            raise ConstructionError(f"no projective cover found for {M.label}")
    cover = direct_sum([P for P, _ in blocks], f"cover({M.label})")
    rows: dict[int, Col] = {}  # row r of pi over the columns of the cover
    off = 0
    for P, h in blocks:
        for c, col in h.items():
            for r, x in col.items():
                rows.setdefault(r, {})[off + c] = x
        off += P.dim
    K = quotient_rep(transpose(cover), list(rows.values()), f"syzygy({M.label})^t")
    if K.dim != cover.dim - M.dim:
        raise ConstructionError(f"cover of {M.label} is not surjective")
    Om = transpose(K)
    Om.label = f"syzygy({M.label})"
    return Om


def cosyzygy(M: Representation) -> Representation:
    """Cokernel of an injective envelope of M: syzygy(M^t)^t (see `transpose`)."""
    C = transpose(syzygy(transpose(M)))
    C.label = f"cosyzygy({M.label})"
    return C


# -- block structure -------------------------------------------------------------


def _ratio_to(f_ctx: FieldContext, A: SparseMap, B: SparseMap) -> Scalar:
    """The scalar c with A = c*B; raises if A is not a multiple of B."""
    if not A:
        return f_ctx.zero
    if not B:
        raise ConstructionError("cannot take ratio against the zero map")
    c0, col0 = next(iter(B.items()))
    r0, b0 = next(iter(col0.items()))
    a0 = A.get(c0, {}).get(r0, f_ctx.zero)
    lam = a0 / b0
    diff = add_scaled_map(A, B, -lam)
    if diff:
        raise ConstructionError("map is not proportional to the socle endomorphism")
    return lam


@verifier(
    lambda ctx: f"Ext-linkage splits the {ctx.N} labels into {ctx.half} two-vertex blocks "
    "whose basic algebra is the expected 8-dimensional quiver algebra"
)
def verify_block_structure(ctx: AlgebraContext) -> Counterexamples:
    """Ext-linkage blocks and the basic algebra of each block, verified.

    The report covers: the pairing of labels into blocks, the per-block
    dimension count, and the quiver-with-relations shape of End(P_1 + P_2)
    for every block.
    """
    f = ctx.field
    labels = all_labels(ctx)
    projs = {lab: projective(ctx, *lab) for lab in labels}
    links: dict[tuple[int, int], set] = {}
    for lab in labels:
        P = projs[lab]
        _, _, layer1 = first_radical_layers(P)
        links[lab] = set(layer1)
        expect = {partner_label(ctx, *lab): 2}
        yield None if layer1 == expect else (
            f"radical layer of {P.label} is {layer1}, expected double {expect}"
        )
    blocks = []
    seen = set()
    for lab in labels:
        if lab in seen:
            continue
        comp = {lab} | links[lab]
        seen |= comp
        blocks.append(sorted(comp))
    for comp in blocks:
        yield None if len(comp) == 2 else f"block {comp} does not have two labels"
    for comp in blocks:
        dimsum = sum(projs[(i, j)].dim * (ctx.N - 2 * i + 1) for i, j in comp)
        yield None if dimsum == 2 * ctx.N * ctx.N else (
            f"block {comp} spans dimension {dimsum}, expected {2 * ctx.N * ctx.N}"
        )
    for lab1, lab2 in blocks:
        P1, P2 = projs[lab1], projs[lab2]
        pair = f"{P1.label}, {P2.label}"
        end1 = hom_space(P1, P1)
        end2 = hom_space(P2, P2)
        h12 = hom_space(P1, P2)
        h21 = hom_space(P2, P1)
        dims = (len(end1), len(h12), len(h21), len(end2))
        for d in dims:
            yield None if d == 2 else f"Hom dimensions {dims} between {pair} are off"
        sigma = {}
        for key, endos, P in (("1", end1, P1), ("2", end2, P2)):
            ns = nullspace_basis(f, _trace_gram(f, endos), 2)
            if len(ns) != 1:
                yield f"End({P.label}) is not local"
            mat: SparseMap = {}
            for t, cf in ns[0].items():
                mat = add_scaled_map(mat, endos[t], cf)
            yield None if mat else f"socle endomorphism of {P.label} vanished"
            sigma[key] = mat
        s1, s2 = sigma["1"], sigma["2"]
        try:
            m1 = [[_ratio_to(f, compose_maps(h21[a], h12[b]), s1) for b in range(2)]
                  for a in range(2)]
        except ConstructionError as exc:
            yield f"{exc} (between {P1.label} and {P2.label})"
        det = m1[0][0] * m1[1][1] - m1[0][1] * m1[1][0]
        yield f"pairing of arrows between {pair} is degenerate" if det.is_zero() else None
        inv = det.inverse()
        g0 = add_scaled_map(add_scaled_map({}, h21[0], m1[1][1] * inv),
                            h21[1], -(m1[0][1] * inv))
        g1 = add_scaled_map(add_scaled_map({}, h21[0], -(m1[1][0] * inv)),
                            h21[1], m1[0][0] * inv)
        gs = [g0, g1]
        try:
            for a in range(2):
                for b in range(2):
                    got = _ratio_to(f, compose_maps(gs[a], h12[b]), s1)
                    want = f.one if a == b else f.zero
                    yield None if got == want else (
                        f"arrow normalization failed (between {P1.label} and {P2.label})"
                    )
            aup = [[_ratio_to(f, compose_maps(h12[a], gs[b]), s2) for b in range(2)]
                   for a in range(2)]
        except ConstructionError as exc:
            yield f"{exc} (between {P1.label} and {P2.label})"
        for off in (aup[0][1], aup[1][0]):
            yield None if off.is_zero() else f"opposite composites mix arrows between {pair}"
        yield None if not aup[0][0].is_zero() and aup[0][0] == aup[1][1] else (
            f"opposite composites are not a common scalar on {pair}"
        )
        for arrow in h12:
            killed = not compose_maps(arrow, s1) and not compose_maps(s2, arrow)
            yield None if killed else "an arrow fails to kill the socle endomorphism"
        for arrow in gs:
            killed = not compose_maps(arrow, s2) and not compose_maps(s1, arrow)
            yield None if killed else "a reverse arrow fails to kill the socle endomorphism"


# -- cross-check against the regular module ---------------------------------------


@verifier(
    lambda ctx, i, j: f"matrix model of P({2 * i},{j}) matches the left ideal model inside u"
)
def verify_projective_vs_ideal(ctx: AlgebraContext, i: int, j: int) -> Counterexamples:
    """Check the matrix model of projective(i, j) against the left ideal
    u*gamma generated inside u itself.

    The chain vectors are alpha, E alpha, ..., and gamma, E gamma, ... in u;
    let W be their span.  The checks are:
    - F acts on both chains by the formulas the model is built from;
    - k and khat scale chain vector c by P's exponents at c;
    - the 2n^2 chain vectors are independent in u;
    - the a-chain F coefficients at v in [2, 2i-1] are nonzero;
    - E and F send chain vector c to sum_r P.E[c][r] (resp. P.F[c][r])
      times chain vector r, with P's stored matrices.
    Then W = u*gamma:
    - W lies in u*gamma.  Each E^s gamma does.  By the generator chain's F
      formula, a-chain vector t = s + 2i - 2 is q^s (F E^s gamma - c_s
      E^(s-1) gamma), so the vectors t >= 2i - 2 do; the a-chain's F
      formula then walks down to alpha through the coefficients at v in
      [2, 2i-1], which are nonzero (an empty range at i = 1).
    - u*gamma lies in W.  W contains gamma and is closed under E, F, k and
      khat, which generate u.
    So the chain vectors are a basis of u*gamma on which E, F, k and khat
    act by P's matrices and exponents: the identity on chain coordinates is
    an isomorphism P -> u*gamma.
    """
    f = ctx.field
    N = ctx.N
    alpha = ctx.alpha_vec(i, j)
    gamma = ctx.gamma_vec(i, j)
    achain = [alpha]
    gchain = [gamma]
    for _ in range(N - 1):
        achain.append(ctx.E * achain[-1])
        gchain.append(ctx.E * gchain[-1])
    zero = ctx.zero_elem
    for s in range(N):
        fa = ctx.F * achain[s]
        want = achain[s - 1].scale(_chain(ctx, i, j, s + 1)[2]) if s >= 1 else zero
        yield None if fa == want else f"F action on a-chain vector {s} disagrees inside u"
        fg = ctx.F * gchain[s]
        want = gchain[s - 1].scale(_chain_g(ctx, i, s)) if s >= 1 else zero
        t = s + 2 * i - 2
        if 0 <= t <= N - 1:
            want = want + achain[t].scale(f.qpow(-s))
        yield None if fg == want else (
            f"F action on generator chain vector {s} disagrees inside u"
        )
    P = projective(ctx, i, j)
    for s in range(N):
        for vec, idx in ((achain[s], s), (gchain[s], N + s)):
            bad = f"group action on chain vector {idx} disagrees inside u"
            yield None if ctx.k * vec == vec.scale(f.qpow(P.kexp[idx])) else bad
            yield None if ctx.khat * vec == vec.scale(f.qpow(P.khatexp[idx])) else bad
    vecs = achain + gchain
    coords = [ctx.coords(v) for v in vecs]
    yield None if rank(f, coords) == 2 * N else "chain vectors are linearly dependent inside u"
    vanish = [v for v in range(2, 2 * i) if _chain(ctx, i, j, v)[2].is_zero()]
    yield None if not vanish else f"a-chain F coefficient vanishes at v = {vanish[0]}"
    for name, gen, mp in (("E", ctx.E, P.E), ("F", ctx.F, P.F)):
        for c in range(2 * N):
            want = zero
            for r, s in mp.get(c, {}).items():
                want = want + vecs[r].scale(s)
            yield None if gen * vecs[c] == want else (
                f"{name} action on chain vector {c} differs from {P.label} inside u"
            )


@verifier("primitive orthogonal idempotent decomposition of the unit")
def verify_idempotent_system(ctx: AlgebraContext) -> Counterexamples:
    """The e_{2i,j} are orthogonal, complete and primitive in u^0, read off
    its n^2 characters: C has one vector per class chi_k = (2i mod n^2, j),
    with the exponents of `exps_from_class`, and E = F = 0.
    1. u^0 is the group algebra of the abelian group generated by k and
       khat, and `exps_from_class` checks k^n = 1 and khat^n = k^-2, so
       each chi_k is an algebra map u^0 -> Q(zeta).
    2. n^2 distinct characters are linearly independent (Dedekind), and
       dim u^0 = n^2 (PBW), so evaluation x -> (chi_l(x))_l is an algebra
       isomorphism u^0 -> Q(zeta)^(n^2).
    3. If every term of e_k has a = d = 0, e_k lies in u^0 and
       `act_matrix(e_k)` on C is the diagonal of the chi_l(e_k).  If that
       is the indicator of chi_k for each k, the e_k are the coordinate
       idempotents: idempotent, orthogonal, summing to 1, and each spanning
       a one-dimensional ideal, so primitive.
    One instance checks that the classes are distinct; one per label that
    e_k lies in u^0 and acts on C as the indicator of chi_k.
    """
    labels = all_labels(ctx)
    C = _assemble(ctx, "u^0", [(2 * i, j) for i, j in labels], (), ())
    yield None if len(C.class_indices()) == C.dim else "two labels share a class"
    for r, (i, j) in enumerate(labels):
        e = ctx.idempotent_e(i, j)
        if any(a or d for a, _, _, d in e.terms):
            yield f"e_({2 * i},{j}) has a term outside u^0"
        else:
            yield None if C.act_matrix(e) == {r: {r: ctx.field.one}} else (
                f"e_({2 * i},{j}) does not act as the indicator of its class"
            )


@verifier("regular module decomposes into shifted projectives")
def verify_regular_decomposition(ctx: AlgebraContext) -> Counterexamples:
    """u is the direct sum of the shifted ideals W_k E^h, W_k = u*gamma_k,
    over the labels k = (i, j) and 0 <= h <= n^2-2i.

    Premises: W_k is spanned by the chain vectors E^s alpha_k, E^s gamma_k,
    acted on by P_k's matrices (`verify_projective_vs_ideal`); P_k has
    simple socle S_k of dimension n^2-2i+1 (the census); and e_k lies in
    u^0 and acts as the projection pi_k onto the vectors of class
    chi_k = (2i mod n^2, j) (`verify_idempotent_system`).  Then:
    1. x -> x E^h is a left-module map W_k -> u.
    2. The a-chain vectors at v >= 2i span a submodule of dimension
       n^2-2i+1 = dim S_k, because F vanishes at v = 2i (`_chain`).  It
       contains the simple socle, so it is the socle, and
       w_k = E^(n^2-1) alpha_k = E^(n^2-1) F^(n^2-1) e_k lies in it.
    3. So x -> x E^h is injective on W_k iff w_k E^h != 0, and a map from
       the sum of all W_k E^h is injective iff it is injective on its
       socle, the sum of the S_k.  The S_k are pairwise distinct simples
       and w_k generates S_k, so that holds iff, for each k, the w_k E^h
       (h = 0..n^2-2i) are independent.
    4. w_k is a product of homogeneous elements, and the product of u is
       graded (argued in `quasihopf.QuasiHopfData.verify_grading`, and run
       over every `ef` table by a Tier-1 test), so these lie in distinct
       heights.  All are nonzero iff w_k E^(n^2-2i) is.
    5. The dimensions add to dim u, so the injective sum map is onto.
    An element that acts as nonzero is nonzero, and on P_k w_k E^(n^2-2i)
    acts as E^(n^2-1) F^(n^2-1) pi_k E^(n^2-2i).  So one basis vector of
    P_k with a nonzero image decides the label; a zero action decides
    nothing, and the label is reported undecided.  One instance checks the
    dimension identity; one per label looks for that vector.
    """
    N = ctx.N
    total = sum(2 * (N - 2 * i + 1) * 2 * N for i in range(1, ctx.half + 1))
    yield None if total == ctx.dim else f"sum of shifted projective dims {total} != {ctx.dim}"
    for i, j in all_labels(ctx):
        P = projective(ctx, i, j)
        block = P.class_indices().get((2 * i % N, j), ())

        def image(c: int) -> Col:
            v: Col = {c: P.field.one}
            for _ in range(N - 2 * i):
                v = P.apply_E(v)
            v = {r: s for r, s in v.items() if r in block}
            for apply in (P.apply_F, P.apply_E):
                for _ in range(N - 1):
                    v = apply(v)
            return v

        yield None if any(image(c) for c in range(P.dim)) else (
            f"w_({2 * i},{j}) E^(n^2-{2 * i}) != 0 undecided: it acts as zero on {P.label}"
        )


@verifier("simple and projective censuses match the stated counts")
def verify_structure_counts(ctx: AlgebraContext) -> Counterexamples:
    """Census of the module category: simple dimensions, projective covers,
    block dimensions.

    The n^2 simples carry every odd dimension below n^2 twice; each
    projective has dimension 2n^2 with simple top and socle equal to its
    label (so none of the simples, all smaller, is projective); the
    partner involution pairs the labels into n^2/2 blocks of total
    dimension 2n^4, exhausting dim u.  Every simple and projective also
    passes `check_relations`, one instance per module: `moncat.tensor`
    needs its factors to be modules.
    """
    N = ctx.N
    labels = all_labels(ctx)
    simples = {lab: simple(ctx, *lab) for lab in labels}
    projs = {lab: projective(ctx, *lab) for lab in labels}
    for lab in labels:
        for M in (simples[lab], projs[lab]):
            rel = M.check_relations()
            yield None if rel.passed else f"{M.label}: {rel.counterexample}"
    dims = sorted(S.dim for S in simples.values())
    yield None if dims == sorted(2 * list(range(1, N, 2))) else f"simple dimensions are {dims}"
    yield None if max(dims) < 2 * N else "a simple module is at least as large as a projective"
    for i, j in labels:
        P = projs[(i, j)]
        yield None if P.dim == 2 * N else f"P({2 * i},{j}) has dimension {P.dim}"
        yield None if top_multiplicities(P) == {(i, j): 1} else (
            f"P({2 * i},{j}) does not have simple top S({2 * i},{j})"
        )
        yield None if socle_multiplicities(P) == {(i, j): 1} else (
            f"P({2 * i},{j}) does not have simple socle S({2 * i},{j})"
        )
    seen = set()
    block_total = 0
    for i, j in labels:
        ip, jp = partner_label(ctx, i, j)
        ok = (ip, jp) != (i, j) and partner_label(ctx, ip, jp) == (i, j) and jp != j
        yield None if ok else f"partner pairing misbehaves at ({i},{j})"
        if (i, j) in seen:
            continue
        seen.update({(i, j), (ip, jp)})
        block_dim = 2 * N * simples[(i, j)].dim + 2 * N * simples[(ip, jp)].dim
        yield None if block_dim == 2 * N * N else f"block of ({i},{j}) has dimension {block_dim}"
        block_total += block_dim
    yield None if len(seen) == len(labels) else "blocks do not exhaust the algebra"
    yield None if block_total == ctx.dim else "blocks do not exhaust the algebra"


# Largest strand count l at which verify_family_constructors builds each family.
FAMILY_LMAX = 3


@verifier("strand families, (co)syzygies, and tubes behave as stated")
def verify_family_constructors(ctx: AlgebraContext) -> Counterexamples:
    """Every strand family is well-defined with the stated dimension, the
    first (co)syzygies are the one-strand modules, the two-strand syzygy
    lands on the partner label, and the tubes separate parameters."""
    f = ctx.field
    N = ctx.N

    def well_defined(M: Representation, dim: int) -> Counterexamples:
        yield None if M.dim == dim else f"{M.label} has dimension {M.dim}"
        rel = M.check_relations()
        yield None if rel.passed else f"{M.label}: {rel.counterexample}"

    params = (f.one, -f.one, f.from_int(2))
    for i, j in all_labels(ctx):
        for l in range(0, FAMILY_LMAX + 1):
            for fam in (family_V, family_Vt):
                yield from well_defined(
                    fam(ctx, i, j, l), (l + 1) * (2 * i - 1) + l * (N - 2 * i + 1)
                )
        for l in range(1, FAMILY_LMAX + 1):
            mods = [family_W(ctx, i, j, l), family_Wt(ctx, i, j, l)]
            mods.extend(family_T(ctx, i, j, l, lam) for lam in params)
            for M in mods:
                yield from well_defined(M, l * N)
    first = {}  # label -> (syzygy, cosyzygy) of its simple, reused by the second loop
    for i, j in all_labels(ctx):
        ip, jp = partner_label(ctx, i, j)
        S = simple(ctx, i, j)
        yield None if iso_test(family_V(ctx, i, j, 0), simple(ctx, ip, jp)) else (
            f"V({2 * i},{j};0) is not the partner simple"
        )
        yield None if iso_test(family_Vt(ctx, i, j, 0), simple(ctx, ip, jp)) else (
            f"Vt({2 * i},{j};0) is not the partner simple"
        )
        syz = syzygy(S)
        yield None if iso_test(syz, family_V(ctx, i, j, 1)) else (
            f"the syzygy of S({2 * i},{j}) is not V({2 * i},{j};1)"
        )
        cosyz = cosyzygy(S)
        yield None if iso_test(cosyz, family_Vt(ctx, i, j, 1)) else (
            f"the cosyzygy of S({2 * i},{j}) is not Vt({2 * i},{j};1)"
        )
        first[(i, j)] = syz, cosyz
    for i, j in ((1, 0), (3, 1), (ctx.half, 0), (2, 1)):
        ip, jp = partner_label(ctx, i, j)
        syz, cosyz = first[(i, j)]
        yield None if iso_test(syzygy(syz), family_V(ctx, ip, jp, 2)) else (
            f"the second syzygy of S({2 * i},{j}) is not V on the partner label"
        )
        yield None if iso_test(cosyzygy(cosyz), family_Vt(ctx, ip, jp, 2)) else (
            f"the second cosyzygy of S({2 * i},{j}) is not Vt on the partner label"
        )
    for l in range(1, FAMILY_LMAX + 1):
        tubes = [family_T(ctx, 2, 0, l, lam) for lam in params]
        yield None if iso_test(tubes[0], family_T(ctx, 2, 0, l, f.one)) else (
            f"T(4,0;{l};1) fails to be isomorphic to a fresh copy of itself"
        )
        for a in range(len(tubes)):
            for b in range(a + 1, len(tubes)):
                same = iso_test(tubes[a], tubes[b]) is not False
                yield f"tubes with distinct parameters coincide at l={l}" if same else None
        same = iso_test(family_W(ctx, 2, 0, l), family_Wt(ctx, 2, 0, l)) is not False
        yield f"W(4,0;{l}) and Wt(4,0;{l}) are isomorphic" if same else None
    yield None if iso_test(family_W(ctx, 2, 0, 1), verma(ctx, 2, 0)) else (
        "W(4,0;1) is not the standard module M(4,0)"
    )
    same = iso_test(family_W(ctx, 2, 0, 2), family_T(ctx, 2, 0, 2, f.one)) is not False
    yield "W(4,0;2) coincides with the closed tube T(4,0;2;1)" if same else None


# -- serialization -----------------------------------------------------------------


def rep_to_dict(M: Representation) -> dict:
    """The module as a JSON-ready dict, entries written as exact scalars; a
    module made by `mod_p` has no such entries and is refused."""
    if M.field is not M.ctx.field:
        raise ContextMismatchError("serialization needs a module over the exact field")

    def mat_dict(mp: SparseMap):
        return {str(c): {str(r): scalar_to_str(s) for r, s in sorted(col.items())}
                for c, col in sorted(mp.items())}

    out = {
        "label": M.label,
        "dim": M.dim,
        "k_exponents": list(M.kexp),
        "khat_exponents": list(M.khatexp),
        "E": mat_dict(M.E),
        "F": mat_dict(M.F),
    }
    if M.grades is not None:
        out["grades"] = list(M.grades)
    return out
