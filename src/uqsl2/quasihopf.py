"""Quasi-Hopf structure on u: coproduct, counit, antipode, reassociator.

The coproduct is the algebra map with

    D(k) = k (x) k,  D(khat) = khat (x) khat,
    D(E) = E (x) flat^-1 + k^-1 (x) 1_0 E + 1 (x) (1 - 1_0) E,
    D(F) = F (x) flat   + k^-1 khat (x) F (1 - 1_0) + khat (x) F 1_0,

with flat = sum_i q^-i 1_i over the k-eigenprojectors 1_i.  It is
coassociative only up to conjugation by the reassociator

    Phi = sum_{i,j,k} qbar^(-i * floor((j+k)/n)) 1_i (x) 1_j (x) 1_k,

which satisfies the pentagon identity.  The antipode triple is
(S, alpha, beta) with alpha = k, beta = 1, S(k) = k^-1, S(khat) = khat^-1,

    S(E) = -(k (1 - 1_0) E + k^2 1_0 E) flat k^-1,
    S(F) = -(k^2 khat^-1 F (1 - 1_0) + k khat^-1 F 1_0) flat^-1 k^-1,

extended as an algebra anti-homomorphism.

`TensorElement`, an element of u^(x m), is a `cyclo.Combination` whose
basis product is `mono_mul` leg by leg: the exponents e of the legs'
structure constants (key, e, v) add as ints and their factors v
concatenate, so no Scalar is built inside a product, and
`FieldContext.combination_product` normalizes each output term once.  Its
sums prune through `_add_into`, and the linear maps (coproduct, antipode,
reassociator) accumulate through `_axpy`.  The coproduct zigzags group the
terms of D(x) by leg and form one product per distinct key of the other
leg; the reassociator zigzags put each coefficient into a one-term factor.

Quasi-coassociativity is decided with no product by Phi: Phi is diagonal
on the k-eigenmodes of each <k>-orbit of PBW keys (`k_orbits`), so
`commutes_with_phi` compares the two sides mode by mode, each mode turned
by the unit Phi puts on it (`FieldContext.qbar_modes`).  That unit and the
coefficients of Phi come from one exponent, `_phi_exponent`.

The counit, quasi-coassociativity and coproduct zigzag identities are
checked on the generators k, khat, E and F (the counit and zigzags also on
1).  Each identity is closed under products once D is an algebra map and S
an anti-algebra map, so it holds on all of u; the premises are that D and S
respect the defining relations (checked before the identities) and that
`_build_delta` and `_build_antipode` extend them multiplicatively along the
PBW basis.  The verifiers' docstrings carry the induction.

The height grading of the coproduct is decided on k, khat, E and F too:
D is an algebra map and the product of u is graded, so D(F^a g E^d) has
height d - a once the generators' coproducts have their heights
(`verify_grading` carries the argument).  Phi is built from its two
exponent rows (`_build_phi`), and the pentagon is checked once, as the
tensor identity, which holds exactly when phi is a cocycle.
"""

from __future__ import annotations

import functools
import itertools
import operator

from .cyclo import Combination, Scalar, _add_into, _axpy
from .errors import ContextMismatchError, InvalidArgumentError
from .qgroup import AlgebraContext, AlgebraElement, MonKey, _group_mul
from .report import CheckReport, Counterexamples, verifier

UNIT_KEY: MonKey = (0, 0, 0, 0)
# k, khat, E and F, in the order the counit, coassociativity, zigzag and
# grading checks read them
GENERATOR_KEYS: tuple[MonKey, ...] = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0))


def _height(key: MonKey) -> int:
    """The height d - a of F^a g E^d, the grading the coproduct keeps."""
    return key[3] - key[0]


def _phi_exponent(n: int, i: int, j: int, k: int) -> int:
    """e with qbar^e the coefficient of 1_i (x) 1_j (x) 1_k in Phi."""
    return (-i * ((j + k) // n)) % n


def k_orbits(actx: AlgebraContext) -> dict[tuple[int, int], tuple[int, int]]:
    """(eps, c) -> (c0, t) with k^eps khat^c = k^t khat^c0 and 0 <= c0, t < n:
    the coset of a grouplike under <k> and its place in it.  k^2 = khat^-n
    keeps c mod n, so c0 = c mod n."""

    def build() -> dict[tuple[int, int], tuple[int, int]]:
        n = actx.n
        split = {}
        for c0 in range(n):
            g = (0, c0)
            for t in range(n):
                split[g] = (c0, t)
                g = _group_mul(n, 1, 0, *g)
        return split

    return actx.cached(("k_orbits",), build)


class TensorElement(Combination):
    """Sparse element of u^(x m), keyed by m-tuples of PBW monomial keys."""

    __slots__ = ("ctx", "legs")

    def __init__(self, ctx: AlgebraContext, legs: int, terms: dict[tuple, Scalar]):
        self.ctx = ctx
        self.legs = legs
        self.terms = terms

    def _mismatch(self, other: "TensorElement") -> Exception | None:
        if self.ctx is not other.ctx:
            return ContextMismatchError("tensor elements from different contexts")
        if self.legs != other.legs:
            return InvalidArgumentError("tensor elements with different leg counts")
        return None

    def _field(self):
        return self.ctx.field

    def _basis_product(self):
        """Leg by leg: the monomial products of the m legs, tensored.  The
        exponents e of the legs' constants (key, e, v) add as ints and
        their factors v concatenate, so no Scalar is built."""
        mono_mul = self.ctx.mono_mul

        def product(key1: tuple, key2: tuple) -> list:
            parts = [mono_mul(k1, k2) for k1, k2 in zip(key1, key2)]
            out = [((key,), e, v) for key, e, v in parts[0]]
            for part in parts[1:]:
                out = [(keys + (key,), e + f, v + w) for keys, e, v in out for key, f, w in part]
            return out

        return product

    def insert_unit_leg(self, position: int) -> "TensorElement":
        """The image under u^(x m) -> u^(x m+1) inserting 1 at position."""
        out = {
            key[:position] + (UNIT_KEY,) + key[position:]: s
            for key, s in self.terms.items()
        }
        return TensorElement(self.ctx, self.legs + 1, out)

    def __repr__(self) -> str:
        return f"TensorElement(legs={self.legs}, terms={len(self.terms)})"


def tensor_of(*factors: AlgebraElement) -> TensorElement:
    """The tensor product of algebra elements, one per leg."""
    ctx = factors[0].ctx
    terms: dict[tuple, Scalar] = {(): ctx.field.one}
    for fac in factors:
        if fac.ctx is not ctx:
            raise ContextMismatchError("tensor factors from different contexts")
        terms = {key + (mk,): s * t for key, s in terms.items() for mk, t in fac.terms.items()}
    return TensorElement(ctx, len(factors), terms)


def unit_tensor(ctx: AlgebraContext, legs: int) -> TensorElement:
    return TensorElement(ctx, legs, {(UNIT_KEY,) * legs: ctx.field.one})


class QuasiHopfData:
    """Coproduct, counit, antipode, and reassociator over one algebra context."""

    def __init__(self, actx: AlgebraContext):
        self.actx = actx
        upper = actx.one_elem - actx.idempotent_1(0)  # sum of 1_i for i >= 1
        low = actx.idempotent_1(0)
        self.delta_E = (
            tensor_of(actx.E, actx.flat_inv())
            + tensor_of(actx.kinv, low * actx.E)
            + tensor_of(actx.one_elem, upper * actx.E)
        )
        self.delta_F = (
            tensor_of(actx.F, actx.flat())
            + tensor_of(actx.kinv_khat, actx.F * upper)
            + tensor_of(actx.khat, actx.F * low)
        )
        ksq = actx.k * actx.k
        self.S_E = -(
            (actx.k * upper * actx.E + ksq * low * actx.E) * actx.flat() * actx.kinv
        )
        self.S_F = -(
            (ksq * actx.khat_inv * actx.F * upper + actx.k * actx.khat_inv * actx.F * low)
            * actx.flat_inv()
            * actx.kinv
        )
        self.alpha_elem = actx.k
        self.beta_elem = actx.one_elem
        # powers X^0, X^1, ...; X^1 is X itself, so no power is 1 * X
        self._dE_pows: list[TensorElement] = [unit_tensor(actx, 2), self.delta_E]
        self._dF_pows: list[TensorElement] = [unit_tensor(actx, 2), self.delta_F]
        self._sE_pows: list[AlgebraElement] = [actx.one_elem, self.S_E]
        self._sF_pows: list[AlgebraElement] = [actx.one_elem, self.S_F]

    # -- structure maps ------------------------------------------------------

    def _power(self, pows: list, base, t: int):
        while len(pows) <= t:
            pows.append(pows[-1] * base)
        return pows[t]

    def delta_mono(self, key: MonKey) -> TensorElement:
        return self.actx.cached(("delta_mono", key), lambda: self._build_delta(key))

    def _build_delta(self, key: MonKey) -> TensorElement:
        """D(F^a g E^d) = D(F)^a (g (x) g) D(E)^d, with no factor D(F)^0,
        D(1) or D(E)^0 unless it is the whole product."""
        a, eps, c, d = key
        gk = (0, eps, c, 0)
        dg = TensorElement(self.actx, 2, {(gk, gk): self.actx.field.one})
        factors = [self._power(self._dF_pows, self.delta_F, a)] if a else []
        if eps or c or not (a or d):
            factors.append(dg)
        if d:
            factors.append(self._power(self._dE_pows, self.delta_E, d))
        return functools.reduce(operator.mul, factors)

    def delta(self, x: AlgebraElement) -> TensorElement:
        acc: dict[tuple, Scalar] = {}
        for key, s in x.terms.items():
            _axpy(acc, self.delta_mono(key).terms, s)
        return TensorElement(self.actx, 2, acc)

    def counit(self, x: AlgebraElement) -> Scalar:
        f = self.actx.field
        out = f.zero
        for (a, _, _, d), s in x.terms.items():
            if a == 0 and d == 0:
                out = out + s
        return out

    def antipode_mono(self, key: MonKey) -> AlgebraElement:
        return self.actx.cached(("antipode_mono", key), lambda: self._build_antipode(key))

    def _build_antipode(self, key: MonKey) -> AlgebraElement:
        """S(F^a g E^d) = S(E)^d g^-1 S(F)^a, with no factor S(E)^0, 1 or
        S(F)^0 unless it is the whole product."""
        a, eps, c, d = key
        factors = [self._power(self._sE_pows, self.S_E, d)] if d else []
        if eps or c or not (a or d):
            # (k^eps khat^c)^-1 = k^eps khat^(eps n - c), since k^-1 = k khat^n.
            factors.append(self.actx.group_elem(eps, eps * self.actx.n - c))
        if a:
            factors.append(self._power(self._sF_pows, self.S_F, a))
        return functools.reduce(operator.mul, factors)

    def antipode(self, x: AlgebraElement) -> AlgebraElement:
        acc: dict[MonKey, Scalar] = {}
        for key, s in x.terms.items():
            _axpy(acc, self.antipode_mono(key).terms, s)
        return AlgebraElement(self.actx, acc)

    def phi(self) -> TensorElement:
        return self.actx.cached(("phi",), lambda: self._build_phi(+1))

    def phi_inv(self) -> TensorElement:
        return self.actx.cached(("phi_inv",), lambda: self._build_phi(-1))

    def _build_phi(self, sign: int) -> TensorElement:
        """Phi for sign +1, its inverse for sign -1, from its exponent rows.

        Phi^sign = sum_(i,j,k) qbar^(sign phi(i, j, k)) 1_i (x) 1_j (x) 1_k,
        and the tensor product is linear in each leg, so the triples that
        share the row i -> phi(i, j, k) share the left leg
        L = sum_i qbar^(sign phi(i, j, k)) 1_i:

            Phi^sign = sum over rows, sum over j of L (x) 1_j (x) sum_k 1_k,

        k running over the (j, k) of that row.  phi(i, j, k) =
        -i floor((j + k)/n) has two rows, split by whether j + k < n, with
        L = 1 and L = k^-sign, so Phi^sign is 2n - 1 products of at most
        n^2 terms each, 1 (x) 1 (x) 1 + (k^-sign - 1) (x) sum_(j+k>=n)
        1_j (x) 1_k, where a sum over the triples forms n^3 products of n^3
        terms that cancel down to it.  The rows are read off
        `_phi_exponent`, so it stays the one source of Phi's coefficients.
        """
        actx = self.actx
        f = actx.field
        n = actx.n
        ones = [actx.idempotent_1(i) for i in range(n)]
        rows: dict[tuple[int, ...], dict[int, list[int]]] = {}
        for j in range(n):
            for k in range(n):
                row = tuple(_phi_exponent(n, i, j, k) for i in range(n))
                rows.setdefault(row, {}).setdefault(j, []).append(k)
        acc: dict[tuple, Scalar] = {}
        for row, by_j in rows.items():
            left = functools.reduce(
                operator.add, (one.scale(f.qbarpow(sign * e)) for one, e in zip(ones, row))
            )
            for j, ks in by_j.items():
                right = functools.reduce(operator.add, (ones[k] for k in ks))
                for key, s in tensor_of(left, ones[j], right).terms.items():
                    _add_into(acc, key, s)
        return TensorElement(actx, 3, acc)

    # -- leg maps ------------------------------------------------------------

    def delta_on_leg(self, tens: TensorElement, leg: int) -> TensorElement:
        acc: dict[tuple, Scalar] = {}
        for key, s in tens.terms.items():
            for (ka, kb), t in self.delta_mono(key[leg]).terms.items():
                _add_into(acc, key[:leg] + (ka, kb) + key[leg + 1:], s * t)
        return TensorElement(self.actx, tens.legs + 1, acc)

    def counit_on_leg(self, tens: TensorElement, leg: int) -> TensorElement:
        acc: dict[tuple, Scalar] = {}
        for key, s in tens.terms.items():
            a, _, _, d = key[leg]
            if a or d:
                continue
            _add_into(acc, key[:leg] + key[leg + 1:], s)
        return TensorElement(self.actx, tens.legs - 1, acc)

    # -- zigzags ---------------------------------------------------------------

    def zigzags(self, x: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
        """(sum S(x_(1)) alpha x_(2), sum x_(1) beta S(x_(2))) over the
        coproduct terms of x, from one walk over D(x).  Both are linear in
        each leg, so the terms of D(x) are grouped by leg: one product
        (S(k_a) alpha) (sum s k_b) per distinct left key k_a, and one
        (sum s k_a) beta S(k_b) per distinct right key k_b."""
        actx = self.actx
        by_left: dict[MonKey, dict[MonKey, Scalar]] = {}
        by_right: dict[MonKey, dict[MonKey, Scalar]] = {}
        for (ka, kb), s in self.delta(x).terms.items():
            by_left.setdefault(ka, {})[kb] = s
            by_right.setdefault(kb, {})[ka] = s
        left: dict[MonKey, Scalar] = {}
        right: dict[MonKey, Scalar] = {}
        for ka, terms in by_left.items():
            piece = self.antipode_mono(ka) * self.alpha_elem * AlgebraElement(actx, terms)
            for key, v in piece.terms.items():
                _add_into(left, key, v)
        for kb, terms in by_right.items():
            piece = AlgebraElement(actx, terms) * self.beta_elem * self.antipode_mono(kb)
            for key, v in piece.terms.items():
                _add_into(right, key, v)
        return AlgebraElement(actx, left), AlgebraElement(actx, right)

    # -- verification ------------------------------------------------------------

    @verifier("coproduct respects the defining relations")
    def verify_delta_well_defined(self) -> Counterexamples:
        """The coproduct respects every defining relation of the algebra."""
        actx = self.actx
        f = actx.field
        unit2 = unit_tensor(actx, 2)
        dK = self.delta_mono((0, 1, 0, 0))
        dKh = self.delta_mono((0, 0, 1, 0))
        dE, dF = self.delta_E, self.delta_F
        dKK = self.delta_mono(next(iter(actx.kinv_khat.terms)))
        dEn = self._power(self._dE_pows, dE, actx.N)
        dFn = self._power(self._dF_pows, dF, actx.N)
        dKn = unit2
        for _ in range(actx.n):
            dKn = dKn * dK
        dKhn = unit2
        for _ in range(actx.n):
            dKhn = dKhn * dKh
        checks = [
            ("k^n = 1", dKn == unit2),
            ("khat^n k^2 = 1", dKhn * dK * dK == unit2),
            ("k khat = khat k", dK * dKh == dKh * dK),
            ("k E = qbar E k", dK * dE == (dE * dK).scale(f.qbar)),
            ("k F = qbar^-1 F k", dK * dF == (dF * dK).scale(f.qbarpow(-1))),
            ("khat E = qbar q^-2 E khat", dKh * dE == (dE * dKh).scale(f.qbar * f.qpow(-2))),
            ("khat F = qbar^-1 q^2 F khat", dKh * dF == (dF * dKh).scale(f.qbarpow(-1) * f.qpow(2))),
            ("E^(n^2) = 0", dEn.is_zero()),
            ("F^(n^2) = 0", dFn.is_zero()),
            (
                "F E - q^-1 E F = 1 - k^-1 khat",
                dF * dE - (dE * dF).scale(f.qpow(-1)) == unit2 - dKK,
            ),
        ]
        for name, ok in checks:
            yield None if ok else name

    @verifier("counit axioms for the coproduct")
    def verify_counit(self) -> Counterexamples:
        """(eps (x) id) D = id = (id (x) eps) D on 1, k, khat, E and F, and
        eps kills each leg of the reassociator.

        That decides the first two identities on all of u.  The counit reads
        the a = d = 0 part of F^a g E^d, so it is the algebra map with
        eps(E) = eps(F) = 0 and eps(g) = 1 (the relations hold: each side of
        F E - q^-1 E F = 1 - k^-1 khat goes to 0).  D is an algebra map: it
        respects the defining relations (`verify_delta_well_defined`, which
        `axiom_reports` runs first), and `_build_delta` forms D(F^a g E^d)
        as the product D(F)^a D(g) D(E)^d of its values on the generators.
        So (eps (x) id) D and (id (x) eps) D are algebra maps u -> u, and
        each equals the identity on all of u once it does on generators.
        """
        actx = self.actx
        for key in (UNIT_KEY, *GENERATOR_KEYS):
            dm = self.delta_mono(key)
            left = self.counit_on_leg(dm, 0)
            right = self.counit_on_leg(dm, 1)
            expect = TensorElement(actx, 1, {(key,): actx.field.one})
            yield None if left == expect and right == expect else f"monomial {key}"
        phi = self.phi()
        unit2 = unit_tensor(actx, 2)
        for leg in (0, 1, 2):
            ok = self.counit_on_leg(phi, leg) == unit2
            yield None if ok else f"counit on reassociator leg {leg}"

    def _phi_twist(self, a: tuple[int, ...]) -> list[int]:
        """phi(J - a) for J in Z_n^3, row-major: the exponent of the unit by
        which Phi acts on mode J of an orbit whose legs have F-exponents a
        (Phi on the left) or E-exponents a (Phi on the right)."""
        n = self.actx.n
        a = tuple(x % n for x in a)
        return self.actx.cached(("phi_twist", a), lambda: [
            _phi_exponent(n, *((j - x) % n for j, x in zip(J, a)))
            for J in itertools.product(range(n), repeat=3)
        ])

    def _by_k_orbit(self, tens: TensorElement) -> dict[tuple, dict[tuple, Scalar]]:
        """The terms of tens by <k>-orbit: the skeleton ((a, c0, d) per
        leg) maps to {(t per leg): coefficient}."""
        split = k_orbits(self.actx)
        out: dict[tuple, dict[tuple, Scalar]] = {}
        for key, s in tens.terms.items():
            legs = [(a, d) + split[eps, c] for a, eps, c, d in key]
            skeleton = tuple((a, c0, d) for a, d, c0, _ in legs)
            out.setdefault(skeleton, {})[tuple(leg[3] for leg in legs)] = s
        return out

    def commutes_with_phi(self, lhs: TensorElement, rhs: TensorElement) -> bool:
        """Phi lhs == rhs Phi in u^(x 3), decided mode by mode with no
        product by Phi; `verify_quasi_coassociativity` gives the argument."""
        f = self.actx.field
        left, right = self._by_k_orbit(lhs), self._by_k_orbit(rhs)
        for skeleton in left.keys() | right.keys():
            lhat = f.qbar_modes(
                left.get(skeleton, {}), self._phi_twist(tuple(leg[0] for leg in skeleton))
            )
            rhat = f.qbar_modes(
                right.get(skeleton, {}), self._phi_twist(tuple(leg[2] for leg in skeleton))
            )
            if lhat != rhat:
                return False
        return True

    @verifier("coproduct is coassociative up to the reassociator")
    def verify_quasi_coassociativity(self) -> Counterexamples:
        """Phi (D (x) id)(D(x)) = (id (x) D)(D(x)) Phi on k, khat, E and F,
        decided mode by mode by `commutes_with_phi`.

        That decides the identity on all of u.  D is an algebra map (see
        `verify_counit` for its premises), so L = (D (x) id) D and
        R = (id (x) D) D are algebra maps u -> u^(x 3), and the x with
        Phi L(x) = R(x) Phi form a subalgebra: it holds 1, is a subspace,
        and Phi L(xy) = Phi L(x) L(y) = R(x) Phi L(y) = R(x) R(y) Phi =
        R(xy) Phi.  A subalgebra that holds the generators is u.

        Left or right multiplication by k^T, T in Z_n^3 one power per leg,
        maps a PBW key F^a k^t khat^c0 E^d (per leg, with t and c0 from
        `k_orbits`) to the key at t + T, times the unit qbar^(-T.a) on the
        left and qbar^(-T.d) on the right, since g F = q^-w F g and
        E g = q^-w g E with w(k) = n.  So the keys of one skeleton
        (a, c0, d) per leg form one <k>-orbit, indexed by t in Z_n^3, and
        products by k-grouplikes, by the 1_i and by Phi keep each orbit.
        On the orbit's modes Y(J) = sum_t qbar^(J.t) y(t), J in Z_n^3, k^T
        acts by qbar^(T.(J - a)) from the left and by qbar^(T.(J - d)) from
        the right.  1_i is the qbar^i-eigenprojector of k, so 1_I keeps the
        mode J when I = J - a on the left (J - d on the right) and kills it
        otherwise, and Phi = sum_I qbar^phi(I) 1_I acts on mode J by the
        unit qbar^phi(J - a) from the left and qbar^phi(J - d) from the
        right, phi being `_phi_exponent`, which also builds the Phi that
        the counit, pentagon and antipode checks verify.  Hence Phi L = R Phi
        exactly when qbar^phi(J - a) L(J) = qbar^phi(J - d) R(J) for every
        orbit and every J.  qbar is a primitive n-th root of unity, so the
        transform over Z_n^3 is invertible over Q(zeta) (its inverse is
        n^-3 times the transform at -J), and comparing the modes is
        equivalent to comparing the two products, not weaker; an orbit on
        one side only is compared with zero modes.  The modes are
        `FieldContext.qbar_modes`, shifts and adds of integers.
        """
        for key in GENERATOR_KEYS:
            x = AlgebraElement(self.actx, {key: self.actx.field.one})
            dx = self.delta(x)
            ok = self.commutes_with_phi(self.delta_on_leg(dx, 0), self.delta_on_leg(dx, 1))
            yield None if ok else repr(x)

    @verifier("reassociator satisfies the pentagon identity")
    def verify_pentagon(self) -> Counterexamples:
        """The pentagon identity in u^(x 4), then Phi Phi^-1 = 1 = Phi^-1 Phi.

        The identity is checked once, as a tensor identity:

            (id (x) id (x) D)(Phi) (D (x) id (x) id)(Phi)
                = (1 (x) Phi) (id (x) D (x) id)(Phi) (Phi (x) 1).

        It holds exactly when phi = `_phi_exponent` is a 3-cocycle on Z_n,
        so a separate scalar check of the cocycle would decide nothing
        more.  D(k) = k (x) k and 1_i is the qbar^i-eigenprojector of k, so
        D(1_i) = sum_(a+b=i mod n) 1_a (x) 1_b.  With 1_I = 1_i1 (x) ... (x)
        1_i4, each factor above is sum_I qbar^e(I) 1_I for an exponent e
        built from phi, and the 1_I are orthogonal idempotents, so the left
        side is sum_I qbar^(phi(i1, i2, i3+i4) + phi(i1+i2, i3, i4)) 1_I and
        the right side sum_I qbar^(phi(i2, i3, i4) + phi(i1, i2+i3, i4) +
        phi(i1, i2, i3)) 1_I.  The 1_I are nonzero orthogonal idempotents,
        hence linearly independent, and qbar has order n: the two sides are
        equal exactly when the exponents agree mod n at every I in Z_n^4.
        """
        actx = self.actx
        phi = self.phi()
        lhs = self.delta_on_leg(phi, 2) * self.delta_on_leg(phi, 0)
        rhs = (
            phi.insert_unit_leg(0)
            * self.delta_on_leg(phi, 1)
            * phi.insert_unit_leg(3)
        )
        yield None if lhs == rhs else "tensor product identity"
        phiinv = self.phi_inv()
        unit3 = unit_tensor(actx, 3)
        yield None if phi * phiinv == unit3 and phiinv * phi == unit3 else "reassociator inverse"

    @verifier("antipode axioms")
    def verify_antipode(self) -> Counterexamples:
        """Anti-homomorphism relations plus all four zigzag identities.

        The coproduct zigzags are checked on 1, k, khat, E and F, which
        decides them on all of u.  S is an anti-algebra map: it respects
        the defining relations read in reverse (the nine checks below, run
        before the zigzags), and `_build_antipode` forms S(F^a g E^d) as
        S(E)^d S(g) S(F)^a.  D is an algebra map (see `verify_counit`).  So
        if the left zigzag holds on x and y, then

            sum S((xy)_(1)) alpha (xy)_(2)
                = sum S(y_(1)) [sum S(x_(1)) alpha x_(2)] y_(2)
                = eps(x) sum S(y_(1)) alpha y_(2) = eps(x) eps(y) alpha,

        and it holds on xy; it is linear in x and holds on 1.  The right
        zigzag sum (xy)_(1) beta S((xy)_(2)) = sum x_(1) [sum y_(1) beta
        S(y_(2))] S(x_(2)) follows the same way.  The reassociator zigzags
        are identities of two fixed elements and are checked as such.
        """
        actx = self.actx
        f = actx.field
        one = actx.one_elem
        SE, SF = self.S_E, self.S_F
        k, kinv = actx.k, actx.kinv
        kh, khinv = actx.khat, actx.khat_inv
        checks = [
            ("S(k)^n = 1", kinv ** actx.n == one),
            ("S(khat)^n = k^2", khinv ** actx.n == k * k),
            ("k S(E) k^-1 = qbar S(E)", k * SE * kinv == SE.scale(f.qbar)),
            ("k S(F) k^-1 = qbar^-1 S(F)", k * SF * kinv == SF.scale(f.qbarpow(-1))),
            (
                "khat S(E) khat^-1 = qbar q^-2 S(E)",
                kh * SE * khinv == SE.scale(f.qbar * f.qpow(-2)),
            ),
            (
                "khat S(F) khat^-1 = qbar^-1 q^2 S(F)",
                kh * SF * khinv == SF.scale(f.qbarpow(-1) * f.qpow(2)),
            ),
            ("S(E)^(n^2) = 0", (self._power(self._sE_pows, SE, actx.N)).is_zero()),
            ("S(F)^(n^2) = 0", (self._power(self._sF_pows, SF, actx.N)).is_zero()),
            (
                "S(E) S(F) - q^-1 S(F) S(E) = 1 - S(khat) S(k^-1)",
                SE * SF - (SF * SE).scale(f.qpow(-1)) == one - khinv * k,
            ),
        ]
        for name, ok in checks:
            yield None if ok else name
        # Zigzags on the unit and the generators decide them on all of u.
        for key in (UNIT_KEY, *GENERATOR_KEYS):
            x = AlgebraElement(actx, {key: f.one})
            eps_x = self.counit(x)
            left, right = self.zigzags(x)
            ok = left == self.alpha_elem.scale(eps_x)
            yield None if ok else f"left zigzag at monomial {key}"
            ok = right == self.beta_elem.scale(eps_x)
            yield None if ok else f"right zigzag at monomial {key}"
        # Reassociator zigzags.
        acc: dict[MonKey, Scalar] = {}
        for (k1, k2, k3), s in self.phi().terms.items():
            piece = (
                AlgebraElement(actx, {k1: s})
                * self.beta_elem
                * self.antipode_mono(k2)
                * self.alpha_elem
                * AlgebraElement(actx, {k3: f.one})
            )
            for key, v in piece.terms.items():
                _add_into(acc, key, v)
        yield None if AlgebraElement(actx, acc) == one else "reassociator zigzag"
        acc = {}
        for (k1, k2, k3), s in self.phi_inv().terms.items():
            piece = (
                self.antipode_mono(k1)
                * self.alpha_elem
                * AlgebraElement(actx, {k2: s})
                * self.beta_elem
                * self.antipode_mono(k3)
            )
            for key, v in piece.terms.items():
                _add_into(acc, key, v)
        yield None if AlgebraElement(actx, acc) == one else "inverse reassociator zigzag"

    @verifier("coproduct preserves the height grading")
    def verify_grading(self) -> Counterexamples:
        """Every term of D(x) has height h(x) for x = k, khat, E and F,
        that is 0, 0, 1 and -1, the height of F^a g E^d being d - a.

        That decides the grading on all of u: every term of D(F^a g E^d)
        has total height d - a.  D is an algebra map (see `verify_counit`
        for its premises), and `_build_delta` forms D(F^a g E^d) as
        D(F)^a D(g) D(E)^d with D(g) = g (x) g, of height 0.  The product
        of u is graded: `mono_mul` puts the key (a1 + a', ., ., d' + d2)
        into F^a1 g1 E^d1 * F^a2 g2 E^d2 for each term (a', ., ., d') of
        `ef(d1, a2)`, the normal form of E^d1 F^a2, and drops the keys with
        an exponent past n^2 - 1.  Each branch of the `ef` recurrence keeps
        d' - a' = d - a: the base case (d = 0 or a = 0) is E^d F^a itself;
        the d = 1 branch is E F^a = q F (E F^(a-1)) + q^(2a-1) F^(a-1)
        k^-1 khat - q F^(a-1), whose terms have height 1 - a by induction
        on a; the d >= 2 branch multiplies E into each term F^a1 g E^d1 of
        E^(d-1) F^a through `ef(1, a1)`, which adds the heights 1 - a1 and
        d1.  So h(out) = (d' - a') + d2 - a1 = h(k1) + h(k2) for every
        key of a product of monomials, leg by leg in u (x) u, and since
        cancellation only removes keys, a product of homogeneous elements
        of u (x) u is homogeneous of the summed height.  Hence D(F^a g E^d)
        is homogeneous of height -a + 0 + d, and D respects the grading on
        all of u by linearity.  The premise on `ef` is argued here and not
        run: a pass over every `ef` table costs more than the rest of the
        axiom suite.  A Tier-1 test runs it at n = 4.
        """
        for key in GENERATOR_KEYS:
            h = _height(key)
            splits = [
                (ka, kb) for (ka, kb) in self.delta_mono(key).terms
                if _height(ka) + _height(kb) != h
            ]
            yield f"monomial {key} split {splits[0]}" if splits else None


def axiom_reports(qh: QuasiHopfData) -> list[CheckReport]:
    """All quasi-Hopf verifications, in a deterministic order."""
    return [
        qh.verify_delta_well_defined(),
        qh.verify_counit(),
        qh.verify_quasi_coassociativity(),
        qh.verify_pentagon(),
        qh.verify_antipode(),
        qh.verify_grading(),
    ]
