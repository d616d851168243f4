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
reassociator) accumulate through `_axpy`.  The zigzags put each coproduct
or reassociator coefficient into a one-term factor of their product, where
the kernel groups it with equal values, and add the product's terms as they
are.
"""

from __future__ import annotations

import random

from .cyclo import Combination, Scalar, _add_into, _axpy
from .errors import ContextMismatchError, InvalidArgumentError
from .qgroup import AlgebraContext, AlgebraElement, MonKey
from .report import CheckReport, Counterexamples, verifier

UNIT_KEY: MonKey = (0, 0, 0, 0)


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
        f = actx.field
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
        self._dE_pows: list[TensorElement] = [unit_tensor(actx, 2)]
        self._dF_pows: list[TensorElement] = [unit_tensor(actx, 2)]
        self._sE_pows: list[AlgebraElement] = [actx.one_elem]
        self._sF_pows: list[AlgebraElement] = [actx.one_elem]

    # -- structure maps ------------------------------------------------------

    def _power(self, pows: list, base, t: int):
        while len(pows) <= t:
            pows.append(pows[-1] * base)
        return pows[t]

    def delta_mono(self, key: MonKey) -> TensorElement:
        return self.actx.cached(("delta_mono", key), lambda: self._build_delta(key))

    def _build_delta(self, key: MonKey) -> TensorElement:
        """D(F^a g E^d) = D(F)^a (g (x) g) D(E)^d."""
        a, eps, c, d = key
        gk = (0, eps, c, 0)
        dg = TensorElement(self.actx, 2, {(gk, gk): self.actx.field.one})
        if a == 0 and d == 0:
            return dg
        out = self._power(self._dF_pows, self.delta_F, a)
        if eps or c:
            out = out * dg
        if d:
            out = out * self._power(self._dE_pows, self.delta_E, d)
        return out

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
        """S(F^a g E^d) = S(E)^d g^-1 S(F)^a."""
        a, eps, c, d = key
        # (k^eps khat^c)^-1 = k^eps khat^(eps n - c), since k^-1 = k khat^n.
        ginv = self.actx.group_elem(eps, eps * self.actx.n - c)
        out = self._power(self._sE_pows, self.S_E, d) * ginv
        if a:
            out = out * self._power(self._sF_pows, self.S_F, a)
        return out

    def antipode(self, x: AlgebraElement) -> AlgebraElement:
        acc: dict[MonKey, Scalar] = {}
        for key, s in x.terms.items():
            _axpy(acc, self.antipode_mono(key).terms, s)
        return AlgebraElement(self.actx, acc)

    def phi(self) -> TensorElement:
        return self.actx.cached(("phi",), lambda: self._build_phi(-1))

    def phi_inv(self) -> TensorElement:
        return self.actx.cached(("phi_inv",), lambda: self._build_phi(+1))

    def _build_phi(self, sign: int) -> TensorElement:
        actx = self.actx
        f = actx.field
        n = actx.n
        acc: dict[tuple, Scalar] = {}
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    coeff = f.qbarpow(sign * i * ((j + k) // n))
                    piece = tensor_of(
                        actx.idempotent_1(i), actx.idempotent_1(j), actx.idempotent_1(k)
                    )
                    _axpy(acc, piece.terms, coeff)
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
        coproduct terms of x, from one walk over D(x)."""
        actx = self.actx
        left: dict[MonKey, Scalar] = {}
        right: dict[MonKey, Scalar] = {}
        for (ka, kb), s in self.delta(x).terms.items():
            xa = AlgebraElement(actx, {ka: s})
            xb = AlgebraElement(actx, {kb: s})
            for key, v in (self.antipode_mono(ka) * self.alpha_elem * xb).terms.items():
                _add_into(left, key, v)
            for key, v in (xa * self.beta_elem * self.antipode_mono(kb)).terms.items():
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

    def _sample_monomials(self, rng: random.Random, count: int, max_exp: int) -> list[MonKey]:
        out = []
        for _ in range(count):
            out.append(
                (
                    rng.randrange(max_exp + 1),
                    rng.randrange(2),
                    rng.randrange(self.actx.half),
                    rng.randrange(max_exp + 1),
                )
            )
        return out

    @verifier("counit axioms for the coproduct")
    def verify_counit(self, seed: int = 0) -> Counterexamples:
        """(eps (x) id) D = id = (id (x) eps) D, and eps kills one reassociator leg."""
        actx = self.actx
        rng = random.Random(seed)
        keys: list[MonKey] = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1)]
        for eps in (0, 1):
            for c in range(actx.half):
                keys.append((0, eps, c, 0))
        for a in range(3):
            for d in range(3):
                keys.append((a, 1, 3, d))
        keys += self._sample_monomials(rng, 6, 4)
        for key in keys:
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

    @verifier("coproduct is coassociative up to the reassociator")
    def verify_quasi_coassociativity(self, seed: int = 0) -> Counterexamples:
        """Phi (D (x) id)(D(x)) = (id (x) D)(D(x)) Phi on generators and samples."""
        actx = self.actx
        rng = random.Random(seed)
        phi = self.phi()
        elems: list[AlgebraElement] = [actx.k, actx.khat, actx.E, actx.F]
        elems.append(actx.idempotent_e(2, 1))
        elems.append(actx.flat())
        for key in self._sample_monomials(rng, 4, 3):
            elems.append(AlgebraElement(actx, {key: actx.field.one}))
        for x in elems:
            dx = self.delta(x)
            lhs = phi * self.delta_on_leg(dx, 0)
            rhs = self.delta_on_leg(dx, 1) * phi
            yield None if lhs == rhs else repr(x)

    @verifier("reassociator satisfies the pentagon identity")
    def verify_pentagon(self) -> Counterexamples:
        """Pentagon identity, both as a tensor identity and as a scalar cocycle."""
        actx = self.actx
        n = actx.n
        phi = self.phi()
        lhs = self.delta_on_leg(phi, 2) * self.delta_on_leg(phi, 0)
        rhs = (
            phi.insert_unit_leg(0)
            * self.delta_on_leg(phi, 1)
            * phi.insert_unit_leg(3)
        )
        yield None if lhs == rhs else "tensor product identity"

        def coc(i: int, j: int, k: int) -> int:
            return (-i * ((j + k) // n)) % n

        for i1 in range(n):
            for i2 in range(n):
                for i3 in range(n):
                    for i4 in range(n):
                        left = coc(i1, i2, (i3 + i4) % n) + coc((i1 + i2) % n, i3, i4)
                        right = coc(i2, i3, i4) + coc(i1, (i2 + i3) % n, i4) + coc(i1, i2, i3)
                        yield (
                            None if (left - right) % n == 0
                            else f"cocycle mismatch at {(i1, i2, i3, i4)}"
                        )
        phiinv = self.phi_inv()
        unit3 = unit_tensor(actx, 3)
        yield None if phi * phiinv == unit3 and phiinv * phi == unit3 else "reassociator inverse"

    @verifier("antipode axioms")
    def verify_antipode(self, seed: int = 0) -> Counterexamples:
        """Anti-homomorphism relations plus all four zigzag identities."""
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
        # Defining zigzags on a full small shell plus random samples.
        rng = random.Random(seed)
        keys: list[MonKey] = []
        for a in range(3):
            for d in range(3):
                for eps in (0, 1):
                    for c in range(actx.half):
                        keys.append((a, eps, c, d))
        keys += self._sample_monomials(rng, 4, 4)
        for key in keys:
            x = AlgebraElement(actx, {key: actx.field.one})
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
    def verify_grading(self, seed: int = 0) -> Counterexamples:
        """Coproduct terms split the height of the input across the two legs."""
        actx = self.actx
        rng = random.Random(seed)
        keys: list[MonKey] = []
        for a in range(4):
            for d in range(4):
                keys.append((a, 0, 1, d))
                keys.append((a, 1, 5 % actx.half, d))
        keys += self._sample_monomials(rng, 8, actx.N - 1)
        for key in keys:
            h = key[3] - key[0]
            splits = [
                (ka, kb) for (ka, kb) in self.delta_mono(key).terms
                if (ka[3] - ka[0]) + (kb[3] - kb[0]) != h
            ]
            yield f"monomial {key} split {splits[0]}" if splits else None


def axiom_reports(qh: QuasiHopfData, seed: int = 0) -> list[CheckReport]:
    """All quasi-Hopf verifications, in a deterministic order."""
    return [
        qh.verify_delta_well_defined(),
        qh.verify_counit(seed),
        qh.verify_quasi_coassociativity(seed),
        qh.verify_pentagon(),
        qh.verify_antipode(seed),
        qh.verify_grading(seed),
    ]
