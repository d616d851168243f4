"""The algebra u = u_q^s(sl2): PBW normal form, rewriting, idempotents.

Generators k, khat, E, F with
    k^n = 1,  khat^n = k^-2,  k khat = khat k,
    k E k^-1 = qbar E,          k F k^-1 = qbar^-1 F,
    khat E khat^-1 = qbar q^-2 E,  khat F khat^-1 = qbar^-1 q^2 F,
    E^(n^2) = F^(n^2) = 0,
    F E - q^-1 E F = 1 - k^-1 khat.

Normal form: F^a * k^eps * khat^c * E^d with 0 <= a,d < n^2, eps in {0,1},
0 <= c < n^2/2 (the group of grouplikes has order n^2, with khat of order
n^2/2 and k^2 = khat^-n).  A monomial key is the flat tuple (a, eps, c, d).

Multiplication reorders E past F with the memoized normal forms of
E^d * F^a, built from E*F = q*F*E + q*(k^-1 khat - 1), and moves group
elements with the conjugation weight w(g): g E = q^w(g) E g.
`AlgebraElement` is a `cyclo.Combination` whose basis product is
`AlgebraContext.mono_mul`; its sums prune through `_add_into`.  The
`_mono_cache` table holds the structure constants of u as (key, e, v), the
coefficient q^e * prod(v), with v empty for a signed power of q; they are
integral, and `FieldContext.combination_product` forms each product with
one normalization per output term.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction

from .cyclo import Combination, Scalar, _add_into, _axpy, make_context, qint, scalar_to_str
from .errors import (
    ConstructionError,
    ContextMismatchError,
    InvalidArgumentError,
)
from .report import Counterexamples, verifier

MonKey = tuple[int, int, int, int]  # (a, eps, c, d)


def _group_mul(n: int, e1: int, c1: int, e2: int, c2: int) -> tuple[int, int]:
    """(eps, c) of k^e1 khat^c1 * k^e2 khat^c2, with c modulo n^2/2."""
    e = e1 + e2
    # k^2 = khat^-n folds the carried k into the khat exponent.
    return e & 1, (c1 + c2 - n * (e >> 1)) % (n * n // 2)


class AlgebraElement(Combination):
    """Sparse Scalar combination of PBW monomials F^a k^eps khat^c E^d."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: "AlgebraContext", terms: dict[MonKey, Scalar]):
        self.ctx = ctx
        self.terms = terms

    def _mismatch(self, other: "AlgebraElement") -> Exception | None:
        if other.ctx is not self.ctx:
            return ContextMismatchError("algebra elements from different contexts")
        return None

    def _field(self):
        return self.ctx.field

    def _basis_product(self):
        return self.ctx.mono_mul

    def __pow__(self, t: int) -> "AlgebraElement":
        if t < 0:
            raise InvalidArgumentError("negative powers are not defined in u")
        acc = self.ctx.one_elem
        for _ in range(t):
            acc = acc * self
        return acc

    def coefficient(self, key: MonKey) -> Scalar:
        return self.terms.get(key, self.ctx.field.zero)

    def __repr__(self) -> str:
        if not self.terms:
            return "AlgebraElement(0)"
        bits = []
        for key in sorted(self.terms)[:6]:
            a, eps, c, d = key
            factors = []
            if a:
                factors.append(f"F^{a}" if a > 1 else "F")
            if eps:
                factors.append("k")
            if c:
                factors.append(f"khat^{c}" if c > 1 else "khat")
            if d:
                factors.append(f"E^{d}" if d > 1 else "E")
            mono = "*".join(factors) if factors else "1"
            bits.append(f"({scalar_to_str(self.terms[key])})*{mono}")
        more = "" if len(self.terms) <= 6 else f" + {len(self.terms) - 6} more"
        return "AlgebraElement(" + " + ".join(bits) + more + ")"


class AlgebraContext:
    """Structure tables for u at a fixed n: rewriting, idempotents, vectors.

    Memo state lives here.  The hot rewrite tables `_ef` and `_mono_cache`
    are plain dicts; every other lazily built value (idempotents, flat,
    alpha and gamma vectors, coproduct and antipode of monomials, the
    reassociator, moncat characters, k0ring products) sits in `memo` under
    a key (tag, *args), read and written only through `cached`.  A fresh
    context starts cold.
    """

    def __init__(self, n: int):
        self.field = make_context(n)
        self.n = n
        self.N = n * n
        self.half = self.N // 2
        self.dim = self.N ** 3

        f = self.field
        self.zero_elem = AlgebraElement(self, {})
        self.one_elem = AlgebraElement(self, {(0, 0, 0, 0): f.one})
        self.E = AlgebraElement(self, {(0, 0, 0, 1): f.one})
        self.F = AlgebraElement(self, {(1, 0, 0, 0): f.one})
        self.k = self.group_elem(1, 0)
        self.khat = self.group_elem(0, 1)
        self.kinv = self.group_elem(1, n)  # k^-1 = k * khat^n
        self.khat_inv = self.group_elem(0, self.half - 1)
        self.kinv_khat = self.group_elem(1, n + 1)
        self.k_khat_half = self.group_elem(1, n // 2)

        # E^d F^a normal forms, filled on demand.
        self._ef: dict[tuple[int, int], list[tuple[int, int, int, int, Scalar]]] = {}
        self._mono_cache: dict[tuple[MonKey, MonKey], tuple[tuple[MonKey, int, tuple], ...]] = {}
        self.memo: dict[tuple, object] = {}

    def cached(self, key: tuple, build: Callable[[], object]):
        """memo[key], set to build() on first use."""
        try:
            return self.memo[key]
        except KeyError:
            value = self.memo[key] = build()
            return value

    # -- constructors ----------------------------------------------------

    def group_elem(self, eps: int, c: int) -> AlgebraElement:
        return AlgebraElement(
            self, {(0, eps & 1, c % self.half, 0): self.field.one}
        )

    def monomial(self, a: int, eps: int, c: int, d: int, coeff: Scalar | None = None) -> AlgebraElement:
        if not (0 <= a < self.N and 0 <= d < self.N):
            raise InvalidArgumentError("E/F exponent out of range")
        if coeff is None:
            coeff = self.field.one
        if coeff.is_zero():
            return self.zero_elem
        return AlgebraElement(self, {(a, eps & 1, c % self.half, d): coeff})

    # -- rewriting core ----------------------------------------------------

    def _weight(self, eps: int, c: int) -> int:
        """w with g E = q^w E g and g F = q^-w F g for g = k^eps khat^c."""
        return (self.n * eps + (self.n - 2) * c) % self.N

    def ef(self, d: int, a: int) -> list[tuple[int, int, int, int, Scalar]]:
        """Normal form of E^d * F^a as [(a', eps, c, d', coeff)]."""
        key = (d, a)
        hit = self._ef.get(key)
        if hit is not None:
            return hit
        f = self.field
        n = self.n
        if d == 0 or a == 0:
            out = [(a, 0, 0, d, f.one)]
        elif d == 1:
            # E F^a = q F (E F^(a-1)) + q^(2a-1) F^(a-1) (k^-1 khat) - q F^(a-1)
            acc: dict[MonKey, Scalar] = {}
            for a1, e1, c1, d1, s in self.ef(1, a - 1):
                _add_into(acc, (a1 + 1, e1, c1, d1), f.q * s)
            _add_into(acc, (a - 1, 1, (n + 1) % self.half, 0), f.qpow(2 * a - 1))
            _add_into(acc, (a - 1, 0, 0, 0), -f.q)
            out = [(k[0], k[1], k[2], k[3], v) for k, v in sorted(acc.items())]
        else:
            # E^d F^a = E * (E^(d-1) F^a)
            acc = {}
            for a1, e1, c1, d1, s in self.ef(d - 1, a):
                w = self._weight(e1, c1)
                for a2, e2, c2, d2, t in self.ef(1, a1):
                    # (E F^a1) then the parked group and E^d1:
                    # E^d2 g = q^(-w*d2) g E^d2
                    eps, c = _group_mul(n, e2, c2, e1, c1)
                    coeff = f.qpow(-w * d2) * t * s
                    _add_into(acc, (a2, eps, c, d2 + d1), coeff)
            out = [(k[0], k[1], k[2], k[3], v) for k, v in sorted(acc.items())]
        self._ef[key] = out
        return out

    def mono_mul(self, k1: MonKey, k2: MonKey) -> tuple[tuple[MonKey, int, tuple], ...]:
        """Memoized product of two PBW monomials as structure constants
        (key, e, v): the coefficient q^e * prod(v) of key, in the form that
        `FieldContext.combination_product` takes.  v is empty when the
        coefficient is a signed power of q, and else holds its integer
        coordinate vector; the constants of u are integral, which is
        checked once per table entry."""
        memo_key = (k1, k2)
        hit = self._mono_cache.get(memo_key)
        if hit is not None:
            return hit
        unit_shift = self.field._unit_shift
        n = self.n
        a1, e1, c1, d1 = k1
        a2, e2, c2, d2 = k2
        w1 = self._weight(e1, c1)
        w2 = self._weight(e2, c2)
        out = []
        for au, eu, cu, du, t in self.ef(d1, a2):
            a = a1 + au
            d = du + d2
            if a >= self.N or d >= self.N:
                continue
            if t.den != 1:
                raise ConstructionError(f"structure constant {t!r} of {k1} * {k2} is not integral")
            # F^a1 g1 (F^au gu E^du) g2 E^d2:
            #   g1 F^au = q^(-w1*au) F^au g1,  E^du g2 = q^(-w2*du) g2 E^du
            eps, c = _group_mul(n, e1, c1, eu, cu)
            eps, c = _group_mul(n, eps, c, e2, c2)
            e = -w1 * au - w2 * du
            shift = unit_shift.get(t.num)
            if shift is None:
                out.append(((a, eps, c, d), e % self.N, (t.num,)))
            else:
                out.append(((a, eps, c, d), (e + shift) % self.N, ()))
        result = tuple(out)
        self._mono_cache[memo_key] = result
        return result

    # -- coordinates --------------------------------------------------------

    def monomial_index(self, key: MonKey) -> int:
        a, eps, c, d = key
        return ((a * 2 + eps) * self.half + c) * self.N + d

    def coords(self, x: AlgebraElement) -> dict[int, Scalar]:
        return {self.monomial_index(k): s for k, s in x.terms.items()}

    # -- idempotents and distinguished elements -----------------------------

    def _projector(self, g: AlgebraElement, order: int, e: int) -> AlgebraElement:
        """(1/order) sum_t q^(-e t) g^t, the q^e-eigenprojector of a grouplike
        g with g^order = 1."""
        f = self.field
        inv = f.from_fraction(Fraction(1, order))
        acc: dict[MonKey, Scalar] = {}
        power = self.one_elem
        for t in range(order):
            _axpy(acc, power.terms, f.qpow(-e * t) * inv)
            power = power * g
        return AlgebraElement(self, acc)

    def idempotent_1(self, i: int) -> AlgebraElement:
        """1_i, the qbar^i = q^(n i)-eigenprojector of k."""
        if not 0 <= i < self.n:
            raise InvalidArgumentError(f"idempotent index {i} outside 0..{self.n - 1}")
        return self.cached(("idempotent_1", i), lambda: self._projector(self.k, self.n, self.n * i))

    def flat(self) -> AlgebraElement:
        return self.cached(("flat",), lambda: self._build_flat(-1))

    def flat_inv(self) -> AlgebraElement:
        return self.cached(("flat_inv",), lambda: self._build_flat(+1))

    def _build_flat(self, sign: int) -> AlgebraElement:
        """sum_i q^(sign i) 1_i: flat for sign -1, its inverse for +1."""
        acc: dict[MonKey, Scalar] = {}
        for i in range(self.n):
            _axpy(acc, self.idempotent_1(i).terms, self.field.qpow(sign * i))
        return AlgebraElement(self, acc)

    def idempotent_e(self, i: int, j: int) -> AlgebraElement:
        """Primitive idempotent e_{2i,j} of u^0, 1 <= i <= n^2/2, j in {0,1}:
        the q^(2i)-eigenprojector of k^-1 khat times the projector
        (1 + (-1)^j k khat^(n/2)) / 2."""
        if not (1 <= i <= self.half and j in (0, 1)):
            raise InvalidArgumentError(f"bad idempotent label ({i}, {j})")
        return self.cached(("idempotent_e", i, j), lambda: (
            self._projector(self.kinv_khat, self.half, 2 * i)
            * self._projector(self.k_khat_half, 2, self.half * j)))

    def alpha_vec(self, i: int, j: int) -> AlgebraElement:
        """alpha_{2i,j} = F^(n^2-1) e_{2i,j}."""
        return self.cached(("alpha_vec", i, j), lambda: AlgebraElement(self, {
            (self.N - 1, eps, c, 0): s
            for (_, eps, c, _), s in self.idempotent_e(i, j).terms.items()
        }))

    def beta_vec(self, i: int, j: int) -> AlgebraElement:
        """beta_{2i,j} = E^(2i-2) alpha_{2i,j}."""
        return self.e_power(2 * i - 2) * self.alpha_vec(i, j)

    def e_power(self, d: int) -> AlgebraElement:
        if d >= self.N:
            return self.zero_elem
        return AlgebraElement(self, {(0, 0, 0, d): self.field.one})

    def f_power(self, a: int) -> AlgebraElement:
        if a >= self.N:
            return self.zero_elem
        return AlgebraElement(self, {(a, 0, 0, 0): self.field.one})

    def gamma_vec(self, i: int, j: int) -> AlgebraElement:
        """The height-homogeneous gamma with F*gamma = beta_{2i,j}.

        Ansatz: gamma = sum_d c_d F^(d+n^2-2i) e'_d E^d over 0 <= d <= 2i-1,
        where e'_d = e_{2i',j'} is the unique primitive idempotent giving each
        candidate the same left eigenvalues as E^(2i-1) alpha (i' = i-d mod
        n^2/2, j' = j+d mod 2).  F maps the candidates to terms of pairwise
        distinct E-degree, so each c_d is fixed by the matching component of
        beta; the top candidate (d = 2i-1) is killed by F and its coefficient
        is set to zero.
        """
        return self.cached(("gamma_vec", i, j), lambda: self._build_gamma(i, j))

    def _build_gamma(self, i: int, j: int) -> AlgebraElement:
        f = self.field
        beta = self.beta_vec(i, j)
        # Bucket beta by E-degree.
        by_deg: dict[int, dict[MonKey, Scalar]] = {}
        for mon, s in beta.terms.items():
            by_deg.setdefault(mon[3], {})[mon] = s
        gamma = self.zero_elem
        for d in range(2 * i - 1):
            a_d = d + self.N - 2 * i
            ip = (i - d - 1) % self.half + 1
            jp = (j + d) % 2
            ep = self.idempotent_e(ip, jp)
            # F * (F^a_d e' E^d) = F^(a_d+1) e' E^d, componentwise in E-degree.
            image = AlgebraElement(
                self,
                {(a_d + 1, eps, c, d): s for (_, eps, c, _), s in ep.terms.items()},
            )
            target = AlgebraElement(self, by_deg.get(d, {}))
            c_d = self._ratio(target, image)
            gamma = gamma + AlgebraElement(
                self,
                {(a_d, eps, c, d): s * c_d for (_, eps, c, _), s in ep.terms.items()},
            )
        if (self.F * gamma) != beta:
            raise ConstructionError(f"gamma candidate for (2i,j)=({2 * i},{j}) misses F*gamma = beta")
        if self.kinv_khat * gamma != gamma.scale(f.qpow(-2 * i)):
            raise ConstructionError("gamma has a wrong k^-1 khat eigenvalue")
        if self.k_khat_half * gamma != gamma.scale(f.sign(j)):
            raise ConstructionError("gamma has a wrong k khat^(n/2) eigenvalue")
        probe = self.f_power(self.N - 1) * (self.e_power(self.N - 1) * gamma)
        if probe.is_zero():
            raise ConstructionError("F^(n^2-1) E^(n^2-1) gamma vanished")
        return gamma

    def _ratio(self, target: AlgebraElement, image: AlgebraElement) -> Scalar:
        """Scalar c with target = c * image; exact, raises if not proportional."""
        if image.is_zero():
            if target.is_zero():
                return self.field.zero
            raise ConstructionError("proportionality against zero image")
        mon, s = next(iter(image.terms.items()))
        c = target.coefficient(mon) / s
        if image.scale(c) != target:
            raise ConstructionError("component is not proportional to the candidate image")
        return c

    # -- verification -------------------------------------------------------

    @verifier("reordering formulas and grouplike eigenvalue identities")
    def verify_commutation_lemmas(self) -> Counterexamples:
        """Closed reordering formulas for E^s vs F, and the eigenvalue table."""
        f = self.field
        E, F = self.E, self.F
        kk = self.kinv_khat
        sgn = self.k_khat_half
        for s in range(1, self.N):
            sq = qint(f, s, f.q)
            sqi = qint(f, s, f.qpow(-1))
            Es, Es1 = self.e_power(s), self.e_power(s - 1)
            Fs, Fs1 = self.f_power(s), self.f_power(s - 1)
            cases = [
                (
                    "F E^s",
                    F * Es,
                    (Es * F).scale(f.qpow(-s)) + Es1.scale(sqi) - (kk * Es1).scale(sq),
                ),
                (
                    "E^s F",
                    Es * F,
                    (F * Es).scale(f.qpow(s)) + (Es1 * kk).scale(f.q * sqi) - Es1.scale(f.q * sq),
                ),
                (
                    "E F^s",
                    E * Fs,
                    (Fs * E).scale(f.qpow(s)) + (Fs1 * kk).scale(f.qpow(s) * sq) - Fs1.scale(f.q * sq),
                ),
                (
                    "F^s E",
                    Fs * E,
                    (E * Fs).scale(f.qpow(-s)) + Fs1.scale(sqi) - (Fs1 * kk).scale(sq),
                ),
            ]
            for name, lhs, rhs in cases:
                yield None if lhs == rhs else f"{name} at s={s}"
        eigen_cases = [
            ("(k^-1 khat) E", kk * E, (E * kk).scale(f.qpow(-2))),
            ("(k^-1 khat) F", kk * F, (F * kk).scale(f.qpow(2))),
            ("(k khat^(n/2)) E", sgn * E, -(E * sgn)),
            ("(k khat^(n/2)) F", sgn * F, -(F * sgn)),
        ]
        for i in range(1, self.half + 1):
            for j in (0, 1):
                e = self.idempotent_e(i, j)
                eigen_cases.append(
                    (f"(k^-1 khat) e_({2 * i},{j})", kk * e, e.scale(f.qpow(2 * i)))
                )
                eigen_cases.append(
                    (f"(k khat^(n/2)) e_({2 * i},{j})", sgn * e, e.scale(f.sign(j)))
                )
        for name, lhs, rhs in eigen_cases:
            yield None if lhs == rhs else name
