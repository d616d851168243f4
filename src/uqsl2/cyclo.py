"""Exact arithmetic in the cyclotomic field Q(zeta_N), N = n^2, for n a
power of two (the CLI takes 4 and 8).

Then Phi_N = x^m + 1 with m = N/2.  Scalars are coefficient vectors over the
power basis 1, x, ..., x^(m-1) of Q[x]/(x^m + 1), stored as an integer tuple
with a single positive denominator and reduced eagerly.  The class of x is
the canonical primitive N-th root of unity q; qbar = q^n is the canonical
primitive n-th root.  All arithmetic uses integers only:
- reduction is a sign fold (negacyclic convolution, `_negacyclic_mul`);
- a factor +-x^k with denominator 1, a signed power of q, multiplies by a
  negacyclic shift that skips normalization (`Scalar.__mul__`);
- the inverse is a norm tower down to a nonzero integer
  (`FieldContext.inverse`).

`FieldContext.residue_field()` gives the residue field F_p of one prime
above p, with zeta sent to a primitive N-th root of unity omega in F_p.  Its
elements are plain ints in [0, p).  It serves certificates only: a rank over
F_p bounds the exact rank from below.

Each field supplies the sparse kernel that linalg and reps call through the
field they hold: `axpy` (d += s * vec, dropping what cancels), `inverse`,
`neg` and `one`.  Elimination lives in `linalg.Echelon` alone: it clears
pivots with `axpy` against monic pivot rows, which is what keeps scalar
sizes bounded, and no field rescales a row.  A sparse vector is a dict from
a hashable key to a nonzero scalar: it never stores a zero.  Over
Q(zeta_N) every sum into one goes through `_add_into` or `_axpy`, which
drop a key whose sum cancels; over F_p, through `ResidueField.axpy`.
`_add_into` tests its sum by truth, so it prunes int sums too.

`Combination` is the one linear-combination type: an element of u, of
u^(x m), of K0 or of Z[g,x] maps basis keys to nonzero Scalar or int
coefficients, and its sum, product, equality and hash are written once.
A product of two Scalar combinations runs through the field's one integer
kernel, `FieldContext.combination_product`.  Its basis product gives each
structure constant as (key, e, v), the coefficient q^e * prod(v) of key,
with v empty for a signed power of q.  The kernel works on integer vectors
and calls `_make` once per output term; normalized form is unique, so the
result equals the term-by-term Scalar sum.  `FieldContext.qbar_modes`, the
transform over Z_n^r by powers of qbar, is signed shifts of integer vectors
too, with one `_make` per mode.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .errors import (
    ConstructionError,
    ContextMismatchError,
    DivisionByZeroError,
    InvalidArgumentError,
    UnsupportedParameterError,
)


def _negacyclic_mul(a, b) -> list[int]:
    """The product of two integer coefficient vectors of length m modulo x^m + 1."""
    m = len(a)
    out = [0] * m
    for i in range(m):
        ai = a[i]
        if not ai:
            continue
        for j in range(m):
            bj = b[j]
            if not bj:
                continue
            k = i + j
            if k < m:
                out[k] += ai * bj
            else:
                out[k - m] -= ai * bj
    return out


def _norm_tower(a: list[int]) -> tuple[list[int], int]:
    """(p, r) with a * p = r modulo x^m + 1, m = len(a) a power of two and r a
    nonzero integer; a must be nonzero.

    Write a = e(x^2) + x*o(x^2).  Then a(x)*a(-x) = e(y)^2 - y*o(y)^2 with
    y = x^2 is even, so it lies in Z[y]/(y^(m/2) + 1), and one step halves
    the degree.  With c*p' = r there, p = a(-x)*p'(x^2) = e*p' - x*o*p'.

    The root of x^m + 1 is a primitive 2m-th root of unity zeta, and
    sigma: zeta -> -zeta = zeta^(m+1) is a Galois automorphism because m + 1
    is odd.  So a != 0 gives sigma(a) != 0 and a norm a*sigma(a) != 0 at every
    step, and the tower ends at a nonzero integer.
    """
    m = len(a)
    if m == 1:
        return [1], a[0]
    e = a[0::2]
    o = a[1::2]
    ee = _negacyclic_mul(e, e)
    oo = _negacyclic_mul(o, o)
    # e^2 - y*o^2, where y*o^2 is o^2 shifted up one place with a sign wrap.
    c = [ee[0] + oo[-1]] + [u - v for u, v in zip(ee[1:], oo)]
    q, r = _norm_tower(c)
    p = [0] * m
    p[0::2] = _negacyclic_mul(e, q)
    p[1::2] = [-v for v in _negacyclic_mul(o, q)]
    return p, r


class Scalar:
    """An element of Q(zeta_N): integer coordinate tuple over a common denominator."""

    __slots__ = ("ctx", "num", "den", "_hash")

    def __init__(self, ctx: "FieldContext", num: tuple[int, ...], den: int):
        # Inputs are assumed normalized; use FieldContext factories to build.
        self.ctx = ctx
        self.num = num
        self.den = den
        self._hash = None

    # -- ring structure ------------------------------------------------

    def _operand(self, other):
        """other as a Scalar of this field: an int is lifted with
        `from_int`, a Scalar of another field raises ContextMismatchError,
        and any other type gives NotImplemented."""
        if isinstance(other, Scalar):
            raise ContextMismatchError("scalars from different field contexts")
        if isinstance(other, int):
            return self.ctx.from_int(other)
        return NotImplemented

    def __add__(self, other: "Scalar | int") -> "Scalar":
        ctx = self.ctx
        if type(other) is not Scalar or other.ctx is not ctx:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return ctx._make([a + b for a, b in zip(self.num, other.num)], da)
        return ctx._make(
            [a * db + b * da for a, b in zip(self.num, other.num)], da * db
        )

    __radd__ = __add__

    def __sub__(self, other: "Scalar | int") -> "Scalar":
        ctx = self.ctx
        if type(other) is not Scalar or other.ctx is not ctx:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        da, db = self.den, other.den
        if da == db:
            return ctx._make([a - b for a, b in zip(self.num, other.num)], da)
        return ctx._make(
            [a * db - b * da for a, b in zip(self.num, other.num)], da * db
        )

    def __rsub__(self, other: int) -> "Scalar":
        other = self._operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self) -> "Scalar":
        return Scalar(self.ctx, tuple(-a for a in self.num), self.den)

    def __mul__(self, other: "Scalar | int") -> "Scalar":
        """The product; a factor +-x^k (a signed power of q) is a shift.

        Over x^m + 1, multiplying by x^s for 0 <= s < 2m moves coefficient i
        to i + s and flips its sign each time it wraps past m.  That permutes
        the coordinates up to sign, so the integer content and the
        denominator stay as they are: the product is already normalized and
        equals what `_make` would return; a factor 1 returns the other, as
        a Scalar is immutable.  Any other pair of factors is
        multiplied by `_negacyclic_mul` and normalized once.  An int is
        lifted by `_operand`; the one type test costs the shift path
        nothing measurable.
        """
        ctx = self.ctx
        if type(other) is not Scalar or other.ctx is not ctx:
            other = self._operand(other)
            if other is NotImplemented:
                return NotImplemented
        shift = ctx._unit_shift
        moved = self
        s = shift.get(other.num) if other.den == 1 else None
        if s is None:
            s = shift.get(self.num) if self.den == 1 else None
            if s is None:
                return ctx._make(_negacyclic_mul(self.num, other.num), self.den * other.den)
            moved = other
        if not s:
            return moved
        a = moved.num
        m = len(a)
        if s < m:
            num = tuple([-c for c in a[m - s:]]) + a[: m - s]
        else:
            s -= m
            num = a[m - s:] + tuple([-c for c in a[: m - s]])
        return Scalar(ctx, num, moved.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar") -> "Scalar":
        return self * other.inverse()

    def inverse(self) -> "Scalar":
        return self.ctx.inverse(self)

    def __pow__(self, exponent: int) -> "Scalar":
        ctx = self.ctx
        if exponent < 0:
            return self.inverse() ** (-exponent)
        acc = ctx.one
        base = self
        while exponent:
            if exponent & 1:
                acc = acc * base
            base = base * base
            exponent >>= 1
        return acc

    # -- predicates and hashing ----------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.ctx is other.ctx

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.num, self.den))
        return h

    # -- conversions -----------------------------------------------------

    def to_fractions(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(a, den) for a in self.num)

    def __repr__(self) -> str:
        return f"Scalar({scalar_to_str(self)})"


def _add_into(d: dict, key, s: Scalar | int) -> None:
    """d[key] += s, dropping the key if the sum is zero.

    s is a Scalar or an int; the sum is tested by its truth, which is False
    exactly at zero for both.
    """
    cur = d.get(key)
    if cur is not None:
        s = cur + s
    if s:
        d[key] = s
    else:
        d.pop(key, None)


class Combination:
    """A finite linear combination of basis keys, with a bilinear product.

    `terms` maps each basis key to a nonzero coefficient, a Scalar or an
    int; every sum goes through `_add_into`, so no zero is stored.  The
    linear structure, the product, equality and hashing are written here
    once.  A subclass keeps its constructor, its space check `_mismatch`,
    its repr, and its basis product: `_basis_product()` returns a function
    (k1, k2) -> iterable of structure constants, looked up once per
    product.  With int coefficients a constant is a pair (key, int); with
    Scalar ones, whose field `_field()` names, it is a triple (key, e, v)
    for `FieldContext.combination_product`.  The slots a subclass declares
    hold its space (a context, a leg count), and a result lies in the space
    of its left operand.
    """

    __slots__ = ("terms",)

    def _mismatch(self, other: "Combination") -> Exception | None:
        """The error that combining with other raises, or None when both
        lie in one space."""
        return None

    def _like(self, terms: dict) -> "Combination":
        """An element of this space with the given terms."""
        out = object.__new__(type(self))
        for name in self.__slots__:
            setattr(out, name, getattr(self, name))
        out.terms = terms
        return out

    def _check(self, other: "Combination") -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        err = self._mismatch(other)
        if err is not None:
            raise err

    def __add__(self, other: "Combination") -> "Combination":
        self._check(other)
        out = dict(self.terms)
        for key, s in other.terms.items():
            _add_into(out, key, s)
        return self._like(out)

    def __sub__(self, other: "Combination") -> "Combination":
        return self + (-other)

    def __neg__(self) -> "Combination":
        return self._like({key: -s for key, s in self.terms.items()})

    def scale(self, s) -> "Combination":
        """s times this element; a zero s gives the zero element."""
        if not s:
            return self._like({})
        return self._like({key: s * t for key, t in self.terms.items()})

    def _field(self) -> "FieldContext | None":
        """The field of the coefficients when they are Scalars, else None."""
        return None

    def __mul__(self, other):
        """The product with a combination, bilinear in the basis product;
        any other factor is a coefficient and scales.  Over Q(zeta_N) the
        field's `combination_product` forms it; int coefficients sum
        through `_add_into`."""
        if not isinstance(other, Combination):
            return self.scale(other)
        self._check(other)
        product = self._basis_product()
        field = self._field()
        if field is not None:
            return self._like(field.combination_product(self.terms, other.terms, product))
        acc: dict = {}
        for k1, s1 in self.terms.items():
            for k2, s2 in other.terms.items():
                s12 = s1 * s2
                for key, t in product(k1, k2):
                    _add_into(acc, key, t * s12)
        return self._like(acc)

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._mismatch(other) is None and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))


def _axpy(d: dict, vec: dict, s: Scalar) -> None:
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


class FieldContext:
    """Arithmetic context for Q(zeta_N) with N = n^2, n a power of two (the
    CLI takes 4 and 8), so that Phi_N = x^m + 1 with m = N/2."""

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 4 or n & (n - 1):
            raise UnsupportedParameterError(
                f"n must be a power of two, at least 4, got {n!r}"
            )
        self.n = n
        self.N = n * n
        m = self.degree = self.N // 2
        self.phi_poly = (1,) + (0,) * (m - 1) + (1,)
        # num of +-x^k -> s in [0, 2m) with +-x^k = x^s, for the shift path of
        # Scalar.__mul__.
        self._unit_shift: dict[tuple[int, ...], int] = {}
        for k in range(m):
            num = [0] * m
            num[k] = 1
            self._unit_shift[tuple(num)] = k
            num[k] = -1
            self._unit_shift[tuple(num)] = k + m
        self.zero = Scalar(self, (0,) * m, 1)
        one = [0] * m
        one[0] = 1
        self.one = Scalar(self, tuple(one), 1)
        self._qpow: list[Scalar] = []
        for t in range(self.N):
            if t < m:
                num = [0] * m
                num[t] = 1
                self._qpow.append(Scalar(self, tuple(num), 1))
            else:
                self._qpow.append(self._qpow[t - 1] * self._qpow[1])
        self.q = self._qpow[1]
        self.qbar = self._qpow[n % self.N]
        self.minus_one = self._qpow[self.N // 2]
        self._residue_field: ResidueField | None = None

    # -- construction ----------------------------------------------------

    def _make(self, num: list[int], den: int) -> Scalar:
        if den < 0:
            den = -den
            num = [-a for a in num]
        g = den
        for a in num:
            if a:
                g = math.gcd(g, a)
                if g == 1:
                    break
        if g > 1:
            den //= g
            num = [a // g for a in num]
        return Scalar(self, tuple(num), den)

    def from_int(self, value: int) -> Scalar:
        num = [0] * self.degree
        num[0] = value
        return Scalar(self, tuple(num), 1)

    def from_fraction(self, value: Fraction | int) -> Scalar:
        value = Fraction(value)
        num = [0] * self.degree
        num[0] = value.numerator
        return Scalar(self, tuple(num), value.denominator)

    def from_coeffs(self, coeffs) -> Scalar:
        """Scalar from an iterable of Fractions/ints over the power basis."""
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            raise InvalidArgumentError(
                f"at most {self.degree} coordinates expected, got {len(coeffs)}"
            )
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        den = math.lcm(*(c.denominator for c in coeffs)) if coeffs else 1
        num = [int(c * den) for c in coeffs]
        return self._make(num, den)

    def qpow(self, exponent: int) -> Scalar:
        """q^exponent for any integer exponent."""
        return self._qpow[exponent % self.N]

    def qbarpow(self, exponent: int) -> Scalar:
        return self._qpow[(exponent * self.n) % self.N]

    def sign(self, parity: int) -> Scalar:
        return self.one if parity % 2 == 0 else self.minus_one

    def image(self, s: Scalar) -> Scalar:
        """The image of a scalar of this field: the scalar itself."""
        return s

    def neg(self, s: Scalar) -> Scalar:
        return -s

    def residue_field(self) -> "ResidueField":
        """The residue field F_p of this context, built on first use."""
        if self._residue_field is None:
            self._residue_field = ResidueField(self)
        return self._residue_field

    # -- the sparse kernel -------------------------------------------------

    axpy = staticmethod(_axpy)

    def combination_product(self, terms1: dict, terms2: dict, product) -> dict:
        """The terms of the product of two combinations over this field.

        product(k1, k2) gives the structure constants of the basis as
        triples (key, e, v): the coefficient of key in k1 * k2 is
        q^e * prod(v), where v is a tuple of integral coefficient vectors,
        empty when the constant is the signed power q^e itself.

        Each operand is scaled to integer vectors over the lcm L of its
        denominators and grouped by coefficient value, so one integer
        product is formed per pair of distinct values, and only once some
        basis product of that pair is nonempty; when one of the two vectors
        is a signed power of q, the product is a shift of the other.  It is
        multiplied by v only when v is not empty.  q^e is a signed cyclic
        shift, a slice of the row r, -r, r.  The contributions to one key
        add into one int list, normalized once by `_make(vec, L1 * L2)`.
        Normalized form is unique, so each term equals the sum of its Scalar
        products, and a key whose sum is zero is dropped, as `_add_into`
        drops it.
        """
        groups1, den1 = self._integral_groups(terms1)
        groups2, den2 = self._integral_groups(terms2)
        mul = _negacyclic_mul
        m = self.degree
        N = self.N
        acc: dict = {}
        for a, sa, keys1 in groups1:
            for b, sb, keys2 in groups2:
                # a * b as q^offset * base; a signed power of q is a shift
                if sa is not None:
                    base, offset = b, sa
                elif sb is not None:
                    base, offset = a, sb
                else:
                    base, offset = None, 0
                rows: dict = {}
                for k1 in keys1:
                    for k2 in keys2:
                        for key, e, v in product(k1, k2):
                            row = rows.get(v)
                            if row is None:
                                if base is None:
                                    base = mul(a, b)
                                row = base
                                for factor in v:
                                    row = mul(row, factor)
                                row = [*row, *[-c for c in row], *row]
                                rows[v] = row
                            start = -(e + offset) % N
                            term = row[start:start + m]
                            cur = acc.get(key)
                            if cur is None:
                                acc[key] = term
                            else:
                                cur[:] = map(add, cur, term)
        den = den1 * den2
        make = self._make
        for key, vec in list(acc.items()):
            s = make(vec, den)
            if s.is_zero():
                del acc[key]
            else:
                acc[key] = s
        return acc

    def qbar_modes(self, terms: dict, twist: list[int]) -> list[Scalar]:
        """The modes of terms over Z_n^r, each turned by a unit:
        qbar^twist[J] * sum_T qbar^(J.T) * terms[T] for every J in Z_n^r, in
        row-major order.  The keys T of terms are r-tuples over Z_n, and
        twist has n^r entries.

        The coefficients are scaled to integer vectors over the lcm of their
        denominators and transformed one axis at a time: qbar^e = q^(n e) is
        a signed cyclic shift, a slice of the row r, -r, r, so the transform
        and the twists are shifts and adds of ints, and each mode is
        normalized once by `_make`.  Zero modes are kept.
        """
        n, m, N = self.n, self.degree, self.N
        size = len(twist)
        groups, den = self._integral_groups(terms)
        vecs: list = [None] * size
        for vec, _, keys in groups:
            for pos in keys:
                at = 0
                for t in pos:
                    at = at * n + t
                vecs[at] = vec
        stride = size
        while stride > 1:
            stride //= n
            out: list = [None] * size
            for at, vec in enumerate(vecs):
                if vec is None:
                    continue
                row = [*vec, *[-c for c in vec], *vec]
                t = at // stride % n
                at -= t * stride
                for j in range(n):
                    start = -n * j * t % N
                    term = row[start:start + m]
                    cur = out[at]
                    if cur is None:
                        out[at] = term
                    else:
                        cur[:] = map(add, cur, term)
                    at += stride
            vecs = out
        modes = []
        for vec, e in zip(vecs, twist):
            if vec is None:
                vec = (0,) * m
            row = [*vec, *[-c for c in vec], *vec]
            start = -n * e % N
            modes.append(self._make(row[start:start + m], den))
        return modes

    def _integral_groups(self, terms: dict) -> tuple[list[tuple], int]:
        """([(vector, shift, keys)], L): L is the lcm of the denominators
        of the coefficients, and each distinct coefficient, as an integer
        vector over L, comes with the keys that carry it and with s when
        that vector is the signed power q^s, else None."""
        by_value: dict[Scalar, list] = {}
        for key, s in terms.items():
            by_value.setdefault(s, []).append(key)
        den = math.lcm(*(s.den for s in by_value))
        shift = self._unit_shift
        groups = []
        for s, keys in by_value.items():
            vec = s.num if s.den == den else tuple(c * (den // s.den) for c in s.num)
            groups.append((vec, shift.get(vec), keys))
        return groups, den

    # -- core arithmetic ---------------------------------------------------

    def inverse(self, s: Scalar) -> Scalar:
        """The inverse of a nonzero scalar.

        The norm tower (`_norm_tower`) gives an integer vector p and a
        nonzero integer r with num * p = r, so s^-1 = den * p / r, normalized
        once by `_make`.  Every scalar has one normalized form (positive
        denominator, coprime to the content of num), so the result equals
        the extended Euclid one coordinate by coordinate.
        """
        if s.is_zero():
            raise DivisionByZeroError("inverse of zero in Q(zeta_N)")
        p, r = _norm_tower(list(s.num))
        return self._make([s.den * c for c in p], r)

    def __repr__(self) -> str:
        return f"FieldContext(n={self.n})"


def _is_prime(m: int) -> bool:
    """Trial division; the residue field only needs primes near 2^30."""
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


class ResidueField:
    """F_p for the smallest prime p = 1 (mod N) above 2^30, with zeta sent
    to a primitive N-th root of unity omega.

    An element is a plain int in [0, p); a product of two fits in 61 bits.
    Reduction is the ring map Z[zeta]_(P) -> F_p at the prime P = (p, zeta -
    omega); it refuses a scalar whose denominator p divides.  Linear algebra
    over F_p computes the rank of the reduced matrix, which is at most the
    rank of the exact one.
    """

    zero = 0
    one = 1

    def __init__(self, exact: FieldContext):
        N = exact.N
        p = -(-2**30 // N) * N + 1
        while not _is_prime(p):
            p += N
        prime_factors = [r for r in range(2, N + 1) if N % r == 0 and _is_prime(r)]
        x = 2
        while True:
            omega = pow(x, (p - 1) // N, p)
            if all(pow(omega, N // r, p) != 1 for r in prime_factors):
                break
            x += 1
        value = 0
        for c in reversed(exact.phi_poly):
            value = (value * omega + c) % p
        if value:
            raise ConstructionError(f"omega = {omega} is not a root of Phi_N modulo {p}")
        self.exact = exact
        self.p = p
        self.omega = omega
        self._omega_pows = [pow(omega, k, p) for k in range(exact.degree)]
        self._qpow = [pow(omega, e, p) for e in range(N)]

    def reduce(self, s: Scalar) -> int:
        """The residue of s; refuses a denominator divisible by p."""
        if s.ctx is not self.exact:
            raise ContextMismatchError("scalar from a different field context")
        p = self.p
        if s.den % p == 0:
            raise DivisionByZeroError(f"{s!r} is not p-integral for p = {p}")
        acc = 0
        for a, w in zip(s.num, self._omega_pows):
            if a:
                acc += a * w
        return acc * pow(s.den, -1, p) % p

    image = reduce

    def qpow(self, exponent: int) -> int:
        """omega^exponent, the residue of q^exponent, for any integer exponent."""
        return self._qpow[exponent % self.exact.N]

    def neg(self, s: int) -> int:
        return -s % self.p

    def inverse(self, s: int) -> int:
        if not s:
            raise DivisionByZeroError("inverse of zero in F_p")
        return pow(s, -1, self.p)

    # -- the sparse kernel -------------------------------------------------

    def axpy(self, d: dict, vec: dict, s: int) -> None:
        """d += s * vec mod p, dropping every key whose sum is 0.

        vec stores no zero and p is prime, so s * v is 0 only when s is,
        and then d stays as it was.
        """
        if not s:
            return
        p = self.p
        for key, v in vec.items():
            t = d.get(key)
            if t is None:
                d[key] = s * v % p
            else:
                t = (t + s * v) % p
                if t:
                    d[key] = t
                else:
                    del d[key]

    def __repr__(self) -> str:
        return f"ResidueField(p={self.p}, omega={self.omega})"


def make_context(n: int) -> FieldContext:
    """Build the arithmetic context for Q(zeta_{n^2}); n a power of two (the
    CLI takes 4 and 8)."""
    return FieldContext(n)


def qint(ctx: FieldContext, s: int, base: Scalar | None = None) -> Scalar:
    """The geometric sum 1 + base + ... + base^(s-1); base defaults to q."""
    if s < 0:
        raise InvalidArgumentError(f"q-integer index must be nonnegative, got {s}")
    if base is None:
        base = ctx.q
    total = ctx.zero
    power = ctx.one
    for _ in range(s):
        total = total + power
        power = power * base
    return total


def scalar_to_str(s: Scalar) -> str:
    """Serialize: comma-joined per-coordinate reduced fractions, low to high."""
    parts = []
    for f in s.to_fractions():
        if f.denominator == 1:
            parts.append(str(f.numerator))
        else:
            parts.append(f"{f.numerator}/{f.denominator}")
    return ",".join(parts)


def scalar_from_str(ctx: FieldContext, text: str) -> Scalar:
    """Inverse of scalar_to_str; accepts fewer than degree coordinates."""
    text = text.strip()
    if not text:
        raise InvalidArgumentError("empty scalar string")
    try:
        coeffs = [Fraction(part.strip()) for part in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidArgumentError(f"bad scalar string {text!r}: {exc}") from exc
    return ctx.from_coeffs(coeffs)
