"""The Grothendieck ring K0 of u: simple classes, fusion-rule products,
f-polynomials, and the two-generator presentation Z[g,x]/I.

A class is an integer vector over the n^2 simple labels.  Products expand
simple-by-simple through the fusion rule, with projective summands rewritten
through their composition series [P_{2i,j}] = 2[S_{2i,j}] + 2[S_partner].
The presentation is verified by mapping g and x to the two generating
classes, pushing the f-polynomials through, and checking the ideal
generators die and the monomial basis is unimodular over Z; that basis lets
the ring axioms check associativity with g or x on the left only.

`K0Element` and `PresPoly` are `cyclo.Combination`s with int coefficients;
their sums, like every int sum here, prune through `_add_into`.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Combination, _add_into
from .errors import ContextMismatchError, InvalidArgumentError
from .moncat import (
    _summand_graded_character,
    char_product,
    composition_counts,
    simple_simple_rule,
    summand_name,
)
from .qgroup import AlgebraContext
from .report import CheckReport, Counterexamples, verifier
from .reps import all_labels, partner_label

Label = tuple[int, int]


def _expand_products(ctx: AlgebraContext, i1: int, j1: int, i2: int, j2: int) -> dict[Label, int]:
    """Fusion product of two simple classes with each projective summand
    expanded through its composition series 2[S_{2i,j}] + 2[S_partner]."""
    out: dict[Label, int] = {}
    for (kind, i, j), m in simple_simple_rule(ctx, i1, j1, i2, j2).items():
        if kind == "S":
            _add_into(out, (i, j), m)
        else:
            _add_into(out, (i, j), 2 * m)
            _add_into(out, partner_label(ctx, i, j), 2 * m)
    return out


def basis_product(ctx: AlgebraContext, k1: Label, k2: Label) -> dict[Label, int]:
    """Structure constants of [S_k1]*[S_k2] in the simple-class basis."""
    return ctx.cached(("basis", k1, k2), lambda: _expand_products(ctx, *k1, *k2))


def _signed_sum(terms: dict[tuple[int, int], int], name, times: str) -> str:
    """The terms as "c1<times>name(k1) + c2<times>name(k2) - ...", highest
    first key first, with a coefficient of one left out."""
    out = ""
    for key in sorted(terms, key=lambda k: (-k[0], k[1])):
        c = terms[key]
        body = name(key)
        if abs(c) != 1:
            body = str(abs(c)) if body == "1" else f"{abs(c)}{times}{body}"
        if not out:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out or "0"


class K0Element(Combination):
    """Integer combination of simple classes with fusion multiplication."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: AlgebraContext, terms: dict[Label, int] | None = None):
        self.ctx = ctx
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    def _mismatch(self, other: "K0Element") -> Exception | None:
        if self.ctx is not other.ctx:
            return ContextMismatchError("K0 elements live over different contexts")
        return None

    def _basis_product(self):
        ctx = self.ctx
        return lambda k1, k2: basis_product(ctx, k1, k2).items()

    def dim(self) -> int:
        """Image under the dimension homomorphism K0 -> Z."""
        N = self.ctx.N
        return sum(c * (N - 2 * i + 1) for (i, j), c in self.terms.items())

    def sign(self) -> int:
        """Image under the parity character [S_{2i,j}] -> (-1)^j."""
        return sum(c * (1 if j == 0 else -1) for (i, j), c in self.terms.items())

    def __repr__(self) -> str:
        return _signed_sum(self.terms, lambda k: f"[{summand_name(('S', *k))}]", "")


def simple_class(ctx: AlgebraContext, i: int, j: int) -> K0Element:
    if not (1 <= i <= ctx.half and j in (0, 1)):
        raise InvalidArgumentError(f"bad simple label ({i}, {j})")
    return K0Element(ctx, {(i, j): 1})


def projective_class(ctx: AlgebraContext, i: int, j: int) -> K0Element:
    """[P_{2i,j}] expanded through its composition series."""
    pi, pj = partner_label(ctx, i, j)
    return K0Element(ctx, {(i, j): 2, (pi, pj): 2})


def unit_class(ctx: AlgebraContext) -> K0Element:
    return simple_class(ctx, ctx.half, 0)


def _generators(ctx: AlgebraContext) -> tuple[Label, Label]:
    """The labels of g = [S_{n^2,1}] and x = [S_{n^2-2,0}]."""
    return (ctx.half, 1), (ctx.half - 1, 0)


# -- the presentation ring Z[g,x]/(g^2-1) ------------------------------------------


def _monomial_product(k1: tuple[int, int], k2: tuple[int, int]):
    """x^a1 g^b1 * x^a2 g^b2 = x^(a1+a2) g^(b1+b2), with g^2 = 1."""
    return (((k1[0] + k2[0], (k1[1] + k2[1]) % 2), 1),)


class PresPoly(Combination):
    """Integer polynomial in x and g with g^2 reduced to 1 eagerly.

    Terms are keyed by (x-degree, g-degree) with g-degree in {0, 1}.
    """

    __slots__ = ()

    def __init__(self, terms: dict[tuple[int, int], int] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v}
        if any(b not in (0, 1) or a < 0 for (a, b) in self.terms):
            raise InvalidArgumentError("PresPoly keys must be (x-degree >= 0, g-degree in {0,1})")

    def _basis_product(self):
        return _monomial_product

    def __repr__(self) -> str:
        def body(key: tuple[int, int]) -> str:
            a, b = key
            xs = "" if a == 0 else ("x" if a == 1 else f"x^{a}")
            gs = "g" if b else ""
            return f"{xs}{'*' if xs and gs else ''}{gs}" or "1"

        return _signed_sum(self.terms, body, "*")


def pres_one() -> PresPoly:
    return PresPoly({(0, 0): 1})


def pres_g() -> PresPoly:
    return PresPoly({(0, 1): 1})


def pres_x() -> PresPoly:
    return PresPoly({(1, 0): 1})


def f_poly(ctx: AlgebraContext, m: int, j: int) -> PresPoly:
    """The polynomial f_{2m,j}: f_{0,j} = g^j, f_{2,j} = x g^j, and
    f_{2(m+1),j} = (x - g) f_{2m,j} - f_{2(m-1),j}, with g^2 -> 1."""
    if not (0 <= m <= ctx.half - 1) or j not in (0, 1):
        raise InvalidArgumentError(f"bad f-polynomial index ({m}, {j})")
    if m == 0:
        return pres_one() if j == 0 else pres_g()
    if m == 1:
        return pres_x() if j == 0 else pres_x() * pres_g()
    return ctx.cached(("f_poly", m, j), lambda: (
        (pres_x() - pres_g()) * f_poly(ctx, m - 1, j) - f_poly(ctx, m - 2, j)
    ))


def second_ideal_generator(ctx: AlgebraContext) -> PresPoly:
    """f_{n^2-2,0} x - 2 f_{n^2-2,1} - f_{n^2-4,0} - 2."""
    h = ctx.half
    return (
        f_poly(ctx, h - 1, 0) * pres_x()
        - 2 * f_poly(ctx, h - 1, 1)
        - f_poly(ctx, h - 2, 0)
        - 2 * pres_one()
    )


def upsilon(ctx: AlgebraContext, p: PresPoly) -> K0Element:
    """Evaluate a presentation polynomial at g = [S_{n^2,1}], x = [S_{n^2-2,0}]."""
    g, x = _generators(ctx)

    def mul_by(vec: dict[Label, int], kb: Label) -> dict[Label, int]:
        out: dict[Label, int] = {}
        for k1, c1 in vec.items():
            for k, m in basis_product(ctx, k1, kb).items():
                _add_into(out, k, c1 * m)
        return out

    xdeg = max((a for (a, b) in p.terms), default=0)
    powers: list[dict[Label, int]] = [{(ctx.half, 0): 1}]
    for _ in range(xdeg):
        powers.append(mul_by(powers[-1], x))
    out: dict[Label, int] = {}
    for (a, b), c in p.terms.items():
        vec = mul_by(powers[a], g) if b else powers[a]
        for k, v in vec.items():
            _add_into(out, k, c * v)
    return K0Element(ctx, out)


def _int_det(rows: list[list[int]]) -> int:
    """Exact determinant of a small integer matrix (fraction-free enough)."""
    n = len(rows)
    mat = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if mat[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, n):
            if mat[r][col]:
                factor = mat[r][col] * inv
                mat[r] = [mat[r][c] - factor * mat[col][c] for c in range(n)]
    assert det.denominator == 1
    return int(det)


# -- verifiers ----------------------------------------------------------------------


@verifier("K0 is presented by g and x modulo the two stated relations")
def verify_presentation(ctx: AlgebraContext) -> Counterexamples:
    """The two-generator presentation of K0 holds.

    Checks: the f-polynomials map onto every simple class, both ideal
    generators map to zero, and the n^2 monomials g^b x^a form a Z-basis
    (unimodular change of matrix onto the simple classes).
    """
    half = ctx.half
    for m in range(half):
        for j in (0, 1):
            got = upsilon(ctx, f_poly(ctx, m, j))
            want = simple_class(ctx, half - m, j)
            yield None if got == want else f"upsilon(f_{{{2*m},{j}}}) = {got!r}, wanted {want!r}"
    g = pres_g()
    yield None if upsilon(ctx, g * g - pres_one()).is_zero() else "upsilon(g^2 - 1) is nonzero"
    rel = second_ideal_generator(ctx)
    yield None if upsilon(ctx, rel).is_zero() else (
        "the second ideal generator does not map to zero"
    )
    rows = []
    for b in (0, 1):
        for a in range(half):
            image = upsilon(ctx, PresPoly({(a, b): 1}))
            rows.append([image.terms.get(k, 0) for k in all_labels(ctx)])
    det = _int_det(rows)
    yield None if det in (1, -1) else f"monomial basis matrix has determinant {det}"


@verifier("K0 is a commutative unital ring with nonnegative structure constants")
def verify_ring_axioms(ctx: AlgebraContext) -> Counterexamples:
    """Unit, commutativity and nonnegative structure constants on the basis
    classes, and associativity (yb)c = y(bc) for y in {g, x} and basis
    classes b, c: 2(n^2)^2 triples.

    Premise: `verify_presentation`, whose monomials in g and x form a
    Z-basis of K0.  The product is bilinear, as it is defined by structure
    constants, so these triples decide associativity on all of K0:
    - A = {a : (ab)c = a(bc) for all b, c} is a Z-submodule, and it holds
      1 by the unit check and g and x by the triples.
    - If y and w lie in A, so does yw:
      ((yw)b)c = (y(wb))c = y((wb)c) = y(w(bc)) = (yw)(bc).
    - So A holds every word in g and x, and these span K0 over Z by the
      premise.  Hence A = K0.
    """
    labels = all_labels(ctx)
    one = unit_class(ctx)
    for k in labels:
        e = K0Element(ctx, {k: 1})
        yield None if one * e == e and e * one == e else f"unit fails on {e!r}"
    for k1 in labels:
        for k2 in labels:
            p = basis_product(ctx, k1, k2)
            if p != basis_product(ctx, k2, k1):
                yield f"product at {k1} x {k2} is not symmetric"
            negative = any(v < 0 for v in p.values())
            yield f"negative structure constant at {k1} x {k2}" if negative else None
    for ky in _generators(ctx):
        y = K0Element(ctx, {ky: 1})
        for kb in labels:
            b = K0Element(ctx, {kb: 1})
            for kc in labels:
                c = K0Element(ctx, {kc: 1})
                yield None if (y * b) * c == y * (b * c) else (
                    f"associativity fails at {ky}, {kb}, {kc}"
                )


@verifier("dimension and parity are ring homomorphisms on K0")
def verify_character_homomorphisms(ctx: AlgebraContext) -> Counterexamples:
    """Dimension and parity both extend to ring homomorphisms K0 -> Z."""
    labels = all_labels(ctx)
    for k1 in labels:
        for k2 in labels:
            a = K0Element(ctx, {k1: 1})
            b = K0Element(ctx, {k2: 1})
            ab = a * b
            bad = f"character mismatch at {k1} x {k2}"
            yield None if ab.dim() == a.dim() * b.dim() else bad
            yield None if ab.sign() == a.sign() * b.sign() else bad


@verifier("K0 products equal the composition classes of tensor products")
def verify_fusion_consistency(ctx: AlgebraContext) -> Counterexamples:
    """K0 structure constants are the classes of the tensor modules, and the
    projective expansion agrees with the graded composition counts.

    The class of a module in K0 is its list of composition multiplicities
    (Jordan-Holder), peeled here from its graded character, so nothing is
    decomposed and no tensor module is built.  `tensor` gives the basis
    vector (a, b) of S (x) S' the sums of the classes and of the grades of a
    and b, so its graded character is `char_product` of the factors' (a
    Tier-1 test compares the two on every pair at n = 4).  Engine agreement
    is not repeated here: `verify_simple_simple_tensors` already decides,
    pair by pair, that the engine's summands equal the fusion rule.  The
    counts are also the less circular witness.  Engine summands would have
    to be expanded through the same 2[S] + 2[S'] projective series that
    `basis_product` uses, so a wrong expansion would appear on both sides;
    the composition counts never see the rule or the expansion.
    """
    labels = all_labels(ctx)
    for i, j in labels:
        counts = composition_counts(ctx, _summand_graded_character(ctx, ("P", i, j)))
        yield None if counts == projective_class(ctx, i, j).terms else (
            f"projective class at ({i},{j}) disagrees with its composition counts"
        )
    for k1 in labels:
        left = _summand_graded_character(ctx, ("S", *k1))
        for k2 in labels:
            right = _summand_graded_character(ctx, ("S", *k2))
            counts = composition_counts(ctx, char_product(ctx, left, right))
            yield None if basis_product(ctx, k1, k2) == counts else (
                f"structure constants at {k1} x {k2} differ from the composition "
                "counts of the tensor module"
            )


def k0_table(ctx: AlgebraContext) -> list[dict]:
    """All basis products in the simple-class basis, one row per coefficient."""
    rows = []
    for i1, j1 in all_labels(ctx):
        for i2, j2 in all_labels(ctx):
            prod = basis_product(ctx, (i1, j1), (i2, j2))
            for (i, j) in sorted(prod, key=lambda k: (-k[0], k[1])):
                rows.append(
                    {
                        "left": summand_name(("S", i1, j1)),
                        "right": summand_name(("S", i2, j2)),
                        "class": summand_name(("S", i, j)),
                        "coefficient": prod[(i, j)],
                    }
                )
    return rows


def k0_reports(ctx: AlgebraContext) -> list[CheckReport]:
    """Every K0 verifier, the presentation first: the ring axioms check
    associativity from its two generators only, so it is their premise."""
    return [
        verify_presentation(ctx),
        verify_ring_axioms(ctx),
        verify_character_homomorphisms(ctx),
        verify_fusion_consistency(ctx),
    ]
