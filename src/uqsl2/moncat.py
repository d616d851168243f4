"""Tensor products of modules, the direct-sum decomposition engine, and the
fusion-rule tables with their verifiers.

`tensor` builds M (x) N from the coproduct that `quasihopf` states and its
axiom suite checks, D(E) and D(F) grouped by left leg: u acts on M (x) N
through (rho_M (x) rho_N) o D, so the tensor layer holds no second copy of
the coproduct.  The verifiers decide the paper's fusion rules for simple
(x) simple and projective (x) simple products through one procedure,
`decompose`, compared with the rule by `_cover_certificate`; no tensor
verdict reads a grading or a graded character.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cyclo import Scalar, _add_into
from .errors import (
    ConstructionError,
    ContextMismatchError,
    InvalidArgumentError,
    RepresentationError,
)
from .qgroup import AlgebraContext, AlgebraElement, MonKey
from .quasihopf import QuasiHopfData
from .report import CheckReport, Counterexamples, verifier
from .reps import (
    Representation,
    all_labels,
    direct_sum,
    iso_test,
    partner_label,
    projective,
    projective_counts,
    residue_first,
    simple,
    top_multiplicities,
)

Col = dict[int, Scalar]
SparseMap = dict[int, Col]
Label = tuple[int, int]
SummandKey = tuple[str, int, int]  # ("S" | "P", i, j)


# -- acting and tensoring ---------------------------------------------------------


def _coproduct_legs(ctx: AlgebraContext) -> tuple[list, list]:
    """D(E) and D(F) with their terms grouped by left key: one pair (left
    monomial x, right element y) per key, so that D = sum x (x) y."""

    def build() -> tuple[list, list]:
        qh = QuasiHopfData(ctx)
        legs = []
        for dx in (qh.delta_E, qh.delta_F):
            groups: dict[MonKey, dict[MonKey, Scalar]] = {}
            for (left, right), s in dx.terms.items():
                groups.setdefault(left, {})[right] = s
            legs.append([(ctx.monomial(*left), AlgebraElement(ctx, terms))
                         for left, terms in groups.items()])
        return tuple(legs)

    return ctx.cached(("coproduct_legs",), build)


def tensor(M: Representation, N: Representation) -> Representation:
    """The module M (x) N, on which u acts through its coproduct D.

    Basis vector (a, b) gets column index a*dim(N) + b.  k and khat act
    diagonally with added exponents, which is D(k) = k (x) k and
    D(khat) = khat (x) khat; grades add.  With the terms of D(E) grouped by
    left key as sum x (x) y (`_coproduct_legs`), E acts by the Kronecker sum
    of rho_M(x) (x) rho_N(y), and F likewise; each column lists its rows
    in the order the legs of D(E) and D(F) reach them.

    So rho_T = (rho_M (x) rho_N) o D on the generators, and T is a module
    with no check of its own, the tensor product of modules over a
    quasi-bialgebra (Drinfeld, "Quasi-Hopf algebras", Leningrad Math. J. 1,
    1990): rho_M (x) rho_N is an algebra map u (x) u -> End(M (x) N) when M
    and N are modules (the census runs `check_relations` on every simple and
    projective), and D respects every defining relation of u
    (`QuasiHopfData.verify_delta_well_defined`).  The projectors 1_i in D
    need every k-exponent of both factors to be a multiple of n; a factor
    that breaks this is refused, and so is a factor made by `mod_p`, whose
    F_p entries the exact products would misread.
    """
    if M.ctx is not N.ctx:
        raise ContextMismatchError("tensor factors live over different contexts")
    ctx = M.ctx
    if M.field is not ctx.field or N.field is not ctx.field:
        raise ContextMismatchError("tensor factors must have exact coefficients")
    if any(e % ctx.n for e in M.kexp + N.kexp):
        raise RepresentationError(
            "k-eigenvalue exponent is not a multiple of n; not a group character"
        )
    kexp = [ka + kb for ka in M.kexp for kb in N.kexp]
    khatexp = [ka + kb for ka in M.khatexp for kb in N.khatexp]
    grades = None
    if M.grades is not None and N.grades is not None:
        grades = [ga + gb for ga in M.grades for gb in N.grades]
    E, F = (_kronecker_sum(M, N, legs) for legs in _coproduct_legs(ctx))
    return Representation(ctx, f"{M.label}(x){N.label}", kexp, khatexp, E, F, grades)


def _kronecker_sum(M: Representation, N: Representation, legs: list) -> SparseMap:
    """sum over the legs (x, y) of rho_M(x) (x) rho_N(y), columns ascending."""
    dN = N.dim
    out: SparseMap = {}
    for x, y in legs:
        right = [(cb, tuple(colb.items())) for cb, colb in N.act_matrix(y).items()]
        for ca, cola in M.act_matrix(x).items():
            left = ca * dN
            for ra, sa in cola.items():
                base = ra * dN
                for cb, colb in right:
                    col = out.setdefault(left + cb, {})
                    for rb, sb in colb:
                        _add_into(col, base + rb, sa * sb)
    return {c: out[c] for c in sorted(out) if out[c]}


# -- summand bookkeeping ----------------------------------------------------------


def summand_dim(ctx: AlgebraContext, key: SummandKey) -> int:
    kind, i, _ = key
    if kind == "S":
        return ctx.N - 2 * i + 1
    if kind == "P":
        return 2 * ctx.N
    raise InvalidArgumentError(f"unknown summand kind {kind!r}")


def summand_module(ctx: AlgebraContext, key: SummandKey) -> Representation:
    kind, i, j = key
    if kind == "S":
        return simple(ctx, i, j)
    if kind == "P":
        return projective(ctx, i, j)
    raise InvalidArgumentError(f"unknown summand kind {kind!r}")


def summand_name(key: SummandKey) -> str:
    kind, i, j = key
    return f"{kind}({2 * i},{j})"


def format_summands(summands: dict[SummandKey, int]) -> str:
    if not summands:
        return "0"
    parts = []
    for key in sorted(summands, key=lambda k: (k[0], -k[1], k[2])):
        m = summands[key]
        parts.append(summand_name(key) if m == 1 else f"{m}*{summand_name(key)}")
    return " + ".join(parts)


def _total_dim(ctx: AlgebraContext, summands: dict[SummandKey, int]) -> int:
    return sum(m * summand_dim(ctx, key) for key, m in summands.items())


def relative_graded_character(M: Representation) -> dict[tuple[int, int, int], int]:
    """Graded class character with heights shifted so the lowest is zero."""
    raw = M.graded_character()
    low = min(g for (_, _, g) in raw)
    return {(lam, sgn, g - low): c for (lam, sgn, g), c in raw.items()}


def _summand_graded_character(
    ctx: AlgebraContext, key: SummandKey
) -> dict[tuple[int, int, int], int]:
    return ctx.cached(
        ("graded_char", key), lambda: relative_graded_character(summand_module(ctx, key))
    )


def char_product(
    ctx: AlgebraContext,
    A: dict[tuple[int, int, int], int],
    B: dict[tuple[int, int, int], int],
) -> dict[tuple[int, int, int], int]:
    """Convolution of graded class characters: classes add, heights add."""
    N = ctx.N
    out: dict[tuple[int, int, int], int] = {}
    for (l1, s1, g1), c1 in A.items():
        for (l2, s2, g2), c2 in B.items():
            key = ((l1 + l2) % N, (s1 + s2) % 2, g1 + g2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def composition_counts(M: Representation) -> dict[Label, int] | None:
    """Composition multiplicities of a graded module, read off its graded
    class character by peeling from the highest grade down.

    The radical filtration of a graded module is graded, so the graded
    character is a sum of grade-shifted graded simple characters.  A shifted
    simple whose top cell sat above the running maximum grade would make the
    total character positive there, so every cell at the maximum grade is a
    top cell, and the top-cell class (2i mod N, j) pins both the label and
    the shift.  Returns None when the peel fails, which certifies the input
    character is not a sum of shifted graded simple characters.
    """
    if M.grades is None:
        raise RepresentationError(
            "composition counts from the character need a graded module"
        )
    ctx = M.ctx
    N, half = ctx.N, ctx.half
    residual = dict(relative_graded_character(M))
    counts: dict[Label, int] = {}
    while residual:
        g_top = max(g for (_, _, g) in residual)
        lam, sgn = next(
            (lam, sgn) for (lam, sgn, g) in residual if g == g_top
        )
        if lam % 2:
            return None
        i = lam // 2 if lam else half
        j = sgn
        mult = residual[(lam, sgn, g_top)]
        if mult <= 0:
            return None
        shift = g_top - (N - 2 * i)
        for (l2, s2, g2), c in _summand_graded_character(ctx, ("S", i, j)).items():
            cell = (l2, s2, g2 + shift)
            _add_into(residual, cell, -mult * c)
            if residual.get(cell, 0) < 0:
                return None
        counts[(i, j)] = counts.get((i, j), 0) + mult
    return counts


def _lowest_cell(char: dict[tuple[int, int, int], int]) -> tuple[int, int]:
    cells = [(g, (lam, sgn)) for (lam, sgn, g) in char]
    g0, cls = min(cells)
    if char.get((cls[0], cls[1], g0), 0) != 1 or sum(
        1 for (_, _, g) in char if g == g0
    ) != 1:
        raise ConstructionError("summand character has no unique lowest cell")
    return g0, cls


def solve_height_offsets(
    target: dict[tuple[int, int, int], int],
    parts: list[dict[tuple[int, int, int], int]],
) -> list[int] | None:
    """Offsets h_u with target = sum over parts of y^{h_u} * part, or None.

    Correctness of the search: every part has a unique lowest cell, so the
    least remaining cell of the residual can only be matched by placing a
    part whose lowest class equals that cell's class at exactly that height.
    Identical parts are grouped to avoid redundant branching.
    """
    groups: dict[tuple, list[int]] = {}
    keys = []
    for u, ch in enumerate(parts):
        key = tuple(sorted(ch.items()))
        groups.setdefault(key, []).append(u)
        keys.append(key)
    order = sorted(groups)
    remaining = {key: len(groups[key]) for key in order}
    lowest = {key: _lowest_cell(dict(key)) for key in order}
    residual: dict[tuple[int, int, int], int] = {}
    for cell, c in target.items():
        _add_into(residual, cell, c)
    placed: dict[tuple, list[int]] = {key: [] for key in order}

    def rec() -> bool:
        if not residual:
            return all(v == 0 for v in remaining.values())
        if all(v == 0 for v in remaining.values()):
            return False
        g, (lam, sgn) = min((g, (lam, sgn)) for (lam, sgn, g) in residual)
        for key in order:
            if remaining[key] == 0:
                continue
            g0, cls = lowest[key]
            if cls != (lam, sgn):
                continue
            delta = g - g0
            shifted = {(l, s, h + delta): c for (l, s, h), c in dict(key).items()}
            if any(residual.get(cell, 0) < c for cell, c in shifted.items()):
                continue
            for cell, c in shifted.items():
                _add_into(residual, cell, -c)
            remaining[key] -= 1
            placed[key].append(delta)
            if rec():
                return True
            placed[key].pop()
            remaining[key] += 1
            for cell, c in shifted.items():
                _add_into(residual, cell, c)
        return False

    if not rec():
        return None
    taken = {key: list(reversed(placed[key])) for key in order}
    return [taken[keys[u]].pop() for u in range(len(parts))]


# -- fusion rules -----------------------------------------------------------------

def _add_summand(
    ctx: AlgebraContext, out: dict[SummandKey, int], kind: str, two_i: int, j: int, mult: int
) -> None:
    if two_i < 2 or two_i > ctx.N or two_i % 2:
        raise ConstructionError(f"fusion rule produced an out-of-range label {two_i}")
    key = (kind, two_i // 2, j % 2)
    out[key] = out.get(key, 0) + mult


def _fusion_rule(
    ctx: AlgebraContext, i1: int, j1: int, i2: int, j2: int, kind: str, tail: int,
    out: dict[SummandKey, int],
) -> dict[SummandKey, int]:
    """Add to `out` the head kind(N-2|i1-i2|-2l, j1+j2+l), then `tail` copies
    of each P(N-2i1-2i2+2-2l, j1+j2+l-1) of the projective tail, N = n^2.

    There is no tail exactly when 2*i1 - 1 >= N - 2*i2 + 1, i.e.
    i1 + i2 > n^2/2; the head then has N - 2*max(i1, i2) + 1 terms, and
    otherwise 2*min(i1, i2) - 1.
    """
    N, half = ctx.N, ctx.half
    head = N - 2 * max(i1, i2) + 1 if i1 + i2 > half else 2 * min(i1, i2) - 1
    for l in range(head):
        _add_summand(ctx, out, kind, N - 2 * abs(i1 - i2) - 2 * l, j1 + j2 + l, 1)
    for l in range(half - i1 - i2 + 1):
        _add_summand(ctx, out, "P", N - 2 * i1 - 2 * i2 + 2 - 2 * l, j1 + j2 + l - 1, tail)
    return out


def simple_simple_rule(
    ctx: AlgebraContext, i1: int, j1: int, i2: int, j2: int
) -> dict[SummandKey, int]:
    """Expected summands of S(2*i1,j1) (x) S(2*i2,j2): the simples
    S(N-2|i1-i2|-2l), N = n^2, plus a projective tail when i1 + i2 <= n^2/2.
    Both orders give the same multiset."""
    return _fusion_rule(ctx, i1, j1, i2, j2, "S", 1, {})


def projective_simple_rule(
    ctx: AlgebraContext, i1: int, j1: int, i2: int, j2: int
) -> dict[SummandKey, int]:
    """Expected summands of P(2*i1,j1) (x) S(2*i2,j2); always projective:
    the simple-simple rule with S -> P and P -> 2P, after 2P(2i1-2i2-2l) for
    l < i1 - i2."""
    out: dict[SummandKey, int] = {}
    for l in range(i1 - i2):
        _add_summand(ctx, out, "P", 2 * i1 - 2 * i2 - 2 * l, j1 + j2 + l, 2)
    return _fusion_rule(ctx, i1, j1, i2, j2, "P", 2, out)


# -- decomposition engine ---------------------------------------------------------


@dataclass
class DecompositionResult:
    """Outcome of decomposing a module M into simples and projectives.

    When `violations` is nonempty, M is not a direct sum of simples and
    projectives (see `decompose`); `summands` is then empty and only
    `evidence` is meaningful.  `evidence` holds what the verdict is read
    from: "top_counts" t0, the top of M, and "projective_counts" b, the
    numbers of P_k summands: ranks of E^(n^2-1) F^(n^2-1) e_k on M, or t0
    itself when M is the projective cover of its top.
    """

    summands: dict[SummandKey, int]
    evidence: dict = field(default_factory=dict)
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def decompose(M: Representation) -> DecompositionResult:
    """Split M into simple and projective summands, or report why not.

    Every P_k has dimension 2n^2, and P(t0), the projective cover of the
    top t0 of M, maps onto M, so dim M <= 2n^2 sum_k t0_k.  Equality makes
    that map an isomorphism between equal dimensions: M = (+) t0_k P_k,
    with b = t0 and no rank to compute (the cover case).  When 2n^2
    divides dim M, t0 is first solved over F_p (`reps.residue_first`) and
    kept only if 2n^2 sum_k t0'_k = dim M for the F_p tops t0'; else the
    exact sweep decides.  A kept t0' is the exact top:

    1. each F_p Hom dimension bounds the exact one from above, so
       t0' >= t0 label by label (reduction mod p can only lower a rank);
    2. P(t0) maps onto M, so 2n^2 sum_k t0_k >= dim M = 2n^2 sum_k t0'_k;
    3. so t0 = t0', and M is the cover case.

    When 2n^2 does not divide dim M, as for every S (x) S product (odd
    dimension), one exact Hom sweep gives t0 and no F_p top is tried.

    Any other M: one rank per label with t0_k > 0 gives b_k, the number
    of P_k summands (the lemma of `reps.projective_counts`; b <= t0).
    Write M = P(b) (+) N'.  N' maps onto its top t0 - b, so dim N' >=
    sum_k (t0 - b)_k dim S_k, with equality exactly when N' is semisimple.
    So M = (+) (t0 - b)_k S_k (+) b_k P_k exactly when b <= t0 and dim M =
    sum_k 2n^2 b_k + sum_k (t0 - b)_k dim S_k; each condition that fails is
    a violation.  No grading, character or second radical layer is read.

    The ranks run over F_p first too; an F_p rank b' is at most the exact
    b.  If b' passes the identity with the exact t0, let d = b - b' >= 0:
    dim N' = sum_k (t0 - b')_k dim S_k - 2n^2 |d| is at least
    sum_k (t0 - b' - d)_k dim S_k, so sum_k d_k dim S_k >= 2n^2 |d|, which
    forces d = 0 as dim S_k < 2n^2.  Else the exact ranks decide.

    Premises, each with its verifier: the census (`verify_structure_counts`:
    P_k has dimension 2n^2 and simple top and socle S_k, and sum_k dim S_k
    dim P_k = dim u, so P_k = P(S_k) and the S_k are all the simples), and
    those of the lemma: `verify_projective_vs_ideal` and
    `verify_regular_decomposition` (acceptance gate item 5 runs both), and
    u Frobenius (Hausser and Nill, arXiv:math/9904164).
    """
    cover = 2 * M.ctx.N
    if M.dim % cover:
        tops = top_multiplicities(M)
    else:
        tops = residue_first(M, top_multiplicities,
                             lambda t: cover * sum(t.values()) == M.dim)
    if cover * sum(tops.values()) == M.dim:
        return DecompositionResult({("P", *k): m for k, m in tops.items()},
                                   {"top_counts": tops, "projective_counts": dict(tops)})

    def violations(b: dict[Label, int]) -> list[str]:
        out = [f"projective count {m} at {k} exceeds the top count {tops[k]}"
               for k, m in b.items() if m > tops[k]]
        want = sum(cover * m for m in b.values()) + sum(
            (t - b.get(k, 0)) * summand_dim(M.ctx, ("S", *k)) for k, t in tops.items())
        if M.dim != want:
            out.append(f"dimension {M.dim} differs from the {want} of the sum of "
                       f"(t0 - b)_k S_k and b_k P_k")
        return out

    b = residue_first(M, lambda X: projective_counts(X, tops), lambda b: not violations(b))
    evidence = {"top_counts": tops, "projective_counts": b}
    bad = violations(b)
    if bad:
        return DecompositionResult({}, evidence, tuple(bad))
    summands: dict[SummandKey, int] = {("P", *k): m for k, m in b.items()}
    summands.update({("S", *k): t - b.get(k, 0) for k, t in tops.items() if t > b.get(k, 0)})
    return DecompositionResult(summands, evidence)


# -- tables -----------------------------------------------------------------------


def clebsch_gordan_table(ctx: AlgebraContext, kind: str) -> list[dict]:
    """All ordered fusion rows for one product family.

    kind "SxS" tabulates simple (x) simple, kind "PxS" projective (x)
    simple.  Rows are ordered lexicographically; for "SxS" the multiset of
    summands is asserted symmetric under swapping the factors.
    """
    if kind not in ("SxS", "PxS"):
        raise InvalidArgumentError(f"unknown table kind {kind!r}")
    rule = simple_simple_rule if kind == "SxS" else projective_simple_rule
    left_kind = "S" if kind == "SxS" else "P"
    rows = []
    for i1, j1 in all_labels(ctx):
        for i2, j2 in all_labels(ctx):
            summands = rule(ctx, i1, j1, i2, j2)
            if kind == "SxS" and summands != rule(ctx, i2, j2, i1, j1):
                raise ConstructionError(
                    f"fusion rule is not symmetric at ({i1},{j1}) x ({i2},{j2})"
                )
            for key in sorted(summands, key=lambda k: (k[0], -k[1], k[2])):
                rows.append({"left": summand_name((left_kind, i1, j1)),
                             "right": summand_name(("S", i2, j2)),
                             "summand": summand_name(key), "multiplicity": summands[key]})
    return rows


# -- verifiers --------------------------------------------------------------------


@verifier("the one-dimensional module of trivial class is a tensor unit")
def verify_unit_object(ctx: AlgebraContext) -> Counterexamples:
    """S(n^2,0) is a left and right unit on all simples and projectives:
    both products carry the very arrays of the module itself."""
    unit = simple(ctx, ctx.half, 0)
    for kind in ("S", "P"):
        for i, j in all_labels(ctx):
            X = summand_module(ctx, (kind, i, j))
            for T in (tensor(unit, X), tensor(X, unit)):
                same_arrays = (T.kexp, T.khatexp, T.E, T.F) == (X.kexp, X.khatexp, X.E, X.F)
                yield None if same_arrays else f"{T.label} vs {X.label}"


def _cover_certificate(
    T: Representation, expected: dict[SummandKey, int]
) -> str | None:
    """None when `decompose` splits T into the summands `expected`, else
    the counterexample: its violations, or the summands it found.

    This is the one comparison of a tensor product with its fusion rule:
    the S (x) S and P (x) S sweeps both go through it, and a P (x) S
    product passes through the cover case of `decompose`.  The name and
    signature are kept because the ps-cover workload of
    `perfbench/worker.py` calls it as the projective-by-simple verdict.
    """
    dec = decompose(T)
    if not dec.ok:
        return "; ".join(dec.violations)
    if dec.summands != expected:
        return (f"engine found {format_summands(dec.summands)}, "
                f"rule says {format_summands(expected)}")
    return None


@verifier("projective-by-simple products match the fusion rule")
def verify_projective_simple_tensors(ctx: AlgebraContext) -> Counterexamples:
    """Full sweep: P (x) S decomposes per the projective fusion rule.

    Both factor orders go through `decompose` and must give the rule's
    summands, so every summand of these products is projective and the
    multiset is symmetric under swapping.  dim P (x) S is 2n^2 dim S, so
    each product tries the cover case of `decompose`, from F_p tops first.
    """
    for i1, j1 in all_labels(ctx):
        P = projective(ctx, i1, j1)
        for i2, j2 in all_labels(ctx):
            S = simple(ctx, i2, j2)
            expected = projective_simple_rule(ctx, i1, j1, i2, j2)
            for T in (tensor(P, S), tensor(S, P)):
                fail = _cover_certificate(T, expected)
                yield None if fail is None else f"{T.label}: {fail}"


@verifier(
    "simple-by-simple products match the fusion rule, every summand is "
    "simple or projective, and the mixed case with i1 > i2 reads both "
    "factors as simple"
)
def verify_simple_simple_tensors(ctx: AlgebraContext) -> Counterexamples:
    """Full sweep: S (x) S decomposes per the fusion rule.

    Every ordered pair runs through `decompose`, which decides the splitting
    from its top and projective counts.  A passing sweep also decides the two other
    claims in the statement:

    * every summand is simple or projective: each pair needs `dec.ok` and
      `dec.summands == rule`, the rule only has S and P keys, and `decompose`
      only emits S and P keys;
    * the mixed case with i1 > i2 reads both factors as simple: each pair
      checks that the rule's summands total (N-2*i1+1)(N-2*i2+1) = dim S (x) S
      with N = n^2, and that never equals 2N(N-2*i2+1) = dim P (x) S,
      because N-2*i1+1 < 2N.
    """
    for i1, j1 in all_labels(ctx):
        for i2, j2 in all_labels(ctx):
            expected = simple_simple_rule(ctx, i1, j1, i2, j2)
            dim_ss = (ctx.N - 2 * i1 + 1) * (ctx.N - 2 * i2 + 1)
            if _total_dim(ctx, expected) != dim_ss:
                yield (
                    f"S({2 * i1},{j1})(x)S({2 * i2},{j2}): "
                    f"rule dimensions add to {_total_dim(ctx, expected)}"
                )
            T = tensor(simple(ctx, i1, j1), simple(ctx, i2, j2))
            fail = _cover_certificate(T, expected)
            yield None if fail is None else f"{T.label}: {fail}"


@verifier("sampled simple-by-simple products are isomorphic to the stated sums")
def verify_simple_tensor_isomorphisms(ctx: AlgebraContext) -> Counterexamples:
    """Explicit intertwiner checks for one S (x) S pair from each case."""
    h = ctx.half
    pairs = [
        (h - 2, 1, h - 1, 0),  # all-simple case, i1 <= i2
        (h - 1, 0, h - 3, 1),  # all-simple case, i1 > i2
        (h // 2, 0, h // 2, 0),  # projective tail, i1 <= i2
        (h - 2, 0, 2, 1),  # projective tail, i1 > i2
    ]
    for i1, j1, i2, j2 in pairs:
        T = tensor(simple(ctx, i1, j1), simple(ctx, i2, j2))
        expected = simple_simple_rule(ctx, i1, j1, i2, j2)
        parts = []
        for key in sorted(expected, key=lambda k: (k[0], -k[1], k[2])):
            parts.extend([summand_module(ctx, key)] * expected[key])
        X = direct_sum(parts, f"expected({T.label})")
        yield None if iso_test(T, X) else T.label


@verifier("sampled projective-by-simple products pass the full engine")
def verify_projective_tensor_engine_samples(ctx: AlgebraContext) -> Counterexamples:
    """Rank cross-check of the cover case of `decompose` on P (x) S.

    The sweep reads each product as the projective cover of its top from
    dimensions alone; here the projective counts decide instead.  With the
    exact top t0, b = `projective_counts` over F_p first (`residue_first`)
    must equal t0 and the tops of the rule.  An F_p rank b' satisfies
    b' <= b <= t0, so b' = t0 decides b = t0, and then M = P(b) (+) N'
    with N' of top t0 - b = 0, so N' = 0 and M = (+) t0_k P_k.
    """
    h = ctx.half
    samples = [
        (h, 0, h - 1, 1),
        (h, 1, h, 0),
        (h // 2, 0, h // 2 + 1, 1),
        (1, 0, h, 0),
        (h - 2, 1, 2, 0),
    ]
    for i1, j1, i2, j2 in samples:
        T = tensor(projective(ctx, i1, j1), simple(ctx, i2, j2))
        expected = projective_simple_rule(ctx, i1, j1, i2, j2)
        want = {(i, j): m for (_, i, j), m in expected.items()}
        tops = top_multiplicities(T)
        b = residue_first(T, lambda X: projective_counts(X, tops), lambda c: c == tops)
        yield None if b == tops == want else (
            f"{T.label}: top {tops} and projective counts {b}, "
            f"rule says {format_summands(expected)}")


@verifier("fusion with the three-dimensional simples")
def verify_three_dim_fusion(ctx: AlgebraContext) -> Counterexamples:
    """Products with the three-dimensional simples, fully instantiated.

    S(n^2,j1) (x) S(n^2-2,j2) is the matching three-dimensional simple;
    S(2,j1) (x) S(n^2-2,j2) adds one projective; for 2 <= i <= n^2/2 - 1
    the product S(2i,j1) (x) S(n^2-2,j2) is the three-term ladder.

    The stated sums are checked against `simple_simple_rule`, and the first
    two by explicit isomorphisms.  Engine agreement is not repeated: the
    S (x) S sweep in `verify_simple_simple_tensors` decides engine = rule on
    every pair, these included.  One instance counts per ladder pair; the
    S(2,j1) case yields only on a rule mismatch.
    """
    h = ctx.half
    for j1 in (0, 1):
        for j2 in (0, 1):
            T = tensor(simple(ctx, h, j1), simple(ctx, h - 1, j2))
            yield None if iso_test(T, simple(ctx, h - 1, (j1 + j2) % 2)) else T.label
            T = tensor(simple(ctx, 1, j1), simple(ctx, h - 1, j2))
            expected = {
                ("S", 2, (j1 + j2) % 2): 1,
                ("P", 1, (j1 + j2 + 1) % 2): 1,
            }
            if expected != simple_simple_rule(ctx, 1, j1, h - 1, j2):
                yield f"{T.label}: stated sum disagrees with the general rule"
            parts = [
                simple(ctx, 2, (j1 + j2) % 2),
                projective(ctx, 1, (j1 + j2 + 1) % 2),
            ]
            yield None if iso_test(T, direct_sum(parts, f"expected({T.label})")) else (
                f"{T.label}: no explicit isomorphism to the stated sum"
            )
            for i in range(2, h):
                expected = {
                    ("S", i + 1, (j1 + j2) % 2): 1,
                    ("S", i, (j1 + j2 + 1) % 2): 1,
                    ("S", i - 1, (j1 + j2) % 2): 1,
                }
                yield None if expected == simple_simple_rule(ctx, i, j1, h - 1, j2) else (
                    f"S({2 * i},{j1})(x)S({2 * (h - 1)},{j2}): "
                    "ladder disagrees with the general rule"
                )


@verifier("graded characters tile every fusion product")
def verify_graded_character_rules(ctx: AlgebraContext) -> Counterexamples:
    """Graded class character identities behind the fusion rules.

    First the projective characters: each tiles as the partner simple at
    heights 0 and n^2 plus two shifted copies of its own simple.  Then
    every fusion rule: the convolution of the factor characters is tiled
    exactly by the summand characters at some heights.
    """
    for i, j in all_labels(ctx):
        pchar = _summand_graded_character(ctx, ("P", i, j))
        ip, jp = partner_label(ctx, i, j)
        small = _summand_graded_character(ctx, ("S", ip, jp))
        own = _summand_graded_character(ctx, ("S", i, j))
        want: dict[tuple[int, int, int], int] = {}
        for (lam, sgn, g), c in small.items():
            for delta in (0, ctx.N):
                key = (lam, sgn, g + delta)
                want[key] = want.get(key, 0) + c
        for (lam, sgn, g), c in own.items():
            key = (lam, sgn, g + 2 * i - 1)
            want[key] = want.get(key, 0) + 2 * c
        yield None if pchar == want else f"P({2 * i},{j})"
    for left_kind, rule in (("S", simple_simple_rule), ("P", projective_simple_rule)):
        for i1, j1 in all_labels(ctx):
            lchar = _summand_graded_character(ctx, (left_kind, i1, j1))
            for i2, j2 in all_labels(ctx):
                prod = char_product(
                    ctx, lchar, _summand_graded_character(ctx, ("S", i2, j2))
                )
                parts = []
                for key, m in rule(ctx, i1, j1, i2, j2).items():
                    parts.extend([_summand_graded_character(ctx, key)] * m)
                tiled = solve_height_offsets(prod, parts) is not None
                yield None if tiled else f"{left_kind}({2 * i1},{j1})(x)S({2 * i2},{j2})"


def tensor_reports(ctx: AlgebraContext) -> list[CheckReport]:
    """All tensor-layer verifications in dependency order."""
    return [
        verify_unit_object(ctx),
        verify_graded_character_rules(ctx),
        verify_three_dim_fusion(ctx),
        verify_simple_tensor_isomorphisms(ctx),
        verify_projective_simple_tensors(ctx),
        verify_projective_tensor_engine_samples(ctx),
        verify_simple_simple_tensors(ctx),
    ]
