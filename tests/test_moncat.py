"""Tensor products, fusion rules, and the decomposition engine."""

import random
from fractions import Fraction

import pytest

from uqsl2 import moncat, reps
from uqsl2.errors import (
    ContextMismatchError,
    DivisionByZeroError,
    InvalidArgumentError,
    RepresentationError,
)
from uqsl2.moncat import (
    _cover_certificate,
    clebsch_gordan_table,
    composition_counts,
    decompose,
    projective_simple_rule,
    relative_graded_character,
    simple_simple_rule,
    solve_height_offsets,
    summand_dim,
    summand_name,
    tensor,
    verify_unit_object,
)
from uqsl2.cyclo import _add_into
from uqsl2.qgroup import AlgebraContext
from uqsl2.quasihopf import QuasiHopfData, axiom_reports
from uqsl2.linalg import Echelon, nullspace_basis, rank
from uqsl2.reps import (
    Representation,
    all_labels,
    direct_sum,
    family_T,
    family_W,
    first_radical_layers,
    hom_from_simple,
    partner_label,
    projective,
    simple,
    socle_multiplicities,
    top_multiplicities,
    transpose,
    verma,
)

from oracles import radical, sub_rep


def test_tensor_bookkeeping(actx):
    A = simple(actx, 7, 0)
    B = simple(actx, 6, 1)
    T = tensor(A, B)
    assert T.dim == A.dim * B.dim
    assert T.label == f"{A.label}(x){B.label}"
    # group exponents and grades add coordinate-wise
    for a in range(A.dim):
        for b in range(B.dim):
            c = a * B.dim + b
            assert T.kexp[c] == (A.kexp[a] + B.kexp[b]) % actx.N
            assert T.khatexp[c] == (A.khatexp[a] + B.khatexp[b]) % actx.N
            assert T.grades[c] == A.grades[a] + B.grades[b]
    rep = T.check_relations()
    assert rep.passed, rep.counterexample


def test_tensor_rejects_mixed_contexts(actx):
    other = AlgebraContext(4)
    with pytest.raises(ContextMismatchError):
        tensor(simple(actx, 8, 0), simple(other, 8, 0))
    # a residue module's F_p entries are not exact coefficients
    S = simple(actx, 3, 1)
    for M, N in ((S.mod_p(), S), (S, S.mod_p())):
        with pytest.raises(ContextMismatchError, match="exact coefficients"):
            tensor(M, N)


def tensor_action_from_coproduct(qh, M, N, x):
    """Matrix of x on M (x) N computed literally from the coproduct: every
    term of D(x) acts leg by leg through the two factor modules, with no
    grouping of the terms."""
    ctx = qh.actx
    dN = N.dim
    out = {}
    for (key_l, key_r), s in qh.delta(x).terms.items():
        A = M.act_matrix(ctx.monomial(*key_l))
        B = N.act_matrix(ctx.monomial(*key_r))
        for ca, cola in A.items():
            for cb, colb in B.items():
                col = out.setdefault(ca * dN + cb, {})
                for ra, sa in cola.items():
                    for rb, sb in colb.items():
                        _add_into(col, ra * dN + rb, s * sa * sb)
    return {c: col for c, col in out.items() if col}


def _oracle_pairs(ctx):
    """Factor pairs with trivial and nontrivial k-classes on either side,
    projective factors among them, then the 20 products that a seeded draw
    from Random(0) gives: a projective left factor one time in four, and
    the factors swapped one time in two."""
    h = ctx.half
    pairs = [
        (simple(ctx, h, 0), simple(ctx, h, 1)),
        (simple(ctx, h - 1, 0), simple(ctx, h, 1)),
        (simple(ctx, h, 1), simple(ctx, h - 1, 0)),
        (simple(ctx, h - 1, 0), simple(ctx, h - 1, 1)),
        (simple(ctx, h - 2, 1), simple(ctx, h - 1, 0)),
        (simple(ctx, h, 1), projective(ctx, h, 0)),
        (projective(ctx, h, 0), simple(ctx, h - 1, 1)),
        (simple(ctx, h - 1, 1), projective(ctx, h - 1, 0)),
    ]
    rng = random.Random(0)
    labels = all_labels(ctx)
    for _ in range(20):
        i1, j1 = labels[rng.randrange(len(labels))]
        i2, j2 = labels[rng.randrange(len(labels))]
        M = projective(ctx, i1, j1) if rng.random() < 0.25 else simple(ctx, i1, j1)
        N = simple(ctx, i2, j2)
        pairs.append((N, M) if rng.random() < 0.5 else (M, N))
    return pairs


def test_tensor_action_matches_coproduct(actx, qh):
    """The tensor columns agree with a literal application of the
    coproduct terms, generator by generator."""
    M = simple(actx, 6, 0)
    N = projective(actx, 8, 1)
    T = tensor(M, N)
    for x in (actx.E, actx.F, actx.k, actx.khat):
        assert T.act_matrix(x) == tensor_action_from_coproduct(qh, M, N, x)


def test_tensor_matches_the_coproduct_oracle(actx, qh):
    """On 28 pairs, every generator acts on M (x) N as the literal
    coproduct says, and the product is a module."""
    pairs = _oracle_pairs(actx)
    assert len(pairs) == 28
    assert sum(1 for M, N in pairs if M.dim == 2 * actx.N or N.dim == 2 * actx.N) >= 3
    for M, N in pairs:
        T = tensor(M, N)
        for x in (actx.E, actx.F, actx.k, actx.khat):
            assert T.act_matrix(x) == tensor_action_from_coproduct(qh, M, N, x), T.label
        rep = T.check_relations()
        assert rep.passed, (T.label, rep.counterexample)


def test_tensor_refuses_a_bad_factor_on_either_side(actx):
    """A factor whose k-exponent is not a multiple of n has no projectors
    1_i, so the coproduct cannot act on it, in either position."""
    bad = Representation(actx, "x", [2], [7], {}, {})
    S = simple(actx, 1, 0)
    for M, N in ((S, bad), (bad, S)):
        with pytest.raises(RepresentationError, match="not a multiple of n"):
            tensor(M, N)


def test_tensor_follows_the_coproduct(monkeypatch):
    """Scaling one term of D(E) breaks the axiom suite and a tensor
    product alike: `tensor` reads the coproduct that the axioms check."""
    init = QuasiHopfData.__init__

    def perturbed(self, actx):
        init(self, actx)
        key, s = next(iter(self.delta_E.terms.items()))
        self.delta_E = self.delta_E + type(self.delta_E)(actx, 2, {key: s})

    monkeypatch.setattr(QuasiHopfData, "__init__", perturbed)
    ctx = AlgebraContext(4)  # fresh, so no memo holds the true coproduct
    failed = {rep.statement for rep in axiom_reports(QuasiHopfData(ctx)) if not rep.passed}
    assert "coproduct respects the defining relations" in failed
    T = tensor(simple(ctx, 1, 0), simple(ctx, 1, 0))
    rep = T.check_relations()
    assert not rep.passed


def test_unit_object_is_tensor_identity(actx):
    rep = verify_unit_object(actx)
    assert rep.passed, rep.counterexample


def test_act_identity_and_generators(actx):
    M = simple(actx, 6, 1)
    one = actx.field.one
    ident = {c: {c: one} for c in range(M.dim)}
    assert M.act_matrix(actx.one_elem) == ident
    assert M.act_matrix(actx.E) == M.E
    assert M.act_matrix(actx.F) == M.F
    # the sixteen weight idempotents resolve the identity on any module
    total = {}
    for i, j in all_labels(actx):
        for c, col in M.act_matrix(actx.idempotent_e(i, j)).items():
            for r, s in col.items():
                acc = total.setdefault(c, {})
                v = acc.get(r, actx.field.zero) + s
                if v.is_zero():
                    acc.pop(r, None)
                else:
                    acc[r] = v
    assert total == ident


def test_simple_fusion_frozen_instances(actx):
    # smallest simple squared: one simple plus the full projective ladder
    assert simple_simple_rule(actx, 1, 0, 1, 0) == {
        ("S", 8, 0): 1,
        ("P", 7, 1): 1,
        ("P", 6, 0): 1,
        ("P", 5, 1): 1,
        ("P", 4, 0): 1,
        ("P", 3, 1): 1,
        ("P", 2, 0): 1,
        ("P", 1, 1): 1,
    }
    # middle simple squared: ladder of simples, one projective tail term
    assert simple_simple_rule(actx, 4, 0, 4, 0) == {
        ("S", 8, 0): 1,
        ("S", 7, 1): 1,
        ("S", 6, 0): 1,
        ("S", 5, 1): 1,
        ("S", 4, 0): 1,
        ("S", 3, 1): 1,
        ("S", 2, 0): 1,
        ("P", 1, 1): 1,
    }
    # tensoring with the one-dimensional simple twists the sign label
    assert simple_simple_rule(actx, 8, 1, 7, 0) == {("S", 7, 1): 1}
    for i, j in all_labels(actx):
        assert simple_simple_rule(actx, 8, 0, i, j) == {("S", i, j): 1}
        assert simple_simple_rule(actx, 8, 1, i, j) == {("S", i, 1 - j): 1}


def test_projective_fusion_frozen_instance(actx):
    assert projective_simple_rule(actx, 8, 0, 7, 1) == {
        ("P", 1, 1): 2,
        ("P", 7, 1): 1,
    }


def test_fusion_rules_preserve_dimension(actx):
    N = actx.N
    for i1, j1 in all_labels(actx):
        for i2, j2 in all_labels(actx):
            d1, d2 = N - 2 * i1 + 1, N - 2 * i2 + 1
            ss = simple_simple_rule(actx, i1, j1, i2, j2)
            assert sum(summand_dim(actx, k) * m for k, m in ss.items()) == d1 * d2
            ps = projective_simple_rule(actx, i1, j1, i2, j2)
            assert sum(summand_dim(actx, k) * m for k, m in ps.items()) == 2 * N * d2


def test_simple_fusion_is_symmetric(actx):
    for i1, j1 in all_labels(actx):
        for i2, j2 in all_labels(actx):
            assert simple_simple_rule(actx, i1, j1, i2, j2) == simple_simple_rule(
                actx, i2, j2, i1, j1
            )


def test_fusion_table_rows(actx):
    tab = clebsch_gordan_table(actx, "SxS")

    def rows_for(left, right):
        return {
            (r["summand"], r["multiplicity"])
            for r in tab
            if r["left"] == left and r["right"] == right
        }

    # one-dimensional times the near-top simple
    assert rows_for("S(16,1)", "S(14,0)") == {("S(14,1)", 1)}
    # middle simples against the near-top simple: three-term ladder
    assert rows_for("S(4,0)", "S(14,0)") == {
        ("S(6,0)", 1),
        ("S(4,1)", 1),
        ("S(2,0)", 1),
    }
    # lowest simple against the near-top simple picks up a projective
    assert rows_for("S(2,0)", "S(14,0)") == {("S(4,0)", 1), ("P(2,1)", 1)}

    ptab = clebsch_gordan_table(actx, "PxS")
    prows = {
        (r["summand"], r["multiplicity"])
        for r in ptab
        if r["left"] == "P(16,0)" and r["right"] == "S(14,1)"
    }
    assert prows == {("P(2,1)", 2), ("P(14,1)", 1)}

    with pytest.raises(InvalidArgumentError):
        clebsch_gordan_table(actx, "QxQ")


def test_engine_decomposes_frozen_products(actx):
    T = tensor(simple(actx, 1, 0), simple(actx, 1, 0))
    res = decompose(T)
    assert res.ok, res.violations
    assert res.summands == simple_simple_rule(actx, 1, 0, 1, 0)
    assert T.dim == 225

    T2 = tensor(simple(actx, 2, 0), simple(actx, 3, 1))
    res2 = decompose(T2)
    assert res2.ok, res2.violations
    assert res2.summands == simple_simple_rule(actx, 2, 0, 3, 1)
    assert T2.dim == 143
    # the projective tail is read off the ranks of E^(n^2-1) F^(n^2-1)
    tail = {(i, j): m for (kind, i, j), m in res2.summands.items() if kind == "P"}
    assert res2.evidence == {"top_counts": top_multiplicities(T2), "projective_counts": tail}


def test_no_module_is_solved_twice_for_a_label(actx, monkeypatch):
    # A solve is keyed by the module's label and dimension, not its id:
    # transpose builds a fresh M^t on every call, so a repeated solve on
    # M^t would arrive on a new object.
    calls = []
    solve = reps.hom_from_simple

    def spy(M, i, j, dim_only=False):
        calls.append((M.label, M.dim, i, j))
        return solve(M, i, j, dim_only)

    monkeypatch.setattr(reps, "hom_from_simple", spy)
    # (1,0)x(7,1) has a projective tail, so the engine walks two radical
    # layers; (5,0)x(6,1) is semisimple.
    for (i1, j1), (i2, j2) in (((1, 0), (7, 1)), ((5, 0), (6, 1))):
        res = decompose(tensor(simple(actx, i1, j1), simple(actx, i2, j2)))
        assert res.summands == simple_simple_rule(actx, i1, j1, i2, j2)
    reps.syzygy(simple(actx, 3, 0))
    assert calls
    repeated = sorted({c for c in calls if calls.count(c) > 1})
    assert not repeated, repeated[:4]


def test_fresh_context_has_cold_memo(actx):
    from uqsl2.qgroup import AlgebraContext

    key = ("graded_char", ("S", 3, 1))
    warm = composition_counts(simple(actx, 3, 1))
    assert key in actx.memo
    fresh = AlgebraContext(4)
    assert fresh.memo == {}
    cold = composition_counts(simple(fresh, 3, 1))
    assert fresh.memo[key] is not actx.memo[key]
    assert cold == warm == {(3, 1): 1}


def test_peel_counts_known_modules(actx):
    assert composition_counts(simple(actx, 3, 1)) == {(3, 1): 1}
    assert composition_counts(projective(actx, 2, 0)) == {(2, 0): 2, (7, 1): 2}
    assert composition_counts(verma(actx, 5, 0)) == {(5, 0): 1, (4, 1): 1}
    W = family_W(actx, 2, 0, 2)
    counts = composition_counts(W)
    assert counts is not None
    assert sum((actx.N - 2 * i + 1) * m for (i, j), m in counts.items()) == W.dim

    S = simple(actx, 4, 0)
    ungraded = Representation(actx, "u", S.kexp, S.khatexp, S.E, S.F, None)
    with pytest.raises(RepresentationError):
        composition_counts(ungraded)


def test_decompose_rejects_zigzag_module(actx):
    W = family_W(actx, 2, 0, 2)
    res = decompose(W)
    assert not res.ok
    assert res.summands == {}
    assert W.dim == 32
    assert res.violations
    assert "top_counts" in res.evidence


def _without_grades(M):
    return Representation(M.ctx, f"{M.label}/ungraded", M.kexp, M.khatexp, M.E, M.F, None)


def _no_peel(M):
    raise AssertionError("decompose reached the graded-character peel")


def test_decompose_handles_direct_sums_with_simples(actx, monkeypatch):
    M = direct_sum([simple(actx, 5, 1), projective(actx, 3, 0)], "SplusP")
    res = decompose(M)
    assert res.ok, res.violations
    assert res.summands == {("S", 5, 1): 1, ("P", 3, 0): 1}
    # decompose reads no grading: an ungraded copy takes the same path
    monkeypatch.setattr(moncat, "composition_counts", _no_peel)
    ungraded = decompose(_without_grades(M))
    assert ungraded.ok, ungraded.violations
    assert (ungraded.summands, ungraded.evidence) == (res.summands, res.evidence)


def test_height_offset_solver():
    A = {(0, 0, 0): 1, (2, 1, 1): 1}
    B = {(4, 0, 0): 1}

    def shift(ch, h):
        return {(l, s, g + h): c for (l, s, g), c in ch.items()}

    def add(*chs):
        out = {}
        for ch in chs:
            for cell, c in ch.items():
                out[cell] = out.get(cell, 0) + c
        return out

    target = add(shift(A, 0), shift(B, 2))
    assert solve_height_offsets(target, [A, B]) == [0, 2]
    # identical parts at distinct heights come back sorted
    target2 = add(shift(B, 0), shift(B, 5))
    assert sorted(solve_height_offsets(target2, [B, B])) == [0, 5]
    # an unmatchable residual cell reports failure
    assert solve_height_offsets(add(shift(A, 0), {(7, 1, 0): 1}), [A, B]) is None


def test_projective_graded_character_identity(actx):
    for (i, j) in ((1, 0), (2, 0), (5, 1)):
        P = projective(actx, i, j)
        ip, jp = partner_label(actx, i, j)
        own = relative_graded_character(simple(actx, i, j))
        other = relative_graded_character(simple(actx, ip, jp))
        want = {}
        for (l, s, g), c in other.items():
            for h in (0, actx.N):
                cell = (l, s, g + h)
                want[cell] = want.get(cell, 0) + c
        for (l, s, g), c in own.items():
            cell = (l, s, g + 2 * i - 1)
            want[cell] = want.get(cell, 0) + 2 * c
        assert relative_graded_character(P) == want


def test_summand_names(actx):
    assert summand_name(("S", 7, 1)) == "S(14,1)"
    assert summand_name(("P", 1, 0)) == "P(2,0)"
    assert summand_dim(actx, ("S", 7, 1)) == 3
    assert summand_dim(actx, ("P", 1, 0)) == 32


# -- the P (x) S cover certificate over F_p and its exact fallback -------------------


def _fusion_case(ctx, i1, i2):
    """Which of the four fusion cases (projective tail or not, i1 <= i2 or
    not) a label pair is in."""
    return (2 * i1 - 1 >= ctx.N - 2 * i2 + 1, i1 <= i2)


def _sampled_ps_products(ctx):
    """Six of the 512 P(x)S / S(x)P products, drawn with Random(0): one per
    fusion case, then two more, with the factor order alternating.

    Products are kept to dim <= 288; a case with nothing that small (i1 > i2
    with a projective tail needs dim S(2i2) >= 11) takes its smallest dim.
    """
    rng = random.Random(0)
    labels = all_labels(ctx)
    pairs = [(a, b) for a in labels for b in labels]

    def dim(pair):
        return 2 * ctx.N * (ctx.N - 2 * pair[1][0] + 1)

    picks = []
    for case in sorted({_fusion_case(ctx, a[0], b[0]) for a, b in pairs}):
        pool = [pr for pr in pairs if _fusion_case(ctx, pr[0][0], pr[1][0]) == case]
        cap = max(288, min(dim(pr) for pr in pool))
        picks.append(rng.choice([pr for pr in pool if dim(pr) <= cap]))
    picks += rng.sample([pr for pr in pairs if dim(pr) <= 288], 2)
    out = []
    for k, ((i1, j1), (i2, j2)) in enumerate(picks):
        P, S = projective(ctx, i1, j1), simple(ctx, i2, j2)
        T = tensor(P, S) if k % 2 == 0 else tensor(S, P)
        out.append((T, projective_simple_rule(ctx, i1, j1, i2, j2), _fusion_case(ctx, i1, i2)))
    return out


def test_residue_tops_match_exact_tops(actx):
    products = _sampled_ps_products(actx)
    assert len({case for _, _, case in products}) == 4
    assert {T.label[0] for T, _, _ in products} == {"P", "S"}
    for T, expected, _ in products:
        R = T.mod_p()
        assert R.field is actx.field.residue_field()
        for i, j in composition_counts(T):
            got = top_multiplicities(R, [(i, j)])
            assert got == top_multiplicities(T, [(i, j)]), (T.label, i, j)
        assert _cover_certificate(T, expected) is None


def _spy_hom_fields(monkeypatch):
    """Record the field of every Hom solve the certificate makes."""
    seen = []
    real = reps.hom_from_simple

    def spy(M, i, j, dim_only=False):
        seen.append(M.field)
        return real(M, i, j, dim_only)

    monkeypatch.setattr(reps, "hom_from_simple", spy)
    return seen


def _small_product(ctx):
    return tensor(projective(ctx, 2, 0), simple(ctx, 7, 1)), projective_simple_rule(ctx, 2, 0, 7, 1)


def test_cover_certificate_falls_back_on_a_broken_residue_module(actx, monkeypatch):
    T, expected = _small_product(actx)
    real = Representation.mod_p

    def zero_one_entry(self):
        # E sends basis vector 48 = (16, 0) of P(4,0) (x) S(14,1) to 49 and 51;
        # without the first arrow the mod-p tops shrink to {(3, 1): 1}.
        R = real(self)
        del R.E[48][49]
        return R

    monkeypatch.setattr(Representation, "mod_p", zero_one_entry)
    seen = _spy_hom_fields(monkeypatch)
    assert _cover_certificate(T, expected) is None
    residue = actx.field.residue_field()
    assert residue in seen and actx.field in seen  # mod-p tops mismatched, exact decided
    assert seen[-1] is actx.field


def test_cover_certificate_failure_strings_are_the_exact_ones(actx, monkeypatch):
    """A wrong rule gets the summands `decompose` found, and the strings
    are those of a run with no F_p module: an accepted F_p top is the exact
    top, so F_p never changes what a failure says."""
    T, expected = _small_product(actx)
    bumped = dict(expected)
    bumped[("P", 1, 1)] += 1
    # One summand moved to its block partner keeps the dimension and the
    # class in K0, so only the tops can tell.
    moved = dict(expected)
    del moved[("P", 1, 1)]
    moved[("P", 8, 0)] = 1
    found = "engine found P(6,1) + P(4,0) + P(2,1)"
    want = [f"{found}, rule says P(6,1) + P(4,0) + 2*P(2,1)",
            f"{found}, rule says P(16,0) + P(6,1) + P(4,0)"]
    seen = _spy_hom_fields(monkeypatch)
    assert [_cover_certificate(T, rule) for rule in (bumped, moved)] == want
    assert seen and all(field is actx.field.residue_field() for field in seen)

    def no_reduction(self):
        raise DivisionByZeroError("no entry reduces mod p")

    monkeypatch.setattr(Representation, "mod_p", no_reduction)
    seen.clear()
    assert [_cover_certificate(T, rule) for rule in (bumped, moved)] == want
    assert seen and all(field is actx.field for field in seen)


def test_cover_certificate_refuses_a_non_p_integral_entry(actx, monkeypatch):
    T, expected = _small_product(actx)
    f = actx.field
    p = f.residue_field().p
    # The same module in a basis whose vector c0 is scaled by 1/p: the E and
    # F entries of column c0 get p in their denominators.
    c0 = next(c for c in sorted(T.E) if c in T.F)
    scale = f.from_fraction(Fraction(1, p))
    unscale = f.from_fraction(p)

    def rescaled(mp):
        out = {}
        for c, col in mp.items():
            out[c] = {
                r: s * (scale if c == c0 else f.one) * (unscale if r == c0 else f.one)
                for r, s in col.items()
            }
        return out

    T2 = Representation(actx, T.label, T.kexp, T.khatexp, rescaled(T.E), rescaled(T.F), T.grades)
    assert any(s.den % p == 0 for s in T2.E[c0].values())
    with pytest.raises(DivisionByZeroError):
        T2.mod_p()
    seen = _spy_hom_fields(monkeypatch)
    assert _cover_certificate(T2, expected) is None
    assert seen and all(field is f for field in seen)


def _no_rank(M, labels):
    raise AssertionError("the cover case computed a projective count")


def test_cover_case_certifies_an_ungraded_product(actx, monkeypatch):
    """The cover case reads dimensions and tops only: an ungraded copy of a
    P(x)S product gets the graded product's summands and evidence, with no
    graded-character peel and no rank."""
    T, expected = _small_product(actx)
    monkeypatch.setattr(moncat, "composition_counts", _no_peel)
    monkeypatch.setattr(moncat, "projective_counts", _no_rank)
    graded, ungraded = decompose(T), decompose(_without_grades(T))
    assert graded.ok and graded.summands == expected
    tops = {(i, j): m for (_, i, j), m in expected.items()}
    assert graded.evidence == {"top_counts": tops, "projective_counts": tops}
    assert (ungraded.summands, ungraded.evidence) == (graded.summands, graded.evidence)
    assert _cover_certificate(_without_grades(T), expected) is None


def test_decompose_refuses_cover_dimensions_that_are_not_projective(actx, monkeypatch):
    """W(2,0; l=2) and W(1,0; l=2) (x) S(2,0) have dimensions 32 and 480,
    multiples of 2n^2, but tops too large for P(t0) to be M: the F_p tops
    are tried, refused, and the splitting argument refuses the module with
    the violations it gave before the cover case existed.  A cover case
    that took 2n^2 sum t0 >= dim M would accept both."""
    cases = [
        (family_W(actx, 2, 0, 2), 6, {(7, 1): 2}, {}),
        (tensor(family_W(actx, 1, 0, 2), simple(actx, 1, 0)), 478,
         {(1, 1): 4, **{(i, i % 2): 2 for i in range(2, 8)}},
         {(i, i % 2): 2 for i in range(1, 8)}),
    ]
    residue = actx.field.residue_field()
    seen = _spy_hom_fields(monkeypatch)
    for M, want, tops, b in cases:
        assert M.dim % (2 * actx.N) == 0 and 2 * actx.N * sum(tops.values()) > M.dim
        seen.clear()
        res = decompose(M)
        assert seen[0] is residue and seen[-1] is actx.field, M.label
        assert (res.summands, res.violations) == ({}, (
            f"dimension {M.dim} differs from the {want} of the sum of "
            f"(t0 - b)_k S_k and b_k P_k",)), M.label
        assert res.evidence == {"top_counts": tops, "projective_counts": b}, M.label


def test_decompose_solves_no_hom_over_f_p_on_simple_products(actx, monkeypatch):
    """dim S(x)S is odd, so `decompose` never tries F_p tops on it: every
    Hom solve of the sweep runs over Q(zeta)."""
    seen = _spy_hom_fields(monkeypatch)
    for (i1, j1), (i2, j2) in _sampled_ss_products(actx):
        T = tensor(simple(actx, i1, j1), simple(actx, i2, j2))
        assert T.dim % 2 == 1
        seen.clear()
        assert decompose(T).ok, T.label
        assert seen and all(field is actx.field for field in seen), T.label


# -- the guards that left `decompose`, kept as oracles -----------------------------


def _sampled_ss_products(ctx):
    """S(x)S label pairs: one per fusion case, drawn with Random(0), then the
    two frozen products of `test_engine_decomposes_frozen_products`."""
    rng = random.Random(0)
    labels = all_labels(ctx)
    pairs = [(a, b) for a in labels for b in labels]
    picks = []
    for case in sorted({_fusion_case(ctx, a[0], b[0]) for a, b in pairs}):
        pool = [pr for pr in pairs if _fusion_case(ctx, pr[0][0], pr[1][0]) == case]
        picks.append(rng.choice(pool))
    return picks + [((1, 0), (1, 0)), ((2, 0), (3, 1))]


def _radical_layers(M):
    """t0, t1 and t2 read as the tops of M, rad M and rad^2 M by Hom solves,
    with dim rad M and dim rad^2 M."""
    t0, rows = radical(M)
    t1, t2, rad_dim, rad2_dim = {}, {}, len(rows), 0
    if rows:
        R = sub_rep(M, rows, "rad")
        t1, rows = radical(R)
        if rows:
            R2 = sub_rep(R, rows, "rad^2")
            t2, rad2_dim = top_multiplicities(R2), R2.dim
    return t0, t1, t2, rad_dim, rad2_dim


def test_guards_that_left_decompose_agree_with_its_counts(actx):
    """Each guard `decompose` ran before the splitting argument, and the
    graded-character peel, against the verdict it now reads from t0 and the
    projective counts b."""
    N = actx.N
    labels = all_labels(actx)
    dims = {(i, j): N - 2 * i + 1 for i, j in labels}
    picks = _sampled_ss_products(actx)
    assert len({_fusion_case(actx, a[0], b[0]) for a, b in picks}) == 4
    for (i1, j1), (i2, j2) in picks:
        T = tensor(simple(actx, i1, j1), simple(actx, i2, j2))
        res = decompose(T)
        assert res.ok, res.violations
        assert res.summands == simple_simple_rule(actx, i1, j1, i2, j2)
        a = {(i, j): m for (kind, i, j), m in res.summands.items() if kind == "S"}
        b = {(i, j): m for (kind, i, j), m in res.summands.items() if kind == "P"}
        t0, t1, t2, rad_dim, rad2_dim = _radical_layers(T)
        # top = socle
        assert socle_multiplicities(T) == t0 == res.evidence["top_counts"]
        # the rad^2 read: semisimple, equal to b, and equal to the peel's t2
        assert sum(c * dims[k] for k, c in t2.items()) == rad2_dim
        assert t2 == b
        comp = {k: t0.get(k, 0) + t1.get(k, 0) + t2.get(k, 0) for k in labels}
        assert composition_counts(T) == {k: c for k, c in comp.items() if c}
        assert t1 == {k: 2 * b[kp] for k in labels if (kp := partner_label(actx, *k)) in b}
        # the 2x2 block systems: t1 + t2 = 2 b_k' + b_k, determinant -3
        for k in labels:
            kp = partner_label(actx, *k)
            r_k, r_p = t1.get(k, 0) + t2.get(k, 0), t1.get(kp, 0) + t2.get(kp, 0)
            assert (2 * r_p - r_k) % 3 == 0 and (2 * r_p - r_k) // 3 == b.get(k, 0)
        # the dimension checks
        assert rad_dim == sum(m * (2 * N - dims[k]) for k, m in b.items())
        assert T.dim == sum(m * dims[k] for k, m in a.items()) + 2 * N * sum(b.values())
        # the class character and the graded-character tiling
        got = {}
        parts = []
        for key, m in res.summands.items():
            for cls, c in moncat.summand_module(actx, key).character().items():
                got[cls] = got.get(cls, 0) + m * c
            parts += [relative_graded_character(moncat.summand_module(actx, key))] * m
        assert T.character() == got
        assert solve_height_offsets(relative_graded_character(T), parts) is not None


def test_decompose_makes_one_hom_sweep_per_product(actx, monkeypatch):
    """t0 takes one Hom solve per label; the projective counts are ranks and
    take none, so there is no second sweep."""
    calls = []
    real = reps.hom_from_simple

    def spy(M, i, j, dim_only=False):
        calls.append((M.label, i, j))
        return real(M, i, j, dim_only)

    monkeypatch.setattr(reps, "hom_from_simple", spy)
    for (i1, j1), (i2, j2) in _sampled_ss_products(actx):
        calls.clear()
        assert decompose(tensor(simple(actx, i1, j1), simple(actx, i2, j2))).ok
        assert len(calls) <= len(all_labels(actx)), (i1, j1, i2, j2, len(calls))


def _near_misses(actx):
    """(M, b) for two modules with the top of S (+) P, or of P (+) P, that
    are not a sum of simples and projectives, with b their P_k summands."""
    k = (3, 0)
    P = projective(actx, *k)
    # P_k / soc P_k: the transpose of rad(P_k^t), the annihilator of soc P_k
    Pt = transpose(P)
    Q = transpose(sub_rep(Pt, radical(Pt)[1], "rad(P^t)"))
    assert Q.dim == P.dim - simple(actx, *k).dim
    # (P_k (+) P_k) / diagonal socle: the transpose of its annihilator, and
    # isomorphic to P_k (+) P_k / soc P_k
    PP = direct_sum([P, P], "P+P")
    (socle,) = hom_from_simple(P, *k)
    diagonal = [{**v, **{r + P.dim: s for r, s in v.items()}} for v in socle.values()]
    ann = nullspace_basis(actx.field, diagonal, PP.dim)
    Y = transpose(sub_rep(transpose(PP), ann, "ann"))
    return [(direct_sum([Q, simple(actx, *k)], "P/soc+S"), {}), (Y, {k: 1})]


def test_decompose_rejects_near_misses(actx):
    """Modules with the top of S (+) P, or of P (+) P, that are not sums of
    simples and projectives, graded and ungraded alike: the ranks find the
    projective summands they have, and the rest is too big to be the
    semisimple (t0 - b)_k S_k."""
    k = (3, 0)
    d = simple(actx, *k).dim
    for M, b in _near_misses(actx):
        assert M.check_relations().passed
        want = 2 * actx.N * sum(b.values()) + (2 - sum(b.values())) * d
        violation = (f"dimension {M.dim} differs from the {want} of the sum of "
                     f"(t0 - b)_k S_k and b_k P_k",)
        for X in (M, _without_grades(M)):
            res = decompose(X)
            assert not res.ok, X.label
            assert (res.summands, res.violations) == ({}, violation), X.label
            assert res.evidence == {"top_counts": {k: 2}, "projective_counts": b}


def _reduced_span(field, vectors):
    """A basis of the span of `vectors` in reduced echelon form: each row is
    1 at its pivot and 0 at every other pivot, the private unit coordinate
    that `sub_rep` reads."""
    ech = Echelon(field)
    for vec in vectors:
        ech.add(vec)
    done = Echelon(field)
    for col in sorted(ech.pivot_rows, reverse=True):
        done.pivot_rows[col] = done.reduce(ech.pivot_rows[col])
    return list(done.pivot_rows.values())


def test_first_layers_by_quotient_match_the_radical_oracle(actx):
    """t0, dim rad M and t1 read through M^t / soc M^t equal the tops of M
    and of rad M built as a submodule by `radical` and `sub_rep`, on S(x)S
    products, the near misses graded and ungraded, a T-family product and a
    residue-field module; and soc M^t, the span the quotient divides out,
    is a submodule of M^t, as `first_radical_layers` argues."""
    f = actx.field
    modules = [tensor(simple(actx, *a), simple(actx, *b)) for a, b in _sampled_ss_products(actx)]
    for M, _ in _near_misses(actx):
        modules += [M, _without_grades(M)]
    modules.append(tensor(family_T(actx, 2, 0, 1, f.from_int(2)), simple(actx, 8, 0)))
    modules.append(tensor(projective(actx, 3, 0), simple(actx, 7, 1)).mod_p())
    for M in modules:
        tops, rows = radical(M)
        t1 = top_multiplicities(sub_rep(M, rows, "rad")) if rows else {}
        assert first_radical_layers(M) == (tops, len(rows), t1), M.label
        Mt = transpose(M)
        _, columns = reps._socle_sweep(Mt)
        socle = sub_rep(Mt, _reduced_span(M.field, columns), "soc")
        assert socle.dim == M.dim - len(rows), M.label


# -- the projective counts of `decompose` and their F_p certificate ----------------


def test_projective_counts_find_each_projective(actx):
    """The rank of E^(n^2-1) F^(n^2-1) on the class-chi_k block is 1 on P_k
    at its own label and 0 elsewhere, and 0 on every simple, a W module and
    a Verma module, over Q(zeta) and over F_p alike."""
    labels = all_labels(actx)
    for k in labels:
        P, S = projective(actx, *k), simple(actx, *k)
        for X in (P, P.mod_p()):
            assert reps.projective_counts(X, labels) == {k: 1}, (X.label, X.field)
        for X in (S, S.mod_p()):
            assert reps.projective_counts(X, labels) == {}, (X.label, X.field)
    for X in (family_W(actx, 2, 0, 2), verma(actx, 3, 0)):
        assert reps.projective_counts(X, labels) == {}, X.label


def test_projective_counts_are_ranks_of_the_socle_element(actx):
    """The block rank is the rank of rho_M(w_k) for w_k = E^(n^2-1) alpha_k,
    formed in u and acted by `act_matrix`: rho_M(e_k) projects onto the
    class-chi_k vectors."""
    labels = all_labels(actx)
    w = {k: actx.e_power(actx.N - 1) * actx.alpha_vec(*k) for k in labels}
    for M in (projective(actx, 3, 0), family_W(actx, 2, 0, 2), verma(actx, 3, 0),
              tensor(simple(actx, 1, 0), simple(actx, 7, 0))):
        ranks = {k: rank(M.field, M.act_matrix(w[k]).values()) for k in labels}
        assert reps.projective_counts(M, labels) == {k: r for k, r in ranks.items() if r}, M.label


def test_residue_counts_match_exact_counts_and_radical_layers(actx):
    """On the sampled S(x)S products the F_p counts equal the exact counts
    and the b that the first radical layer gives, b_k = t1_k' / 2."""
    labels = all_labels(actx)
    for (i1, j1), (i2, j2) in _sampled_ss_products(actx):
        T = tensor(simple(actx, i1, j1), simple(actx, i2, j2))
        _, _, t1 = first_radical_layers(T)
        layers = {k: t1[kp] // 2 for k in labels if (kp := partner_label(actx, *k)) in t1}
        exact = reps.projective_counts(T, labels)
        assert reps.projective_counts(T.mod_p(), labels) == exact == layers, T.label


def _spy_count_fields(monkeypatch):
    """Record the field of every projective count `decompose` takes."""
    seen = []
    real = reps.projective_counts

    def spy(M, labels):
        seen.append(M.field)
        return real(M, labels)

    monkeypatch.setattr(moncat, "projective_counts", spy)
    return seen


def test_decompose_falls_back_when_an_entry_will_not_reduce(actx, monkeypatch):
    """`ResidueField.reduce` refusing one entry sends the counts to Q(zeta),
    which give the verdict F_p gives."""
    T = tensor(simple(actx, 1, 0), simple(actx, 7, 1))
    want = decompose(T)
    assert want.ok and want.evidence["projective_counts"]
    real = type(actx.field.residue_field()).reduce
    calls = []

    def refuse_once(self, s):
        calls.append(s)
        if len(calls) == 1:
            raise DivisionByZeroError(f"{s!r} is not p-integral")
        return real(self, s)

    monkeypatch.setattr(type(actx.field.residue_field()), "reduce", refuse_once)
    seen = _spy_count_fields(monkeypatch)
    got = decompose(T)
    assert calls and seen == [actx.field]
    assert (got.summands, got.evidence, got.violations) == (
        want.summands, want.evidence, want.violations)


def test_decompose_falls_back_when_a_residue_rank_drops(actx, monkeypatch):
    """A residue module with one E entry dropped has a smaller F_p rank; the
    identity then fails, and the exact counts decide."""
    M = direct_sum([simple(actx, 5, 1), projective(actx, 3, 0)], "SplusP")
    real = Representation.mod_p

    def drop_one_entry(self):
        # E sends vector 7, the first of P(6,0), to 8; without that arrow
        # E^(n^2-1) F^(n^2-1) vanishes on the class (6, 0) block mod p.
        R = real(self)
        del R.E[7][8]
        return R

    monkeypatch.setattr(Representation, "mod_p", drop_one_entry)
    assert reps.projective_counts(M.mod_p(), all_labels(actx)) == {}
    seen = _spy_count_fields(monkeypatch)
    res = decompose(M)
    assert seen == [actx.field.residue_field(), actx.field]
    assert res.ok, res.violations
    assert res.summands == {("S", 5, 1): 1, ("P", 3, 0): 1}
    assert res.evidence["projective_counts"] == {(3, 0): 1}


def test_engine_samples_cross_check_the_cover_case_by_ranks(actx, monkeypatch):
    """The five samples decide P(x)S by the F_p projective counts, b' = t0,
    not by the cover case; a rule with one summand moved to its block
    partner keeps the dimension and is refused."""
    seen = _spy_count_fields(monkeypatch)
    rep = moncat.verify_projective_tensor_engine_samples(actx)
    assert (rep.passed, rep.instances) == (True, 5)
    assert seen == [actx.field.residue_field()] * 5
    rule = moncat.projective_simple_rule

    def moved(ctx, i1, j1, i2, j2):
        out = dict(rule(ctx, i1, j1, i2, j2))
        kind, i, j = next(iter(out))
        out[(kind, *partner_label(ctx, i, j))] = out.pop((kind, i, j))
        return out

    monkeypatch.setattr(moncat, "projective_simple_rule", moved)
    rep = moncat.verify_projective_tensor_engine_samples(actx)
    assert (rep.passed, rep.instances) == (False, 1)
    assert rep.counterexample.startswith("P(16,0)(x)S(14,1): top "), rep.counterexample


def test_decompose_refuses_a_residue_module(actx):
    """A module made by `mod_p` has no exact field for its counts to fall
    back on, so it reduces no further and `decompose` refuses it."""
    R = direct_sum([simple(actx, 5, 1), projective(actx, 3, 0)], "SplusP").mod_p()
    for run in (R.mod_p, lambda: decompose(R)):
        with pytest.raises(ContextMismatchError):
            run()


def test_decompose_refuses_more_projectives_than_tops(actx, monkeypatch):
    """b <= t0 holds for every module, so only a wrong count can break it;
    `decompose` still refuses to return a negative multiplicity."""
    M = direct_sum([simple(actx, 5, 1), projective(actx, 3, 0)], "SplusP")
    monkeypatch.setattr(moncat, "projective_counts", lambda X, labels: {(5, 1): 2})
    res = decompose(M)
    assert res.summands == {}
    assert "projective count 2 at (5, 1) exceeds the top count 1" in res.violations
