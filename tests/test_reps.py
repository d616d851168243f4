"""Module constructors, Hom spaces, and structure tools."""

import hashlib
import json
import random
import re

import pytest

from uqsl2 import reps
from uqsl2.errors import (
    ConstructionError,
    ContextMismatchError,
    EigendataError,
    InvalidArgumentError,
    RepresentationError,
)
from uqsl2.cyclo import FieldContext, _add_into
from uqsl2.linalg import nullspace_basis, rank
from uqsl2.moncat import simple_simple_rule, summand_module, tensor
from uqsl2.qgroup import AlgebraContext
from uqsl2.reps import (
    all_labels,
    compose_maps,
    cosyzygy,
    direct_sum,
    exps_from_class,
    family_T,
    family_V,
    family_Vt,
    family_W,
    family_Wt,
    hom_from_simple,
    hom_space,
    iso_test,
    partner_label,
    projective,
    rep_to_dict,
    simple,
    socle_multiplicities,
    syzygy,
    top_multiplicities,
    transpose,
    verify_block_structure,
    verify_family_constructors,
    verify_idempotent_system,
    verify_projective_vs_ideal,
    verify_regular_decomposition,
    verma,
)

from oracles import cosyzygy_by_kernel, radical, sub_rep, syzygy_by_kernel


def test_simple_modules(actx):
    N = actx.N
    chars = {}
    for i, j in all_labels(actx):
        S = simple(actx, i, j)
        assert S.dim == N - 2 * i + 1
        rep = S.check_relations()
        assert rep.passed, rep.counterexample
        # classes repeat with period 8 along the strand
        want = {}
        for t in range(S.dim):
            ch = ((-2 * i - 2 * t) % N, (t + j) % 2)
            want[ch] = want.get(ch, 0) + 1
        assert S.character() == want
        chars[(i, j)] = S.character()
    labels = list(chars)
    for a in range(len(labels)):
        for b in range(a + 1, len(labels)):
            assert chars[labels[a]] != chars[labels[b]]
    # the two simples of a block stack into the standard module's character;
    # class counts alone therefore cannot separate a simple from its partner
    for i, j in all_labels(actx):
        partner = partner_label(actx, i, j)
        merged = dict(chars[(i, j)])
        for ch, m in chars[partner].items():
            merged[ch] = merged.get(ch, 0) + m
        assert merged == verma(actx, i, j).character()


def test_schur_between_simples(actx):
    for i1, j1 in all_labels(actx):
        S = simple(actx, i1, j1)
        for i2, j2 in all_labels(actx):
            want = 1 if (i1, j1) == (i2, j2) else 0
            assert hom_from_simple(transpose(S), i2, j2, dim_only=True) == want
            assert hom_from_simple(S, i2, j2, dim_only=True) == want


def test_hom_from_simple_over_the_residue_field(actx):
    # the simple's F coefficients are mapped into the module's field F_p
    assert hom_from_simple(projective(actx, 3, 1).mod_p(), 3, 1, dim_only=True) == 1


def _solver_sample(ctx):
    """Every constructor family at l <= 2 on four labels, four S(x)S and two
    P(x)S products, drawn with Random(4)."""
    rng = random.Random(4)
    labels = all_labels(ctx)
    lam = ctx.field.from_int(2)
    out = []
    for i, j in rng.sample(labels, 4):
        out += [simple(ctx, i, j), verma(ctx, i, j), projective(ctx, i, j)]
        out += [fam(ctx, i, j, l) for fam in (family_V, family_Vt) for l in range(3)]
        out += [fam(ctx, i, j, l) for fam in (family_W, family_Wt) for l in (1, 2)]
        out += [family_T(ctx, i, j, l, lam) for l in (1, 2)]
    small = [lab for lab in labels if simple(ctx, *lab).dim <= 7]
    for _ in range(4):
        out.append(tensor(simple(ctx, *rng.choice(small)), simple(ctx, *rng.choice(small))))
    for _ in range(2):
        out.append(tensor(projective(ctx, *rng.choice(labels)), simple(ctx, *rng.choice(small))))
    return out


def _flat(M, maps):
    """Maps into M as rows over (source column, row of M), for a rank."""
    return [{c * M.dim + r: s for c, col in mp.items() for r, s in col.items()} for mp in maps]


def _hom_space_all_pairs(M, N):
    """Hom(M, N) by brute force, the reference for the spin of `hom_space`
    and for `hom_from_simple`: one unknown for every pair (row r of N,
    column c of M) in the same class, and one equation per entry of
    phi E_M - E_N phi and of phi F_M - F_N phi."""
    nidx = N.class_indices()
    mclass = M.classes()
    variables = []
    var_pos = {}
    for c in range(M.dim):
        for r in nidx.get(mclass[c], ()):
            var_pos[(r, c)] = len(variables)
            variables.append((r, c))
    if not variables:
        return []
    rows = []
    for mapM, mapN in ((M.E, N.E), (M.F, N.F)):
        for c in range(M.dim):
            eq = {}
            for m, a in mapM.get(c, {}).items():
                for r in nidx.get(mclass[m], ()):
                    _add_into(eq.setdefault(r, {}), var_pos[(r, m)], a)
            for s in nidx.get(mclass[c], ()):
                for r, b in mapN.get(s, {}).items():
                    _add_into(eq.setdefault(r, {}), var_pos[(s, c)], -b)
            rows.extend(r for r in eq.values() if r)
    mats = []
    for sol in nullspace_basis(M.field, rows, len(variables)):
        mat = {}
        for p, s in sol.items():
            r, c = variables[p]
            mat.setdefault(c, {})[r] = s
        mats.append(mat)
    return mats


def _assert_spin_matches_oracle(M, N):
    """`hom_space(M, N)` against the all-pairs oracle: the same dimension,
    the same span, and every map commutes with E and F."""
    f = M.field
    want = _hom_space_all_pairs(M, N)
    got = hom_space(M, N)
    for mp in got:
        assert compose_maps(mp, M.E) == compose_maps(N.E, mp), (M.label, N.label)
        assert compose_maps(mp, M.F) == compose_maps(N.F, mp), (M.label, N.label)
    both = rank(f, _flat(N, got + want))
    assert len(got) == rank(f, _flat(N, got)) == both == len(want), (M.label, N.label)


def test_spin_matches_the_all_pairs_oracle(actx):
    """The spin against the oracle on neighbours of `_solver_sample` in both
    directions, on End(M) for its members up to dimension 40 (the oracle
    takes 1-53 s on each larger product), and on the pairs that separate
    tubes, W from Wt, a syzygy from its cover and a tensor from its sum."""
    f = actx.field
    sample = _solver_sample(actx)
    for M, M2 in zip(sample, sample[1:] + sample[:1]):
        if M.dim <= 40:
            _assert_spin_matches_oracle(M, M)
        _assert_spin_matches_oracle(M, M2)
        _assert_spin_matches_oracle(M2, M)
    for l in (1, 2, 3):
        pairs = [(family_T(actx, 2, 0, l, f.one), family_T(actx, 2, 0, l, -f.one)),
                 (family_W(actx, 2, 0, l), family_Wt(actx, 2, 0, l))]
        for A, B in pairs:
            _assert_spin_matches_oracle(A, B)
            _assert_spin_matches_oracle(B, A)
    _assert_spin_matches_oracle(projective(actx, 3, 0), syzygy(simple(actx, 3, 0)))
    # S(12,1)(x)S(14,0) and its rule sum, the first pair of
    # `test_moncat.py::test_sampled_products_are_isomorphic_to_the_rule_sums`
    h = actx.half
    T = tensor(simple(actx, h - 2, 1), simple(actx, h - 1, 0))
    expected = simple_simple_rule(actx, h - 2, 1, h - 1, 0)
    parts = [summand_module(actx, key) for key in sorted(expected) for _ in range(expected[key])]
    _assert_spin_matches_oracle(T, direct_sum(parts, "X"))


def _class_mixing(actx):
    """S(6,0) with a copy Y of its chain above x_0, but with every vector of
    Y one step down the chain's classes, and E x_0 = x_1 + y_1.  It is not a
    module: the entry E x_0 -> y_1 breaks the group conjugation rule, and
    the E/F-maps S(6,0) -> it that send x_t to x_t + y_t are not
    class-preserving."""
    S = simple(actx, 3, 0)
    d = S.dim - 1

    def down(mp):  # the chain maps on x_1..x_d, moved to 0..d-1
        moved = {c - 1: {r - 1: s for r, s in col.items() if r} for c, col in mp.items() if c}
        return {c: col for c, col in moved.items() if col}

    Y = reps.Representation(actx, "Y", S.kexp[:d], S.khatexp[:d], down(S.E), down(S.F))
    D = direct_sum([S, Y], "D")
    E = {c: dict(col) for c, col in D.E.items()}
    E[0][S.dim] = S.E[0][1]
    return reps.Representation(actx, "mixing", D.kexp, D.khatexp, E, D.F)


def test_spin_needs_no_module_premise(actx):
    """Non-modules that keep the group classes, as source and as target:
    the spin's Hom dimensions are the oracle's.  A non-module whose E leaves
    the classes is refused by name, not worked around."""
    S = simple(actx, 3, 0)
    F = {c: dict(col) for c, col in S.F.items()}
    F[2][1] = F[2][1] * 2
    doubled = reps.Representation(actx, "doubled", S.kexp, S.khatexp, S.E, F, S.grades)
    S1 = simple(actx, 3, 1)
    F = {c: dict(col) for c, col in S1.F.items()}
    del F[3]
    cut = reps.Representation(actx, "cut", S1.kexp, S1.khatexp, S1.E, F, S1.grades)
    others = [S, S1, projective(actx, 3, 0), projective(actx, 3, 1)]
    for B in (doubled, cut):
        assert not B.check_relations().passed, B.label
        for X in others + [B]:
            _assert_spin_matches_oracle(B, X)
            _assert_spin_matches_oracle(X, B)
    mixing = _class_mixing(actx)
    broken = f"E entry ({S.dim},0) breaks the group conjugation rule"
    assert mixing.check_relations().counterexample == broken
    for call in (lambda: hom_space(S, mixing), lambda: hom_space(mixing, S),
                 lambda: iso_test(mixing, mixing), lambda: syzygy(mixing)):
        with pytest.raises(RepresentationError, match=re.escape(f"mixing: {broken}")):
            call()
    # the maps x_t -> x_t + y_t commute with E and F, but leave the classes
    assert len(_hom_space_all_pairs(S, mixing)) == 0


def test_one_solver_matches_hom_space(actx):
    """The solver's dimensions match the brute-force all-pairs oracle, and
    so do its maps: each commutes with E and F, and they span Hom(S, M)."""
    f = actx.field
    simples = {lab: simple(actx, *lab) for lab in all_labels(actx)}
    for M in _solver_sample(actx):
        Mt = transpose(M)
        assert Mt.check_relations().passed, M.label
        Mtt = transpose(Mt)
        assert (Mtt.E, Mtt.F, Mtt.kexp, Mtt.khatexp, Mtt.grades) == (
            M.E, M.F, M.kexp, M.khatexp, M.grades
        ), M.label
        tops = {lab: len(_hom_space_all_pairs(M, S)) for lab, S in simples.items()}
        socles = {}
        for lab, S in simples.items():
            want = _hom_space_all_pairs(S, M)
            got = hom_from_simple(M, *lab)
            for mp in got:
                assert compose_maps(mp, S.E) == compose_maps(M.E, mp), (M.label, lab)
                assert compose_maps(mp, S.F) == compose_maps(M.F, mp), (M.label, lab)
            both = rank(f, _flat(M, got + want))
            assert rank(f, _flat(M, got)) == both == len(want), (M.label, lab)
            socles[lab] = len(want)
        assert top_multiplicities(M) == {k: v for k, v in tops.items() if v}, M.label
        assert socle_multiplicities(M) == {k: v for k, v in socles.items() if v}, M.label
        rad_tops, rows = radical(M)
        assert rad_tops == top_multiplicities(M), M.label
        assert len(rows) == M.dim - sum(m * simples[k].dim for k, m in rad_tops.items()), M.label


def test_stage_three_of_the_solver_is_load_bearing(actx):
    """A non-module whose lowest vector passes the first two stages of
    `hom_from_simple` (F v = 0, E^{d+1} v = 0): only the F E^t v =
    c_t E^{t-1} v equations rule it out, and the solver still does."""
    S = simple(actx, 3, 0)
    F = {c: dict(col) for c, col in S.F.items()}
    F[2][1] = F[2][1] * 2  # F x_2 = 2 c_2 x_1, with c_2 != 0
    B = reps.Representation(actx, "doubled", S.kexp, S.khatexp, S.E, F, S.grades)
    assert not B.check_relations().passed
    v = {0: actx.field.one}
    assert B.apply_F(v) == {}
    chain = v
    for _ in range(S.dim):  # d + 1 steps
        chain = B.apply_E(chain)
    assert chain == {}
    assert hom_from_simple(B, 3, 0, dim_only=True) == len(hom_space(S, B)) == 0


def test_exps_from_class_roundtrip(actx):
    seen = 0
    for i, j in all_labels(actx):
        S = simple(actx, i, j)
        for r, (lam, sgn) in enumerate(S.classes()):
            assert exps_from_class(actx, lam, sgn) == (S.kexp[r], S.khatexp[r])
            seen += 1
    assert seen == 128
    # k^{-1}khat = q^1 with k khat^{n/2} = +1 is not realized by the group algebra
    with pytest.raises(EigendataError):
        exps_from_class(actx, 1, 0)


def test_projective_modules(actx):
    for i, j in all_labels(actx):
        P = projective(actx, i, j)
        assert P.dim == 2 * actx.N
        rep = P.check_relations()
        assert rep.passed, rep.counterexample
        assert top_multiplicities(P) == {(i, j): 1}
        assert socle_multiplicities(P) == {(i, j): 1}
    P = projective(actx, 3, 0)
    partner = partner_label(actx, 3, 0)
    layers = []
    R = P
    for depth in (1, 2, 3):
        tops, rows = radical(R)
        layers.append(tops)
        R = sub_rep(R, rows, f"rad^{depth}({P.label})")
    assert layers == [{(3, 0): 1}, {partner: 2}, {(3, 0): 1}]
    assert R.dim == 0


def test_verma_modules(actx):
    for i, j in all_labels(actx):
        M = verma(actx, i, j)
        assert M.dim == actx.N
        rep = M.check_relations()
        assert rep.passed, rep.counterexample
        partner = partner_label(actx, i, j)
        assert top_multiplicities(M) == {partner: 1}
        assert socle_multiplicities(M) == {(i, j): 1}
    # the standard module does not split into its two composition factors
    M = verma(actx, 2, 0)
    split = direct_sum(
        [simple(actx, 2, 0), simple(actx, *partner_label(actx, 2, 0))], "split"
    )
    assert M.dim == split.dim
    assert iso_test(M, split) is False


def test_family_dimensions_and_relations(actx):
    f = actx.field
    N = actx.N
    params = (f.one, -f.one, f.from_int(2))
    for i, j in all_labels(actx):
        for l in range(0, 4):
            for fam in (family_V, family_Vt):
                M = fam(actx, i, j, l)
                assert M.dim == (l + 1) * (2 * i - 1) + l * (N - 2 * i + 1)
                rep = M.check_relations()
                assert rep.passed, (M.label, rep.counterexample)
        for l in range(1, 4):
            for fam in (family_W, family_Wt):
                M = fam(actx, i, j, l)
                assert M.dim == l * N
                rep = M.check_relations()
                assert rep.passed, (M.label, rep.counterexample)
            for lam in params:
                M = family_T(actx, i, j, l, lam)
                assert M.dim == l * N
                assert M.grades is None
                rep = M.check_relations()
                assert rep.passed, (M.label, rep.counterexample)


def test_family_argument_validation(actx):
    f = actx.field
    with pytest.raises(InvalidArgumentError):
        family_W(actx, 2, 0, 0)
    with pytest.raises(InvalidArgumentError):
        family_T(actx, 2, 0, 1, f.zero)
    with pytest.raises(InvalidArgumentError):
        family_V(actx, 0, 0, 1)
    with pytest.raises(InvalidArgumentError):
        family_V(actx, 9, 0, 1)
    with pytest.raises(InvalidArgumentError):
        simple(actx, 2, 2)
    with pytest.raises(InvalidArgumentError):
        family_T(actx, 2, 0, 1, 5)


def test_syzygy_tower(actx):
    for i, j in ((1, 0), (3, 1), (8, 0)):
        S = simple(actx, i, j)
        ip, jp = partner_label(actx, i, j)
        om1 = syzygy(S)
        assert iso_test(om1, family_V(actx, i, j, 1))
        om2 = syzygy(om1)
        assert iso_test(om2, family_V(actx, ip, jp, 2))
        co1 = cosyzygy(S)
        assert iso_test(co1, family_Vt(actx, i, j, 1))
        co2 = cosyzygy(co1)
        assert iso_test(co2, family_Vt(actx, ip, jp, 2))


def test_syzygies_match_the_kernel_oracle(actx):
    """`syzygy` and `cosyzygy`, built as transposes of quotients, against
    the cover's kernel built as a submodule by the oracle `radical`,
    `nullspace_basis` and `sub_rep`: first and second (co)syzygies of every
    simple are isomorphic to the oracle's, are modules, and are graded
    exactly where the oracle's are."""
    graded = []
    for i, j in all_labels(actx):
        S = simple(actx, i, j)
        for build, oracle in ((syzygy, syzygy_by_kernel), (cosyzygy, cosyzygy_by_kernel)):
            got1, want1 = build(S), oracle(S)
            for got, want in ((got1, want1), (build(got1), oracle(want1))):
                rep = got.check_relations()
                assert rep.passed, (got.label, rep.counterexample)
                assert iso_test(got, want) is True, got.label
                assert (got.grades is None) == (want.grades is None), got.label
                graded.append(got.grades is not None)
    # first (co)syzygies are graded, second ones are not
    assert graded == [True, False] * (2 * len(all_labels(actx)))


def test_family_constructors_build_each_syzygy_once(actx, monkeypatch):
    """The second (co)syzygies start from the first ones already built: 16
    syzygies and 16 cosyzygies of simples, then 4 of each on top of them, so
    40 `syzygy` calls (`cosyzygy` makes one each), every module label once."""
    real = reps.syzygy
    seen = []

    def counted(M):
        seen.append(M.label)
        return real(M)

    monkeypatch.setattr(reps, "syzygy", counted)
    report = verify_family_constructors(actx)
    assert report.passed, report.counterexample
    assert report.instances == 825
    assert len(seen) == 40 and len(set(seen)) == 40


def test_syzygy_refuses_a_cover_map_that_is_not_a_module_map(actx, monkeypatch):
    """One entry added in a zero column of the cover map P_k -> S_k makes
    its rows span a subspace that is not a submodule: `syzygy` refuses it
    rather than return a quotient that is not a module."""
    real = reps.hom_space
    f = actx.field

    def bent(M, N):
        maps = real(M, N)
        h = maps[0]
        c = next(c for c in range(M.dim) if c not in h and c != actx.N)
        h[c] = {0: f.one}
        return maps

    monkeypatch.setattr(reps, "hom_space", bent)
    with pytest.raises(ConstructionError, match="not a module map"):
        syzygy(simple(actx, 3, 0))


def test_zero_strand_families_are_simple(actx):
    for i, j in ((2, 0), (5, 1)):
        ip, jp = partner_label(actx, i, j)
        assert iso_test(family_V(actx, i, j, 0), simple(actx, ip, jp))
        assert iso_test(family_Vt(actx, i, j, 0), simple(actx, ip, jp))


def test_tube_isomorphism_classes(actx):
    f = actx.field
    t_one = family_T(actx, 2, 0, 1, f.one)
    t_minus = family_T(actx, 2, 0, 1, -f.one)
    t_two = family_T(actx, 2, 0, 1, f.from_int(2))
    assert iso_test(t_one, family_T(actx, 2, 0, 1, f.one))
    assert iso_test(t_one, t_minus) is False
    assert iso_test(t_one, t_two) is False
    assert iso_test(t_minus, t_two) is False
    # the two truncation patterns with equal dimension are distinct
    assert iso_test(family_W(actx, 2, 0, 1), family_Wt(actx, 2, 0, 1)) is False
    # a single full strand is the standard module
    assert iso_test(family_W(actx, 2, 0, 1), verma(actx, 2, 0))
    assert iso_test(family_W(actx, 2, 0, 2), family_T(actx, 2, 0, 2, f.one)) is False


def test_hom_counts_match_composition_factors(actx):
    for (i, j, l) in ((2, 0, 1), (2, 0, 2), (5, 1, 2)):
        V = family_V(actx, i, j, l)
        ip, jp = partner_label(actx, i, j)
        assert len(hom_space(projective(actx, i, j), V)) == l
        assert len(hom_space(projective(actx, ip, jp), V)) == l + 1
        other = projective(actx, (i % 8) + 1, j) if (i % 8) + 1 not in (i, ip) \
            else projective(actx, ((i + 1) % 8) + 1, j)
        if top_multiplicities(other) != {(i, j): 1}:
            assert len(hom_space(other, V)) == 0


def test_radical(actx):
    P = projective(actx, 4, 1)
    _, rows = radical(P)
    assert len(rows) == P.dim - (actx.N - 2 * 4 + 1)
    radm = sub_rep(P, rows, "rad(P)")
    assert radm.check_relations().passed
    assert top_multiplicities(radm) == {partner_label(actx, 4, 1): 2}


def _radical_by_grade(M):
    """rad M as one kernel per grade of M, each over its own columns: the
    oracle for the single kernel of `radical`, whose grade-pure rows keep
    the grades apart without a partition."""
    functionals = [col for i, j in all_labels(M.ctx)
                   for mp in hom_from_simple(transpose(M), i, j) for col in mp.values()]
    by_grade = {}
    for c in range(M.dim):
        by_grade.setdefault(M.grades[c], []).append(c)
    out = []
    for g in sorted(by_grade):
        cols = by_grade[g]
        pos = {c: t for t, c in enumerate(cols)}
        rows_g = []
        for row in functionals:
            rg = {pos[c]: s for c, s in row.items() if c in pos}
            if rg:
                rows_g.append(rg)
        for vec in nullspace_basis(M.field, rows_g, len(cols)):
            out.append({cols[p]: s for p, s in vec.items()})
    return out


def test_radical_needs_no_grade_partition(actx):
    """On graded modules (one S(x)S product per fusion case, a projective,
    a strand family and a P(x)S product over F_p) the one kernel of the
    oracle `radical` gives the per-grade kernels' rows, every row and every
    image column of the Hom solver is grade-pure, and rad M stays graded."""
    h = actx.half
    cases = ((h - 2, 1, h - 1, 0), (h - 1, 0, h - 3, 1), (h // 2, 0, h // 2, 0), (h - 2, 0, 2, 1))
    sample = [tensor(simple(actx, i1, j1), simple(actx, i2, j2)) for i1, j1, i2, j2 in cases]
    sample += [projective(actx, 4, 1), family_V(actx, 2, 0, 2),
               tensor(projective(actx, 3, 0), simple(actx, h - 1, 1)).mod_p()]

    def pure(vec):
        return len({M.grades[c] for c in vec}) == 1

    nonzero = 0
    for M in sample:
        assert M.grades is not None, M.label
        _, rows = radical(M)
        key = [frozenset(row.items()) for row in rows]
        want = [frozenset(row.items()) for row in _radical_by_grade(M)]
        assert len(set(key)) == len(key) and set(key) == set(want), M.label
        assert all(pure(row) for row in rows), M.label
        if rows:  # the all-simple S(x)S cases are semisimple
            nonzero += 1
            assert sub_rep(M, rows, "rad").grades is not None, M.label
        Mt = transpose(M)
        for i, j in all_labels(actx):
            for mp in hom_from_simple(Mt, i, j):
                assert all(pure(col) for col in mp.values()), (M.label, i, j)
    assert nonzero == 5


def test_sub_rep_refusals(actx):
    """The oracle `sub_rep` refuses a vector that is not class-pure, a
    basis without a private unit coordinate per vector, and a span that E
    leaves."""
    f = actx.field
    S = simple(actx, 3, 0)
    with pytest.raises(InvalidArgumentError, match="class-pure"):
        sub_rep(S, [{0: f.one, 1: f.one}], "mixed")
    # S's classes repeat with period 8 along the strand, so both are class-pure
    for basis in ([{0: f.q}], [{0: f.one, 8: f.one}, {8: f.one}]):
        with pytest.raises(InvalidArgumentError, match="private unit coordinate"):
            sub_rep(S, basis, "shared")
    with pytest.raises(RepresentationError, match="not invariant"):
        sub_rep(S, [{0: f.one}], "line")


def test_relation_checker_catches_perturbations(actx):
    S = simple(actx, 3, 0)
    # drop an F arrow
    broken_f = {c: dict(col) for c, col in S.F.items()}
    del broken_f[1][0]
    M = reps.Representation(actx, "broken", S.kexp, S.khatexp, S.E, broken_f, S.grades)
    assert not M.check_relations().passed
    # break the grading
    bad_grades = list(S.grades)
    bad_grades[2] += 1
    M = reps.Representation(actx, "regraded", S.kexp, S.khatexp, S.E, S.F, bad_grades)
    assert not M.check_relations().passed
    # group eigenvalues that are no longer compatible with the relations
    bad_kexp = list(S.kexp)
    bad_kexp[0] = (bad_kexp[0] + 1) % actx.N
    with pytest.raises(RepresentationError):
        reps.Representation(actx, "offset", bad_kexp, S.khatexp, S.E, S.F, None)


def test_constructor_rejects_entries_outside_the_basis(actx):
    """An E or F entry whose row or column is not a basis index is refused
    when the module is built; `check_relations` would otherwise index past
    the exponent tuples."""
    one = actx.field.one
    cases = [({0: {5: one}}, {}), ({}, {0: {2: one}}), ({2: {0: one}}, {}), ({}, {-1: {0: one}})]
    for E, F in cases:
        with pytest.raises(RepresentationError, match="outside the basis"):
            reps.Representation(actx, "bad", [0, 4], [0, 2], E, F)
    M = reps.Representation(actx, "ok", [0, 4], [0, 2], {0: {1: one}}, {})
    assert M.E == {0: {1: one}}


def test_walk_bounds():
    """Longest path leaving each vertex of a support graph, capped; a vertex
    that reaches a cycle gets the cap."""
    chain = {c: {c + 1: 1} for c in range(5)}
    assert reps._walk_bounds(chain, 6, 16) == [5, 4, 3, 2, 1, 0]
    assert reps._walk_bounds(chain, 6, 3) == [3, 3, 3, 2, 1, 0]
    # 0 -> 1 -> 3 -> 4 and 0 -> 2 -> 4, plus 5 -> 2 and an isolated 6
    dag = {0: {1: 1, 2: 1}, 1: {3: 1}, 2: {4: 1}, 3: {4: 1}, 5: {2: 1}}
    assert reps._walk_bounds(dag, 7, 16) == [3, 2, 1, 1, 0, 2, 0]
    # 0 -> 1 -> 2 -> 0, entered from 3; 4 hangs off the cycle, 5 loops on itself
    cycle = {0: {1: 1, 4: 1}, 1: {2: 1}, 2: {0: 1}, 3: {0: 1}, 5: {5: 1}}
    assert reps._walk_bounds(cycle, 6, 16) == [16, 16, 16, 16, 0, 16]


def test_relation_checker_walks_cycles_exactly(actx):
    """A vector on a cycle of E arrows cannot be certified by the path bound,
    so it runs the exact chain and the nilpotency failure is reported."""
    f = actx.field
    E = {c: {(c + 1) % 8: f.one} for c in range(8)}
    M = reps.Representation(actx, "8-cycle", [4 * c for c in range(8)],
                            [2 * c for c in range(8)], E, {})
    assert reps._walk_bounds(M.E, M.dim, actx.N) == [actx.N] * 8
    rep = M.check_relations()
    assert not rep.passed
    assert rep.counterexample == "E^(n^2) does not vanish on vector 0"
    # 16 group instances, 8 conjugation instances, then the failing chain
    assert rep.instances == 25


def test_relation_checker_exact_fallback_on_a_tensor(actx):
    """In S(2,0) (x) S(2,0) some vectors start walks of n^2 arrows, so their
    E- and F-chains run exactly, and the module still passes."""
    T = tensor(simple(actx, 2, 0), simple(actx, 2, 0))
    for mp in (T.E, T.F):
        assert max(reps._walk_bounds(mp, T.dim, actx.N)) == actx.N
    rep = T.check_relations()
    assert rep.passed, rep.counterexample


def test_block_structure(actx):
    report = verify_block_structure(actx)
    assert report.passed, report.counterexample
    # 16 radical layers, 8 two-label blocks, 8 block dimensions, then per
    # block 4 Hom dimensions and 14 quiver relations
    assert report.instances == 16 + 8 + 8 + 8 * 18
    assert report.wall_time > 0
    assert partner_label(actx, 1, 0) == (8, 1)
    assert report.statement.startswith("Ext-linkage splits the 16 labels into 8 two-vertex")


def test_block_structure_statement_follows_n(monkeypatch):
    monkeypatch.setattr(reps, "all_labels", lambda ctx: [])
    report = verify_block_structure(AlgebraContext(8))
    assert report.passed and report.instances == 0
    assert "64 labels into 32 two-vertex blocks" in report.statement


@pytest.mark.parametrize("n", [4, 8])
def test_idempotent_and_regular_statements_pass(n):
    """Both lemma statements hold at n = 4 and n = 8, one instance for the
    classes or the dimension identity and one per label."""
    ctx = AlgebraContext(n)
    for rep in (verify_idempotent_system(ctx), verify_regular_decomposition(ctx)):
        assert rep.passed, f"{rep.statement}: {rep.counterexample}"
        assert rep.instances == 1 + ctx.N


def test_idempotent_and_regular_statements_form_no_product(monkeypatch):
    """Once the e_{2i,j} are built, neither statement multiplies in u: the
    idempotents are read through characters of u^0 and the socle vectors
    through their action on P_k, so no `combination_product` runs."""
    ctx = AlgebraContext(4)
    for i, j in all_labels(ctx):
        ctx.idempotent_e(i, j)
    real = FieldContext.combination_product
    calls = []

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(FieldContext, "combination_product", counted)
    for rep in (verify_idempotent_system(ctx), verify_regular_decomposition(ctx)):
        assert rep.passed, f"{rep.statement}: {rep.counterexample}"
    assert len(calls) == 0


def test_projective_matches_left_ideal(actx):
    for i, j in all_labels(actx):
        rep = verify_projective_vs_ideal(actx, i, j)
        assert rep.passed, rep.counterexample


def test_projective_vs_ideal_reads_the_stored_matrices(actx, monkeypatch):
    """The left-ideal check compares P's own E and F matrices with the
    action inside u, so one E entry scaled by q is caught at its column."""
    P = projective(actx, 1, 0)
    c = min(P.E)
    r = min(P.E[c])
    bent_e = {col: dict(rows) for col, rows in P.E.items()}
    bent_e[c][r] = bent_e[c][r] * actx.field.q
    bent = reps.Representation(actx, P.label, P.kexp, P.khatexp, bent_e, P.F, P.grades)
    monkeypatch.setattr(reps, "projective", lambda ctx, i, j: bent)
    rep = verify_projective_vs_ideal(actx, 1, 0)
    assert not rep.passed
    assert rep.counterexample == f"E action on chain vector {c} differs from P(2,0) inside u"


def test_projective_vs_ideal_needs_the_walk_down_coefficients(actx, monkeypatch):
    """u*gamma reaches alpha only through the a-chain F coefficients at v in
    [2, 2i-1]: one zeroed there fails the check, and its own instance names
    it when the generator is run past the first counterexample."""
    chain = reps._chain

    def vanishing(ctx, i, j, v):
        cls, grade, coef = chain(ctx, i, j, v)
        return cls, grade, ctx.field.zero if v == 3 else coef

    monkeypatch.setattr(reps, "_chain", vanishing)
    assert not verify_projective_vs_ideal(actx, 2, 0).passed
    found = [c for c in verify_projective_vs_ideal.__wrapped__(actx, 2, 0) if c]
    assert "a-chain F coefficient vanishes at v = 3" in found


def test_rep_serialization(actx):
    S = simple(actx, 2, 1)
    d = rep_to_dict(S)
    assert d["dim"] == S.dim
    assert d["label"] == "S(4,1)"
    assert set(d) == {"label", "dim", "k_exponents", "khat_exponents", "E", "F", "grades"}
    T = family_T(actx, 2, 1, 1, actx.field.one)
    assert "grades" not in rep_to_dict(T)


def test_act_vec_matches_matrix_action(actx):
    f = actx.field
    P = projective(actx, 2, 0)
    x = actx.E * actx.F * actx.khat + actx.k.scale(f.qpow(3))
    v = {0: f.one, actx.N: f.qpow(5)}
    act = P.act_matrix(x)
    direct = P.apply_map(act, v)
    # same thing assembled from the images of the unit vectors
    acc = {}
    for col, s in ((c, val) for c, val in v.items()):
        img = P.apply_map(act, {col: f.one})
        for r, t in img.items():
            u = acc.get(r, f.zero) + s * t
            if u.is_zero():
                acc.pop(r, None)
            else:
                acc[r] = u
    assert direct == acc
    # graded characters exist exactly when a grading is present
    assert sum(P.graded_character().values()) == P.dim
    with pytest.raises(InvalidArgumentError):
        family_T(actx, 2, 0, 1, f.one).graded_character()


def _act_term_by_term(M, x, vec):
    """x applied to vec one PBW term F^a k^eps khat^c E^d at a time: E^d,
    then the group part vector by vector, then F^a."""
    f = M.field
    out = {}
    for (a, eps, c, d), s in x.terms.items():
        w = dict(vec)
        for _ in range(d):
            w = M.apply_E(w)
        g = {}
        for r, t in w.items():
            f.axpy(g, {r: t}, f.qpow(eps * M.kexp[r] + c * M.khatexp[r]))
        for _ in range(a):
            g = M.apply_F(g)
        f.axpy(out, g, f.image(s))
    return out


def test_act_matrix_matches_the_term_by_term_action(actx):
    """act_matrix, which acts once per (a, d) with a diagonal group part,
    gives column by column what the PBW terms give one at a time, over
    Q(zeta) and over F_p."""
    f = actx.field
    xs = [actx.E * actx.F * actx.khat + actx.k.scale(f.qpow(3)),
          actx.F * actx.F * actx.E, actx.idempotent_e(2, 0), actx.flat(),
          actx.idempotent_1(0) * actx.E + actx.F * actx.kinv, actx.zero_elem]
    for M in (simple(actx, 3, 1), projective(actx, 2, 0), family_V(actx, 2, 1, 1)):
        for R in (M, M.mod_p()):
            one = R.field.one
            for x in xs:
                cols = {c: _act_term_by_term(R, x, {c: one}) for c in range(R.dim)}
                assert R.act_matrix(x) == {c: col for c, col in cols.items() if col}


def test_residue_module_runs_the_residue_kernel(actx):
    """A module made by `mod_p` holds F_p from construction on: its relation
    check, its algebra action and the modules built from it run the residue
    kernel and keep that field."""
    f = actx.field
    res = f.residue_field()
    for M in (simple(actx, 3, 1), projective(actx, 2, 0), family_V(actx, 2, 1, 1)):
        R = M.mod_p()
        rep = R.check_relations()
        assert R.field is res and rep.passed, (M.label, rep.counterexample)
        assert transpose(R).field is res
    P = projective(actx, 2, 0)
    R = P.mod_p()
    v = {0: f.one, actx.N: f.qpow(5), 7: f.from_int(-3)}
    rv = {r: res.reduce(s) for r, s in v.items()}
    for x in (actx.E * actx.F * actx.khat + actx.k.scale(f.qpow(3)),
              actx.F * actx.F * actx.E, actx.idempotent_e(2, 0)):
        exact = {r: t for r, s in P.apply_map(P.act_matrix(x), v).items()
                 if (t := res.reduce(s))}
        assert R.apply_map(R.act_matrix(x), rv) == exact
    whole = sub_rep(R, [{r: res.one} for r in range(R.dim)], "whole")
    assert whole.field is res and whole.check_relations().passed
    assert direct_sum([R, whole], "R+R").field is res
    with pytest.raises(ContextMismatchError):
        direct_sum([R, P], "mixed")
    # a dropped F arrow breaks the q-commutator over F_p too
    S = simple(actx, 3, 0)
    broken_f = {c: dict(col) for c, col in S.F.items()}
    del broken_f[1][0]
    M = reps.Representation(actx, "broken", S.kexp, S.khatexp, S.E, broken_f, S.grades)
    rep = M.mod_p().check_relations()
    assert not rep.passed and "q-commutator" in rep.counterexample


def test_hom_refuses_residue_modules(actx):
    """The Hom solver sums through the exact kernel and serialization
    writes exact scalars, so a module made by `mod_p` is refused with a
    typed error rather than solved or written as unreduced ints."""
    S = simple(actx, 3, 1)
    R = S.mod_p()
    for call in (lambda: hom_space(R, R), lambda: iso_test(R, R),
                 lambda: syzygy(R), lambda: cosyzygy(R), lambda: hom_space(S, R),
                 lambda: rep_to_dict(R)):
        with pytest.raises(ContextMismatchError):
            call()


# sha256 of the canonical rep_to_dict dumps of every module below, one line
# each, in loop order: pins the exact basis order, classes, grades and
# matrices of each constructor.
GOLDEN_N4 = {
    "simple": "67d056f892f382425bff6318e40dff20b4df73e187b205dd5f03553d7c6944b0",
    "verma": "34ee124413a992d4ea8230ca9a0910d2edefc88239f941e18525076e07eaba6d",
    "projective": "9368eee41b8b7bae0db403e279bf649643fd65130eb73cde6c7c9ad6e6a46f6a",
    "family_V": "0dbe5f6e7bbc27aac3d95aa1d243fa177bea8232a4299285c142963387a06142",
    "family_Vt": "29fe6c79bf3307d3525ffa273c2e7db99ae3804ac24c3c106c8f61b31d839081",
    "family_W": "9dc5a4c426b62cb848591fc9a71c003ee630f5f6a00f527e20fe7e31a408193a",
    "family_Wt": "bb77d9716893d9b1c71f16d654586410fc1c73a30419e229c345c411b39b16b1",
    "family_T": "248e27e93dabf088e8e8b22b520a3c16b86c921bd575293277aa8d128b5259db",
}


def test_constructor_golden_digests(actx):
    f = actx.field
    labels = all_labels(actx)
    lams = (f.one, -f.one, f.from_int(2))
    cases = {
        "simple": [(i, j) for i, j in labels],
        "verma": [(i, j) for i, j in labels],
        "projective": [(i, j) for i, j in labels],
        "family_V": [(i, j, l) for i, j in labels for l in range(4)],
        "family_Vt": [(i, j, l) for i, j in labels for l in range(4)],
        "family_W": [(i, j, l) for i, j in labels for l in range(1, 4)],
        "family_Wt": [(i, j, l) for i, j in labels for l in range(1, 4)],
        "family_T": [(i, j, l, lam) for i, j in labels for l in range(1, 4) for lam in lams],
    }
    got = {}
    for name, arglist in cases.items():
        h = hashlib.sha256()
        for args in arglist:
            M = getattr(reps, name)(actx, *args)
            h.update(json.dumps(rep_to_dict(M), sort_keys=True).encode() + b"\n")
        got[name] = h.hexdigest()
    assert got == GOLDEN_N4
