"""Grothendieck ring: polynomial arithmetic, fusion products, presentation."""

import ast
import pathlib

import pytest

from uqsl2 import k0ring
from uqsl2.errors import ContextMismatchError, InvalidArgumentError
from uqsl2.k0ring import (
    K0Element,
    PresPoly,
    basis_product,
    f_poly,
    k0_reports,
    k0_table,
    pres_g,
    pres_one,
    pres_x,
    projective_class,
    second_ideal_generator,
    simple_class,
    unit_class,
    upsilon,
    verify_character_homomorphisms,
    verify_presentation,
    verify_ring_axioms,
)
from uqsl2.cyclo import _add_into
from uqsl2.moncat import char_product, relative_graded_character, simple_simple_rule, tensor
from uqsl2.qgroup import AlgebraContext
from uqsl2.reps import all_labels, partner_label, projective, simple


def test_pres_poly_reduces_g_squared():
    g = pres_g()
    assert g * g == pres_one()
    assert (g + g) * g == 2 * pres_one()
    p = (pres_x() - g) * (pres_x() + g)
    assert p == PresPoly({(2, 0): 1, (0, 0): -1})


def test_pres_poly_rejects_bad_keys():
    with pytest.raises(InvalidArgumentError):
        PresPoly({(0, 2): 1})
    with pytest.raises(InvalidArgumentError):
        PresPoly({(-1, 0): 1})


def test_pres_poly_repr():
    assert repr(pres_x() * pres_g() - 2 * pres_one()) == "x*g - 2"
    assert repr(PresPoly()) == "0"


def test_f_poly_frozen_values(actx):
    assert f_poly(actx, 0, 0) == pres_one()
    assert f_poly(actx, 0, 1) == pres_g()
    assert f_poly(actx, 1, 0) == pres_x()
    assert f_poly(actx, 1, 1) == pres_x() * pres_g()
    assert f_poly(actx, 2, 0) == PresPoly({(2, 0): 1, (1, 1): -1, (0, 0): -1})
    assert f_poly(actx, 2, 1) == PresPoly({(2, 1): 1, (1, 0): -1, (0, 1): -1})


def test_f_poly_g_multiplication_identity(actx):
    for m in range(actx.half):
        assert f_poly(actx, m, 1) == pres_g() * f_poly(actx, m, 0)


def test_f_poly_rejects_out_of_range(actx):
    with pytest.raises(InvalidArgumentError):
        f_poly(actx, actx.half, 0)
    with pytest.raises(InvalidArgumentError):
        f_poly(actx, 0, 2)


def test_frozen_products(actx):
    s = lambda i, j: simple_class(actx, i, j)
    assert s(8, 1) * s(8, 1) == s(8, 0)
    assert s(1, 0) * s(7, 0) == s(2, 0) + 2 * s(1, 1) + 2 * s(8, 0)


def test_unit_class_is_identity(actx):
    one = unit_class(actx)
    for k in all_labels(actx):
        e = K0Element(actx, {k: 1})
        assert one * e == e
        assert e * one == e


def test_projective_class_expansion(actx):
    assert projective_class(actx, 1, 0).terms == {(1, 0): 2, (8, 1): 2}
    assert projective_class(actx, 5, 1).terms == {(5, 1): 2, (4, 0): 2}


def test_element_arithmetic_and_repr(actx):
    a = simple_class(actx, 3, 0)
    b = simple_class(actx, 8, 1)
    assert (a + b - a) == b
    assert (2 * a - a - a).is_zero()
    assert repr(a + 2 * b) == "2[S(16,1)] + [S(6,0)]"
    assert repr(K0Element(actx)) == "0"


def test_characters_on_examples(actx):
    a = simple_class(actx, 1, 1)
    assert a.dim() == 15
    assert a.sign() == -1
    p = projective_class(actx, 2, 0)
    assert p.dim() == 2 * actx.N
    assert p.sign() == 0


def test_rejects_mixed_contexts(actx):
    other = AlgebraContext(4)
    with pytest.raises(ContextMismatchError):
        simple_class(actx, 1, 0) * simple_class(other, 1, 0)


def test_upsilon_sends_f_polynomials_to_simples(actx):
    for m in range(actx.half):
        for j in (0, 1):
            assert upsilon(actx, f_poly(actx, m, j)) == simple_class(
                actx, actx.half - m, j
            )


def test_second_generator_dies_but_not_under_wrong_expansion(actx, monkeypatch):
    """The second ideal generator maps to zero, and not vacuously: with each
    projective summand expanded as 2[S] + [S_partner] in place of its
    composition series 2[S] + 2[S_partner], it does not."""
    assert upsilon(actx, second_ideal_generator(actx)).is_zero()

    def wrong_expansion(ctx, k1, k2):
        out = {}
        for (kind, i, j), m in simple_simple_rule(ctx, *k1, *k2).items():
            _add_into(out, (i, j), 2 * m if kind == "P" else m)
            if kind == "P":
                _add_into(out, partner_label(ctx, i, j), m)
        return out

    monkeypatch.setattr(k0ring, "basis_product", wrong_expansion)
    ctx = AlgebraContext(4)  # fresh, so no memo outlives the fault
    assert not upsilon(ctx, second_ideal_generator(ctx)).is_zero()


def test_presentation_report(actx):
    rep = verify_presentation(actx)
    assert rep.passed, rep.counterexample
    assert rep.instances == 19


def test_ring_axioms_report(actx):
    rep = verify_ring_axioms(actx)
    assert rep.passed, rep.counterexample
    assert rep.instances == 16 + 256 + 2 * 256


def test_character_homomorphism_report(actx):
    rep = verify_character_homomorphisms(actx)
    assert rep.passed, rep.counterexample
    assert rep.instances == 512


def test_structure_constants_nonnegative_and_symmetric(actx):
    labels = all_labels(actx)
    for k1 in labels:
        for k2 in labels:
            p = basis_product(actx, k1, k2)
            assert p == basis_product(actx, k2, k1)
            assert all(v > 0 for v in p.values())


def test_k0_table_shape(actx):
    rows = k0_table(actx)
    assert len(rows) == 1200
    assert rows[0] == {
        "left": "S(2,0)",
        "right": "S(2,0)",
        "class": "S(16,0)",
        "coefficient": 3,
    }
    total = sum(r["coefficient"] for r in rows if r["left"] == r["right"] == "S(2,0)")
    assert total == 1 + 7 * 4


def test_tensor_character_is_the_character_product(actx):
    """The fusion check reads [S (x) S'] from `char_product` instead of
    building the module: the two agree on every pair at n = 4.  They also
    agree on P (x) S and S (x) P products (dimensions 96 to 480), a premise
    of the graded tilings that the tensor sweeps decide."""
    labels = all_labels(actx)
    chars = {k: relative_graded_character(simple(actx, *k)) for k in labels}
    for k1 in labels:
        for k2 in labels:
            T = tensor(simple(actx, *k1), simple(actx, *k2))
            assert relative_graded_character(T) == char_product(
                actx, chars[k1], chars[k2]
            ), (k1, k2)
    for kp, ks in (((1, 0), (1, 0)), ((3, 1), (7, 0)), ((8, 1), (2, 1)), ((5, 0), (4, 1))):
        P, S = projective(actx, *kp), simple(actx, *ks)
        want = char_product(actx, relative_graded_character(P), chars[ks])
        for T in (tensor(P, S), tensor(S, P)):
            assert relative_graded_character(T) == want, T.label


def test_k0_builds_no_module_and_runs_its_premise_first(actx):
    """k0ring imports no module constructor and no tensor product, and the
    presentation, the premise of the ring axioms, is reported first."""
    tree = ast.parse(pathlib.Path(k0ring.__file__).read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported and not imported & {"tensor", "simple", "projective"}
    first = [r.statement for r in k0_reports(actx)][:2]
    assert first == [verify_presentation(actx).statement, verify_ring_axioms(actx).statement]
