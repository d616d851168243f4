import random

from uqsl2.qgroup import AlgebraElement
from uqsl2.quasihopf import (
    TensorElement,
    axiom_reports,
    tensor_of,
    unit_tensor,
)


def test_delta_on_grouplikes(actx, qh):
    for eps in (0, 1):
        for c in (0, 1, 5, 7):
            g = actx.group_elem(eps, c)
            assert qh.delta(g) == tensor_of(g, g)
    for i in range(actx.n):
        expected = TensorElement(actx, 2, {})
        for i1 in range(actx.n):
            i2 = (i - i1) % actx.n
            expected = expected + tensor_of(actx.idempotent_1(i1), actx.idempotent_1(i2))
        assert qh.delta(actx.idempotent_1(i)) == expected


def test_counit_values(actx, qh):
    f = actx.field
    assert qh.counit(actx.k) == f.one
    assert qh.counit(actx.khat) == f.one
    assert qh.counit(actx.E).is_zero()
    assert qh.counit(actx.F).is_zero()
    for i in range(actx.n):
        eps_val = qh.counit(actx.idempotent_1(i))
        assert eps_val == (f.one if i == 0 else f.zero)


def test_antipode_on_idempotents_and_antimultiplicativity(actx, qh):
    for i in range(actx.n):
        assert qh.antipode(actx.idempotent_1(i)) == actx.idempotent_1((actx.n - i) % actx.n)
    rng = random.Random(5)
    for _ in range(10):
        kx = (rng.randrange(4), rng.randrange(2), rng.randrange(actx.half), rng.randrange(4))
        ky = (rng.randrange(4), rng.randrange(2), rng.randrange(actx.half), rng.randrange(4))
        x = AlgebraElement(actx, {kx: actx.field.one})
        y = AlgebraElement(actx, {ky: actx.field.one})
        assert qh.antipode(x * y) == qh.antipode(y) * qh.antipode(x)


def test_tensor_element_algebra(actx):
    x = actx.E + actx.k
    y = actx.F
    left = tensor_of(x, actx.one_elem) * tensor_of(actx.one_elem, y)
    assert left == tensor_of(x, y)
    u3 = unit_tensor(actx, 3)
    assert tensor_of(actx.one_elem, actx.one_elem, actx.one_elem) == u3
    promoted = tensor_of(x, y).insert_unit_leg(1)
    assert promoted == tensor_of(x, actx.one_elem, y)


def test_reassociator_inverse(actx, qh):
    assert qh.phi() * qh.phi_inv() == unit_tensor(actx, 3)


def test_delta_is_not_strictly_coassociative(qh):
    dE = qh.delta(qh.actx.E)
    assert qh.delta_on_leg(dE, 0) != qh.delta_on_leg(dE, 1)


def test_wrong_evaluation_element_breaks_zigzag(actx, qh):
    # With the evaluation element replaced by 1 the left zigzag must fail on E.
    out = actx.zero_elem
    for (ka, kb), s in qh.delta(actx.E).terms.items():
        piece = qh.antipode_mono(ka) * AlgebraElement(actx, {kb: actx.field.one})
        out = out + piece.scale(s)
    assert not out.is_zero()


def test_axiom_reports_all_pass(qh):
    reports = axiom_reports(qh, seed=0)
    assert len(reports) == 6
    for rep in reports:
        assert rep.passed, f"{rep.statement}: {rep.counterexample}"
        assert rep.instances > 0
