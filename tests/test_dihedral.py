from fractions import Fraction
from random import Random

import pytest

from metabelian.assoc import MetAssocElem, from_word
from metabelian.cyclo import CycNum, ambient_order
from metabelian.dihedral import (
    DihedralElement,
    act_assoc,
    act_lie,
    act_tensor,
    act_uv,
    group_elements,
    reynolds_assoc,
    reynolds_lie,
    reynolds_tensor,
    reynolds_uv,
    rotation_scalar,
    rotation_weight,
)
from metabelian.lie import MetLieElem, embed_assoc
from metabelian.poly import IU, IU1, IU2, IV, IV1, IV2, CommPoly, uv
from helpers import (
    group_average,
    random_assoc,
    random_comm_poly,
    random_cyc,
    random_gaussian,
    random_lie,
)


def test_group_sizes():
    assert len(group_elements(3)) == 6
    assert len(group_elements(5)) == 10
    with pytest.raises(ValueError):
        group_elements(2)


def test_dihedral_element_is_a_frozen_record():
    # the rotation is stored mod n, so equal group elements compare and
    # hash equal and look up the same dict entry
    a, b = DihedralElement(3, 4), DihedralElement(3, 1)
    assert a == b and not a != b and hash(a) == hash(b)
    assert {a: "rho"}[b] == "rho"
    assert DihedralElement(3, 1) != DihedralElement(3, 1, True)
    assert DihedralElement(3, 1) != DihedralElement(6, 1)
    assert DihedralElement(3, 1) != (3, 1, False)
    assert repr(DihedralElement(5, -1, True)) == "DihedralElement(n=5, rot=4, flip=True)"
    assert DihedralElement(4) == DihedralElement(n=4, rot=0, flip=False)
    for name in ("n", "rot", "flip", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a.rot == 1
    with pytest.raises(ValueError, match="n >= 3"):
        DihedralElement(2, 1)


def test_reflections_are_involutions():
    for n in (3, 4, 5):
        for k in range(n):
            r = DihedralElement(n, k, True)
            assert r * r == DihedralElement(n)
            assert r.inverse() == r


def test_group_law_relation():
    # tau rho tau == rho^(-1)
    n = 5
    tau = DihedralElement(n, 0, True)
    rho = DihedralElement(n, 1, False)
    assert tau * rho * tau == rho.inverse()


def test_action_is_group_homomorphism():
    rng = Random(37)
    for n in (3, 4):
        m = ambient_order(n)
        e = random_assoc(rng, order=m, max_degree=4)
        elems = group_elements(n)
        for g1 in elems:
            for g2 in elems:
                assert act_assoc(g1, act_assoc(g2, e)) == act_assoc(g1 * g2, e)


def test_action_examples():
    n = 3
    m = ambient_order(n)
    rho = DihedralElement(n, 1, False)
    tau = DihedralElement(n, 0, True)
    uv = from_word("uv")
    assert act_assoc(rho, uv) == uv
    br = MetAssocElem.from_comm(CommPoly.constant(CycNum.one(m)))
    assert act_assoc(tau, br) == br.scale(-1)
    # tau on a commutator-basis word swaps and flips sign
    w = MetAssocElem.from_comm(
        CommPoly.term((0, 0, 2, 1, 0, 3), CycNum.one(m))
    )
    expect = MetAssocElem.from_comm(
        CommPoly.term((0, 0, 1, 2, 3, 0), -CycNum.one(m))
    )
    assert act_assoc(tau, w) == expect
    # tau on a plain word straightens: tau(uv) = vu = uv + [v,u]
    assert act_assoc(tau, uv) == from_word("vu")


def test_action_respects_multiplication():
    rng = Random(41)
    for n in (3, 4):
        m = ambient_order(n)
        for g in group_elements(n):
            e1 = random_assoc(rng, order=m, max_degree=3, terms=3)
            e2 = random_assoc(rng, order=m, max_degree=3, terms=3)
            assert act_assoc(g, e1 * e2) == act_assoc(g, e1) * act_assoc(g, e2)


def test_act_lie_examples():
    n = 3
    m = ambient_order(n)
    rho = DihedralElement(n, 1, False)
    tau = DihedralElement(n, 0, True)
    br = MetLieElem.from_comm(CommPoly.constant(CycNum.one(m)))
    assert act_lie(rho, br) == br
    u = MetLieElem.generator("u")
    assert act_lie(rho, u) == u.scale(rotation_scalar(n, 1))
    # tau([v,u] ad^n(u)) = -[v,u] ad^n(v)
    cu = MetLieElem.from_comm(CommPoly.term(uv(n, 0), CycNum.one(m)))
    cv = MetLieElem.from_comm(CommPoly.term(uv(0, n), CycNum.one(m)))
    assert act_lie(tau, cu) == cv.scale(-1)


def test_reynolds_examples():
    for n in (3, 4):
        m = ambient_order(n)
        uv = from_word("uv")
        half_bracket = MetAssocElem.from_comm(
            CommPoly.constant(CycNum.from_rational(m, Fraction(1, 2)))
        )
        assert reynolds_assoc(n, uv) == uv + half_bracket
        assert reynolds_assoc(n, MetAssocElem.letter("u")).is_zero()
        br = MetAssocElem.from_comm(CommPoly.constant(CycNum.one(m)))
        assert reynolds_assoc(n, br).is_zero()


def test_reynolds_idempotent_and_invariant():
    rng = Random(43)
    for n in (3, 4, 5):
        m = ambient_order(n)
        for _ in range(10):
            e = random_assoc(rng, order=m, max_degree=4)
            r = reynolds_assoc(n, e)
            assert reynolds_assoc(n, r) == r
            for g in group_elements(n):
                assert act_assoc(g, r) == r


def test_reynolds_lie_idempotent():
    rng = Random(47)
    n = 3
    m = ambient_order(n)
    for _ in range(10):
        e = random_lie(rng, order=m, max_degree=4)
        r = reynolds_lie(n, e)
        assert reynolds_lie(n, r) == r
        for g in group_elements(n):
            assert act_lie(g, r) == r


def test_embedding_equivariance():
    rng = Random(53)
    for n in (3, 4):
        m = ambient_order(n)
        for _ in range(8):
            e = random_lie(rng, order=m, max_degree=4)
            for g in group_elements(n):
                assert embed_assoc(act_lie(g, e)) == act_assoc(g, embed_assoc(e))


def _monomial_matrix(g):
    """g as linear_image's (a, b, c, d): diag(xi^k, xi^-k) for rho^k,
    then the swap for tau rho^k."""
    xi, xi_inv = rotation_scalar(g.n, g.rot), rotation_scalar(g.n, -g.rot)
    zero = CycNum.zero(xi.order)
    return (zero, xi_inv, xi, zero) if g.flip else (xi, zero, zero, xi_inv)


def test_action_is_the_linear_substitution():
    # act_* is the general substitution at the monomial matrix of g
    rng = Random(101)
    for n in (3, 4):
        m = ambient_order(n)
        for g in group_elements(n):
            a, b, c, d = _monomial_matrix(g)
            e = random_assoc(rng, m, 5, 5, random_cyc)
            assert act_assoc(g, e) == e.linear_image(a, b, c, d)
            lie = random_lie(rng, m, 6, 4, random_cyc)
            assert act_lie(g, lie) == lie.linear_image(a, b, c, d)
            lu, lv = CommPoly.linear(a, c), CommPoly.linear(b, d)
            p = random_comm_poly(rng, ("u", "v"), m, 6, 5, random_cyc)
            assert act_uv(g, p) == p.substitute({IU: lu, IV: lv})
            t = random_comm_poly(rng, ("u1", "v1", "u2", "v2"), m, 5, 5, random_cyc)
            images = {
                IU1: lu.moved(IU1), IV1: lv.moved(IU1),
                IU2: lu.moved(IU2), IV2: lv.moved(IU2),
            }
            assert act_tensor(g, t) == t.substitute(images)


def test_commutative_action():
    n = 3
    m = ambient_order(n)
    one = CycNum.one(m)
    prod = CommPoly.term(uv(1, 1), one)
    psum = CommPoly({uv(n, 0): one, uv(0, n): one})
    for g in group_elements(n):
        assert act_uv(g, prod) == prod
        assert act_uv(g, psum) == psum
    # u alone averages to zero
    assert reynolds_uv(n, CommPoly.variable("u")).is_zero()


def test_rotation_weight_is_the_rotation_eigenvalue():
    n = 5
    m = ambient_order(n)
    rho = DihedralElement(n, 1, False)
    one = CycNum.one(m)
    for exps in ((3, 1), (0, 4), (0, 0, 2, 0, 1, 3), (0, 0, 0, 1, 4, 0)):
        mono = exps + (0,) * (6 - len(exps))
        p = CommPoly.term(mono, one)
        e = MetAssocElem(p) if len(exps) == 2 else MetAssocElem.from_comm(p)
        xi_w = rotation_scalar(n, rotation_weight(mono))
        assert act_assoc(rho, e) == e.scale(xi_w)


# Every Reynolds operator against the 2n-element group average, on seeded
# random elements over Q(zeta_m) and over Q(i).  The degree bound n + 2
# lets weights reach +-n, so the projection keeps terms of weight n too.
_OPERATORS = {
    "assoc": (
        reynolds_assoc,
        act_assoc,
        lambda rng, n, m, coeff: random_assoc(rng, m, n + 2, 4, coeff),
    ),
    "lie": (
        reynolds_lie,
        act_lie,
        lambda rng, n, m, coeff: random_lie(rng, m, n + 2, 4, coeff),
    ),
    "uv": (
        reynolds_uv,
        act_uv,
        lambda rng, n, m, coeff: random_comm_poly(
            rng, ("u", "v"), m, n + 2, 5, coeff
        ),
    ),
    "tensor": (
        reynolds_tensor,
        act_tensor,
        lambda rng, n, m, coeff: random_comm_poly(
            rng, ("u1", "v1", "u2", "v2"), m, n + 2, 5, coeff
        ),
    ),
}


@pytest.mark.parametrize("kind", sorted(_OPERATORS))
@pytest.mark.parametrize(
    "coeff", [random_cyc, random_gaussian], ids=["cyc", "gaussian"]
)
def test_reynolds_equals_group_average(kind, coeff):
    reynolds, act, draw = _OPERATORS[kind]
    rng = Random(f"{kind}-{coeff.__name__}")
    nonzero = 0
    for n in range(3, 10):
        m = ambient_order(n)
        for _ in range(6):
            e = draw(rng, n, m, coeff)
            r = reynolds(n, e)
            assert r == group_average(n, e, act)
            nonzero += not r.is_zero()
    assert nonzero >= 10


def test_reynolds_rejects_small_n():
    with pytest.raises(ValueError):
        reynolds_uv(2, CommPoly.zero())
