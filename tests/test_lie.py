from random import Random

import pytest

from metabelian.assoc import MetAssocElem, commutator
from metabelian.cyclo import CycNum
from metabelian.lie import MetLieElem, bracket, embed_assoc
from metabelian.poly import CommPoly, uv
from helpers import inverse_matrix, random_lie, random_matrix


def _u():
    return MetLieElem.generator("u")


def _v():
    return MetLieElem.generator("v")


def _comm(a, b):
    return MetLieElem.from_comm(CommPoly.term(uv(a, b), CycNum.one(4)))


def test_bracket_examples():
    assert bracket(_v(), _u()) == _comm(0, 0)
    assert bracket(bracket(_v(), _u()), _u()) == _comm(1, 0)
    e = _u() + _v().scale(3)
    assert bracket(e, e).is_zero()


def test_bracket_linear_coefficient():
    # [a u + b v, c u + d v] = (bc - ad) [v,u]
    a, b, c, d = (CycNum.from_rational(4, q) for q in (2, 3, 5, 7))
    e1 = MetLieElem(CommPoly.linear(a, b))
    e2 = MetLieElem(CommPoly.linear(c, d))
    expected = MetLieElem.from_comm(CommPoly.constant(b * c - a * d))
    assert bracket(e1, e2) == expected


def test_module_action_examples():
    one = CycNum.one(4)
    base = _comm(0, 0)
    f = CommPoly({uv(3, 0): one, uv(0, 3): -one})
    assert base.module_action(f) == _comm(3, 0) - _comm(0, 3)
    assert base.module_action(CommPoly.constant(one)) == base
    assert base.module_action(CommPoly.term(uv(1, 1), one)) == _comm(1, 1)


def test_module_action_requires_commutator_part():
    with pytest.raises(ValueError):
        _u().module_action(CommPoly.constant(CycNum.one(4)))


def test_same_blocks_in_two_algebras_compare_unequal():
    p, h = CommPoly.variable("u"), CommPoly.constant(CycNum.one(4))
    assert MetLieElem(p, h) != MetAssocElem(p, h)
    assert MetAssocElem(p, h) != MetLieElem(p, h)
    assert MetLieElem(p, h) == MetLieElem(p, h)
    assert MetLieElem.zero() != MetAssocElem.zero()


def test_elements_have_no_instance_dict():
    for cls in (MetAssocElem, MetLieElem):
        assert vars(cls)["__slots__"] == ()
        assert not hasattr(cls.zero(), "__dict__")


def test_lie_arithmetic_is_reachable_by_name():
    # tools that wrap these by name on the class find each of them there
    for attr in ("__add__", "__sub__", "__neg__", "scale", "bracket", "module_action"):
        assert callable(getattr(MetLieElem, attr))
    e = _u() + _comm(1, 0)
    assert (e - e).is_zero() and -e == e.scale(-1)
    assert type(e - e) is type(-e) is type(e.scale(2)) is MetLieElem


def test_embed_examples():
    assert embed_assoc(_comm(0, 0)).comm_part == CommPoly.constant(CycNum.one(4))
    one = CycNum.one(4)
    expect = CommPoly(
        {(0, 0, 0, 0, 1, 0): one, (0, 0, 1, 0, 0, 0): -one}
    )
    assert embed_assoc(_comm(1, 0)).comm_part == expect


def test_embed_matches_iterated_commutators():
    # [v,u](ad^n(u) - ad^n(v)) via the embedding equals the same element
    # built by repeated associative commutators
    for n in (3, 4):
        fu = CommPoly.term(uv(n, 0), CycNum.one(4))
        fv = CommPoly.term(uv(0, n), CycNum.one(4))
        gen = _comm(0, 0).module_action(fu - fv)
        au = MetAssocElem.letter("u")
        av = MetAssocElem.letter("v")
        it_u = commutator(av, au)
        it_v = commutator(av, au)
        for _ in range(n):
            it_u = commutator(it_u, au)
            it_v = commutator(it_v, av)
        assert embed_assoc(gen) == it_u - it_v


def test_embedding_is_a_homomorphism():
    rng = Random(23)
    for _ in range(60):
        e1 = random_lie(rng, max_degree=4)
        e2 = random_lie(rng, max_degree=4)
        lhs = embed_assoc(bracket(e1, e2))
        rhs = commutator(embed_assoc(e1), embed_assoc(e2))
        assert lhs == rhs


def test_anticommutativity_and_jacobi():
    rng = Random(29)
    for _ in range(60):
        e1 = random_lie(rng, max_degree=4)
        e2 = random_lie(rng, max_degree=4)
        e3 = random_lie(rng, max_degree=4)
        assert bracket(e1, e2) == bracket(e2, e1).scale(-1)
        jac = (
            bracket(bracket(e1, e2), e3)
            + bracket(bracket(e2, e3), e1)
            + bracket(bracket(e3, e1), e2)
        )
        assert jac.is_zero()


def test_ad_operators_commute_on_commutator_ideal():
    rng = Random(31)
    for _ in range(40):
        c = _comm(rng.randint(0, 3), rng.randint(0, 3))
        uv = bracket(bracket(c, _u()), _v())
        vu = bracket(bracket(c, _v()), _u())
        assert uv == vu


def test_degrees():
    e = _u() + _comm(1, 2)
    assert e.degree() == 5
    assert e.homogeneous_degree() is None
    assert _comm(1, 2).homogeneous_degree() == 5
    assert e.homogeneous_component(1) == _u()
    assert e.homogeneous_component(5) == _comm(1, 2)


def test_linear_image_is_a_homomorphism():
    rng = Random(83)
    for _ in range(40):
        g = random_matrix(rng)
        e1 = random_lie(rng, max_degree=5)
        e2 = random_lie(rng, max_degree=5)
        lhs = bracket(e1, e2).linear_image(*g)
        assert lhs == bracket(e1.linear_image(*g), e2.linear_image(*g))


def test_linear_image_inverse_round_trip():
    rng = Random(89)
    for _ in range(40):
        g = random_matrix(rng)
        e = random_lie(rng, max_degree=7, terms=4)
        assert e.linear_image(*g).linear_image(*inverse_matrix(*g)) == e


def test_embedding_commutes_with_linear_image():
    rng = Random(97)
    for _ in range(30):
        g = random_matrix(rng)
        e = random_lie(rng, max_degree=5)
        assert embed_assoc(e.linear_image(*g)) == embed_assoc(e).linear_image(*g)
