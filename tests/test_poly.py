from random import Random

import pytest

from metabelian.cyclo import CycNum, ambient_order, imag_unit, root_of_unity
from metabelian.poly import IU, IU1, IU2, IV, IV2, VARIABLES, CommPoly, RationalSeries, uv
from helpers import random_comm_poly, random_cyc, substitute_oracle


def _var(name):
    return CommPoly.variable(name)


def _pow(p, k):
    out = CommPoly.constant(CycNum.one(4))
    for _ in range(k):
        out = out * p
    return out


def test_ring_examples():
    u, v = _var("u"), _var("v")
    assert (u + v) * (u - v) == u * u - v * v
    uv = u * v
    assert uv * uv == _pow(u, 2) * _pow(v, 2)


def test_repr_signs_terms_like_every_printer():
    # a negative coefficient is subtracted, a sum is parenthesized and
    # the constant term follows the monomials
    one, i = CycNum.one(4), imag_unit(4)
    p = _var("u") - _var("v").scale(one * 2) + CommPoly.constant(one + i)
    assert repr(p) == "u - 2*v + (1 + z(4,1))"
    assert repr(-p) == "-u + 2*v + (-1 - z(4,1))"
    mono = (0, 0, 1, 0, 0, 2)
    assert repr(CommPoly.term(mono, i * -3)) == "-3*z(4,1)*u1*v2^2"
    assert repr(CommPoly.zero()) == "0"


def test_power_sum_identity():
    # (u^n + v^n)^2 - 2 (uv)^n == u^(2n) + v^(2n)
    for n in (3, 4, 5):
        u, v = _var("u"), _var("v")
        lhs = _pow(_pow(u, n) + _pow(v, n), 2) - (_pow(u * v, n)).scale(2)
        assert lhs == _pow(u, 2 * n) + _pow(v, 2 * n)


def test_substitute_rotation_fixes_uv():
    n = 3
    m = ambient_order(n)
    xi = root_of_unity(m, m // n)
    u, v = _var("u"), _var("v")
    p = u * v
    images = {IU: u.scale(xi), IV: v.scale(xi.conj())}
    assert p.substitute(images) == p


def test_substitute_swap_fixes_power_sum():
    u, v = _var("u"), _var("v")
    p = _pow(u, 3) + _pow(v, 3)
    assert p.substitute({IU: v, IV: u}) == p


def test_substitute_into_xy():
    # the coordinate change u -> x + i*y, with u1, v1 standing for x, y
    order = 4
    u = _var("u")
    u1, v1 = _var("u1"), _var("v1")
    img = u1 + v1.scale(imag_unit(order))
    assert u.substitute({IU: img}) == img


def test_substitute_missing_image():
    u, v = _var("u"), _var("v")
    with pytest.raises(ValueError):
        (u * v).substitute({IU: u})
    # the term's only unmapped variable sits in its right part (v2), then
    # in its left part (u1)
    p = _var("u1") * _var("v2")
    for missing in (IV2, IU1):
        images = {slot: u for slot in range(len(VARIABLES)) if slot != missing}
        with pytest.raises(ValueError, match=repr(VARIABLES[missing])):
            p.substitute(images)


def test_substitute_matches_term_by_term_oracle():
    # all six slots, order-12 coefficients, images that leave their slot
    # group (u -> u2 - u1 as in embed_assoc), and terms that share a left
    # part (u, v, u1, v1) over one or many right parts (u2, v2)
    rng = Random(5)
    order = 12
    left, right = VARIABLES[:IU2], VARIABLES[IU2:]
    u = _var("u")
    for k in range(30):
        p = random_comm_poly(rng, VARIABLES, order, terms=5, coeff=random_cyc)
        p = p + random_comm_poly(rng, left, order, max_degree=3, terms=3, coeff=random_cyc) * (
            random_comm_poly(rng, right, order, max_degree=3, terms=1 + k % 3, coeff=random_cyc)
        )
        images = {
            slot: random_comm_poly(rng, VARIABLES, order, max_degree=2, terms=2, coeff=random_cyc)
            for slot in range(len(VARIABLES))
        }
        images[IU] = u.moved(IU2) - u.moved(IU1)
        assert p.substitute(images) == substitute_oracle(p, images)


def test_substitute_is_multiplicative():
    rng = Random(3)
    order = 12
    u, v = _var("u"), _var("v")
    images = {IU: u + v.scale(random_cyc(rng, order)), IV: u * v + v}
    for _ in range(20):
        p = CommPoly.zero()
        q = CommPoly.zero()
        for _ in range(3):
            mono = uv(rng.randint(0, 3), rng.randint(0, 3))
            p = p + CommPoly.term(mono, random_cyc(rng, order))
            mono = uv(rng.randint(0, 2), rng.randint(0, 2))
            q = q + CommPoly.term(mono, random_cyc(rng, order))
        assert (p * q).substitute(images) == p.substitute(images) * q.substitute(images)


def test_homogeneous_helpers():
    u, v = _var("u"), _var("v")
    p = u * u + v
    assert p.homogeneous_component(2) == u * u
    assert p.homogeneous_degree() is None
    assert (u * v).homogeneous_degree() == 2
    assert CommPoly.zero().degree() == -1


# ----------------------------------------------------------------------
# Series
# ----------------------------------------------------------------------

def test_series_geometric():
    assert RationalSeries({0: 1}, {0: 1, 1: -1}).coefficients(4) == [1, 1, 1, 1, 1]
    # a constant term other than 1: 2 / (2 - 2t) = 1 / (1 - t)
    assert RationalSeries({0: 2}, {0: 2, 1: -2}).coefficients(4) == [1, 1, 1, 1, 1]


def test_series_non_integer_coefficient_raises():
    # (4 + 3t) / (-2 + 2t) = -2 - 7/2 t - ...: the first non-integer is t^1
    s = RationalSeries({0: 4, 1: 3}, {0: -2, 1: 2})
    assert s.coefficients(0) == [-2]
    with pytest.raises(ValueError, match=r"^non-integer series coefficient -7/2$"):
        s.coefficients(5)


def test_series_invariant_ring_count():
    # 1/((1-t^2)(1-t^3)): count the monomials (uv)^p (u^(3q)+v^(3q)) per degree
    den = {0: 1, 2: -1}
    den3 = {0: 1, 3: -1}
    s = RationalSeries({0: 1}, den) * RationalSeries({0: 1}, den3)
    expected = []
    for d in range(7):
        expected.append(
            sum(1 for p in range(d + 1) for q in range(d + 1) if 2 * p + 3 * q == d)
        )
    assert s.coefficients(6) == expected == [1, 0, 1, 1, 1, 1, 2]


def test_series_module_generator_degrees():
    # (1+t)(1+t+t^2) expands to one degree-0, two each of degrees 1..2, one degree-3
    s = RationalSeries({0: 1, 1: 1}) * RationalSeries({0: 1, 1: 1, 2: 1})
    assert s.coefficients(3) == [1, 2, 2, 1]


def test_series_product_is_convolution():
    r = RationalSeries({0: 1, 1: 2}, {0: 1, 2: -1})
    s = RationalSeries({1: 1}, {0: 1, 1: -1, 3: 5})
    rc = r.coefficients(12)
    sc = s.coefficients(12)
    conv = [sum(rc[i] * sc[k - i] for i in range(k + 1)) for k in range(13)]
    assert (r * s).coefficients(12) == conv


def test_series_sum_matches_summed_expansions():
    r = RationalSeries({0: 1}, {0: 1, 2: -1})
    s = RationalSeries({2: 1}, {0: 1, 1: -1})
    add = r + s
    rc, sc = r.coefficients(10), s.coefficients(10)
    assert add.coefficients(10) == [a + b for a, b in zip(rc, sc)]


def test_series_reciprocal_product():
    r = RationalSeries({0: 1, 2: 3}, {0: 1, 1: -1})
    recip = RationalSeries({0: 1, 1: -1}, {0: 1, 2: 3})
    assert (r * recip).coefficients(6) == [1, 0, 0, 0, 0, 0, 0]


def test_series_equality_by_cross_multiplication():
    a = RationalSeries({0: 1}, {0: 1, 1: -1})
    b = RationalSeries({0: 1, 1: 1}, {0: 1, 2: -1})  # same function, unreduced
    assert a == b
    assert a != RationalSeries({0: 1}, {0: 1, 1: 1})


def test_series_denominator_validation():
    with pytest.raises(ValueError):
        RationalSeries({0: 1}, {0: 0, 1: 1})
