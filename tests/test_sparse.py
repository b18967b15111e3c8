"""No operation of the sparse layer stores a zero coefficient.

Every sum that can cancel goes through ``cyclo.accumulate``; these seeded
checks feed it inputs built to cancel and look for zeros left behind.
They also check that every key is a monomial in the package's one
format, a tuple of six nonnegative ints.
"""

from fractions import Fraction
from random import Random

from metabelian.assoc import MetAssocElem
from metabelian.cyclo import CycNum, ambient_order
from metabelian.dihedral import (
    act_assoc,
    act_lie,
    group_elements,
    reynolds_assoc,
    reynolds_lie,
    reynolds_tensor,
    reynolds_uv,
)
from metabelian.expr import to_xy
from metabelian.lie import MetLieElem, bracket
from metabelian.linalg import RowEchelon
from metabelian.poly import ONE, ZERO, CommPoly
from helpers import random_assoc, random_comm_poly, random_cyc, random_lie


def _is_monomial(m) -> bool:
    return (
        type(m) is tuple
        and len(m) == 6
        and all(type(e) is int and e >= 0 for e in m)
    )


def _clean(x) -> bool:
    if isinstance(x, CommPoly):
        return all(
            _is_monomial(m) and not c.is_zero() for m, c in x.terms.items()
        )
    return _clean(x.poly_part) and _clean(x.comm_part)


def test_polynomial_arithmetic_stores_no_zeros():
    rng = Random(41)
    for _ in range(30):
        p = random_comm_poly(rng, ("u", "v"), order=12, coeff=random_cyc)
        q = random_comm_poly(rng, ("u", "v"), order=12, coeff=random_cyc)
        for r in (p + q, p - q, p * q, p - p, p * q - q * p + p, (p + q) * (p - q)):
            assert _clean(r)
        assert (p * q - p * q).is_zero()


def test_algebra_products_store_no_zeros():
    rng = Random(42)
    for _ in range(30):
        e, x, y = (random_assoc(rng, order=12, coeff=random_cyc) for _ in range(3))
        for r in (e * x, e * x - e * x + e, (e + x) * (e - x), e * x * y - e * (x * y)):
            assert _clean(r)
        assert _clean(to_xy(e * x - x * e))
        assert _clean(to_xy(e - e + x))


def test_cancelling_commutator_contributions_store_no_zeros():
    # in (u + c*u[v,u]) * (1 - c*[v,u]) the left shift of -c*[v,u] by u
    # cancels the right shift of c*u[v,u] by 1, and in
    # c*(v - [v,u]) * (u + 1) the cross term c*[v,u] of c*vu cancels the
    # right shift of -c*[v,u] by 1
    rng = Random(44)
    u, v, one = MetAssocElem.letter("u"), MetAssocElem.letter("v"), MetAssocElem.one()
    bracket = MetAssocElem.from_comm(CommPoly.constant(ONE))
    for _ in range(10):
        c = random_cyc(rng, 12, nonzero=True)
        r = (u + (u * bracket).scale(c)) * (one - bracket.scale(c))
        assert r == u and _clean(r)
        r = (v - bracket).scale(c) * (u + one)
        assert r.comm_part == (bracket * u).comm_part.scale(-c) and _clean(r)
        assert (0, 0, 0, 0, 0, 0) not in r.comm_part.terms


def test_lie_arithmetic_stores_no_zeros():
    rng = Random(45)
    singular = (ONE, -ONE, ZERO, ZERO)  # u -> u and v -> -u, det 0
    for _ in range(30):
        e, f = (random_lie(rng, order=12, coeff=random_cyc) for _ in range(2))
        c = random_cyc(rng, 12, nonzero=True)
        # equal u and v coefficients: the singular image cancels the linear part
        diag = MetLieElem(CommPoly.linear(c, c), e.comm_part)
        assert diag.linear_image(*singular).is_zero()
        for r in (e - e + f, e.linear_image(*singular), bracket(e, f) + bracket(f, e) + e):
            assert _clean(r)
        assert (e - e + f).poly_part == f.poly_part


def test_group_action_and_reynolds_store_no_zeros():
    rng = Random(43)
    for n in (3, 4, 6):
        m = ambient_order(n)
        for g in group_elements(n):
            for _ in range(4):
                p = random_assoc(rng, order=m, coeff=random_cyc)
                # g(e) has no commutator part, so act_assoc cancels there
                back = MetAssocElem.from_comm(act_assoc(g, p).comm_part)
                e = p - act_assoc(g.inverse(), back)
                img = act_assoc(g, e)
                assert img.comm_part.is_zero() and _clean(img)
                assert _clean(act_assoc(g, p))
                assert _clean(act_lie(g, random_lie(rng, order=m, coeff=random_cyc)))
        for _ in range(6):
            e = random_assoc(rng, order=m, coeff=random_cyc)
            assert _clean(reynolds_assoc(n, e))
            assert _clean(reynolds_assoc(n, e - reynolds_assoc(n, e)))
            assert _clean(reynolds_lie(n, random_lie(rng, order=m, coeff=random_cyc)))
            uv = random_comm_poly(rng, ("u", "v"), order=m, coeff=random_cyc)
            assert _clean(reynolds_uv(n, uv))
            t = random_comm_poly(
                rng, ("u1", "v1", "u2", "v2"), order=m, coeff=random_cyc
            )
            assert _clean(reynolds_tensor(n, t))


def _random_rational(rng: Random) -> CycNum:
    """A nonzero rational in the order-12 field."""
    q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3))
    return CycNum.from_rational(12, q)


def test_echelon_rows_store_no_zeros():
    rng = Random(44)
    for _ in range(10):
        ech = RowEchelon()
        rows = [
            {c: _random_rational(rng) for c in rng.sample(range(8), 4)}
            for _ in range(5)
        ]
        for a, b in zip(rows, rows[1:]):
            k = _random_rational(rng)
            # a + k*b and -a are dependent: reducing them cancels every entry
            mix = dict(a)
            for c, v in b.items():
                mix[c] = mix[c] + k * v if c in mix else k * v
            for row in (a, b, mix, {c: -v for c, v in a.items()}):
                ech.insert(row)
        for row in ech.rows():
            assert row and all(not v.is_zero() for v in row.values())
            assert row[min(row)] == 1
