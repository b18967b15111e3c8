import itertools
from fractions import Fraction
from math import comb
from random import Random

import pytest

from metabelian.assoc import (
    MetAssocElem,
    _column,
    _word_times,
    basis,
    basis_monomials,
    commutator,
    from_word,
)
from metabelian.cyclo import CycNum, imag_unit
from metabelian.invariants import invariant_generators_assoc
from metabelian.linalg import _integer_row
from metabelian.poly import CommPoly, uv
from helpers import (
    inverse_matrix,
    linear_image_oracle,
    mul_oracle,
    random_assoc,
    random_cyc,
    random_gaussian,
    random_matrix,
    random_word,
)


def _mono(*exps):
    return exps + (0,) * (6 - len(exps))


def _one():
    return CycNum.one(4)


def test_from_word_examples():
    vu = from_word("vu")
    assert vu.poly_part == CommPoly.term(_mono(1, 1), _one())
    assert vu.comm_part == CommPoly.constant(_one())

    uvu = from_word("uvu")
    assert uvu.poly_part == CommPoly.term(_mono(2, 1), _one())
    assert uvu.comm_part == CommPoly.term(_mono(0, 0, 1), _one())

    uuvv = from_word("uuvv")
    assert uuvv.poly_part == CommPoly.term(_mono(2, 2), _one())
    assert uuvv.comm_part.is_zero()

    assert from_word("") == MetAssocElem.one()
    with pytest.raises(ValueError):
        from_word("uw")


def test_mul_examples():
    u = MetAssocElem.letter("u")
    v = MetAssocElem.letter("v")
    assert v * u == from_word("vu")
    bracket = MetAssocElem.from_comm(CommPoly.constant(_one()))
    assert (bracket * bracket).is_zero()
    assert from_word("uv") * u == from_word("uvu")


def test_commutator_examples():
    u = MetAssocElem.letter("u")
    v = MetAssocElem.letter("v")
    c = commutator(v, u)
    assert c.poly_part.is_zero()
    assert c.comm_part == CommPoly.constant(_one())
    e = from_word("uv") + from_word("vu")
    assert commutator(e, e).is_zero()


def test_lift_commutator_degree():
    # [uv+vu, u^n+v^n] is homogeneous of degree n+2 with zero image in the quotient
    for n in (3, 4):
        p = from_word("uv") + from_word("vu")
        q = from_word("u" * n) + from_word("v" * n)
        c = commutator(p, q)
        assert c.poly_part.is_zero()
        assert c.homogeneous_degree() == n + 2


def test_homogeneous_component():
    e = from_word("uv") + from_word("vu")  # 2uv + [v,u], all degree 2
    assert e.homogeneous_component(2) == e
    f = MetAssocElem.letter("u") + from_word("uuv")
    assert f.homogeneous_component(3) == from_word("uuv")
    g = from_word("u" * 3) * MetAssocElem.from_comm(CommPoly.constant(_one()))
    assert g.homogeneous_component(5) == g


def test_basis_counts_and_order():
    for d in range(9):
        want = (d + 1) + (comb(d + 1, 3) if d >= 2 else 0)
        assert len(basis(d)) == want
    b2 = basis(2)
    assert b2[0].poly_part == CommPoly.term(_mono(2, 0), _one())
    assert b2[1].poly_part == CommPoly.term(_mono(1, 1), _one())
    assert b2[2].poly_part == CommPoly.term(_mono(0, 2), _one())
    assert b2[3].comm_part == CommPoly.constant(_one())
    assert basis(0) == [MetAssocElem.one()]


def test_word_oracle_exhaustive():
    # the closed-form product must agree with letter-by-letter straightening
    for total in range(7):
        for l1 in range(total + 1):
            for w1 in itertools.product("uv", repeat=l1):
                for w2 in itertools.product("uv", repeat=total - l1):
                    a, b = "".join(w1), "".join(w2)
                    assert from_word(a) * from_word(b) == from_word(a + b)


def _both_blocks(rng, order, coeff, edge):
    """A random element of degree <= 7 with both blocks nonzero, plus a
    constant and the word ``edge`` (a, b) as u^a v^b."""
    while True:
        e = random_assoc(rng, order, max_degree=7, terms=5, coeff=coeff)
        for mono in (uv(0, 0), uv(*edge)):
            e = e + MetAssocElem(CommPoly.term(mono, coeff(rng, order, nonzero=True)))
        if not (e.poly_part.is_zero() or e.comm_part.is_zero()):
            return e


@pytest.mark.parametrize("order, coeff", [(4, random_gaussian), (12, random_cyc)])
def test_mul_matches_word_oracle(order, coeff):
    # multi-term factors with both blocks, checked against letter-by-letter
    # straightening; the left factor has a word with no v and the right one
    # a word with no u, where the cross term is empty
    rng = Random(29 + order)
    for _ in range(24):
        left = _both_blocks(rng, order, coeff, (rng.randint(1, 7), 0))
        right = _both_blocks(rng, order, coeff, (0, rng.randint(1, 7)))
        assert left * right == mul_oracle(left, right)
        const = MetAssocElem.one().scale(coeff(rng, order, nonzero=True))
        assert const * right == mul_oracle(const, right)
        assert left * const == mul_oracle(left, const)


def test_associativity_randomized():
    rng = Random(11)
    for _ in range(150):
        e1 = random_assoc(rng, max_degree=4, terms=3)
        e2 = random_assoc(rng, max_degree=4, terms=3)
        e3 = random_assoc(rng, max_degree=4, terms=3)
        assert (e1 * e2) * e3 == e1 * (e2 * e3)


def test_metabelian_law_randomized():
    rng = Random(13)
    for _ in range(150):
        a, b, c, d = (random_assoc(rng, max_degree=3, terms=2) for _ in range(4))
        assert (commutator(a, b) * commutator(c, d)).is_zero()


def test_normalization_identities():
    u = MetAssocElem.letter("u")
    bracket = MetAssocElem.from_comm(CommPoly.constant(_one()))
    assert (u * bracket).comm_part == CommPoly.term(_mono(0, 0, 1), _one())
    assert (bracket * u).comm_part == CommPoly.term(_mono(0, 0, 0, 0, 1), _one())
    # left factors of a commutator commute: uv[v,u] == vu[v,u]
    lhs = from_word("uv") * bracket
    assert lhs.comm_part == CommPoly.term(_mono(0, 0, 1, 1), _one())
    assert from_word("vu") * bracket == lhs


def test_scalar_and_power():
    rng = Random(17)
    e = random_assoc(rng, max_degree=3, terms=3)
    assert e * 2 == e + e
    assert e ** 2 == e * e
    assert e ** 0 == MetAssocElem.one()


@pytest.mark.parametrize(
    "s",
    [3, Fraction(-2, 3), CycNum.from_rational(4, Fraction(5, 2)), imag_unit(4)],
    ids=["int", "fraction", "rational-cycnum", "i"],
)
def test_scalars_act_the_same_on_either_side(s):
    # an element product hands a scalar factor to __rmul__, so both sides
    # scale; scaling by s and then by 1/s gives the element back
    rng = Random(23)
    for _ in range(10):
        e = random_assoc(rng)
        assert s * e == e * s == e.scale(s)
        assert (e * s) * (Fraction(1) / s) == e


def test_factors_that_are_not_scalars_raise_type_error():
    e = random_assoc(Random(29))
    for product in (lambda: e * "u", lambda: e * 1.5, lambda: 1.5 * e, lambda: CycNum.one(4) * 1.5):
        with pytest.raises(TypeError):
            product()


def test_power_is_the_repeated_product():
    e = random_assoc(Random(31), max_degree=2, terms=3)
    want = MetAssocElem.one()
    for k in range(10):
        assert e ** k == want, k
        want = want * e
    with pytest.raises(ValueError, match="negative power"):
        e ** -1


def test_word_concat_randomized():
    rng = Random(19)
    for _ in range(100):
        w1, w2 = random_word(rng, 5), random_word(rng, 5)
        assert from_word(w1) * from_word(w2) == from_word(w1 + w2)


def test_linear_image_is_a_homomorphism():
    rng = Random(73)
    for _ in range(30):
        g = random_matrix(rng)
        e1 = random_assoc(rng, max_degree=4, terms=3)
        e2 = random_assoc(rng, max_degree=3, terms=3)
        lhs = (e1 * e2).linear_image(*g)
        assert lhs == e1.linear_image(*g) * e2.linear_image(*g)


def test_linear_image_inverse_round_trip():
    rng = Random(79)
    for _ in range(20):
        g = random_matrix(rng)
        e = random_assoc(rng, max_degree=6, terms=4)
        assert e.linear_image(*g).linear_image(*inverse_matrix(*g)) == e


def test_linear_image_matches_term_by_term_oracle():
    # many terms of low degree, so words share u-exponents and commutator
    # terms share left and right exponent pairs; singular g included
    rng = Random(83)
    one, zero = CycNum.one(4), CycNum.zero(4)
    singular = [(one, one, one, one), (zero, one, zero, one), (zero, zero, zero, zero)]
    for order in (4, 12):
        for k in range(15):
            g = singular[k] if k < len(singular) else random_matrix(rng, order)
            e = random_assoc(rng, order, max_degree=6, terms=10, coeff=random_cyc)
            assert e.linear_image(*g) == linear_image_oracle(e, *g)


def _by_exponents(e):
    return e.poly_part.terms | e.comm_part.terms


def _by_column(e, base):
    """The coefficients of e keyed by ``_column``."""
    return {_column(m, False, base): c for m, c in e.poly_part.terms.items()} | {
        _column(m, True, base): c for m, c in e.comm_part.terms.items()
    }


def test_columns_number_the_basis_in_order():
    # read in base 13 (the base of a check to degree 12), each degree's
    # basis words have distinct columns, ascending in basis order
    for d in range(13):
        poly, comm = basis_monomials(d)
        columns = {_column(m, False, 13): m for m in poly} | {_column(m, True, 13): m for m in comm}
        assert len(columns) == len(poly) + len(comm)
        assert tuple(columns[c] for c in sorted(columns)) == poly + comm


def _assert_word_times_matches_products(g, max_degree=10):
    """Every basis word of degree <= max_degree times g, in closed form
    on integer terms, against ``__mul__`` scaled by the same denominator,
    both keyed by ``_column`` in a base above every product exponent."""
    _, den = _integer_row(_by_exponents(g))

    def terms(part):
        return [(m, int(c.rational_value() * den)) for m, c in part.terms.items()]

    poly_terms, comm_terms = terms(g.poly_part), terms(g.comm_part)
    base = max_degree + g.degree() + 1
    for e in range(max_degree + 1):
        poly, comm = basis_monomials(e)
        for j, (m, word) in enumerate(zip(poly + comm, basis(e))):
            image = _word_times(_column(m, j >= len(poly), base), base, poly_terms, comm_terms)
            expect = {k: v.rational_value() * den for k, v in _by_column(word * g, base).items()}
            assert image == expect, (m, g)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_word_times_matches_products_by_generators(n):
    for g in invariant_generators_assoc(n):
        _assert_word_times_matches_products(g)


def test_word_times_matches_products_by_random_rationals():
    rng = Random(83)
    for k in range(1, 7):
        words = basis(k)
        for _ in range(3):
            g = MetAssocElem.zero()
            for w in rng.sample(words, min(len(words), 5)):
                q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
                g = g + w.scale(q)
            _assert_word_times_matches_products(g)
