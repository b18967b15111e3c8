from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from metabelian.cyclo import (
    CycNum,
    accumulate,
    ambient_order,
    cyclotomic_polynomial,
    euler_phi,
    imag_unit,
    root_of_unity,
)
from metabelian.linalg import RowEchelon, _integer_row
from metabelian.poly import ONE
from helpers import cyc_mul_oracle, cyc_oracle, random_cyc


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 3, 4, 6, 12, 20)] == [1, 1, 2, 2, 2, 4, 8]


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # the first with a coefficient outside {-1, 0, 1}: -2 at x^7 and x^41
    phi = cyclotomic_polynomial(105)
    assert {j: c for j, c in enumerate(phi) if c not in (-1, 0, 1)} == {7: -2, 41: -2}


def test_order_validation():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)
    with pytest.raises(ValueError):
        CycNum(0, {})
    with pytest.raises(ValueError):
        root_of_unity(0, 1)


def test_root_examples():
    # i^2 = -1
    assert root_of_unity(4, 2) == -1
    # the three cube roots of unity sum to zero
    total = sum((root_of_unity(3, k) for k in range(3)), CycNum.zero(3))
    assert total.is_zero()
    # x^4 mod (x^4 - x^2 + 1) is x^2 - 1, by long division
    assert root_of_unity(12, 4).coeffs == {2: Fraction(1), 0: Fraction(-1)}


def test_root_order_property():
    for m in (4, 12, 20):
        for k in range(m):
            assert root_of_unity(m, k) ** m == 1


def test_field_examples():
    n = 5
    m = ambient_order(n)
    xi = root_of_unity(m, m // n)
    assert xi * xi.conj() == 1
    assert CycNum.from_rational(12, 2).inv() == Fraction(1, 2)
    z3 = root_of_unity(3, 1)
    assert (z3 * z3 + z3 + 1).is_zero()


def test_conjugation():
    assert root_of_unity(12, 1).conj() == root_of_unity(12, 11)
    q = CycNum.from_rational(12, Fraction(3, 5))
    assert q.conj() == q
    i = imag_unit(12)
    assert i.conj() == -i
    a = random_cyc(Random(1), 12)
    assert a.conj().conj() == a


def test_inverse_and_field_laws():
    rng = Random(7)
    for m in (4, 12, 20, 3, 9, 28):
        for _ in range(25):
            a = random_cyc(rng, m, nonzero=True)
            b = random_cyc(rng, m)
            c = random_cyc(rng, m)
            assert a * a.inv() == 1
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a


def test_canonical_equality():
    rng = Random(9)
    for _ in range(50):
        a = random_cyc(rng, 12)
        b = random_cyc(rng, 12)
        assert ((a - b).is_zero()) == (a == b)


def test_zero_division_reported():
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(12).inv()


def test_mixed_orders_rejected():
    with pytest.raises(ValueError):
        root_of_unity(12, 1) + root_of_unity(20, 1)
    # two non-rational values of different orders refuse every operation
    x, y = root_of_unity(12, 1), root_of_unity(20, 1)
    for op in (lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="mixed cyclotomic orders"):
            op(x, y)


ORDERS = (1, 3, 4, 12, 20, 28)


@pytest.mark.parametrize("m", ORDERS)
def test_rationals_combine_with_every_order(m):
    # a rational of any order k acts on x of order m as the same
    # rational of order m; the result has the order of x
    rng = Random(500 + m)
    for _ in range(12):
        x = random_cyc(rng, m)
        q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        same = CycNum.from_rational(m, q)
        for k in ORDERS:
            r = CycNum.from_rational(k, q)
            assert r == same and hash(r) == hash(same)
            pairs = [
                (r + x, same + x), (x + r, x + same),
                (r - x, same - x), (x - r, x - same),
                (r * x, same * x), (x * r, x * same),
            ]
            if q:
                pairs.append((x / r, x / same))
            if x:
                pairs.append((r / x, same / x))
            for got, want in pairs:
                assert got == want and hash(got) == hash(want)
                assert got.coeffs == want.coeffs
                if not x.is_rational():
                    assert got.order == m


@pytest.mark.parametrize("m", (1, 4, 12))
def test_unit_factor_gives_the_other_factor(m):
    # a product by 1 may share the other factor's coefficient map, so no
    # later arithmetic on the result may change either operand
    rng = Random(600 + m)
    for _ in range(12):
        x, y = random_cyc(rng, m), random_cyc(rng, m)
        before = dict(x.coeffs)
        for r in (x * ONE, ONE * x, x * 1, x * Fraction(1), x * CycNum.one(m)):
            assert r == x and r.coeffs == before
            # two rationals take the left operand's order
            assert r.order == m or x.is_rational()
            r = r + y
            r = r * y + r * r
        assert x.coeffs == before and x.order == m
        assert ONE.coeffs == {0: 1} and ONE.order == 1


def test_one_term_factor_shifts_and_reduces():
    # q*zeta^k reduces to one term for k = 1..3 and 6..9 (to the rational
    # -q at k = 6), a shift by 1..3 that carries exponents of y past
    # phi(12) = 4; for the other k it is a sum
    rng = Random(612)
    for k in range(1, 12):
        for a in (root_of_unity(12, k), CycNum(12, {k: Fraction(3, 5)})):
            for _ in range(8):
                y = random_cyc(rng, 12)
                want = cyc_mul_oracle(a, y)
                for got in (a * y, y * a):
                    assert got.order == 12 and got.coeffs == want.coeffs


# Phi_105 is the first cyclotomic polynomial with a coefficient outside
# {-1, 0, 1}; Phi_1 and Phi_28 have a -1 below the top
REDUCTION_ORDERS = (1, 2, 3, 5, 8, 28, 105)


@pytest.mark.parametrize("m", REDUCTION_ORDERS)
def test_constructor_matches_long_division(m):
    # exponents in [-2m, 2m] are taken mod m, and duplicates mod m add up
    # before the reduction, some of them to zero
    rng = Random(2000 + m)
    deg = euler_phi(m)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            e = rng.randint(-2 * m, 2 * m)
            q = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            terms[e] = q if rng.random() < 0.8 else q.numerator
            if rng.random() < 0.3:
                terms[e - m if e >= -m else e + m] = -q
        got = CycNum(m, terms)
        assert got.coeffs == cyc_oracle(m, terms), terms
        assert all(0 <= e < deg and type(c) is Fraction and c for e, c in got.coeffs.items())
    for e in range(-2 * m, m + 1):
        # the same exponent mod m, cancelling
        assert CycNum(m, {e: Fraction(2, 3), e + m: Fraction(-2, 3)}).coeffs == {}


@pytest.mark.parametrize("m", REDUCTION_ORDERS)
def test_products_match_long_division(m):
    # multi-term factors, and one-term factors q*zeta^k on either side
    rng = Random(2100 + m)
    deg = euler_phi(m)

    def draw(count):
        return CycNum(m, {
            rng.randrange(deg): Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            for _ in range(count)
        })

    for _ in range(30):
        x, y = draw(rng.randint(2, 6)), draw(rng.randint(2, 6))
        one_term = CycNum(m, {rng.randrange(m): Fraction(rng.randint(1, 5), rng.randint(1, 4))})
        for a, b in ((x, y), (one_term, y), (x, one_term)):
            want = cyc_mul_oracle(a, b).coeffs
            assert (a * b).coeffs == want and (b * a).coeffs == want


def test_accumulate_drops_a_cancelled_fraction():
    out = {3: Fraction(2, 3), 4: Fraction(1)}
    accumulate(out, 3, Fraction(-2, 3))
    assert out == {4: 1}
    accumulate(out, 5, Fraction(0))
    assert out == {4: 1}
    accumulate(out, 4, Fraction(1, 2))
    assert out == {4: Fraction(3, 2)}


def test_constructor_takes_only_what_arithmetic_takes():
    # arithmetic refuses a float, so the constructor refuses it too, and
    # every other coefficient but an int or a Fraction, and every exponent
    # but an int
    for coeffs in ({0: 0.1}, {0: "1/3"}, {1.5: 1}, {"1": 1}, {0: 1.0}):
        with pytest.raises(TypeError):
            CycNum(4, coeffs)
    with pytest.raises(TypeError):
        CycNum.from_rational(4, 0.5)
    with pytest.raises(TypeError):
        CycNum(4, {0: 1}) * 0.5
    assert CycNum(4, {5: 2}).coeffs == {1: Fraction(2)}
    assert CycNum.from_rational(4, Fraction(1, 3)) == Fraction(1, 3)


def test_gaussian_detection():
    # at order 420, phi = 96 < 105 = order/4, so i reduces to several terms
    for order in (4, 12, 20, 420):
        i = imag_unit(order)
        for a, b in ((Fraction(1, 2), Fraction(3)), (Fraction(-2, 3), Fraction(-1))):
            c = CycNum.from_rational(order, a) + i * b
            g = c._gaussian()
            assert g[2] > 0 and (Fraction(g[0], g[2]), Fraction(g[1], g[2])) == (a, b)
            # zeta^k lies in Q(i) only when order/4 divides k, so order 4 has none to add
            for k in (1, order // 4 + 1) if order > 4 else ():
                assert root_of_unity(order, k)._gaussian() is None
                assert (c + root_of_unity(order, k))._gaussian() is None


@pytest.mark.parametrize("m", sorted(set(ORDERS) | set(REDUCTION_ORDERS)))
def test_power_is_the_repeated_product(m):
    # x**k against the k-fold product, and x**-k against that of x.inv()
    rng = Random(2200 + m)
    x = random_cyc(rng, m, nonzero=True)
    inverse = x.inv()
    want, want_inverse = CycNum.one(m), CycNum.one(m)
    for k in range(10):
        assert x ** k == want and x ** -k == want_inverse, k
        want, want_inverse = want * x, want_inverse * inverse


def test_pow_negative():
    z = root_of_unity(20, 3)
    assert z ** -1 == z.inv()
    assert z ** -2 == (z * z).inv()


def test_rendering():
    assert str(CycNum.zero(4)) == "0"
    assert str(CycNum.from_rational(4, Fraction(-3, 2))) == "-3/2"
    assert str(root_of_unity(12, 2)) == "z(12,2)"
    assert str(-root_of_unity(12, 2) + 1) == "1 - z(12,2)"


# ----------------------------------------------------------------------
# Canonical form: int numerators over one denominator, in lowest terms
# ----------------------------------------------------------------------

CANONICAL = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_Q = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=12),
)


def _terms(m: int):
    return st.dictionaries(st.integers(-2 * m, 2 * m), _Q, max_size=5)


def _sum(*maps) -> dict:
    out = {}
    for terms in maps:
        for e, c in terms.items():
            out[e] = out.get(e, 0) + c
    return out


def _assert_canonical(x: CycNum, want: dict | None = None) -> None:
    """x is stored reduced and in lowest terms, and (if given) its
    Fraction view equals ``want``."""
    assert type(x.den) is int and x.den >= 1
    assert gcd(x.den, *x.num.values()) == 1
    assert all(type(c) is int and c for c in x.num.values())
    assert all(type(e) is int and 0 <= e < euler_phi(x.order) for e in x.num)
    if want is not None:
        assert x.coeffs == want
    if x.is_rational():
        assert hash(x) == hash(x.rational_value())


@CANONICAL
@given(st.data())
def test_every_operation_keeps_the_canonical_form(data):
    m = data.draw(st.sampled_from(sorted(set(ORDERS) | set(REDUCTION_ORDERS))))
    tx, ty = data.draw(_terms(m)), data.draw(_terms(m))
    q, k, p = data.draw(_Q), data.draw(st.integers(0, 4)), data.draw(st.integers(-12, 12))
    x, y = CycNum(m, tx), CycNum(m, ty)
    _assert_canonical(x, cyc_oracle(m, tx))
    _assert_canonical(y, cyc_oracle(m, ty))
    xc, yc = x.coeffs, y.coeffs
    _assert_canonical(x + y, cyc_oracle(m, _sum(xc, yc)))
    _assert_canonical(x - y, cyc_oracle(m, _sum(xc, {e: -c for e, c in yc.items()})))
    _assert_canonical(-x, cyc_oracle(m, {e: -c for e, c in xc.items()}))
    for s in (q, p, Fraction(p)):
        want = cyc_oracle(m, {e: c * s for e, c in xc.items()})
        _assert_canonical(x * s, want)
        _assert_canonical(s * x, want)
        _assert_canonical(x + s, cyc_oracle(m, _sum(xc, {0: s})))
        _assert_canonical(s - x, cyc_oracle(m, _sum({0: s}, {e: -c for e, c in xc.items()})))
    want = cyc_mul_oracle(x, y).coeffs
    _assert_canonical(x * y, want)
    _assert_canonical(y * x, want)
    power = CycNum.one(m)
    for _ in range(k):
        power = cyc_mul_oracle(power, x)
    _assert_canonical(x ** k, power.coeffs)
    _assert_canonical(x.conj(), cyc_oracle(m, {-e: c for e, c in xc.items()}))
    if x:
        inverse = x.inv()
        _assert_canonical(inverse)
        assert cyc_mul_oracle(x, inverse).coeffs == {0: 1}


@CANONICAL
@given(
    st.sampled_from((1, 4, 105)),
    st.lists(
        st.dictionaries(st.integers(0, 5), _Q, min_size=1, max_size=4), min_size=1, max_size=6
    ),
    st.dictionaries(st.integers(0, 5), _Q, max_size=4),
)
def test_echelon_entries_keep_the_canonical_form(m, rows, query):
    def cyc_row(terms):
        return {c: CycNum.from_rational(m, v) for c, v in terms.items() if v}

    rows = [cyc_row(r) for r in rows]
    ech = RowEchelon()
    for row in rows:
        ech.insert(row)
    for row in ech.rows():
        for v in row.values():
            _assert_canonical(v)
        assert row[min(row)] == 1
    r, scale = ech._reduce_integral(*_integer_row(cyc_row(query)))
    # query minus its residual r / scale lies in the row space
    moved = cyc_row(_sum(query, {c: -Fraction(v, scale) for c, v in r.items()}))
    assert not ech.insert(moved)
