from fractions import Fraction
from math import gcd
from random import Random

import pytest

from metabelian.cyclo import CycNum, imag_unit
from metabelian.linalg import RowEchelon, _integer_row
from metabelian.poly import uv


def _c(q, order=4):
    return CycNum.from_rational(order, Fraction(q))


def test_rank_simple():
    one = _c(1)
    ech = RowEchelon()
    for row in ({0: one, 1: _c(2)}, {0: _c(2), 1: _c(4)}, {1: one}):
        ech.insert(row)
    assert ech.rank == 2


def test_echelon_incremental():
    ech = RowEchelon()
    one = CycNum.one(4)
    assert ech.insert({0: one, 2: _c(3)})
    assert not ech.insert({0: _c(2), 2: _c(6)})
    assert ech.insert({2: one})
    assert ech.rank == 2
    assert not ech.insert({0: _c(5), 2: _c(7)})


# ----------------------------------------------------------------------
# Oracle: plain field elimination written here, independent of linalg
# ----------------------------------------------------------------------

class _Reference:
    """Incremental monic elimination on Fraction values, smallest lead
    first: the residual and the stored rows that RowEchelon must
    reproduce exactly."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        row = {c: v for c, v in row.items() if v}
        while row and min(row) in self.pivots:
            a = row[min(row)]
            for c, v in self.pivots[min(row)].items():
                x = row.get(c, 0) - a * v
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
        return row

    def insert(self, row):
        r = self.reduce(row)
        if r:
            p = r[min(r)]
            self.pivots[min(r)] = {c: v / p for c, v in r.items()}
        return bool(r)


def _rref(rows, width):
    """Gauss-Jordan normal form of the span: dense rows by pivot column."""
    mat = [[row.get(c, 0) for c in range(width)] for row in rows]
    out, col = [], 0
    while mat and col < width:
        k = next((k for k, r in enumerate(mat) if r[col]), None)
        if k is None:
            col += 1
            continue
        piv = mat.pop(k)
        piv = [v / piv[col] for v in piv]
        mat = [[x - r[col] * y for x, y in zip(r, piv)] for r in mat]
        out = [[x - r[col] * y for x, y in zip(r, piv)] for r in out]
        out.append(piv)
        col += 1
    return [tuple(r) for r in out]


def _random_rational_rows(rng, count, width):
    """Sparse rows with denominators and signed leads; about a third are
    rational combinations of earlier rows, and one is all zero."""
    rows = [{}]
    while len(rows) < count:
        if len(rows) > 2 and rng.random() < 0.35:
            row = {}
            for src in rng.sample(rows, 3):
                k = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                for c, v in src.items():
                    row[c] = row.get(c, 0) + k * v
        else:
            row = {
                c: Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
                for c in rng.sample(range(width), rng.randint(1, 6))
            }
        rows.append(row)
    rng.shuffle(rows)
    return rows


def _as_cyc(row, order):
    # explicit zero entries are kept: RowEchelon must ignore them
    return {
        c: v if isinstance(v, CycNum) else CycNum.from_rational(order, v)
        for c, v in row.items()
    }


def _residual(ech, row):
    """The residual r / scale of a rational row against ech's pivots."""
    r, scale = ech._reduce_integral(*_integer_row(row))
    return {c: Fraction(v, scale) for c, v in r.items()}


def _is_rational(row):
    return all(not isinstance(v, CycNum) or v.is_rational() for v in row.values())


def _assert_rejected(ech, row):
    """A non-rational row raises ValueError and leaves the pivots as they were."""
    pivots = {lead: dict(piv) for lead, piv in ech._pivots.items()}
    with pytest.raises(ValueError, match="rational"):
        ech.insert(row)
    assert ech._pivots == pivots


def _check_against_reference(rows, queries, order, width):
    """RowEchelon beside the reference on the rows and queries; every
    non-rational row must be rejected, and the reference never sees it."""
    ech, ref = RowEchelon(), _Reference()
    rational = []
    for row, query in zip(rows, queries):
        if _is_rational(row):
            assert ech.insert(_as_cyc(row, order)) == ref.insert(row)
            rational.append(row)
        else:
            _assert_rejected(ech, row)
        assert ech.rank == len(ref.pivots)
        assert _residual(ech, _as_cyc(query, order)) == ref.reduce(query)
    got_rows = ech.rows()
    assert got_rows == [_as_cyc(ref.pivots[c], order) for c in sorted(ref.pivots)]
    assert all(row[min(row)] == 1 for row in got_rows)
    assert _rref(got_rows, width) == _rref([_as_cyc(r, order) for r in rational], width)
    # pivots are primitive integer rows with positive leads
    for lead, piv in ech._pivots.items():
        assert all(type(v) is int for v in piv.values())
        assert piv[lead] > 0 and gcd(*piv.values()) == 1


@pytest.mark.parametrize("seed", range(6))
def test_rational_rows_match_fraction_reference(seed):
    rng = Random(seed)
    width = 20
    rows = _random_rational_rows(rng, 40, width)
    queries = _random_rational_rows(rng, 40, width)
    _check_against_reference(rows, queries, 12, width)


@pytest.mark.parametrize("seed", range(4))
def test_mixed_echelon_matches_reference(seed):
    # a Gaussian row among rational ones is rejected by insert; the
    # echelon goes on as the reference on the rational rows
    rng = Random(100 + seed)
    width = 16
    i = imag_unit(4)
    before = _random_rational_rows(rng, 12, width)
    after = _random_rational_rows(rng, 16, width)
    gaussian = {c: CycNum.from_rational(4, v) for c, v in after[3].items()}
    gaussian[rng.randrange(width)] = i * Fraction(rng.randint(1, 5), rng.randint(1, 3))
    rows = before + [gaussian] + after
    queries = _random_rational_rows(rng, len(rows), width)
    _check_against_reference(rows, queries, 4, width)


@pytest.mark.parametrize("seed", range(4))
def test_pivots_are_the_stored_rows_in_insertion_order(seed):
    # ech reads pivots() before every step; twin never reads it
    rng = Random(200 + seed)
    width = 20
    rows = [_as_cyc(r, 12) for r in _random_rational_rows(rng, 40, width)]
    queries = [_as_cyc(r, 12) for r in _random_rational_rows(rng, 40, width)]
    ech, twin = RowEchelon(), RowEchelon()
    leads = []
    for row, query in zip(rows, queries):
        ech.pivots()
        residual = _residual(ech, row)
        assert ech.insert(row) == twin.insert(row) == bool(residual)
        if residual:
            leads.append(min(residual))
        ech.pivots()
        assert _residual(ech, query) == _residual(twin, query)
    pivots = ech.pivots()
    assert list(pivots) == leads and pivots == twin.pivots()
    for lead, piv in pivots.items():
        assert all(type(v) is int for v in piv.values())
        assert min(piv) == lead and piv[lead] > 0 and gcd(*piv.values()) == 1
    # rows() is each pivot over its lead, by lead column
    assert ech.rows() == [
        _as_cyc({c: Fraction(v, pivots[lead][lead]) for c, v in pivots[lead].items()}, 12)
        for lead in sorted(pivots)
    ]
    with pytest.raises(TypeError):
        pivots[width] = {width: 1}


def test_integer_step_divides_leads_by_their_gcd():
    ech = RowEchelon()
    assert ech.insert({0: _c(Fraction(4, 3)), 1: _c(Fraction(2, 3))})
    assert ech._pivots == {0: {0: 2, 1: 1}}
    # leads 6 and 2 share 2: row - 3*pivot, with no scaling
    assert ech._reduce_integral({0: 6, 1: 5}, 1) == ({1: 2}, 1)
    # leads 3 and 2 are coprime: 2*row - 3*pivot, scale 2
    assert ech._reduce_integral({0: 3, 1: 5}, 1) == ({1: 7}, 2)
