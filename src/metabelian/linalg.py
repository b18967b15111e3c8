"""Exact row reduction of rational rows, fraction-free over the integers.

Rows are sparse {column: CycNum} maps with no zero entries, keyed by
mutually comparable columns (ints, or monomial tuples), and every
entry must be rational: a row with any other entry raises ValueError
and leaves the echelon as it was.  Pivoting is deterministic: always
the smallest remaining column.

A row is read as its entries' int numerators over the lcm of their
denominators, with no ``Fraction`` built.  Each stored pivot is a
primitive integer row with a positive lead (``pivots()``), and a step is
row <- b*row - a*pivot, where (a, b) are the two lead entries divided
by their gcd (Bareiss, Math. Comp. 22, 1968).  The residual is the
integer row over the product of the b's: the residual of monic elimination.
"""

from __future__ import annotations

from math import gcd, lcm
from types import MappingProxyType

from .cyclo import CycNum

__all__ = ["RowEchelon"]

Row = dict


def _integer_row(row: Row) -> tuple[dict[int, int], int] | None:
    """(den * row as integers, den) for a rational row, else None."""
    den = 1
    for v in row.values():
        num = v.num
        if num and (len(num) != 1 or 0 not in num):
            return None
        if v.den != 1:
            den = lcm(den, v.den)
    return {c: v.num[0] * (den // v.den) for c, v in row.items() if v.num}, den


def _rational_row(row: dict[int, int], den: int) -> Row:
    """The rational row row / den, each entry in lowest terms."""
    out = {}
    for c, v in row.items():
        g = gcd(v, den)
        out[c] = CycNum._make(1, {0: v // g}, den // g)
    return out


class RowEchelon:
    """An incrementally maintained echelon basis of a rational row space."""

    def __init__(self):
        # primitive integer rows with a positive lead, by lead column
        self._pivots: dict[int, dict[int, int]] = {}

    def _reduce_integral(self, row: dict[int, int], scale: int) -> tuple[dict[int, int], int]:
        """Integer residual r and scale s of a row given as (scale * row,
        scale): the exact residual is r / s."""
        pivots = self._pivots
        while row:
            lead = min(row)
            piv = pivots.get(lead)
            if piv is None:
                break
            a = row[lead]
            b = piv[lead]
            g = gcd(a, b)
            a //= g
            if b != g:
                b //= g
                scale *= b
                row = {c: v * b for c, v in row.items()}
            for c, v in piv.items():
                x = row.get(c, 0) - a * v
                if x:
                    row[c] = x
                else:
                    del row[c]
        return row, scale

    def insert(self, row: Row) -> bool:
        """Add a row; True when it enlarged the span."""
        if (ints := _integer_row(row)) is None:
            raise ValueError("rows must have rational entries")
        r, _ = self._reduce_integral(*ints)
        if not r:
            return False
        lead = min(r)
        g = gcd(*r.values())
        if r[lead] < 0:
            g = -g
        self._pivots[lead] = {c: v // g for c, v in r.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def pivots(self) -> MappingProxyType:
        """A read-only view of the integer pivots by lead, in insertion order."""
        return MappingProxyType(self._pivots)

    def rows(self) -> list[Row]:
        """The stored pivot rows as monic CycNum rows, by lead column."""
        pivots = self._pivots
        return [_rational_row(pivots[c], pivots[c][c]) for c in sorted(pivots)]
