"""Exact row reduction over the cyclotomic field with monic pivots.

Rows are sparse {column: CycNum} maps with no zero entries.  Every
stored pivot row is scaled at insertion so that its leading entry is 1;
elimination is then row <- row - a*pivot, which never scales the row
being reduced.  The one inversion per kept row is a rational division
whenever the leading entry is rational, as on every verification path.
Pivoting is deterministic: always the smallest remaining column.
"""

from __future__ import annotations

from .cyclo import CycNum
from .poly import accumulate

__all__ = ["RowEchelon", "express_in_span", "rank_of"]

Row = dict


class RowEchelon:
    """An incrementally maintained echelon basis of a row space."""

    def __init__(self):
        self._pivots: dict[int, Row] = {}

    def reduce(self, row: Row) -> Row:
        """Residual of a row after elimination against the stored pivots."""
        row = {c: v for c, v in row.items() if not v.is_zero()}
        while row:
            lead = min(row)
            piv = self._pivots.get(lead)
            if piv is None:
                return row
            na = -row[lead]
            for c, v in piv.items():
                accumulate(row, c, na * v)
        return row

    def insert(self, row: Row) -> bool:
        """Add a row; True when it enlarged the span."""
        r = self.reduce(row)
        if not r:
            return False
        lead = min(r)
        pval = r[lead]
        if pval != 1:
            q = pval.inv()
            r = {c: v * q for c, v in r.items()}
        self._pivots[lead] = r
        return True

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def rows(self) -> list[Row]:
        return [self._pivots[c] for c in sorted(self._pivots)]


def rank_of(rows) -> int:
    ech = RowEchelon()
    for row in rows:
        ech.insert(row)
    return ech.rank


def express_in_span(rows: list[Row], target: Row, order: int) -> list[CycNum] | None:
    """Exact coefficients writing target as a combination of rows, or None.

    Cofactors ride along as tracking columns past every data column: row
    j gets column top + 1 + j and the target column top.  Reduction
    never scales the target, so once its residual has no data column
    left it reads target - sum_j c_j * row_j, with -c_j at column
    top + 1 + j.
    """
    one = CycNum.one(order)
    top = 1 + max((c for r in (*rows, target) for c in r), default=-1)
    ech = RowEchelon()
    for j, row in enumerate(rows):
        ech.insert({**row, top + 1 + j: one})
    res = ech.reduce({**target, top: one})
    if min(res) < top:
        return None
    zero = CycNum.zero(order)
    return [-res.get(top + 1 + j, zero) for j in range(len(rows))]
