"""Division-free exact row reduction over the cyclotomic field.

Rows are sparse {column: CycNum} maps with no zero entries.  Elimination
uses cross multiplication (row <- p*row - a*pivot) so no field inversion
happens on the elimination path; pivot rows with a rational leading
entry are rescaled by that rational to keep entries small.  Pivoting is
deterministic: always the smallest remaining column.
"""

from __future__ import annotations

from .cyclo import CycNum

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
            a = row[lead]
            p = piv[lead]
            if p == 1:
                new = dict(row)
            else:
                new = {c: v * p for c, v in row.items()}
            for c, v in piv.items():
                t = new.get(c)
                s = -(a * v) if t is None else t - a * v
                if s.is_zero():
                    new.pop(c, None)
                else:
                    new[c] = s
            row = new
        return row

    def insert(self, row: Row) -> bool:
        """Add a row; True when it enlarged the span."""
        r = self.reduce(row)
        if not r:
            return False
        lead = min(r)
        pval = r[lead]
        if pval.is_rational() and pval != 1:
            q = 1 / pval.rational_value()
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
    j gets column top + 1 + j and the target column top.  Once the
    target's residual has no data column left, it reads
    s * target - sum_j c_j * row_j with s at column top and -c_j at
    column top + 1 + j; the one division is by s.
    """
    one = CycNum.one(order)
    top = 1 + max((c for r in (*rows, target) for c in r), default=-1)
    ech = RowEchelon()
    for j, row in enumerate(rows):
        ech.insert({**row, top + 1 + j: one})
    res = ech.reduce({**target, top: one})
    if min(res) < top:
        return None
    scale = -res[top].inv()
    zero = CycNum.zero(order)
    return [res.get(top + 1 + j, zero) * scale for j in range(len(rows))]
