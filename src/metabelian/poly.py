"""Sparse commutative polynomials over CycNum, plus exact rational series.

A monomial is a plain tuple of the six exponents of u, v (the rank-2
alphabet) and u1, v1, u2, v2 (the commutator-ideal coordinates): a
product of monomials is the slotwise sum and a degree is the sum of the
tuple.  The elements of both algebras are built from polynomials in
these.  The printing and pivoting order is the lexicographic order on
the tuples.  Sparse sums add terms through ``cyclo.accumulate``, which
drops a coefficient that cancels to zero.  ``ONE`` and ``ZERO`` are the
rational structural constants of every coefficient field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, itemgetter, mul

from .cyclo import CycNum, _powers, _signed_part, _signed_sum, accumulate

__all__ = [
    "CommPoly",
    "ONE",
    "RationalSeries",
    "VARIABLES",
    "ZERO",
    "intpoly_add",
    "intpoly_mul",
    "uv",
]

VARIABLES = ("u", "v", "u1", "v1", "u2", "v2")
_NVARS = len(VARIABLES)

# slot indices used throughout the package
IU, IV, IU1, IV1, IU2, IV2 = range(6)

# rationals combine with a CycNum of any order, so these serve every field
ONE = CycNum.one(1)
ZERO = CycNum.zero(1)


def _power(table: list, k: int):
    """x^k from ``table`` = [1, x, x^2, ...], which is extended as needed."""
    while len(table) <= k:
        table.append(table[-1] * table[1])
    return table[k]


def uv(a: int, b: int) -> tuple[int, ...]:
    """The monomial u^a v^b."""
    return (a, b, 0, 0, 0, 0)


class CommPoly:
    """A sparse polynomial: ``terms`` maps monomial tuples to CycNum
    coefficients, with no stored zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, ...], CycNum] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def _make(cls, terms: dict[tuple[int, ...], CycNum]) -> CommPoly:
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls) -> CommPoly:
        return cls._make({})

    @classmethod
    def constant(cls, c: CycNum) -> CommPoly:
        return cls({uv(0, 0): c})

    @classmethod
    def variable(cls, name: str) -> CommPoly:
        mono = [0] * _NVARS
        mono[VARIABLES.index(name)] = 1
        return cls._make({tuple(mono): ONE})

    @classmethod
    def linear(cls, cu: CycNum, cv: CycNum) -> CommPoly:
        """The linear form cu*u + cv*v."""
        return cls({uv(1, 0): cu, uv(0, 1): cv})

    @classmethod
    def term(cls, mono: tuple[int, ...], coeff: CycNum) -> CommPoly:
        return cls({mono: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: CommPoly) -> CommPoly:
        out = dict(self.terms)
        for m, c in other.terms.items():
            accumulate(out, m, c)
        return CommPoly._make(out)

    def __neg__(self) -> CommPoly:
        return CommPoly._make({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: CommPoly) -> CommPoly:
        return self + (-other)

    def __mul__(self, other: CommPoly) -> CommPoly:
        out: dict[tuple[int, ...], CycNum] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                accumulate(out, tuple(map(add, m1, m2)), c1 * c2)
        return CommPoly._make(out)

    def scale(self, c) -> CommPoly:
        if not c:
            return CommPoly.zero()
        return CommPoly._make({m: v * c for m, v in self.terms.items()})

    def substitute(self, images: dict[int, CommPoly]) -> CommPoly:
        """Apply the ring homomorphism sending the variable at each slot
        (IU .. IV2) to its image; ValueError if a term raises a variable
        that has none.

        Each term splits at IU2 into a left part (u, v, u1, v1) and a
        right part (u2, v2).  Each power of an image is built once, and so
        is each right part's image.  The terms that share a left part sum
        their right images first, and the sum meets the left powers once.
        """
        unit = CommPoly.constant(ONE)
        tables = {slot: [unit, image] for slot, image in images.items()}

        def powers(part: tuple[int, ...], first: int) -> list[CommPoly]:
            # the image powers that part raises, its exponents starting at slot first
            raised = [(slot, e) for slot, e in enumerate(part, first) if e]
            for slot, _ in raised:
                if slot not in tables:
                    raise ValueError(f"no image given for variable {VARIABLES[slot]!r}")
            return [_power(tables[slot], e) for slot, e in raised]

        by_left: dict[tuple[int, ...], dict[tuple[int, ...], CycNum]] = {}
        right_images: dict[tuple[int, ...], CommPoly] = {}
        for mono, coeff in self.terms.items():
            part = mono[IU2:]
            if part not in right_images:
                right_images[part] = reduce(mul, powers(part, IU2) or [unit])
            right = by_left.setdefault(mono[:IU2], {})
            for m, x in right_images[part].terms.items():
                accumulate(right, m, x * coeff)
        out: dict[tuple[int, ...], CycNum] = {}
        for left, right in by_left.items():
            # a one-term sum scales the first power, the cheapest place; a
            # longer one meets the product of the powers
            factors = powers(left, IU)
            factors.insert(0 if len(right) == 1 else len(factors), CommPoly._make(right))
            for m, x in reduce(mul, factors).terms.items():
                accumulate(out, m, x)
        return CommPoly._make(out)

    def moved(self, slot: int) -> CommPoly:
        """A polynomial in u, v rewritten in the variables at ``slot`` and
        ``slot + 1`` (IU1 for u1, v1; IU2 for u2, v2).  The move is
        injective, so no coefficients combine."""
        left = (0,) * slot
        right = (0,) * (_NVARS - 2 - slot)
        return CommPoly._make({left + m[:2] + right: c for m, c in self.terms.items()})

    def homogeneous_component(self, d: int) -> CommPoly:
        return CommPoly._make({m: c for m, c in self.terms.items() if sum(m) == d})

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        degs = set(map(sum, self.terms))
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self) -> list[tuple[tuple[int, ...], CycNum]]:
        return sorted(self.terms.items(), key=itemgetter(0), reverse=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, CommPoly) and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        parts = []
        for m, c in self.sorted_terms():
            neg, body = _signed_part(c)
            # a product of powers, e.g. u^2*v or u1*v2^3; empty for 1
            mtext = "*".join(_powers(VARIABLES, m))
            if mtext:
                body = mtext if body == "1" else f"{body}*{mtext}"
            parts.append((neg, body))
        return _signed_sum(parts)


# ----------------------------------------------------------------------
# Integer polynomials in t and rational power series
# ----------------------------------------------------------------------

def intpoly_add(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out = dict(a)
    for k, c in b.items():
        accumulate(out, k, c)
    return out


def intpoly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for i, c in a.items():
        for j, d in b.items():
            accumulate(out, i + j, c * d)
    return out


class RationalSeries:
    """A quotient of integer polynomials in t, expanded exactly on demand.

    The numerator and denominator are sparse ``{exponent: coefficient}``
    maps, so a factor such as 1 - t^n costs two terms whatever n is.
    They are kept unreduced; equality is decided by cross
    multiplication, so no gcd machinery is needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: dict[int, int], den: dict[int, int] | None = None):
        self.num = {k: c for k, c in num.items() if c}
        self.den = {k: c for k, c in ({0: 1} if den is None else den).items() if c}
        if 0 not in self.den:
            raise ValueError("series denominator must have nonzero constant term")

    def coefficients(self, upto: int) -> list[int]:
        """Exact coefficients of t^0 .. t^upto by power series long division
        over the integers; ValueError at the first one that is not an
        integer."""
        d0 = self.den[0]
        # only the denominator terms of exponent 1 .. upto reach a coefficient
        tail = sorted((j, c) for j, c in self.den.items() if 0 < j <= upto)
        out: list[int] = []
        for k in range(upto + 1):
            acc = self.num.get(k, 0)
            for j, c in tail:
                if j > k:
                    break
                acc -= c * out[k - j]
            q, r = divmod(acc, d0)
            if r:
                raise ValueError(f"non-integer series coefficient {Fraction(acc, d0)}")
            out.append(q)
        return out

    def __add__(self, other: RationalSeries) -> RationalSeries:
        return RationalSeries(
            intpoly_add(intpoly_mul(self.num, other.den), intpoly_mul(other.num, self.den)),
            intpoly_mul(self.den, other.den),
        )

    def __mul__(self, other: RationalSeries) -> RationalSeries:
        return RationalSeries(
            intpoly_mul(self.num, other.num), intpoly_mul(self.den, other.den)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return intpoly_mul(self.num, other.den) == intpoly_mul(other.num, self.den)

    __hash__ = None

    def __repr__(self) -> str:
        return f"RationalSeries(num={self.num}, den={self.den})"
