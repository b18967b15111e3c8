"""Sparse commutative polynomials over CycNum, plus exact rational series.

A monomial is the six exponents of u, v (the rank-2 alphabet) and u1,
v1, u2, v2 (the commutator-ideal coordinates); the elements of both
algebras are built from polynomials in these.  The printing and pivoting
order is the lexicographic order on the exponent tuples in that variable
order.  ``accumulate`` is the one place where a sparse sum adds a term
and drops a coefficient that cancels to zero.  ``ONE`` and ``ZERO`` are
the rational structural constants of every coefficient field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .cyclo import CycNum

__all__ = [
    "CommPoly",
    "Monomial",
    "ONE",
    "RationalSeries",
    "VARIABLES",
    "ZERO",
    "accumulate",
    "intpoly_add",
    "intpoly_mul",
]

VARIABLES = ("u", "v", "u1", "v1", "u2", "v2")
_VAR_INDEX = {name: j for j, name in enumerate(VARIABLES)}
_NVARS = len(VARIABLES)

# slot indices used throughout the package
IU, IV, IU1, IV1, IU2, IV2 = range(6)

# rationals combine with a CycNum of any order, so these serve every field
ONE = CycNum.one(1)
ZERO = CycNum.zero(1)


def accumulate(out: dict, key, value) -> None:
    """out[key] += value, with no zero coefficient left stored; any
    scalar that is false at zero (``CycNum``, int) will do."""
    prev = out.get(key)
    if prev is not None:
        value = prev + value
    if not value:
        out.pop(key, None)
    else:
        out[key] = value


class Monomial:
    """A power product of the variables, e.g. u^2*v or u1*v2^3."""

    __slots__ = ("exps",)

    def __init__(self, exps: Iterable[int] = ()):
        t = tuple(exps)
        if len(t) < _NVARS:
            t = t + (0,) * (_NVARS - len(t))
        if len(t) > _NVARS or any(e < 0 for e in t):
            raise ValueError(f"bad exponent tuple {t}")
        self.exps = t

    @classmethod
    def from_exponents(cls, exponents: dict[str, int]) -> Monomial:
        exps = [0] * _NVARS
        for name, e in exponents.items():
            exps[_VAR_INDEX[name]] = e
        return cls(exps)

    def degree(self) -> int:
        return sum(self.exps)

    def __mul__(self, other: Monomial) -> Monomial:
        out = object.__new__(Monomial)
        out.exps = tuple(a + b for a, b in zip(self.exps, other.exps))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self) -> int:
        return hash(self.exps)

    def __repr__(self) -> str:
        if not any(self.exps):
            return "1"
        parts = []
        for j, e in enumerate(self.exps):
            if e == 1:
                parts.append(VARIABLES[j])
            elif e:
                parts.append(f"{VARIABLES[j]}^{e}")
        return "*".join(parts)


MONO_ONE = Monomial()


class CommPoly:
    """A sparse polynomial with CycNum coefficients and no stored zeros."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, CycNum] | None = None):
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def _make(cls, terms: dict[Monomial, CycNum]) -> CommPoly:
        self = object.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls) -> CommPoly:
        return cls._make({})

    @classmethod
    def constant(cls, c: CycNum) -> CommPoly:
        return cls({MONO_ONE: c})

    @classmethod
    def variable(cls, name: str) -> CommPoly:
        return cls._make({Monomial.from_exponents({name: 1}): ONE})

    @classmethod
    def linear(cls, cu: CycNum, cv: CycNum) -> CommPoly:
        """The linear form cu*u + cv*v."""
        return cls({Monomial((1,)): cu, Monomial((0, 1)): cv})

    @classmethod
    def term(cls, mono: Monomial, coeff: CycNum) -> CommPoly:
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
        out: dict[Monomial, CycNum] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                accumulate(out, m1 * m2, c1 * c2)
        return CommPoly._make(out)

    def scale(self, c) -> CommPoly:
        if isinstance(c, (int, Fraction)):
            c = Fraction(c)
            if not c:
                return CommPoly.zero()
            return CommPoly._make({m: v * c for m, v in self.terms.items()})
        if c.is_zero():
            return CommPoly.zero()
        return CommPoly({m: v * c for m, v in self.terms.items()})

    def substitute(self, images: dict[int, CommPoly]) -> CommPoly:
        """Apply the ring homomorphism sending the variable at each slot
        (IU .. IV2) to its image.  The powers of each image are built once
        per call."""
        powers: dict[int, list[CommPoly]] = {}
        out: dict[Monomial, CycNum] = {}
        for mono, coeff in self.terms.items():
            acc = CommPoly._make({MONO_ONE: coeff})
            for slot, e in enumerate(mono.exps):
                if not e:
                    continue
                table = powers.get(slot)
                if table is None:
                    if slot not in images:
                        raise ValueError(f"no image given for variable {VARIABLES[slot]!r}")
                    table = powers[slot] = [images[slot]]
                while len(table) < e:
                    table.append(table[-1] * table[0])
                acc = acc * table[e - 1]
            for m, c in acc.terms.items():
                accumulate(out, m, c)
        return CommPoly._make(out)

    def moved(self, slot: int) -> CommPoly:
        """A polynomial in u, v rewritten in the variables at ``slot`` and
        ``slot + 1`` (IU1 for u1, v1; IU2 for u2, v2).  The move is
        injective, so no coefficients combine."""
        left = (0,) * slot
        right = (0,) * (_NVARS - 2 - slot)
        out = {}
        for m, c in self.terms.items():
            mm = object.__new__(Monomial)
            mm.exps = left + m.exps[:2] + right
            out[mm] = c
        return CommPoly._make(out)

    def homogeneous_component(self, d: int) -> CommPoly:
        return CommPoly._make({m: c for m, c in self.terms.items() if m.degree() == d})

    def degree(self) -> int:
        """Total degree, -1 for the zero polynomial."""
        return max((m.degree() for m in self.terms), default=-1)

    def homogeneous_degree(self) -> int | None:
        degs = {m.degree() for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self) -> list[tuple[Monomial, CycNum]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].exps, reverse=True)

    def __eq__(self, other) -> bool:
        return isinstance(other, CommPoly) and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            ctext = str(c)
            if " " in ctext:
                ctext = f"({ctext})"
            mtext = repr(m)
            if mtext == "1":
                parts.append(ctext)
            elif ctext == "1":
                parts.append(mtext)
            else:
                parts.append(f"{ctext}*{mtext}")
        return " + ".join(parts)


# ----------------------------------------------------------------------
# Integer polynomials in t and rational power series
# ----------------------------------------------------------------------

def _trim_int(p: Iterable[int]) -> tuple[int, ...]:
    t = list(p)
    while len(t) > 1 and t[-1] == 0:
        t.pop()
    return tuple(int(c) for c in t)


def intpoly_add(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    a, b = list(a), list(b)
    if len(a) < len(b):
        a, b = b, a
    for j, c in enumerate(b):
        a[j] += c
    return _trim_int(a)


def intpoly_mul(a: Iterable[int], b: Iterable[int]) -> tuple[int, ...]:
    a, b = list(a), list(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return _trim_int(out)


class RationalSeries:
    """A quotient of integer polynomials in t, expanded exactly on demand.

    The numerator and denominator are kept unreduced; equality is decided
    by cross multiplication, so no gcd machinery is needed.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Iterable[int], den: Iterable[int] = (1,)):
        self.num = _trim_int(num)
        self.den = _trim_int(den)
        if self.den[0] == 0:
            raise ValueError("series denominator must have nonzero constant term")

    def coefficients(self, upto: int) -> list[int]:
        """Exact coefficients of t^0 .. t^upto by power series long division."""
        out: list[Fraction] = []
        d0 = self.den[0]
        for k in range(upto + 1):
            acc = Fraction(self.num[k]) if k < len(self.num) else Fraction(0)
            for j in range(1, min(k, len(self.den) - 1) + 1):
                acc -= self.den[j] * out[k - j]
            out.append(acc / d0)
        ints = []
        for q in out:
            if q.denominator != 1:
                raise ValueError(f"non-integer series coefficient {q}")
            ints.append(q.numerator)
        return ints

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
