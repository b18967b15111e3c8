"""Canonical forms in the rank-2 free metabelian associative algebra.

An element is the pair (poly_part, comm_part) of ``MetElem``, the
layout the Lie algebra shares: the free abelian part, and the commutator
ideal as a module over a commutative polynomial ring.  The poly part
collects the basis words u^a v^b as a commutative polynomial in u, v.
In the comm part the monomial u1^a v1^b u2^c v2^d stands for the basis
word u^a v^b [v,u] u^c v^d, with u1, v1 tracking multipliers on the
left of [v,u] and u2, v2 multipliers on the right.  Both parts are
keyed by the six-slot exponent tuples of ``poly``, (a, b, 0, 0, 0, 0)
and (0, 0, a, b, c, d): the one monomial format of the package, which
``_column`` reads as digits for the row columns of ``invariants``.
This works because left factors of a commutator commute with each
other, right factors commute with each other, and any product of two
commutator terms vanishes.

Multiplication is one pass over pairs of terms: words shift commutator
terms on either side, and u^a v^b * u^c v^d adds to u^(a+c) v^(b+d) the
cross monomials u1^(a+i) v1^j u2^(c-1-i) v2^(b-1-j+d), i < c, j < b, of
the u-letters of the right word moving through the v-letters of the left
one.  ``from_word`` straightens a word letter by letter using only
the rewrite vu = uv + [v,u]; it is deliberately independent of the
closed form so that the two can be checked against each other.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclo import CycNum, accumulate, power
from .poly import IU1, IU2, IV1, IV2, ONE, CommPoly, uv

__all__ = [
    "MetAssocElem",
    "MetElem",
    "basis",
    "basis_monomials",
    "commutator",
    "from_word",
    "uv_monomials",
]


def _comm_monomial(a: int, b: int, c: int, d: int) -> tuple[int, ...]:
    return (0, 0, a, b, c, d)


def _column(mono: tuple[int, ...], in_comm: bool, base: int) -> int:
    """The row column of a basis word: its exponents read as digits in
    ``base``, which must exceed each of them, negated so that the larger
    word has the smaller column.

    u^a v^b is -(a*base + b) and u1^a v1^b u2^c v2^d is
    base^4 - (a*base^3 + b*base^2 + c*base + d), so a degree's columns
    ascend in ``basis_monomials`` order.  The sign tells the two blocks
    apart, as the shared all-zero tuple of 1 and [v,u] cannot.
    """
    if in_comm:
        _, _, a, b, c, d = mono
        return base**4 - (((a * base + b) * base + c) * base + d)
    return -(mono[0] * base + mono[1])


def _word_times(col: int, base: int, poly_terms, comm_terms) -> dict[int, int]:
    """Integer image of one basis word under right multiplication.

    ``col`` is the word's ``_column`` in ``base``, and ``poly_terms``
    and ``comm_terms`` are the (exponents, int) pairs of the right
    factor's two parts; the image is keyed by ``_column`` too.  The
    rules of ``__mul__``: u^a v^b times u^c v^d is u^(a+c) v^(b+d) plus
    the cross monomials of the module docstring, a word times a commutator
    term shifts it on the left, a commutator term times a word shifts
    it on the right, and two commutator terms multiply to 0.  Exponents
    add as digits, so only the cross terms of a u^a v^b word read its a
    and b back.
    """
    out = {col + _column(m, False, base): x for m, x in poly_terms}
    if col > 0:
        return out
    a, b = divmod(-col, base)
    step = base * base - 1
    for (c, d, *_), x in poly_terms:
        for i in range(c):
            # u1^(a+i) v1^j u2^(c-1-i) v2^(b-1-j+d) for j = 0..b-1: each
            # j moves one from the v2 digit to the v1 digit
            head = _column((0, 0, a + i, 0, c - 1 - i, b - 1 + d), True, base)
            for j in range(b):
                accumulate(out, head - j * step, x)
    for m, x in comm_terms:
        # u^a v^b on the left adds a and b to the u1 and v1 digits
        accumulate(out, _column(m, True, base) + col * base * base, x)
    return out


class MetElem:
    """An element of a rank-2 free metabelian algebra as two blocks: its
    free abelian part ``poly_part`` and its commutator ideal part
    ``comm_part``.  The blockwise operations keep the class, and two
    elements are equal only in the same algebra."""

    __slots__ = ("poly_part", "comm_part")

    def __init__(self, poly_part: CommPoly | None = None, comm_part: CommPoly | None = None):
        self.poly_part = poly_part if poly_part is not None else CommPoly.zero()
        self.comm_part = comm_part if comm_part is not None else CommPoly.zero()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_comm(cls, h: CommPoly):
        return cls(CommPoly.zero(), h)

    def is_zero(self) -> bool:
        return self.poly_part.is_zero() and self.comm_part.is_zero()

    def __add__(self, other):
        return type(self)(self.poly_part + other.poly_part, self.comm_part + other.comm_part)

    def __neg__(self):
        return type(self)(-self.poly_part, -self.comm_part)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return type(self)(self.poly_part.scale(c), self.comm_part.scale(c))

    def homogeneous_component(self, d: int):
        comm = self.comm_part.homogeneous_component(d - 2) if d >= 2 else CommPoly.zero()
        return type(self)(self.poly_part.homogeneous_component(d), comm)

    def degree(self) -> int:
        """Total degree, -1 for zero; comm monomials weigh their sum + 2."""
        dc = self.comm_part.degree()
        return max(self.poly_part.degree(), dc + 2 if dc >= 0 else -1)

    def homogeneous_degree(self) -> int | None:
        degs = set(map(sum, self.poly_part.terms))
        degs |= {sum(m) + 2 for m in self.comm_part.terms}
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.poly_part == other.poly_part
            and self.comm_part == other.comm_part
        )

    __hash__ = None

    def __repr__(self) -> str:
        from .expr import print_elem

        return print_elem(self)


class MetAssocElem(MetElem):
    """An element of the rank-2 free metabelian associative algebra."""

    __slots__ = ()

    @classmethod
    def one(cls) -> MetAssocElem:
        return cls(CommPoly.constant(ONE))

    @classmethod
    def letter(cls, name: str) -> MetAssocElem:
        if name not in ("u", "v"):
            raise ValueError(f"generators are 'u' and 'v', got {name!r}")
        return cls(CommPoly.variable(name))

    @classmethod
    def linear_combination(cls, terms) -> MetAssocElem:
        """The sum of c*e over ``terms``, pairs of a scalar c and an element
        e or None for the unit, into one map per block, where summing by
        ``+`` copies the sum so far once per term."""
        poly: dict[tuple[int, ...], CycNum] = {}
        comm: dict[tuple[int, ...], CycNum] = {}
        for c, e in terms:
            if e is None:
                accumulate(poly, uv(0, 0), c)
                continue
            for m, x in e.poly_part.terms.items():
                accumulate(poly, m, x * c)
            for m, x in e.comm_part.terms.items():
                accumulate(comm, m, x * c)
        return cls(CommPoly._make(poly), CommPoly._make(comm))

    def __mul__(self, other):
        if not isinstance(other, MetAssocElem):
            return self.__rmul__(other)
        comm: dict[tuple[int, ...], CycNum] = {}
        right_words = other.poly_part.terms.items()
        for (a, b, *_), x in self.poly_part.terms.items():
            for (_, _, a1, b1, c1, d1), y in other.comm_part.terms.items():
                accumulate(comm, (0, 0, a + a1, b + b1, c1, d1), x * y)
            if not b:
                continue
            for (c, d, *_), y in right_words:
                if c:
                    xy = x * y
                    for i in range(c):
                        for j in range(b):
                            accumulate(comm, (0, 0, a + i, j, c - 1 - i, b - 1 - j + d), xy)
        for (_, _, a1, b1, c1, d1), x in self.comm_part.terms.items():
            for (c, d, *_), y in right_words:
                accumulate(comm, (0, 0, a1, b1, c1 + c, d1 + d), x * y)
        return MetAssocElem(self.poly_part * other.poly_part, CommPoly._make(comm))

    def __rmul__(self, other):
        if isinstance(other, (CycNum, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> MetAssocElem:
        if k < 0:
            raise ValueError("negative power in the algebra")
        return power(self, k, MetAssocElem.one())

    def commutator(self, other: MetAssocElem) -> MetAssocElem:
        return self * other - other * self

    def linear_image(self, a: CycNum, b: CycNum, c: CycNum, d: CycNum) -> MetAssocElem:
        """The image under the endomorphism u -> a*u + c*v, v -> b*u + d*v,
        built from the letter images lu = a*u + c*v and lv = b*u + d*v.

        The commutator block needs no algebra product:
        [gv, gu] = det(g) [v,u], and left and right multiplication by u, v
        act on the commutator ideal as the commuting variables u1, v1 and
        u2, v2.  So the block maps by det(g) times one ``substitute``,
        u1, v1 -> lu, lv in (u1, v1) and u2, v2 -> lu, lv in (u2, v2).

        A word u^p v^q maps to (gu)^p (gv)^q, so the words sum by Horner's
        rule twice: R_p = sum over q of c_pq (gv)^q, then R_0 + gu (R_1 +
        gu (R_2 + ...)).  Every product has a letter image as one factor.
        """
        lu, lv = CommPoly.linear(a, c), CommPoly.linear(b, d)
        images = {IU1: lu.moved(IU1), IV1: lv.moved(IU1), IU2: lu.moved(IU2), IV2: lv.moved(IU2)}
        out = MetAssocElem.from_comm(self.comm_part.scale(a * d - b * c).substitute(images))
        if self.poly_part.is_zero():
            return out
        gu, gv = MetAssocElem(lu), MetAssocElem(lv)
        rows: dict[int, dict[int, MetAssocElem]] = {}
        for (p, q, *_), coeff in self.poly_part.terms.items():
            rows.setdefault(p, {})[q] = MetAssocElem(CommPoly.constant(coeff))
        by_u = {p: _horner(row, lambda e: e * gv) for p, row in rows.items()}
        return out + _horner(by_u, lambda e: gu * e)


def _horner(coeffs: dict[int, MetAssocElem], times) -> MetAssocElem:
    """The sum over k of g^k coeffs[k] as coeffs[0] + g (coeffs[1] + g (...)),
    where ``times`` multiplies by g, which commutes with its own powers;
    a k missing from ``coeffs`` is 0."""
    top = max(coeffs)
    acc = coeffs[top]
    for k in range(top - 1, -1, -1):
        acc = times(acc)
        if k in coeffs:
            acc = acc + coeffs[k]
    return acc


def commutator(e1: MetAssocElem, e2: MetAssocElem) -> MetAssocElem:
    return e1.commutator(e2)


@lru_cache(maxsize=None)
def _mono_times_u(a: int, b: int) -> MetAssocElem:
    """Straighten the word u^a v^b u with one vu = uv + [v,u] rewrite per step."""
    if b == 0:
        return MetAssocElem(CommPoly.term(uv(a + 1, 0), ONE))
    rec = _mono_times_u(a, b - 1)
    appended = _times_v(rec)
    bump = CommPoly.term(_comm_monomial(a, b - 1, 0, 0), ONE)
    return appended + MetAssocElem.from_comm(bump)


def _times_v(e: MetAssocElem) -> MetAssocElem:
    """Right multiplication by v, which never needs rewriting.

    Appending v to a basis word u^a v^b and appending any letter to a
    commutator term are already canonical (right factors of a commutator
    commute).
    """
    terms = e.comm_part.terms.items()
    comm = {_comm_monomial(a, b, c, d + 1): x for (_, _, a, b, c, d), x in terms}
    poly = {uv(a, b + 1): x for (a, b, *_), x in e.poly_part.terms.items()}
    return MetAssocElem(CommPoly._make(poly), CommPoly._make(comm))


def _times_u(e: MetAssocElem) -> MetAssocElem:
    terms = e.comm_part.terms.items()
    comm = {_comm_monomial(a, b, c + 1, d): x for (_, _, a, b, c, d), x in terms}
    out = MetAssocElem.from_comm(CommPoly._make(comm))
    for (a, b, *_), c in e.poly_part.terms.items():
        out = out + _mono_times_u(a, b).scale(c)
    return out


def from_word(word: str) -> MetAssocElem:
    """Canonical form of a product of letters, the straightening oracle.

    The empty word gives 1.  Letters outside {u, v} are rejected.
    """
    e = MetAssocElem.one()
    for ch in word:
        if ch == "v":
            e = _times_v(e)
        elif ch == "u":
            e = _times_u(e)
        else:
            raise ValueError(f"word letters must be 'u' or 'v', got {ch!r}")
    return e


@lru_cache(maxsize=None)
def uv_monomials(degree: int) -> tuple[tuple[int, ...], ...]:
    """The basis words u^a v^b of degree d, largest first; empty for d < 0."""
    return tuple(uv(a, degree - a) for a in range(degree, -1, -1))


@lru_cache(maxsize=None)
def basis_monomials(degree: int) -> tuple[tuple, tuple]:
    """Degree-d basis monomials, largest first in the monomial order: the
    u^a v^b block, then the commutator block."""
    inner = degree - 2
    comm = tuple(
        _comm_monomial(a, b, c, inner - a - b - c)
        for a in range(inner, -1, -1)
        for b in range(inner - a, -1, -1)
        for c in range(inner - a - b, -1, -1)
    )
    return uv_monomials(degree), comm


def basis(degree: int) -> list[MetAssocElem]:
    """All degree-d basis monomials, largest first in the monomial order."""
    poly, comm = basis_monomials(degree)
    return [MetAssocElem(CommPoly.term(m, ONE)) for m in poly] + [
        MetAssocElem.from_comm(CommPoly.term(m, ONE)) for m in comm
    ]
