"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A value is the canonical residue modulo the m-th cyclotomic polynomial,
stored as int numerators over one denominator, FLINT's fmpq_poly layout:
``num`` maps exponents below phi(m) to nonzero ints and ``den`` is a
positive int coprime to them all, so values of one order are equal
exactly when (num, den) are.  Arithmetic is exact and on ints: it ends
in one sparse reduction, ``_reduce`` (Phi_m is monic and integral), and
one gcd, ``_lowest``; ``coeffs`` is an {exponent: Fraction} view built
on each read, for checks.  Every sparse sum of the package adds its
terms through ``accumulate``, and both algebras' powers come from
``power``.

Rationals belong to every field.  A rational value of any order, order 1
included, combines with a value of another order, and the result takes
the order of the non-rational operand; it also compares and hashes as
its rational.  Only two non-rational values of different orders refuse
to mix (ValueError), so a field is chosen only where a root of unity is
built: ``root_of_unity`` and ``imag_unit``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

__all__ = [
    "CycNum",
    "DigitLimitError",
    "accumulate",
    "ambient_order",
    "cyclotomic_polynomial",
    "euler_phi",
    "imag_unit",
    "power",
    "root_of_unity",
]

_UNIT = {0: 1}


def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("cyclotomic order must be a positive integer")
    result = m
    rest = m
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            result -= result // p
            while rest % p == 0:
                rest //= p
        p += 1
    if rest > 1:
        result -= result // rest
    return result


def ambient_order(n: int) -> int:
    """Smallest order whose field contains both i and a primitive n-th root."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return lcm(4, n)


def _divide_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic, so the quotient stays integral
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for shift in range(len(num) - dn - 1, -1, -1):
        c = num[shift + dn]
        if c:
            quot[shift] = c
            for j, dc in enumerate(den):
                num[shift + j] -= c * dc
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Dense integer coefficients of Phi_m, index equals exponent.

    Computed once per order by dividing x^m - 1 by Phi_d over the proper
    divisors d of m, and cached for the rest of the process.
    """
    if m < 1:
        raise ValueError("cyclotomic order must be a positive integer")
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divide_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def accumulate(out: dict, key, value) -> None:
    """out[key] += value, with no zero coefficient left stored; any
    scalar that is false at zero (``CycNum``, ``Fraction``, int) will do."""
    prev = out.get(key)
    if prev is not None:
        value = prev + value
    if not value:
        out.pop(key, None)
    else:
        out[key] = value


def power(x, k: int, one):
    """x**k for k >= 0 by square-and-multiply: ``one`` at k = 0, and
    otherwise a product of ``x`` with itself that never multiplies by 1."""
    if not k:
        return one
    result = x
    for bit in bin(k)[3:]:
        result = result * result
        if bit == "1":
            result = result * x
    return result


def _reduce(order: int, terms: dict[int, int]) -> dict[int, int]:
    """``terms`` reduced in place modulo Phi_m: from the top exponent down
    to phi(m), each term is cleared by subtracting its multiple of Phi_m."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    for e in range(max(terms, default=0), deg - 1, -1):
        c = terms.pop(e, None)
        if c is not None:
            for j in range(deg):
                if phi[j]:
                    accumulate(terms, e - deg + j, -c * phi[j])
    return terms


def _lowest(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """num / den, for a positive den, divided by the gcd of den and num."""
    g = gcd(den, *num.values())
    if g == 1:
        return num, den
    return {e: c // g for e, c in num.items()}, den // g


class CycNum:
    """An element of Q(zeta_m), immutable after construction."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: dict[int, int | Fraction] | None = None):
        if order < 1:
            raise ValueError("cyclotomic order must be a positive integer")
        items = (coeffs or {}).items()
        if not all(isinstance(e, int) and isinstance(c, (int, Fraction)) for e, c in items):
            raise TypeError("a CycNum takes int exponents and int or Fraction coefficients")
        den = lcm(*(c.denominator for _, c in items))
        terms: dict[int, int] = {}
        for e, c in items:
            accumulate(terms, e % order, c.numerator * (den // c.denominator))
        self.order = order
        self.num, self.den = _lowest(_reduce(order, terms), den)

    @classmethod
    def _make(cls, order: int, num: dict[int, int], den: int) -> CycNum:
        """The value num / den, which must be reduced and in lowest terms."""
        self = object.__new__(cls)
        self.order, self.num, self.den = order, num, den
        return self

    @classmethod
    def zero(cls, order: int) -> CycNum:
        return cls._make(order, {}, 1)

    @classmethod
    def one(cls, order: int) -> CycNum:
        return cls._make(order, {0: 1}, 1)

    @classmethod
    def from_rational(cls, order: int, value) -> CycNum:
        return cls(order, {0: value})

    @property
    def coeffs(self) -> dict[int, Fraction]:
        """The value as {exponent: Fraction}, built on each read."""
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        num = self.num
        return not num or (len(num) == 1 and 0 in num)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num.get(0, 0), self.den)

    def _common_order(self, other: CycNum) -> int:
        """The order of a sum or product: a rational belongs to every
        field, so it takes the other operand's order."""
        if other.order == self.order or other.is_rational():
            return self.order
        if self.is_rational():
            return other.order
        raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def _coerce(self, other):
        if isinstance(other, CycNum):
            return other
        if isinstance(other, (int, Fraction)):
            num = {0: other.numerator} if other else {}
            return CycNum._make(self.order, num, other.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = self._common_order(other)
        # both sides over the lcm of the denominators: s = t = 1 when equal
        g = gcd(self.den, other.den)
        s, t = other.den // g, self.den // g
        out = {e: c * s for e, c in self.num.items()}
        for e, c in other.num.items():
            accumulate(out, e, c * t)
        return CycNum._make(order, *_lowest(out, self.den * s))

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum._make(self.order, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = self._common_order(other)
        a, b = self, other
        if a.den == 1 and a.num == _UNIT:
            a, b = b, a
        if b.den == 1 and b.num == _UNIT:
            # the factor 1 shares the other's map: no CycNum changes in place
            return CycNum._make(order, a.num, a.den)
        out: dict[int, int] = {}
        for e1, c1 in a.num.items():
            for e2, c2 in b.num.items():
                accumulate(out, e1 + e2, c1 * c2)
        return CycNum._make(order, *_lowest(_reduce(order, out), a.den * b.den))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> CycNum:
        x = self.inv() if k < 0 else self
        return power(x, abs(k), CycNum.one(self.order))

    def _galois(self, k: int) -> CycNum:
        """sigma_k: zeta -> zeta^k, for k prime to the order.  It maps
        Z[zeta] onto itself, so it keeps num / den in lowest terms."""
        m = self.order
        return CycNum._make(m, _reduce(m, {k * e % m: c for e, c in self.num.items()}), self.den)

    def inv(self) -> CycNum:
        """Multiplicative inverse; division by zero is a reported error.

        The product c of the sigma_k(x) over 1 < k < m, gcd(k, m) = 1,
        makes x * c the norm of x, a nonzero rational; so 1/x = c / (x * c).
        """
        if not self.num:
            raise ZeroDivisionError(f"division by zero in Q(zeta_{self.order})")
        if self.is_rational():
            return self._coerce(1 / self.rational_value())
        m = self.order
        conj = CycNum.one(m)
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = conj * self._galois(k)
        return conj * (1 / (self * conj).rational_value())

    def __truediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else other * self.inv()

    def conj(self) -> CycNum:
        """Complex conjugation, zeta_m maps to zeta_m^(m-1)."""
        return self._galois(-1)

    def _gaussian(self) -> tuple[int, int, int] | None:
        """(a, b, den) with the value (a + b*i) / den, or None outside Q(i)."""
        if self.is_rational():
            return (self.num.get(0, 0), 0, self.den)
        if self.order % 4:
            return None
        # i is integral, so imag_unit's den is 1
        num, iu = self.num, imag_unit(self.order).num
        if num.keys() - {0} != iu.keys() - {0}:
            return None
        e = next(e for e in num if e)
        p, q = (num[e], iu[e]) if iu[e] > 0 else (-num[e], -iu[e])
        # b = p / (q * den) with q > 0 and a matches the constant term, so
        # the value is a + b*i exactly when every other term is in ratio p : q
        if any(num[k] * q != p * iu[k] for k in num if k):
            return None
        return (num.get(0, 0) * q - p * iu.get(0, 0), p, q * self.den)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # equal maps of two orders are equal only as rationals
        return self.num == other.num and self.den == other.den and (
            self.order == other.order or self.is_rational()
        )

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.rational_value())
        return hash((self.order, self.den, tuple(sorted(self.num.items()))))

    def __bool__(self) -> bool:
        return bool(self.num)

    def __str__(self) -> str:
        parts = []
        for e, c in sorted(self.num.items()):
            body = _fraction_text(c, self.den)
            if e:
                z = f"z({self.order},{e})"
                body = z if body == "1" else f"{body}*{z}"
            parts.append((c < 0, body))
        return _signed_sum(parts)

    def __repr__(self) -> str:
        return f"CycNum({self.order}, {self})"


class DigitLimitError(ValueError):
    """A number too long for ``str``: more decimal digits than
    ``sys.get_int_max_str_digits()``."""


def _int_text(k: int) -> str:
    limit = sys.get_int_max_str_digits()
    # at most 3 * limit bits means |k| < 8^limit < 10^limit
    if limit and k.bit_length() > 3 * limit and abs(k) >= 10**limit:
        raise DigitLimitError(
            f"a number in the result has more than {limit} digits, the limit "
            "of sys.get_int_max_str_digits()"
        )
    return str(k)


def _fraction_text(num: int, den: int) -> str:
    """|num / den| in lowest terms, for ints num and den > 0."""
    g = gcd(num, den)
    text = _int_text(abs(num) // g)
    return text if den == g else f"{text}/{_int_text(den // g)}"


def _signed_sum(parts) -> str:
    """Join (negative, body) pairs as ``a + b - c``; "0" when empty."""
    text = "".join((" - " if neg else " + ") + body for neg, body in parts)
    if not text:
        return "0"
    return "-" + text[3:] if text.startswith(" - ") else text[3:]


def _signed_part(c: CycNum) -> tuple[bool, str]:
    """``c`` as a (negative, body) part of ``_signed_sum``: a sum in
    parentheses, a single term with its sign taken out."""
    text = str(c)
    if len(c.num) > 1:
        return (False, f"({text})")
    return (True, text[1:]) if text.startswith("-") else (False, text)


def _powers(names, exponents) -> list[str]:
    """``name`` or ``name^e`` for each nonzero exponent, in order."""
    return [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e]


def root_of_unity(m: int, k: int) -> CycNum:
    """The canonical representative of zeta_m^k."""
    return CycNum(m, {k: 1})


@lru_cache(maxsize=None)
def imag_unit(order: int) -> CycNum:
    """The square root of -1 inside Q(zeta_order); requires 4 | order.
    Cached: every printed coefficient and every 'i' leaf asks for it, and
    no operation changes a ``CycNum`` in place."""
    if order % 4:
        raise ValueError(f"Q(zeta_{order}) does not contain i, need 4 | order")
    return root_of_unity(order, order // 4)
