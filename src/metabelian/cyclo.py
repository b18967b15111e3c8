"""Exact arithmetic in the cyclotomic fields Q(zeta_m).

A value is the canonical residue modulo the m-th cyclotomic polynomial,
stored sparsely as {exponent: rational} with all exponents below phi(m)
and no zero entries.  Two values of one order are equal exactly when
their maps are equal, so equality is decidable, and every operation is
exact: there is no floating point anywhere in this module.  Exponents
are ints and coefficients ints or ``Fraction``s, as in arithmetic.
Construction and products end in one sparse reduction, ``_reduce``, and
every sparse sum of the package adds its terms through ``accumulate``.

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
    "root_of_unity",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


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


def _reduce(order: int, terms: dict[int, Fraction]) -> dict[int, Fraction]:
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


class CycNum:
    """An element of Q(zeta_m), immutable after construction."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: dict[int, Fraction] | None = None):
        if order < 1:
            raise ValueError("cyclotomic order must be a positive integer")
        terms: dict[int, Fraction] = {}
        for e, c in (coeffs or {}).items():
            if not isinstance(e, int) or not isinstance(c, (int, Fraction)):
                raise TypeError("a CycNum takes int exponents and int or Fraction coefficients")
            accumulate(terms, e % order, c if isinstance(c, Fraction) else Fraction(c))
        self.order = order
        self.coeffs = _reduce(order, terms)

    @classmethod
    def _make(cls, order: int, coeffs: dict[int, Fraction]) -> CycNum:
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        return self

    @classmethod
    def zero(cls, order: int) -> CycNum:
        return cls(order, {})

    @classmethod
    def one(cls, order: int) -> CycNum:
        return cls(order, {0: _F1})

    @classmethod
    def from_rational(cls, order: int, value) -> CycNum:
        return cls(order, {0: value})

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_rational(self) -> bool:
        c = self.coeffs
        return not c or (len(c) == 1 and 0 in c)

    def rational_value(self) -> Fraction:
        if not self.coeffs:
            return _F0
        if set(self.coeffs) != {0}:
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def _common_order(self, other: CycNum) -> int:
        """The order of a sum or product with a value of another order: a
        rational belongs to every field, so it takes the other's order."""
        if other.is_rational():
            return self.order
        if self.is_rational():
            return other.order
        raise ValueError(f"mixed cyclotomic orders {self.order} and {other.order}")

    def _coerce(self, other):
        if isinstance(other, CycNum):
            return other
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycNum._make(self.order, {0: q} if q else {})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        order = self.order
        if other.order != order:
            order = self._common_order(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            accumulate(out, e, c)
        return CycNum._make(order, out)

    __radd__ = __add__

    def __neg__(self) -> CycNum:
        return CycNum._make(self.order, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if not q:
                return CycNum._make(self.order, {})
            return CycNum._make(self.order, {e: c * q for e, c in self.coeffs.items()})
        if not isinstance(other, CycNum):
            return NotImplemented
        order = self.order
        if other.order != order:
            order = self._common_order(other)
        a, b = self.coeffs, other.coeffs
        if len(a) == 1 and a.get(0) == 1:
            a, b = b, a
        if len(b) == 1 and b.get(0) == 1:
            # the factor 1 shares the other's map: no CycNum changes in place
            return CycNum._make(order, a)
        out: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                accumulate(out, e1 + e2, c1 * c2)
        return CycNum._make(order, _reduce(order, out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> CycNum:
        if k < 0:
            return self.inv() ** (-k)
        result = CycNum.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def inv(self) -> CycNum:
        """Multiplicative inverse; division by zero is a reported error.

        With sigma_k the automorphism zeta -> zeta^k, the product c of
        the sigma_k(x) over 1 < k < m, gcd(k, m) = 1, makes x * c the
        norm of x, a nonzero rational; so 1/x = c / (x * c).
        """
        if not self.coeffs:
            raise ZeroDivisionError(f"division by zero in Q(zeta_{self.order})")
        if self.is_rational():
            return CycNum._make(self.order, {0: 1 / self.coeffs[0]})
        m = self.order
        conj = CycNum.one(m)
        for k in range(2, m):
            if gcd(k, m) == 1:
                conj = conj * CycNum(m, {k * e: c for e, c in self.coeffs.items()})
        return conj * (1 / (self * conj).rational_value())

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        coerced = self._coerce(other)
        if coerced is None:
            return NotImplemented
        return coerced * self.inv()

    def conj(self) -> CycNum:
        """Complex conjugation, zeta_m maps to zeta_m^(m-1)."""
        return CycNum(self.order, {-e: c for e, c in self.coeffs.items()})

    def as_gaussian(self) -> tuple[Fraction, Fraction] | None:
        """Write the value as a + b*i with rational a, b, or None."""
        if self.is_rational():
            return (self.coeffs.get(0, _F0), _F0)
        if self.order % 4:
            return None
        iu = imag_unit(self.order).coeffs
        rest = {e: c for e, c in self.coeffs.items() if e}
        e = next(iter(rest))
        if e not in iu:
            return None
        b = rest[e] / iu[e]
        # a is chosen to match the constant term, so the value is a + b*i
        # exactly when the other terms match those of b*i
        if rest != {k: b * c for k, c in iu.items() if k}:
            return None
        return (self.coeffs.get(0, _F0) - b * iu.get(0, _F0), b)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return self.is_rational() and self.coeffs.get(0, _F0) == q
        if not isinstance(other, CycNum):
            return NotImplemented
        if self.order == other.order:
            return self.coeffs == other.coeffs
        return (
            self.is_rational()
            and other.is_rational()
            and self.coeffs.get(0, _F0) == other.coeffs.get(0, _F0)
        )

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.coeffs.get(0, _F0))
        return hash((self.order, tuple(sorted(self.coeffs.items()))))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __str__(self) -> str:
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            body = _fraction_text(abs(c))
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


def _fraction_text(q: Fraction) -> str:
    if q.denominator == 1:
        return _int_text(q.numerator)
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


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
    if len(c.coeffs) > 1:
        return (False, f"({text})")
    return (True, text[1:]) if text.startswith("-") else (False, text)


def _powers(names, exponents) -> list[str]:
    """``name`` or ``name^e`` for each nonzero exponent, in order."""
    return [name if e == 1 else f"{name}^{e}" for name, e in zip(names, exponents) if e]


def root_of_unity(m: int, k: int) -> CycNum:
    """The canonical representative of zeta_m^k."""
    return CycNum(m, {k: _F1})


@lru_cache(maxsize=None)
def imag_unit(order: int) -> CycNum:
    """The square root of -1 inside Q(zeta_order); requires 4 | order.
    Cached: every printed coefficient and every 'i' leaf asks for it, and
    no operation changes a ``CycNum`` in place."""
    if order % 4:
        raise ValueError(f"Q(zeta_{order}) does not contain i, need 4 | order")
    return root_of_unity(order, order // 4)
