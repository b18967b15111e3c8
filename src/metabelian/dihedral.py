"""The dihedral group of the regular n-gon acting on the algebras.

Group elements are written tau^flip rho^rot where rho rotates by 2*pi/n
and tau is the reflection swapping the diagonalizing coordinates u and
v.  On u, v the rotation acts by u -> xi*u, v -> conj(xi)*v with xi a
primitive n-th root of unity taken inside the ambient field of order
lcm(4, n).  ``rotation_scalar`` is the only place outside ``cyclo`` that
builds a field, and only a rotation reaches it: every action is the
rotation ``_rotated``, which leaves an element as it is when rot is 0,
then the reflection.  Every other constant here is rational, and
rationals combine with coefficients of any order.  Reflections act as
algebra automorphisms, so their effect on a basis word u^a v^b is the
canonical form of the swapped word, which picks up commutator
corrections; the commutator coordinates themselves transform without
corrections.  A Lie element has the same two blocks (``assoc.MetElem``),
with no words to straighten: tau acts on both as on polynomials and
negates the commutator block.

Rotations are diagonal on basis monomials: rho scales a monomial of
rotation weight w by xi^w.  Since sum_k xi^(kw) = n [w = 0 mod n], the
n rotations average to the projection P0 onto the weight-0 terms, and
tau rho^k (rotation first, then the swap) averages to tau P0.  The
Reynolds operators are therefore computed exactly, over any coefficient
field, as (P0 + tau P0) / 2, with P0 taken on both blocks of either
algebra: one reflection instead of 2n group actions, and no root of
unity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .assoc import MetAssocElem, MetElem
from .cyclo import CycNum, accumulate, ambient_order, root_of_unity
from .lie import MetLieElem
from .poly import ONE, CommPoly, uv

__all__ = [
    "DihedralElement",
    "act_assoc",
    "act_lie",
    "act_tensor",
    "act_uv",
    "group_elements",
    "reynolds_assoc",
    "reynolds_lie",
    "reynolds_tensor",
    "reynolds_uv",
    "rotation_scalar",
    "rotation_weight",
    "swap",
]


class DihedralElement:
    """tau^flip rho^rot in the symmetry group of the regular n-gon; frozen."""

    __slots__ = ("n", "rot", "flip")

    def __init__(self, n: int, rot: int = 0, flip: bool = False):
        if n < 3:
            raise ValueError("dihedral groups here need n >= 3")
        for name, value in (("n", n), ("rot", rot % n), ("flip", flip)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple[int, int, bool]:
        return self.n, self.rot, self.flip

    def __eq__(self, other):
        return type(other) is DihedralElement and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"DihedralElement(n={self.n!r}, rot={self.rot!r}, flip={self.flip!r})"

    def __mul__(self, other: DihedralElement) -> DihedralElement:
        """Composition, applying ``other`` first."""
        if self.n != other.n:
            raise ValueError("mixed dihedral groups")
        if other.flip:
            return DihedralElement(self.n, other.rot - self.rot, not self.flip)
        return DihedralElement(self.n, self.rot + other.rot, self.flip)

    def inverse(self) -> DihedralElement:
        if self.flip:
            return self
        return DihedralElement(self.n, -self.rot, False)


def group_elements(n: int) -> list[DihedralElement]:
    """All 2n elements, rotations first, then the reflections tau rho^k."""
    return [DihedralElement(n, k, False) for k in range(n)] + [
        DihedralElement(n, k, True) for k in range(n)
    ]


@lru_cache(maxsize=None)
def rotation_scalar(n: int, j: int) -> CycNum:
    """xi^j in the ambient field, xi the primitive n-th root of unity."""
    m = ambient_order(n)
    return root_of_unity(m, (j % n) * (m // n))


@lru_cache(maxsize=None)
def _swap_straighten(a: int, b: int) -> MetAssocElem:
    """Canonical form of the word v^a u^b."""
    va = MetAssocElem(CommPoly.term(uv(0, a), ONE))
    ub = MetAssocElem(CommPoly.term(uv(b, 0), ONE))
    return va * ub


def rotation_weight(mono: tuple[int, ...]) -> int:
    """The exponent w with rho(mono) = xi^w * mono.

    u, u1, u2 weigh +1 and v, v1, v2 weigh -1, so u^a v^b has weight
    a - b and the commutator monomial u1^a v1^b u2^c v2^d has weight
    a - b + c - d.
    """
    u, v, u1, v1, u2, v2 = mono
    return u - v + u1 - v1 + u2 - v2


def swap(mono: tuple[int, ...]) -> tuple[int, ...]:
    """u <-> v, u1 <-> v1 and u2 <-> v2: where tau sends a monomial,
    up to sign and straightening."""
    u, v, u1, v1, u2, v2 = mono
    return (v, u, v1, u1, v2, u2)


def _rotated(g: DihedralElement, p: CommPoly) -> CommPoly:
    """rho^rot applied to p: each term scaled by xi^(rot * weight).  With
    rot 0 this is p itself, and no field is built."""
    if not g.rot:
        return p
    return CommPoly._make({
        m: c * rotation_scalar(g.n, g.rot * rotation_weight(m)) for m, c in p.terms.items()
    })


def _swapped(p: CommPoly) -> CommPoly:
    """tau on the monomials of p, with no sign and no straightening."""
    return CommPoly._make({swap(m): c for m, c in p.terms.items()})


def act_assoc(g: DihedralElement, e: MetAssocElem) -> MetAssocElem:
    """Algebra automorphism action on a canonical element.

    A rotation scales by powers of xi, which lives in the field of order
    lcm(4, n): every non-rational coefficient must lie in that field.
    Rational coefficients serve any g, and a reflection alone (rot 0)
    takes coefficients from any one field.
    """
    poly, comm = _rotated(g, e.poly_part), _rotated(g, e.comm_part)
    if not g.flip:
        return MetAssocElem(poly, comm)

    # tau sends [v,u] to -[v,u] and swaps left/right u,v trackers; it
    # sends u^a v^b to v^a u^b, the word u^b v^a plus the commutator part
    # of its straightening
    comm_out = {swap(m): -c for m, c in comm.terms.items()}
    for mono, c in poly.terms.items():
        for m2, c2 in _swap_straighten(mono[0], mono[1]).comm_part.terms.items():
            accumulate(comm_out, m2, c * c2)
    return MetAssocElem(_swapped(poly), CommPoly._make(comm_out))


def act_lie(g: DihedralElement, e: MetLieElem) -> MetLieElem:
    """``act_uv`` on both blocks, and tau negates the commutator block."""
    poly, comm = _rotated(g, e.poly_part), _rotated(g, e.comm_part)
    if not g.flip:
        return MetLieElem(poly, comm)
    return MetLieElem(_swapped(poly), -_swapped(comm))


def act_uv(g: DihedralElement, p: CommPoly) -> CommPoly:
    """The action on a commutative polynomial ring by monomial scaling
    and the swap: on the ring in u, v, and as ``act_tensor`` the
    diagonal action (no sign twist) on the ring in u1, v1, u2, v2."""
    p = _rotated(g, p)
    return _swapped(p) if g.flip else p


act_tensor = act_uv


def _weight_zero(p: CommPoly, n: int) -> CommPoly:
    """P0: the terms of rotation weight 0 mod n, the rotation-fixed part."""
    return CommPoly._make(
        {m: c for m, c in p.terms.items() if not rotation_weight(m) % n}
    )


def _weight_zero_blocks(e: MetElem, n: int) -> MetElem:
    """P0 on both blocks of an algebra element."""
    return type(e)(_weight_zero(e.poly_part, n), _weight_zero(e.comm_part, n))


def _symmetrize(n: int, p0, act):
    """(p0 + tau p0) / 2 for a rotation-fixed p0."""
    tau = DihedralElement(n, 0, True)  # built first: it rejects n < 3
    if p0.is_zero():
        return p0
    return (p0 + act(tau, p0)).scale(Fraction(1, 2))


def reynolds_assoc(n: int, e: MetAssocElem) -> MetAssocElem:
    """Group average, computed as (P0 + tau P0) / 2; a projection onto
    the invariants."""
    return _symmetrize(n, _weight_zero_blocks(e, n), act_assoc)


def reynolds_lie(n: int, e: MetLieElem) -> MetLieElem:
    # as reynolds_assoc; u and v weigh +1 and -1, so P0 drops the linear part
    return _symmetrize(n, _weight_zero_blocks(e, n), act_lie)


def reynolds_uv(n: int, p: CommPoly) -> CommPoly:
    """(P0 + tau P0) / 2 on the ring in u, v, and as ``reynolds_tensor``
    on the ring in u1, v1, u2, v2 under the diagonal action."""
    return _symmetrize(n, _weight_zero(p, n), act_uv)


reynolds_tensor = reynolds_uv
