"""The rank-2 free metabelian Lie algebra and its associative embedding.

An element is (lin_u, lin_v, comm): two scalars for the generators and a
polynomial in u, v for the commutator ideal, where the monomial u^a v^b
stands for the basis bracket [v,u] ad^a(u) ad^b(v).  The commutator
ideal is a free rank-1 module over the polynomial ring acting through
ad, which is what makes this coordinate form a basis.
"""

from __future__ import annotations

from .assoc import MetAssocElem
from .cyclo import CycNum
from .poly import IU, IU1, IU2, IV, ONE, ZERO, CommPoly

__all__ = [
    "MetLieElem",
    "bracket",
    "embed_assoc",
]


class MetLieElem:
    """An element of the rank-2 free metabelian Lie algebra."""

    __slots__ = ("lin_u", "lin_v", "comm")

    def __init__(self, lin_u: CycNum, lin_v: CycNum, comm: CommPoly | None = None):
        self.lin_u = lin_u
        self.lin_v = lin_v
        self.comm = comm if comm is not None else CommPoly.zero()

    @classmethod
    def zero(cls) -> MetLieElem:
        return cls(ZERO, ZERO)

    @classmethod
    def generator(cls, name: str) -> MetLieElem:
        if name == "u":
            return cls(ONE, ZERO)
        if name == "v":
            return cls(ZERO, ONE)
        raise ValueError(f"generators are 'u' and 'v', got {name!r}")

    @classmethod
    def from_comm(cls, comm: CommPoly) -> MetLieElem:
        return cls(ZERO, ZERO, comm)

    def is_zero(self) -> bool:
        return self.lin_u.is_zero() and self.lin_v.is_zero() and self.comm.is_zero()

    def __add__(self, other: MetLieElem) -> MetLieElem:
        return MetLieElem(
            self.lin_u + other.lin_u, self.lin_v + other.lin_v, self.comm + other.comm
        )

    def __neg__(self) -> MetLieElem:
        return MetLieElem(-self.lin_u, -self.lin_v, -self.comm)

    def __sub__(self, other: MetLieElem) -> MetLieElem:
        return self + (-other)

    def scale(self, c) -> MetLieElem:
        return MetLieElem(self.lin_u * c, self.lin_v * c, self.comm.scale(c))

    def bracket(self, other: MetLieElem) -> MetLieElem:
        """Lie bracket; brackets of two commutator terms vanish."""
        c = self.lin_v * other.lin_u - self.lin_u * other.lin_v
        comm = CommPoly.constant(c) if not c.is_zero() else CommPoly.zero()
        comm = comm + self.comm * CommPoly.linear(other.lin_u, other.lin_v)
        comm = comm - other.comm * CommPoly.linear(self.lin_u, self.lin_v)
        return MetLieElem.from_comm(comm)

    def linear_image(self, a: CycNum, b: CycNum, c: CycNum, d: CycNum) -> MetLieElem:
        """The image under the endomorphism u -> a*u + c*v, v -> b*u + d*v.

        The linear part maps through the matrix.  The commutator ideal
        maps with no bracket: [gv, gu] = det(g) [v,u], and ad(u), ad(v)
        act on it as the commuting variables u, v, so it maps by det(g)
        times the commutative substitution g.
        """
        images = {IU: CommPoly.linear(a, c), IV: CommPoly.linear(b, d)}
        return MetLieElem(
            a * self.lin_u + b * self.lin_v,
            c * self.lin_u + d * self.lin_v,
            self.comm.scale(a * d - b * c).substitute(images),
        )

    def module_action(self, f: CommPoly) -> MetLieElem:
        """Act by a polynomial through ad; defined on the commutator ideal only."""
        if not (self.lin_u.is_zero() and self.lin_v.is_zero()):
            raise ValueError("module action needs a zero linear part")
        return MetLieElem.from_comm(self.comm * f)

    def homogeneous_component(self, d: int) -> MetLieElem:
        lin_u = self.lin_u if d == 1 else ZERO
        lin_v = self.lin_v if d == 1 else ZERO
        comm = self.comm.homogeneous_component(d - 2) if d >= 2 else CommPoly.zero()
        return MetLieElem(lin_u, lin_v, comm)

    def degree(self) -> int:
        d = -1
        if not (self.lin_u.is_zero() and self.lin_v.is_zero()):
            d = 1
        dc = self.comm.degree()
        if dc >= 0:
            d = max(d, dc + 2)
        return d

    def homogeneous_degree(self) -> int | None:
        degs = set()
        if not (self.lin_u.is_zero() and self.lin_v.is_zero()):
            degs.add(1)
        degs |= {sum(m) + 2 for m in self.comm.terms}
        return degs.pop() if len(degs) == 1 else None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MetLieElem)
            and self.lin_u == other.lin_u
            and self.lin_v == other.lin_v
            and self.comm == other.comm
        )

    __hash__ = None

    def __repr__(self) -> str:
        from .expr import print_elem

        return print_elem(self)


def bracket(e1: MetLieElem, e2: MetLieElem) -> MetLieElem:
    return e1.bracket(e2)


def embed_assoc(e: MetLieElem) -> MetAssocElem:
    """Embed into the associative algebra via the commutator operation.

    ad by u becomes right minus left multiplication, so the comm monomial
    u^a v^b lands on (u2 - u1)^a (v2 - v1)^b over the [v,u] marker.
    """
    u, v = CommPoly.variable("u"), CommPoly.variable("v")
    ad = {IU: u.moved(IU2) - u.moved(IU1), IV: v.moved(IU2) - v.moved(IU1)}
    return MetAssocElem(CommPoly.linear(e.lin_u, e.lin_v), e.comm.substitute(ad))
