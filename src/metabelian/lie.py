"""The rank-2 free metabelian Lie algebra and its associative embedding.

An element has the two blocks of ``assoc.MetElem``, as an associative
one does.  ``poly_part`` is the linear part, a degree-1 polynomial in
u, v.  ``comm_part`` is a polynomial in u, v for the commutator ideal,
where the monomial u^a v^b stands for the basis bracket
[v,u] ad^a(u) ad^b(v).  The commutator ideal is a free rank-1 module
over the polynomial ring acting through ad, which is what makes this
coordinate form a basis.
"""

from __future__ import annotations

from .assoc import MetAssocElem, MetElem
from .cyclo import CycNum
from .poly import IU, IU1, IU2, IV, ZERO, CommPoly, uv

__all__ = [
    "MetLieElem",
    "bracket",
    "embed_assoc",
]


class MetLieElem(MetElem):
    """An element of the rank-2 free metabelian Lie algebra."""

    __slots__ = ()

    @classmethod
    def generator(cls, name: str) -> MetLieElem:
        if name not in ("u", "v"):
            raise ValueError(f"generators are 'u' and 'v', got {name!r}")
        return cls(CommPoly.variable(name))

    def bracket(self, other: MetLieElem) -> MetLieElem:
        """Lie bracket; brackets of two commutator terms vanish.  Two
        linear parts give (bc - ad) [v,u] for [a u + b v, c u + d v], and a
        commutator term times a linear form is its bracket with it."""
        u, v = uv(1, 0), uv(0, 1)
        x, y = self.poly_part.terms, other.poly_part.terms
        c = x.get(v, ZERO) * y.get(u, ZERO) - x.get(u, ZERO) * y.get(v, ZERO)
        comm = self.comm_part * other.poly_part - other.comm_part * self.poly_part
        return MetLieElem.from_comm(CommPoly.constant(c) + comm)

    def linear_image(self, a: CycNum, b: CycNum, c: CycNum, d: CycNum) -> MetLieElem:
        """The image under the endomorphism u -> a*u + c*v, v -> b*u + d*v.

        Both blocks map by the commutative substitution g, with no
        bracket: [gv, gu] = det(g) [v,u], and ad(u), ad(v) act on the
        commutator ideal as the commuting variables u, v, so that block
        maps by det(g) times g.
        """
        images = {IU: CommPoly.linear(a, c), IV: CommPoly.linear(b, d)}
        return MetLieElem(
            self.poly_part.substitute(images),
            self.comm_part.scale(a * d - b * c).substitute(images),
        )

    def module_action(self, f: CommPoly) -> MetLieElem:
        """Act by a polynomial through ad; defined on the commutator ideal only."""
        if not self.poly_part.is_zero():
            raise ValueError("module action needs a zero linear part")
        return MetLieElem.from_comm(self.comm_part * f)


def bracket(e1: MetLieElem, e2: MetLieElem) -> MetLieElem:
    return e1.bracket(e2)


def embed_assoc(e: MetLieElem) -> MetAssocElem:
    """Embed into the associative algebra via the commutator operation.

    The linear part is the same in both algebras.  ad by u becomes right
    minus left multiplication, so the comm monomial u^a v^b lands on
    (u2 - u1)^a (v2 - v1)^b over the [v,u] marker.
    """
    u, v = CommPoly.variable("u"), CommPoly.variable("v")
    ad = {IU: u.moved(IU2) - u.moved(IU1), IV: v.moved(IU2) - v.moved(IU1)}
    return MetAssocElem(e.poly_part, e.comm_part.substitute(ad))
