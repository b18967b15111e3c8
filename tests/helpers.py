"""Seeded random element generators shared by the test modules."""

from __future__ import annotations

import operator
from fractions import Fraction
from random import Random

from metabelian.assoc import MetAssocElem, from_word
from metabelian.cyclo import CycNum, cyclotomic_polynomial, euler_phi, imag_unit
from metabelian.dihedral import act_assoc, group_elements, rotation_weight, swap
from metabelian.expr import (
    Bracket,
    Difference,
    Group,
    ImagLit,
    Power,
    Product,
    RationalLit,
    Sum,
    Variable,
)
from metabelian.lie import MetLieElem
from metabelian.linalg import RowEchelon
from metabelian.poly import IU, IU1, IU2, IV, IV1, IV2, ONE, VARIABLES, CommPoly, uv


def random_gaussian(rng: Random, order: int, nonzero: bool = False) -> CycNum:
    """A random element of Q(i) inside the order-m field."""
    while True:
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        c = CycNum.from_rational(order, a) + imag_unit(order) * b
        if not (nonzero and c.is_zero()):
            return c


def random_cyc(rng: Random, order: int, nonzero: bool = False) -> CycNum:
    """A random field element with a few zeta-power components."""
    while True:
        c = CycNum.zero(order)
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(0, order - 1)
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            c = c + CycNum(order, {k: q})
        if not (nonzero and c.is_zero()):
            return c


def random_matrix(rng: Random, order: int = 4) -> tuple[CycNum, ...]:
    """An invertible (a, b, c, d) over Q(i), for linear_image's
    u -> a*u + c*v, v -> b*u + d*v."""
    while True:
        a, b, c, d = (random_gaussian(rng, order) for _ in range(4))
        if not (a * d - b * c).is_zero():
            return a, b, c, d


def inverse_matrix(a, b, c, d) -> tuple[CycNum, ...]:
    det = a * d - b * c
    return d / det, -b / det, -c / det, a / det


def substitute_oracle(p: CommPoly, images: dict[int, CommPoly]) -> CommPoly:
    """``CommPoly.substitute`` term by term, the reference for the
    factored one: each term is its coefficient times its variables'
    images, multiplied in one factor at a time."""
    out = CommPoly.zero()
    for mono, coeff in p.terms.items():
        acc = CommPoly.constant(coeff)
        for slot, e in enumerate(mono):
            if e and slot not in images:
                raise ValueError(f"no image given for variable {VARIABLES[slot]!r}")
            for _ in range(e):
                acc = acc * images[slot]
        out = out + acc
    return out


def linear_image_oracle(e: MetAssocElem, a, b, c, d) -> MetAssocElem:
    """``MetAssocElem.linear_image`` term by term, the reference for the
    factored one: the commutator block by det(g) times the substitution
    g on (u1, v1) and (u2, v2), by ``substitute_oracle``, and each word
    u^p v^q as its own algebra product (gu)^p (gv)^q."""
    lu, lv = CommPoly.linear(a, c), CommPoly.linear(b, d)
    images = {IU1: lu.moved(IU1), IV1: lv.moved(IU1), IU2: lu.moved(IU2), IV2: lv.moved(IU2)}
    out = MetAssocElem.from_comm(substitute_oracle(e.comm_part, images).scale(a * d - b * c))
    gu, gv = MetAssocElem(lu), MetAssocElem(lv)
    pu, pv = [MetAssocElem.one()], [MetAssocElem.one()]
    for mono, coeff in e.poly_part.terms.items():
        p, q = mono[IU], mono[IV]
        while len(pu) <= p:
            pu.append(pu[-1] * gu)
        while len(pv) <= q:
            pv.append(pv[-1] * gv)
        out = out + (pu[p] * pv[q]).scale(coeff)
    return out


def _signed_words(mono: tuple[int, ...], in_comm: bool) -> list[tuple[int, str]]:
    """A basis word as signed letter words: u^a v^b itself, and
    u^a v^b [v,u] u^c v^d as the word with vu in place of [v,u] minus
    the word with uv there."""
    if not in_comm:
        return [(1, "u" * mono[IU] + "v" * mono[IV])]
    left, right = "u" * mono[IU1] + "v" * mono[IV1], "u" * mono[IU2] + "v" * mono[IV2]
    return [(1, left + "vu" + right), (-1, left + "uv" + right)]


def _signed_terms(e: MetAssocElem):
    for block, in_comm in ((e.poly_part, False), (e.comm_part, True)):
        for mono, coeff in block.terms.items():
            for sign, word in _signed_words(mono, in_comm):
                yield coeff * sign, word


def mul_oracle(e1: MetAssocElem, e2: MetAssocElem) -> MetAssocElem:
    """``e1 * e2`` term by term, the reference for the one-pass product:
    each pair of signed letter words is joined and straightened by
    ``from_word``, which rewrites vu = uv + [v,u] one letter at a time."""
    out = MetAssocElem.zero()
    for c1, w1 in _signed_terms(e1):
        for c2, w2 in _signed_terms(e2):
            out = out + from_word(w1 + w2).scale(c1 * c2)
    return out


def _phi_remainder(order: int, dense: list) -> dict[int, Fraction]:
    """The remainder of the dense polynomial ``dense`` (index equals
    exponent) by long division with the cyclotomic polynomial, as a map
    with no zeros."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    dense = list(dense)
    for e in range(len(dense) - 1, deg - 1, -1):
        c = dense[e]
        for j, pj in enumerate(phi):
            dense[e - deg + j] -= c * pj
    return {e: c for e, c in enumerate(dense[:deg]) if c}


def cyc_oracle(order: int, coeffs: dict) -> dict[int, Fraction]:
    """The map ``CycNum(order, coeffs)`` stores: each exponent taken mod
    ``order`` into a dense list, then long division by the cyclotomic
    polynomial."""
    dense = [Fraction(0)] * order
    for e, c in coeffs.items():
        dense[e % order] += c
    return _phi_remainder(order, dense)


def cyc_mul_oracle(x: CycNum, y: CycNum) -> CycNum:
    """``x * y`` for two values of one order by the dense double loop,
    then long division by the cyclotomic polynomial."""
    dense = [Fraction(0)] * (2 * euler_phi(x.order))
    for e1, c1 in x.coeffs.items():
        for e2, c2 in y.coeffs.items():
            dense[e1 + e2] += c1 * c2
    return CycNum(x.order, _phi_remainder(x.order, dense))


_CHAIN_OPS = {Sum: operator.add, Difference: operator.sub, Product: operator.mul}


def evaluate_oracle(node, leaves: dict[str, MetAssocElem], memo: dict) -> MetAssocElem:
    """Evaluate a syntax tree with each variable name bound to its leaf and
    every node, a literal too, an algebra element, so each chain link is one
    algebra operation: the reference for ``expr._evaluate``, which keeps
    constants as scalars, multiplies each product prefix once and sums a
    chain into one map.  ``memo`` maps the ``id()`` of each node that is not
    a chain link to its value."""
    # a flat chain such as u+u+...+u is as deep as it is long, so its
    # left spine is walked by a loop, not recursion
    spine = []
    while type(node) in _CHAIN_OPS:
        spine.append(node)
        node = node.left
    value = memo.get(id(node))
    if value is None:
        match node:
            case RationalLit(value=q):
                value = MetAssocElem.one().scale(q)
            case ImagLit():
                value = MetAssocElem.one().scale(imag_unit(4))
            case Variable(name=name):
                value = leaves[name]
            case Group(inner=inner):
                value = evaluate_oracle(inner, leaves, memo)
            case Power(base=b, exponent=k):
                value = evaluate_oracle(b, leaves, memo) ** k
            case Bracket(left=l, right=r):
                value = evaluate_oracle(l, leaves, memo).commutator(
                    evaluate_oracle(r, leaves, memo)
                )
            case _:
                raise TypeError(f"not an expression node: {node!r}")
        memo[id(node)] = value
    for op in reversed(spine):
        value = _CHAIN_OPS[type(op)](value, evaluate_oracle(op.right, leaves, memo))
    return value


def eval_with_leaves(node) -> MetAssocElem:
    """Evaluate a syntax tree over u, v with x and y replaced by the leaves
    (u+v)/2 and (u-v)/(2i), built by algebra arithmetic: the reference for
    ``eval_assoc``, which evaluates a text without u, v over its own
    letters and changes basis once.  It evaluates by ``evaluate_oracle``."""
    u, v = MetAssocElem.letter("u"), MetAssocElem.letter("v")
    i = imag_unit(4)
    leaves = {"u": u, "v": v, "x": (u + v).scale(Fraction(1, 2)), "y": (u - v).scale(-i / 2)}
    return evaluate_oracle(node, leaves, {})


def random_assoc(
    rng: Random,
    order: int = 4,
    max_degree: int = 5,
    terms: int = 4,
    coeff=random_gaussian,
) -> MetAssocElem:
    e = MetAssocElem.zero()
    for _ in range(terms):
        c = coeff(rng, order)
        if rng.random() < 0.5:
            a = rng.randint(0, max_degree)
            b = rng.randint(0, max_degree - a)
            e = e + MetAssocElem(CommPoly.term(uv(a, b), c))
        else:
            inner = max(0, max_degree - 2)
            a = rng.randint(0, inner)
            b = rng.randint(0, inner - a)
            cc = rng.randint(0, inner - a - b)
            d = rng.randint(0, inner - a - b - cc)
            mono = (0, 0, a, b, cc, d)
            e = e + MetAssocElem.from_comm(CommPoly.term(mono, c))
    return e


def random_lie(
    rng: Random,
    order: int = 4,
    max_degree: int = 5,
    terms: int = 3,
    coeff=random_gaussian,
) -> MetLieElem:
    e = MetLieElem(CommPoly.linear(coeff(rng, order), coeff(rng, order)))
    inner = max(0, max_degree - 2)
    for _ in range(terms):
        a = rng.randint(0, inner)
        b = rng.randint(0, inner - a)
        e = e + MetLieElem.from_comm(CommPoly.term(uv(a, b), coeff(rng, order)))
    return e


def random_comm_poly(
    rng: Random,
    names: tuple[str, ...],
    order: int = 4,
    max_degree: int = 5,
    terms: int = 4,
    coeff=random_gaussian,
) -> CommPoly:
    """A random polynomial in the named variables, of degree <= max_degree."""
    p = CommPoly.zero()
    for _ in range(terms):
        left = rng.randint(0, max_degree)
        exps = {}
        for name in names:
            exps[name] = rng.randint(0, left)
            left -= exps[name]
        mono = tuple(exps.get(name, 0) for name in VARIABLES)
        p = p + CommPoly.term(mono, coeff(rng, order))
    return p


def group_average(n: int, e, act):
    """The Reynolds operator by its definition: the mean of the 2n images
    of e under ``act``.  The library computes the same projection from
    one reflection; this is the oracle it is tested against."""
    acc = None
    for g in group_elements(n):
        img = act(g, e)
        acc = img if acc is None else acc + img
    return acc.scale(Fraction(1, 2 * n))


def orbit_images_oracle(n: int, monos, wrap, reynolds) -> list:
    """An invariant basis by one Reynolds projection per tau-orbit, the
    reference for the library's orbit-pair formulas: for each weight-0
    monomial m of ``monos`` with swap(m) <= m, the image ``reynolds(n,
    wrap(m))``, doubled unless m is swap-fixed and dropped when zero, in
    the order of ``monos``."""
    out = []
    for m in monos:
        s = swap(m)
        if rotation_weight(m) % n or s > m:
            continue
        r = reynolds(n, wrap(CommPoly.term(m, ONE)))
        if not r.is_zero():
            out.append(r if s == m else r.scale(2))
    return out


def generated_dims_oracle(gens, n: int, d: int) -> list[int]:
    """The dimension at each degree 0..d of the subalgebra generated by
    ``gens``, the reference for ``subalgebra_filtration``'s ranks: degree
    e is spanned by every product s * g, generator by generator in the
    given order, with s any product of degree e - deg(g) (1 at degree 0),
    each computed with ``MetAssocElem.__mul__`` and none skipped, and the
    rank of the whole set is taken with no early stop.  Each generator
    must be fixed by the average over the 2n elements of D_n."""
    for g in gens:
        assert group_average(n, g, act_assoc) == g
    graded = [(g.homogeneous_degree(), g) for g in gens]
    products = {0: [MetAssocElem(CommPoly.constant(ONE))]}
    dims = [1]
    for e in range(1, d + 1):
        products[e] = [s * g for dg, g in graded for s in products.get(e - dg, ())]
        ech = RowEchelon()
        for p in products[e]:
            ech.insert(
                {(0, m): c for m, c in p.poly_part.terms.items()}
                | {(1, m): c for m, c in p.comm_part.terms.items()}
            )
        dims.append(ech.rank)
    return dims


def random_word(rng: Random, max_len: int = 6) -> str:
    return "".join(rng.choice("uv") for _ in range(rng.randint(0, max_len)))
