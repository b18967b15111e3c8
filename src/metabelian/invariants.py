"""Degreewise verification of the dihedral invariant theory.

Three independent quantities are compared at every degree: the
dimension of the invariants (the defining oracle), the coefficient of a
closed-form Hilbert series, and the rank actually reached by products of
a candidate generating set.  The invariants have a basis of one tau-orbit
sum per weight-0 monomial, and one enumeration, ``_orbit_pairs``, lists
the letter counts (p, q) of those orbits.  Every invariant dimension,
associative, commutator-block and Lie, is a count over the pairs, and
every explicit basis, commutative, associative and Lie, a formula over
them: no linear algebra and no Reynolds call.  The tests check the
counts against the brute-force character count (W + R) / 2 and the
bases against the average over all 2n group elements.  The generated
ranks come from exact row reduction: for the subalgebra on integer rows
whose columns are the basis words' own exponents read as digits
(``assoc._column``), so no basis is enumerated or indexed, and for the
module checks on the products' own monomials.  The subalgebra rows of
the commutator-block generators come first and use only the word parts
of the span, a degree's echelon pivots, as a commutator times a
commutator is 0: a rank ignores row order, and the skipped rows are 0.
Every generator's invariance is tested by the Reynolds projection,
which applies no rotation, so nothing here builds a root of unity.
Nothing uses a tolerance; a report is ok when the numbers agree.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial

from . import assoc
from .assoc import MetAssocElem, _comm_monomial, _word_times, basis_monomials, uv_monomials
from .cyclo import CycNum, accumulate
from .dihedral import _swap_straighten, reynolds_assoc, reynolds_lie, reynolds_uv, swap
from .lie import MetLieElem
from .linalg import RowEchelon, _integer_row, _rational_row
from .poly import (
    IU1,
    IU2,
    ONE,
    ZERO,
    CommPoly,
    RationalSeries,
    intpoly_add,
    intpoly_mul,
    uv,
)

__all__ = [
    "CstReport",
    "DegreeReport",
    "MinimalityReport",
    "comm_module_generators",
    "corner_generator_relation",
    "cst_sanity",
    "cuv_module_generators",
    "default_max_degree",
    "dim_invariants_assoc",
    "dim_invariants_lie",
    "hilbert_assoc",
    "hilbert_cuv",
    "hilbert_lie",
    "invariant_basis_assoc",
    "invariant_basis_lie",
    "invariant_generators_assoc",
    "lie_module_generator",
    "lie_suite",
    "minimality_check",
    "module_span_check",
    "subalgebra_filtration",
]


class _Record:
    """A report: the fields its ``__init__`` sets, compared and printed in
    that order.  It defines ``__eq__`` and is mutable, so it is unhashable."""

    def __eq__(self, other):
        return type(other) is type(self) and vars(other) == vars(self)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class DegreeReport(_Record):
    """One degree of a three-way dimension comparison."""

    def __init__(
        self, degree: int, dim_reynolds: int, dim_series: int, dim_generated: int | None, ok: bool
    ):
        self.degree = degree
        self.dim_reynolds = dim_reynolds
        self.dim_series = dim_series
        self.dim_generated = dim_generated
        self.ok = ok

    def as_dict(self) -> dict:
        return {
            "d": self.degree,
            "dim_reynolds": self.dim_reynolds,
            "dim_series": self.dim_series,
            "dim_generated": self.dim_generated,
            "ok": self.ok,
        }


def default_max_degree(n: int) -> int:
    """The degree a check runs to when none is given: 2n + 4, past the
    degree-(2n+2) corner generator."""
    return 2 * n + 4


def _degree_bound(n: int, max_degree: int | None = None) -> int:
    """``max_degree``, or 2n + 4 when it is None; ValueError unless n >= 3."""
    if n < 3:
        raise ValueError("need n >= 3")
    return default_max_degree(n) if max_degree is None else max_degree


# ----------------------------------------------------------------------
# Invariant bases and dimensions from the tau-orbits
# ----------------------------------------------------------------------
#
# Rotations fix the monomials of weight 0 mod n.  tau sends u^p v^q to
# the straightened word v^p u^q (``dihedral._swap_straighten``), which is
# u^q v^p plus commutator terms, and a commutator monomial m to
# -swap(m).  So one sum m + tau(m) per weight-0 m larger than its swap,
# halved for the swap-fixed word u^p v^p, is a basis: the supports in m's
# own block are disjoint, and a swap-fixed commutator monomial gives 0.


def _orbit_pairs(n: int, e: int) -> list[tuple[int, int]]:
    """The letter counts (p, q) of the weight-0 monomials of degree e up
    to swap: p >= q, p + q = e and p = q mod n, largest p first."""
    return [(p, e - p) for p in range(e, (e - 1) // 2, -1) if (2 * p - e) % n == 0]


def _swap_differences(n: int, monos, k: int) -> list[CommPoly]:
    """m - swap(m) for each weight-0 m of ``monos`` (degree k) larger than
    its swap, in the order of ``monos``; sum(m[::2]) counts m's u-letters."""
    counts = {c for pair in _orbit_pairs(n, k) for c in pair}
    return [
        CommPoly({m: ONE, swap(m): -ONE}) for m in monos if sum(m[::2]) in counts and swap(m) < m
    ]


@lru_cache(maxsize=None)
def _cuv_invariant_polys(n: int, e: int) -> tuple[CommPoly, ...]:
    """Basis of the degree-e commutative invariants: the orbit sums
    u^p v^q + u^q v^p, one term when p = q."""
    return tuple(CommPoly({uv(p, q): ONE, uv(q, p): ONE}) for p, q in _orbit_pairs(n, e))


@lru_cache(maxsize=None)
def _invariant_rows_assoc(n: int, d: int) -> tuple[MetAssocElem, ...]:
    rows = []
    for p, q in _orbit_pairs(n, d):
        row = MetAssocElem(CommPoly.term(uv(p, q), ONE)) + _swap_straighten(p, q)
        rows.append(row if p > q else row.scale(Fraction(1, 2)))
    comm = _swap_differences(n, basis_monomials(d)[1], d - 2)
    return tuple(rows) + tuple(MetAssocElem.from_comm(h) for h in comm)


@lru_cache(maxsize=None)
def _invariant_rows_lie(n: int, d: int) -> tuple[MetLieElem, ...]:
    # u and v weigh +1 and -1, never 0 mod n >= 3: nothing below degree 2
    comm = _swap_differences(n, uv_monomials(d - 2), d - 2)
    return tuple(MetLieElem.from_comm(h) for h in comm)


def _check_degree(n: int, d: int) -> None:
    if _degree_bound(n, d) < 0:
        raise ValueError("degree must be nonnegative")


def invariant_basis_assoc(n: int, d: int) -> list[MetAssocElem]:
    """A basis of the degree-d invariants of the associative algebra."""
    _check_degree(n, d)
    return list(_invariant_rows_assoc(n, d))


def invariant_basis_lie(n: int, d: int) -> list[MetLieElem]:
    """A basis of the degree-d invariants of the Lie algebra."""
    _check_degree(n, d)
    return list(_invariant_rows_lie(n, d))


def _comm_invariant_count(n: int, d: int) -> int:
    """Dimension of the degree-d invariants in the commutator block: a
    pair p > q has (p+1)(q+1) monomials with p u-letters, each in its own
    orbit, and at p = q the p + 1 swap-fixed ones of the (p+1)^2 drop."""
    return sum(
        (p + 1) * (q + 1) if p > q else p * (p + 1) // 2 for p, q in _orbit_pairs(n, d - 2)
    )


def dim_invariants_assoc(n: int, d: int) -> int:
    """Dimension of the degree-d invariants of the associative algebra,
    ``len(invariant_basis_assoc(n, d))`` with no basis built."""
    _check_degree(n, d)
    return len(_orbit_pairs(n, d)) + _comm_invariant_count(n, d)


def dim_invariants_lie(n: int, d: int) -> int:
    """Dimension of the degree-d invariants of the Lie algebra,
    ``len(invariant_basis_lie(n, d))`` with no basis built."""
    _check_degree(n, d)
    return sum(p > q for p, q in _orbit_pairs(n, d - 2))


# ----------------------------------------------------------------------
# Closed-form Hilbert series
# ----------------------------------------------------------------------

def _one_minus_t(k: int) -> dict[int, int]:
    return {0: 1, k: -1}


def hilbert_cuv(n: int) -> RationalSeries:
    """Series of the commutative invariant ring, 1/((1-t^2)(1-t^n))."""
    return RationalSeries({0: 1}, intpoly_mul(_one_minus_t(2), _one_minus_t(n)))


def hilbert_lie(n: int) -> RationalSeries:
    """Series of the Lie invariants, t^(n+2)/((1-t^2)(1-t^n))."""
    return RationalSeries({n + 2: 1}, intpoly_mul(_one_minus_t(2), _one_minus_t(n)))


def hilbert_assoc(n: int, *, corner: bool = True) -> RationalSeries:
    """Closed-form series for the associative invariants.

    The quotient modulo the commutator ideal contributes the commutative
    series; the commutator ideal contributes the configured module
    generator degrees over two copies of the invariant ring, which is the
    summand ((n+1) t^(n+2) + t^4 (1-t^(2n))/(1-t^2)) / ((1-t^2)(1-t^n))^2.

    With ``corner=True`` (the default) the degree-(2n+2) corner generator
    u^n [v,u] u^n - v^n [v,u] v^n is counted.  That element satisfies

        2 * corner = (u^n+v^n) ([v,u]u^n - [v,u]v^n)
                     + (u^n[v,u] - v^n[v,u]) (u^n+v^n)

    (see ``corner_generator_relation``), so it is redundant over the
    coefficient ring and the default series exceeds the true invariant
    dimension from degree 2n+2 on.  ``corner=False`` drops it, giving the
    series of the free module on the remaining 2n generators, which does
    match the Reynolds ranks at every degree.
    """
    quotient = hilbert_cuv(n)
    top = 2 * n if corner else 2 * n - 2
    # (n+1) t^(n+2) (1 - t^2) + t^4 (1 - t^top), all over (1 - t^2)
    num_a = intpoly_mul({n + 2: n + 1}, _one_minus_t(2))
    num_b = intpoly_mul({4: 1}, _one_minus_t(top))
    gen_degrees = RationalSeries(intpoly_add(num_a, num_b), _one_minus_t(2))
    den2 = intpoly_mul(_one_minus_t(2), _one_minus_t(n))
    module = gen_degrees * RationalSeries({0: 1}, intpoly_mul(den2, den2))
    return quotient + module


# ----------------------------------------------------------------------
# Generator sets
# ----------------------------------------------------------------------

def cuv_module_generators(n: int) -> list[CommPoly]:
    """1, u, ..., u^n, v, ..., v^(n-1): a free basis of the polynomial
    ring over its invariant subring."""
    gens = [CommPoly.constant(ONE)]
    gens += [CommPoly.term(uv(a, 0), ONE) for a in range(1, n + 1)]
    gens += [CommPoly.term(uv(0, b), ONE) for b in range(1, n)]
    return gens


def comm_module_generators(n: int) -> list[CommPoly]:
    """The 2n+1 free module generators of the invariant commutator ideal,
    in commutator coordinates.

    Ordered as: u1^a u2^(n-a) - v1^a v2^(n-a) for a = 0..n, then
    u1^n u2^n - v1^n v2^n, then u1^a v2^a - v1^a u2^a for a = 1..n-1.
    """
    mono = _comm_monomial
    gens = [
        CommPoly({mono(a, 0, n - a, 0): ONE, mono(0, a, 0, n - a): -ONE})
        for a in range(n + 1)
    ]
    gens.append(CommPoly({mono(n, 0, n, 0): ONE, mono(0, n, 0, n): -ONE}))
    gens += [
        CommPoly({mono(a, 0, 0, a): ONE, mono(0, a, a, 0): -ONE})
        for a in range(1, n)
    ]
    return gens


def lie_module_generator(n: int) -> CommPoly:
    """u^n - v^n in ad coordinates: the single Lie module generator."""
    return CommPoly({uv(n, 0): ONE, uv(0, n): -ONE})


def invariant_generators_assoc(n: int) -> list[MetAssocElem]:
    """The standard generating set of the invariant algebra: the two
    lifts uv+vu and u^n+v^n followed by the 2n+1 module generators."""
    lift_uv = assoc.from_word("uv") + assoc.from_word("vu")
    lift_pow = MetAssocElem(CommPoly({uv(n, 0): ONE, uv(0, n): ONE}))
    return [lift_uv, lift_pow] + [
        MetAssocElem.from_comm(h) for h in comm_module_generators(n)
    ]


def corner_generator_relation(n: int) -> tuple[MetAssocElem, MetAssocElem]:
    """The exact identity making the corner module generator redundant.

    Returns (lhs, rhs) with lhs = 2 (u^n[v,u]u^n - v^n[v,u]v^n) and rhs
    the coefficient-ring combination of the a=0 and a=n degree-(n+2)
    generators; the two are equal, so the 2n+1 module generators are a
    generating but not a free set, and dropping the corner one leaves a
    free set of 2n.
    """
    gens = comm_module_generators(n)
    g0 = MetAssocElem.from_comm(gens[0])
    gn = MetAssocElem.from_comm(gens[n])
    corner = MetAssocElem.from_comm(gens[n + 1])
    power_sum = MetAssocElem(CommPoly({uv(n, 0): ONE, uv(0, n): ONE}))
    return corner.scale(2), power_sum * g0 + gn * power_sum


# ----------------------------------------------------------------------
# The degreewise comparison, and the subalgebra generation check
# ----------------------------------------------------------------------

def _graded(gens, shift: int, invariant) -> list[tuple[int, object, dict]]:
    """(degree + shift, generator, its coefficients cleared to integers)
    for each generator, in order.  ValueError unless every generator,
    whatever its degree, is homogeneous and nonzero, fixed by
    ``invariant`` when one is given, and rational."""
    graded = []
    for g in gens:
        dg = g.homogeneous_degree()
        if dg is None:
            raise ValueError("generators must be homogeneous and nonzero")
        if invariant is not None and not invariant(g):
            raise ValueError("generators must be invariant")
        terms = g.terms if isinstance(g, CommPoly) else g.poly_part.terms | g.comm_part.terms
        if (cleared := _integer_row(terms)) is None:
            raise ValueError("generators must have rational coefficients")
        graded.append((dg + shift, g, cleared[0]))
    return graded


def _compare(max_degree: int, dims, series, rows, echelons=None) -> list[DegreeReport]:
    """One report per degree d <= max_degree: the target dimension
    dims(d), the coefficient of ``series`` and the rank of the rows
    ``rows(d)``.  Every row lies in the degree-d target space, so the
    rows stop once the rank is dims(d).  The echelon of each degree is
    appended to ``echelons`` when it is given, for later rows to read."""
    reports = []
    for d, coeff in enumerate(series.coefficients(max_degree)):
        dim = dims(d)
        ech = RowEchelon()
        for row in rows(d):
            if row and ech.insert(row) and ech.rank == dim:
                break
        if echelons is not None:
            echelons.append(ech)
        reports.append(DegreeReport(d, dim, coeff, ech.rank, dim == coeff == ech.rank))
    return reports


def subalgebra_filtration(
    gens: list[MetAssocElem], n: int, max_degree: int | None = None
) -> list[DegreeReport]:
    """Compare span-of-products, invariant dimension, and series coefficient.

    The span at degree d is built by dynamic programming: products of
    the pivots of the degree-(d-k) echelon, primitive integer rows, with
    each degree-k generator.  Generators must have rational
    coefficients.  Each one of degree at most ``max_degree`` has its
    coefficients cleared to integers once, so a product row is a sum of
    integer rows with no algebra product.  Rows are keyed by
    ``assoc._column`` in base max_degree + 1, so a column is its basis
    word, and s * g is the sum of s[j] times the image of the word j
    under right multiplication by g.  The images come from the closed
    form ``assoc._word_times`` and are kept in one map per generator and
    source degree, filled as the pivots reach their columns.

    The generators with no word part come first, then the others, each
    in the given order.  As a commutator times a commutator is 0, the
    former multiply only the word parts (columns <= 0) of the pivots led
    by a word column, the only pivots with one since word columns sort
    first; a source degree's word parts are cut once.  No report moves:
    a rank ignores row order, and every skipped row is 0.
    """
    max_degree = _degree_bound(n, max_degree)
    # (degree, u^a v^b terms, commutator terms) with integer coefficients;
    # degree-0 generators are constants, already in the subalgebra, and
    # no product of one above max_degree is reached
    graded = [
        (dg, [(m, ints[m]) for m in g.poly_part.terms], [(m, ints[m]) for m in g.comm_part.terms])
        for dg, g, ints in _graded(gens, 0, lambda g: reynolds_assoc(n, g) == g)
        if 0 < dg <= max_degree
    ]
    graded.sort(key=lambda entry: bool(entry[1]))
    echelons: list[RowEchelon] = []
    words: dict[int, list[dict[int, int]]] = {}

    def rows(d):
        if not d:
            yield {0: ONE}  # the unit, column 0, spans degree 0
        for dg, poly_terms, comm_terms in graded:
            k = d - dg
            if k < 0:
                continue
            if k not in words:
                words[k] = [{j: x for j, x in s.items() if j <= 0}
                            for lead, s in echelons[k].pivots().items() if lead <= 0]
            images: dict[int, dict[int, int]] = {}
            for s in echelons[k].pivots().values() if poly_terms else words[k]:
                row: dict[int, int] = {}
                for j, x in s.items():
                    image = images.get(j)
                    if image is None:
                        image = images[j] = _word_times(j, max_degree + 1, poly_terms, comm_terms)
                    for c, y in image.items():
                        accumulate(row, c, x * y)
                yield _rational_row(row, 1)

    dims = partial(dim_invariants_assoc, n)
    return _compare(max_degree, dims, hilbert_assoc(n), rows, echelons)


# ----------------------------------------------------------------------
# Module freeness checks
# ----------------------------------------------------------------------

@lru_cache(maxsize=None)
def _tensor_invariant_polys(n: int, e: int) -> tuple[CommPoly, ...]:
    """Degree-e basis of (invariants in u1,v1) tensor (invariants in u2,v2)."""
    out = []
    for e1 in range(e + 1):
        left = [p.moved(IU1) for p in _cuv_invariant_polys(n, e1)]
        right = [p.moved(IU2) for p in _cuv_invariant_polys(n, e - e1)]
        out.extend(l * r for l in left for r in right)
    return tuple(out)


def module_span_check(
    module_gens: list[CommPoly], side: str, n: int, max_degree: int | None = None
) -> list[DegreeReport]:
    """Degreewise freeness check for a module generating set.

    ``side`` selects the module structure:

    * ``"left"``: generators in u, v spanning the full polynomial ring
      over the invariant ring (plain multiplication);
    * ``"both"``: generators in commutator coordinates u1, v1, u2, v2
      spanning the invariant commutator ideal over the two-sided
      coefficient ring (element degree is inner degree plus 2);
    * ``"right"``: generators in ad coordinates u, v spanning the Lie
      invariant commutator ideal (element degree is inner plus 2).

    Per degree, dim_generated is the rank of all coefficient-ring
    multiples of the generators, dim_series the coefficient of
    sum_i t^deg(z_i) times the coefficient-ring series, and dim_reynolds
    the dimension of the target space, a count with no basis; freeness up
    to max_degree means all three agree everywhere.  Generators must have
    rational coefficients, and on the "both" and "right" sides every one
    must be fixed by its Reynolds projection; ValueError otherwise.
    """
    # the invariance tests look the projections up when they run, so a
    # rebinding of the module's reynolds_lie or reynolds_assoc is seen
    cuv = hilbert_cuv(n)
    if side == "left":
        shift, invariant, ring, series, dims = 0, None, _cuv_invariant_polys, cuv, lambda d: d + 1
    elif side == "right":
        def lie_invariant(z):
            return reynolds_lie(n, e := MetLieElem.from_comm(z)) == e
        shift, invariant, ring, series = 2, lie_invariant, _cuv_invariant_polys, cuv
        dims = partial(dim_invariants_lie, n)
    elif side == "both":
        def assoc_invariant(z):
            return reynolds_assoc(n, e := MetAssocElem.from_comm(z)) == e
        shift, invariant, ring, series = 2, assoc_invariant, _tensor_invariant_polys, cuv * cuv
        dims = partial(_comm_invariant_count, n)
    else:
        raise ValueError(f"side must be left, right or both, not {side!r}")
    max_degree = _degree_bound(n, max_degree)
    graded = _graded(module_gens, shift, invariant)
    counts = Counter(dz for dz, _, _ in graded if dz <= max_degree)

    def rows(d):
        return ((cpoly * z).terms for dz, z, _ in graded if dz <= d for cpoly in ring(n, d - dz))

    return _compare(max_degree, dims, RationalSeries(counts) * series, rows)


def lie_suite(n: int, max_degree: int | None = None) -> list[DegreeReport]:
    """Three-way check for the Lie algebra: the right-module check of
    the single generator u^n - v^n, whose series is the Lie series
    t^(n+2) / ((1-t^2)(1-t^n)) and whose target is the orbit-pair count
    ``dim_invariants_lie``: no Lie invariant basis is built."""
    return module_span_check([lie_module_generator(n)], "right", n, max_degree)


# ----------------------------------------------------------------------
# Minimality of the generating set
# ----------------------------------------------------------------------

class MinimalityReport(_Record):
    def __init__(
        self,
        n: int,
        decomposition: list[CycNum],
        single_removal_ok: list[bool],
        double_removal_failures: list[tuple[tuple[int, int], int, int]],
        double_removal_all_fail: bool,
    ):
        self.n = n
        self.decomposition = decomposition
        self.single_removal_ok = single_removal_ok
        self.double_removal_failures = double_removal_failures
        self.double_removal_all_fail = double_removal_all_fail

    @property
    def ok(self) -> bool:
        return (
            all(not c.is_zero() for c in self.decomposition)
            and all(self.single_removal_ok)
            and self.double_removal_all_fail
        )


def minimality_check(n: int, max_degree: int | None = None) -> MinimalityReport:
    """Show one degree-(n+2) generator is redundant but no two are.

    (a) write [uv+vu, u^n+v^n] as a combination of the n+1 degree-(n+2)
    module generators: generator a is the only one with the monomial
    u1^a u2^(n-a), so its coefficient is the commutator's there, and the
    combination is rebuilt and compared, (b) rerun the generation check
    with any single one removed, (c) confirm that removing any two drops
    the achieved dimension at degree n+2.
    """
    max_degree = _degree_bound(n, max_degree)
    gens = invariant_generators_assoc(n)
    target = gens[0].commutator(gens[1])
    axis = comm_module_generators(n)[: n + 1]

    d = n + 2
    terms = target.comm_part.terms
    coeffs = [terms.get(_comm_monomial(a, 0, n - a, 0), ZERO) for a in range(n + 1)]
    rebuilt = sum((h.scale(c) for c, h in zip(coeffs, axis)), CommPoly.zero())
    if MetAssocElem.from_comm(rebuilt) != target:
        raise ArithmeticError("the commutator of the lifts left the module span")

    # generation survival means the span keeps matching the invariant
    # dimension
    single_ok = []
    for j in range(n + 1):
        reduced = [g for i, g in enumerate(gens) if i != 2 + j]
        reports = subalgebra_filtration(reduced, n, max_degree)
        single_ok.append(all(r.dim_generated == r.dim_reynolds for r in reports))

    failures = []
    all_fail = True
    for j in range(n + 1):
        for k in range(j + 1, n + 1):
            reduced = [g for i, g in enumerate(gens) if i not in (2 + j, 2 + k)]
            reports = subalgebra_filtration(reduced, n, d)
            top = reports[d]
            failures.append(((j, k), top.dim_generated, top.dim_reynolds))
            if top.dim_generated >= top.dim_reynolds:
                all_fail = False
    return MinimalityReport(n, coeffs, single_ok, failures, all_fail)


# ----------------------------------------------------------------------
# Reflection-group bookkeeping
# ----------------------------------------------------------------------

class CstReport(_Record):
    def __init__(
        self,
        n: int,
        degrees: tuple[int, int],
        group_order: int,
        degree_product: int,
        reflection_count: int,
        reflection_degree_sum: int,
        fundamental_invariants_fixed: bool,
    ):
        self.n = n
        self.degrees = degrees
        self.group_order = group_order
        self.degree_product = degree_product
        self.reflection_count = reflection_count
        self.reflection_degree_sum = reflection_degree_sum
        self.fundamental_invariants_fixed = fundamental_invariants_fixed

    @property
    def ok(self) -> bool:
        return (
            self.degree_product == self.group_order
            and self.reflection_degree_sum == self.reflection_count
            and self.fundamental_invariants_fixed
        )


def cst_sanity(n: int) -> CstReport:
    """Check the degree bookkeeping of the two fundamental invariants.

    With degrees (2, n) for uv and u^n + v^n: their product must equal
    the group order 2n and the sum of (degree - 1) the reflection count
    n.  The two invariants are checked by the Reynolds projection, as
    ``subalgebra_filtration`` checks its generators: f is invariant when
    (P0 + tau P0) f / 2 = f, so no group element is listed and no
    rotation is applied.
    """
    _degree_bound(n)
    f1 = CommPoly.term(uv(1, 1), ONE)
    f2 = CommPoly({uv(n, 0): ONE, uv(0, n): ONE})
    fixed = all(reynolds_uv(n, f) == f for f in (f1, f2))
    return CstReport(
        n=n,
        degrees=(2, n),
        group_order=2 * n,
        degree_product=2 * n,
        reflection_count=n,
        reflection_degree_sum=(2 - 1) + (n - 1),
        fundamental_invariants_fixed=fixed,
    )
