import pytest

from helpers import generated_dims_oracle, group_average, orbit_images_oracle
from metabelian import cli, invariants
from metabelian.assoc import MetAssocElem, MetElem, basis_monomials, from_word, uv_monomials
from metabelian.assoc import basis as assoc_basis
from metabelian.cyclo import CycNum, ambient_order, imag_unit
from metabelian.dihedral import (
    act_assoc,
    act_lie,
    act_uv,
    reynolds_assoc,
    reynolds_lie,
    reynolds_uv,
)
from metabelian.invariants import (
    CstReport,
    DegreeReport,
    MinimalityReport,
    comm_module_generators,
    corner_generator_relation,
    cst_sanity,
    cuv_module_generators,
    dim_invariants_assoc,
    dim_invariants_lie,
    hilbert_assoc,
    hilbert_cuv,
    hilbert_lie,
    invariant_basis_assoc,
    invariant_basis_lie,
    invariant_generators_assoc,
    lie_module_generator,
    lie_suite,
    minimality_check,
    module_span_check,
    subalgebra_filtration,
)
from metabelian.invariants import (
    _comm_invariant_count,
    _cuv_invariant_polys,
    _invariant_rows_assoc,
    _invariant_rows_lie,
    _tensor_invariant_polys,
)
from metabelian.lie import MetLieElem
from metabelian.linalg import RowEchelon
from metabelian.poly import ONE, CommPoly, RationalSeries, uv


def test_invariant_basis_assoc_examples():
    assert invariant_basis_assoc(3, 1) == []
    assert len(invariant_basis_assoc(3, 4)) == 2
    assert len(invariant_basis_assoc(3, 5)) == 5


def _row(e) -> dict:
    """Coordinates keyed by (block, exponent tuple), independent of the
    library's own column numbering."""
    if isinstance(e, MetElem):
        parts = (e.poly_part.terms, e.comm_part.terms)
    else:
        parts = (e.terms,)
    return {
        (k, m): c
        for k, terms in enumerate(parts)
        for m, c in terms.items()
        if not c.is_zero()
    }


def _check_against_group_average(basis, monomial_elems, n, act):
    """The basis spans exactly the group averages of the monomials and
    is independent: same rank, and appending it adds nothing."""
    ech = RowEchelon()
    for b in monomial_elems:
        ech.insert(_row(group_average(n, b, act)))
    rank = ech.rank
    assert len(basis) == rank
    alone = RowEchelon()
    assert all(alone.insert(_row(e)) for e in basis)
    for e in basis:
        ech.insert(_row(e))
    assert ech.rank == rank


def test_invariant_basis_is_fixed_and_matches_group_average():
    for n in range(3, 7):
        for d in range(11):
            basis = invariant_basis_assoc(n, d)
            _check_against_group_average(basis, assoc_basis(d), n, act_assoc)
            for e in basis:
                assert reynolds_assoc(n, e) == e


def test_invariant_basis_lie_examples():
    for d in range(5):
        assert invariant_basis_lie(3, d) == []
    basis5 = invariant_basis_lie(3, 5)
    assert len(basis5) == 1
    one = CycNum.one(ambient_order(3))
    # the normalized basis vector is exactly [v,u](ad^3(u) - ad^3(v))
    gen = CommPoly({uv(3, 0): one, uv(0, 3): -one})
    assert basis5[0].comm_part == gen
    assert invariant_basis_lie(3, 6) == []
    assert len(invariant_basis_lie(3, d=7)) == 1


def test_lie_basis_matches_group_average():
    for n in range(3, 7):
        order = ambient_order(n)
        one = CycNum.one(order)
        for d in range(31):
            if d < 2:
                monos = [MetLieElem.generator("u"), MetLieElem.generator("v")][: 2 * d]
            else:
                monos = [
                    MetLieElem.from_comm(CommPoly.term(uv(a, d - 2 - a), one))
                    for a in range(d - 1)
                ]
            basis = invariant_basis_lie(n, d)
            _check_against_group_average(basis, monos, n, act_lie)
            for e in basis:
                assert reynolds_lie(n, e) == e


def test_cuv_basis_matches_group_average():
    for n in range(3, 7):
        one = CycNum.one(ambient_order(n))
        for e in range(21):
            monos = [CommPoly.term(uv(a, e - a), one) for a in range(e + 1)]
            basis = _cuv_invariant_polys(n, e)
            _check_against_group_average(basis, monos, n, act_uv)
            for p in basis:
                assert reynolds_uv(n, p) == p


def test_bases_equal_the_reynolds_orbit_oracle():
    # element by element and in order: the span checks above would miss
    # a changed sign, scale or order
    for n in range(3, 8):
        for d in range(15):
            poly, comm = basis_monomials(d)
            assert invariant_basis_assoc(n, d) == orbit_images_oracle(
                n, poly, MetAssocElem, reynolds_assoc
            ) + orbit_images_oracle(n, comm, MetAssocElem.from_comm, reynolds_assoc), (n, d)
            lie = orbit_images_oracle(n, uv_monomials(d - 2), MetLieElem.from_comm, reynolds_lie)
            assert invariant_basis_lie(n, d) == lie, (n, d)
            cuv = orbit_images_oracle(n, uv_monomials(d), lambda p: p, reynolds_uv)
            assert list(_cuv_invariant_polys(n, d)) == cuv, (n, d)


def test_bases_and_counts_call_no_reynolds(capsys, monkeypatch):
    # every basis and count is a formula over the orbit pairs
    def no_reynolds(n, e):
        raise AssertionError("a Reynolds projection was called")

    for name in ("reynolds_uv", "reynolds_assoc", "reynolds_lie"):
        monkeypatch.setattr(invariants, name, no_reynolds)
    # bases cached by earlier tests would hide a call
    for cached in (
        _invariant_rows_assoc,
        _invariant_rows_lie,
        _cuv_invariant_polys,
        _tensor_invariant_polys,
    ):
        cached.cache_clear()
    for n in range(3, 8):
        for d in range(15):
            invariant_basis_assoc(n, d)
            invariant_basis_lie(n, d)
            _cuv_invariant_polys(n, d)
            _tensor_invariant_polys(n, d)
            dim_invariants_assoc(n, d)
            dim_invariants_lie(n, d)
            _comm_invariant_count(n, d)
    assert cli.main(["verify", "cuv-module", "--n", "4", "--max-deg", "10"]) == 0
    assert capsys.readouterr().out.count(" ok\n") == 11


def test_hilbert_closed_forms():
    # expansions of the configured closed forms
    assert hilbert_assoc(3).coefficients(8) == [1, 0, 1, 1, 2, 5, 5, 11, 16]
    assert hilbert_lie(3).coefficients(9) == [0, 0, 0, 0, 0, 1, 0, 1, 1, 1]
    assert hilbert_cuv(3).coefficients(6) == [1, 0, 1, 1, 1, 1, 2]
    for n in (3, 4, 5):
        coeffs = hilbert_assoc(n).coefficients(2)
        assert coeffs[0] == 1 and coeffs[1] == 0


def test_cuv_series_identity():
    # H_cuv * (1+t)(1+t+...+t^(n-1)) == 1/(1-t)^2 as rational functions
    for n in (3, 4, 5):
        w = RationalSeries({0: 1, 1: 1}) * RationalSeries(dict.fromkeys(range(n), 1))
        lhs = hilbert_cuv(n) * w
        rhs = RationalSeries({0: 1}, {0: 1, 1: -2, 2: 1})
        assert lhs == rhs


def test_lie_series_is_the_right_module_series():
    # lie_suite reports module_span_check's dim_series for the one
    # generator u^n - v^n: t^(n+2) times the coefficient-ring series
    for n in range(3, 13):
        shift = RationalSeries({n + 2: 1})
        assert hilbert_lie(n) == shift * hilbert_cuv(n)


def test_reynolds_ranks_match_corner_free_series():
    # the free-module series (corner generator dropped) matches the rank
    # oracle at every checked degree
    for n in (3, 4):
        series = hilbert_assoc(n, corner=False).coefficients(10)
        for d in range(11):
            assert len(invariant_basis_assoc(n, d)) == series[d]


# The character count dim = (1/2n) sum_g trace(g) = (W + R) / 2, the
# oracle for the library's orbit-pair counts.  The rotations add up to
# n W, W the number of basis monomials of weight 0 mod n, since
# sum_k xi^(kw) = n [w = 0 mod n].  A reflection is triangular on the
# basis: the diagonal entry of u^a v^b is [a = b] (tau straightens v^a u^b
# to u^a v^b plus commutator terms), and that of a commutator monomial,
# which tau maps to minus its swap, is -[it is swap-fixed].  So each
# reflection has the same trace R.  These oracles count W by brute force,
# one monomial at a time.

def _assoc_trace_count(n: int, d: int) -> int:
    w = sum(1 for a in range(d + 1) if (a - (d - a)) % n == 0)
    inner = d - 2
    w += sum(
        1
        for a in range(inner + 1)
        for b in range(inner + 1 - a)
        for c in range(inner + 1 - a - b)
        if (a - b + c - (inner - a - b - c)) % n == 0
    )
    # u^(d/2) v^(d/2) gives +1; u^a v^a [v,u] u^c v^c, 2a + 2c = d - 2,
    # gives -1 each, d/2 of them
    if d == 0:
        r = 1
    elif d % 2 == 0:
        r = 1 - d // 2
    else:
        r = 0
    assert (w + r) % 2 == 0
    return (w + r) // 2


def _lie_trace_count(n: int, d: int) -> int:
    # u and v have weights +1 and -1 and are swapped: no contribution
    if d < 2:
        return 0
    w = sum(1 for a in range(d - 1) if (a - (d - 2 - a)) % n == 0)
    # [v,u] ad(u)^a ad(v)^a, 2a = d - 2, is the one swap-fixed monomial
    r = -1 if d % 2 == 0 else 0
    assert (w + r) % 2 == 0
    return (w + r) // 2


def test_trace_count_assoc():
    # the count verify uses against the basis, the corner-free series
    # and the brute-force count
    for n in range(3, 13):
        series = hilbert_assoc(n, corner=False).coefficients(24)
        for d in range(25):
            count = dim_invariants_assoc(n, d)
            assert count == len(_invariant_rows_assoc(n, d)) == series[d], (n, d)
            assert count == _assoc_trace_count(n, d), (n, d)


def test_trace_count_comm_block():
    # the commutator-block part, the target of the two-sided module check,
    # against the tau-orbit images that have no u^a v^b part
    for n in range(3, 9):
        for d in range(19):
            images = _invariant_rows_assoc(n, d)
            expected = sum(1 for e in images if e.poly_part.is_zero())
            assert _comm_invariant_count(n, d) == expected, (n, d)


def test_assoc_checks_build_no_reynolds_basis(monkeypatch):
    # both associative targets come from the orbit-pair count: reynolds_assoc
    # sees the generators alone, and no invariant basis is built
    seen = []
    real = invariants.reynolds_assoc
    monkeypatch.setattr(
        invariants, "reynolds_assoc", lambda n, e: seen.append(e) or real(n, e)
    )
    before = _invariant_rows_assoc.cache_info()
    gens = invariant_generators_assoc(3)
    subalgebra_filtration(gens, 3, 10)
    module_span_check(comm_module_generators(3), "both", 3, 10)
    assert seen == gens + [MetAssocElem.from_comm(z) for z in comm_module_generators(3)]
    assert _invariant_rows_assoc.cache_info() == before


def test_lie_suite_builds_no_lie_basis():
    # the Lie target is the orbit-pair count; reynolds_lie sees the generator
    before = _invariant_rows_lie.cache_info()
    for n in (3, 5, 11):
        assert all(r.ok for r in lie_suite(n, 3 * n + 4))
    assert _invariant_rows_lie.cache_info() == before


def test_trace_count_assoc_validation():
    with pytest.raises(ValueError):
        dim_invariants_assoc(2, 4)
    with pytest.raises(ValueError):
        dim_invariants_assoc(3, -1)


@pytest.mark.parametrize(
    "check",
    [
        lambda n: subalgebra_filtration(invariant_generators_assoc(3), n),
        lambda n: module_span_check(comm_module_generators(3), "both", n),
        lambda n: module_span_check(cuv_module_generators(3), "left", n),
        lambda n: module_span_check([lie_module_generator(3)], "right", n),
        lie_suite,
        minimality_check,
        cst_sanity,
    ],
    ids=[
        "subalgebra_filtration",
        "module_span_check",
        "module_span_check-left",
        "module_span_check-right",
        "lie_suite",
        "minimality_check",
        "cst_sanity",
    ],
)
def test_checks_refuse_n_below_3(check):
    with pytest.raises(ValueError, match="need n >= 3"):
        check(2)


def test_trace_count_lie():
    # the count the Lie check uses against the brute-force count, the
    # basis and the series
    for n in range(3, 9):
        series = hilbert_lie(n).coefficients(40)
        for d in range(41):
            count = dim_invariants_lie(n, d)
            assert count == _lie_trace_count(n, d), (n, d)
            assert count == len(_invariant_rows_lie(n, d)) == series[d], (n, d)


def test_trace_count_lie_validation():
    with pytest.raises(ValueError):
        dim_invariants_lie(2, 4)
    with pytest.raises(ValueError):
        dim_invariants_lie(3, -1)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        invariant_basis_lie(3, -5)


def test_stated_series_overcounts_at_corner_degree():
    # the configured closed form exceeds the rank oracle by exactly the
    # redundant corner generator from degree 2n+2 on
    for n in (3, 4):
        d = 2 * n + 2
        stated = hilbert_assoc(n).coefficients(d)
        assert len(invariant_basis_assoc(n, d)) == stated[d] - 1


def test_corner_generator_relation():
    for n in (3, 4, 5):
        lhs, rhs = corner_generator_relation(n)
        assert lhs == rhs


def test_hilbert_assoc_minus_cuv_nonnegative_first_at_four():
    for n in (3, 4):
        a = hilbert_assoc(n).coefficients(10)
        c = hilbert_cuv(n).coefficients(10)
        diff = [x - y for x, y in zip(a, c)]
        assert all(x >= 0 for x in diff)
        assert diff[:4] == [0, 0, 0, 0] and diff[4] == 1


def test_generator_set_shape():
    for n in (3, 4):
        gens = invariant_generators_assoc(n)
        assert len(gens) == 2 * n + 3
        for g in gens:
            assert reynolds_assoc(n, g) == g
    degs = sorted(g.homogeneous_degree() for g in invariant_generators_assoc(3))
    assert degs == [2, 3, 4, 5, 5, 5, 5, 6, 8]


def test_mixed_generator_nu_image():
    # u^a [v,u] v^a - v^a [v,u] u^a has commutator coordinates
    # u1^a v2^a - v1^a u2^a
    n = 3
    one = CycNum.one(ambient_order(n))
    mixed = comm_module_generators(n)[n + 2]  # a = 1
    expect = CommPoly(
        {
            (0, 0, 1, 0, 0, 1): one,
            (0, 0, 0, 1, 1, 0): -one,
        }
    )
    assert mixed == expect


def test_subalgebra_filtration_three_way():
    reports = subalgebra_filtration(invariant_generators_assoc(3), 3, 8)
    dims = [r.dim_generated for r in reports]
    assert dims == [1, 0, 1, 1, 2, 5, 5, 11, 15]
    # generation always matches the Reynolds oracle
    assert all(r.dim_generated == r.dim_reynolds for r in reports)
    # the stated series only disagrees at the corner degree
    assert [r.degree for r in reports if not r.ok] == [8]


def _generator_sets(n: int) -> dict[str, list[MetAssocElem]]:
    """The standard set, cut and reordered; its degree-(n+2) module
    generators are entries 2..n+2."""
    gens = invariant_generators_assoc(n)
    return {
        "standard": gens,
        "without-one": gens[:3] + gens[4:],
        "without-two": gens[:2] + gens[3:n + 2] + gens[n + 3:],
        "module-only": gens[2:],
        "lifts-only": gens[:2],
        "reversed": gens[::-1],
    }


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize(
    "name", ["standard", "without-one", "without-two", "module-only", "lifts-only", "reversed"]
)
def test_subalgebra_filtration_matches_span_oracle(n, name):
    # the filtration skips the products a commutator times a commutator,
    # orders the generators and stops early; the oracle does none of it
    gens = _generator_sets(n)[name]
    d = 2 * n + 2
    reports = subalgebra_filtration(gens, n, d)
    assert [r.dim_generated for r in reports] == generated_dims_oracle(gens, n, d)
    if name == "without-two":
        assert reports[n + 2].dim_generated < reports[n + 2].dim_reynolds


def test_subalgebra_filtration_negative_control():
    gens = [
        from_word("uv") + from_word("vu"),
        from_word("uuu") + from_word("vvv"),
    ]
    reports = subalgebra_filtration(gens, 3, 6)
    first_bad = next(r for r in reports if not r.ok)
    assert first_bad.degree == 4
    assert first_bad.dim_generated == 1
    assert first_bad.dim_series == 2


def test_subalgebra_filtration_empty_gens():
    reports = subalgebra_filtration([], 3, 4)
    assert [r.dim_generated for r in reports] == [1, 0, 0, 0, 0]


def test_subalgebra_filtration_rejects_bad_generators():
    inhomogeneous = MetAssocElem.letter("u") + from_word("uu")
    with pytest.raises(ValueError):
        subalgebra_filtration([inhomogeneous], 3, 4)
    not_invariant = MetAssocElem.letter("u")
    # a generator above max_degree is validated as well
    for max_degree in (4, 0):
        with pytest.raises(ValueError, match="invariant"):
            subalgebra_filtration([not_invariant], 3, max_degree)


def test_subalgebra_filtration_rejects_non_rational_generators():
    order = ambient_order(3)
    lift = invariant_generators_assoc(3)[0]
    assert reynolds_assoc(3, lift.scale(imag_unit(order))) == lift.scale(imag_unit(order))
    for max_degree in (4, 1):
        with pytest.raises(ValueError, match="rational coefficients"):
            subalgebra_filtration([lift.scale(imag_unit(order))], 3, max_degree)


def test_module_span_check_cuv():
    for reports in (
        module_span_check(cuv_module_generators(3), "left", 3, 10),
        module_span_check(cuv_module_generators(4), "left", 4, 10),
    ):
        assert all(r.ok for r in reports)
        assert all(r.dim_reynolds == r.degree + 1 for r in reports)


def test_module_span_check_assoc_comm():
    reports = module_span_check(comm_module_generators(3), "both", 3, 10)
    # free through degree 2n+1, redundant corner from 2n+2 on
    assert [r.degree for r in reports if not r.ok] == [8, 10]
    for r in reports:
        assert r.dim_generated == r.dim_reynolds  # still spans everything
    gens = comm_module_generators(3)
    free = gens[:4] + gens[5:]
    assert all(r.ok for r in module_span_check(free, "both", 3, 10))


def test_module_span_check_lie():
    reports = module_span_check([lie_module_generator(4)], "right", 4, 12)
    assert all(r.ok for r in reports)


def test_module_span_check_validation():
    with pytest.raises(ValueError):
        module_span_check([lie_module_generator(3)], "middle", 3, 6)
    order4 = ambient_order(3)
    one = CycNum.one(order4)
    bad = CommPoly({uv(1, 0): one, uv(2, 0): one})
    with pytest.raises(ValueError):
        module_span_check([bad], "left", 3, 6)


def test_module_span_check_rejects_non_rational_generators():
    iu = CommPoly.term(uv(1, 0), imag_unit(ambient_order(3)))
    with pytest.raises(ValueError, match="rational"):
        module_span_check([iu], "left", 3, 4)


def test_module_span_check_rejects_non_rational_generators_past_a_full_span():
    # each set fills every degree before its last generator, whose rows
    # the early exit never inserts: the generator is refused up front
    n, i = 3, imag_unit(ambient_order(3))
    cases = {
        "left": cuv_module_generators(n),
        "right": [lie_module_generator(n)],
        "both": comm_module_generators(n),
    }
    for side, gens in cases.items():
        reports = module_span_check(gens, side, n, 10)
        assert all(r.dim_generated == r.dim_reynolds for r in reports)
        with pytest.raises(ValueError, match="rational"):
            module_span_check(gens + [gens[-1].scale(i)], side, n, 10)


def test_module_span_check_rejects_non_invariant_generators():
    # a rank comparison proves nothing about generators that are not
    # invariant: each set below reaches every rank, so each reported ok
    # before the generators were checked
    u4v4 = CommPoly({uv(4, 0): ONE, uv(0, 4): ONE})
    assert reynolds_lie(4, MetLieElem.from_comm(u4v4)) != MetLieElem.from_comm(u4v4)
    with pytest.raises(ValueError, match="invariant"):
        module_span_check([u4v4], "right", 4, 14)
    gens = comm_module_generators(3)
    free = gens[:4] + gens[5:]
    plus = CommPoly({(0, 0, 1, 0, 2, 0): ONE, (0, 0, 0, 1, 0, 2): ONE})
    assert free[1] == CommPoly({(0, 0, 1, 0, 2, 0): ONE, (0, 0, 0, 1, 0, 2): -ONE})
    bad = free[:1] + [plus] + free[2:]
    with pytest.raises(ValueError, match="invariant"):
        module_span_check(bad, "both", 3, 10)
    # a generator above max_degree is checked too
    with pytest.raises(ValueError, match="invariant"):
        module_span_check(free + [CommPoly.term((0, 0, 5, 0, 0, 0), ONE)], "both", 3, 4)
    with pytest.raises(ValueError, match="invariant"):
        module_span_check([lie_module_generator(4), u4v4], "right", 4, 3)


def test_lie_suite():
    for n in (3, 4):
        assert all(r.ok for r in lie_suite(n, 10))


# minimality_check(n) for n = 3, 4, 5 as the algebra-product filtration
# gave it: (decomposition, single removals, (dim_generated, dim_reynolds)
# of every double removal at degree n + 2).  No double removal reaches
# the invariant dimension, so no early exit fires and every product row
# of those runs is inserted.
MINIMALITY = {
    3: ([1, 2, 2, 1], (4, 5)),
    4: ([1, 2, 2, 2, 1], (9, 10)),
    5: ([1, 2, 2, 2, 2, 1], (6, 7)),
}


def test_minimality_check():
    for n, (decomposition, dims) in MINIMALITY.items():
        rep = minimality_check(n)
        assert [c.rational_value() for c in rep.decomposition] == decomposition
        assert rep.single_removal_ok == [True] * (n + 1)
        pairs = [(j, k) for j in range(n + 1) for k in range(j + 1, n + 1)]
        assert rep.double_removal_failures == [(p, *dims) for p in pairs]
        assert rep.double_removal_all_fail
        assert rep.ok


def test_decomposition_solves_the_linear_system():
    # independent check of the decomposition at degree n+2
    for n in range(3, 9):
        gens = invariant_generators_assoc(n)
        target = gens[0].commutator(gens[1])
        axis = comm_module_generators(n)[: n + 1]
        rebuilt = CommPoly.zero()
        rep = minimality_check(n)
        assert len(rep.decomposition) == n + 1
        for coeff, g in zip(rep.decomposition, axis):
            rebuilt = rebuilt + g.scale(coeff)
        assert MetAssocElem.from_comm(rebuilt) == target, n


def test_minimality_check_refuses_a_commutator_outside_the_span(monkeypatch):
    # with the a = 1 axis generator's sign changed the commutator of the
    # lifts is no combination of the axis generators, and no
    # decomposition is reported
    original = invariants.comm_module_generators

    def changed(n):
        gens = original(n)
        gens[1] = CommPoly({m: ONE for m in gens[1].terms})
        return gens

    monkeypatch.setattr(invariants, "comm_module_generators", changed)
    with pytest.raises(ArithmeticError, match="left the module span"):
        minimality_check(3)


def test_cst_sanity():
    for n in range(3, 9):
        rep = cst_sanity(n)
        assert rep.ok
        assert rep.degree_product == 2 * n == rep.group_order
        assert rep.reflection_count == n == rep.reflection_degree_sum


def test_reports_are_mutable_records():
    fields = dict(degree=4, dim_reynolds=3, dim_series=3, dim_generated=None, ok=True)
    report = DegreeReport(4, 3, 3, None, True)
    assert report == DegreeReport(**fields)
    assert report != DegreeReport(4, 3, 3, 3, True)
    assert report.as_dict() == {
        "d": 4, "dim_reynolds": 3, "dim_series": 3, "dim_generated": None, "ok": True,
    }
    assert repr(report) == (
        "DegreeReport(degree=4, dim_reynolds=3, dim_series=3, dim_generated=None, ok=True)"
    )
    report.ok = False
    assert not report.ok and report.as_dict()["ok"] is False
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(TypeError):
        DegreeReport(4, 3, 3, None)

    args = (3, [ONE, ONE], [True, True], [((0, 1), 4, 5)], True)
    minimality = MinimalityReport(*args)
    assert minimality == MinimalityReport(
        n=3, decomposition=[ONE, ONE], single_removal_ok=[True, True],
        double_removal_failures=[((0, 1), 4, 5)], double_removal_all_fail=True,
    )
    assert minimality.ok
    assert not MinimalityReport(3, [ONE, CycNum.zero(4)], *args[2:]).ok
    assert not MinimalityReport(*args[:2], [True, False], *args[3:]).ok
    assert not MinimalityReport(*args[:4], False).ok
    assert repr(minimality).startswith("MinimalityReport(n=3, decomposition=[")

    cst = CstReport(3, (2, 3), 6, 6, 3, 3, True)
    assert cst == CstReport(
        n=3, degrees=(2, 3), group_order=6, degree_product=6, reflection_count=3,
        reflection_degree_sum=3, fundamental_invariants_fixed=True,
    )
    assert cst == cst_sanity(3) and cst.ok
    assert not CstReport(3, (2, 3), 6, 5, 3, 3, True).ok
    assert not CstReport(3, (2, 3), 6, 6, 3, 2, True).ok
    assert not CstReport(3, (2, 3), 6, 6, 3, 3, False).ok
    assert cst != DegreeReport(4, 3, 3, None, True)
