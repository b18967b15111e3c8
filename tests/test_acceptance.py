"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

All arithmetic is exact, so every comparison is equality, tolerance zero.

Three criteria (1, 3 and the "both"-sided part of 4) compare against the
configured closed-form series that counts the degree-(2n+2) corner module
generator.  That generator satisfies the exact relation checked by
test_invariants.test_corner_generator_relation, so it is redundant and
the configured series exceeds the true invariant dimension from degree
2n+2 on.  Those assertions are kept as stated and fail honestly; the
companion assertions against the corner-free series pass at every
degree, as do all generation checks (span rank == Reynolds rank).
"""

import itertools
from random import Random

from metabelian.assoc import commutator, from_word
from metabelian.cyclo import ambient_order
from metabelian.dihedral import reynolds_assoc
from metabelian.expr import ExprSyntaxError, eval_assoc, parse, print_elem
from metabelian.invariants import (
    comm_module_generators,
    cst_sanity,
    cuv_module_generators,
    hilbert_assoc,
    hilbert_lie,
    invariant_basis_assoc,
    invariant_basis_lie,
    lie_module_generator,
    minimality_check,
    module_span_check,
    subalgebra_filtration,
    invariant_generators_assoc,
)
from helpers import random_assoc


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, f"{name}: {detail}"


def test_criterion_1_hilbert_reynolds_assoc():
    name = "criterion 1: associative ranks match the closed-form series (n=3..6, d<=12)"
    mismatches = []
    for n in (3, 4, 5, 6):
        series = hilbert_assoc(n).coefficients(12)
        for d in range(13):
            rank = len(invariant_basis_assoc(n, d))
            if rank != series[d]:
                mismatches.append(f"n={n} d={d}: rank {rank} != coeff {series[d]}")
    _report(name, not mismatches, "; ".join(mismatches))


def test_criterion_1_companion_corner_free_series():
    name = (
        "criterion 1 companion: ranks match the corner-free series everywhere"
    )
    ok = True
    detail = ""
    for n in (3, 4, 5, 6):
        series = hilbert_assoc(n, corner=False).coefficients(12)
        for d in range(13):
            if len(invariant_basis_assoc(n, d)) != series[d]:
                ok = False
                detail = f"n={n} d={d}"
    _report(name, ok, detail)


def test_criterion_2_hilbert_reynolds_lie():
    name = "criterion 2: Lie ranks match t^(n+2)/((1-t^2)(1-t^n)) (n=3..6, d<=14)"
    ok = True
    detail = ""
    for n in (3, 4, 5, 6):
        series = hilbert_lie(n).coefficients(14)
        ranks = [len(invariant_basis_lie(n, d)) for d in range(15)]
        if ranks != series:
            ok = False
            detail = f"n={n}: {ranks} vs {series}"
        first = next((d for d, r in enumerate(ranks) if r), None)
        if first != n + 2:
            ok = False
            detail = f"n={n}: first nonzero degree {first}"
    _report(name, ok, detail)


def test_criterion_3_generation():
    name = "criterion 3: filtration ok at every degree <= 2n+4 (n=3,4,5)"
    mismatches = []
    for n in (3, 4, 5):
        reports = subalgebra_filtration(invariant_generators_assoc(n), n, 2 * n + 4)
        for r in reports:
            if not r.ok:
                mismatches.append(
                    f"n={n} d={r.degree}: reynolds {r.dim_reynolds}, "
                    f"series {r.dim_series}, generated {r.dim_generated}"
                )
    _report(name, not mismatches, "; ".join(mismatches))


def test_criterion_3_companion_generation_matches_oracle():
    name = "criterion 3 companion: span rank equals Reynolds rank at every degree"
    ok = True
    detail = ""
    for n in (3, 4, 5):
        reports = subalgebra_filtration(invariant_generators_assoc(n), n, 2 * n + 4)
        for r in reports:
            if r.dim_generated != r.dim_reynolds:
                ok = False
                detail = f"n={n} d={r.degree}"
    _report(name, ok, detail)


def test_criterion_3_negative_control():
    name = "criterion 3: negative control {uv+vu, u^n+v^n} first fails at degree 4"
    ok = True
    detail = ""
    for n in (3, 4, 5):
        gens = [
            from_word("uv") + from_word("vu"),
            from_word("u" * n) + from_word("v" * n),
        ]
        reports = subalgebra_filtration(gens, n, 4)
        first = next((r.degree for r in reports if not r.ok), None)
        if first != 4:
            ok = False
            detail = f"n={n}: first failure at {first}"
    _report(name, ok, detail)


def test_criterion_4a_cuv_module():
    name = "criterion 4a: C[u,v] free over its invariants on 1,u..u^n,v..v^(n-1) (d<=12)"
    ok = True
    detail = ""
    for n in (3, 4):
        reports = module_span_check(cuv_module_generators(n), "left", n, 12)
        for r in reports:
            if not r.ok:
                ok = False
                detail = f"n={n} d={r.degree}"
    _report(name, ok, detail)


def test_criterion_4b_comm_module():
    name = "criterion 4b: commutator-ideal module free on the listed generators (d<=12)"
    mismatches = []
    for n in (3, 4):
        reports = module_span_check(comm_module_generators(n), "both", n, 12)
        for r in reports:
            if not r.ok:
                mismatches.append(
                    f"n={n} d={r.degree}: target {r.dim_reynolds}, "
                    f"predicted {r.dim_series}, achieved {r.dim_generated}"
                )
    _report(name, not mismatches, "; ".join(mismatches))


def test_criterion_4b_companion_corner_free_set_is_free():
    name = "criterion 4b companion: dropping the corner generator gives a free set"
    ok = True
    detail = ""
    for n in (3, 4):
        gens = comm_module_generators(n)
        free = gens[: n + 1] + gens[n + 2 :]
        for r in module_span_check(free, "both", n, 12):
            if not r.ok:
                ok = False
                detail = f"n={n} d={r.degree}"
    _report(name, ok, detail)


def test_criterion_4c_lie_module():
    name = "criterion 4c: Lie invariants free on the single generator (d<=12)"
    ok = True
    detail = ""
    for n in (3, 4):
        for r in module_span_check([lie_module_generator(n)], "right", n, 12):
            if not r.ok:
                ok = False
                detail = f"n={n} d={r.degree}"
    _report(name, ok, detail)


def test_criterion_5_minimality():
    name = "criterion 5: one degree-(n+2) generator is redundant, no two are (n=3,4)"
    ok = True
    detail = ""
    for n in (3, 4):
        rep = minimality_check(n)
        if not all(not c.is_zero() for c in rep.decomposition):
            ok = False
            detail = f"n={n}: zero coefficient in the decomposition"
        if not all(rep.single_removal_ok):
            ok = False
            detail = f"n={n}: generation lost after a single removal"
        if not rep.double_removal_all_fail:
            ok = False
            detail = f"n={n}: some pair removal kept full generation"
    _report(name, ok, detail)


def test_criterion_6_multiplication_oracle():
    name = "criterion 6: product matches word straightening on all pairs (|w1|+|w2|<=6)"
    ok = True
    detail = ""
    count = 0
    for total in range(7):
        for l1 in range(total + 1):
            for w1 in itertools.product("uv", repeat=l1):
                for w2 in itertools.product("uv", repeat=total - l1):
                    count += 1
                    a, b = "".join(w1), "".join(w2)
                    if from_word(a) * from_word(b) != from_word(a + b):
                        ok = False
                        detail = f"{a!r} * {b!r}"
    _report(f"{name} [{count} pairs]", ok, detail)


def test_criterion_6_randomized_laws():
    name = "criterion 6: associativity, metabelian law, Reynolds idempotence x1000"
    rng = Random(2024)
    ok = True
    detail = ""
    for _ in range(1000):
        e1 = random_assoc(rng, max_degree=4, terms=2)
        e2 = random_assoc(rng, max_degree=4, terms=2)
        e3 = random_assoc(rng, max_degree=4, terms=2)
        if (e1 * e2) * e3 != e1 * (e2 * e3):
            ok = False
            detail = "associativity"
            break
    for _ in range(1000):
        a = random_assoc(rng, max_degree=3, terms=2)
        b = random_assoc(rng, max_degree=3, terms=2)
        c = random_assoc(rng, max_degree=3, terms=2)
        d = random_assoc(rng, max_degree=3, terms=2)
        if not (commutator(a, b) * commutator(c, d)).is_zero():
            ok = False
            detail = "metabelian law"
            break
    for _ in range(1000):
        n = rng.choice((3, 4, 5))
        e = random_assoc(rng, order=ambient_order(n), max_degree=3, terms=2)
        r = reynolds_assoc(n, e)
        if reynolds_assoc(n, r) != r:
            ok = False
            detail = "Reynolds idempotence"
            break
    _report(name, ok, detail)


def test_criterion_7_cst_bookkeeping():
    name = "criterion 7: degree product and reflection count bookkeeping (n=3..8)"
    ok = True
    detail = ""
    for n in range(3, 9):
        rep = cst_sanity(n)
        if not rep.ok:
            ok = False
            detail = f"n={n}"
    _report(name, ok, detail)


def test_criterion_8_parser_round_trip_and_fuzz():
    name = "criterion 8: 1000 round trips at degree <= 8, fuzzing never crashes"
    rng = Random(4242)
    ok = True
    detail = ""
    for k in range(1000):
        e = random_assoc(rng, order=4, max_degree=8, terms=4)
        basis = "xy" if k % 5 == 0 else "uv"
        text = print_elem(e, basis)
        if eval_assoc(parse(text)) != e:
            ok = False
            detail = f"round trip #{k} via {basis}: {text}"
            break
    alphabet = "uvxyi0123456789+-*/^()[], "
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
        try:
            parse(text)
        except ExprSyntaxError as err:
            if not (0 <= err.offset <= len(text) and err.expected):
                ok = False
                detail = f"bad error object for {text!r}"
                break
        except Exception as exc:  # noqa: BLE001 - the content of the check
            ok = False
            detail = f"{type(exc).__name__} on {text!r}"
            break
    _report(name, ok, detail)
