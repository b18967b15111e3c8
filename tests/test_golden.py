"""Replay of committed command outputs, byte for byte.

``tests/data/verify_<target>_n<n>.json`` holds the stdout of
``metabelian verify <target> --n <n> --json`` as it was before the
invariant bases were rebuilt from tau-orbit sums, and
``verify_assoc_n3_d20.json`` that of ``verify assoc --n 3 --max-deg 20
--json`` as it was before rational rows were eliminated over the
integers: its 2043 product rows are deep enough for pivot growth to
show, which degree 12 is not.  ``verify_assoc_n7_d22.json`` holds that
of ``verify assoc --n 7 --max-deg 22 --json`` as it was before product
rows were built from integer right-multiplication maps: its generators
reach degree 2n + 2 = 16 and its coefficients live in Q(zeta_28).
``verify_assoc_n24.json`` holds that of ``verify assoc --n 24 --json``
as it was before the invariant dimension became a trace count: the
larger-n case, its corner degree 2n + 2 = 50.
``verify_assoc_n3_d32.json`` and ``verify_assoc_n7_d32.json`` hold those
of ``verify assoc --n 3 --max-deg 32 --json`` and ``--n 7 --max-deg 32``
as they were before the commutator-block generators' products were taken
first and from the word parts of the span only: degree 32 is ROADMAP
item 1's deep regime, well past the default degree 2n + 4.
``verify_lie_n7_d80.json`` and ``verify_cuv-module_n7_d80.json`` hold
those of ``verify lie --n 7 --max-deg 80 --json`` and ``verify
cuv-module --n 7 --max-deg 80 --json`` as they were before elimination
became integer-only and ``lie_suite`` became the right-module check.
``tests/data/canon.json`` holds argv, exit code and stdout of ``canon``
and ``reynolds`` in both bases, as they were before the x,y rewrite
became one linear substitution: the README examples, u,v text, x,y
text, mixed text and two syntax errors.  ``tests/data/lie_print.json``
holds ``print_elem`` in both bases, and ``to_xy`` printed, of seeded
``random_lie`` elements at orders 4 and 12, as they were before the Lie
element took the two-block layout of the associative one.  Any change in an output, its
key order or its exit code shows up here, not only a change between two
runs of the same code.
"""

import json
from pathlib import Path
from random import Random

import pytest

from metabelian import cli
from metabelian.expr import print_elem, to_xy
from helpers import random_cyc, random_gaussian, random_lie

DATA = Path(__file__).resolve().parent / "data"

# (target, n, exit code): verify assoc exits 1 because the configured
# series counts the redundant corner generator at degree 2n + 2
GOLDEN = [
    ("assoc", 3, 1),
    ("assoc", 4, 1),
    ("lie", 3, 0),
    ("lie", 4, 0),
    ("cuv-module", 3, 0),
    ("cuv-module", 4, 0),
    ("cst", 3, 0),
    ("cst", 4, 0),
]


@pytest.mark.parametrize("target,n,code", GOLDEN)
def test_verify_report_matches_golden(capsys, target, n, code):
    assert cli.main(["verify", target, "--n", str(n), "--json"]) == code
    expected = (DATA / f"verify_{target}_n{n}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_deep_assoc_report_matches_golden(capsys):
    argv = ["verify", "assoc", "--n", "3", "--max-deg", "20", "--json"]
    assert cli.main(argv) == 1
    expected = (DATA / "verify_assoc_n3_d20.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_large_n_assoc_report_matches_golden(capsys):
    argv = ["verify", "assoc", "--n", "7", "--max-deg", "22", "--json"]
    assert cli.main(argv) == 1
    expected = (DATA / "verify_assoc_n7_d22.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("n", [3, 7])
def test_d32_assoc_report_matches_golden(capsys, n):
    argv = ["verify", "assoc", "--n", str(n), "--max-deg", "32", "--json"]
    assert cli.main(argv) == 1
    expected = (DATA / f"verify_assoc_n{n}_d32.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_n24_assoc_report_matches_golden(capsys):
    argv = ["verify", "assoc", "--n", "24", "--json"]
    assert cli.main(argv) == 1
    out = capsys.readouterr().out
    assert out == (DATA / "verify_assoc_n24.json").read_text(encoding="utf-8")
    assert json.loads(out)["first_failing_degree"] == 50


@pytest.mark.parametrize("target", ["lie", "cuv-module"])
def test_deep_module_report_matches_golden(capsys, target):
    argv = ["verify", target, "--n", "7", "--max-deg", "80", "--json"]
    assert cli.main(argv) == 0
    expected = (DATA / f"verify_{target}_n7_d80.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


CANON = json.loads((DATA / "canon.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "case", CANON, ids=[f"{k:02d}-{c['argv'][0]}" for k, c in enumerate(CANON)]
)
def test_canon_output_matches_golden(capsys, case):
    assert cli.main(case["argv"]) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def _lie_print_cases() -> list[dict]:
    """30 seeded Lie elements over Q(i) at order 4 and 30 with
    zeta-power coefficients at order 12, each printed three ways."""
    rng = Random(1818)
    cases = []
    for order, coeff in ((4, random_gaussian), (12, random_cyc)):
        for _ in range(30):
            e = random_lie(rng, order=order, max_degree=6, coeff=coeff)
            cases.append({
                "order": order,
                "uv": print_elem(e),
                "xy": print_elem(e, "xy"),
                "to_xy": print_elem(to_xy(e)),
            })
    return cases


def test_lie_print_matches_golden():
    expected = json.loads((DATA / "lie_print.json").read_text(encoding="utf-8"))
    assert _lie_print_cases() == expected
