"""Mutation check of the test suite: break the code on purpose, one
change at a time, and see a selected test fail.

Each mutant is (name, file under ``src/metabelian``, exact text,
replacement, tests).  For each one the script copies ``src/`` and
``tests/`` to a temporary directory, replaces the text, which must occur
exactly once, and runs the named tests there with pytest (the copied
``conftest.py`` puts the copied ``src/`` first on the path).  A mutant is

* killed when a test fails (or the run outlasts ``TIMEOUT_S``),
* survived when every test passes,
* an error when its text does not occur exactly once (the code it names
  has changed: update the mutant, or replace it with an equivalent) or
  pytest stops for another reason, such as a collection error.

The unmutated copy runs every named test first; if that fails, no mutant
is run.  The exit status is 0 only when every mutant is killed.

    python tests/mutants.py

The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


_INV = "tests/test_invariants.py::"
MUTANTS = [
    # the orbit-pair enumeration behind every invariant basis and count
    Mutant("orbit-pairs-congruence", "invariants.py",
           "(2 * p - e) % n == 0", "(2 * p - e) % n < 2",
           (_INV + "test_trace_count_assoc", _INV + "test_trace_count_lie")),
    Mutant("orbit-tau-word-swapped", "invariants.py",
           "_swap_straighten(p, q)", "_swap_straighten(q, p)",
           (_INV + "test_bases_equal_the_reynolds_orbit_oracle",)),
    Mutant("orbit-halving-dropped", "invariants.py",
           "row if p > q else row.scale(Fraction(1, 2))", "row",
           (_INV + "test_bases_equal_the_reynolds_orbit_oracle",)),
    Mutant("orbit-swap-fixed-kept", "invariants.py",
           "swap(m) < m", "swap(m) <= m",
           (_INV + "test_bases_equal_the_reynolds_orbit_oracle",)),
    Mutant("comm-count-diagonal", "invariants.py",
           "p * (p + 1) // 2", "(p + 1) * (p + 2) // 2",
           (_INV + "test_trace_count_assoc", _INV + "test_trace_count_comm_block")),
    # the subalgebra products: commutator-block generators see the word
    # parts of the pivots led by a word column
    Mutant("word-part-unit-dropped", "invariants.py",
           "j <= 0", "j < 0",
           (_INV + "test_subalgebra_filtration_matches_span_oracle",)),
    Mutant("word-lead-unit-dropped", "invariants.py",
           "lead <= 0", "lead < 0",
           (_INV + "test_subalgebra_filtration_matches_span_oracle",)),
    Mutant("lifts-fed-word-parts", "invariants.py",
           "echelons[k].pivots().values() if poly_terms else words[k]", "words[k]",
           (_INV + "test_subalgebra_filtration_matches_span_oracle",)),
    # one generator check: every generator is refused up front, also one
    # whose rows the early exit never inserts
    Mutant("graded-rationality-dropped", "invariants.py",
           'raise ValueError("generators must have rational coefficients")',
           "cleared = ({}, 1)",
           (_INV + "test_module_span_check_rejects_non_rational_generators_past_a_full_span",)),
    # the decomposition read off the axis generators' supports is rebuilt
    Mutant("minimality-rebuild-inverted", "invariants.py",
           "MetAssocElem.from_comm(rebuilt) != target", "MetAssocElem.from_comm(rebuilt) == target",
           (_INV + "test_minimality_check",)),
    # the sparse reduction modulo Phi_m
    Mutant("reduce-phi-coefficient", "cyclo.py",
           "-c * phi[j]", "-c",
           ("tests/test_cyclo.py",)),
    Mutant("reduce-skipped-in-product", "cyclo.py",
           "_lowest(_reduce(order, out), a.den * b.den)", "_lowest(out, a.den * b.den)",
           ("tests/test_cyclo.py",)),
    # int numerators over one denominator, in lowest terms
    Mutant("lowest-terms-skipped", "cyclo.py",
           "*_lowest(_reduce(order, out), a.den * b.den)", "_reduce(order, out), a.den * b.den",
           ("tests/test_cyclo.py::test_every_operation_keeps_the_canonical_form",)),
    # one path per operation: a scalar factor is coerced to a CycNum, an
    # element product hands a scalar to __rmul__, and one power routine
    Mutant("coerce-denominator-dropped", "cyclo.py",
           "num, other.denominator)", "num, 1)",
           ("tests/test_assoc.py::test_scalars_act_the_same_on_either_side",)),
    Mutant("power-top-bit-kept", "cyclo.py",
           "bin(k)[3:]", "bin(k)[2:]",
           ("tests/test_cyclo.py::test_power_is_the_repeated_product",
            "tests/test_assoc.py::test_power_is_the_repeated_product")),
    Mutant("scalar-product-refused", "assoc.py",
           "return self.__rmul__(other)", "return NotImplemented",
           ("tests/test_assoc.py::test_scalars_act_the_same_on_either_side",)),
    # the printer reads a + b*i as ints over a positive denominator
    Mutant("gaussian-denominator-sign", "cyclo.py",
           "if iu[e] > 0 else (-num[e], -iu[e])", "if True else (-num[e], -iu[e])",
           ("tests/test_expr.py::test_gaussian_coefficients_print_in_lowest_terms",)),
    Mutant("rational-row-unreduced", "linalg.py",
           "g = gcd(v, den)", "g = 1",
           ("tests/test_cyclo.py::test_echelon_entries_keep_the_canonical_form",)),
    # the one-pass algebra product
    Mutant("product-right-shift-dropped", "assoc.py",
           "accumulate(comm, (0, 0, a1, b1, c1 + c, d1 + d), x * y)", "pass",
           ("tests/test_assoc.py",)),
    Mutant("product-cross-exponent", "assoc.py",
           "c - 1 - i, b - 1 - j + d", "c - i, b - 1 - j + d",
           ("tests/test_assoc.py",)),
    # the row columns of verify assoc and their right-multiplication images
    Mutant("column-digit-order", "assoc.py",
           "return -(mono[0] * base + mono[1])", "return -(mono[1] * base + mono[0])",
           ("tests/test_assoc.py",)),
    Mutant("word-times-cross-step", "assoc.py",
           "head - j * step", "head - j",
           ("tests/test_assoc.py",)),
    # the Reynolds projection (P0 + tau P0) / 2
    Mutant("reynolds-half-dropped", "dihedral.py",
           ".scale(Fraction(1, 2))", ".scale(Fraction(1))",
           ("tests/test_dihedral.py",)),
    Mutant("reynolds-weight-unreduced", "dihedral.py",
           "not rotation_weight(m) % n", "not rotation_weight(m)",
           ("tests/test_dihedral.py",)),
    # tau on a word is the swapped word plus its straightening's
    # commutator part, and tau negates [v,u]
    Mutant("tau-commutator-sign", "dihedral.py",
           "{swap(m): -c", "{swap(m): c",
           ("tests/test_dihedral.py::test_action_examples",
            "tests/test_dihedral.py::test_action_respects_multiplication")),
    Mutant("tau-straightening-dropped", "dihedral.py",
           "accumulate(comm_out, m2, c * c2)", "pass",
           ("tests/test_dihedral.py::test_action_examples",
            "tests/test_dihedral.py::test_action_respects_multiplication")),
    # the plain record types: a node equals a node of its own type only,
    # and a group element stores its rotation mod n
    Mutant("node-equality-ignores-type", "expr.py",
           "type(other) is type(self) and tuple.__eq__(self, other)", "tuple.__eq__(self, other)",
           ("tests/test_expr.py::test_nodes_are_frozen_records_of_their_type",)),
    Mutant("dihedral-rotation-unreduced", "dihedral.py",
           '("rot", rot % n)', '("rot", rot)',
           ("tests/test_dihedral.py::test_dihedral_element_is_a_frozen_record",)),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(where: Path, tests) -> int | None:
    """pytest's exit status on ``tests`` in ``where``, None on timeout."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(where / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(
            cmd, cwd=where, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def run_mutant(m: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        where = Path(tmp)
        _copy(where)
        target = where / "src" / "metabelian" / m.path
        text = target.read_text()
        found = text.count(m.old)
        if found != 1:
            return f"error (text found {found} times)"
        target.write_text(text.replace(m.old, m.new))
        status = _pytest(where, m.tests)
    if status is None:
        return "killed (timeout)"
    return {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")


def main() -> int:
    tests = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy(Path(tmp))
        if _pytest(Path(tmp), tests) != 0:
            print("the unmutated copy fails the selected tests; no mutant run")
            return 1
    killed = 0
    for m in MUTANTS:
        start = time.perf_counter()
        result = run_mutant(m)
        killed += result.startswith("killed")
        print(f"{m.name:30} {result:28} {time.perf_counter() - start:6.1f} s", flush=True)
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
