"""Every function in ``src/metabelian`` serves a command or a listed reason.

One child interpreter installs ``sys.setprofile`` before it imports
``metabelian.cli`` (so module-level calls, such as ``CycNum.one(1)`` for
``poly.ONE``, count), runs ``cli.main`` on the argv lists of ``RUNS``, which reach every
command and branch, and reports the (module, first line) of every code
object of the package that was called.  Each ``def`` in the package
(function, method, nested def, property) is keyed by its first line,
which is its first decorator's line for a decorated def, as
``co_firstlineno`` has it.  Dunder methods are exempt: the interpreter
calls them by protocol.

A def that no command reaches must be a key of ``LIBRARY_API`` with one
of the ``REASONS``, and every key must name one existing def that no
command reaches, so the list cannot go stale.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

PKG = SRC / "metabelian"

REASONS = {
    "bench": "read or wrapped by name by the benchmark's tracer (bench/tracer.py)",
    "claim": "checks a claim of the README that no command runs",
    "basis": "an explicit basis, the element-by-element counterpart of a count",
    "rotation": "a group or field operation that only a rotation rho^k (k != 0 mod n), "
    "a coefficient outside Q(i) or the average over all 2n group elements needs",
    "lie": "Lie algebra structure beyond the module check of u^n - v^n",
    "element": "a blockwise operation of the element API",
}

LIBRARY_API = {
    "cyclo.CycNum.coeffs": "bench",
    "cyclo.CycNum.inv": "bench",
    "linalg.RowEchelon.rows": "bench",
    "dihedral.rotation_scalar": "bench",
    "invariants._invariant_rows_assoc": "bench",
    "invariants._invariant_rows_lie": "bench",
    "lie.MetLieElem.bracket": "bench",
    "lie.MetLieElem.module_action": "bench",
    # the minimal generating set, the corner relation and the two-sided
    # module check (tests/test_invariants.py)
    "invariants.minimality_check": "claim",
    "invariants.MinimalityReport.ok": "claim",
    "invariants.corner_generator_relation": "claim",
    "invariants._tensor_invariant_polys": "claim",
    "invariants.module_span_check.assoc_invariant": "claim",
    "invariants.invariant_basis_assoc": "basis",
    "invariants.invariant_basis_lie": "basis",
    "invariants._swap_differences": "basis",
    "assoc.basis": "basis",
    "assoc.basis_monomials": "basis",
    "assoc.uv_monomials": "basis",
    "cyclo.CycNum._galois": "rotation",
    "cyclo.CycNum.conj": "rotation",
    "cyclo.CycNum.from_rational": "rotation",
    "cyclo.CycNum.rational_value": "rotation",
    "cyclo._signed_part": "rotation",
    "cyclo.ambient_order": "rotation",
    "cyclo.euler_phi": "rotation",
    "dihedral.DihedralElement._key": "rotation",
    "dihedral.DihedralElement.inverse": "rotation",
    "dihedral.group_elements": "rotation",
    "lie.MetLieElem.generator": "lie",
    "lie.MetLieElem.linear_image": "lie",
    "lie.bracket": "lie",
    "lie.embed_assoc": "lie",
    "expr._lie_word": "lie",
    "assoc.commutator": "element",
    "assoc.MetElem.zero": "element",
    "assoc.MetElem.degree": "element",
    "assoc.MetElem.homogeneous_component": "element",
    "poly.CommPoly.degree": "element",
    "poly.CommPoly.homogeneous_component": "element",
}

_TEXTS = ("(v*u - 2/3*[u,v])^2 + i*u", "x*y - [x,y] + 1/2*i*y^2", "x*u + [y,v]", "-u*v")
# (exit code, argv): u,v, x,y, mixed and leading-minus texts in both
# bases, every verify target as text and as JSON (verify assoc exits 1
# at degree 2n+2, see the README), every series, a syntax error and an
# INT literal past sys.get_int_max_str_digits()
RUNS = [
    *((0, ["canon", "--basis", basis, text]) for basis in ("uv", "xy") for text in _TEXTS),
    *((0, ["reynolds", "--n", "3", "--basis", basis, "u*v + i*u^3"]) for basis in ("uv", "xy")),
    *(
        (int(target == "assoc"), ["verify", target, "--n", "3", "--max-deg", "9", *flag])
        for target in ("assoc", "lie", "cuv-module")
        for flag in ((), ("--json",))
    ),
    *((0, ["verify", "cst", "--n", "3", *flag]) for flag in ((), ("--json",))),
    *((0, ["hilbert", which, "--n", "3"]) for which in ("assoc", "lie", "cuv")),
    (2, ["canon", "v**u"]),
    (2, ["canon", "7" * 5000]),
]

_CHILD = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
pkg, argvs = sys.argv[1], json.loads(sys.argv[2])
seen = set()
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(pkg):
        seen.add((code.co_filename, code.co_firstlineno))
sys.setprofile(profile)
from metabelian import cli
codes = []
for argv in argvs:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "calls": sorted(seen)}))
"""


def _defs() -> dict[str, list[tuple[str, int]]]:
    """{qualified name: [(module, first line), ...]} of every def in the
    package but the dunder methods; a name has two entries when two defs
    share it."""
    out = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out.setdefault(name, []).append((module, line))
                walk(child, module, name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")
            else:
                walk(child, module, prefix)

    for path in sorted(PKG.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.stem + ".")
    return out


@pytest.fixture(scope="module")
def reached() -> set[tuple[str, int]]:
    """(module, first line) of every package function the commands call."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(PKG) + os.sep, json.dumps([argv for _, argv in RUNS])],
        capture_output=True, text=True, env=env, timeout=60, stdin=subprocess.DEVNULL,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [code for code, _ in RUNS]
    return {(Path(f).stem, line) for f, line in out["calls"]}


def _unreached(reached) -> set[str]:
    # a shared name counts as reached only when every def of it is
    return {name for name, where in _defs().items() if not set(where) <= reached}


def test_every_def_serves_a_command_or_a_listed_reason(reached):
    unlisted = sorted(_unreached(reached) - LIBRARY_API.keys())
    assert not unlisted, f"no command reaches these and LIBRARY_API does not list them: {unlisted}"


def test_library_api_lists_only_unreached_defs(reached):
    defs = _defs()
    assert not [name for name in LIBRARY_API if name not in defs], "listed but not defined"
    assert not [name for name, where in defs.items() if len(where) > 1], "two defs share a name"
    assert not sorted(LIBRARY_API.keys() - _unreached(reached)), "listed but a command reaches it"
    assert set(LIBRARY_API.values()) <= REASONS.keys()
