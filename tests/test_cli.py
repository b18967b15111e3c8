import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

from conftest import SRC
from metabelian import assoc, cli, dihedral, expr, invariants
from metabelian.assoc import MetAssocElem
from metabelian.cyclo import CycNum
from metabelian.expr import MAX_NESTING, eval_assoc, parse, print_elem
from metabelian.invariants import DegreeReport
from helpers import eval_with_leaves, random_assoc

DATA = Path(__file__).resolve().parent / "data"


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_canon(capsys):
    code, out, _ = _run(capsys, "canon", "v*u")
    assert code == 0
    assert out.strip() == "u*v + [v,u]"


def test_canon_metabelian_square(capsys):
    code, out, _ = _run(capsys, "canon", "[u,v]*[u,v]")
    assert code == 0
    assert out.strip() == "0"


def test_canon_xy_round_trip(capsys):
    code, out, _ = _run(capsys, "canon", "--basis", "xy", "u*v+v*u")
    assert code == 0
    assert eval_assoc(parse(out.strip())) == eval_assoc(parse("u*v+v*u"))


def test_canon_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("v*u"))
    code, out, _ = _run(capsys, "canon")
    assert code == 0
    assert out.strip() == "u*v + [v,u]"


def test_canon_parse_error_exit_2(capsys):
    code, _, err = _run(capsys, "canon", "v**u")
    assert code == 2
    assert "syntax error" in err


@pytest.mark.parametrize("text", ["²", "٣*u", "u^²"])
def test_non_ascii_digits_are_syntax_errors(capsys, text):
    # INT is ASCII 0-9: other digits neither crash int() nor read as numbers
    code, out, err = _run(capsys, "canon", text)
    assert code == 2 and out == ""
    assert "syntax error" in err


_DIGITS = "0123456789"
_GRAMMAR = "uvxyi+-*^()[],/ " + _DIGITS
# non-ASCII digits and letters, whitespace and control characters
_FOREIGN = "²٣५١éßΩ\t\n\r\x00\x1b\x7f\u3000"


def _fuzz_text(rng: Random) -> str:
    """Up to 8 characters, mostly from the grammar, with no two digits in
    a row, so that every number, and so every exponent, is one digit."""
    out = []
    for _ in range(rng.randint(0, 8)):
        ch = rng.choice(_GRAMMAR if rng.random() < 0.85 else _FOREIGN)
        while ch in _DIGITS and out and out[-1] in _DIGITS:
            ch = rng.choice(_GRAMMAR)
        out.append(ch)
    return "".join(out)


@pytest.mark.parametrize("command", [("canon",), ("reynolds", "--n", "3")])
def test_cli_fuzz_exits_0_or_2(capsys, monkeypatch, command):
    # an empty text, or "--", reads the expression from stdin
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    rng = Random(20261018)
    for _ in range(400):
        text = _fuzz_text(rng)
        try:
            code = cli.main([*command, text])
        except SystemExit as exc:  # argparse's own usage exits
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 2), (text, err)
        assert "Traceback" not in err


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 900, 3000])
@pytest.mark.parametrize("brackets", ["()", "[]"])
def test_canon_deep_nesting_exit_2(depth, brackets):
    if brackets == "()":
        text = "(" * depth + "u" + ")" * depth
    else:
        text = "[u," * depth + "v" + "]" * depth
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "metabelian.cli", "canon", text],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert f"nesting depth at most {MAX_NESTING}" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_import_loads_no_dataclasses():
    # every check runs in a fresh interpreter, so the import is part of
    # its cost; dataclasses alone would pull in inspect and ast
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = (
        "import sys, metabelian.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("op,expected", [("+", "3000*u"), ("*", "u^3000")])
def test_canon_long_flat_chain(op, expected):
    # a flat chain has nesting depth 0 but parses into a left-nested tree
    # 3000 levels deep, past Python's recursion limit
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "metabelian.cli", "canon", op.join(["u"] * 3000)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == expected
    assert "Traceback" not in proc.stderr


def test_canon_nesting_at_the_limit(capsys):
    depth = MAX_NESTING
    code, out, _ = _run(capsys, "canon", "(" * depth + "v*u" + ")" * depth)
    assert code == 0
    assert out.strip() == "u*v + [v,u]"
    code, out, _ = _run(capsys, "canon", "[u," * depth + "v" + "]" * depth)
    assert code == 0
    assert "[v,u]" in out


def test_reynolds(capsys):
    code, out, _ = _run(capsys, "reynolds", "--n", "3", "u*v")
    assert code == 0
    assert out.strip() == "u*v + 1/2*[v,u]"
    code, out, _ = _run(capsys, "reynolds", "--n", "4", "u")
    assert code == 0
    assert out.strip() == "0"
    code, out, _ = _run(capsys, "reynolds", "--n", "3", "u^3")
    assert code == 0
    assert out.strip() == "1/2*u^3 + 1/2*v^3"


@pytest.mark.parametrize(
    "argv",
    [
        ("canon", "{}"),
        ("canon", "--basis", "xy", "{}"),
        ("canon", "{}", "--basis", "xy"),
        ("reynolds", "--n", "3", "{}"),
        ("reynolds", "{}", "--n", "3", "--basis", "xy"),
    ],
)
@pytest.mark.parametrize("text", ["-u", "-u*v", "-1/2*[u,v] + v"])
def test_expression_with_leading_minus(capsys, monkeypatch, argv, text):
    import io

    options = [a for a in argv if a != "{}"]
    expected = _run(capsys, *options, "--", text)
    assert expected[0] == 0
    assert _run(capsys, *(text if a == "{}" else a for a in argv)) == expected
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert _run(capsys, *options) == expected


def test_leading_minus_keeps_options_and_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["canon", "-h"])
    assert exc.value.code == 0
    assert "--basis" in capsys.readouterr().out
    for argv in (["canon", "u", "-v"], ["canon", "-u", "-v"], ["verify", "assoc", "--n", "3", "-u"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "assoc", "--n", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["nonsense"])
    assert exc.value.code == 2
    for argv in (
        ["verify", "lie", "--n", "3", "--max-deg", "-1"],
        ["hilbert", "cuv", "--n", "3", "--max-deg", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "--max-deg: must be nonnegative" in capsys.readouterr().err
    # a non-integer is named by its option, not by the converter function
    for argv, option in (
        (["verify", "lie", "--n", "abc"], "--n"),
        (["verify", "lie", "--n", "3", "--max-deg", "x"], "--max-deg"),
        (["hilbert", "cuv", "--n", "7.5"], "--n"),
        (["reynolds", "u", "--n", ""], "--n"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: must be an integer, not " in err
        assert "_n_arg" not in err and "_max_deg_arg" not in err


def test_hilbert(capsys):
    code, out, _ = _run(capsys, "hilbert", "assoc", "--n", "3", "--max-deg", "8")
    assert code == 0
    assert json.loads(out) == [1, 0, 1, 1, 2, 5, 5, 11, 16]
    code, out, _ = _run(capsys, "hilbert", "lie", "--n", "3", "--max-deg", "9")
    assert json.loads(out) == [0, 0, 0, 0, 0, 1, 0, 1, 1, 1]
    code, out, _ = _run(capsys, "hilbert", "cuv", "--n", "3", "--max-deg", "6")
    assert json.loads(out) == [1, 0, 1, 1, 1, 1, 2]


def test_verify_lie_json_schema(capsys):
    code, out, _ = _run(capsys, "verify", "lie", "--n", "3", "--max-deg", "8", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["command"] == "verify lie"
    assert payload["ok"] is True
    assert payload["first_failing_degree"] is None
    assert [d["d"] for d in payload["degrees"]] == list(range(9))
    for entry in payload["degrees"]:
        assert set(entry) == {"d", "dim_reynolds", "dim_series", "dim_generated", "ok"}


def test_verify_json_deterministic(capsys):
    _, out1, _ = _run(capsys, "verify", "lie", "--n", "3", "--max-deg", "6", "--json")
    _, out2, _ = _run(capsys, "verify", "lie", "--n", "3", "--max-deg", "6", "--json")
    assert out1 == out2


def test_verify_assoc_small_degrees(capsys):
    code, out, _ = _run(
        capsys, "verify", "assoc", "--n", "3", "--max-deg", "7", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert [d["dim_generated"] for d in payload["degrees"]] == [1, 0, 1, 1, 2, 5, 5, 11]


def test_verify_assoc_detects_series_overcount(capsys):
    # at degree 2n+2 the configured series exceeds the Reynolds rank, so
    # the verifier reports the first failing degree and exits 1
    code, out, _ = _run(
        capsys, "verify", "assoc", "--n", "3", "--max-deg", "8", "--json"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["first_failing_degree"] == 8
    top = payload["degrees"][8]
    assert top["dim_reynolds"] == top["dim_generated"] == 15
    assert top["dim_series"] == 16


def test_verify_cst(capsys):
    code, out, _ = _run(capsys, "verify", "cst", "--n", "5")
    assert code == 0
    assert "ok" in out
    code, out, _ = _run(capsys, "verify", "cst", "--n", "5", "--json")
    payload = json.loads(out)
    assert payload["ok"] is True and payload["degrees"] == []


def _run_capped(*argv, cap=1 << 30):
    """The CLI in a child process limited to ``cap`` bytes (1 GiB by
    default) of address space; the limit applies to the child alone."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "metabelian.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )


def test_verify_cst_huge_n_is_bounded():
    # the Reynolds projection applies tau alone, so n = 10^8 needs
    # neither the group list nor a root of unity nor more than 1 GiB
    proc = _run_capped("verify", "cst", "--n", "100000000", "--json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["ok"] is True


def test_verify_assoc_large_n_is_bounded():
    # generators above --max-deg are validated but build no rows, so the
    # degree-(2n+2) corner generator's basis is never enumerated
    proc = _run_capped("verify", "assoc", "--n", "150", "--max-deg", "6", "--json")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True and len(payload["degrees"]) == 7


def test_verify_assoc_n24_fits_in_64_mib():
    # columns are computed from the words' exponents, so memory follows
    # the rows kept, not the 316k basis words of degree <= 52
    proc = _run_capped("verify", "assoc", "--n", "24", "--json", cap=64 << 20)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == (DATA / "verify_assoc_n24.json").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "which,expected", [("cuv", [1, 0, 1, 0]), ("lie", [0, 0, 0, 0]), ("assoc", [1, 0, 1, 0])]
)
def test_hilbert_huge_n_is_sparse(which, expected):
    # a factor 1 - t^n is two terms, and the expansion to degree 3
    # reads no denominator term past t^3
    proc = _run_capped("hilbert", which, "--n", "100000000", "--max-deg", "3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == expected


@pytest.mark.parametrize("template,offset", [("{}*u", 0), ("u^{}", 2), ("u*1/{}", 4)])
def test_overlong_integer_literal_exit_2(template, offset):
    # int() refuses more than sys.get_int_max_str_digits() (4300) digits
    proc = _run_capped("canon", template.format("7" * 5000))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: syntax error at offset {offset}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("text", ["9^9999", "1/9^9999*u", "10^4300"])
def test_overlong_result_coefficient_exit_2(text):
    # the result has a coefficient of more than
    # sys.get_int_max_str_digits() (4300) digits, which str() refuses
    proc = _run_capped("canon", text)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: a number in the result has more than 4300 digits, "
        "the limit of sys.get_int_max_str_digits()\n"
    )


def test_result_coefficient_at_the_digit_limit(capsys):
    code, out, _ = _run(capsys, "canon", "10^4300 - 1")
    assert code == 0 and out == "9" * 4300 + "\n"


def test_no_field_without_a_rotation(capsys, monkeypatch):
    # the README claim: a field Q(zeta_m) appears only under a caller's
    # rotation, so no command reaches the one field builder in dihedral
    def no_field(n, j):
        raise AssertionError(f"rotation_scalar({n}, {j}) was called")

    monkeypatch.setattr(dihedral, "rotation_scalar", no_field)
    # bases cached by earlier tests would hide a call
    for cached in (
        invariants._invariant_rows_lie,
        invariants._cuv_invariant_polys,
        invariants._tensor_invariant_polys,
    ):
        cached.cache_clear()
    cases = [
        (1, "verify", "assoc", "--n", "3", "--max-deg", "8"),
        (0, "verify", "lie", "--n", "5", "--max-deg", "12"),
        (0, "verify", "cuv-module", "--n", "4", "--max-deg", "10"),
        (0, "verify", "cst", "--n", "7"),
        (0, "reynolds", "--n", "3", "u*v + i*x^2*y - 1/3*[x,y]*v^3"),
        (0, "reynolds", "--n", "7", "--basis", "xy", "u^7 + i*[u,v]*u^3*v^3"),
        (0, "canon", "--basis", "xy", "u*v - i*[x,y]*u"),
        (0, "hilbert", "assoc", "--n", "5"),
    ]
    for code, *argv in cases:
        assert _run(capsys, *argv)[0] == code, argv


def test_verify_assoc_enumerates_no_basis(capsys, monkeypatch):
    # subalgebra rows find their columns by arithmetic on the exponents
    def no_basis(d):
        raise AssertionError(f"basis_monomials({d}) was called")

    monkeypatch.setattr(assoc, "basis_monomials", no_basis)
    monkeypatch.setattr(invariants, "basis_monomials", no_basis)
    code, out, _ = _run(capsys, "verify", "assoc", "--n", "3", "--max-deg", "12", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["first_failing_degree"] == 8
    assert [r["dim_generated"] for r in payload["degrees"]] == [
        1, 0, 1, 1, 2, 5, 5, 11, 15, 20, 28, 40, 45
    ]
    assert invariants.minimality_check(3).ok


def test_no_division_in_canon_or_reynolds(capsys, monkeypatch):
    # the x,y change of basis is written out, so no command divides
    def no_inverse(self):
        raise AssertionError(f"CycNum.inv({self}) was called")

    monkeypatch.setattr(CycNum, "inv", no_inverse)
    expr._xy_letters.cache_clear()
    cases = [
        (("canon", "v*u - 1/2*[u,v]*u^2"), "u*v + 1/2*[v,u]*u^2 + [v,u]"),
        (("canon", "--basis", "xy", "u*v + v*u"), "2*x^2 + 2*y^2"),
        (("canon", "x*y - y*x"), "-1/2*i*[v,u]"),
        (
            ("canon", "--basis", "xy", "i*(x - 1/2*y)^2*[y,x]"),
            "i*x^2*[y,x] - i*x*y*[y,x] + 1/4*i*y^2*[y,x]",
        ),
        (("canon", "u*x - 3/4*y*v"), "1/2*u^2 + (1/2 + 3/8*i)*u*v - 3/8*i*v^2"),
        (
            ("canon", "--basis", "xy", "u*x - 3/4*y*v"),
            "x^2 + (-3/4 + i)*x*y + 3/4*i*y^2 + (-3/4 + i)*[y,x]",
        ),
        (
            ("reynolds", "--n", "3", "--basis", "xy", "u^3 + i*[u,v]*x"),
            "x^3 - 3*x*y^2 - y*[y,x] - 2*[y,x]*y",
        ),
    ]
    for argv, expected in cases:
        assert _run(capsys, *argv) == (0, expected + "\n", ""), argv


def _xy_texts():
    rng = Random(157)
    printed = [print_elem(random_assoc(rng, max_degree=8), "xy") for _ in range(3)]
    return ["x^2 + y^2", "[x,y]", "3/4 - i", "i*(x - 1/2*y)^3*[y,x] + 7*y", *printed]


def test_canon_xy_of_xy_text_changes_no_basis(capsys, monkeypatch):
    # canon --basis xy prints an x, y text's own-letter evaluation, with
    # no change of basis at all
    texts = _xy_texts()
    expected = [print_elem(eval_with_leaves(parse(t)), "xy") + "\n" for t in texts]

    def no_basis_change(*args):
        raise AssertionError("linear_image was called")

    monkeypatch.setattr(MetAssocElem, "linear_image", no_basis_change)
    for text, out in zip(texts, expected):
        assert _run(capsys, "canon", "--basis", "xy", text) == (0, out, "")


def test_canon_uv_of_xy_text_matches_leaf_evaluation(capsys):
    for text in _xy_texts():
        expected = print_elem(eval_with_leaves(parse(text))) + "\n"
        assert _run(capsys, "canon", "--basis", "uv", text) == (0, expected, "")


def test_verify_exit_1_on_any_mismatch(capsys, monkeypatch):
    bad = [DegreeReport(0, 1, 1, 1, True), DegreeReport(1, 2, 1, 2, False)]
    monkeypatch.setattr(cli, "lie_suite", lambda n, d: bad)
    code, out, _ = _run(capsys, "verify", "lie", "--n", "3", "--max-deg", "1", "--json")
    assert code == 1
    assert json.loads(out)["first_failing_degree"] == 1


def test_verify_text_output(capsys):
    code, out, _ = _run(capsys, "verify", "cuv-module", "--n", "3", "--max-deg", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "ok"
    assert lines[0].startswith("d=0 ")
