"""The benchmark's tracer still installs on the program: it wraps named
methods and functions of ``metabelian`` (``CycNum.__mul__``,
``MetAssocElem.__pow__``, ``cli.main``, the drivers' caches, ...), so a
change under ``src/`` that renames or retypes one of them fails here and
not only in ``bench/test_bench.py``."""

from pathlib import Path

from metabelian import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_installs_and_runs_both_command_kinds(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "lie", "--n", "3", "--max-deg", "8", "--json"]) == 0
        assert cli.main(["canon", "--basis", "xy", "u*v"]) == 0
    finally:
        tracer.uninstall()
    assert cli.main is original
    totals = tracer.totals()
    assert totals["cli.main.calls"] == 2
    assert totals["cyclo.mul.calls"] > 0 and totals["assoc.mul.calls"] > 0
