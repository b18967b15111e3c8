"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from reference import assoc_series, check_round_trip, check_verify, expected_verify
from speed import Ticker
from tracer import layer_metrics, self_times

ASSOC_N3 = ["verify", "assoc", "--n", "3", "--max-deg", "8", "--json"]


def _call(payload: dict, code: int, stderr: str = "") -> dict:
    return {"exit": code, "stdout": json.dumps(payload) + "\n", "stderr": stderr, "error": None}


# -- self-time arithmetic ------------------------------------------------

def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("a", 1.0, 4.0, 0, 0),
        ("a.child", 2.0, 3.0, 1, 0),
        ("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_clips_and_merges_children():
    spans = [
        ("p", 0.0, 4.0, -1, 7),
        ("c1", 1.0, 3.0, 0, 7),
        ("c2", 2.0, 6.0, 0, 7),  # overlaps c1 and runs past its parent
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)


# -- host-speed normalisation ----------------------------------------------

def _ticker(samples: list[tuple[float, float]]) -> Ticker:
    ticker = Ticker()
    ticker.samples = samples
    return ticker


def test_each_stretch_is_divided_by_its_probe_and_probes_are_left_out():
    ticker = _ticker([(1.0, 0.001), (2.0, 0.001)])
    # stretches 0.5, 0.999 and 0.999 s between the probes, 1 ms each
    assert ticker.probes(0.5, 3.0) == pytest.approx(2498.0)


def test_a_host_twice_as_slow_reads_the_same():
    fast = _ticker([(0.01 * k, 1e-4) for k in range(100)])
    slow = _ticker([(0.02 * k, 2e-4) for k in range(100)])
    assert slow.probes(0.0, 1.0) == pytest.approx(fast.probes(0.0, 0.5))


def test_a_lone_slow_probe_does_not_change_the_speed():
    samples = [(0.01 * k, 5e-3 if k == 50 else 1e-4) for k in range(100)]
    outside_probes = 1.0 - sum(c for _, c in samples)
    assert _ticker(samples).probes(0.0, 1.0) == pytest.approx(outside_probes / 1e-4)


def test_an_interval_between_two_probes_uses_the_speed_around_the_nearest():
    ticker = _ticker([(float(t), 1e-3 if t < 10 else 2e-3) for t in range(20)])
    assert ticker.probes(3.2, 3.4) == pytest.approx(0.2 / 1e-3)
    assert ticker.probes(16.2, 16.4) == pytest.approx(0.2 / 2e-3)


# -- reference -------------------------------------------------------------

def test_series_reference_matches_documented_hilbert_output():
    assert assoc_series(3, 8) == [1, 0, 1, 1, 2, 5, 5, 11, 16]


@pytest.mark.parametrize("n", range(3, 9))
def test_configured_series_first_fails_at_corner_degree(n):
    payload, code = expected_verify("assoc", n, 2 * n + 4)
    assert payload["first_failing_degree"] == 2 * n + 2
    assert code == 1


def test_reference_accepts_the_expected_report():
    payload, code = expected_verify("assoc", 3, 8)
    assert check_verify(_call(payload, code), ASSOC_N3) is None


def test_wrong_degree_entry_is_a_failure():
    payload, code = expected_verify("assoc", 3, 8)
    payload["degrees"][5]["dim_generated"] += 1
    assert check_verify(_call(payload, code), ASSOC_N3)


def test_wrong_exit_code_is_a_failure():
    payload, _ = expected_verify("assoc", 3, 8)
    assert check_verify(_call(payload, 0), ASSOC_N3)


def test_traceback_or_exception_is_a_failure():
    payload, code = expected_verify("assoc", 3, 8)
    assert check_verify(_call(payload, code, "Traceback (most recent call last):"), ASSOC_N3)
    raised = dict(_call(payload, code), error="ValueError: boom")
    assert check_verify(raised, ASSOC_N3)


def test_worker_crash_is_a_failure():
    assert run.verify_failure({"crash": "worker exit 1"}, [ASSOC_N3])


def test_round_trip_checks():
    good = {"exit": 0, "stdout": "x^2\n", "stderr": "", "error": None}
    assert check_round_trip(good, dict(good)) is None
    assert check_round_trip(good, dict(good, stdout="x^3\n"))
    assert check_round_trip(good, dict(good, exit=2))
    assert check_round_trip(dict(good, stdout="\n"), dict(good, stdout="\n"))


# -- inputs and statistics -------------------------------------------------

def test_canon_inputs_depend_only_on_the_seed():
    assert run.canon_pass(5, 0) == run.canon_pass(5, 0)
    assert run.canon_pass(5, 0) != run.canon_pass(6, 0)
    first, second = run.canon_pass(5, 0), run.canon_pass(5, 1)
    assert len(first) == len(second) == run.CANON_POOL
    assert first != second


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail([float(k) for k in range(100)])
    assert (value, n) == (89.0, 100)
    assert pct == pytest.approx(90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    # with 20 samples, ten beyond would put the tail under the median
    assert run.tail([float(k) for k in range(20)]) == (19.0, 100.0, 20)
    assert run.tail([float(k) for k in range(21)])[0] == 10.0


# -- layer predictions, on smaller instances of each workload -------------

SMALL = {
    "assoc-n3-d20": [ASSOC_N3],
    "assoc-n7-d22": [["verify", "assoc", "--n", "7", "--max-deg", "10", "--json"]],
    "lie-n7-d80": [
        ["verify", "lie", "--n", "7", "--max-deg", "20", "--json"],
        ["verify", "cuv-module", "--n", "7", "--max-deg", "20", "--json"],
    ],
}


def _traced_metrics(workload: str) -> dict:
    runner = run.Runner()
    if workload == "canon-xy":
        res = runner.call({"mode": "canon", "inputs": run.canon_pass(3, 0)[:2], "trace": True,
                           "spans_path": None})
        assert "crash" not in res, res
        for trip in res["trips"]:
            assert check_round_trip(trip["first"], trip["second"]) is None
    else:
        calls = SMALL[workload]
        res = runner.call({"mode": "verify", "calls": calls, "trace": True, "spans_path": None})
        assert run.verify_failure(res, calls) is None
    trace = res["trace"]
    return {k: v for k, (v, _) in layer_metrics(trace["totals"], trace["requests"]).items()}


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_layers_recorded_where_predicted(workload):
    metrics = _traced_metrics(workload)
    present, absent = run.PRESENCE[workload]
    assert {k: metrics[k] for k in present if metrics[k] <= 0} == {}
    assert {k: metrics[k] for k in absent if metrics[k] != 0} == {}
    assert metrics["cli.main.self_s"] > 0


# -- the contract's missing-program case ----------------------------------

def test_refuses_to_run_without_the_program(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "canon-xy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
