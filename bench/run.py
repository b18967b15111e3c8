"""The metabelian benchmark: one workload per call, or all of them in turn.

    python3 bench/run.py --workload assoc-n3-d20 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The program is imported from ``src/``.
Every operation is checked against a reference computed here
(``reference.py``).  With ``--trace 0`` the end-to-end metrics are
printed; with ``--trace 1`` the per-layer metrics of a traced run and the
tracing overhead.  Each metric is printed as ``name value unit``; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  A fuller record, with the environment, goes to
``.bench_out/``.  See README.md in this directory for the design.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

from reference import check_round_trip, check_verify
from speed import PROBE_REF_S
from tracer import layer_metrics, merge

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"

# A run stops starting work that would end after --seconds, but always
# does this much, so each median has several samples.
MIN_VERIFY_OPS = 3
# Import-only interpreters at the start of a run; every request's
# interpreter times its import too.
SETUP_PROBES = 5
# canon-xy inputs: one interpreter makes a pass of CANON_POOL round
# trips, one for each input structure of a pool drawn once from
# STRUCTURE_SEED.  The pool is odd, so the median and the tail of a run of
# three passes each fall on the middle copy of one structure (samples 44
# and 77 of 87), not between two structures whose costs differ.  Three
# passes of 29 take about 29 s of normalised time, in the middle of the
# span (26-36 s) where a 30-s run makes three.
CANON_POOL = 29
STRUCTURE_SEED = 8
# A canon-xy run starts no pass that would end after this many times
# --seconds of wall time, so that a slow host cannot stretch a set of runs.
CANON_WALL_CAP = 1.5
# Every worker must have ended this long after the run started.
HARD_LIMIT_S = 170.0


def _verify_call(target: str, n: int, max_deg: int) -> list[str]:
    return ["verify", target, "--n", str(n), "--max-deg", str(max_deg), "--json"]


# Why each workload exists is in README.md.
WORKLOADS = {
    "assoc-n3-d20": [_verify_call("assoc", 3, 20)],
    "assoc-n7-d22": [_verify_call("assoc", 7, 22)],
    "lie-n7-d80": [_verify_call("lie", 7, 80), _verify_call("cuv-module", 7, 80)],
    "canon-xy": None,
}

# Per-layer metrics predicted nonzero (first) and zero (second) on each
# workload, and the span predicted to have the largest self time.
_ASSOC_PRESENCE = (
    ("cyclo.mul.calls", "poly.mul.calls", "assoc.mul.calls", "dihedral.reynolds.calls",
     "dihedral.act.calls", "linalg.insert.calls", "invariants.subalgebra_filtration.self_s"),
    ("lie.ops.calls", "invariants.lie_suite.self_s", "invariants.module_span_check.self_s",
     "expr.parse.self_s", "expr.eval_assoc.self_s", "expr.print_elem.self_s", "expr.input_bytes"),
)
PRESENCE = {
    "assoc-n3-d20": _ASSOC_PRESENCE,
    "assoc-n7-d22": _ASSOC_PRESENCE,
    "lie-n7-d80": (
        ("cyclo.mul.calls", "poly.mul.calls", "lie.ops.calls", "dihedral.reynolds.calls",
         "dihedral.act.calls", "linalg.insert.calls", "invariants.lie_suite.self_s",
         "invariants.module_span_check.self_s"),
        ("assoc.mul.calls", "invariants.subalgebra_filtration.self_s", "expr.parse.self_s",
         "expr.eval_assoc.self_s", "expr.print_elem.self_s", "expr.input_bytes"),
    ),
    "canon-xy": (
        ("cyclo.mul.calls", "poly.mul.calls", "assoc.mul.calls", "assoc.pow.calls",
         "expr.parse.self_s", "expr.eval_assoc.self_s", "expr.to_xy.self_s",
         "expr.print_elem.self_s", "expr.input_bytes"),
        ("lie.ops.calls", "dihedral.reynolds.calls", "dihedral.act.calls", "linalg.insert.calls",
         "invariants.subalgebra_filtration.self_s", "invariants.lie_suite.self_s",
         "invariants.module_span_check.self_s"),
    ),
}
LARGEST_SELF = {
    "assoc-n3-d20": ("linalg.insert.self_s",),
    "assoc-n7-d22": ("dihedral.reynolds.self_s",),
    "lie-n7-d80": ("dihedral.reynolds.self_s",),
    "canon-xy": ("poly.mul.self_s", "assoc.mul.self_s", "expr.parse.self_s",
                 "expr.eval_assoc.self_s", "expr.to_xy.self_s", "expr.print_elem.self_s"),
}


class SetupError(RuntimeError):
    """The program could not be started; no result is printed."""


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

def _num(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _power(letter: str, k: int) -> list[str]:
    return [] if k == 0 else [letter if k == 1 else f"{letter}^{k}"]


def _term_letters(rng: Random, max_degree: int = 8) -> list[str]:
    """The monomial of one term, drawn like the parser round-trip
    acceptance test: a u^a v^b word or a u^a v^b [v,u] u^c v^d word."""
    if rng.random() < 0.5:
        a = rng.randint(0, max_degree)
        b = rng.randint(0, max_degree - a)
        return _power("u", a) + _power("v", b)
    inner = max(0, max_degree - 2)
    a = rng.randint(0, inner)
    b = rng.randint(0, inner - a)
    c = rng.randint(0, inner - a - b)
    d = rng.randint(0, inner - a - b - c)
    return _power("u", a) + _power("v", b) + ["[v,u]"] + _power("u", c) + _power("v", d)


def _parts(rng: Random) -> tuple[bool, bool]:
    """Which parts of a coefficient a + b·i are nonzero, at the acceptance
    test's odds (a is p/q with p in -4..4, b with p in -3..3), and not
    both: a zero coefficient drops its term."""
    while True:
        real, imag = rng.randint(-4, 4) != 0, rng.randint(-3, 3) != 0
        if real or imag:
            return real, imag


def _coefficient(rng: Random, real: bool, imag: bool) -> str:
    re = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3)) if real else 0
    im = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) if imag else 0
    sign = "+" if im >= 0 else "-"
    return f"({_num(re)} {sign} {_num(abs(im))}*i)"


def canon_pass(seed: int, k: int) -> list[str]:
    """Pass ``k`` of the round-trip inputs: CANON_POOL expressions of four
    Gaussian-rational terms of degree at most 8.

    The structure of the pool, which sets the cost of a round trip, is
    drawn once, from STRUCTURE_SEED: every monomial, and which parts of
    its coefficient are zero.  The seed and ``k`` draw the order of the
    pass and the nonzero parts' values.  So every pass measures the same
    mix of cheap and dear inputs, in the same proportions of rational,
    imaginary and general coefficients.
    """
    shapes_rng = Random(STRUCTURE_SEED)
    shapes = [[(_term_letters(shapes_rng), *_parts(shapes_rng)) for _ in range(4)]
              for _ in range(CANON_POOL)]
    rng = Random(f"{seed}/{k}")
    rng.shuffle(shapes)
    return [" + ".join("*".join([_coefficient(rng, real, imag)] + letters)
                       for letters, real, imag in shape)
            for shape in shapes]


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples) at the highest percentile that still
    has at least 10 samples beyond it; the maximum when there are fewer
    than 21 samples, where that percentile would fall below the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], 100.0, n
    idx = n - 11
    return xs[idx], 100.0 * (idx + 1) / n, n


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------

class Runner:
    """Starts worker interpreters one at a time and keeps the run in time."""

    def __init__(self):
        self.started = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def call(self, request: dict) -> dict:
        """Run one worker; a crash or timeout comes back as ``{"crash": why}``."""
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER)],
                input=json.dumps(request),
                capture_output=True,
                text=True,
                cwd=ROOT,
                env=self.env,
                timeout=max(1.0, self.remaining()),
            )
        except subprocess.TimeoutExpired:
            return {"crash": "worker timed out"}
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return {"crash": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
        try:
            return json.loads(lines[-1])
        except ValueError:
            return {"crash": f"worker printed no result: {lines[-1][:200]!r}"}


def normalised_s(probes: float) -> float:
    """An interval measured in probes, as seconds at the reference host
    speed (speed.py)."""
    return probes * PROBE_REF_S


def setup_times(runner: Runner) -> list[dict]:
    """Worker results of import-only fresh interpreters, after one
    untimed import that leaves the byte code compiled."""
    if not (SRC / "metabelian" / "cli.py").is_file():
        raise SetupError(f"the program is missing: no {SRC / 'metabelian' / 'cli.py'}")
    times = []
    for k in range(SETUP_PROBES + 1):
        res = runner.call({"mode": "setup"})
        if "crash" in res:
            raise SetupError(f"importing metabelian.cli failed: {res['crash']}")
        if k:
            times.append(res)
    return times


def verify_failure(res: dict, calls: list[list[str]]) -> str | None:
    if "crash" in res:
        return res["crash"]
    for argv, call in zip(calls, res["calls"]):
        why = check_verify(call, argv)
        if why:
            return f"{' '.join(argv)}: {why}"
    return None


def _spans_path(workload: str, seed: int, k: int) -> str:
    return str(OUT / f"spans-{workload}-seed{seed}-{k}.jsonl.gz")


def closed_loop(runner: Runner, seconds: float, min_steps: int, step) -> list[dict]:
    """Call ``step(k)``, which returns worker results, while the next step
    (as long as the median step so far) would end within ``seconds``.

    Stops early when every worker of a step crashed."""
    results, walls = [], []
    start = time.perf_counter()
    while runner.remaining() > 0:
        elapsed = time.perf_counter() - start
        if len(walls) >= min_steps and elapsed + statistics.median(walls) > seconds:
            break
        began = time.perf_counter()
        got = step(len(walls))
        results += got
        walls.append(time.perf_counter() - began)
        if all("crash" in res for res in got):
            break
    return results


def _traced(results: list[dict], traced: list[float], plain: list[float]) -> dict:
    totals = {}
    for res in results:
        totals = merge(totals, res["trace"]["totals"])
    return {
        "requests": sum(res["trace"]["requests"] for res in results),
        "totals": totals,
        "overhead": statistics.mean(traced) / statistics.mean(plain) if traced and plain else 0.0,
    }


def run_verify(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One fresh interpreter per verify request.  Traced runs alternate an
    untraced and a traced interpreter."""
    calls = WORKLOADS[workload]

    def step(k: int) -> list[dict]:
        return [
            runner.call({"mode": "verify", "calls": calls, "trace": traced,
                         "spans_path": _spans_path(workload, seed, k) if traced else None})
            for traced in ((False, True) if trace else (False,))
        ]

    results = closed_loop(runner, seconds, 1 if trace else MIN_VERIFY_OPS, step)
    done = [res for res in results if "crash" not in res]
    plain = [res for res in done if "trace" not in res]
    traced = [res for res in done if "trace" in res]
    return {
        "attempted": len(results),
        "failures": [why for why in (verify_failure(res, calls) for res in results) if why],
        "latencies": [(res["op_probes"], res["op_s"]) for res in plain],
        "peak_rss_mb": [res["peak_rss_mb"] for res in plain],
        "setups": done,
        "traced": _traced(traced, [res["op_probes"] for res in traced],
                          [res["op_probes"] for res in plain]),
    }


def run_canon(runner: Runner, seed: int, seconds: float, trace: bool) -> dict:
    """One interpreter per pass over the pool, calling ``cli.main`` in a
    closed loop of round trips.

    A run makes as many whole passes as fill ``seconds`` of normalised
    round-trip time, to the nearest pass.  A wall-time budget made two
    passes in slow phases of the host and four in fast ones, and the tail
    percentile of 64 and of 128 round trips falls on different monomials.
    """
    results, spent, start = [], 0.0, time.perf_counter()
    while runner.remaining() > 0:
        k = len(results)
        res = runner.call({"mode": "canon", "inputs": canon_pass(seed, k), "trace": trace,
                           "spans_path": _spans_path("canon-xy", seed, k) if trace else None})
        results.append(res)
        if "crash" in res:
            break
        spent += normalised_s(sum(trip["latency_probes"] for trip in res["trips"]))
        wall = time.perf_counter() - start
        if (spent + spent / len(results) / 2 > seconds
                or wall + wall / len(results) > CANON_WALL_CAP * seconds):
            break
    attempted, failures, plain, traced = 0, [], [], []
    for res in results:
        if "crash" in res:
            attempted += 1
            failures.append(res["crash"])
            continue
        for trip in res["trips"]:
            attempted += 1
            why = check_round_trip(trip["first"], trip["second"])
            if why:
                failures.append(f"round trip {attempted}: {why}")
            sample = (trip["latency_probes"], trip["latency_s"])
            (traced if trip.get("traced") else plain).append(sample)
    done = [res for res in results if "crash" not in res]
    return {
        "attempted": attempted,
        "failures": failures,
        "latencies": plain,
        "peak_rss_mb": [res["peak_rss_mb"] for res in done],
        "setups": done,
        "traced": _traced([res for res in done if "trace" in res], [p for p, _ in traced],
                          [p for p, _ in plain]),
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------

def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "metabelian").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "seed": seed,
    }


def end_to_end(run: dict) -> tuple[dict, dict]:
    """Every time is normalised to the reference host speed; the wall-time
    medians go to the detail record only."""
    lat = run["latencies_s"]
    t_value, t_pct, t_n = tail(lat)
    metrics = {
        "setup_s": (statistics.median(run["setup_s"]), "s"),
        "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000.0 * t_value, "ms"),
        "throughput_per_s": (len(lat) / sum(lat), "1/s"),
        "peak_rss_mb": (statistics.median(run["peak_rss_mb"]), "MB"),
    }
    detail = {
        "tail_percentile": t_pct,
        "tail_samples": t_n,
        "setup_samples": len(run["setup_s"]),
        "wall_setup_s": statistics.median(run["wall_setup_s"]),
        "wall_latency_p50_ms": 1000.0 * statistics.median(run["wall_latencies_s"]),
    }
    return metrics, detail


def per_layer(workload: str, run: dict) -> tuple[dict, dict]:
    traced = run["traced"]
    metrics = layer_metrics(traced["totals"], traced["requests"])
    metrics["trace.overhead_ratio"] = (traced["overhead"], "ratio")
    selfs = {k: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    largest = max(selfs, key=selfs.get)
    detail = {
        "traced_requests": traced["requests"],
        "largest_self": largest,
        "largest_self_predicted": list(LARGEST_SELF[workload]),
        "largest_self_prediction_ok": largest in LARGEST_SELF[workload],
    }
    return metrics, detail


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    runner = Runner()
    setups = setup_times(runner)
    if workload == "canon-xy":
        run = run_canon(runner, seed, seconds, trace)
    else:
        run = run_verify(runner, workload, seed, seconds, trace)
    setups += run["setups"]
    run["setup_s"] = [normalised_s(res["setup_probes"]) for res in setups]
    run["wall_setup_s"] = [res["setup_s"] for res in setups]
    run["latencies_s"] = [normalised_s(probes) for probes, _ in run["latencies"]]
    run["wall_latencies_s"] = [wall for _, wall in run["latencies"]]
    failed = len(run["failures"])
    result = {"correct": failed == 0, "attempted": run["attempted"], "failed": failed}
    if run["latencies_s"] and (not trace or run["traced"]["requests"]):
        metrics, detail = per_layer(workload, run) if trace else end_to_end(run)
    else:
        metrics, detail = {}, {}
        result["correct"] = False
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    return {"result": result, "detail": detail, "failures": run["failures"][:20],
            "latencies_s": run["latencies_s"], "setup_s": run["setup_s"],
            "wall_latencies_s": run["wall_latencies_s"], "wall_setup_s": run["wall_setup_s"]}


def report(workload: str, seed: int, trace: bool, out: dict, env: dict) -> None:
    res, detail = out["result"], out["detail"]
    print(f"# workload {workload} seed {seed} trace {int(trace)}")
    print(f"# python {env['python']} nproc {env['nproc']} platform {env['platform']} "
          f"git {env['git_sha'] or 'none'} src {env['src_sha256'][:12]}")
    for name, m in res["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_frac {res['failed'] / res['attempted']:.6g} ({res['failed']}/{res['attempted']})")
    if "tail_percentile" in detail:
        print(f"# tail at p{detail['tail_percentile']:.4g} of {detail['tail_samples']} samples")
        print(f"# wall time, not normalised: setup {detail['wall_setup_s']:.6g} s, "
              f"latency p50 {detail['wall_latency_p50_ms']:.6g} ms")
    if "largest_self" in detail:
        verdict = "as predicted" if detail["largest_self_prediction_ok"] else "prediction WRONG"
        print(f"# largest self time: {detail['largest_self']} ({verdict}; predicted "
              f"{' or '.join(detail['largest_self_predicted'])})")
    for why in out["failures"]:
        print(f"# FAILED: {why}")
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"workload": workload, "environment": env, **out}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through Python on SIGTERM, so a running worker is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
            report(name, args.seed, bool(args.trace), out, env)
            results[name] = out["result"]
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
