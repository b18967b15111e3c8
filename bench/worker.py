"""One fresh interpreter of the benchmark: times the import of the program,
then runs the CLI calls it is sent on stdin and prints one JSON result.

Request (JSON on stdin):

    {"mode": "setup"}
    {"mode": "verify", "calls": [argv, ...], "trace": bool, "spans_path": str|null}
    {"mode": "canon", "inputs": [text, ...], "trace": bool, "spans_path": str|null}

``verify`` runs its calls once, back to back, as one request.  ``canon``
runs one round trip per input, back to back in this interpreter: each is
``canon --basis xy T`` and then ``canon --basis xy`` of what it printed.
With ``trace`` set, every canon input is run once untraced and once
traced, so the two can be compared.

Every interval is reported twice: as wall seconds (``*_s``) and as its
length in probes of the host's speed (``*_probes``, see speed.py).  The
probe ticks for the whole life of the interpreter, the import included.
"""

import sys
import time

from speed import Ticker, clock

# Only the probe is imported before the program, so the import is timed cold.
TICKER = Ticker()
TICKER.start()
_t0, _c0 = time.perf_counter(), clock()
import metabelian.cli  # noqa: E402

SETUP_S = time.perf_counter() - _t0
SETUP_PROBES = TICKER.probes(_c0, clock())

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from tracer import Tracer  # noqa: E402


def run_cli(argv: list[str]) -> dict:
    """One ``metabelian.cli.main`` call with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = metabelian.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # noqa: BLE001 - an exception is a recorded failure
            error = traceback.format_exc(limit=8)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _verify(req: dict) -> dict:
    tracer = Tracer() if req["trace"] else None
    if tracer:
        tracer.install()
    start, cpu_start = time.perf_counter(), clock()
    calls = [run_cli(argv) for argv in req["calls"]]
    result = {"op_probes": TICKER.probes(cpu_start, clock()), "op_s": time.perf_counter() - start,
              "calls": calls, "peak_rss_mb": _peak_rss_mb()}
    if tracer:
        tracer.uninstall()
        result["trace"] = {"requests": 1, "totals": tracer.totals()}
        if req.get("spans_path"):
            tracer.write_spans(req["spans_path"])
    return result


def _round_trip(text: str) -> dict:
    start, cpu_start = time.perf_counter(), clock()
    first = run_cli(["canon", "--basis", "xy", text])
    second = run_cli(["canon", "--basis", "xy", first["stdout"].strip()])
    return {"latency_probes": TICKER.probes(cpu_start, clock()),
            "latency_s": time.perf_counter() - start, "first": first, "second": second}


def _canon(req: dict) -> dict:
    tracer = Tracer() if req["trace"] else None
    trips = []
    for k, text in enumerate(req["inputs"]):
        trips.append(_round_trip(text))
        if tracer:
            tracer.request = k
            tracer.install()
            trips.append({**_round_trip(text), "traced": True})
            tracer.uninstall()
    result = {"trips": trips, "peak_rss_mb": _peak_rss_mb()}
    if tracer:
        result["trace"] = {"requests": len(req["inputs"]), "totals": tracer.totals()}
        if req.get("spans_path"):
            tracer.write_spans(req["spans_path"])
    return result


def main() -> None:
    req = json.loads(sys.stdin.read())
    mode = req["mode"]
    try:
        if mode == "setup":
            result = {}
        elif mode == "verify":
            result = _verify(req)
        elif mode == "canon":
            result = _canon(req)
        else:
            raise SystemExit(f"unknown worker mode {mode!r}")
    finally:
        TICKER.stop()
    result["setup_s"] = SETUP_S
    result["setup_probes"] = SETUP_PROBES
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
