"""Expected outputs, computed without importing the program.

The verify reports are predicted from the closed-form Hilbert series,
expanded here with plain integer arithmetic:

    H       = 1 / ((1 - t^2)(1 - t^n))                 commutative invariants
    lie     = t^(n+2) H
    assoc   = H + G(t) H^2, with module generator degrees
    G(t)    = (n+1) t^(n+2) + t^4 + t^6 + ... + t^top

where top = 2n+2 for the configured series (it counts the corner
generator) and top = 2n for the corner-free one.  The corner-free series
is the true invariant dimension and the rank reached by the standard
generators; the configured one is what ``verify assoc`` compares against,
so it reports the documented mismatch from degree 2n+2 on, with exit 1.
"""

from __future__ import annotations

import json


def _mul(a: list[int], b: list[int], upto: int) -> list[int]:
    out = [0] * (upto + 1)
    for i, x in enumerate(a[: upto + 1]):
        if x:
            for j, y in enumerate(b[: upto + 1 - i]):
                out[i + j] += x * y
    return out


def _geometric(k: int, upto: int) -> list[int]:
    """1 / (1 - t^k) truncated after degree upto."""
    return [1 if d % k == 0 else 0 for d in range(upto + 1)]


def cuv_series(n: int, upto: int) -> list[int]:
    return _mul(_geometric(2, upto), _geometric(n, upto), upto)


def lie_series(n: int, upto: int) -> list[int]:
    shift = [0] * (n + 2) + [1]
    return _mul(shift, cuv_series(n, upto), upto)


def assoc_series(n: int, upto: int, *, corner: bool = True) -> list[int]:
    top = 2 * n + 2 if corner else 2 * n
    gens = [0] * (max(top, n + 2) + 1)
    gens[n + 2] += n + 1
    for d in range(4, top + 1, 2):
        gens[d] += 1
    h = cuv_series(n, upto)
    module = _mul(_mul(gens, h, upto), h, upto)
    return [a + b for a, b in zip(h, module)]


def cuv_module_series(n: int, upto: int) -> list[int]:
    """Generators 1, u..u^n, v..v^(n-1) over the commutative invariants."""
    counts = [0] * (n + 1)
    counts[0] = 1
    for d in range(1, n):
        counts[d] = 2
    counts[n] += 1
    return _mul(counts, cuv_series(n, upto), upto)


def _payload(n: int, command: str, rows: list[tuple[int, int, int]]) -> dict:
    degrees = [
        {
            "d": d,
            "dim_reynolds": r,
            "dim_series": s,
            "dim_generated": g,
            "ok": r == s == g,
        }
        for d, (r, s, g) in enumerate(rows)
    ]
    first_bad = next((e["d"] for e in degrees if not e["ok"]), None)
    return {
        "n": n,
        "command": command,
        "degrees": degrees,
        "ok": first_bad is None,
        "first_failing_degree": first_bad,
    }


def expected_verify(target: str, n: int, max_deg: int) -> tuple[dict, int]:
    """The JSON report and exit code ``verify <target> --json`` must give."""
    if target == "assoc":
        true_dims = assoc_series(n, max_deg, corner=False)
        configured = assoc_series(n, max_deg, corner=True)
        rows = list(zip(true_dims, configured, true_dims))
    elif target == "lie":
        dims = lie_series(n, max_deg)
        rows = list(zip(dims, dims, dims))
    elif target == "cuv-module":
        series = cuv_module_series(n, max_deg)
        rows = [(d + 1, series[d], d + 1) for d in range(max_deg + 1)]
    else:
        raise ValueError(f"no reference for verify {target}")
    payload = _payload(n, f"verify {target}", rows)
    return payload, 0 if payload["ok"] else 1


def check_verify(call: dict, argv: list[str]) -> str | None:
    """None when a recorded ``verify`` call matches the reference, else why not.

    ``call`` holds the captured ``exit``, ``stdout``, ``stderr`` and, when
    the call raised, ``error``.  ``argv`` is
    ``["verify", target, "--n", n, "--max-deg", d, "--json"]``.
    """
    if call.get("error"):
        return f"raised {call['error']}"
    if call["stderr"]:
        return f"wrote to stderr: {call['stderr'][:200]!r}"
    target, n, max_deg = argv[1], int(argv[3]), int(argv[5])
    payload, code = expected_verify(target, n, max_deg)
    if call["exit"] != code:
        return f"exit {call['exit']}, expected {code}"
    try:
        got = json.loads(call["stdout"])
    except ValueError:
        return f"stdout is not JSON: {call['stdout'][:200]!r}"
    if got != payload:
        for key in ("n", "command", "ok", "first_failing_degree"):
            if got.get(key) != payload[key]:
                return f"{key} is {got.get(key)!r}, expected {payload[key]!r}"
        for want, have in zip(payload["degrees"], got.get("degrees", [])):
            if want != have:
                return f"degree entry {have!r}, expected {want!r}"
        return "degree list has the wrong length"
    return None


def check_round_trip(first: dict, second: dict) -> str | None:
    """None when ``canon --basis xy`` of its own output reprints it exactly."""
    for name, call in (("first", first), ("second", second)):
        if call.get("error"):
            return f"{name} call raised {call['error']}"
        if call["exit"] != 0:
            return f"{name} call exited {call['exit']}"
        if call["stderr"]:
            return f"{name} call wrote to stderr: {call['stderr'][:200]!r}"
    if not first["stdout"].strip():
        return "empty canonical form"
    if second["stdout"] != first["stdout"]:
        return "reprinting the xy form changed it"
    return None
