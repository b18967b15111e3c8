"""Host-speed probe: converts CPU time into time at a fixed host speed.

The benchmark runs on shared hosts whose speed drifts by up to 2x in
phases that last seconds to minutes, so the same request can take 1.4 s
in one phase and 2.2 s in the next.  A probe is a fixed unit of
pure-Python work; its duration measures how fast the host is running
Python at that moment.  While a request runs, a timer signal interrupts
it every ``TICK_S`` of CPU time and times one probe.  Each stretch of the
request between probes is divided by the probe duration around it, which
gives the request's length in probes, a count that depends far less on
the host's phase than wall time does (README.md has the figures).
Multiplied by ``PROBE_REF_S``, a fixed duration, that count reads as
seconds at one fixed host speed.  Time spent in probes is not part of
the request.

Everything is timed on the thread's CPU clock, so time the process spends
waiting for a processor (another process on the same one, or, where the
guest kernel accounts steal time, the hypervisor running another guest)
is not counted.  The program is
CPU-bound: it does no I/O beyond reading its own modules.

The program is single-threaded, and the probe interrupts it only between
Python instructions, so the program runs unchanged.
"""

from __future__ import annotations

import signal
import time

clock = time.thread_time

# Duration of one probe at the reference speed: about the median on the
# 2-vCPU x86-64 VM the benchmark was written on (Python 3.11).
PROBE_REF_S = 130e-6
TICK_S = 0.01
# Probes on each side of a stretch whose median gives its speed; a lone
# slow probe (an interrupt, a page fault) does not bend the estimate.
SMOOTH = 4
WARM_UP = 3


def probe() -> float:
    """Duration of one fixed unit of integer work.  It makes no object the
    garbage collector tracks, so it never starts a collection of the
    program's heap."""
    start = clock()
    x = 1
    for k in range(1, 300):
        x = (x * 48271 + k) % 2147483647
        if x & 1:
            x ^= k << 3
    return clock() - start


# Not statistics.median: importing statistics imports fractions, and the
# worker imports this module before it times the program's import.
def _median(xs: list[float]) -> float:
    s = sorted(xs)
    m = len(s) // 2
    return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2


class Ticker:
    """Times a probe every ``TICK_S`` of CPU time between ``start()`` and
    ``stop()``.

    ``probes(start, end)`` is then the length of an interval of ``clock``
    inside the ticking, in probes.  Only the main thread may use it
    (signals)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (probe start, probe duration)

    def _tick(self, signum, frame) -> None:
        start = clock()
        self.samples.append((start, probe()))

    def start(self) -> None:
        for _ in range(WARM_UP):
            probe()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def probes(self, start: float, end: float) -> float:
        """CPU time of ``[start, end]`` outside probes, divided stretch by
        stretch by the local probe duration."""
        samples = self.samples
        if not samples:
            raise RuntimeError("no probe was timed; the interval is too short to normalise")
        inside = [k for k, (t, _) in enumerate(samples) if start <= t < end]
        if not inside:
            nearest = min(range(len(samples)), key=lambda k: abs(samples[k][0] - start))
            return (end - start) / self._local(nearest)
        total, edge = 0.0, start
        for k in inside:
            t, c = samples[k]
            total += (t - edge) / self._local(k)
            edge = t + c
        return total + max(0.0, end - edge) / self._local(inside[-1])

    def _local(self, k: int) -> float:
        lo, hi = max(0, k - SMOOTH), k + SMOOTH + 1
        return _median([c for _, c in self.samples[lo:hi]])
