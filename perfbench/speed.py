"""How fast the CPU runs while a pass runs.

On a shared host the same pure-Python work takes anywhere from 1x to 2x
as long from one second to the next, because other tenants load the
physical cores; process CPU time rises with wall time, so it does not
help. A pass therefore times a fixed probe loop alongside its own work,
on the same CPU and at almost the same moments, and reports its times in
*reference seconds*: measured seconds × REF_PROBE_S / probe time.

`Sampler` runs the probe from a SIGALRM handler every PROBE_EVERY_S of a
timed stretch. The handler runs in the main thread between bytecodes, so
the probe interrupts the work rather than running beside it, and its own
time is taken out of the stretch. No thread or process is started.
"""

from __future__ import annotations

import signal
from time import perf_counter

PROBE_EVERY_S = 0.1
PROBE_LOOPS = 2500
# About the probe's median time on the host the reference figures in
# README.md come from; it only sets the scale of a reference second.
REF_PROBE_S = 0.001
_TEXT = "一二三四五六七八九十"


def probe() -> float:
    """Seconds one run of the probe loop takes now (string slices, dict
    lookups and float arithmetic, like the pipeline's inner loops)."""
    t = perf_counter()
    counts: dict[str, float] = {}
    for i in range(PROBE_LOOPS):
        key = _TEXT[i % 9:i % 9 + 2]
        counts[key] = counts.get(key, 0.0) + i * 0.5
    return perf_counter() - t


def reference_s(seconds: float, probe_times: list[float]) -> float:
    """`seconds` at the speed the probe times show, in reference seconds."""
    return seconds * REF_PROBE_S * len(probe_times) / sum(probe_times)


class Sampler:
    """Probe times taken every PROBE_EVERY_S between start() and stop()."""

    def __init__(self):
        self.times: list[float] = []

    def _on_alarm(self, signum, frame):
        self.times.append(probe())

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
