"""A speed probe that measures how fast the host runs while a workload runs.

The host is a shared virtual machine whose speed changes by tens of
percent from second to second and from minute to minute; wall time and
CPU time alike move with it. ``SpeedProbe`` runs a fixed, short kernel
every PROBE_INTERVAL_S of wall time from a SIGALRM handler, in the main
thread and so on the same CPU as the workload, and times it. The mean
probe time follows the host's speed over exactly the workload's interval,
so the workload's time divided by it, ``wall_ref``, cancels the drift.
The mean, not the median, is used: short probes that fall between
slowdowns would otherwise hide them.

The kernel squares a polynomial modulo a fixed polynomial and prime in
pure Python, the arithmetic of lcmlab's hot paths, and shares no code
with lcmlab, so no change to lcmlab can move it.
"""

from __future__ import annotations

import signal
import time

_P = 1000003
_MODULUS = (3, 1, 4, 1, 5, 9, 2, 6, 5, 1)  # monic, degree 9
PROBE_ITERATIONS = 40  # about 1 ms of work
PROBE_INTERVAL_S = 0.02


def _square_mod(a):
    out = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(a):
            out[i + j] = (out[i + j] + x * y) % _P
    for k in range(len(out) - 1, 8, -1):
        c = out[k]
        if c:
            for i, m in enumerate(_MODULUS):
                out[k - 9 + i] = (out[k - 9 + i] - c * m) % _P
    return out[:9]


class SpeedProbe:
    """Context manager; ``samples`` holds each probe's wall time."""

    def __init__(self):
        self.samples = []

    def _probe(self, signum=None, frame=None):
        g = [2, 7, 1, 8, 2, 8, 1, 8, 3]
        t0 = time.perf_counter()
        for _ in range(PROBE_ITERATIONS):
            g = _square_mod(g)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:
            self._probe()

    @property
    def mean_s(self):
        return sum(self.samples) / len(self.samples)

    @property
    def total_s(self):
        return sum(self.samples)
