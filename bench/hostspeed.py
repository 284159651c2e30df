"""Host-speed probe: rescales request times to a fixed reference speed.

The benchmark runs on shared virtual machines whose speed drifts by
tens of percent within seconds, with CPU time tracking wall time, so the
guest cannot see the loss.  The two vCPUs drift independently, and a
probe run only between requests misses the drift inside a request of
several seconds.  So while requests run, a SIGALRM timer interrupts this
thread every ``INTERVAL`` seconds and times a fixed kernel of the kind
of work the package does.  A request's time, less the probes' own time,
times ``NOMINAL`` over the mean probe time during the request, is what
the request would take at the reference speed.  A slower program is
slower at every host speed, so a regression still shows in full.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.02
# Probe kernel seconds at the reference speed: about its median, inside
# the signal handler, while a 2-vCPU Xeon guest ran at full speed.
NOMINAL = 3.3e-4

_TERMS = tuple(Fraction(i, i + 7) for i in range(1, 31))
_POINTS = tuple((Fraction(i, 7), Fraction(50 - i, 3)) for i in range(15))


def _kernel() -> int:
    """Exact arithmetic, as in the simplex, and dominance tests, as in
    the Pareto filter: both workloads' costs track this kernel's time
    more closely than either part alone."""
    total = Fraction(0)
    for term in _TERMS:
        total += term * term
    dominated = 0
    for a in _POINTS:
        for b in _POINTS[:10]:
            if a is not b and all(x <= y for x, y in zip(a, b)):
                dominated += 1
    return dominated


class SpeedProbe:
    """Context manager that samples the probe kernel while it is open."""

    def __init__(self):
        self._samples: list[float] = []
        self._scale = 1.0

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        self._samples.append(perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        for _ in range(50):  # a first speed, before any request
            self._tick(None, None)
        self._scale = NOMINAL / statistics.median(self._samples)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> None:
        """Mark the start of a request."""
        self._samples.clear()

    def rescale(self, seconds: float) -> tuple[float, float]:
        """The request's own seconds (probes removed) and those seconds at
        the reference speed.  A request too short to be sampled keeps the
        last speed seen."""
        samples = self._samples
        own = seconds - sum(samples)
        if samples:
            self._scale = NOMINAL / statistics.fmean(samples)
        return own, own * self._scale
