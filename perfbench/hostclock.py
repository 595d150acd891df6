"""Host-speed reference: times the benchmark's timings are scaled by.

On a shared virtual machine the same pure-Python work runs up to 30% slower
for minutes at a time, and process CPU time slows with it, so neither wall
time nor CPU time of a pass repeats from one run to the next.  This module
measures the host's speed while a pass runs and scales the pass time to a
fixed reference speed.

``reference_work`` is a small, fixed piece of exact arithmetic that lives
here, so no change to ``screenops`` can change its cost.  ``Sampler`` runs it
from a ``SIGALRM`` handler every ``INTERVAL_S`` seconds of a pass, excludes
the handler's time from the pass, and keeps every sample.  ``scale(samples)``
is ``REFERENCE_S / mean(samples)``: a pass that took ``t`` seconds while the
reference averaged ``r`` seconds is reported as ``t * REFERENCE_S / r``, the
time it would take on a host where the reference takes ``REFERENCE_S``.
The mean, not the median, matches the pass: both see every slow stretch of
the host in proportion to its length.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

# the reference's time on the 2-vCPU machine the benchmark was built on,
# in a typical stretch; the fixed unit that scaled timings are reported in
REFERENCE_S = 0.0045
INTERVAL_S = 0.1
# samples taken back to back after a set-up
SETUP_SAMPLES = 40

_TERMS = [((i, j), Fraction(i + 1, j + 2)) for i in range(6) for j in range(5)]


def reference_work() -> dict:
    """Square a 30-term polynomial in two variables over Q, sparse, by dict."""
    out = {}
    for (i, j), c in _TERMS:
        for (k, l), d in _TERMS:
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return out


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def scale(samples: list) -> float:
    return REFERENCE_S / statistics.fmean(samples)


class Sampler:
    """Context manager timing the reference every ``INTERVAL_S`` s of a block.

    ``samples`` holds the reference times and ``inside_s`` the total time
    spent in the handler, which the caller subtracts from the block's time.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples = []
        self.inside_s = 0.0
        self._previous = None

    def _handler(self, _signum, _frame):
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.inside_s += end - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            # a block shorter than one interval: sample once after it
            self.samples.append(time_reference())
        return False
