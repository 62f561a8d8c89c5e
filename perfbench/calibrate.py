"""Rescaling wall times to a fixed host speed.

The benchmark shares its CPU with other machines' work: the same script
can take 1.5 times as long from one ten-second stretch to the next, and
the speed also flips within a second.  A fixed pure-Python kernel measures
how fast the host runs: ``Sampler`` times it fifty times a second from a
timer signal, also while a long script is running.  A script's wall time is
rescaled by the mean kernel time during and around it, so a reported time
reads as wall time on a host where the kernel takes ``NOMINAL_S``.  The
kernel is benchmark code, so a change to frobval moves the rescaled times
exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
from array import array
from time import perf_counter, perf_counter_ns

NOMINAL_S = 0.0001
PERIOD_S = 0.02
# a span is rescaled by the samples within WINDOW_S of it, at least MIN_SAMPLES
WINDOW_S = 0.1
MIN_SAMPLES = 8

# sparse polynomial product mod 7 on exponent tuples: dict, tuple and small
# integer work like frobval's own inner loops, so both slow down together
_rng = random.Random(20150722)
_A = {tuple(_rng.randint(0, 6) for _ in range(3)): _rng.randint(1, 6) for _ in range(10)}
_B = {tuple(_rng.randint(0, 6) for _ in range(3)): _rng.randint(1, 6) for _ in range(10)}


def kernel():
    out = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = (out.get(e, 0) + c1 * c2) % 7
    return out


def kernel_seconds():
    """Time of one kernel run; the cyclic collector is held off, so the
    kernel never pays for a collection that frobval's objects triggered."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        kernel()
        return (perf_counter_ns() - t0) / 1e9
    finally:
        if enabled:
            gc.enable()


def _trimmed_mean(values):
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class Sampler:
    """Times the kernel every PERIOD_S from a SIGALRM handler while active.

    The handler adds about 0.5% to the wall time it interrupts and a few
    stack frames; benchmark scripts stay far from the recursion limit.
    """

    def __init__(self):
        self.times = array("d")
        self.kernel_s = array("d")

    def _sample(self, signum, frame):
        k = kernel_seconds()
        self.times.append(perf_counter())
        self.kernel_s.append(k)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def scale_factors(self, spans):
        """NOMINAL_S over the trimmed mean kernel time within WINDOW_S of
        each (start, end) span, widened to MIN_SAMPLES samples if needed."""
        times, ks = self.times, self.kernel_s
        if len(ks) < MIN_SAMPLES:
            raise ValueError("too few calibration samples")
        factors = []
        for start, end in spans:
            lo = bisect.bisect_left(times, start - WINDOW_S)
            hi = bisect.bisect_right(times, end + WINDOW_S)
            if hi - lo < MIN_SAMPLES:
                mid = bisect.bisect_left(times, (start + end) / 2)
                lo = max(0, min(mid - MIN_SAMPLES // 2, len(ks) - MIN_SAMPLES))
                hi = lo + MIN_SAMPLES
            factors.append(NOMINAL_S / _trimmed_mean(ks[lo:hi]))
        return factors
