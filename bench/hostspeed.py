"""Measure how fast the host runs Python while a pass runs, and scale by it.

On a shared virtual machine the CPU time of the same pure-Python work moves
by up to half again over tens of seconds, as other tenants load the physical
cores.  A ``Sampler`` measures that speed during the pass itself: every
INTERVAL_S of this process's CPU time a SIGPROF handler runs a short fixed
reference loop and times it.  ``scaled`` turns the process's CPU time into
seconds at the reference speed: the CPU time without the samples, times
REFERENCE_S over the mean sample.  Over four minutes of ex2 constant-search
passes on a 2-vCPU virtual machine, this cut the passes' coefficient of
variation from 0.17 to 0.035.

The loop does what wanderlab's box arithmetic does most: small objects with
``__slots__``, float adds and multiplies, ``min`` and ``max``.  It uses no
wanderlab code, so a change to wanderlab never moves it.  The interval timer
is not inherited by forked raster workers, so they are not sampled; their
CPU time is left as measured.
"""
from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

INTERVAL_S = 0.02          # CPU seconds between samples
LOOP_STEPS = 300
OUTLIER = 4.0
# The loop's typical duration on the machine the baseline was recorded on
# (2-vCPU Intel Xeon virtual machine, Python 3.11.7).
REFERENCE_S = 600e-6


class _Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo, hi

    def __add__(self, other: "_Interval") -> "_Interval":
        return _Interval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: "_Interval") -> "_Interval":
        p = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return _Interval(min(p), max(p))


def _loop() -> float:
    acc, k = _Interval(0.0, 0.0), _Interval(0.5, 0.75)
    for i in range(LOOP_STEPS):
        acc = acc + _Interval(i * 1e-6, i * 1e-6 + 1e-3) * k
    return acc.lo


class Sampler:
    """Reference-loop timings taken while ``sampling()`` is active."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        # Thread CPU time: like the process CPU time it scales, it leaves out
        # the time the host withheld the CPU; it also leaves out other
        # threads.  (The process CPU clock moves only in ticks while the
        # interval timer is armed.)  The collector is paused, so that a
        # collection of the program's heap is not timed as a sample.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.thread_time()
            _loop()
            self.samples.append(time.thread_time() - t0)
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the block; the previous samples are dropped."""
        self.samples = []
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, previous)

    def scaled(self, cpu_s: float) -> float:
        """This process's CPU seconds over the block, at the reference speed.

        The samples' own time is taken out.  A sample that took more than
        OUTLIER times the median (a few in a set-up, where one can take
        10 ms) does not count towards the speed.
        """
        if not self.samples:
            return cpu_s
        limit = OUTLIER * statistics.median(self.samples)
        speed = statistics.mean(s for s in self.samples if s <= limit)
        return (cpu_s - sum(self.samples)) * REFERENCE_S / speed
