"""A reference clock that takes the host's speed out of the timings.

On a shared host the machine's speed drifts by a third and more over
minutes.  On a 2-vCPU 2.1 GHz Xeon virtual machine, a fixed pure-Python
loop and every workload with it ran up to 1.5 times slower for minutes
at a time, with no steal time shown and process CPU time tracking wall
time.  Raw seconds therefore spread between runs by more than any
regression worth catching.

The clock times a fixed reference slice (``reference_slice``, a plain
pure-Python arithmetic loop that imports nothing) in the same process,
between the operations of a pass and outside their timing.  Dividing an
operation's seconds by the reference slice's seconds at that moment
gives its time in reference units: the time the operation takes when
the slice takes one unit.  A faster program lowers it; a slower host
moves both alike and leaves it nearly alone.  Of the slices tried (this
loop, a bitmap walk of the semigroup tree, set inserts and lookups over
a few megabytes, and big-int bit tricks), this loop's slowdown tracked
the verify workload's most closely.

A sample times the slice on each CPU the process may run on, pinned
there for the moment, and keeps the mean over CPUs of the fastest of
``REPEATS`` slices on each: the fastest drops a slice hit by a brief
preemption, and the mean covers the CPUs that pool workers and a
migrating process use.  Samples are taken at most every ``EVERY``
seconds, which keeps the clock's cost to a few per cent of an
in-process run and about a seventh of a ``cli`` run.  A pass is divided
by the mean of the samples taken from its start to its end.
"""

from __future__ import annotations

import os
import time

REFERENCE_STEPS = 60000
REFERENCE_SUM = 119999  # the slice's result, checked on every sample
REPEATS = 3
MAX_CPUS = 4  # CPUs sampled, at most
EVERY = 0.2  # seconds between samples, at most


def reference_slice() -> int:
    """A fixed amount of interpreter work: 4 to 6 ms on a 2.1 GHz Xeon virtual machine."""
    total = 0
    for i in range(REFERENCE_STEPS):
        total += i * i % 7
    return total


class RefClock:
    """Reference samples of one run and the seconds spent taking them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._last = float("-inf")

    def sample(self) -> None:
        """Time the slice on each CPU the process may use (pool workers run
        on all of them) and record the mean over CPUs of the fastest of
        REPEATS slices on each."""
        start = time.perf_counter()
        allowed = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in sorted(allowed)[:MAX_CPUS]:
                os.sched_setaffinity(0, {cpu})
                best = float("inf")
                for _ in range(REPEATS):
                    t = time.perf_counter()
                    total = reference_slice()
                    best = min(best, time.perf_counter() - t)
                    if total != REFERENCE_SUM:
                        raise AssertionError(f"reference slice summed to {total}, not {REFERENCE_SUM}")
                per_cpu.append(best)
        finally:
            os.sched_setaffinity(0, allowed)
        self.samples.append(sum(per_cpu) / len(per_cpu))
        self._last = time.perf_counter()
        self.spent += self._last - start

    def maybe_sample(self) -> None:
        """Sample unless the last sample is less than EVERY seconds old."""
        if time.perf_counter() - self._last >= EVERY:
            self.sample()


class NoClock:
    """Stands in for RefClock where no reference is wanted."""

    spent = 0.0

    def maybe_sample(self) -> None:
        pass
