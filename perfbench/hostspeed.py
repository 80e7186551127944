"""Host-speed normalisation of CPU timings taken on a shared host.

On a virtual machine shared with other tenants the same single-threaded
Python code runs at very different speeds from one minute to the next:
on a 2-vCPU Xeon host the benchmark's workloads took up to 1.6 times
longer in slow spells, in CPU seconds as much as in elapsed seconds
(the guest sees no steal time).  Medians over repetitions cannot remove
a spell that outlasts a run.

A :class:`HostSpeed` probe samples the host's speed *while* a phase
runs: a ``SIGPROF`` interval timer interrupts the phase every
``INTERVAL_S`` of process CPU time, and the handler times one slice of
fixed reference work (scattered attribute updates over a small object
pool plus heap pushes and pops, the operations the simulator spends its
time on).  The slice runs once untimed first, so the timed run finds
its pool in cache, and with the garbage collector paused, so a
collection of the phase's objects is not charged to the slice.  The
phase's CPU seconds, less the samples' own, divided by the mean slice
time and multiplied by ``NOMINAL_SLICE_S`` (the slice time in the same
host's fast spells), give the phase's seconds at that nominal speed.

The reference work is the benchmark's own and never touches the
program, so a change to the program moves the result in full.  The
scaling is not exact, since the slice and the program need not slow
down alike, but on that host it cut the spread of a workload's per-run
medians across ten seeds from about 0.2 to 0.03-0.04 (quartile distance
over median).

Usage::

    probe = HostSpeed().start()
    ...                      # the phase
    seconds = probe.stop()   # CPU seconds at the nominal host speed
"""

from __future__ import annotations

import gc
import heapq
import signal
import time

__all__ = ["HostSpeed", "reference_work"]

#: Process CPU seconds between samples (the kernel fires ``SIGPROF`` on
#: its 10 ms tick at best).
INTERVAL_S = 0.02
#: Iterations of reference work per sample.
SLICE_ITERS = 400
#: Seconds a timed slice takes inside the workloads in the 2-vCPU Xeon
#: host's fast spells (0.25 ms in an idle process).
NOMINAL_SLICE_S = 3.0e-4

_POOL_BITS = 14


class _Cell:
    __slots__ = ("v", "n")

    def __init__(self, v: float):
        self.v = v
        self.n = 0


_POOL = [_Cell(i * 0.618) for i in range(1 << _POOL_BITS)]


def reference_work() -> float:
    """One slice of fixed reference work; returns a checksum."""
    pool, mask = _POOL, (1 << _POOL_BITS) - 1
    heap: list = []
    j = 0
    for i in range(SLICE_ITERS):
        j = (j * 1103515245 + 12345) & mask
        cell = pool[j]
        cell.n += 1
        heapq.heappush(heap, (cell.v * cell.n, i))
    total = 0.0
    while heap:
        total += heapq.heappop(heap)[0]
    return total


class HostSpeed:
    """Samples the host's speed over one phase of this process."""

    def __init__(self) -> None:
        self.samples = 0
        #: seconds of all sampling, and of the timed slices alone
        self.sample_s = 0.0
        self.slice_s = 0.0
        self.cpu_start = 0.0

    def _sample(self, *_signal) -> None:
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_work()
        # Timed with the high-resolution clock: the process CPU clock can
        # stand still across a slice this short on a virtual machine.
        t1 = time.perf_counter()
        reference_work()
        t2 = time.perf_counter()
        if collecting:
            gc.enable()
        self.slice_s += t2 - t1
        self.sample_s += t2 - t0
        self.samples += 1

    def start(self, cpu_start: float | None = None) -> "HostSpeed":
        """Begin the phase (at ``cpu_start`` process CPU seconds, by
        default now) and arm the sampling timer."""
        self.cpu_start = (time.process_time() if cpu_start is None
                          else cpu_start)
        self._sample()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> float:
        """End the phase; its CPU seconds at the nominal host speed."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._sample()
        self.cpu_s = time.process_time() - self.cpu_start
        return self.normalized(self.cpu_s)

    @property
    def slowdown(self) -> float:
        """Mean slice time over the nominal one (1.0 in a fast spell)."""
        return self.slice_s / self.samples / NOMINAL_SLICE_S

    def normalized(self, cpu_s: float) -> float:
        """``cpu_s`` (samples included) without the samples, at the
        nominal host speed."""
        return (cpu_s - self.sample_s) / self.slowdown
