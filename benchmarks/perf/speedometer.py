"""How fast the host runs Python, moment to moment, while a run measures.

On a shared virtual machine the same fixed piece of interpreter work
takes a different time from one second to the next: on the two-vCPU
x86_64 host the committed results come from, a pure-Python loop
swung between 1.2 and 2.3 ms within ten minutes, in phases lasting
from about a second to over a minute.  A simulator operation timed
over such a phase is slow by a similar factor, so raw wall times of
runs a minute apart spread by 10-34% (quartile distance over median),
wider than any useful regression bound.

A :class:`Speedometer` interrupts the main thread every
:data:`PERIOD_S` seconds of wall time (``SIGALRM``) to run
:func:`kernel`, a fixed slice of simulator-like interpreter work, and
keeps each sample's *speed*: :data:`REFERENCE_S` over the kernel's
time.  :meth:`Speedometer.scale` averages the speeds sampled during an
interval; a wall time measured over that interval times its scale is
the time in *reference seconds*, the time the same work takes at the
reference speed.  The samples run on the thread being measured, so
they see the CPU it runs on; a sampling thread would run on the other
CPU whenever the simulation releases the interpreter lock, and did not
follow its speed.  The kernel costs about 2% of the measured time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Tuple

#: Seconds of wall time between samples.
PERIOD_S = 0.05

#: :func:`kernel`'s time at the reference speed, in seconds.  Chosen so
#: that a minute of fig4 gemm points on the two-vCPU x86_64 host of the
#: committed results took as many reference seconds as seconds.  On a
#: host that runs everything twice as fast, the same work takes half the
#: seconds but as many reference seconds.
REFERENCE_S = 3.1e-4


def kernel() -> int:
    """A fixed slice of work like the simulator's inner loops: integer
    hashing and a list-based 8-way LRU over 64 sets."""
    sets: List[List[int]] = [[] for _ in range(64)]
    hits = 0
    x = 12345
    for _ in range(400):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        line = (x >> 6) % 1024
        ways = sets[line & 63]
        tag = line >> 6
        if tag in ways:
            ways.remove(tag)
            hits += 1
        elif len(ways) >= 8:
            ways.pop(0)
        ways.append(tag)
    for i in range(1000):
        x += i * i % 7
    return hits + x


class Speedometer:
    """Samples :func:`kernel` from ``SIGALRM`` between :meth:`start`
    and :meth:`stop`; both must be called from the main thread."""

    def __init__(self) -> None:
        #: ``(perf_counter at the sample's start, speed)``, in order.
        self._samples: List[Tuple[float, float]] = []
        self._previous = None

    def start(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self._samples.append((t0, REFERENCE_S / (time.perf_counter() - t0)))

    def scale(self, t0: float, t1: float) -> float:
        """Mean speed over the samples taken between ``t0`` and ``t1``
        (``perf_counter`` values), or the sample nearest to the
        interval when it holds none; 1.0 before the first sample.

        The mean of speeds, not of kernel times: samples are evenly
        spaced in time, and work done is speed integrated over time.
        """
        samples = self._samples
        if not samples:
            return 1.0
        starts = [s[0] for s in samples]
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t1)
        if lo < hi:
            return statistics.fmean(s[1] for s in samples[lo:hi])
        near = min(samples[max(lo - 1, 0):lo + 1],
                   key=lambda s: min(abs(s[0] - t0), abs(s[0] - t1)))
        return near[1]
