"""Host pace: seconds measured on a shared host, rescaled to one speed.

The benchmark runs on a few cores of a shared host.  Other tenants slow
those cores by 10 to 70% for stretches of a fraction of a second to
minutes, so the same work takes different wall times from one minute to
the next, and a median over a run does not cancel a slow minute.

A *probe* times a fixed loop of pure-Python integer work a few times
and keeps the median.  The benchmark probes at the start of an
operation, at points inside it (between requests, chunks or shards) and
at its end.  Each stretch between two probes is scaled by
:data:`REFERENCE_PROBE_S` over the mean of those two probes, and an
operation's *paced* seconds are the sum: what it would have taken with
the host running the probe at the reference speed.  Probe time is in
neither the wall nor the paced seconds.  The program under test never
runs the probe, so a change to the program moves paced seconds as it
moves wall seconds; only the host's drift cancels.  The cores drift
independently; a probe measures the cores it ran on.

Paced seconds assume the operation slows as the probe does: both are
CPU-bound Python.  A wait on a timer does not speed up or slow down with
the host, so it is reported in wall seconds (see ``solve.py``).
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Iterations of the probe's loop, and loops per probe (their median:
#: one loop that other work interrupted moves it little).
PROBE_ITERATIONS = 50_000
PROBE_LOOPS = 8
#: A probe's seconds at the reference speed: about its fastest reading
#: on the 2-core host the bounds were set on (CPython 3.11, x86-64).
REFERENCE_PROBE_S = 0.003
#: Shortest stretch between probes inside an operation.
SEGMENT_S = 0.2


def _loop(iterations: int) -> int:
    total = 0
    for value in range(iterations):
        total += value * value % 7
    return total


def _median_loop() -> float:
    loops = []
    for _ in range(PROBE_LOOPS):
        started = time.perf_counter()
        _loop(PROBE_ITERATIONS)
        loops.append(time.perf_counter() - started)
    return statistics.median(loops)


def probe(cores: Sequence[int] = ()) -> float:
    """Median seconds of one probe loop right now, on the core this
    thread runs on; with ``cores``, the mean over them, pinning this
    thread to each in turn."""
    if not cores:
        return _median_loop()
    allowed = os.sched_getaffinity(0)
    readings = []
    try:
        for core in cores:
            os.sched_setaffinity(0, {core})
            readings.append(_median_loop())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(readings)


def all_cores() -> List[int]:
    """The cores this process may run on."""
    return sorted(os.sched_getaffinity(0))


def scale(before: float, after: float) -> float:
    """Paced seconds per wall second between probes ``before`` and
    ``after``."""
    return REFERENCE_PROBE_S / ((before + after) / 2)


class Pace:
    """Paced timing of consecutive operations; an operation's last probe
    is the next one's first.

    Work in this process alone is probed on the core it runs on.  Work
    spread over processes (a server and its clients) may run on any
    core, so it is probed on each of ``cores`` and scaled by their mean.
    """

    def __init__(self, cores: Sequence[int] = ()) -> None:
        self.cores = tuple(cores)
        self.probes: List[float] = [probe(self.cores)]
        #: Seconds spent probing since construction.
        self.probing = 0.0
        self._segment_start = time.perf_counter()
        self._wall = self._paced = 0.0

    def reprobe(self) -> None:
        """Probe again: the next operation does not follow the last
        probe directly."""
        started = time.perf_counter()
        self.probes.append(probe(self.cores))
        self.probing += time.perf_counter() - started

    def begin(self) -> None:
        """Start timing an operation (and its first stretch)."""
        self._segment_start = time.perf_counter()
        self._wall = self._paced = 0.0

    def mark(self, at_least: float = 0.0) -> Optional[float]:
        """End the current stretch with a probe, unless it is shorter
        than ``at_least`` seconds; returns its scale, or None."""
        started = time.perf_counter()
        seconds = started - self._segment_start
        if seconds < at_least:
            return None
        before = self.probes[-1]
        self.probes.append(probe(self.cores))
        segment_scale = scale(before, self.probes[-1])
        self._wall += seconds
        self._paced += seconds * segment_scale
        self._segment_start = time.perf_counter()
        self.probing += self._segment_start - started
        return segment_scale

    def totals(self) -> Tuple[float, float]:
        """Wall and paced seconds of the operation's stretches so far
        (up to its last probe)."""
        return self._wall, self._paced

    def time(self, operation: Callable[[], T]) -> Tuple[T, float, float]:
        """Run ``operation``; returns its result, wall and paced seconds.
        ``operation`` may call :meth:`mark` between its steps."""
        self.begin()
        result = operation()
        self.mark()
        wall, paced = self.totals()
        return result, wall, paced
