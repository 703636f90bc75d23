"""The benchmark's own arithmetic: percentiles, medians, outcome counts.

Kept free of any import from the program under test so its tests run
without it.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

#: A percentile is trusted only when at least this many samples lie
#: beyond it; otherwise it is one or two outliers.
MIN_TAIL = 10


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the count of samples beyond it.

    The rank is ``ceil(q/100 * n)`` (1-based), so for 1000 samples the
    99th percentile is the 990th smallest and 10 samples lie beyond it.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = _rank(q, len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def _rank(q: float, n: int) -> int:
    # q * n first: exact for integer q, so 99 * 1000 / 100 is exactly 990.
    return max(1, math.ceil(q * n / 100))


def pass_percentile(passes: Sequence[Sequence[float]], q: float
                    ) -> Tuple[float, int]:
    """Median over passes of each pass's ``q``-th percentile, and the
    fewest samples beyond it in any pass.

    The host's speed drifts within a run; a slow stretch inflates a
    percentile pooled over every pass, but moves the median pass little.
    """
    found = [percentile(latencies, q) for latencies in passes]
    return (median([value for value, _ in found]),
            min(beyond for _, beyond in found))


def samples_for_tail(q: float, tail: int = MIN_TAIL) -> int:
    """Smallest sample count whose ``q``-th percentile has ``tail`` beyond."""
    n = tail + 1
    while n - _rank(q, n) < tail:
        n += 1
    return n


def repeat_within(seconds: float, once: Callable[[], float]) -> List[float]:
    """Call ``once`` (it returns the seconds it took) while the median
    call still fits in ``seconds``; always at least once."""
    walls: List[float] = []
    started = time.perf_counter()
    while True:
        walls.append(once())
        if time.perf_counter() - started + median(walls) > seconds:
            return walls


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


@dataclass
class Tally:
    """Outcome counts of one workload's operations.

    Every attempted operation lands in exactly one bucket: ``ok`` (the
    output matched its reference), ``refused`` (the program declined:
    connection refused, 429 or 503), ``failed`` (an error or a status
    other than success) or ``wrong`` (success, but the output differed
    from its reference).
    """

    ok: int = 0
    refused: int = 0
    failed: int = 0
    wrong: int = 0

    @property
    def attempted(self) -> int:
        return self.ok + self.refused + self.failed + self.wrong

    @property
    def errors(self) -> int:
        return self.refused + self.failed + self.wrong

    @property
    def error_share(self) -> float:
        """Failed, refused or wrong outputs over attempted operations."""
        return ratio(self.errors, self.attempted)

    def merge(self, other: "Tally") -> "Tally":
        return Tally(self.ok + other.ok, self.refused + other.refused,
                     self.failed + other.failed, self.wrong + other.wrong)


#: HTTP statuses that mean the service declined the request.
REFUSED_STATUSES = frozenset([429, 503])


def classify_http(tally: Tally, status: int, body: bytes,
                  expected: bytes) -> None:
    """Count one HTTP response against its expected body."""
    if status == 200:
        if body == expected:
            tally.ok += 1
        else:
            tally.wrong += 1
    elif status in REFUSED_STATUSES:
        tally.refused += 1
    else:
        tally.failed += 1
