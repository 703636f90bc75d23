"""Spans recorded by the benchmark around calls into the program's layers.

A :class:`Tracer` wraps functions the benchmark calls, or that the
program calls through a module, class or instance attribute, so each
call records a span: a name, start and end, the span that was open
when it began, and the request id of the operation that caused it.
Spans stay in memory until :func:`write_spans` writes them out.  No
file of the program is changed; :meth:`Tracer.restore` undoes every
patch.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple)


class Span:
    __slots__ = ("span_id", "parent_id", "name", "request_id",
                 "start_ns", "end_ns", "attrs")

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 request_id: Optional[int], start_ns: int,
                 end_ns: int = 0, attrs: Optional[Dict[str, Any]] = None
                 ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.request_id = request_id
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.span_id, "parent": self.parent_id,
                "name": self.name, "request": self.request_id,
                "start_ns": self.start_ns, "end_ns": self.end_ns,
                **({"attrs": self.attrs} if self.attrs else {})}


class Tracer:
    """Collects spans in memory; one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: int) -> Iterator[None]:
        """Stamp every span opened inside with ``request_id``."""
        previous = getattr(self._local, "request_id", None)
        self._local.request_id = request_id
        try:
            yield
        finally:
            self._local.request_id = previous

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        span = Span(next(self._ids),
                    stack[-1].span_id if stack else None, name,
                    getattr(self._local, "request_id", None),
                    time.perf_counter_ns())
        stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def wrap(self, name: str, func: Callable,
             annotate: Optional[Callable[[Span, tuple, Any], None]] = None
             ) -> Callable:
        """``func`` recording a span per call; ``annotate(span, args,
        result)`` may attach attributes once the call returns."""
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = func(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, result)
                return result

        return traced

    def patch(self, owner: Any, attribute: str, name: str,
              annotate: Optional[Callable[[Span, tuple, Any], None]] = None
              ) -> None:
        """Replace ``owner.attribute`` (module, class or instance) by a
        traced wrapper until :meth:`restore`."""
        self.replace(owner, attribute,
                     self.wrap(name, getattr(owner, attribute), annotate))

    def replace(self, owner: Any, attribute: str, value: Any) -> None:
        """Set ``owner.attribute`` to ``value`` until :meth:`restore`."""
        self._patches.append(
            (owner, attribute, vars(owner).get(attribute, _ABSENT)))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, saved = self._patches.pop()
            if saved is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, saved)

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]


_ABSENT = object()


def write_spans(path: str, header: Dict[str, Any],
                tracers: Sequence[Tracer]) -> None:
    """Write ``header`` and each tracer's spans, sorted by start."""
    passes = [[span.as_dict() for span in
               sorted(tracer.spans, key=lambda span: span.start_ns)]
              for tracer in tracers]
    with open(path, "w") as handle:
        json.dump({**header, "passes": passes}, handle)


def union_length(intervals: Iterable[Tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``[start, end)``."""
    covered = 0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                covered += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        covered += current_end - current_start
    return covered


def self_times(spans: Sequence[Span]) -> Dict[int, int]:
    """Span id -> nanoseconds not covered by any of its child spans.

    Children are clipped to their parent's interval and overlapping
    children (threads) count once, so a parent's self time is never
    negative and the self times of a tree sum to its root's duration
    when children stay inside their parents.
    """
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent_id is not None:
            children[span.parent_id].append((span.start_ns, span.end_ns))
    result = {}
    for span in spans:
        clipped = [(max(start, span.start_ns), min(end, span.end_ns))
                   for start, end in children.get(span.span_id, ())]
        covered = union_length((start, end) for start, end in clipped
                               if end > start)
        result[span.span_id] = span.duration_ns - covered
    return result


#: Spans the benchmark opens around a whole pass, not around a call
#: into the program; their self time is time no layer span accounts for.
BENCH_PREFIX = "bench."


def layer_share(spans: Sequence[Span], wall_s: float) -> float:
    """Share of ``wall_s`` that layer spans account for: the self times
    of every span except the benchmark's own ``bench.*`` spans."""
    own = self_times(spans)
    accounted = sum(own[span.span_id] for span in spans
                    if not span.name.startswith(BENCH_PREFIX))
    return accounted / 1e9 / wall_s


def self_seconds_by_name(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name, in seconds."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.span_id] / 1e9
    return dict(totals)
