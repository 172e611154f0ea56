"""In-memory wall-clock spans recorded around calls into the program.

A :class:`Tracer` keeps one :class:`Span` per timed call (name, start,
end, parent span, run id) plus named counters, all in memory; the
benchmark writes them out once the run ends.  Spans nest per thread.
A thread with no open span parents its spans on the tracer's *ambient*
span, which is how work a job-manager worker thread does for a job is
attributed to the client span that waits for it.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans (:func:`self_times`); overlapping
children are merged first, so concurrent children are not counted
twice.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span and counter recorder; ``enabled=False`` makes every call a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        #: Run id stamped on new spans (the benchmark sets it per job).
        self.run = 0
        #: Parent for spans opened on a thread that has none open.
        self.ambient: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, ambient: bool = False):
        """Context manager timing one call; ``ambient=True`` also makes
        the span the parent of spans other threads open meanwhile."""
        if not self.enabled:
            return nullcontext()
        return self._span(name, ambient)

    @contextmanager
    def _span(self, name: str, ambient: bool) -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1] if stack else self.ambient
        span_id = next(self._ids)
        stack.append(span_id)
        if ambient:
            self.ambient = span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            if ambient:
                self.ambient = parent
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counters[name] += amount

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Record nothing inside the block (the benchmark's own checks)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def to_dict(self) -> dict:
        return {
            "spans": [asdict(span) for span in self.spans],
            "counters": dict(self.counters),
        }


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals if end > lo and start < hi
    )
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = lo
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children[span.id], span.start, span.end)
        for span in spans
    }


def self_time_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name."""
    spans = list(spans)
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += own[span.id]
    return dict(totals)
