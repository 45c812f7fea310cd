"""Nestable wall-clock spans with a thread-safe collector.

A *span* measures one timed region (``round``, ``group``, ``client_update``,
``secagg``, ``backdoor``, ``aggregate``). Spans nest: the tracer keeps a
per-thread stack so a span opened while another is active becomes its
child, giving the trainer's ``round > group > client_update`` hierarchy for
free on the serial path.

Two concurrency concerns are handled explicitly:

* **Other threads** — a thread has its own (empty) span stack, so a span
  opened there cannot see the main thread's ``round`` span. Callers pass
  ``parent_id`` explicitly to stitch the cross-thread edge (the trainer's
  pipeline thread does, for deferred evaluation); the finished-span list
  is lock-protected.
* **Process backend** — workers cannot share a tracer at all. A worker
  records into its own tracer and ships the finished spans back (spans are
  plain picklable dataclasses); :meth:`Tracer.ingest` merges them into the
  parent trace, re-assigning span ids to avoid collisions while preserving
  the worker-internal parent structure.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One finished (or in-flight) timed region."""

    span_id: int
    parent_id: int | None
    name: str
    t_start: float
    t_end: float = 0.0
    attrs: dict = field(default_factory=dict)
    thread: str = ""

    @property
    def duration(self) -> float:
        """Elapsed seconds (0 while the span is still open)."""
        return max(self.t_end - self.t_start, 0.0) if self.t_end else 0.0

    def as_dict(self) -> dict:
        """Flat dict form used by the JSONL exporter."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "duration": self.duration,
            "thread": self.thread,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """Collects spans from any number of threads (and merged processes).

    Parameters
    ----------
    clock:
        Monotonic time source (default ``time.perf_counter``); injectable
        for deterministic duration tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._next_id = 1
        self._tls = threading.local()

    # ------------------------------------------------------------- recording
    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _allocate_ids(self, count: int) -> int:
        """Reserve ``count`` consecutive span ids; returns the first."""
        with self._lock:
            first = self._next_id
            self._next_id += count
        return first

    def current_span_id(self) -> int | None:
        """Id of the innermost open span on *this* thread, if any."""
        stack = self._stack()
        return stack[-1].span_id if stack else None

    @contextmanager
    def span(self, name: str, parent_id: int | None = None, **attrs):
        """Open a span; closes (and records) it when the block exits.

        ``parent_id`` overrides the thread-local nesting — pass the parent's
        id when the span runs on a different thread than its parent.
        """
        stack = self._stack()
        if parent_id is None and stack:
            parent_id = stack[-1].span_id
        span = Span(
            span_id=self._allocate_ids(1),
            parent_id=parent_id,
            name=name,
            t_start=self._clock(),
            attrs=attrs,
            thread=threading.current_thread().name,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.t_end = self._clock()
            stack.pop()
            with self._lock:
                self._finished.append(span)

    def ingest(
        self, spans: Iterable[Span], parent_id: int | None = None
    ) -> list[Span]:
        """Merge spans recorded by another tracer (a process-pool worker).

        Ids are re-assigned from this tracer's counter so merged spans never
        collide with local ones; parent links *within* the ingested batch
        are remapped, and batch roots are attached under ``parent_id``.
        Returns the re-identified spans as stored.
        """
        spans = list(spans)
        if not spans:
            return []
        first = self._allocate_ids(len(spans))
        mapping = {
            span.span_id: first + offset for offset, span in enumerate(spans)
        }
        merged = [
            replace(
                span,
                span_id=mapping[span.span_id],
                parent_id=mapping.get(span.parent_id, parent_id),
                attrs=dict(span.attrs),
            )
            for span in spans
        ]
        with self._lock:
            self._finished.extend(merged)
        return merged

    # --------------------------------------------------------------- queries
    def spans(self) -> list[Span]:
        """All finished spans, ordered by start time."""
        with self._lock:
            return sorted(self._finished, key=lambda s: (s.t_start, s.span_id))

    def roots(self) -> list[Span]:
        """Finished spans with no recorded parent."""
        known = {s.span_id for s in self.spans()}
        return [s for s in self.spans() if s.parent_id not in known]

    def children(self, span_id: int) -> list[Span]:
        """Finished direct children of ``span_id``, ordered by start time."""
        return [s for s in self.spans() if s.parent_id == span_id]

    def totals_by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (count, total seconds)`` aggregate over all spans."""
        totals: dict[str, tuple[int, float]] = {}
        for span in self.spans():
            count, total = totals.get(span.name, (0, 0.0))
            totals[span.name] = (count + 1, total + span.duration)
        return totals

    def __len__(self) -> int:
        with self._lock:
            return len(self._finished)
