"""Benchmark-side span tracing: rebinding the layers' public callables.

The per-layer numbers of the round ledger come from spans recorded *here*,
around the calls into each layer, not from ``repro.telemetry`` inside the
program — later PRs may move or delete those internal spans, and the
benchmark must keep measuring the same thing when they do.

A :class:`Tracer` replaces a callable at the place its caller looks it up
(a module attribute such as ``repro.core.group.batched_local_rounds``, or
a class attribute such as ``GroupSampler.sample``) with a wrapper that
records one ``(name, start, end, parent)`` span per call. Spans stay in
memory; :meth:`Tracer.self_times` turns them into per-name self time
(span minus the part its direct children cover). :meth:`Tracer.restore`
puts every original object back — the untraced run executes with no
wrapper installed.

Every workload drives the trainer from one thread, so one span stack is
enough. Process-pool workers are separate interpreters the parent cannot
see into; their time shows up as the parent's ``parallel.map`` span.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict

__all__ = ["Tracer"]


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        #: one ``[name, start, end, parent_index]`` per span, in open order
        self.spans: list[list] = []
        #: named counts taken at the same boundaries as the spans
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close span ``index`` (must be the innermost); returns its duration."""
        now = time.perf_counter()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")
        self._stack.pop()
        span = self.spans[index]
        span[2] = now
        return now - span[1]

    # ---------------------------------------------------------------- patching
    def patch(self, owner, attr: str, name: str, on_return=None, count_calls=True) -> None:
        """Rebind ``owner.attr`` to a wrapper recording a ``name`` span.

        ``on_return(tracer, call, result)`` — ``call`` maps parameter names
        to the call's arguments — runs after the span has closed (so its own
        cost lands in the *caller's* self time) and is where counts and
        output checks are taken. Calls are counted under ``name + ".calls"``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        signature = inspect.signature(original)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if count_calls:
                tracer.counts[name + ".calls"] += 1
            if on_return is not None:
                on_return(tracer, signature.bind(*args, **kwargs).arguments, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every patched callable back (last patched, first restored)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attr, original)`` for everything currently rebound."""
        return list(self._patched)

    # --------------------------------------------------------------- analysis
    def self_times(self, roots=None) -> dict[str, float]:
        """Per-name self seconds: each span's duration minus its direct
        children's, summed by name. With ``roots`` (span indices), only the
        spans in those subtrees."""
        child_total = [0.0] * len(self.spans)
        keep = [roots is None] * len(self.spans)
        for root in roots or ():
            keep[root] = True
        for i, (name, start, end, parent) in enumerate(self.spans):
            if end is None:
                raise RuntimeError(f"span {name!r} never closed")
            if parent is not None:
                child_total[parent] += end - start
                # a parent always precedes its children, so one pass marks subtrees
                keep[i] = keep[i] or keep[parent]
        out: defaultdict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            if keep[i]:
                out[name] += (end - start) - child_total[i]
        return dict(out)

    def duration(self, index: int) -> float:
        _, start, end, _ = self.spans[index]
        return end - start
