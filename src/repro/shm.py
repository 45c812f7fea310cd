"""Zero-copy dispatch buffers for the process backend.

PR 3 removed the round-invariant payloads (dataset, model factory) from
per-task pickles via one-time worker-state shipping. What still crossed
the pool as pickle bytes every round were the *per-round* arrays: the
global parameter vector out to every worker, and each group's result
vector back. Both are fixed-size float64 vectors — exactly what POSIX
shared memory is for.

This module provides the primitives :mod:`repro.core.executor` builds its
process-backend dispatch on:

* :class:`ShmView` — a tiny picklable descriptor (segment name, offset,
  length). A task carries the descriptor; the worker resolves it to a
  NumPy view over the mapped segment. Pickling a descriptor costs ~100
  bytes regardless of model size.
* :class:`ShmRing` — a parent-owned ring of fixed-size float64 slots in
  one shared segment, with unlink-on-GC so crashed runs don't leak
  ``/dev/shm`` segments.
* :class:`ShmChannel` — the executor-facing pairing: a 2-slot global-params
  ring (double-buffered so a pipelined round t+1 can publish while round
  t's segment views are still alive) and a grow-on-demand results ring
  with one slot per in-flight group task.

Worker-side attachment caches segments by name and works around the
resource-tracker over-tracking of attached segments on Python < 3.13
(attaching registers the segment with the tracker, which would unlink it
when the *worker* exits — out from under the parent): ``track=False``
where available, else an explicit ``resource_tracker.unregister``.

There is no second wire protocol: where a segment cannot be created (no
``/dev/shm``, permissions) the constructors raise ``OSError`` and the
executor turns that into an error pointing at the thread backend.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["ShmView", "ShmRing", "ShmChannel"]

_FLOAT = np.float64
_ITEMSIZE = 8

#: worker-side (and parent-side) segment cache: one attach per segment
#: name per process, reused by every task that references it
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    """Map an existing segment by name, once per process, tracker-safe."""
    seg = _ATTACHED.get(name)
    if seg is None:
        try:
            seg = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track= keyword
            seg = shared_memory.SharedMemory(name=name)
            try:
                import multiprocessing

                # Forked workers share the creator's resource tracker, so
                # the attach-side registration is a no-op against the
                # creator's (sets dedupe) — unregistering here would strip
                # the creator's entry and make its eventual unlink whine.
                # Spawned workers have their *own* tracker, which would
                # unlink the segment out from under the creator when the
                # worker exits; there the unregister is the fix.
                if multiprocessing.get_start_method() != "fork":
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(seg._name, "shared_memory")
            except Exception:
                pass
        _ATTACHED[name] = seg
    return seg


@dataclass(frozen=True)
class ShmView:
    """Picklable handle to one float64 vector inside a shared segment."""

    name: str
    #: offset into the segment, in float64 elements
    offset: int
    #: vector length, in float64 elements
    length: int

    def resolve(self) -> np.ndarray:
        """The live NumPy view in the calling process (attaches on first use)."""
        seg = _attach(self.name)
        return np.ndarray(
            (self.length,), dtype=_FLOAT, buffer=seg.buf,
            offset=self.offset * _ITEMSIZE,
        )


def _release(seg: shared_memory.SharedMemory) -> None:
    """Finalizer: unmap and unlink, tolerating double-release."""
    try:
        seg.close()
    except Exception:
        pass
    try:
        seg.unlink()
    except Exception:
        pass


class ShmRing:
    """A parent-owned shared segment divided into equal float64 slots.

    The parent writes with :meth:`write` / reads with :meth:`view`;
    workers get :meth:`descriptor` handles. The segment is unlinked when
    the ring is closed or garbage-collected, whichever comes first.
    """

    def __init__(self, slot_len: int, slots: int):
        if slot_len < 1 or slots < 1:
            raise ValueError(
                f"need positive slot_len/slots, got {slot_len}/{slots}"
            )
        self.slot_len = int(slot_len)
        self.slots = int(slots)
        self._seg = shared_memory.SharedMemory(
            create=True, size=self.slot_len * self.slots * _ITEMSIZE
        )
        self._finalizer = weakref.finalize(self, _release, self._seg)

    @property
    def name(self) -> str:
        return self._seg.name

    def view(self, slot: int) -> np.ndarray:
        """Parent-side view of one slot (no copy)."""
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range [0, {self.slots})")
        return np.ndarray(
            (self.slot_len,), dtype=_FLOAT, buffer=self._seg.buf,
            offset=slot * self.slot_len * _ITEMSIZE,
        )

    def write(self, slot: int, values: np.ndarray) -> ShmView:
        """Copy ``values`` into a slot; returns the worker-side handle."""
        self.view(slot)[:] = values
        return self.descriptor(slot)

    def descriptor(self, slot: int) -> ShmView:
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range [0, {self.slots})")
        return ShmView(
            name=self.name, offset=slot * self.slot_len, length=self.slot_len
        )

    def close(self) -> None:
        """Unmap and unlink the segment. Idempotent."""
        self._finalizer()


class ShmChannel:
    """Round-dispatch buffers for one executor: params out, results back.

    ``publish_params`` double-buffers the global parameter vector (two
    slots, alternating per round) so a new round's publish never scribbles
    over a vector an in-flight consumer may still be reading.
    ``result_slots`` hands out one slot per group task, growing the result
    ring when a round samples more groups than any round before it —
    between rounds nothing is in flight, so the old ring unlinks safely.
    """

    def __init__(self, num_params: int):
        self.num_params = int(num_params)
        self._params = ShmRing(self.num_params, 2)
        self._cursor = 0
        self._results: ShmRing | None = None

    def publish_params(self, params: np.ndarray) -> ShmView:
        """Write the round's global params; returns the task-side handle."""
        if params.shape != (self.num_params,):
            raise ValueError(
                f"expected shape ({self.num_params},), got {params.shape}"
            )
        self._cursor ^= 1
        return self._params.write(self._cursor, params)

    def result_slots(self, n: int) -> list[ShmView]:
        """Handles for ``n`` group results (one slot per in-flight task)."""
        if self._results is None or self._results.slots < n:
            if self._results is not None:
                self._results.close()
            self._results = ShmRing(self.num_params, max(n, 1))
        return [self._results.descriptor(i) for i in range(n)]

    def result_array(self, slot: int) -> np.ndarray:
        """Parent-side view of a result a worker wrote (no copy)."""
        if self._results is None:
            raise RuntimeError("no result ring allocated yet")
        return self._results.view(slot)

    def close(self) -> None:
        """Unlink both rings. Idempotent."""
        self._params.close()
        if self._results is not None:
            self._results.close()
