"""Fault-event recording with deterministic replay signatures.

Every injected fault becomes a :class:`FaultEvent` appended to the run's
:class:`FaultTrace`. Because injector decisions are pure functions of
``(plan seed, kind, round, group, k, client)`` (see ``repro.faults.plan``),
two runs with the same seed produce the same event *set* regardless of the
execution backend. :meth:`FaultTrace.signature` hashes the canonically
sorted events, so the replay fingerprint does not depend on the order in
which events were appended either.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass, field

__all__ = ["FaultEvent", "FaultTrace"]


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault.

    ``kind`` is the injector family (``dropout`` / ``straggler`` /
    ``message_loss`` / ``group_failure``); ``phase`` qualifies dropouts
    (``before`` / ``mid`` / ``after``) and message loss (``lost`` when every
    retry failed, ``retried`` when a retry eventually delivered).
    """

    kind: str
    round: int
    group_id: int
    client_id: int | None = None
    k: int | None = None
    phase: str | None = None
    delay_s: float = 0.0
    retries: int = 0

    def key(self) -> tuple:
        """Total ordering key — canonical across execution backends."""
        return (
            self.round,
            self.group_id,
            -1 if self.k is None else self.k,
            -1 if self.client_id is None else self.client_id,
            self.kind,
            self.phase or "",
        )


@dataclass
class FaultTrace:
    """Thread-safe accumulator of the faults injected during a run."""

    events: list[FaultEvent] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __getstate__(self) -> dict:
        """Pickle/checkpoint support: the lock is process-local, drop it."""
        with self._lock:
            return {"events": list(self.events)}

    def __setstate__(self, state: dict) -> None:
        self.events = list(state["events"])
        self._lock = threading.Lock()

    def record(self, event: FaultEvent) -> None:
        with self._lock:
            self.events.append(event)

    def extend(self, events: list[FaultEvent]) -> None:
        with self._lock:
            self.events.extend(events)

    def __len__(self) -> int:
        return len(self.events)

    def sorted(self) -> list[FaultEvent]:
        """Events in canonical order (independent of recording order)."""
        return sorted(self.events, key=FaultEvent.key)

    def counts(self) -> Counter:
        """Event count per ``kind`` (``faults.injected`` breakdown)."""
        return Counter(e.kind for e in self.events)

    def total_delay_s(self) -> float:
        """Wall-clock seconds all faults added (stragglers + retries)."""
        return float(sum(e.delay_s for e in self.events))

    def signature(self) -> str:
        """Hex digest of the canonically-sorted trace.

        Equal signatures ⇒ the two runs injected exactly the same faults —
        the deterministic-replay contract (same seed, same signature, on
        any backend).
        """
        h = hashlib.sha256()
        for e in self.sorted():
            h.update(
                f"{e.kind}|{e.round}|{e.group_id}|{e.client_id}|{e.k}|"
                f"{e.phase}|{e.delay_s:.9f}|{e.retries}\n".encode()
            )
        return h.hexdigest()
