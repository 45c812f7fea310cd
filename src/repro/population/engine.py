"""`PopulationEngine` — applies a `PopulationModel` at round boundaries.

The engine owns the evolving population state of one trainer: which pool
clients are currently active, the maintained group partition
(:class:`~repro.population.maintenance.OnlineGroupMaintainer`), and the
replayable :class:`~repro.population.trace.PopulationTrace`. Each global
round, :meth:`step` applies — in a fixed canonical order, so replay is
bit-identical on any backend —

1. **departures**: ``model.departing`` decides for all active clients at
   once; those leaving are removed in ascending id (the last active client
   never leaves);
2. **arrivals**: ``model.arrivals`` dormant clients join (lowest dormant
   ids first), greedily placed into their edge's CoV-minimizing group;
3. **label drift**, then **feature corruption**: ``model.drifting`` /
   ``model.corrupting`` decide for all active clients at once, and only the
   (client, dynamic) pairs that fire run per-event code — a firing drift
   relabels a seeded subset of the client's samples in place (``y`` and its
   L row stay consistent — the data the groups train on *is* the drifted
   data);
4. **maintenance**: the MaxCoV watchdog re-groups degraded groups.

All RNG use is derived from the model seed and the site
(``derive_seed(seed, kind, index, round, client)``), never from the
trainer's stream — population dynamics and training randomness compose
independently, and checkpoint resume re-derives drift mutations exactly
from the recorded events.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.grouping.base import Group, Grouper
from repro.population.dynamics import PopulationModel
from repro.population.maintenance import OnlineGroupMaintainer
from repro.population.trace import PopulationEvent, PopulationTrace
from repro.rng import derive_seed, make_rng
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["PopulationEngine", "PopulationStep"]


@dataclass
class PopulationStep:
    """What one round's population pass changed.

    ``groups_changed`` ⇒ the partition or any group's counts changed, so
    sampling probabilities and Eq. (4) weights must be recomputed;
    ``data_changed`` ⇒ client training data mutated (process-pool workers
    hold a stale copy of the store).
    """

    events: list[PopulationEvent] = field(default_factory=list)
    groups_changed: bool = False
    data_changed: bool = False


class PopulationEngine:
    """Evolve one trainer's client population across rounds."""

    def __init__(
        self,
        model: PopulationModel,
        fed,
        grouper: Grouper,
        edge_assignment: list[np.ndarray],
        groups: list[Group],
        telemetry: Telemetry | None = None,
    ):
        self.model = model
        self.fed = fed
        self.telemetry = resolve_telemetry(telemetry)
        pool = fed.num_clients
        edge_of = np.zeros(pool, dtype=np.int64)
        for edge_id, clients in enumerate(edge_assignment):
            edge_of[np.asarray(clients, dtype=np.int64)] = edge_id
        self.trace = PopulationTrace()
        self.maintainer = OnlineGroupMaintainer(
            grouper, fed.L, edge_of, groups=groups, telemetry=self.telemetry
        )
        # One shared array, so store-level introspection always reflects
        # the engine's state.
        self.active = fed.adopt_active(model.initial_active(pool))
        if not self.active.all():
            # A seeded initial subset: deterministic from-scratch partition
            # of just the active clients (keyed off the model seed, so the
            # trainer's RNG stream layout is untouched).
            self.maintainer.full_repartition(
                make_rng(derive_seed(model.seed, "init")),
                active_ids=[int(c) for c in np.flatnonzero(self.active)],
            )
        self._num_active = int(self.active.sum())
        self.groups = self.maintainer.groups()
        #: pristine per-client feature copies, captured lazily the first
        #: time a corruption strikes the client — corruption is always
        #: re-applied *from pristine*, never compounded.
        self._pristine_x: dict[int, np.ndarray] = {}

    @property
    def num_active(self) -> int:
        return self._num_active

    # ---------------------------------------------------------------- stepping
    def step(self, round_idx: int) -> PopulationStep:
        """Apply one round's population events; see the module docstring
        for the canonical order."""
        model = self.model
        events: list[PopulationEvent] = []
        data_changed = False

        active_ids = np.flatnonzero(self.active)
        for cid in active_ids[model.departing(round_idx, active_ids)].tolist():
            if self._num_active <= 1:
                break
            gi = self.maintainer.remove_client(cid)
            self.active[cid] = False
            self._num_active -= 1
            events.append(
                PopulationEvent("leave", round_idx, client_id=cid, group_id=gi)
            )

        joining = model.arrivals(round_idx)
        if joining:
            dormant = np.flatnonzero(~self.active)[:joining]
            for cid in [int(c) for c in dormant]:
                gi = self.maintainer.insert_client(cid)
                self.active[cid] = True
                self._num_active += 1
                events.append(
                    PopulationEvent("join", round_idx, client_id=cid, group_id=gi)
                )

        # Decisions are taken for all active clients at once; per-event
        # Python runs only for the (client, dynamic) pairs that fire, in
        # ascending (client, dynamic) order.
        active_ids = np.flatnonzero(self.active)
        for cid, idx in _fired(model.drifting(round_idx, active_ids), active_ids):
            event = self._apply_drift(idx, model.dynamics[idx], round_idx, cid)
            if event is not None:
                events.append(event)
                data_changed = True
        for cid, idx in _fired(model.corrupting(round_idx, active_ids), active_ids):
            events.append(
                self._apply_corruption(idx, model.dynamics[idx], round_idx, cid)
            )
            data_changed = True

        tel = self.telemetry
        with tel.span("population_maintain", round=round_idx):
            changed = self.maintainer.maintain(
                make_rng(derive_seed(model.seed, "regroup", round_idx)),
                round_idx,
                record=events.append,
            )
        # Corruption perturbs features only — label counts, and hence the
        # sampling probabilities and Eq. (4) weights, are untouched, so it
        # must not trigger a sampler rebuild (which would consume trainer
        # RNG and change the selection stream).
        groups_changed = changed or any(e.kind != "corrupt" for e in events)
        if groups_changed:
            self.groups = self.maintainer.groups()
        self.trace.extend(events)
        if tel.enabled:
            for e in events:
                if e.kind in ("join", "leave", "drift", "corrupt"):
                    tel.inc(f"population.{e.kind}s")
            tel.set_gauge("population.active", float(self._num_active))
            tel.set_gauge("population.groups", float(len(self.groups)))
        return PopulationStep(events, groups_changed, data_changed)

    def _apply_drift(
        self, index: int, dyn, round_idx: int, cid: int
    ) -> PopulationEvent | None:
        """Relabel a seeded subset of the client's samples in place."""
        num_classes = self.fed.num_classes
        num, offset, indices = self.model.drift_sample(
            index, dyn, round_idx, cid, self.fed.client_size(cid), num_classes
        )
        if num == 0:
            return None
        y = self.fed.client_labels(cid)
        y[indices] = (y[indices] + offset) % num_classes
        new_counts = np.bincount(y, minlength=num_classes).astype(np.int64)
        if self.active[cid]:
            self.maintainer.update_client(cid, new_counts)
        else:
            np.copyto(self.fed.L[cid], new_counts)
        return PopulationEvent(
            "drift", round_idx, client_id=cid, index=index, mode=dyn.mode,
            samples=num, offset=offset,
        )

    def _apply_corruption(
        self, index: int, dyn, round_idx: int, cid: int
    ) -> PopulationEvent:
        """Re-noise the client's features from pristine at this round's
        severity (continual test-time corruption).

        The event reuses the trace schema's ``offset`` field to carry the
        severity level, keeping the replay-signature format stable; both
        the severity and the noise are pure in (seed, index, round,
        client), so resume re-derives the identical features.
        """
        x = self.fed.client_features(cid)
        pristine = self._pristine_x.setdefault(cid, x.copy())
        severity = self.model.corruption_severity(index, dyn, round_idx, cid)
        noise = self.model.corruption_noise(
            index, dyn, round_idx, cid, severity, x.shape
        )
        np.copyto(x, pristine + noise)
        return PopulationEvent(
            "corrupt", round_idx, client_id=cid, index=index, mode=dyn.mode,
            samples=int(x.shape[0]), offset=severity,
        )

    def force_repartition(self, round_idx: int) -> None:
        """Full re-partition of the active population (``regroup_every``)."""
        self.maintainer.full_repartition(
            make_rng(derive_seed(self.model.seed, "regroup", round_idx, "forced"))
        )
        self.groups = self.maintainer.groups()
        self.trace.record(PopulationEvent("regroup", round_idx, mode="forced"))

    # ------------------------------------------------------------ checkpointing
    def state_dict(self) -> dict:
        """Everything resume needs beyond the trainer's restored groups:
        the active mask and the full event list (drift re-derivation)."""
        return {
            "active": self.active.copy(),
            "events": list(self.trace.events),
        }

    def load_state_dict(self, state: dict, groups: list[Group]) -> None:
        """Restore population state, replaying drift onto pristine data.

        Drift decisions are pure functions of (seed, site), so each
        recorded drift event re-derives its exact mutation and applies it
        to the client's samples; the maintainer then re-adopts the
        restored groups and verifies them against the replayed label
        matrix — catching resumes over an already-drifted dataset (which
        would double-apply) loudly instead of silently diverging.
        """
        events = list(state["events"])
        mine = list(self.trace.events)
        if mine != events[: len(mine)]:
            raise ValueError(
                "population trace diverged from the checkpoint's — resume "
                "needs a freshly-constructed trainer over pristine data"
            )
        for e in events[len(mine):]:
            if e.kind == "corrupt":
                # Corruption re-noises from pristine, so replaying the
                # events in order leaves exactly the last severity applied.
                dyn = self.model.dynamics[e.index]
                x = self.fed.client_features(e.client_id)
                pristine = self._pristine_x.setdefault(e.client_id, x.copy())
                severity = self.model.corruption_severity(
                    e.index, dyn, e.round, e.client_id
                )
                if severity != e.offset:
                    raise ValueError(
                        f"corruption replay diverged at {e}: the population "
                        "model differs from the checkpointed run"
                    )
                noise = self.model.corruption_noise(
                    e.index, dyn, e.round, e.client_id, severity, x.shape
                )
                np.copyto(x, pristine + noise)
                continue
            if e.kind != "drift":
                continue
            dyn = self.model.dynamics[e.index]
            num_classes = self.fed.num_classes
            num, offset, indices = self.model.drift_sample(
                e.index, dyn, e.round, e.client_id,
                self.fed.client_size(e.client_id), num_classes
            )
            if num != e.samples or offset != e.offset:
                raise ValueError(
                    f"drift replay diverged at {e}: the population model or "
                    "dataset differs from the checkpointed run"
                )
            y = self.fed.client_labels(e.client_id)
            y[indices] = (y[indices] + offset) % num_classes
            np.copyto(
                self.fed.L[e.client_id],
                np.bincount(y, minlength=num_classes).astype(np.int64),
            )
        self.active = self.fed.adopt_active(state["active"])
        self._num_active = int(self.active.sum())
        trace = PopulationTrace()
        trace.extend(events)
        self.trace = trace
        self.maintainer.reset_from_groups(groups, strict=True)
        self.groups = self.maintainer.groups()


def _fired(struck: list, ids: np.ndarray) -> list[tuple[int, int]]:
    """(client, dynamic index) of every hit in a ``PopulationModel.drifting``
    / ``corrupting`` answer, sorted by client then dynamic."""
    return sorted(
        (cid, idx) for idx, _, mask in struck for cid in ids[mask].tolist()
    )
