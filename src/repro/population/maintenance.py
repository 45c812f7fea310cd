"""Online CoV-group maintenance under churn and drift.

Formation (:class:`repro.grouping.CoVGrouping`) partitions each edge once;
this module keeps that partition valid afterwards, so a dynamic population
never needs a from-scratch re-partition for a single membership change.
A maintained group is a plain :class:`~repro.grouping.Group` — members in
insertion order (it fixes training order, so it is part of replay) and the
integer label counts — plus a dirty mark for the watchdog:

* :meth:`OnlineGroupMaintainer.insert_client` — O(G·m) greedy placement
  into the CoV-minimizing group of the client's edge;
* :meth:`OnlineGroupMaintainer.remove_client` /
  :meth:`~OnlineGroupMaintainer.update_client` — O(m) count updates;
* :meth:`OnlineGroupMaintainer.migrate_client` — remove + best re-insert.

Placement is exact. A candidate group's S1 = Σ_j c_j and S2 = Σ_j c_j² are
integers (int64 sums, exact while a group holds under ~3·10⁹ samples),
and CoV² = m·S2/S1² − 1 and eq27² = S2/S1 − S1/m are both monotone in an
integer fraction, so candidates are compared by cross-multiplying Python
ints — no float rounding, and no bound on the products — and replay is
bit-identical on any backend. Exact ties go to the first group in
position order.

A MaxCoV-degradation watchdog (:meth:`~OnlineGroupMaintainer.maintain`)
runs after each round's population events: groups whose membership or
counts changed ("dirty") and now violate the size floor or exceed
``degrade_factor × MaxCoV`` are re-grouped *scoped* — only the degraded
groups' clients are re-partitioned (FlexCFL-style rescheduling), with
undersized leftovers folded into surviving groups as migrations — falling
back to a full re-partition when the degraded set is the majority. Static
partitions are never churned: the watchdog reacts to changes, not to
standing CoV values, so it cannot thrash.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from repro.grouping.base import Group, Grouper
from repro.grouping.cov import cov_of_counts, cov_paper_eq27
from repro.population.trace import PopulationEvent
from repro.rng import make_rng, spawn_many
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["OnlineGroupMaintainer"]


class OnlineGroupMaintainer:
    """Keep a CoV-grouped partition valid under churn and drift.

    Parameters
    ----------
    grouper:
        The formation algorithm used for (re-)partitions. Its
        ``min_group_size`` / ``max_cov`` / ``cov_metric`` attributes (the
        :class:`repro.grouping.CoVGrouping` knobs) drive placement and the
        watchdog; groupers without them fall back to permissive defaults.
    label_matrix:
        The live (clients × classes) integer label matrix L — held by
        reference, *not* copied: :meth:`update_client` writes drifted
        counts back into it so every consumer (groupers, samplers) sees
        one consistent view.
    edge_of_client:
        Edge-server id per pool client; groups only ever form within one
        edge (Algorithm 1's per-edge formation).
    groups:
        The current partition to adopt (e.g. from
        :func:`repro.grouping.group_clients_per_edge`).
    degrade_factor:
        Watchdog tolerance: a dirty group triggers re-grouping when its
        CoV exceeds ``degrade_factor × max_cov`` (hysteresis above the
        formation target so single-client noise does not thrash).
    """

    def __init__(
        self,
        grouper: Grouper,
        label_matrix: np.ndarray,
        edge_of_client: np.ndarray,
        groups: list[Group] | tuple = (),
        telemetry: Telemetry | None = None,
        degrade_factor: float = 1.25,
    ):
        if label_matrix.ndim != 2:
            raise ValueError(
                f"label_matrix must be 2-D (clients × classes), got shape "
                f"{label_matrix.shape}"
            )
        if not np.issubdtype(label_matrix.dtype, np.integer):
            raise ValueError(
                "online maintenance needs an integer label matrix (exact "
                f"placement), got dtype {label_matrix.dtype}"
            )
        if degrade_factor < 1.0:
            raise ValueError(
                f"degrade_factor must be >= 1, got {degrade_factor}"
            )
        self.grouper = grouper
        self.L = label_matrix
        self.edge_of_client = np.asarray(edge_of_client, dtype=np.int64)
        self.num_edges = (
            int(self.edge_of_client.max()) + 1 if self.edge_of_client.size else 1
        )
        self.telemetry = resolve_telemetry(telemetry)
        self.degrade_factor = float(degrade_factor)
        self.min_group_size = int(
            getattr(grouper, "min_group_size", getattr(grouper, "group_size", 1))
        )
        self.max_cov = float(getattr(grouper, "max_cov", math.inf))
        self.cov_metric = getattr(grouper, "cov_metric", "cov")
        self._groups: list[Group] = []
        #: groups changed since the last watchdog pass
        self._dirty: set[Group] = set()
        self.group_of: dict[int, Group] = {}
        if groups:
            self.reset_from_groups(groups)

    # ------------------------------------------------------------- inspection
    @property
    def num_groups(self) -> int:
        return len(self._groups)

    def active_ids(self) -> list[int]:
        """The maintained client ids, ascending."""
        return sorted(self.group_of)

    def groups(self) -> list[Group]:
        """Materialize the maintained partition as renumbered Groups."""
        return [
            Group(gid, g.edge_id, g.members.copy(), g.label_counts.copy())
            for gid, g in enumerate(self._groups)
        ]

    def reset_from_groups(self, groups: list[Group] | tuple, strict: bool = True) -> None:
        """Adopt an externally formed partition (initial groups, restore).

        With ``strict`` every group's stored ``label_counts`` must equal
        the sum of its members' live L rows — the guard that catches
        resuming drifted populations over an already-mutated dataset
        (drift replay would double-apply).
        """
        adopted: list[Group] = []
        owner: dict[int, Group] = {}
        for g in groups:
            members = np.array(g.members, dtype=np.int64)
            own = Group(-1, int(g.edge_id), members, self.L[members].sum(axis=0, dtype=np.int64))
            if strict and not np.array_equal(own.label_counts, g.label_counts):
                raise ValueError(
                    f"group {g.group_id} label_counts disagree with the live "
                    "label matrix — the dataset was mutated outside this "
                    "maintainer (e.g. resuming a drifted population over "
                    "non-pristine client data)"
                )
            for cid in members.tolist():
                if cid in owner:
                    raise ValueError(f"client {cid} appears in two groups")
                owner[cid] = own
            adopted.append(own)
        self._groups = adopted
        self._dirty = set()
        self.group_of = owner

    # ------------------------------------------------------------ primitives
    def _new_group(self, edge_id: int) -> Group:
        empty = Group(-1, edge_id, np.empty(0, np.int64), np.zeros(self.L.shape[1], np.int64))
        self._groups.append(empty)
        return empty

    def _attach(self, g: Group, cid: int, row: np.ndarray) -> None:
        g.label_counts += row
        g.members = np.append(g.members, cid)
        self._dirty.add(g)
        self.group_of[cid] = g

    def _detach(self, cid: int) -> int:
        """Take ``cid`` out of its group, pruning the group if it empties;
        returns the group's position before the removal."""
        g = self.group_of.pop(cid)
        pos = self._groups.index(g)
        g.members = g.members[g.members != cid]
        g.label_counts -= self.L[cid]
        if g.members.size:
            self._dirty.add(g)
        else:
            del self._groups[pos]
            self._dirty.discard(g)
        return pos

    def _best_target(
        self, row: np.ndarray, edge_id: int, exclude: Group | None = None
    ) -> Group | None:
        """The edge's group whose CoV with ``row`` added is smallest (first
        in position order on exact ties), or None if the edge has none."""
        cands = [g for g in self._groups if g.edge_id == edge_id and g is not exclude]
        if not cands:
            return None
        c = np.stack([g.label_counts for g in cands]) + row
        m = self.L.shape[1]
        eq27 = self.cov_metric == "eq27"
        best, best_num, best_den = cands[0], None, 1
        for g, s1, s2 in zip(cands, c.sum(axis=1).tolist(), (c * c).sum(axis=1).tolist()):
            if s1 == 0:
                continue  # empty counts: CoV = ∞, never strictly better
            # cov orders by S2/S1²; eq27 by (m·S2 − S1²)/S1 (the ÷m drops out)
            num, den = (m * s2 - s1 * s1, s1) if eq27 else (s2, s1 * s1)
            if best_num is None or num * best_den < best_num * den:
                best, best_num, best_den = g, num, den
        return best

    # ------------------------------------------------------------ operations
    def insert_client(self, client_id: int) -> int:
        """Place an arriving client into the CoV-minimizing group of its
        edge (a new singleton group if the edge has none); returns the
        group position."""
        cid = int(client_id)
        if cid in self.group_of:
            raise ValueError(f"client {cid} is already maintained")
        row = self.L[cid]
        edge = int(self.edge_of_client[cid])
        target = self._best_target(row, edge)
        if target is None:
            target = self._new_group(edge)
        self._attach(target, cid, row)
        if self.telemetry.enabled:
            self.telemetry.inc("population.inserts")
        return self._groups.index(target)

    def remove_client(self, client_id: int) -> int:
        """Remove a departing client (O(m) count update); empty groups
        are pruned. Returns the group position it left."""
        cid = int(client_id)
        if cid not in self.group_of:
            raise ValueError(f"client {cid} is not maintained")
        pos = self._detach(cid)
        if self.telemetry.enabled:
            self.telemetry.inc("population.removals")
        return pos

    def update_client(self, client_id: int, new_counts: np.ndarray) -> None:
        """Apply a label-drift count change: O(m) delta on the owning
        group's counts, then write the new row back into L."""
        cid = int(client_id)
        g = self.group_of.get(cid)
        new = np.asarray(new_counts, dtype=np.int64)
        if new.shape != self.L[cid].shape:
            raise ValueError(
                f"new_counts shape {new.shape} != {self.L[cid].shape}"
            )
        if g is not None:
            g.label_counts += new - self.L[cid]
            self._dirty.add(g)
        np.copyto(self.L[cid], new)

    def migrate_client(self, client_id: int) -> tuple[int, int] | None:
        """Move a client to the best *other* group of its edge; returns
        (from, to) group positions, or None if its edge has no other
        group."""
        cid = int(client_id)
        edge = int(self.edge_of_client[cid])
        target = self._best_target(self.L[cid], edge, exclude=self.group_of[cid])
        if target is None:
            return None
        src = self._detach(cid)
        self._attach(target, cid, self.L[cid])
        if self.telemetry.enabled:
            self.telemetry.inc("population.migrations")
        return src, self._groups.index(target)

    # -------------------------------------------------------------- watchdog
    def _is_degraded(self, g: Group) -> bool:
        if g.size < self.min_group_size and len(self._groups) > 1:
            return True
        if not math.isfinite(self.max_cov):
            return False
        metric = cov_paper_eq27 if self.cov_metric == "eq27" else cov_of_counts
        return float(metric(g.label_counts)) > self.max_cov * self.degrade_factor

    def maintain(self, rng, round_idx: int, record=None) -> bool:
        """The MaxCoV-degradation watchdog — run once per round after the
        round's population events.

        Dirty groups (membership or counts changed since the last pass)
        that now violate the size floor or exceed
        ``degrade_factor × MaxCoV`` are re-grouped: *scoped* over just the
        degraded groups' clients when they are a minority, a *full*
        re-partition otherwise. ``record``, if given, receives one
        :class:`PopulationEvent` per regroup/migration. Returns True when
        anything (counts or structure) changed since the last pass, i.e.
        whether samplers must be rebuilt.
        """
        changed = bool(self._dirty)
        degraded = [g for g in self._groups if g in self._dirty and self._is_degraded(g)]
        self._dirty.clear()
        if not degraded:
            return changed
        tel = self.telemetry
        if 2 * len(degraded) >= len(self._groups):
            pool = sum(g.size for g in degraded)
            self.full_repartition(rng)
            if record is not None:
                record(
                    PopulationEvent(
                        "regroup", round_idx, mode="full", samples=pool
                    )
                )
            if tel.enabled:
                tel.inc("population.regroups_full")
                tel.observe("population.regroup_clients", float(pool))
        else:
            self._scoped_regroup(degraded, rng, round_idx, record)
            if tel.enabled:
                tel.inc("population.regroups_scoped")
        return True

    def _scoped_regroup(
        self, degraded: list[Group], rng, round_idx: int, record
    ) -> None:
        """Re-partition only the degraded groups' clients, per edge.

        Edges whose degraded pool still meets MinGS re-run the grouper on
        it; smaller pools fold member-by-member into the edge's surviving
        groups (recorded as migrations), or stay one leftover group when
        the edge has no survivor.
        """
        tel = self.telemetry
        pool_by_edge: dict[int, list[int]] = defaultdict(list)
        for g in degraded:
            pool_by_edge[g.edge_id].extend(g.members.tolist())
            for cid in g.members.tolist():
                self.group_of.pop(cid)
            self._groups.remove(g)
        pools = {edge: sorted(pool_by_edge[edge]) for edge in sorted(pool_by_edge)}
        # One child per pool edge in sorted order. Every regrouped edge is
        # formed first, then adopted in that order, so a later edge's
        # migrations see the same group positions.
        children = dict(zip(pools, spawn_many(make_rng(rng), len(pools))))
        formed = self._form_edges(pools, children)
        for edge, ids in pools.items():
            if edge in formed:
                self._adopt(formed[edge])
                if record is not None:
                    record(
                        PopulationEvent(
                            "regroup", round_idx, index=edge, mode="scoped",
                            samples=len(ids),
                        )
                    )
                if tel.enabled:
                    tel.observe("population.regroup_clients", float(len(ids)))
            elif any(t.edge_id == edge for t in self._groups):
                for cid in ids:
                    row = self.L[cid]
                    target = self._best_target(row, edge)
                    self._attach(target, cid, row)
                    self._dirty.discard(target)  # accepted by this pass
                    if record is not None:
                        record(
                            PopulationEvent(
                                "migrate", round_idx, client_id=cid,
                                to_group_id=self._groups.index(target),
                            )
                        )
                    if tel.enabled:
                        tel.inc("population.migrations")
            else:
                self._leftover(edge, ids)

    def _leftover(self, edge_id: int, ids: list[int]) -> None:
        """Keep ``ids`` together as one clean group (an edge below MinGS)."""
        leftover = self._new_group(edge_id)
        for cid in ids:
            self._attach(leftover, cid, self.L[cid])
        self._dirty.discard(leftover)

    def full_repartition(self, rng, active_ids: list[int] | None = None) -> None:
        """From-scratch per-edge re-partition of the maintained clients.

        Mirrors :func:`repro.grouping.group_clients_per_edge` exactly — one
        spawned child RNG per pool edge, ascending client order, every
        edge formed by one ``group_edges`` call — so when
        every edge's active count meets MinGS the result is bit-identical
        to a fresh formation over the same label matrix. Edges below the
        floor keep their clients as one leftover group (a fresh formation
        would reject them — see ``CoVGrouping.group``'s validation).
        """
        if active_ids is None:
            active_ids = self.active_ids()
        rng = make_rng(rng)
        children = spawn_many(rng, self.num_edges)
        by_edge: dict[int, list[int]] = defaultdict(list)
        for cid in sorted(int(c) for c in active_ids):
            by_edge[int(self.edge_of_client[cid])].append(cid)
        formed = self._form_edges(by_edge, children)
        self._groups = []
        self._dirty = set()
        self.group_of = {}
        for edge in range(self.num_edges):
            if edge in formed:
                self._adopt(formed[edge])
            elif by_edge[edge]:
                self._leftover(edge, by_edge[edge])

    def _form_edges(self, pools, children) -> dict[int, list[Group]]:
        """Form every edge whose pool meets MinGS in one
        ``grouper.group_edges`` call, each with its own child generator."""
        edges = sorted(e for e, ids in pools.items() if len(ids) >= self.min_group_size)
        per_edge = self.grouper.group_edges(
            self.L, [pools[e] for e in edges], [children[e] for e in edges], edges
        )
        return dict(zip(edges, per_edge))

    def _adopt(self, formed: list[Group]) -> None:
        """Take ownership of freshly formed Groups (clean)."""
        for g in formed:
            for cid in g.members.tolist():
                self.group_of[cid] = g
            self._groups.append(g)

    def __repr__(self) -> str:
        return (
            f"OnlineGroupMaintainer(groups={self.num_groups}, "
            f"clients={len(self.group_of)}, grouper={self.grouper!r})"
        )
