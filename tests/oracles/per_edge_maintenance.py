"""Edge-by-edge re-partitions — the oracle for ``OnlineGroupMaintainer``'s
``full_repartition`` and scoped regroup.

The production maintainer forms every edge of a re-partition in one
``grouper.group_edges`` call and then adopts the groups in edge order.
:class:`PerEdgeMaintainer` keeps the straightforward loop instead: per
edge, spawn its generator, form it with ``grouper.group``, adopt it and
record its events before moving to the next edge. Everything else is
inherited, so a differential test compares only the loop.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.population import OnlineGroupMaintainer
from repro.population.trace import PopulationEvent
from repro.rng import make_rng, spawn, spawn_many

__all__ = ["PerEdgeMaintainer"]


class PerEdgeMaintainer(OnlineGroupMaintainer):
    """``OnlineGroupMaintainer`` forming one edge at a time."""

    def _form_one(self, edge: int, ids: list[int], rng):
        ids = np.array(ids, dtype=np.int64)
        return self.grouper.group(self.L[ids], ids, edge_id=edge, rng=rng)

    def _scoped_regroup(self, degraded, rng, round_idx: int, record) -> None:
        pool_by_edge: dict[int, list[int]] = defaultdict(list)
        for g in degraded:
            pool_by_edge[g.edge_id].extend(g.members.tolist())
            for cid in g.members.tolist():
                self.group_of.pop(cid)
            self._groups.remove(g)
        rng = make_rng(rng)
        for edge in sorted(pool_by_edge):
            ids = sorted(pool_by_edge[edge])
            child = spawn(rng)
            if len(ids) >= self.min_group_size:
                self._adopt(self._form_one(edge, ids, child))
                if record is not None:
                    record(
                        PopulationEvent(
                            "regroup", round_idx, index=edge, mode="scoped",
                            samples=len(ids),
                        )
                    )
            elif any(t.edge_id == edge for t in self._groups):
                for cid in ids:
                    row = self.L[cid]
                    target = self._best_target(row, edge)
                    self._attach(target, cid, row)
                    self._dirty.discard(target)
                    if record is not None:
                        record(
                            PopulationEvent(
                                "migrate", round_idx, client_id=cid,
                                to_group_id=self._groups.index(target),
                            )
                        )
            else:
                self._leftover(edge, ids)

    def full_repartition(self, rng, active_ids=None) -> None:
        if active_ids is None:
            active_ids = self.active_ids()
        children = spawn_many(make_rng(rng), self.num_edges)
        by_edge: dict[int, list[int]] = defaultdict(list)
        for cid in sorted(int(c) for c in active_ids):
            by_edge[int(self.edge_of_client[cid])].append(cid)
        self._groups = []
        self._dirty = set()
        self.group_of = {}
        for edge in range(self.num_edges):
            ids = by_edge.get(edge, [])
            if len(ids) >= self.min_group_size:
                self._adopt(self._form_one(edge, ids, children[edge]))
            elif ids:
                self._leftover(edge, ids)
