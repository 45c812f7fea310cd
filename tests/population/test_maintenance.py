"""OnlineGroupMaintainer: exact counts, exact placement, bit-identical
re-partitions.

The contract of this subsystem: after *any* sequence of online
insert/remove/update/migrate operations, the maintained label counts equal
what a from-scratch recomputation over the mutated label matrix gives —
exactly, because all arithmetic is integer — placement picks the group an
exact-rational oracle (``tests/oracles/placement.py``) picks, and
``full_repartition`` is bit-identical to
:func:`repro.grouping.group_clients_per_edge` with a fresh grouper over
the same matrix and seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grouping import CoVGrouping, Group, group_clients_per_edge
from repro.population import OnlineGroupMaintainer
from repro.rng import make_rng
from tests.oracles.placement import best_placement


def _label_matrix(rng: np.random.Generator, n: int = 24, m: int = 6) -> np.ndarray:
    """A skewed integer label matrix (some zero entries, uneven shards)."""
    L = rng.integers(0, 40, size=(n, m)).astype(np.int64)
    L[rng.random(size=(n, m)) < 0.3] = 0
    L[:, 0] += 1  # no all-zero clients
    return L


def _edges(n: int) -> list[np.ndarray]:
    return [np.arange(0, n // 2), np.arange(n // 2, n)]


def _edge_of(n: int) -> np.ndarray:
    return np.repeat([0, 1], n // 2)


def _build(L, grouper, seed):
    groups = group_clients_per_edge(grouper, L, _edges(len(L)), rng=seed)
    maint = OnlineGroupMaintainer(grouper, L, _edge_of(len(L)), groups=groups)
    return maint


def _assert_consistent(maint: OnlineGroupMaintainer, L: np.ndarray, active: set):
    """Maintained state == recomputed-from-scratch over the mutated L."""
    seen: set[int] = set()
    for g in maint.groups():
        members = g.members.tolist()
        assert members, "empty group survived"
        seen.update(members)
        expect = L[g.members].sum(axis=0, dtype=np.int64)
        assert np.array_equal(g.label_counts, expect)
        assert len({int(maint.edge_of_client[c]) for c in members}) == 1
    assert seen == active, "partition does not cover the active set exactly"


GRID = [
    (3, 0.5, "cov"),
    (3, float("inf"), "cov"),
    (5, 1.0, "cov"),
    (3, 0.5, "eq27"),
    (5, float("inf"), "eq27"),
]


class TestMomentExactness:
    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("mgs,max_cov,metric", GRID)
    def test_random_op_sequences_stay_exact(self, seed, mgs, max_cov, metric):
        rng = np.random.default_rng(1000 + seed)
        L = _label_matrix(rng)
        grouper = CoVGrouping(min_group_size=mgs, max_cov=max_cov, cov_metric=metric)
        maint = _build(L, grouper, seed)
        active = set(range(len(L)))
        for _ in range(30):
            op = rng.integers(0, 4)
            if op == 0 and len(active) < len(L):  # insert a dormant client
                cid = int(rng.choice(sorted(set(range(len(L))) - active)))
                maint.insert_client(cid)
                active.add(cid)
            elif op == 1 and len(active) > 2:  # remove
                cid = int(rng.choice(sorted(active)))
                maint.remove_client(cid)
                active.remove(cid)
            elif op == 2 and active:  # drift one client's counts
                cid = int(rng.choice(sorted(active)))
                new = L[cid].copy()
                j, k = rng.integers(0, L.shape[1], size=2)
                moved = min(int(new[j]), int(rng.integers(0, 10)))
                new[j] -= moved
                new[k] += moved
                maint.update_client(cid, new)
            elif active:  # migrate
                cid = int(rng.choice(sorted(active)))
                maint.migrate_client(cid)
            _assert_consistent(maint, L, active)

    @pytest.mark.parametrize("seed", range(20))
    @pytest.mark.parametrize("mgs,max_cov,metric", GRID)
    def test_full_repartition_matches_fresh_formation(self, seed, mgs, max_cov, metric):
        """After online mutation, a full re-partition is bit-identical to
        forming from scratch over the mutated label matrix."""
        rng = np.random.default_rng(2000 + seed)
        L = _label_matrix(rng)
        grouper = CoVGrouping(min_group_size=mgs, max_cov=max_cov, cov_metric=metric)
        maint = _build(L, grouper, seed)
        for cid in rng.choice(len(L), size=6, replace=False):
            new = L[int(cid)].copy()
            new[rng.integers(0, L.shape[1])] += int(rng.integers(1, 8))
            maint.update_client(int(cid), new)

        maint.full_repartition(rng=seed)
        online = maint.groups()
        fresh_grouper = CoVGrouping(
            min_group_size=mgs, max_cov=max_cov, cov_metric=metric
        )
        reference = group_clients_per_edge(fresh_grouper, L, _edges(len(L)), rng=seed)
        assert len(online) == len(reference)
        for a, b in zip(online, reference):
            assert a.members.tolist() == b.members.tolist()
            assert np.array_equal(a.label_counts, b.label_counts)
            assert a.edge_id == b.edge_id


class TestPlacement:
    def test_insert_picks_the_cov_minimizing_group(self):
        from repro.grouping.cov import cov_of_counts

        rng = np.random.default_rng(0)
        L = _label_matrix(rng)
        grouper = CoVGrouping(3, float("inf"))
        maint = _build(L, grouper, 0)
        maint.remove_client(0)
        # Brute-force the resulting CoV of every candidate placement on
        # client 0's edge *before* inserting.
        edge = int(maint.edge_of_client[0])
        candidates = {
            gi: float(cov_of_counts(g.label_counts + L[0]))
            for gi, g in enumerate(maint.groups())
            if g.edge_id == edge
        }
        gi = maint.insert_client(0)
        assert candidates[gi] == min(candidates.values())

    def test_insert_into_empty_edge_makes_singleton(self):
        rng = np.random.default_rng(0)
        L = _label_matrix(rng, n=8)
        edge_of = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        grouper = CoVGrouping(2, float("inf"))
        groups = group_clients_per_edge(grouper, L, [np.arange(4)], rng=0)
        maint = OnlineGroupMaintainer(grouper, L, edge_of, groups=groups)
        gi = maint.insert_client(5)
        assert maint.groups()[gi].members.tolist() == [5]
        assert maint.groups()[gi].edge_id == 1

    def test_remove_prunes_empty_groups(self):
        rng = np.random.default_rng(3)
        L = _label_matrix(rng, n=8)
        grouper = CoVGrouping(2, float("inf"))
        maint = _build(L, grouper, 1)
        g0 = maint.groups()[0].members.tolist()
        for cid in g0:
            maint.remove_client(cid)
        assert all(g0[0] not in g.members for g in maint.groups())
        assert all(g.members.size for g in maint.groups())

    def test_duplicate_insert_and_unknown_remove_raise(self):
        rng = np.random.default_rng(0)
        L = _label_matrix(rng, n=8)
        grouper = CoVGrouping(2, float("inf"))
        maint = _build(L, grouper, 0)
        with pytest.raises(ValueError, match="already maintained"):
            maint.insert_client(0)
        maint.remove_client(0)
        with pytest.raises(ValueError, match="not maintained"):
            maint.remove_client(0)

    def test_float_label_matrix_rejected(self):
        grouper = CoVGrouping(2, 0.5)
        with pytest.raises(ValueError, match="integer label matrix"):
            OnlineGroupMaintainer(grouper, np.ones((4, 2)), np.zeros(4, dtype=int))


def _placed(group_counts, row, metric):
    """Position ``insert_client`` picks for a client with ``row`` among
    one-client groups with the given counts, all on one edge."""
    L = np.array([*group_counts, row], dtype=np.int64)
    k = len(group_counts)
    groups = [Group(i, 0, [i], L[i]) for i in range(k)]
    grouper = CoVGrouping(1, float("inf"), cov_metric=metric)
    maint = OnlineGroupMaintainer(grouper, L, np.zeros(k + 1, dtype=np.int64), groups)
    return maint.insert_client(k)


@pytest.mark.parametrize("metric", ["cov", "eq27"])
class TestPlacementMatchesOracle:
    """The cross-multiplied comparator against ``Fraction`` scores."""

    def test_exact_ties_go_to_first_position(self, metric):
        # A constant row keeps permuted counts permutations of each other:
        # both metrics tie them exactly, behind a clearly worse group.
        counts = [[9, 1, 0], [1, 2, 3], [3, 1, 2], [2, 3, 1]]
        row = [4, 4, 4]
        assert best_placement(counts, row, metric) == 1
        assert _placed(counts, row, metric) == 1

    def test_scaled_counts_and_empty_candidates(self, metric):
        # cov ties [2, 4, 6] with [1, 2, 3]; eq27 does not. A zero row
        # leaves the empty group at CoV = inf, never chosen.
        counts = [[0, 0, 0], [2, 4, 6], [1, 2, 3], [0, 0, 0]]
        row = [0, 0, 0]
        want = best_placement(counts, row, metric)
        assert want == (1 if metric == "cov" else 2)
        assert _placed(counts, row, metric) == want
        assert _placed([[0, 0], [0, 0]], [0, 0], metric) == 0

    def test_beyond_int64_products(self, metric):
        # Equal S1, S2 apart by 4 at S2 ≈ 3e18: the second group is better,
        # float64 scores of the two are equal (a float comparator would
        # keep the first), and S2·S1² ≈ 2.7e37 overflows any fixed-width
        # cross-product.
        n = 10**9
        counts = [[n + 1, n + 1, n - 2], [n + 1, n - 1, n]]
        s1 = 3 * n
        s2 = sum(c * c for c in counts[1])
        assert s2 * s1**2 > 2**63
        assert best_placement(counts, [0, 0, 0], metric) == 1
        assert _placed(counts, [0, 0, 0], metric) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_large_counts(self, seed, metric):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 10**7, size=(6, 5))
        counts[rng.random(size=counts.shape) < 0.3] = 0
        row = rng.integers(0, 10**7, size=5)
        assert _placed(counts, row, metric) == best_placement(counts, row, metric)


class TestWatchdog:
    def test_clean_partition_never_churned(self):
        rng = np.random.default_rng(5)
        L = _label_matrix(rng)
        grouper = CoVGrouping(3, 0.05)  # standing CoV way above target
        groups = group_clients_per_edge(
            CoVGrouping(3, float("inf")), L, _edges(len(L)), rng=0
        )
        maint = OnlineGroupMaintainer(grouper, L, _edge_of(len(L)), groups=groups)
        before = [g.members.tolist() for g in maint.groups()]
        # No dirty state ⇒ the watchdog must not touch a static partition,
        # however bad its standing CoV.
        assert maint.maintain(make_rng(0), 0) is False
        assert [g.members.tolist() for g in maint.groups()] == before

    def test_undersized_dirty_group_triggers_regroup(self):
        rng = np.random.default_rng(7)
        L = _label_matrix(rng)
        grouper = CoVGrouping(3, float("inf"))
        maint = _build(L, grouper, 0)
        victim = maint.groups()[0].members.tolist()
        for cid in victim[: len(victim) - 1]:
            maint.remove_client(cid)
        events = []
        assert maint.maintain(make_rng(1), 4, record=events.append) is True
        active = set(maint.active_ids())
        _assert_consistent(maint, L, active)
        assert all(
            g.members.size >= 3 or maint.num_groups == 1 for g in maint.groups()
        )
        assert any(e.kind in ("regroup", "migrate") for e in events)

    def test_majority_degradation_falls_back_to_full(self):
        rng = np.random.default_rng(9)
        L = _label_matrix(rng, n=12)
        grouper = CoVGrouping(3, float("inf"))
        edges = [np.arange(12)]
        groups = group_clients_per_edge(grouper, L, edges, rng=0)
        maint = OnlineGroupMaintainer(
            grouper, L, np.zeros(12, dtype=np.int64), groups=groups
        )
        # Shrink every group below MinGS: the degraded set is the majority.
        removed = []
        for g in list(maint.groups()):
            removed.append(int(g.members[0]))
            maint.remove_client(int(g.members[0]))
        events = []
        assert maint.maintain(make_rng(2), 1, record=events.append) is True
        assert any(e.kind == "regroup" and e.mode == "full" for e in events)
        _assert_consistent(maint, L, set(range(12)) - set(removed))
