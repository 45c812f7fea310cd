"""Engine-equality and metric-semantics tests for CoVGrouping.

The running-moment engine's bit-identity with the verbatim transcription
of Algorithm 2 (``tests/oracles/cov_grouping_reference.py``) is a
constructed property (exact integer moments + windowed metric-float tie
resolution + first-index ties + per-edge RNG order); these tests pin it
across seeds, parameter grids, and both ``cov_metric`` settings — for
one edge and for many edges formed in lockstep — and pin the Eq. (27) vs
canonical-CoV divergence that the old ``repro.grouping.cov`` docstring
wrongly denied.
"""

import numpy as np
import pytest

from repro.grouping import CoVGrouping, Group, group_clients_per_edge
from repro.grouping import cov_grouping
from repro.grouping.cov import cov_of_counts, cov_paper_eq27
from repro.population import OnlineGroupMaintainer
from repro.rng import make_rng, spawn_many
from tests.oracles.cov_grouping_reference import ReferenceCoVGrouping
from tests.oracles.per_edge_maintenance import PerEdgeMaintainer


def label_matrix(seed, clients=30, classes=5, max_per=40, zero_frac=0.05):
    """Skewed integer label counts, including some all-zero rows."""
    rng = np.random.default_rng(seed)
    props = rng.dirichlet(np.full(classes, 0.3), size=clients)
    totals = rng.integers(1, max_per + 1, size=clients)
    L = np.stack(
        [rng.multinomial(int(totals[i]), props[i]) for i in range(clients)]
    ).astype(np.float64)
    # ~5% clients with no data at all: exercises the S1 = 0 / CoV = inf path.
    zero = rng.random(clients) < zero_frac
    L[zero] = 0.0
    return L


def partitions_of(groups):
    """Partition as an order-sensitive list of member tuples."""
    return [tuple(g.members.tolist()) for g in groups]


GRID = [
    (2, 0.3),
    (3, 0.5),
    (5, 0.5),
    (5, 1.0),
    (4, 0.0),
    (3, float("inf")),
]


class TestEngineEquality:
    @pytest.mark.parametrize("cov_metric", ["cov", "eq27"])
    @pytest.mark.parametrize("mgs,mcov", GRID)
    def test_partitions_bit_identical_across_seeds(self, cov_metric, mgs, mcov):
        """≥20 seeds × the (MinGS, MaxCoV) grid: engines agree exactly —
        same groups, same member insertion order, for both metrics."""
        for seed in range(20):
            L = label_matrix(seed)
            ids = np.arange(L.shape[0])
            ref = ReferenceCoVGrouping(mgs, mcov, cov_metric=cov_metric)
            inc = CoVGrouping(mgs, mcov, cov_metric=cov_metric)
            got_ref = partitions_of(ref.group(L, ids, rng=seed))
            got_inc = partitions_of(inc.group(L, ids, rng=seed))
            assert got_inc == got_ref, (
                f"engine divergence: metric={cov_metric} mgs={mgs} "
                f"mcov={mcov} seed={seed}"
            )

    def test_equality_on_larger_label_space(self):
        """Label-rich regime (many classes) where the hot path matters most."""
        for seed in range(5):
            L = label_matrix(seed, clients=120, classes=20)
            ids = np.arange(120)
            ref = ReferenceCoVGrouping(5, 0.5).group(L, ids, rng=seed)
            inc = CoVGrouping(5, 0.5).group(L, ids, rng=seed)
            assert partitions_of(inc) == partitions_of(ref)

    def test_empty_and_single_client(self):
        inc = CoVGrouping(3, 0.5)
        assert inc.group(np.zeros((0, 4)), np.arange(0), rng=0) == []
        with pytest.raises(ValueError, match="min_group_size=3"):
            inc.group(np.array([[2.0, 3.0]]), np.array([9]), rng=0)
        groups = CoVGrouping(1, 0.5).group(np.array([[2.0, 3.0]]), np.array([9]), rng=0)
        assert len(groups) == 1
        assert groups[0].members.tolist() == [9]


class TestCountValidation:
    """Label counts must be non-negative integers with an exact total:
    fractional or negative counts used to be grouped by their fractional
    CoV and then truncated (or stored negative) by ``Group``."""

    def test_non_integer_counts_rejected(self):
        L = np.random.default_rng(7).random((25, 4)) * 10.0
        with pytest.raises(ValueError, match=rf"client 100, class 0 has {L[0, 0]}"):
            CoVGrouping(3, 0.5).group(L, np.arange(100, 125), rng=1)

    def test_negative_counts_rejected(self):
        L = np.array([[2, 2], [3, -1], [1, 1]])
        with pytest.raises(ValueError, match=r"client 11, class 1 has -1\.0"):
            CoVGrouping(1, 0.5).group(L, np.array([10, 11, 12]), rng=0)

    def test_nan_rejected(self):
        L = np.array([[2.0, np.nan], [1.0, 1.0]])
        with pytest.raises(ValueError, match="class 1 has nan"):
            CoVGrouping(1, 0.5).group(L, np.arange(2), rng=0)

    def test_total_above_exact_bound_rejected(self):
        L = np.full((2, 2), 2**25)
        with pytest.raises(ValueError, match=r"134217728 samples.*67108864"):
            CoVGrouping(1, 0.5).group(L, np.arange(2), rng=0)
        at_bound = CoVGrouping(1, 0.5).group(L // 2, np.arange(2), rng=0)
        assert sum(g.n_g for g in at_bound) == 2**26

    def test_integral_floats_group_like_ints(self):
        L = label_matrix(3)
        ids = np.arange(L.shape[0])
        as_float = CoVGrouping(3, 0.5).group(L, ids, rng=3)
        as_int = CoVGrouping(3, 0.5).group(L.astype(np.int64), ids, rng=3)
        assert partitions_of(as_float) == partitions_of(as_int)
        for a, b in zip(as_float, as_int):
            assert np.array_equal(a.label_counts, b.label_counts)

    def test_group_rejects_instead_of_truncating(self):
        with pytest.raises(ValueError, match="class 0 has 23.16"):
            Group(4, 0, np.array([1]), np.array([23.16, 22.0]))
        with pytest.raises(ValueError, match="class 1 has -1"):
            Group(4, 0, np.array([1]), np.array([3, -1]))
        g = Group(4, 0, np.array([1]), np.array([23.0, 22.0]))
        assert g.label_counts.dtype == np.int64
        assert g.label_counts.tolist() == [23, 22]


class TestMetricSemantics:
    def test_eq27_is_cov_scaled_by_group_total(self):
        """Eq. (27) = CoV · √(n_g/m): equal only when n_g = m."""
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 30, size=(10, 6)).astype(np.float64)
        counts[0] = [1, 2, 3, 0, 0, 0]  # n_g = 6 = m ⇒ the two agree
        m = counts.shape[1]
        n_g = counts.sum(axis=1)
        expected = cov_of_counts(counts) * np.sqrt(n_g / m)
        assert np.allclose(cov_paper_eq27(counts), expected)

    def test_greedy_argmin_counterexample(self):
        """The pinned counterexample: candidate A wins under canonical CoV,
        candidate B wins under Eq. (27) — the metrics are NOT interchangeable
        inside a greedy candidate scan (contra the old cov.py docstring)."""
        A = np.array([30.0, 20.0])  # CoV = 0.2,  eq27 = 1.0
        B = np.array([4.0, 2.0])  # CoV ≈ 0.33, eq27 ≈ 0.577
        assert cov_of_counts(A) == pytest.approx(0.2)
        assert cov_paper_eq27(A) == pytest.approx(1.0)
        assert cov_of_counts(B) == pytest.approx(1.0 / 3.0)
        assert cov_paper_eq27(B) == pytest.approx(np.sqrt(1.0 / 3.0))
        cand = np.stack([A, B])
        assert int(np.argmin(cov_of_counts(cand))) == 0
        assert int(np.argmin(cov_paper_eq27(cand))) == 1

    def test_metrics_can_produce_different_partitions(self):
        """On skewed data the two objectives eventually pick different
        groups — cov_metric is a real knob, not a relabeling."""
        diverged = False
        for seed in range(30):
            L = label_matrix(seed, clients=40, classes=8)
            ids = np.arange(40)
            cov = CoVGrouping(3, 0.4, cov_metric="cov").group(L, ids, rng=seed)
            e27 = CoVGrouping(3, 0.4, cov_metric="eq27").group(L, ids, rng=seed)
            if partitions_of(cov) != partitions_of(e27):
                diverged = True
                break
        assert diverged


class TestParamValidation:
    def test_bad_engine_rejected(self):
        """There is one engine; ``engine=`` is not an argument any more."""
        for engine in ("turbo", "incremental", "reference"):
            with pytest.raises(TypeError, match="engine"):
                CoVGrouping(3, 0.5, engine=engine)

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError, match="cov_metric"):
            CoVGrouping(3, 0.5, cov_metric="variance")

    def test_repr_names_metric(self):
        r = repr(CoVGrouping(3, 0.5, cov_metric="eq27"))
        assert r == "CoVGrouping(min_group_size=3, max_cov=0.5, cov_metric='eq27')"


def edges_of(sizes):
    """Consecutive client-id ranges of the given sizes, one per edge."""
    bounds = np.cumsum([0, *sizes])
    return [np.arange(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def per_edge_reference(ref, L, edges, seed):
    """Every edge formed alone by the transcription, with the child
    generators ``group_clients_per_edge`` spawns."""
    children = spawn_many(make_rng(seed), len(edges))
    return [
        (edge, part)
        for edge, (ids, child) in enumerate(zip(edges, children))
        for part in partitions_of(ref.group(L[ids], ids, edge_id=edge, rng=child))
    ]


def lockstep(grouper, L, edges, seed):
    return [
        (g.edge_id, tuple(g.members.tolist()))
        for g in group_clients_per_edge(grouper, L, edges, rng=seed)
    ]


class TestLockstepEquality:
    """``group_clients_per_edge`` forms all edges in lockstep; every edge's
    groups must equal the transcription run on that edge alone."""

    @pytest.mark.parametrize("cov_metric", ["cov", "eq27"])
    @pytest.mark.parametrize("mgs,mcov", GRID)
    def test_unequal_edges_match_per_edge_reference(self, cov_metric, mgs, mcov):
        # An empty edge and an edge of exactly MinGS among unequal ones.
        sizes = [30, 0, mgs, 17, 24, 12, 40]
        for seed in range(8):
            L = label_matrix(seed, clients=sum(sizes))
            edges = edges_of(sizes)
            ref = ReferenceCoVGrouping(mgs, mcov, cov_metric=cov_metric)
            inc = CoVGrouping(mgs, mcov, cov_metric=cov_metric)
            assert lockstep(inc, L, edges, seed) == per_edge_reference(ref, L, edges, seed), (
                f"lockstep divergence: metric={cov_metric} mgs={mgs} "
                f"mcov={mcov} seed={seed}"
            )

    @pytest.mark.parametrize("cov_metric", ["cov", "eq27"])
    def test_all_zero_rows(self, cov_metric):
        """Many clients without data: groups seeded on one have S1 = 0."""
        sizes = [20, 25, 18, 30, 22]
        for seed in range(6):
            L = label_matrix(seed, clients=sum(sizes), zero_frac=0.4)
            edges = edges_of(sizes)
            ref = ReferenceCoVGrouping(3, 0.5, cov_metric=cov_metric)
            inc = CoVGrouping(3, 0.5, cov_metric=cov_metric)
            assert lockstep(inc, L, edges, seed) == per_edge_reference(ref, L, edges, seed)

    @pytest.mark.parametrize("cov_metric", ["cov", "eq27"])
    def test_near_tie_rescore_in_one_edge(self, cov_metric, monkeypatch):
        """Duplicated clients on edge 2 force exact-tie rescores there while
        the other edges advance through the array decisions."""
        calls = []
        advance = cov_grouping._Lockstep.advance

        def counting(self, r, solo=False):
            if not solo:
                calls.append(r)
            return advance(self, r, solo)

        monkeypatch.setattr(cov_grouping._Lockstep, "advance", counting)
        sizes = [25, 25, 30, 25, 25]
        for seed in range(4):
            L = label_matrix(seed, clients=sum(sizes))
            L[50:80] = np.repeat(label_matrix(seed + 100, clients=6), 5, axis=0)
            edges = edges_of(sizes)
            ref = ReferenceCoVGrouping(4, 0.4, cov_metric=cov_metric)
            inc = CoVGrouping(4, 0.4, cov_metric=cov_metric)
            assert lockstep(inc, L, edges, seed) == per_edge_reference(ref, L, edges, seed)
        assert 2 in calls

    @pytest.mark.parametrize("block_cells", [None, 400])
    def test_more_edges_than_one_block(self, block_cells, monkeypatch):
        """More edges than a block stacks (by count, or by padded cells)."""
        if block_cells is not None:
            monkeypatch.setattr(cov_grouping, "_BLOCK_CELLS", block_cells)
        sizes = np.random.default_rng(5).integers(5, 15, size=cov_grouping._BLOCK_EDGES + 6)
        L = label_matrix(5, clients=int(sizes.sum()))
        edges = edges_of(sizes.tolist())
        ref = ReferenceCoVGrouping(5, 0.5)
        assert lockstep(CoVGrouping(5, 0.5), L, edges, 5) == per_edge_reference(ref, L, edges, 5)

    def test_group_is_the_one_edge_case(self):
        L = label_matrix(9, clients=40)
        ids = np.arange(100, 140)
        inc = CoVGrouping(3, 0.5)
        (via_edges,) = inc.group_edges(L, [np.arange(40)], [make_rng(9)], [4])
        alone = inc.group(L, ids, edge_id=4, rng=9)
        assert [g.members.tolist() for g in alone] == [(g.members + 100).tolist() for g in via_edges]
        assert all(g.edge_id == 4 for g in via_edges)

    def test_integer_matrix_sums_stay_integer(self):
        L = label_matrix(4, clients=60).astype(np.int64)
        groups = group_clients_per_edge(CoVGrouping(3, 0.5), L, edges_of([30, 30]), rng=4)
        for g in groups:
            assert g.label_counts.dtype == np.int64
            assert np.array_equal(g.label_counts, L[g.members].sum(axis=0))


class TestEdgeValidation:
    """``group_edges`` validates every edge before forming any and raises
    exactly what ``group`` raises for the first offending edge."""

    def single_edge_error(self, grouper, L, ids, edge):
        with pytest.raises(ValueError) as alone:
            grouper.group(L[ids], ids, edge_id=edge, rng=0)
        return str(alone.value)

    def assert_same_error(self, grouper, L, edges, bad_edge):
        expected = self.single_edge_error(grouper, L, edges[bad_edge], bad_edge)
        rngs = spawn_many(make_rng(0), len(edges))
        before = rngs[0].bit_generator.state
        with pytest.raises(ValueError) as lock:
            grouper.group_edges(L, edges, rngs)
        assert str(lock.value) == expected
        assert rngs[0].bit_generator.state == before  # edge 0 was not formed

    def test_non_integer_count(self):
        L = label_matrix(0, clients=30)
        L[17, 2] = 2.5
        self.assert_same_error(CoVGrouping(3, 0.5), L, edges_of([10, 5, 15]), 2)

    def test_negative_count(self):
        L = label_matrix(0, clients=30).astype(np.int64)
        L[21, 0] = -3
        self.assert_same_error(CoVGrouping(3, 0.5), L, edges_of([10, 10, 10]), 2)

    def test_nan_count(self):
        L = label_matrix(0, clients=30)
        L[12, 4] = np.nan
        self.assert_same_error(CoVGrouping(3, 0.5), L, edges_of([10, 10, 10]), 1)

    def test_total_above_exact_bound(self):
        L = label_matrix(0, clients=30).astype(np.int64)
        L[15:18] = 2**25
        self.assert_same_error(CoVGrouping(3, 0.5), L, edges_of([10, 10, 10]), 1)

    def test_edge_below_min_group_size(self):
        L = label_matrix(0, clients=22)
        self.assert_same_error(CoVGrouping(5, 0.5), L, edges_of([10, 2, 10]), 1)


def maintainers(L, edge_of, groups, grouper):
    """The production maintainer and the edge-by-edge oracle, same state."""
    return tuple(
        cls(grouper, L.copy(), edge_of, groups=groups, degrade_factor=100.0)
        for cls in (OnlineGroupMaintainer, PerEdgeMaintainer)
    )


def snapshot(maint):
    return [(g.edge_id, g.members.tolist(), g.label_counts.tolist()) for g in maint._groups]


class TestMaintainerRepartitions:
    """Re-partitions through ``group_edges`` keep the edge-by-edge loop's
    group order and recorded events."""

    @pytest.mark.parametrize("seed", range(4))
    def test_full_repartition_with_below_floor_edge_between(self, seed):
        sizes = [20, 20, 20, 20]
        L = label_matrix(seed, clients=80).astype(np.int64)
        edge_of = np.repeat(np.arange(4), 20)
        grouper = CoVGrouping(4, 0.5)
        groups = group_clients_per_edge(grouper, L, edges_of(sizes), rng=seed)
        new, old = maintainers(L, edge_of, groups, grouper)
        # Edge 1 keeps 2 active clients (< MinGS) between formed edges 0, 2.
        active = [c for c in range(80) if edge_of[c] != 1 or c < 22]
        for maint in (new, old):
            maint.full_repartition(seed, active_ids=active)
        assert snapshot(new) == snapshot(old)
        assert [e for e, *_ in snapshot(new)].count(1) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_scoped_regroup_mixing_regroup_and_migrate_edges(self, seed):
        sizes = [30, 30, 30]
        L = label_matrix(seed, clients=90).astype(np.int64)
        L[:, 0] += 1  # no all-zero clients
        edge_of = np.repeat(np.arange(3), 30)
        grouper = CoVGrouping(3, 0.5)
        groups = group_clients_per_edge(grouper, L, edges_of(sizes), rng=seed)
        new, old = maintainers(L, edge_of, groups, grouper)
        events = {id(new): [], id(old): []}
        for maint in (new, old):
            by_edge = [[g for g in maint._groups if g.edge_id == e] for e in range(3)]
            # Edge 0: two groups cut to 2 members (pool >= MinGS: regroup);
            # edge 2: one group cut to 2 (pool < MinGS: migrate).
            for g in (*by_edge[0][:2], by_edge[2][0]):
                for cid in g.members.tolist()[2:]:
                    maint.remove_client(cid)
            assert maint.maintain(seed, round_idx=3, record=events[id(maint)].append)
        assert snapshot(new) == snapshot(old)
        assert events[id(new)] == events[id(old)]
        kinds = {e.kind for e in events[id(new)]}
        assert kinds == {"regroup", "migrate"}
