"""`ColumnarPopulation` unit and property tests.

The property suite drives the store through random operation sequences
(activate/deactivate churn, drift relabels, materialized-view writes) and
asserts the cross-array invariants stay *exact* after every step:
``n == L row sums``, each client's label histogram equals its L row, and
the active mask stays a boolean per-client vector — the same invariants
``check_invariants`` enforces, exercised adversarially.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.population import ColumnarPopulation, group_label_counts, spawn_keys


@pytest.fixture
def fed() -> FederatedDataset:
    """A fresh store per test (several tests write through its views)."""
    data = SyntheticImage(seed=0)
    train, test = data.train_test(3_000, 300)
    return FederatedDataset.from_dataset(
        train, test, num_clients=12, alpha=0.3, size_low=10, size_high=40, rng=4
    )


class TestConstruction:
    def test_layout(self, fed):
        store = fed
        assert store.L.dtype == np.int64
        assert store.n.dtype == np.int64
        assert store.active.dtype == np.bool_
        assert store.spawn_keys.dtype == np.uint64
        assert isinstance(store, ColumnarPopulation)
        assert store.L.shape == (len(fed.shards), fed.train.num_classes)
        np.testing.assert_array_equal(store.n, [s.size for s in fed.shards])
        np.testing.assert_allclose(
            store.global_label_distribution(),
            np.bincount(fed.train.y[np.concatenate(fed.shards)], minlength=10)
            / store.total_samples,
        )

    def test_spawn_keys_are_distinct_and_seed_dependent(self):
        a = spawn_keys(0, 4096)
        b = spawn_keys(1, 4096)
        assert np.unique(a).size == 4096
        assert not np.array_equal(a, b)
        np.testing.assert_array_equal(a, spawn_keys(0, 4096))  # deterministic

    def test_offsets_must_match_row_sums(self, fed):
        store = fed
        bad = store._offsets.copy()
        bad[1] += 1
        with pytest.raises(ValueError, match="offsets"):
            ColumnarPopulation(
                store.L, train_x=store._train_x, train_y=store._train_y,
                sample_offsets=bad,
            )

    def test_partial_data_arrays_rejected(self, fed):
        store = fed
        with pytest.raises(ValueError, match="together"):
            ColumnarPopulation(store.L, train_x=store._train_x)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            ColumnarPopulation(np.array([[1, -1]]))

    def test_mismatched_cost_arrays_rejected(self):
        with pytest.raises(ValueError, match="unit_costs"):
            ColumnarPopulation(np.eye(3, dtype=np.int64), unit_costs=np.ones(2))


class TestViews:
    def test_materialize_is_zero_copy(self, fed):
        store = fed
        views = store.materialize([0, 3, 7])
        for cid, client in views.items():
            assert client.x.base is store._train_x
            assert client.y.base is store._train_y
            assert client.label_counts.base is store.L
            assert client.n == store.client_size(cid)

    def test_view_writes_land_in_store(self, fed):
        store = fed
        client = store.materialize([2])[2]
        before = client.y.copy()
        client.y[:] = (client.y + 1) % store.num_classes
        np.testing.assert_array_equal(store.client_labels(2), client.y)
        assert not np.array_equal(store.client_labels(2), before)

    def test_metadata_only_store_refuses_materialization(self):
        store = ColumnarPopulation.synthetic(100, 10, seed=0)
        assert not store.has_data
        with pytest.raises(ValueError, match="metadata-only"):
            store.materialize([0])
        with pytest.raises(ValueError, match="metadata-only"):
            store.client_labels(0)
        assert store.client_size(0) == int(store.n[0])  # sizes still work


class TestSynthetic:
    def test_invariants_at_scale(self):
        store = ColumnarPopulation.synthetic(50_000, 20, seed=3)
        store.check_invariants()
        assert (store.n >= 1).all()  # no empty clients
        assert store.num_active() == 50_000

    def test_deterministic_in_seed(self):
        a = ColumnarPopulation.synthetic(500, 10, seed=9)
        b = ColumnarPopulation.synthetic(500, 10, seed=9)
        np.testing.assert_array_equal(a.L, b.L)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="num_clients"):
            ColumnarPopulation.synthetic(0, 10)
        with pytest.raises(ValueError, match="num_classes"):
            ColumnarPopulation.synthetic(10, 0)


class TestGroupLabelCounts:
    def test_matches_per_group_sums(self, fed):
        store = fed
        edges = [np.arange(0, 6), np.arange(6, 12)]
        groups = group_clients_per_edge(
            CoVGrouping(min_group_size=2, max_cov=0.8), store.L, edges, rng=0
        )
        counts = group_label_counts(store.L, groups)
        assert counts.shape == (len(groups), store.num_classes)
        for row, g in zip(counts, groups):
            np.testing.assert_array_equal(row, store.L[g.members].sum(axis=0))
            np.testing.assert_array_equal(row, g.label_counts)

    def test_accepts_raw_member_arrays(self, fed):
        store = fed
        counts = group_label_counts(store.L, [np.array([0, 1]), np.array([2])])
        np.testing.assert_array_equal(counts[0], store.L[[0, 1]].sum(axis=0))
        np.testing.assert_array_equal(counts[1], store.L[2])

    def test_empty_inputs(self, fed):
        store = fed
        assert group_label_counts(store.L, []).shape == (0, store.num_classes)
        with pytest.raises(ValueError, match="empty group"):
            group_label_counts(store.L, [np.array([], dtype=np.int64)])


# ---------------------------------------------------------------- properties
#: one random store operation: (op, client selector draw, payload draws)
_OPS = st.tuples(
    st.sampled_from(["relabel", "deactivate", "activate", "view_write"]),
    st.integers(0, 10**6),
    st.integers(1, 10**6),
)


class TestPropertyInvariants:
    @given(st.lists(_OPS, min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_random_op_sequences_keep_invariants_exact(self, ops):
        data = SyntheticImage(seed=1)
        train, test = data.train_test(600, 100)
        fed = FederatedDataset.from_dataset(
            train, test, num_clients=8, alpha=0.3, size_low=5, size_high=20, rng=2
        )
        store = fed
        sizes = store.client_sizes()
        m = store.num_classes
        for op, sel, payload in ops:
            cid = sel % store.num_clients
            if op == "relabel":
                k = payload % (store.client_size(cid) + 1)
                idx = np.arange(store.client_size(cid))[:k]
                offset = 1 + payload % (m - 1)
                store.apply_relabel(cid, idx, offset)
            elif op == "deactivate":
                store.set_active([cid], False)
            elif op == "activate":
                store.set_active([cid], True)
            else:  # drift through a materialized view, then resync L
                client = store.materialize([cid])[cid]
                k = payload % (client.n + 1)
                client.y[:k] = (client.y[:k] + 1) % m
                np.copyto(
                    store.L[cid],
                    np.bincount(client.y, minlength=m).astype(np.int64),
                )
            store.check_invariants()
            # n_i is churn/drift-invariant: relabeling never changes sizes.
            np.testing.assert_array_equal(store.n, sizes)
            assert store.num_active() == int(store.active.sum())

    @given(st.integers(2, 40), st.integers(2, 15), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_synthetic_stores_always_satisfy_invariants(self, k, m, seed):
        store = ColumnarPopulation.synthetic(k, m, seed=seed)
        store.check_invariants()
        assert (store.n >= 1).all()

    @given(st.integers(1, 50), st.integers(1, 8), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_group_label_counts_matches_loop(self, k, groups_of, seed):
        rng = np.random.default_rng(seed)
        L = rng.integers(0, 9, size=(k, 5)).astype(np.int64)
        memberships = [
            np.sort(rng.choice(k, size=min(groups_of, k), replace=False))
            for _ in range(3)
        ]
        counts = group_label_counts(L, memberships)
        for row, members in zip(counts, memberships):
            np.testing.assert_array_equal(row, L[members].sum(axis=0))
