"""Tests for ClientDataset and FederatedDataset."""

import pickle

import numpy as np
import pytest

from repro.data import ClientDataset, ColumnarPopulation, FederatedDataset, SyntheticImage


@pytest.fixture(scope="module")
def fed():
    data = SyntheticImage(seed=0)
    train, test = data.train_test(6_000, 500)
    return FederatedDataset.from_dataset(
        train, test, num_clients=20, alpha=0.3, size_low=20, size_high=80, rng=5
    )


class TestClientDataset:
    def test_n_property(self, fed):
        c = fed.clients[0]
        assert c.n == c.x.shape[0] == c.y.shape[0]

    def test_label_counts_match_data(self, fed):
        for c in fed.clients[:5]:
            assert np.array_equal(
                c.label_counts, np.bincount(c.y, minlength=fed.num_classes)
            )

    def test_batches_cover_shard_once(self, fed):
        c = fed.clients[0]
        seen = 0
        for xb, yb in c.batches(8, rng=0):
            assert xb.shape[0] == yb.shape[0] <= 8
            seen += xb.shape[0]
        assert seen == c.n

    def test_batches_shuffled(self, fed):
        c = fed.clients[0]
        first_a = next(iter(c.batches(c.n, rng=1)))[1]
        first_b = next(iter(c.batches(c.n, rng=2)))[1]
        # Same multiset, almost surely different order.
        assert sorted(first_a.tolist()) == sorted(first_b.tolist())
        assert not np.array_equal(first_a, first_b)

    def test_sample_batch_with_replacement_when_small(self, fed):
        c = fed.clients[0]
        xb, yb = c.sample_batch(c.n * 3, rng=0)
        assert xb.shape[0] == c.n * 3

    def test_sample_batch_without_replacement(self, fed):
        c = fed.clients[0]
        xb, _ = c.sample_batch(min(4, c.n), rng=0)
        assert xb.shape[0] <= c.n

    def test_sample_batch_rejects_nonpositive_batch_size(self, fed):
        c = fed.clients[0]
        with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
            c.sample_batch(0, rng=0)
        with pytest.raises(ValueError, match="batch_size must be >= 1, got -3"):
            c.sample_batch(-3, rng=0)

    def test_sample_batch_with_replacement_draws_only_from_shard(self, fed):
        # Regression for the n < batch_size branch: the oversized batch is
        # drawn with replacement, so every row must come from this client's
        # own shard — never from a neighbour's.
        c = fed.clients[0]
        xb, yb = c.sample_batch(c.n + 7, rng=1)
        assert xb.shape[0] == c.n + 7 and yb.shape[0] == c.n + 7
        shard_rows = {row.tobytes() for row in c.x}
        assert all(row.tobytes() in shard_rows for row in xb)
        shard_pairs = {(row.tobytes(), int(y)) for row, y in zip(c.x, c.y)}
        assert all(
            (row.tobytes(), int(y)) in shard_pairs for row, y in zip(xb, yb)
        )


class TestFederatedDataset:
    def test_client_count(self, fed):
        assert fed.num_clients == 20
        assert len(fed.clients) == 20

    def test_label_matrix_consistent(self, fed):
        assert fed.L.shape == (20, 10)
        assert np.array_equal(fed.L.sum(axis=1), fed.client_sizes())

    def test_total_samples(self, fed):
        assert fed.total_samples == sum(c.n for c in fed.clients)

    def test_global_label_distribution_sums_to_one(self, fed):
        dist = fed.global_label_distribution()
        assert dist.sum() == pytest.approx(1.0)

    def test_shards_index_into_train(self, fed):
        for shard, client in zip(fed.shards, fed.clients):
            assert np.allclose(fed.train.x[shard], client.x)

    def test_clients_are_views_of_the_store(self, fed):
        assert isinstance(fed, ColumnarPopulation)
        for i in (0, 7, 19):
            assert fed.clients[i].x.base is fed._train_x
            assert fed.clients[i].label_counts.base is fed.L
        original = fed.client_labels(7).copy()
        fed.client_labels(7)[:] = (original + 1) % fed.num_classes
        assert not np.array_equal(fed.clients[7].y, original)
        np.testing.assert_array_equal(fed.clients[7].y, fed.client_labels(7))
        np.testing.assert_array_equal(fed.materialize([7])[7].y, fed.clients[7].y)
        fed.client_labels(7)[:] = original  # the fixture is shared

    def test_inherits_every_accessor(self):
        for name in (
            "num_clients", "client_sizes", "client_size", "client_labels",
            "client_features", "snapshot_shards", "restore_shards",
            "total_samples", "global_label_distribution", "materialize",
        ):
            assert name not in vars(FederatedDataset), name

    def test_pickles_as_the_bare_store(self, fed):
        """What crosses a process pool: the store's arrays, once — not the
        source train set and the client views again."""
        payload = pickle.dumps(fed)
        clone = pickle.loads(payload)
        assert type(clone) is ColumnarPopulation
        np.testing.assert_array_equal(clone.client_features(3), fed.client_features(3))
        assert b"ClientDataset" not in payload
        assert len(payload) < 1.2 * (fed._train_x.nbytes + fed._train_y.nbytes + fed.L.nbytes
                                     + fed.test.x.nbytes + fed.test.y.nbytes)

    def test_explicit_shards_constructor(self):
        data = SyntheticImage(seed=1)
        train, test = data.train_test(100, 50)
        shards = [np.arange(0, 50), np.arange(50, 100)]
        fed2 = FederatedDataset(train, test, shards)
        assert fed2.num_clients == 2
        assert fed2.clients[1].n == 50
