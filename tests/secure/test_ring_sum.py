"""A SecAgg total is the ring sum of the clients' encodings.

Every pairwise mask is added by one endpoint and subtracted by the other,
so the masks cancel exactly mod 2⁶⁴. ``SecureAggregator.aggregate`` sums
the encodings without expanding a mask, and the dropout path sums the
survivors' encodings. These tests pin both against the masked protocol,
bit for bit: ``aggregate_reference`` (one ``Generator`` per mask) and the
masked matrix that ``masked_inputs`` derives on first read.
"""

import numpy as np
import pytest

import repro.secure.secagg as secagg_module
from repro.core import GroupFELTrainer, TrainerConfig
from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.secure import (
    BackdoorDetector,
    DropoutTolerantAggregator,
    SecureAggregator,
    pairwise_seed,
    split_secret,
)
from repro.telemetry import Telemetry


def _vectors(rng, s, dim):
    """Client updates of one magnitude drawn log-uniformly in 1e-6..1e3."""
    return rng.normal(scale=10.0 ** rng.uniform(-6, 3), size=(s, dim))


def _masked_total(agg, res, dim):
    """The protocol's output: the decoded ring sum of the masked uploads."""
    return agg.codec.decode(res.masked_inputs.sum(axis=0, dtype=np.uint64)[:dim])


class TestRandomSweep:
    @pytest.mark.parametrize("payload_factor", [1, 2])
    def test_total_equals_the_masked_sum(self, payload_factor):
        rng = np.random.default_rng(payload_factor)
        agg = SecureAggregator(payload_factor=payload_factor)
        for case in range(200):
            s, dim = int(rng.integers(1, 33)), int(10 ** rng.uniform(0, np.log10(3_000)))
            vecs = _vectors(rng, s, dim)
            res = agg.aggregate(vecs, round_id=case, session=payload_factor)
            assert np.array_equal(res.total, _masked_total(agg, res, dim)), case
            assert res.masked_inputs.shape == (s, dim * payload_factor)
            assert res.mask_expansions == s * (s - 1)
            if s <= 6:  # the scalar reference is quadratic in Generator objects
                ref = agg.aggregate_reference(vecs, round_id=case, session=payload_factor)
                assert np.array_equal(res.total, ref.total), case
                assert np.array_equal(res.masked_inputs, ref.masked_inputs), case


def _count_masks(monkeypatch):
    """Record the length of every mask ``secagg`` expands."""
    lengths = []
    pairwise_mask = secagg_module.pairwise_mask

    def counting(seed, dim):
        lengths.append(dim)
        return pairwise_mask(seed, dim)

    monkeypatch.setattr(secagg_module, "pairwise_mask", counting)
    return lengths


class TestMasksExpandOnlyWhenRead:
    def test_total_mean_and_counters_expand_no_mask(self, monkeypatch):
        expansions = _count_masks(monkeypatch)
        tel = Telemetry()
        agg = SecureAggregator(payload_factor=2, telemetry=tel)
        vecs = np.random.default_rng(0).normal(size=(6, 40))
        res = agg.aggregate(vecs, round_id=4, session=1)
        assert np.array_equal(res.mean, res.total / 6)
        assert res.mask_expansions == 30
        counters = tel.metrics.counters()
        assert counters["secagg_calls"] == 1
        assert counters["secagg_mask_expansions"] == 30
        assert counters["secagg_bytes_masked"] == 6 * 40 * 2 * 8
        assert agg.aggregate_weighted(vecs, np.full(6, 0.5), round_id=5).shape == (40,)
        assert expansions == []

        masked = res.masked_inputs
        assert len(expansions) == 30  # one mask per (client, partner)
        assert res.masked_inputs is masked
        assert len(expansions) == 30

    @pytest.mark.parametrize("payload_factor", [1, 2])
    @pytest.mark.parametrize("s", [2, 5])
    def test_reference_expands_every_clients_masks(self, monkeypatch, s, payload_factor):
        """The calibration subject does the protocol's work: s(s−1) masks,
        each as long as the masked payload."""
        expansions = _count_masks(monkeypatch)
        dim = 7
        vecs = np.random.default_rng(s).normal(size=(s, dim))
        SecureAggregator(payload_factor=payload_factor).aggregate_reference(vecs, round_id=1)
        assert expansions == [dim * payload_factor] * (s * (s - 1))


class TestDropoutRecovery:
    def test_total_is_the_survivors_reference_sum(self):
        rng = np.random.default_rng(7)
        for case in range(40):
            s, dim = int(rng.integers(2, 9)), int(rng.integers(1, 200))
            threshold = int(rng.integers(1, s + 1))
            dropped = rng.choice(s, size=int(rng.integers(0, s - threshold + 1)), replace=False)
            vecs = _vectors(rng, s, dim)
            res = DropoutTolerantAggregator(threshold).aggregate(
                vecs, dropped=set(dropped.tolist()), round_id=case, session=3, rng=case
            )
            survivors = np.setdiff1d(np.arange(s), dropped)
            ref = SecureAggregator().aggregate_reference(vecs[survivors])
            assert np.array_equal(res.total, ref.total), case
            assert np.array_equal(res.survivors, survivors)
            assert res.reconstructed_pairs == len(survivors) * len(dropped)
            assert res.shares_used == res.reconstructed_pairs * threshold

    def test_share_draws_keep_their_order(self):
        """Round 0 draws one Shamir polynomial per pair, in pair order, from
        the caller's generator; later draws of a group round share it."""
        s, threshold = 5, 3
        used = np.random.default_rng(11)
        DropoutTolerantAggregator(threshold).aggregate(
            np.ones((s, 4)), dropped={1}, round_id=2, session=9, rng=used
        )
        replay = np.random.default_rng(11)
        for i in range(s):
            for j in range(i + 1, s):
                split_secret(pairwise_seed(2, i, j, 9), s, threshold, rng=replay)
        assert used.integers(2**62) == replay.integers(2**62)


class TestTrainingRun:
    def test_every_group_total_matches_the_masked_protocol(self, monkeypatch):
        """A seeded run shaped like ``secure_groups``: SecAgg and the split
        backdoor filter on, groups of at least 10."""
        train, test = SyntheticImage(noise_std=1.5, seed=0).train_test(600, 100)
        fed = FederatedDataset.from_dataset(
            train, test, num_clients=30, alpha=0.5, size_low=10, size_high=14, rng=1
        )
        groups = group_clients_per_edge(CoVGrouping(10, 0.5), fed.L, [np.arange(30)], rng=0)
        assert min(len(g.members) for g in groups) >= 10
        calls = []
        aggregate = SecureAggregator.aggregate

        def spy(self, vectors, round_id=0, session=0):
            res = aggregate(self, vectors, round_id, session)
            calls.append((self, vectors, round_id, session, res))
            return res

        monkeypatch.setattr(SecureAggregator, "aggregate", spy)
        cfg = TrainerConfig(group_rounds=2, local_rounds=1, num_sampled=2, batch_size=16,
                            lr=0.15, max_rounds=2, use_secure_aggregation=True, seed=0)
        GroupFELTrainer(lambda: make_mlp(192, 10, hidden=(8,), seed=2), fed, groups, cfg,
                        backdoor_detector=BackdoorDetector(criterion="split")).run()
        assert len(calls) == 2 * 2 * 2
        for agg, vectors, round_id, session, res in calls:
            ref = agg.aggregate_reference(vectors, round_id, session)
            assert np.array_equal(res.total, ref.total)
            assert np.array_equal(res.masked_inputs, ref.masked_inputs)
            assert res.mask_expansions == ref.mask_expansions
