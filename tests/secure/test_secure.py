"""Tests for secure aggregation, quantization, and backdoor detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.secure import (
    BackdoorDetector,
    FixedPointCodec,
    SecureAggregator,
    pairwise_mask,
    pairwise_seed,
)


class TestFixedPointCodec:
    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(0)
        codec = FixedPointCodec()
        v = rng.normal(size=1000)
        back = codec.decode(codec.encode(v))
        assert np.abs(back - v).max() <= codec.roundtrip_error_bound()

    def test_negative_values(self):
        codec = FixedPointCodec()
        v = np.array([-1.5, -1e-6, 0.0, 1e-6, 1.5])
        assert np.allclose(codec.decode(codec.encode(v)), v, atol=1e-7)

    def test_clipping(self):
        codec = FixedPointCodec(clip=10.0)
        v = np.array([100.0, -100.0])
        assert np.allclose(codec.decode(codec.encode(v)), [10.0, -10.0])

    def test_ring_addition_equals_sum(self):
        rng = np.random.default_rng(1)
        codec = FixedPointCodec()
        a, b = rng.normal(size=50), rng.normal(size=50)
        ring_sum = codec.encode(a) + codec.encode(b)  # uint64 wraparound
        assert np.allclose(codec.decode(ring_sum), a + b, atol=1e-6)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            FixedPointCodec(scale=0)
        with pytest.raises(ValueError):
            FixedPointCodec(clip=-1)

    def test_blocked_encode_is_bytewise_the_whole_array_encode(self):
        """``encode`` works through a small buffer in blocks; every element
        must come out as the one-shot clip → scale → round → cast gives it,
        whatever the shape, layout, dtype or block boundary, and the input
        stays untouched."""
        from repro.secure.quantize import _BLOCK

        def whole(codec, v):
            v = np.asarray(v, dtype=np.float64)
            scaled = np.clip(v, -codec.clip, codec.clip) * codec.scale
            return np.rint(scaled).astype(np.int64).view(np.uint64)

        rng = np.random.default_rng(7)
        specials = np.array([np.inf, -np.inf, 0.0, -0.0, 0.5, -0.5, 1e6, -1e6])
        cases = [np.float64(-3.25), np.empty((0, 5)), specials]
        for size in (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17):
            cases.append(rng.normal(scale=10.0 ** rng.uniform(-6, 7), size=size))
        for _ in range(40):
            s, d = rng.integers(1, 33), rng.integers(1, 30_000)
            v = rng.normal(scale=10.0 ** rng.uniform(-6, 7), size=(s, d))
            v.flat[rng.integers(0, v.size, 4)] = rng.choice(specials, 4)
            cases.append(v)
        cases += [cases[-1][:, ::3], cases[-1].T, cases[-2].astype(np.float32)]
        cases.append(rng.integers(-10**6, 10**6, size=(4, 9)))
        for scale, clip in [(2.0**24, 1e6), (2.0**10, 3.0), (1e3, 1e-3)]:
            codec = FixedPointCodec(scale=scale, clip=clip)
            for v in cases:
                kept = np.array(v, copy=True)
                got, want = codec.encode(v), whole(codec, v)
                assert got.dtype == np.uint64 and got.shape == np.shape(v)
                assert got.tobytes() == want.tobytes()
                assert np.array_equal(v, kept)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property(self, values):
        codec = FixedPointCodec()
        v = np.array(values)
        assert np.allclose(codec.decode(codec.encode(v)), v, atol=1e-6)


class TestPairwiseMasks:
    def test_seed_symmetric(self):
        assert pairwise_seed(3, 1, 2) == pairwise_seed(3, 2, 1)

    def test_seed_differs_by_round(self):
        assert pairwise_seed(1, 1, 2) != pairwise_seed(2, 1, 2)

    def test_seed_differs_by_pair(self):
        assert pairwise_seed(1, 1, 2) != pairwise_seed(1, 1, 3)

    def test_mask_deterministic(self):
        m1 = pairwise_mask(42, 100)
        m2 = pairwise_mask(42, 100)
        assert np.array_equal(m1, m2)

    def test_mask_full_range(self):
        m = pairwise_mask(7, 10_000)
        # Uniform over uint64: mean near 2^63.
        assert 0.4 < m.mean() / 2**64 < 0.6


class TestSecureAggregator:
    def test_sum_exact_up_to_rounding(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(5, 200))
        res = SecureAggregator().aggregate(vecs, round_id=1)
        assert np.allclose(res.total, vecs.sum(axis=0), atol=1e-6)

    def test_single_client(self):
        vecs = np.array([[1.0, -2.0, 3.0]])
        res = SecureAggregator().aggregate(vecs)
        assert np.allclose(res.total, vecs[0], atol=1e-6)
        assert res.mask_expansions == 0

    def test_mask_expansions_quadratic(self):
        rng = np.random.default_rng(0)
        for s in (2, 4, 8):
            res = SecureAggregator().aggregate(rng.normal(size=(s, 10)))
            assert res.mask_expansions == s * (s - 1)

    def test_server_view_reveals_nothing(self):
        """Masked inputs differ wildly from the raw encodings."""
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(4, 100))
        agg = SecureAggregator()
        res = agg.aggregate(vecs, round_id=5)
        raw_enc = np.stack([agg.codec.encode(v) for v in vecs])
        # No masked row equals its raw encoding (masks applied).
        for i in range(4):
            assert not np.array_equal(res.masked_inputs[i], raw_enc[i])

    def test_weighted_aggregation(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(3, 50))
        w = np.array([0.5, 0.3, 0.2])
        total = SecureAggregator().aggregate_weighted(vecs, w, round_id=2)
        assert np.allclose(total, (vecs * w[:, None]).sum(axis=0), atol=1e-6)

    def test_payload_factor_extra_masks(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(3, 20))
        res1 = SecureAggregator(payload_factor=1).aggregate(vecs)
        res2 = SecureAggregator(payload_factor=2).aggregate(vecs)
        assert res2.masked_inputs.shape[1] == 2 * res1.masked_inputs.shape[1]
        assert np.allclose(res1.total, res2.total, atol=1e-6)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            SecureAggregator().aggregate(np.zeros(5))
        with pytest.raises(ValueError):
            SecureAggregator(payload_factor=0)

    def test_deterministic_given_round(self):
        rng = np.random.default_rng(0)
        vecs = rng.normal(size=(3, 30))
        a = SecureAggregator().aggregate(vecs, round_id=9)
        b = SecureAggregator().aggregate(vecs, round_id=9)
        assert np.array_equal(a.masked_inputs, b.masked_inputs)

    def test_session_separates_streams(self):
        rng = np.random.default_rng(4)
        vecs = rng.normal(size=(5, 30))
        agg = SecureAggregator()
        a = agg.aggregate(vecs, round_id=0, session=1)
        b = agg.aggregate(vecs, round_id=0, session=2)
        # Different sessions, different masks — but identical decoded sums.
        assert not np.array_equal(a.masked_inputs, b.masked_inputs)
        assert np.allclose(a.total, b.total, atol=1e-6)

    @given(st.integers(1, 8), st.integers(1, 40))
    @settings(max_examples=20, deadline=None)
    def test_masks_cancel_property(self, s, dim):
        rng = np.random.default_rng(s * 100 + dim)
        vecs = rng.normal(size=(s, dim))
        res = SecureAggregator().aggregate(vecs, round_id=0)
        assert np.allclose(res.total, vecs.sum(axis=0), atol=1e-5)


class TestBackdoorDetector:
    def test_catches_flipped_updates(self):
        rng = np.random.default_rng(0)
        direction = rng.normal(size=100)
        honest = direction + 0.1 * rng.normal(size=(8, 100))
        attack = -direction + 0.1 * rng.normal(size=(2, 100))
        report = BackdoorDetector(0.5).detect(np.vstack([honest, attack]), rng=0)
        assert set(report.flagged.tolist()) == {8, 9}

    def test_all_honest_admitted(self):
        rng = np.random.default_rng(1)
        direction = rng.normal(size=50)
        honest = direction + 0.05 * rng.normal(size=(6, 50))
        report = BackdoorDetector(0.5).detect(honest, rng=0)
        assert len(report.admitted) == 6
        assert len(report.flagged) == 0

    def test_single_client_admitted(self):
        report = BackdoorDetector().detect(np.ones((1, 10)), rng=0)
        assert report.admitted.tolist() == [0]

    def test_rejects_diverged_updates_by_row(self):
        updates = np.random.default_rng(4).normal(size=(6, 20))
        updates[1, 3] = np.nan
        updates[4, 0] = -np.inf
        with pytest.raises(ValueError, match=r"update rows \[1, 4\] hold NaN or inf"):
            BackdoorDetector().detect(updates, rng=0)

    def test_rejects_empty_updates(self):
        with pytest.raises(ValueError, match=r"empty \(0, 10\) matrix"):
            BackdoorDetector().detect(np.empty((0, 10)), rng=0)

    def test_clipping_bounds_norms(self):
        rng = np.random.default_rng(2)
        direction = rng.normal(size=50)
        updates = np.stack([direction * s for s in (0.5, 1.0, 1.0, 1.0, 10.0)])
        report = BackdoorDetector(0.5).detect(updates, rng=0)
        norms = np.linalg.norm(report.filtered, axis=1)
        assert norms.max() <= report.clip_norm * (1 + 1e-9)

    def test_noise_injection(self):
        rng = np.random.default_rng(3)
        updates = rng.normal(size=(5, 50))
        no_noise = BackdoorDetector(2.0, noise_std_factor=0.0).detect(updates, rng=1)
        noisy = BackdoorDetector(2.0, noise_std_factor=0.1).detect(updates, rng=1)
        assert not np.allclose(no_noise.filtered, noisy.filtered)

    def test_cosine_distance_matrix(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        d = BackdoorDetector.cosine_distance_matrix(a)
        assert d[0, 0] == 0.0
        assert d[0, 1] == pytest.approx(1.0)
        assert d[0, 2] == pytest.approx(2.0)
        assert np.allclose(d, d.T)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            BackdoorDetector(0.0)
        with pytest.raises(ValueError):
            BackdoorDetector(0.5, noise_std_factor=-1)
