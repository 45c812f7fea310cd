"""Regression tests for sampling-probability edge cases.

Three historical failure modes:

1. ESRCoV underflow — disparate CoVs become a *squared* gap in log space,
   so the softmax shift pushed high-CoV groups to ``exp(very negative) ==
   0.0`` exactly: p_g = 0, Γ_p = Σ 1/p_g = inf, and Eq. 4 unbiased weights
   divided by zero.
2. Floor-renormalization drift — ``min_prob`` water-filling can leave
   ``p.sum()`` within our ``np.isclose`` guard but outside ``rng.choice``'s
   stricter internal sum check, so a vector we accepted was rejected one
   call deeper.
3. Input sniffing — ``groups[0]`` type detection broke on non-indexable
   iterables and silently mis-read mixed Group/float input. Now
   ``sampling_probabilities`` takes CoV values only and names any other
   element; groups are scored through their label counts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grouping import Group
from repro.population import ColumnarPopulation, group_label_counts
from repro.sampling import (
    GroupSampler,
    aggregation_weights,
    gamma_p,
    sample_without_replacement,
    sampling_probabilities,
    sampling_probabilities_from_counts,
)


def make_groups(covs):
    """Groups whose label counts realize (approximately) the given CoVs."""
    groups = []
    for i, _ in enumerate(covs):
        groups.append(Group(i, 0, np.array([i]), np.array([100])))
    return groups


class TestEsrcovUnderflow:
    def test_disparate_covs_all_strictly_positive(self):
        """The regression: CoVs spanning [cov_floor, 10] used to underflow
        the high-CoV groups to p_g == 0 under esrcov."""
        covs = np.array([1e-3, 0.05, 0.5, 2.0, 10.0])
        p = sampling_probabilities(covs, "esrcov")
        assert np.all(p > 0.0), f"zero probabilities: {p}"
        assert p.sum() == pytest.approx(1.0)

    def test_gamma_p_stays_finite(self):
        covs = np.array([1e-3, 10.0, 10.0])
        p = sampling_probabilities(covs, "esrcov")
        gamma_p = np.sum(1.0 / p)
        assert np.isfinite(gamma_p)

    def test_unbiased_weights_stay_finite(self):
        """Eq. 4 divides by p_g; an underflowed group made the weight inf."""
        covs = np.array([1e-3, 8.0])
        groups = [
            Group(0, 0, np.array([0]), np.array([60, 60])),
            Group(1, 0, np.array([1]), np.array([40, 40])),
        ]
        p = sampling_probabilities(covs, "esrcov")
        w = aggregation_weights(groups, p, 1000, "unbiased", inclusion=2 * p)
        assert np.isfinite(w).all()

    def test_sampler_with_extreme_cov_spread(self):
        """End to end: a sampler over extreme CoVs draws and reports Γ_p."""
        rng = np.random.default_rng(0)
        counts = [
            np.array([50, 50, 50]),        # CoV 0 → clamped to cov_floor
            np.array([150, 0, 0]),         # highly skewed
            np.array([149, 1, 0]),
        ]
        groups = [Group(i, 0, np.array([i]), c) for i, c in enumerate(counts)]
        sampler = GroupSampler(groups, method="esrcov", num_sampled=2, rng=rng)
        assert np.all(sampler.p > 0)
        assert np.isfinite(sampler.gamma_p())
        selected, weights = sampler.sample()
        assert len(selected) == 2 and np.isfinite(weights).all()

    def test_floor_does_not_distort_sampleable_mass(self):
        """The clamp only props up immeasurably small probabilities; the
        dominant ones keep their exact softmax values."""
        covs = np.array([0.1, 0.11, 9.0])
        p = sampling_probabilities(covs, "esrcov")
        x = 1.0 / covs[:2]
        expected_ratio = np.exp(x[0] ** 2 - x[1] ** 2)
        assert p[0] / p[1] == pytest.approx(expected_ratio, rel=1e-12)
        assert 0.0 < p[2] < 1e-20  # floored, but nonzero

    @given(st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_strictly_positive_over_full_cov_range(self, covs):
        """Property: any CoV mix in [cov_floor, 10] yields p > 0 and finite
        Γ_p for every method."""
        covs = np.array(covs)
        for method in ("random", "rcov", "srcov", "esrcov"):
            p = sampling_probabilities(covs, method)
            assert np.all(p > 0.0)
            assert np.isfinite(np.sum(1.0 / p))


class TestFlooredVectorDraw:
    def test_drift_within_isclose_tolerance_still_draws(self):
        """A sum within our np.isclose guard but outside rng.choice's
        stricter check used to raise inside the draw."""
        p = np.full(4, 0.25)
        p[0] += 1e-6  # passes isclose(sum, 1), fails choice's sqrt(eps) gate
        idx = sample_without_replacement(p, 2, rng=0)
        assert len(set(idx.tolist())) == 2

    def test_min_prob_floor_output_is_always_drawable(self):
        """End to end: heavily floored esrcov vectors over many group counts
        must never be rejected by the draw."""
        for n in range(3, 24):
            covs = np.linspace(1e-3, 10.0, n)
            p = sampling_probabilities(covs, "esrcov", min_prob=1.0 / (2 * n))
            for seed in range(3):
                idx = sample_without_replacement(p, 2, rng=seed)
                assert len(set(idx.tolist())) == 2

    def test_clearly_invalid_vector_still_rejected(self):
        """The pre-draw renormalization must not paper over real errors."""
        with pytest.raises(ValueError, match="probability vector"):
            sample_without_replacement(np.array([0.7, 0.7]), 1, rng=0)
        with pytest.raises(ValueError, match="probability vector"):
            sample_without_replacement(np.array([1.5, -0.5]), 1, rng=0)


class TestInputNormalization:
    def test_generator_of_groups(self):
        groups = make_groups([0.2, 0.4])
        with pytest.raises(TypeError, match="sampling_probabilities_from_counts"):
            sampling_probabilities(g for g in groups)

    def test_generator_of_floats(self):
        p = sampling_probabilities((c for c in [0.2, 0.4, 0.8]), "rcov")
        assert p[0] > p[1] > p[2]

    def test_tuple_and_list_of_numbers(self):
        expected = sampling_probabilities(np.array([0.2, 0.4]), "rcov")
        np.testing.assert_allclose(
            sampling_probabilities((0.2, 0.4), "rcov"), expected
        )
        np.testing.assert_allclose(
            sampling_probabilities([0.2, np.float64(0.4)], "rcov"), expected
        )

    def test_python_ints_accepted_as_covs(self):
        p = sampling_probabilities([1, 2, 4], "rcov")
        assert p[0] > p[1] > p[2]

    def test_mixed_groups_and_floats_rejected(self):
        groups = make_groups([0.2])
        with pytest.raises(TypeError, match="of type Group"):
            sampling_probabilities([groups[0], 0.4])

    def test_non_iterable_rejected(self):
        with pytest.raises(TypeError, match="iterable"):
            sampling_probabilities(0.5)  # a scalar is not a group list

    def test_foreign_element_named_in_error(self):
        with pytest.raises(TypeError, match="str"):
            sampling_probabilities([0.2, "0.4"])

    def test_bools_rejected(self):
        """bool is an int subclass; as a CoV it is always a bug."""
        with pytest.raises(TypeError, match="bool"):
            sampling_probabilities([True, False])

    def test_object_dtype_array_rejected(self):
        arr = np.array([0.2, "x"], dtype=object)
        with pytest.raises(TypeError, match="numeric"):
            sampling_probabilities(arr)

    def test_empty_input_still_a_value_error(self):
        with pytest.raises(ValueError, match="zero groups"):
            sampling_probabilities([])


class TestColumnarScale:
    """10⁵-client columnar case: the whole p-vector path — group label
    counts → CoV → p_g → Γ_p — runs on flat arrays with no Group objects
    and no client materialization, and the result is still a valid,
    unbiased sampling distribution."""

    NUM_CLIENTS = 100_000
    BLOCK = 100  # clients per group → 1000 groups

    @pytest.fixture(scope="class")
    def counts(self):
        store = ColumnarPopulation.synthetic(self.NUM_CLIENTS, 10, seed=17)
        assert not store.has_data  # metadata only, end to end
        num_groups = self.NUM_CLIENTS // self.BLOCK
        counts = store.L.reshape(num_groups, self.BLOCK, store.num_classes).sum(
            axis=1
        )
        # Same answer as the general member-indexed aggregation.
        members = np.arange(self.NUM_CLIENTS).reshape(num_groups, self.BLOCK)
        np.testing.assert_array_equal(
            counts, group_label_counts(store.L, list(members))
        )
        return counts

    @pytest.mark.parametrize("method", ["rcov", "srcov", "esrcov"])
    def test_p_is_a_valid_distribution(self, counts, method):
        p = sampling_probabilities_from_counts(counts, method)
        assert p.shape == (counts.shape[0],)
        assert (p > 0.0).all()
        assert np.isclose(p.sum(), 1.0)
        assert np.isfinite(gamma_p(p))

    def test_eq4_unbiased_within_clt_tolerance(self, counts):
        """Eq. 4: E[Σ_{g∈S} n_g/(n·p_g·S) · x_g] = Σ_g (n_g/n)·x_g, checked
        with S=1 independent draws over the 1000-group columnar p. The
        identity holds for any strictly positive p; rcov keeps the vector
        spread moderate enough for a CLT check to resolve (esrcov squares
        the CoV gaps, so over 1000 near-homogeneous groups it concentrates
        almost all mass on one group and the test would need ~1/p_min
        draws)."""
        p = sampling_probabilities_from_counts(counts, "rcov")
        n_g = counts.sum(axis=1).astype(np.float64)
        n = n_g.sum()
        rng = np.random.default_rng(99)
        x = rng.standard_normal(counts.shape[0])
        target = float((n_g / n) @ x)

        rounds = 4000
        draws = rng.choice(counts.shape[0], size=rounds, p=p)
        estimates = (n_g[draws] / (n * p[draws])) * x[draws]
        se = estimates.std(ddof=1) / np.sqrt(rounds)
        assert abs(estimates.mean() - target) < 4.0 * se


class TestApplyFloorProperties:
    """Hypothesis properties of the min_prob water-filling floor.

    For any CoV mix and any feasible floor, the floored vector must be
    (a) an exact probability distribution — tight enough for
    ``rng.choice``'s internal sum check, not just ``np.isclose`` —
    (b) entirely at-or-above the floor, and (c) mass-conserving: the
    pinned entries hold exactly ``floor`` each and the free entries share
    the remainder in the same proportions they had before flooring.
    """

    @given(
        covs=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=30),
        floor_frac=st.floats(0.0, 0.95),
        method=st.sampled_from(["rcov", "srcov", "esrcov"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_floored_vector_properties(self, covs, floor_frac, method):
        n = len(covs)
        floor = floor_frac / n  # always feasible: floor·n = floor_frac < 1
        p_raw = sampling_probabilities(np.array(covs), method)
        p = sampling_probabilities(np.array(covs), method, min_prob=floor)

        # (a) sums to 1 within one rounding — the rng.choice-tight bound.
        assert abs(p.sum() - 1.0) < 1e-12
        # (b) nothing below the floor.
        assert (p >= floor - 1e-15).all()
        # (c) free entries keep their pre-floor proportions.
        free = p > floor + 1e-12
        if free.sum() >= 2:
            ratios = p[free] / p_raw[free]
            assert np.allclose(ratios, ratios[0], rtol=1e-9)

    @given(
        covs=st.lists(st.floats(1e-3, 10.0), min_size=2, max_size=20),
        floor_frac=st.floats(0.2, 0.95),
    )
    @settings(max_examples=80, deadline=None)
    def test_floored_vector_always_drawable(self, covs, floor_frac):
        """End to end: every floored vector passes rng.choice's strict
        internal sum validation (the historical drift failure)."""
        n = len(covs)
        p = sampling_probabilities(
            np.array(covs), "esrcov", min_prob=floor_frac / n
        )
        rng = np.random.default_rng(0)
        idx = sample_without_replacement(p, min(2, n), rng)
        assert len(set(idx.tolist())) == min(2, n)
