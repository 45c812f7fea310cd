"""Tests for sampling probabilities (Eq. 34) and aggregation weights."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grouping import Group
from repro.sampling import (
    AggregationMode,
    GroupSampler,
    aggregation_weights,
    sample_without_replacement,
    sampling_probabilities,
    sampling_probabilities_from_counts,
    uniform_probabilities,
)


def make_groups(covs, n_g=100):
    return [
        Group(i, 0, np.array([i]), np.array([n_g]))  # counts irrelevant here
        for i, _ in enumerate(covs)
    ]


class TestProbabilities:
    def test_uniform(self):
        p = uniform_probabilities(5)
        assert np.allclose(p, 0.2)

    def test_uniform_invalid(self):
        with pytest.raises(ValueError):
            uniform_probabilities(0)

    def test_random_ignores_cov(self):
        covs = np.array([0.1, 1.0, 5.0])
        assert np.allclose(sampling_probabilities(covs, "random"), 1 / 3)

    def test_rcov_ordering(self):
        covs = np.array([0.2, 0.4, 0.8])
        p = sampling_probabilities(covs, "rcov")
        assert p[0] > p[1] > p[2]
        # w(x)=x: p ∝ 1/CoV exactly.
        assert p[0] / p[1] == pytest.approx(2.0)

    def test_increasing_emphasis(self):
        """ESRCoV concentrates more than SRCoV than RCoV (§6.1)."""
        covs = np.array([0.2, 0.4, 0.8, 1.6])
        concentrations = []
        for method in ("rcov", "srcov", "esrcov"):
            p = sampling_probabilities(covs, method)
            concentrations.append(p.max())
        assert concentrations[0] < concentrations[1] < concentrations[2]

    def test_esrcov_no_overflow_for_tiny_cov(self):
        p = sampling_probabilities(np.array([1e-8, 0.5]), "esrcov")
        assert np.isfinite(p).all()
        assert p.sum() == pytest.approx(1.0)

    def test_min_prob_floor(self):
        covs = np.array([0.1, 10.0, 10.0, 10.0])
        p = sampling_probabilities(covs, "esrcov", min_prob=0.05)
        assert p.min() >= 0.05 - 1e-12
        assert p.sum() == pytest.approx(1.0)

    def test_min_prob_infeasible(self):
        with pytest.raises(ValueError, match="infeasible"):
            sampling_probabilities(np.array([1.0, 1.0]), "rcov", min_prob=0.9)

    def test_unknown_method(self):
        with pytest.raises(KeyError):
            sampling_probabilities(np.array([1.0]), "bogus")

    def test_groups_scored_through_their_counts(self):
        groups = [
            Group(0, 0, np.array([0]), np.array([10, 10])),  # CoV 0
            Group(1, 0, np.array([1]), np.array([20, 0])),  # CoV 1
        ]
        counts = np.stack([g.label_counts for g in groups])
        p = sampling_probabilities_from_counts(counts, "rcov")
        assert p[0] > p[1]
        with pytest.raises(TypeError, match="of type Group"):
            sampling_probabilities(groups, "rcov")

    @given(
        st.lists(st.floats(0.01, 10.0), min_size=2, max_size=30),
        st.sampled_from(["random", "rcov", "srcov", "esrcov"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_valid_distribution(self, covs, method):
        p = sampling_probabilities(np.array(covs), method)
        assert p.shape == (len(covs),)
        assert np.all(p >= 0)
        assert p.sum() == pytest.approx(1.0)

    @given(st.lists(st.floats(0.05, 5.0), min_size=3, max_size=20, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_cov(self, covs):
        """Lower CoV ⇒ (weakly) higher probability, for every CoV method.

        Weak inequality with a tiny tolerance: near-identical CoVs can
        collapse to exactly equal weights in floating point.
        """
        covs = np.array(covs)
        for method in ("rcov", "srcov", "esrcov"):
            p = sampling_probabilities(covs, method)
            order = np.argsort(covs)
            sorted_p = p[order]
            assert np.all(np.diff(sorted_p) <= 1e-12)


class TestSampleWithoutReplacement:
    def test_distinct_indices(self):
        p = uniform_probabilities(10)
        idx = sample_without_replacement(p, 5, rng=0)
        assert len(set(idx.tolist())) == 5

    def test_respects_zero_mass(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        for seed in range(5):
            idx = sample_without_replacement(p, 2, rng=seed)
            assert set(idx.tolist()) == {0, 1}

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            sample_without_replacement(uniform_probabilities(3), 4)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            sample_without_replacement(np.array([0.5, 0.6]), 1)

    def test_high_prob_sampled_more(self):
        p = np.array([0.9, 0.05, 0.05])
        hits = sum(
            0 in sample_without_replacement(p, 1, rng=s).tolist() for s in range(100)
        )
        assert hits > 75


class TestAggregationWeights:
    def setup_method(self):
        self.groups = [
            Group(0, 0, np.array([0]), np.array([60, 60])),  # n_g=120
            Group(1, 0, np.array([1]), np.array([40, 40])),  # n_g=80
        ]

    def test_biased_weights(self):
        w = aggregation_weights(self.groups, np.array([0.5, 0.5]), 1000, "biased")
        assert np.allclose(w, [0.6, 0.4])

    def test_unbiased_weights(self):
        p = np.array([0.4, 0.1])
        w = aggregation_weights(self.groups, p, 1000, "unbiased", inclusion=2 * p)
        # Eq. (4): n_g / (p_g * S * n), S=2.
        assert w[0] == pytest.approx(120 / (0.4 * 2 * 1000))
        assert w[1] == pytest.approx(80 / (0.1 * 2 * 1000))

    def test_unbiased_is_unbiased_in_expectation(self):
        """E[Σ_{g∈S_t} n_g/(p_g·S·n) x_g] = Σ_g (n_g/n) x_g for S=1."""
        rng = np.random.default_rng(0)
        n_gs = np.array([120.0, 80.0, 50.0])
        n = n_gs.sum()
        x = rng.normal(size=3)
        p = np.array([0.5, 0.3, 0.2])
        target = float((n_gs / n) @ x)
        # Exact expectation over the S=1 draw.
        est = sum(p[g] * (n_gs[g] / (p[g] * 1 * n)) * x[g] for g in range(3))
        assert est == pytest.approx(target)

    def test_stabilized_sums_to_one(self):
        p = np.array([0.7, 0.01])
        w = aggregation_weights(self.groups, p, 1000, "stabilized", inclusion=2 * p)
        assert w.sum() == pytest.approx(1.0)

    def test_stabilized_bounds_extreme_factor(self):
        """Eq. 35: even a tiny p_g cannot blow the aggregation up."""
        p = np.array([0.999, 1e-6])
        w = aggregation_weights(self.groups, p, 1000, "stabilized", inclusion=2 * p)
        assert w.max() <= 1.0

    def test_plain_list_p_selected_accepted(self):
        """Array-likes work: a plain list used to die on ``.shape``."""
        w = aggregation_weights(self.groups, [0.5, 0.5], 1000, "biased")
        assert np.allclose(w, [0.6, 0.4])
        w = aggregation_weights(
            self.groups, (0.4, 0.1), 1000, "unbiased", inclusion=[0.8, 0.2]
        )
        assert w[0] == pytest.approx(120 / (0.4 * 2 * 1000))

    def test_zero_total_samples_raises(self):
        """total_samples=0 used to yield silent inf/nan weights."""
        for mode in ("unbiased", "stabilized"):
            with pytest.raises(ValueError, match="total_samples"):
                aggregation_weights(self.groups, np.array([0.5, 0.5]), 0, mode)
        with pytest.raises(ValueError, match="total_samples"):
            aggregation_weights(self.groups, np.array([0.5, 0.5]), -3, "unbiased")
        # biased mode never divides by it — stays permissive
        w = aggregation_weights(self.groups, np.array([0.5, 0.5]), 0, "biased")
        assert w.sum() == pytest.approx(1.0)

    def test_unbiased_modes_require_inclusion(self):
        """No silent S·p_g fallback: without α the unbiased and stabilized
        modes refuse, naming the mode and where α comes from; with π the
        weight is n_g/(n·π_g)."""
        p = np.array([0.4, 0.1])
        for mode in ("unbiased", "stabilized"):
            with pytest.raises(
                ValueError, match=rf"{mode}.*scheme\.expected_multiplicity"
            ):
                aggregation_weights(self.groups, p, 1000, mode)
        pi = np.array([0.9, 0.25])
        w = aggregation_weights(self.groups, p, 1000, "unbiased", inclusion=pi)
        assert w[0] == pytest.approx(120 / (0.9 * 1000))
        assert w[1] == pytest.approx(80 / (0.25 * 1000))

    def test_multiplicity_scales_weights(self):
        """A group drawn twice (multinomial) counts twice, trains once."""
        base = aggregation_weights(
            self.groups, np.array([0.4, 0.1]), 1000, "unbiased",
            inclusion=np.array([0.8, 0.2]),
        )
        doubled = aggregation_weights(
            self.groups, np.array([0.4, 0.1]), 1000, "unbiased",
            inclusion=np.array([0.8, 0.2]), multiplicity=np.array([2.0, 1.0]),
        )
        assert doubled[0] == pytest.approx(2 * base[0])
        assert doubled[1] == pytest.approx(base[1])

    def test_bad_inclusion_rejected(self):
        with pytest.raises(ValueError, match="finite and positive"):
            aggregation_weights(
                self.groups, np.array([0.4, 0.1]), 1000, "unbiased",
                inclusion=np.array([0.5, 0.0]),
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            aggregation_weights(self.groups, np.array([0.5]), 1000, "biased")


class TestGroupSampler:
    def make_sampler(self, method="esrcov", num=2, mode="biased"):
        rng = np.random.default_rng(0)
        groups = []
        for i in range(6):
            counts = rng.integers(0, 30, size=5)
            counts[0] += 5  # ensure nonzero
            groups.append(Group(i, 0, np.array([i]), counts))
        return GroupSampler(groups, method=method, num_sampled=num, mode=mode, rng=1)

    def test_sample_returns_weights(self):
        sampler = self.make_sampler()
        groups, weights = sampler.sample()
        assert len(groups) == 2
        assert weights.shape == (2,)

    def test_biased_weights_sum_to_one(self):
        groups, weights = self.make_sampler(mode="biased").sample()
        assert weights.sum() == pytest.approx(1.0)

    def test_gamma_p(self):
        sampler = self.make_sampler(method="random")
        assert sampler.gamma_p() == pytest.approx(36.0)  # 6 groups × 1/(1/6)

    def test_invalid_num_sampled(self):
        with pytest.raises(ValueError):
            GroupSampler([], method="random", num_sampled=1)

    @pytest.mark.parametrize("method", ["random", "rcov", "srcov", "esrcov"])
    def test_one_pass_p_bytes_match_per_group_covs(self, method):
        """Scoring the stacked counts in one pass gives the same p bytes as
        scoring each group's CoV on its own."""
        rng = np.random.default_rng(5)
        groups = [
            Group(i, 0, np.array([i]), rng.integers(0, 400, size=10))
            for i in range(439)
        ]
        sampler = GroupSampler(groups, method=method, num_sampled=8, rng=0)
        per_group = sampling_probabilities([g.cov for g in groups], method)
        assert sampler.p.tobytes() == per_group.tobytes()

    def test_esrcov_prefers_low_cov(self):
        sampler = self.make_sampler(method="esrcov", num=1)
        covs = np.array([g.cov for g in sampler.groups])
        best = int(np.argmin(covs))
        picks = [sampler.sample()[0][0].group_id for _ in range(20)]
        assert picks.count(best) >= 15
