"""Tests for grouping extensions: γ-aware grouping, and CoV-Grouping's
greedy gap against the exact solver in ``tests/oracles/``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grouping import CoVGammaGrouping, CoVGrouping, make_grouper
from repro.theory import gamma_of_group
from tests.oracles.exhaustive_grouping import (
    exhaustive_optimal_grouping,
    sum_cov_objective,
)


def label_matrix_with_size_skew(n=24, m=6, seed=0):
    """Clients with skewed labels AND very different data amounts."""
    rng = np.random.default_rng(seed)
    props = rng.dirichlet(np.full(m, 0.2), size=n)
    totals = rng.choice([20, 200], size=n)  # bimodal data amounts
    return np.stack([rng.multinomial(totals[i], props[i]) for i in range(n)])


class TestCoVGammaGrouping:
    def test_partition_valid(self):
        L = label_matrix_with_size_skew()
        groups = CoVGammaGrouping(4, 0.8, gamma_weight=0.5).group(
            L, np.arange(24), rng=0
        )
        members = np.concatenate([g.members for g in groups])
        assert sorted(members.tolist()) == list(range(24))

    def test_zero_weight_beats_random_on_cov(self):
        """gamma_weight=0 reduces to a CoV-greedy criterion: it must still
        beat random grouping on average CoV (it lacks CoV-Grouping's
        undersized-leftover repair, so exact parity is not expected)."""
        from repro.grouping import RandomGrouping

        L = label_matrix_with_size_skew()
        a = CoVGammaGrouping(4, 0.5, gamma_weight=0.0).group(L, np.arange(24), rng=7)
        r = RandomGrouping(group_size=5).group(L, np.arange(24), rng=7)
        # Compare size-weighted mean CoV (undersized leftovers carry few
        # clients, so weight by membership).
        def weighted_cov(groups):
            sizes = np.array([g.size for g in groups], dtype=float)
            covs = np.array([g.cov for g in groups])
            return float((sizes * covs).sum() / sizes.sum())

        assert weighted_cov(a) < weighted_cov(r) + 0.05

    def test_reduces_gamma_vs_covg(self):
        """With weight on data-count dispersion, groups have smaller γ."""
        L = label_matrix_with_size_skew()
        sizes = L.sum(axis=1)

        def mean_gamma(groups):
            return np.mean([
                gamma_of_group(sizes[g.members].astype(float)) for g in groups
            ])

        plain_gammas, weighted_gammas = [], []
        for seed in range(4):
            plain = CoVGrouping(4, 0.5).group(L, np.arange(24), rng=seed)
            weighted = CoVGammaGrouping(4, 0.9, gamma_weight=2.0).group(
                L, np.arange(24), rng=seed
            )
            plain_gammas.append(mean_gamma(plain))
            weighted_gammas.append(mean_gamma(weighted))
        assert np.mean(weighted_gammas) < np.mean(plain_gammas) + 0.02

    def test_registry(self):
        assert isinstance(make_grouper("covg_gamma"), CoVGammaGrouping)

    def test_validation(self):
        with pytest.raises(ValueError):
            CoVGammaGrouping(0)
        with pytest.raises(ValueError):
            CoVGammaGrouping(3, max_score=-1)
        with pytest.raises(ValueError):
            CoVGammaGrouping(3, gamma_weight=-1)


class TestExhaustiveOptimal:
    def test_finds_known_optimum(self):
        """Fig. 4's toy case: pairing complementary clients gives ΣCoV=0."""
        L = np.array([
            [4, 0], [0, 4],  # complementary pair
            [2, 2], [2, 2],  # already balanced pair
        ])
        partition, obj = exhaustive_optimal_grouping(L, group_size=2)
        assert obj == pytest.approx(0.0)
        assert sorted(map(sorted, partition)) == [[0, 1], [2, 3]]

    def test_objective_matches_helper(self):
        rng = np.random.default_rng(0)
        L = rng.integers(0, 10, size=(6, 3))
        partition, obj = exhaustive_optimal_grouping(L, group_size=3)
        assert obj == pytest.approx(sum_cov_objective(L, partition))

    def test_limits(self):
        with pytest.raises(ValueError, match="limited"):
            exhaustive_optimal_grouping(np.zeros((20, 2)), 2)
        with pytest.raises(ValueError, match="divisible"):
            exhaustive_optimal_grouping(np.ones((5, 2)), 2)

    @given(st.integers(0, 100))
    @settings(max_examples=10, deadline=None)
    def test_greedy_vs_optimal_gap(self, seed):
        """CoV-Grouping's greedy objective is within 2× of optimal on tiny
        instances (it is a heuristic for an NP-hard problem — §5.3)."""
        rng = np.random.default_rng(seed)
        props = rng.dirichlet(np.full(3, 0.3), size=8)
        L = np.stack([rng.multinomial(30, props[i]) for i in range(8)])
        _, optimal = exhaustive_optimal_grouping(L, group_size=4)
        greedy_groups = CoVGrouping(4, float("inf")).group(L, np.arange(8), rng=0)
        greedy = sum(g.cov for g in greedy_groups)
        assert greedy >= optimal - 1e-9  # optimal is a true lower bound
        assert greedy <= 2.0 * optimal + 0.5  # and greedy is never terrible
