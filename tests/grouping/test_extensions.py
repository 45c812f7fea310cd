"""CoV-Grouping's greedy gap against the exact solver in ``tests/oracles/``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grouping import CoVGrouping
from tests.oracles.exhaustive_grouping import (
    exhaustive_optimal_grouping,
    sum_cov_objective,
)


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
