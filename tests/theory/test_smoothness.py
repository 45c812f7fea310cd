"""Tests for the smoothness probes (Assumption 2 / Eq. 19)."""

import numpy as np
import pytest

from repro.nn import make_mlp
from repro.theory import check_descent_lemma, estimate_smoothness


@pytest.fixture(scope="module")
def task():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, 6))
    y = rng.integers(0, 3, size=64)
    return x, y


class TestEstimateSmoothness:
    def test_positive_and_finite(self, task):
        x, y = task
        model = make_mlp(6, 3, hidden=(), seed=0)
        L = estimate_smoothness(model, x, y, num_pairs=10, rng=0)
        assert 0 < L < np.inf

    def test_softmax_regression_bounded_curvature(self, task):
        """Softmax regression's Hessian norm is bounded by ~‖X‖²/(2N)·c;
        the secant estimate must respect a generous version of it."""
        x, y = task
        model = make_mlp(6, 3, hidden=(), seed=0)
        L = estimate_smoothness(model, x, y, num_pairs=20, rng=0)
        crude_bound = float((x**2).sum(axis=1).max())  # per-sample feature energy
        assert L <= crude_bound

    def test_restores_params(self, task):
        x, y = task
        model = make_mlp(6, 3, hidden=(8,), seed=0)
        before = model.get_params().copy()
        estimate_smoothness(model, x, y, num_pairs=5, rng=0)
        assert np.allclose(model.get_params(), before)

    def test_validation(self, task):
        x, y = task
        model = make_mlp(6, 3, hidden=(), seed=0)
        with pytest.raises(ValueError):
            estimate_smoothness(model, x, y, num_pairs=0)


class TestDescentLemma:
    def test_holds_with_estimated_L_margin(self, task):
        """Eq. (19) holds at sampled pairs once L has a safety factor —
        the inequality the whole Theorem-1 proof starts from."""
        x, y = task
        model = make_mlp(6, 3, hidden=(), seed=0)
        L = estimate_smoothness(model, x, y, num_pairs=30, radius=0.5, rng=0)
        ok, violation = check_descent_lemma(
            model, x, y, L=3.0 * L, num_pairs=30, radius=0.5, rng=1
        )
        assert ok, f"descent lemma violated by {violation:.2e}"

    def test_fails_with_tiny_L(self, task):
        """With L far too small the quadratic bound must break — the check
        actually checks something."""
        x, y = task
        model = make_mlp(6, 3, hidden=(), seed=0)
        ok, violation = check_descent_lemma(
            model, x, y, L=1e-9, num_pairs=30, radius=0.5, rng=1
        )
        assert not ok
        assert violation > 0

    def test_validation(self, task):
        x, y = task
        model = make_mlp(6, 3, hidden=(), seed=0)
        with pytest.raises(ValueError):
            check_descent_lemma(model, x, y, L=0.0)
