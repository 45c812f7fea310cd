"""Statistical check that the corrected aggregation weights are unbiased.

The estimator  Σ_{g∈S_t} m_g·(n_g/n)/α_g · x_g  has expectation
Σ_g (n_g/n) x_g — the full-participation aggregate — whenever α_g is the
group's true *expected multiplicity* in S_t. The paper's Eq. (4) plugs in
α_g = S·p_g, which is exact for multinomial (with-replacement) sampling
and for S=1, but **wrong** for the sequential without-replacement draw at
S>1 with non-uniform p: there the true inclusion probability π_g deviates
from S·p_g (high-p groups can't be drawn twice, so π_g < S·p_g and the
freed mass flows to the tail). This suite verifies, over ~2k sampled
rounds and a 4-standard-error CLT tolerance:

* S=1 (all methods) — the original claim, unchanged;
* S ∈ {2, 3} under multinomial sampling — Eq. (4)'s S·p_g weights are
  exact there;
* S ∈ {2, 3} under sequential WOR — the π-corrected Horvitz–Thompson
  weights ``n_g/(n·π_g)`` are unbiased;
* the regression: the *old* S·p_g weights under sequential WOR are
  measurably biased (both in exact expectation and empirically), pinning
  the bug this fix removes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.grouping import Group
from repro.sampling import (
    AggregationMode,
    GroupSampler,
    aggregation_weights,
    sequential_wor_inclusion_exact,
)

METHODS = ["rcov", "srcov", "esrcov"]
ROUNDS = 2000


def _make_groups(num_groups: int = 6, classes: int = 5, seed: int = 3) -> list[Group]:
    """Groups with deliberately spread CoVs (and hence spread p_g)."""
    rng = np.random.default_rng(seed)
    groups = []
    for gid in range(num_groups):
        base = rng.integers(20, 120)
        skew = rng.uniform(0.0, 3.0, size=classes)
        counts = np.maximum(1, (base * np.exp(skew) / np.exp(skew).max())).astype(np.int64)
        groups.append(Group(
            group_id=gid, edge_id=0,
            members=np.arange(gid * 4, gid * 4 + 4),
            label_counts=counts,
        ))
    return groups


def _run_estimator(sampler: GroupSampler, x: np.ndarray, rounds: int = ROUNDS):
    estimates = np.empty(rounds)
    for t in range(rounds):
        selected, weights = sampler.sample()
        estimates[t] = float(sum(
            w * x[g.group_id] for g, w in zip(selected, weights)
        ))
    return estimates


def _target(groups, x):
    n = float(sum(g.n_g for g in groups))
    return float(sum((g.n_g / n) * x[g.group_id] for g in groups))


@pytest.mark.slow
@pytest.mark.parametrize("method", METHODS)
def test_unbiased_estimator_within_clt_tolerance(method):
    groups = _make_groups()
    # Per-group scalar "models": the estimator must be unbiased for any x.
    x = np.linspace(-2.0, 3.0, len(groups))
    sampler = GroupSampler(
        groups, method=method, num_sampled=1,
        mode=AggregationMode.UNBIASED, rng=12345,
    )
    estimates = _run_estimator(sampler, x)
    se = estimates.std(ddof=1) / np.sqrt(ROUNDS)
    target = _target(groups, x)
    assert abs(estimates.mean() - target) < 4.0 * se, (
        f"{method}: mean {estimates.mean():.6f} vs target {target:.6f} "
        f"(SE {se:.6f})"
    )


@pytest.mark.slow
@pytest.mark.parametrize("scheme", ["multinomial", "sequential_wor"])
@pytest.mark.parametrize("size", [2, 3])
@pytest.mark.parametrize("method", METHODS)
def test_unbiased_estimator_s_gt_1(method, size, scheme):
    """The fix's acceptance bar: S ∈ {2,3} unbiasedness for both the
    multinomial (α = S·p) and π-corrected sequential-WOR estimators."""
    groups = _make_groups()
    x = np.linspace(-2.0, 3.0, len(groups))
    sampler = GroupSampler(
        groups, method=method, num_sampled=size,
        mode=AggregationMode.UNBIASED, rng=4242, scheme=scheme,
    )
    estimates = _run_estimator(sampler, x)
    se = estimates.std(ddof=1) / np.sqrt(ROUNDS)
    target = _target(groups, x)
    assert abs(estimates.mean() - target) < 4.0 * se, (
        f"{method}/{scheme}/S={size}: mean {estimates.mean():.6f} vs "
        f"target {target:.6f} (SE {se:.6f})"
    )


@pytest.mark.slow
def test_old_s_times_p_weights_are_biased_under_wor():
    """Regression pinning the bug: Eq. (4)'s α = S·p_g weights applied to
    the sequential WOR draw are *not* unbiased. Both the exact expectation
    (computable from the enumerated π) and the empirical mean must sit far
    from the target — if this ever starts passing the CLT check, the draw
    or the Eq. (4) weighting changed semantics silently."""
    groups = _make_groups()
    size = 3
    rounds = 6000  # draws only, no training — cheap to push SE down 8× the bias
    x = np.linspace(-2.0, 3.0, len(groups))
    n = float(sum(g.n_g for g in groups))
    n_g = np.array([g.n_g for g in groups], dtype=np.float64)
    target = _target(groups, x)

    sampler = GroupSampler(
        groups, method="esrcov", num_sampled=size,
        mode=AggregationMode.UNBIASED, rng=777, scheme="sequential_wor",
    )
    p = sampler.p
    pi = sequential_wor_inclusion_exact(p, size)

    # Exact expectation of the OLD estimator: each group contributes
    # π_g · n_g/(n·S·p_g) · x_g.  Unbiased would require π_g = S·p_g.
    wrong_mean = float(np.sum(pi * n_g / (n * size * p) * x))
    assert abs(wrong_mean - target) > 1e-3  # structurally biased, not noise

    # Empirically: draw with the real scheme but weight with Eq. (4)'s
    # divisor alpha = S·p_g, i.e. the pre-fix behavior.
    estimates = np.empty(rounds)
    for t in range(rounds):
        raw = sampler.scheme.draw(sampler.rng)
        selected = [groups[i] for i in raw]
        weights = aggregation_weights(
            selected, p[raw], n, AggregationMode.UNBIASED, inclusion=size * p[raw],
        )
        estimates[t] = float(sum(
            w * x[g.group_id] for g, w in zip(selected, weights)
        ))
    se = estimates.std(ddof=1) / np.sqrt(rounds)
    # The exact bias dwarfs the CLT tolerance ...
    assert abs(wrong_mean - target) > 8.0 * se
    # ... and the empirical mean exhibits it.
    assert abs(estimates.mean() - target) > 4.0 * se, (
        f"old weights look unbiased: mean {estimates.mean():.6f} vs "
        f"target {target:.6f} (SE {se:.6f}, exact wrong mean {wrong_mean:.6f})"
    )


@pytest.mark.parametrize("method", METHODS)
def test_unbiased_weights_have_unit_expectation(method):
    """E[Σ w_g] = 1 is the x ≡ 1 special case — quick smoke version."""
    groups = _make_groups(seed=9)
    sampler = GroupSampler(
        groups, method=method, num_sampled=1,
        mode=AggregationMode.UNBIASED, rng=99,
    )
    totals = np.array([sampler.sample()[1].sum() for _ in range(400)])
    se = totals.std(ddof=1) / np.sqrt(len(totals))
    assert abs(totals.mean() - 1.0) < 4.0 * se


@pytest.mark.parametrize("scheme", ["multinomial", "sequential_wor", "stratified"])
@pytest.mark.parametrize("method", METHODS)
def test_biased_and_stabilized_weights_sum_to_one(method, scheme):
    groups = _make_groups(seed=5)
    for mode in (AggregationMode.BIASED, AggregationMode.STABILIZED):
        sampler = GroupSampler(
            groups, method=method, num_sampled=3, mode=mode, rng=7,
            scheme=scheme,
        )
        _, weights = sampler.sample()
        assert weights.sum() == pytest.approx(1.0)
