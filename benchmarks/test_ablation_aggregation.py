"""Ablation (§6.2) — biased vs unbiased vs stabilized aggregation.

The paper warns that combining aggressive CoV sampling with the unbiased
1/(p_g·S) factor is numerically dangerous (huge 1/p_g amplifies one
group's model) and proposes the Eq. (35) stabilized normalization.
Checks: biased and stabilized both train fine under ESRCoV; the
stabilized weights always form a convex combination while raw unbiased
weights can blow past 1.
"""

import numpy as np

from _util import SCALE, run_once
from repro.experiments.configs import get_scale, make_image_workload
from repro.experiments.runner import run_combo
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.sampling import aggregation_weights, sampling_probabilities


def run_modes():
    from dataclasses import replace

    s = get_scale(SCALE)
    out = {}
    for mode in ("biased", "stabilized", "unbiased"):
        wl = make_image_workload(s, alpha=0.1, seed=0)
        wl.trainer_config.aggregation_mode = mode
        # A probability floor keeps 1/p_g finite (the paper's Γ_p concern).
        wl.trainer_config.min_prob = 0.01
        h = run_combo(
            CoVGrouping(s.min_group_size, s.max_cov), "esrcov", wl, label=mode
        )
        out[mode] = h
    return out


def test_aggregation_modes(benchmark):
    histories = run_once(benchmark, run_modes)
    finals = {k: h.final_accuracy for k, h in histories.items()}
    print(f"\nfinal accuracy by aggregation mode: "
          f"{ {k: round(v, 3) for k, v in finals.items()} }")

    # Biased and stabilized are the safe modes (paper's recommendation).
    assert finals["biased"] > 0.4
    assert finals["stabilized"] > 0.4
    # Stabilized stays within a few points of biased.
    assert abs(finals["stabilized"] - finals["biased"]) < 0.15


def test_unbiased_weight_explosion_mechanism(benchmark):
    """The §6.2 hazard, isolated: a tiny p_g makes the unbiased weight huge,
    while Eq. (35) keeps the combination convex."""
    from repro.grouping import Group

    groups = [
        Group(0, 0, np.array([0]), np.array([50, 50])),
        Group(1, 0, np.array([1]), np.array([100, 0])),
    ]
    p_sel = np.array([0.999, 1e-4])
    n = 10_000
    eq4 = len(groups) * p_sel  # Eq. (4)'s divisor S·p_g
    raw = run_once(
        benchmark, aggregation_weights, groups, p_sel, n, "unbiased", inclusion=eq4
    )
    stab = aggregation_weights(groups, p_sel, n, "stabilized", inclusion=eq4)
    assert raw.max() > 10.0, "unbiased factor should explode for tiny p_g"
    assert stab.max() <= 1.0
    assert abs(stab.sum() - 1.0) < 1e-12
