"""Theory check (§4.3) — CoV-Grouping reduces the bound's driver ζ_g.

Not a paper figure, but the mechanism behind Theorem 1's first key
observation: groups with lower label-count CoV have group loss functions
closer to the global loss, i.e. smaller empirical ζ_g — and therefore a
smaller Theorem-1 bound at matched (η, T, K, E).
"""

import numpy as np

from _util import SCALE, run_once
from repro.experiments.configs import get_scale, make_image_workload
from repro.grouping import CoVGrouping, RandomGrouping, group_clients_per_edge
from repro.sampling import sampling_probabilities_from_counts
from repro.theory import (
    BoundInputs,
    convergence_bound,
    estimate_group_heterogeneity,
    gamma_big,
    gamma_of_group,
    gamma_p,
)


def measure():
    s = get_scale(SCALE)
    wl = make_image_workload(s, alpha=0.1, seed=0)
    model = wl.model_fn()
    params = model.get_params()
    sizes = wl.fed.client_sizes()
    out = {}
    for name, grouper in [
        ("RG", RandomGrouping(group_size=s.min_group_size)),
        ("CoVG", CoVGrouping(s.min_group_size, s.max_cov)),
    ]:
        groups = group_clients_per_edge(grouper, wl.fed.L, wl.edge_assignment, rng=0)
        zg2, _ = estimate_group_heterogeneity(model, params, wl.fed.clients, groups)
        counts = np.stack([g.label_counts for g in groups])
        p = sampling_probabilities_from_counts(counts, "esrcov", min_prob=1e-3)
        inp = BoundInputs(
            f0_gap=2.3, eta=0.01, T=100, K=s.group_rounds, E=s.local_rounds,
            L=1.0, sigma2=1.0, zeta2=1.0, zeta_g2=zg2,
            gamma=float(np.mean([gamma_of_group(g, sizes) for g in groups])),
            Gamma=gamma_big(groups), Gamma_p=gamma_p(p), S=s.num_sampled,
            group_size=float(np.mean([g.size for g in groups])),
        )
        out[name] = {
            "zeta_g2": zg2,
            "avg_cov": float(np.mean([g.cov for g in groups])),
            "bound": convergence_bound(inp),
        }
    return out


def test_covg_reduces_zeta_g(benchmark):
    result = run_once(benchmark, measure)
    for name, row in result.items():
        print(f"\n{name:5s}: ζ_g²={row['zeta_g2']:.4f} "
              f"avgCoV={row['avg_cov']:.3f} bound={row['bound']:.4f}")
    # Lower CoV groups ⇒ lower empirical group heterogeneity.
    assert result["CoVG"]["avg_cov"] < result["RG"]["avg_cov"]
    assert result["CoVG"]["zeta_g2"] < result["RG"]["zeta_g2"] * 1.05
    # Both bounds finite (step-size conditions hold at η=0.01).
    assert np.isfinite(result["CoVG"]["bound"])
    assert np.isfinite(result["RG"]["bound"])
