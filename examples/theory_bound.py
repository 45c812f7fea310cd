"""Evaluate Theorem 1's convergence bound on real groupings.

Shows the three key observations of §4.3 numerically:
1. larger group heterogeneity ζ_g ⇒ larger bound,
2. larger sampling dispersion Γ_p ⇒ larger bound,
3. larger γ/Γ (data-count dispersion) ⇒ larger bound,
and evaluates the bound for an actual CoVG vs RG grouping of a skewed
population, using empirical estimates of σ², ζ², ζ_g².

    python examples/theory_bound.py
"""

import numpy as np

from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, RandomGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.sampling import sampling_probabilities_from_counts
from repro.theory import (
    BoundInputs,
    convergence_bound,
    estimate_gradient_noise,
    estimate_group_heterogeneity,
    estimate_local_heterogeneity,
    gamma_big,
    gamma_of_group,
    gamma_p,
)


def main() -> None:
    data = SyntheticImage(noise_std=4.0, seed=0)
    train, test = data.train_test(15_000, 1_000)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=60, alpha=0.1, size_low=20, size_high=80, rng=5
    )
    edges = [np.arange(j * 20, (j + 1) * 20) for j in range(3)]
    model = make_mlp(int(np.prod(train.feature_shape)), 10, hidden=(32,), seed=0)
    params = model.get_params()
    sizes = fed.client_sizes()

    # Shared empirical constants at the initialization point.
    sigma2 = estimate_gradient_noise(model, params, fed.clients[0], batch_size=16)
    zeta2 = estimate_local_heterogeneity(model, params, fed.clients)
    print(f"estimated σ² = {sigma2:.4f}, ζ² = {zeta2:.4f}\n")

    base = dict(
        f0_gap=2.3, eta=0.01, T=100, K=5, E=2, L=1.0,
        sigma2=sigma2, zeta2=zeta2, S=4,
    )

    print(f"{'grouping':8s} {'ζ_g²':>8s} {'γ(max)':>8s} {'Γ':>8s} "
          f"{'Γ_p(esr)':>9s} {'bound':>10s}")
    for name, grouper in [
        ("RG", RandomGrouping(group_size=5)),
        ("CoVG", CoVGrouping(min_group_size=5, max_cov=0.5)),
    ]:
        groups = group_clients_per_edge(grouper, fed.L, edges, rng=1)
        zg2, _ = estimate_group_heterogeneity(model, params, fed.clients, groups)
        gam = max(gamma_of_group(g, sizes) for g in groups)
        Gam = gamma_big(groups)
        counts = np.stack([g.label_counts for g in groups])
        p = sampling_probabilities_from_counts(counts, "esrcov", min_prob=1e-3)
        Gp = gamma_p(p)
        inp = BoundInputs(
            **base, zeta_g2=zg2, gamma=gam, Gamma=Gam, Gamma_p=Gp,
            group_size=float(np.mean([g.size for g in groups])),
        )
        print(f"{name:8s} {zg2:8.4f} {gam:8.3f} {Gam:8.3f} {Gp:9.1f} "
              f"{convergence_bound(inp):10.4f}")

    # Observation sweeps on a fixed configuration.
    print("\nbound vs ζ_g² (observation 1):")
    fixed = BoundInputs(**base, zeta_g2=0.0, gamma=1.1, Gamma=1.2,
                        Gamma_p=100.0, group_size=5.0)
    for zg2 in (0.0, 0.5, 2.0, 8.0):
        inp = BoundInputs(**{**fixed.__dict__, "zeta_g2": zg2})
        print(f"  ζ_g²={zg2:5.1f} -> bound={convergence_bound(inp):.4f}")

    print("\nbound vs Γ_p (observation 2):")
    for gp in (50.0, 200.0, 1000.0, 5000.0):
        inp = BoundInputs(**{**fixed.__dict__, "Gamma_p": gp})
        print(f"  Γ_p={gp:7.0f} -> bound={convergence_bound(inp):.4f}")

    print("\nbound vs T (the rate itself):")
    for T in (10, 100, 1000, 10000):
        inp = BoundInputs(**{**fixed.__dict__, "T": T})
        print(f"  T={T:6d} -> bound={convergence_bound(inp):.4f}")


if __name__ == "__main__":
    main()
