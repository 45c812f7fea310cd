"""Sampling schemes, inclusion probabilities, and the varopt method.

The load-bearing facts pinned here:

1. The sequential WOR draw's inclusion probability π_g ≠ S·p_g for S>1
   and non-uniform p — the Eq. (4) bias this PR fixes. The exact
   recursion, the race-time quadrature, and NumPy's actual
   ``choice(replace=False)`` draw must all agree on π
   (``test_inclusion.py`` holds the quadrature to a rational oracle).
2. Every scheme's ``expected_multiplicity`` is what its draws actually
   realize (empirical α within CLT tolerance).
3. Checkpoint resume replays bit-identically under every scheme and under
   the varopt method, and the config fingerprint folds the
   scheme in (cross-scheme resume is rejected loudly).
"""

from __future__ import annotations

import functools
import hashlib
import inspect

import numpy as np
import pytest

from repro.checkpoint import CheckpointError
from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.grouping import CoVGrouping, Group, group_clients_per_edge
from repro.nn import make_mlp
from repro.sampling import (
    GroupSampler,
    MultinomialScheme,
    SequentialWORScheme,
    StratifiedScheme,
    make_scheme,
    num_ordered_sequences,
    sequential_wor_inclusion,
    sequential_wor_inclusion_exact,
    variance_optimal_probabilities,
)

P_SPREAD = np.array([0.55, 0.2, 0.1, 0.08, 0.05, 0.02])

# Module-level so the process backend could pickle it (parity with the
# checkpoint suite's idiom).
model_fn = functools.partial(make_mlp, 192, 10, seed=0)


def _make_groups(num_groups=6, classes=5, seed=3):
    rng = np.random.default_rng(seed)
    groups = []
    for gid in range(num_groups):
        base = rng.integers(20, 120)
        skew = rng.uniform(0.0, 3.0, size=classes)
        counts = np.maximum(1, (base * np.exp(skew) / np.exp(skew).max())).astype(
            np.int64
        )
        groups.append(
            Group(
                group_id=gid,
                edge_id=0,
                members=np.arange(gid * 4, gid * 4 + 4),
                label_counts=counts,
            )
        )
    return groups


class TestInclusionProbabilities:
    def test_pi_deviates_from_s_times_p(self):
        """The bug's root cause: π_g ≠ S·p_g for S>1, non-uniform p."""
        pi = sequential_wor_inclusion_exact(P_SPREAD, 3)
        assert not np.allclose(pi, 3 * P_SPREAD, atol=1e-3)
        # High-p groups are capped (cannot be drawn twice) ...
        assert pi[0] < 3 * P_SPREAD[0]
        # ... and the freed mass flows to the low-p groups.
        assert pi[-1] > 3 * P_SPREAD[-1]
        # π is a valid inclusion vector: entries in (0, 1], summing to S.
        assert np.all(pi > 0) and np.all(pi <= 1.0)
        assert pi.sum() == pytest.approx(3.0)

    def test_s1_is_exactly_p(self):
        assert np.allclose(sequential_wor_inclusion(P_SPREAD, 1), P_SPREAD)

    def test_full_draw_is_all_ones(self):
        assert np.allclose(sequential_wor_inclusion(P_SPREAD, P_SPREAD.size), 1.0)

    def test_uniform_p_gives_s_over_n(self):
        """For uniform p the WOR inclusion IS S/n = S·p — no bias."""
        p = np.full(8, 1 / 8)
        pi = sequential_wor_inclusion_exact(p, 3)
        assert np.allclose(pi, 3 / 8)

    def test_exact_matches_numpy_draws(self):
        """NumPy's choice(replace=False) realizes the enumerated π."""
        rng = np.random.default_rng(7)
        rounds = 40_000
        counts = np.zeros(P_SPREAD.size)
        for _ in range(rounds):
            counts[rng.choice(P_SPREAD.size, size=3, replace=False, p=P_SPREAD)] += 1
        pi_emp = counts / rounds
        pi = sequential_wor_inclusion_exact(P_SPREAD, 3)
        se = np.sqrt(pi * (1 - pi) / rounds)
        assert np.all(np.abs(pi_emp - pi) < 5 * se + 1e-12)

    def test_quadrature_matches_exact(self):
        """The one production path agrees with the enumeration to rounding."""
        for size in (2, 3, 4, 5):
            pi = sequential_wor_inclusion_exact(P_SPREAD, size)
            assert np.abs(sequential_wor_inclusion(P_SPREAD, size) - pi).max() < 1e-14

    def test_needs_no_seed_and_has_no_knobs(self):
        """π is a pure function of (p, S): nothing to seed or budget."""
        assert list(inspect.signature(sequential_wor_inclusion).parameters) == [
            "p", "size",
        ]
        a = sequential_wor_inclusion(P_SPREAD, 2)
        b = sequential_wor_inclusion(P_SPREAD.copy(), 2)
        assert np.array_equal(a, b)

    def test_scheme_takes_only_p_and_size(self):
        with pytest.raises(TypeError):
            SequentialWORScheme(P_SPREAD, 2, mc_rounds=10)
        with pytest.raises(TypeError):
            make_scheme("sequential_wor", P_SPREAD, 2, exact_budget=10)

    def test_one_path_beyond_the_enumeration_reach(self):
        """No size switches method: 40 groups, S=6 is 2.8e9 ordered
        sequences (the old exact budget was 2e5) and still exact to Σπ = S."""
        assert num_ordered_sequences(6, 3) == 120
        assert num_ordered_sequences(40, 6) > 2_000_000_000
        p = np.random.default_rng(0).dirichlet(np.full(40, 0.4))
        pi = sequential_wor_inclusion(p, 6)
        assert pi.sum() == pytest.approx(6.0, abs=1e-12)
        assert np.all(np.diff(pi[np.argsort(p)]) >= 0)  # monotone in p

    def test_zero_mass_groups_have_zero_pi(self):
        p = np.array([0.5, 0.5, 0.0, 0.0])
        pi = sequential_wor_inclusion_exact(p, 2)
        assert np.allclose(pi, [1.0, 1.0, 0.0, 0.0])

    def test_validation(self):
        with pytest.raises(ValueError, match="cannot sample"):
            sequential_wor_inclusion(P_SPREAD, 7)
        with pytest.raises(ValueError, match="probability vector"):
            sequential_wor_inclusion(np.array([0.5, 0.6]), 1)
        with pytest.raises(ValueError, match="positive probability"):
            sequential_wor_inclusion(np.array([0.5, 0.5, 0.0]), 3)


class TestSchemes:
    def test_registry(self):
        assert isinstance(make_scheme("multinomial", P_SPREAD, 2), MultinomialScheme)
        assert isinstance(
            make_scheme("sequential_wor", P_SPREAD, 2), SequentialWORScheme
        )
        assert isinstance(make_scheme("stratified", P_SPREAD, 2), StratifiedScheme)
        with pytest.raises(KeyError, match="unknown sampling scheme"):
            make_scheme("bogus", P_SPREAD, 2)

    def test_multinomial_alpha_is_s_times_p(self):
        scheme = make_scheme("multinomial", P_SPREAD, 3)
        assert np.allclose(scheme.expected_multiplicity, 3 * P_SPREAD)

    def test_multinomial_can_repeat(self):
        scheme = make_scheme("multinomial", np.array([0.9, 0.05, 0.05]), 3)
        rng = np.random.default_rng(0)
        draws = [scheme.draw(rng) for _ in range(20)]
        assert all(d.shape == (3,) for d in draws)
        # With p concentrated on one group, repeats are near-certain.
        assert any(len(set(d.tolist())) < 3 for d in draws)

    def test_sequential_wor_draws_distinct(self):
        scheme = make_scheme("sequential_wor", P_SPREAD, 4)
        draw = scheme.draw(np.random.default_rng(0))
        assert len(set(draw.tolist())) == 4

    def test_stratified_partition_properties(self):
        scheme = make_scheme("stratified", P_SPREAD, 3)
        # Every group is in exactly one stratum; no stratum is empty.
        all_members = np.concatenate(scheme.strata)
        assert sorted(all_members.tolist()) == list(range(P_SPREAD.size))
        assert all(s.size > 0 for s in scheme.strata)
        # α_g = p_g / P_k, at most one draw per stratum.
        assert np.all(scheme.expected_multiplicity <= 1.0 + 1e-12)
        for k, members in enumerate(scheme.strata):
            assert scheme.expected_multiplicity[members].sum() == pytest.approx(1.0)

    def test_stratified_partition_is_deterministic(self):
        a = make_scheme("stratified", P_SPREAD, 3)
        b = make_scheme("stratified", P_SPREAD, 3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_stratified_draws_one_per_stratum(self):
        scheme = make_scheme("stratified", P_SPREAD, 3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            draw = scheme.draw(rng)
            assert len(set(draw.tolist())) == 3
            assert sorted(scheme.assignment[draw].tolist()) == [0, 1, 2]

    @pytest.mark.parametrize("name", ["multinomial", "sequential_wor", "stratified"])
    def test_empirical_alpha_matches_expected(self, name):
        """The α each scheme promises is the α its draws realize."""
        scheme = make_scheme(name, P_SPREAD, 3)
        rng = np.random.default_rng(42)
        rounds = 30_000
        counts = np.zeros(P_SPREAD.size)
        for _ in range(rounds):
            np.add.at(counts, scheme.draw(rng), 1.0)
        alpha_emp = counts / rounds
        alpha = scheme.expected_multiplicity
        # Conservative CLT envelope (multiplicities are bounded by S=3).
        se = np.sqrt(np.maximum(alpha, 0.05) / rounds) * 3
        assert np.all(np.abs(alpha_emp - alpha) < 5 * se), (alpha_emp, alpha)

    def test_validation(self):
        with pytest.raises(ValueError, match="probability vector"):
            make_scheme("multinomial", np.array([0.7, 0.6]), 1)
        with pytest.raises(ValueError, match="cannot sample"):
            make_scheme("stratified", P_SPREAD, 9)
        with pytest.raises(ValueError, match="distinct groups"):
            make_scheme("sequential_wor", np.array([0.5, 0.5, 0.0]), 3)


class TestVarianceOptimalProbabilities:
    def test_proportional_to_n_g(self):
        n_g = np.array([10.0, 30.0, 60.0])
        p = variance_optimal_probabilities(n_g)
        assert np.allclose(p, n_g / n_g.sum())

    def test_min_prob_floor(self):
        p = variance_optimal_probabilities(
            np.array([1.0, 1.0, 1000.0]), min_prob=0.1
        )
        assert p.min() >= 0.1 - 1e-12
        assert p.sum() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            variance_optimal_probabilities(np.array([0.0, 1.0]))
        with pytest.raises(ValueError, match="1-D"):
            variance_optimal_probabilities(np.array([[1.0, 2.0]]))


class TestGroupSamplerSchemes:
    @pytest.mark.parametrize("scheme", ["multinomial", "sequential_wor", "stratified"])
    @pytest.mark.parametrize("mode", ["biased", "stabilized"])
    def test_normalized_modes_sum_to_one(self, scheme, mode):
        sampler = GroupSampler(
            _make_groups(), method="esrcov", num_sampled=3, mode=mode,
            rng=3, scheme=scheme,
        )
        for _ in range(10):
            selected, weights = sampler.sample()
            assert weights.sum() == pytest.approx(1.0)
            assert len(selected) == len(set(g.group_id for g in selected))

    def test_multinomial_repeats_fold_into_weights(self):
        groups = _make_groups()
        sampler = GroupSampler(
            groups, method="esrcov", num_sampled=4, mode="unbiased",
            rng=0, scheme="multinomial",
        )
        saw_dedup = False
        for _ in range(50):
            selected, weights = sampler.sample()
            assert len(weights) == len(selected) <= 4
            if len(selected) < 4:
                saw_dedup = True
        assert saw_dedup  # esrcov concentrates p: repeats must occur

    def test_varopt_p_proportional_to_group_sizes(self):
        groups = _make_groups()
        sampler = GroupSampler(groups, method="varopt", num_sampled=2, rng=0)
        n_g = np.array([g.n_g for g in groups], float)
        assert np.allclose(sampler.p, n_g / n_g.sum())

    def test_gamma_alpha_finite_for_all_schemes(self):
        for scheme in ("multinomial", "sequential_wor", "stratified"):
            sampler = GroupSampler(
                _make_groups(), method="esrcov", num_sampled=3, scheme=scheme
            )
            assert np.isfinite(sampler.gamma_alpha())
            assert np.isfinite(sampler.gamma_p())


# --------------------------------------------------------------- trainer level
def _make_trainer(small_fed, small_edges, *, scheme, method="esrcov",
                  checkpoint_dir=None, label="scheme-test"):
    groups = group_clients_per_edge(
        CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
    )
    cfg = TrainerConfig(
        max_rounds=4, group_rounds=1, local_rounds=1, num_sampled=3,
        seed=7, sampling_method=method, sampling_scheme=scheme,
        aggregation_mode="stabilized",
    )
    return GroupFELTrainer(
        model_fn, small_fed, groups, cfg, label=label,
        checkpoint_dir=checkpoint_dir,
    )


def _finish(trainer, **kw):
    try:
        history = trainer.run(**kw)
    finally:
        trainer.close()
    digest = hashlib.sha256(
        np.ascontiguousarray(trainer.global_params).tobytes()
    ).hexdigest()
    return history.state_dict(), digest


class TestTrainerSchemeIntegration:
    def test_config_validates_scheme_and_methods(self):
        with pytest.raises(ValueError, match="sampling_scheme"):
            TrainerConfig(sampling_scheme="bogus")
        assert TrainerConfig(sampling_method="varopt").sampling_method == "varopt"
        with pytest.raises(ValueError, match="sampling_method"):
            TrainerConfig(sampling_method="bogus")

    @pytest.mark.parametrize(
        "scheme,method",
        [
            ("multinomial", "esrcov"),
            ("sequential_wor", "esrcov"),
            ("stratified", "esrcov"),
            ("sequential_wor", "varopt"),
        ],
    )
    def test_resume_is_bit_identical_per_scheme(
        self, small_fed, small_edges, tmp_path, scheme, method
    ):
        """The acceptance bar: checkpoint resume replays identically under
        every scheme."""
        golden = _finish(_make_trainer(small_fed, small_edges, scheme=scheme,
                                       method=method))
        ckdir = tmp_path / "ck"
        checkpointed = _finish(
            _make_trainer(small_fed, small_edges, scheme=scheme, method=method,
                          checkpoint_dir=ckdir)
        )
        assert checkpointed == golden
        resumed = _make_trainer(small_fed, small_edges, scheme=scheme,
                                method=method)
        resumed.load_checkpoint(ckdir / "ckpt_round_000002.ckpt")
        assert resumed.round_idx == 2
        assert _finish(resumed) == golden

    def test_fingerprint_folds_in_scheme(self, small_fed, small_edges, tmp_path):
        ckdir = tmp_path / "ck"
        _finish(_make_trainer(small_fed, small_edges, scheme="multinomial",
                              checkpoint_dir=ckdir))
        other = _make_trainer(small_fed, small_edges, scheme="stratified")
        with pytest.raises(CheckpointError, match="sampling_scheme"):
            other.load_checkpoint(ckdir / "ckpt_round_000002.ckpt")
        other.close()
