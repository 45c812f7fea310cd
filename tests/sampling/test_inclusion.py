"""π_g of the sequential WOR draw: quadrature vs exact rational oracle.

``sequential_wor_inclusion`` has one path — a trapezoid rule over the
exponential-race time — so these tests hold that path to an independent
exact oracle on small instances of every awkward shape (p spanning 60
e-folds, zeros, ties), to a race simulation at the ledger workload's size,
and to a time and a memory budget. The enumeration
``sequential_wor_inclusion_exact`` is held to the same oracle on the two
instances where carrying the undrawn mass by subtraction used to lose it.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.grouping import Group
from repro.sampling import (
    GroupSampler,
    sequential_wor_inclusion,
    sequential_wor_inclusion_exact,
)
from repro.sampling import inclusion, schemes
from repro.telemetry import Telemetry
from tests.sampling.inclusion_oracle import (
    inclusion_fractions,
    normalized_fractions,
    race_simulation,
)


def _oracle(weights, size: int) -> tuple[np.ndarray, np.ndarray]:
    """(float p handed to the code under test, exact π as floats)."""
    exact_p = normalized_fractions(weights)
    pi = inclusion_fractions(exact_p, size)
    return (
        np.array([float(x) for x in exact_p]),
        np.array([float(x) for x in pi]),
    )


def _random_weights(rng: np.random.Generator, kind: str, n: int) -> np.ndarray:
    if kind == "dirichlet_1":
        return rng.dirichlet(np.ones(n))
    if kind == "dirichlet_0.1":
        return np.maximum(rng.dirichlet(np.full(n, 0.1)), 1e-300)
    if kind == "log_uniform":
        return np.exp(-rng.uniform(0.0, 60.0, size=n))
    if kind == "zeros":
        w = rng.dirichlet(np.ones(n))
        w[rng.choice(n, size=rng.integers(1, n - 1), replace=False)] = 0.0
        return w
    assert kind == "ties"
    return rng.choice([1.0, 1.0, 3.0, 1e-9], size=n)


#: the p default ``esrcov`` produces: one dominant group, the rest e-folds away
COLLAPSED = np.exp(-np.array([0.0, 20.0, 40.0, 41.0, 59.0]))
DOMINANT = np.array([1.0, 1e-30, 1e-30, 1e-30])


class TestQuadratureAgainstOracle:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        kinds = ("dirichlet_1", "dirichlet_0.1", "log_uniform", "zeros", "ties")
        checked = 0
        for trial in range(220):
            n = int(rng.integers(3, 8))
            weights = _random_weights(rng, kinds[trial % len(kinds)], n)
            support = int(np.count_nonzero(weights))
            size = int(rng.integers(1, support + 1))
            p, want = _oracle(weights, size)
            got = sequential_wor_inclusion(p, size)
            assert np.abs(got - want).max() <= 1e-10, (trial, weights, size)
            assert got.sum() == pytest.approx(size, abs=1e-9 * size)
            assert np.all(got[p == 0] == 0.0)
            checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("weights,size", [(COLLAPSED, 3), (DOMINANT, 2), (DOMINANT, 3)])
    def test_dominant_group_instances(self, weights, size):
        """Quadrature and enumeration both survive a drawn dominant group
        (the enumeration returned π = [1, 1, 2e-9, 8e-10, 1e-17] on
        COLLAPSED and π = p on DOMINANT while it subtracted the drawn mass)."""
        p, want = _oracle(weights, size)
        for fn in (sequential_wor_inclusion, sequential_wor_inclusion_exact):
            got = fn(p, size)
            assert np.abs(got - want).max() <= 1e-10, fn.__name__
            assert np.all(np.abs(got / want - 1.0) <= 1e-9), fn.__name__
            assert got.sum() == pytest.approx(size, abs=1e-9)

    def test_collapsed_truth(self):
        p, want = _oracle(COLLAPSED, 3)
        assert want[:2] == pytest.approx([1.0, 1.0])
        assert want[2:] == pytest.approx([0.7311, 0.2689, 4.1e-9], rel=2e-3)

    def test_shortcuts(self):
        p = np.array([0.4, 0.3, 0.2, 0.1, 0.0])
        assert np.allclose(sequential_wor_inclusion(p, 1), p, rtol=1e-15, atol=0)
        assert np.array_equal(sequential_wor_inclusion(p, 4), [1, 1, 1, 1, 0])
        assert np.array_equal(sequential_wor_inclusion(p[:4], 4), np.ones(4))

    def test_is_deterministic(self):
        p = np.random.default_rng(1).dirichlet(np.full(40, 0.3))
        assert np.array_equal(
            sequential_wor_inclusion(p, 5), sequential_wor_inclusion(p, 5)
        )

    def test_large_draws_keep_their_accuracy(self):
        """The step shrinks with S: Σπ = S to rounding for S in the dozens."""
        p = np.random.default_rng(3).dirichlet(np.full(120, 0.5))
        for size in (16, 60, 119):
            pi = sequential_wor_inclusion(p, size)
            assert abs(pi.sum() - size) < 1e-11 * size
            assert np.all((pi > 0) & (pi <= 1))

    def test_sum_check_raises_naming_the_instance(self, monkeypatch):
        monkeypatch.setattr(inclusion, "_TAIL_EFOLDS", 0.5)  # grid far too short
        p = np.random.default_rng(0).dirichlet(np.ones(12))
        with pytest.raises(ArithmeticError, match=r"\|G\|=12 groups, S=3 .*p min .* max"):
            sequential_wor_inclusion(p, 3)


class TestAtLedgerScale:
    """|G| = 439, S = 8 — the shape of the ``columnar_churn`` workload."""

    @staticmethod
    def _collapsed_p() -> np.ndarray:
        p = np.full(439, 8.8e-27)
        p[0], p[1] = 1.0, 2.9e-23
        return p / p.sum()

    @staticmethod
    def _spread_p() -> np.ndarray:
        return np.random.default_rng(7).dirichlet(np.full(439, 0.5))

    @pytest.mark.slow
    def test_matches_a_race_simulation(self):
        p = self._spread_p()
        draws = 400_000
        pi = sequential_wor_inclusion(p, 8)
        empirical = race_simulation(p, 8, draws, np.random.default_rng(11))
        se = np.sqrt(pi * (1.0 - pi) / draws)
        assert np.all(np.abs(empirical - pi) <= 5.0 * se + 1e-12)
        assert pi.sum() == pytest.approx(8.0, abs=1e-11)

    def test_collapsed_p_values(self):
        """One certain group, one near-certain, 437 sharing the other six
        slots: the mass a 100 k-draw estimate could not resolve."""
        pi = sequential_wor_inclusion(self._collapsed_p(), 8)
        assert pi[0] == 1.0 and pi[1] == pytest.approx(1.0, abs=1e-6)
        assert pi[2:] == pytest.approx(pi[2], rel=1e-12)
        assert pi.sum() == pytest.approx(8.0, abs=1e-11)

    @pytest.mark.parametrize("which", ["_collapsed_p", "_spread_p"])
    def test_takes_under_a_tenth_of_a_second(self, which):
        p = getattr(self, which)()
        sequential_wor_inclusion(p, 8)  # first touch of the scratch pages
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            sequential_wor_inclusion(p, 8)
            best = min(best, time.perf_counter() - t0)
        assert best <= 0.1

    @pytest.mark.slow
    def test_node_axis_is_chunked(self):
        p = np.random.default_rng(5).dirichlet(np.full(10_000, 0.5))
        tracemalloc.start()
        try:
            pi = sequential_wor_inclusion(p, 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        assert pi.sum() == pytest.approx(8.0, abs=1e-10)


def _groups(num_groups: int = 9, classes: int = 4) -> list[Group]:
    rng = np.random.default_rng(8)
    return [
        Group(
            group_id=gid,
            edge_id=0,
            members=np.arange(gid * 3, gid * 3 + 3),
            label_counts=rng.integers(1, 60, size=classes),
        )
        for gid in range(num_groups)
    ]


class TestInclusionOnlyWhenRead:
    """``biased`` weights never divide by π_g, so nothing computes it."""

    def test_biased_never_computes_pi_across_rebuilds(self, monkeypatch):
        def boom(p, size):
            raise AssertionError("π_g computed under the biased mode")

        monkeypatch.setattr(schemes, "sequential_wor_inclusion", boom)
        groups = _groups()
        for rebuild in range(3):  # the trainer rebuilds after every churn round
            sampler = GroupSampler(
                groups[: 7 + rebuild], num_sampled=3, mode="biased", rng=rebuild
            )
            for _ in range(4):
                selected, weights = sampler.sample()
                assert len(selected) == 3
                assert weights.sum() == pytest.approx(1.0)
            assert sampler.scheme._pi is None

    @pytest.mark.parametrize("mode", ["biased", "unbiased", "stabilized"])
    def test_draws_and_weights_for_a_fixed_rng(self, mode):
        groups = _groups()
        sampler = GroupSampler(groups, num_sampled=3, mode=mode, rng=42)
        twin = GroupSampler(groups, num_sampled=3, mode="unbiased", rng=42)
        n = sampler.total_samples
        for _ in range(5):
            selected, weights = sampler.sample()
            reference, _ = twin.sample()
            # the mode does not touch the selection stream
            assert [g.group_id for g in selected] == [g.group_id for g in reference]
            idx = [g.group_id for g in selected]
            sizes = np.array([g.n_g for g in selected], dtype=np.float64)
            raw = sizes / (n * sequential_wor_inclusion(sampler.p, 3)[idx])
            want = {
                "biased": sizes / sizes.sum(),
                "unbiased": raw,
                "stabilized": raw / raw.sum(),
            }[mode]
            np.testing.assert_allclose(weights, want, rtol=1e-12)

    def test_gamma_alpha_and_the_gauge_still_work_when_asked(self):
        groups = _groups()
        sampler = GroupSampler(groups, num_sampled=3, mode="biased", rng=0)
        sampler.sample()
        assert sampler.scheme._pi is None
        pi = sequential_wor_inclusion(sampler.p, 3)
        assert sampler.gamma_alpha() == pytest.approx(float(np.sum(1.0 / pi)))
        tel = Telemetry()
        traced = GroupSampler(
            groups, num_sampled=3, mode="biased", rng=0, telemetry=tel
        )
        traced.sample()
        assert tel.metrics.gauges()["gamma_alpha"] == pytest.approx(
            sampler.gamma_alpha()
        )
