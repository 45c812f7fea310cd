"""Scenario suite: IFCA / FedGroup baselines, the continual test-time
adaptation (TTA) workload, and the sweep-level guarantees of the runner.

Differential contract: the new baselines compose with faults, churn,
checkpoint/resume, and both serial and process backends exactly like the
built-in trainers — same trace signatures, bit-identical resume — and
``run_methods`` under a data-mutating population is independent of method
order. Corruption and drift mutate shards in place, so every trainer test
builds a fresh ``FederatedDataset``.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import METHODS, IFCATrainer, build_method
from repro.baselines.registry import MethodSpec
from repro.core import TrainerConfig
from repro.costs import paper_cost_model
from repro.data import FederatedDataset, SyntheticImage
from repro.experiments import (
    SCALES,
    make_tta_workload,
    run_method,
    run_methods,
)
from repro.experiments.figures import ALL_METHODS
from repro.grouping import (
    FedGroupGrouping,
    RandomGrouping,
    group_clients_per_edge,
    make_grouper,
)
from repro.grouping.fedgroup import decomposed_cosine_features
from repro.nn import make_mlp
from repro.telemetry import Telemetry

# Module-level so the process backend can pickle it.
model_fn = functools.partial(make_mlp, 192, 10, seed=0)


def _fresh_fed(num_clients: int = 16) -> FederatedDataset:
    data = SyntheticImage(noise_std=2.0, seed=0)
    train, test = data.train_test(2_000, 300)
    return FederatedDataset.from_dataset(
        train, test, num_clients=num_clients, alpha=0.1,
        size_low=15, size_high=50, rng=11,
    )


def _edges(num_clients: int = 16) -> list[np.ndarray]:
    half = num_clients // 2
    return [np.arange(0, half), np.arange(half, num_clients)]


def _cfg(**kw) -> TrainerConfig:
    base = dict(group_rounds=1, local_rounds=1, num_sampled=2, lr=0.08,
                momentum=0.9, max_rounds=4, seed=0)
    base.update(kw)
    return TrainerConfig(**base)


def _build(name: str, fed=None, edges=None, cfg=None, **kw):
    fed = fed if fed is not None else _fresh_fed()
    edges = edges if edges is not None else _edges(fed.num_clients)
    return build_method(name, model_fn, fed, edges, cfg or _cfg(),
                        group_size_knob=3, rng=0, **kw)


def _digest(trainer) -> tuple[str, str]:
    h = hashlib.sha256(
        np.ascontiguousarray(trainer.global_params).tobytes()
    ).hexdigest()
    return h, trainer.population_trace.signature()


def tiny_workload(seed: int = 0, **tta_kw):
    """A minimal TTA workload so scenario sweeps run in seconds."""
    scale = replace(
        SCALES["fast"],
        num_clients=18, num_edges=2, size_low=15, size_high=40,
        train_samples=2_000, test_samples=300, max_rounds=3,
        num_sampled=2, min_group_size=3, eval_every=1, cost_budget=None,
    )
    return make_tta_workload(scale, alpha=0.1, seed=seed, **tta_kw)


# ---------------------------------------------------------------- FedGroup
class TestFedGroupGrouping:
    def test_feature_shape_capped_by_rank(self):
        rng = np.random.default_rng(0)
        stats = rng.random((10, 6))
        assert decomposed_cosine_features(stats, 4).shape == (10, 4)
        # d is capped at min(n, m).
        assert decomposed_cosine_features(stats, 50).shape == (10, 6)

    def test_groups_partition_clients(self, small_fed, small_edges):
        groups = group_clients_per_edge(
            FedGroupGrouping(group_size=4), small_fed.L, small_edges, rng=0
        )
        members = np.concatenate([g.members for g in groups])
        assert sorted(members.tolist()) == list(range(small_fed.num_clients))

    def test_similar_clients_land_together(self):
        # Two sharply distinct label profiles: EDC clustering must not
        # split either bloc (the opposite of CDG's dealing).
        L = np.zeros((12, 4), dtype=np.int64)
        L[:6, 0] = 100
        L[6:, 3] = 100
        groups = FedGroupGrouping(group_size=6).group(L, np.arange(12), rng=0)
        assert len(groups) == 2
        for g in groups:
            blocs = {int(cid) // 6 for cid in g.members}
            assert len(blocs) == 1

    def test_registry_and_validation(self):
        assert isinstance(make_grouper("fedgroup", group_size=3), FedGroupGrouping)
        with pytest.raises(ValueError):
            FedGroupGrouping(group_size=0)
        with pytest.raises(ValueError):
            FedGroupGrouping(group_size=3, num_components=0)

    def test_single_group_degenerate(self):
        L = np.ones((3, 4), dtype=np.int64)
        groups = FedGroupGrouping(group_size=5).group(L, np.arange(3), rng=0)
        assert len(groups) == 1
        assert sorted(groups[0].members.tolist()) == [0, 1, 2]

    def test_deterministic_given_rng_seed(self, small_fed, small_edges):
        runs = [
            group_clients_per_edge(
                FedGroupGrouping(group_size=4), small_fed.L, small_edges, rng=7
            )
            for _ in range(2)
        ]
        for a, b in zip(*runs):
            assert np.array_equal(np.sort(a.members), np.sort(b.members))


# -------------------------------------------------------------------- IFCA
class TestIFCA:
    def test_validation(self, small_fed, small_edges):
        groups = group_clients_per_edge(
            RandomGrouping(3), small_fed.L, small_edges, rng=0
        )
        with pytest.raises(ValueError):
            IFCATrainer(model_fn, small_fed, groups, _cfg(), num_clusters=1)
        with pytest.raises(ValueError):
            IFCATrainer(model_fn, small_fed, groups, _cfg(), init_scale=0.0)

    def test_cold_start_centers_distinct_and_seeded(self):
        fed = _fresh_fed()
        t1 = _build("ifca", fed=fed)
        t2 = _build("ifca", fed=fed)
        try:
            for a, b in zip(t1.center_models, t2.center_models):
                assert np.array_equal(a, b)  # seeded, not random
            c0, c1, c2 = t1.center_models
            assert not np.array_equal(c0, c1)
            assert not np.array_equal(c1, c2)
        finally:
            t1.close()
            t2.close()

    def test_every_group_assigned(self):
        trainer = _build("ifca")
        try:
            assert set(trainer.cluster_assignment) == {
                g.group_id for g in trainer.groups
            }
            assert all(
                0 <= c < trainer.num_clusters
                for c in trainer.cluster_assignment.values()
            )
        finally:
            trainer.close()

    def test_trains_and_blends_centers(self):
        trainer = _build("ifca")
        try:
            history = trainer.run()
            assert history.final_accuracy > 0.15
            assert all(np.isfinite(history.test_acc))
            # global_params is the mass-weighted consensus of the centers.
            assert np.allclose(trainer.global_params, trainer._consensus())
        finally:
            trainer.close()

    def test_pipeline_rounds_forced_off(self):
        fed = _fresh_fed()
        trainer = _build("ifca", fed=fed, cfg=_cfg(pipeline_rounds=True))
        try:
            assert trainer.config.pipeline_rounds is False
        finally:
            trainer.close()


# -------------------------------------------- faults / churn composability
class TestScenarioFaults:
    @pytest.mark.parametrize("name", ["ifca", "fedgroup"])
    def test_faults_honored_and_deterministic(self, name):
        def run():
            trainer = _build(
                name, cfg=_cfg(faults="dropout:0.4,straggler:0.3:2.0")
            )
            try:
                history = trainer.run()
                return trainer.fault_trace.signature(), tuple(history.test_acc)
            finally:
                trainer.close()

        sig1, acc1 = run()
        sig2, acc2 = run()
        assert sig1 == sig2
        assert acc1 == acc2
        trainer = _build(name, cfg=_cfg(faults="dropout:0.4,straggler:0.3:2.0"))
        try:
            trainer.run()
            assert len(trainer.fault_trace) > 0
        finally:
            trainer.close()

    @pytest.mark.parametrize("name", ["ifca", "fedgroup"])
    def test_churn_honored(self, name):
        trainer = _build(
            name,
            cfg=_cfg(population="start:0.8,join:0.6,leave:0.05", seed=3),
        )
        try:
            trainer.run()
            assert len(trainer.population_trace) > 0
            members = np.concatenate([g.members for g in trainer.groups])
            assert len(members) == len(set(members.tolist()))
            if name == "ifca":
                # churn rebuilt groups ⇒ every current group re-assigned
                assert set(trainer.cluster_assignment) >= {
                    g.group_id for g in trainer.groups
                }
        finally:
            trainer.close()


# --------------------------------------------------------- checkpoint/resume
class TestScenarioCheckpoint:
    POP = "start:0.9,leave:0.05,corrupt:0.5:3:2"

    def _make(self, backend="serial", max_rounds=6, checkpoint_dir=None):
        return _build(
            "ifca",
            cfg=_cfg(max_rounds=max_rounds, seed=3, parallel_backend=backend,
                     population=self.POP),
            checkpoint_dir=checkpoint_dir,
        )

    def _resume_matches(self, tmp_path, backend):
        reference = self._make(backend)
        try:
            reference.run()
            want = _digest(reference)
            want_centers = [c.copy() for c in reference.center_models]
        finally:
            reference.close()

        interrupted = self._make(backend, checkpoint_dir=str(tmp_path))
        try:
            interrupted.run(max_rounds=3)
        finally:
            interrupted.close()

        resumed = self._make(backend)
        try:
            resumed.load_checkpoint(tmp_path)
            resumed.run(max_rounds=6)
            assert _digest(resumed) == want
            for a, b in zip(resumed.center_models, want_centers):
                assert np.array_equal(a, b)
        finally:
            resumed.close()

    def test_resume_bit_identical_serial(self, tmp_path):
        self._resume_matches(tmp_path, "serial")

    @pytest.mark.slow
    def test_resume_bit_identical_process(self, tmp_path):
        self._resume_matches(tmp_path, "process")

    def test_extra_state_guard_rejects_mismatched_trainer(self, tmp_path):
        writer = self._make(max_rounds=2, checkpoint_dir=str(tmp_path))
        try:
            writer.run()
        finally:
            writer.close()
        # Same grouping/population, but a trainer class with no IFCA state.
        plain = _build("fedavg", cfg=_cfg(max_rounds=2, seed=3,
                                          population=self.POP))
        try:
            with pytest.raises(Exception, match="extra trainer state|IFCA"):
                plain.load_checkpoint(tmp_path)
        finally:
            plain.close()

    def test_plain_checkpoint_rejected_by_ifca(self, tmp_path):
        writer = _build("fedavg", cfg=_cfg(max_rounds=2, seed=3,
                                           population=self.POP),
                        checkpoint_dir=str(tmp_path))
        try:
            writer.run()
        finally:
            writer.close()
        reader = self._make(max_rounds=2)
        try:
            with pytest.raises(Exception, match="IFCA"):
                reader.load_checkpoint(tmp_path)
        finally:
            reader.close()


# ------------------------------------------------------------- TTA workload
class TestTTAWorkload:
    def test_tta_workload_carries_corruption(self):
        wl = tiny_workload()
        assert wl.task == "cifar-tta"
        assert wl.trainer_config.population.has_corruption

    def test_replay_signature_deterministic(self):
        def run(backend="serial"):
            wl = tiny_workload()
            cfg = replace(wl.trainer_config, parallel_backend=backend)
            trainer = build_method(
                "ifca", wl.model_fn, wl.fed, wl.edge_assignment, cfg,
                cost_model=wl.cost_model, group_size_knob=3, rng=0,
            )
            try:
                history = trainer.run()
                return (trainer.population_trace.signature(),
                        tuple(history.test_acc))
            finally:
                trainer.close()

        assert run() == run()

    @pytest.mark.slow
    def test_replay_identical_across_backends(self):
        def run(backend):
            wl = tiny_workload()
            cfg = replace(wl.trainer_config, parallel_backend=backend)
            trainer = build_method(
                "group_fel", wl.model_fn, wl.fed, wl.edge_assignment, cfg,
                cost_model=wl.cost_model, group_size_knob=3, rng=0,
            )
            try:
                trainer.run()
                return _digest(trainer)
            finally:
                trainer.close()

        assert run("serial") == run("process")

    def test_corruption_fires_every_round_at_prob_one(self):
        wl = tiny_workload()
        trainer = build_method(
            "fedavg", wl.model_fn, wl.fed, wl.edge_assignment,
            wl.trainer_config, cost_model=wl.cost_model,
            group_size_knob=3, rng=0,
        )
        try:
            trainer.run()
            corrupt = [e for e in trainer.population_trace.events
                       if e.kind == "corrupt"]
            assert len(corrupt) == 3 * wl.fed.num_clients
            assert all(1 <= e.offset <= 4 for e in corrupt)
        finally:
            trainer.close()

    def test_accuracy_vs_cost_for_all_methods(self):
        # Acceptance: the TTA workload yields accuracy-vs-cost curves for
        # every method under the unchanged cost model. Two representatives
        # keep the fast suite fast; the figure regenerator covers the rest.
        wl = tiny_workload()
        out = run_methods(["group_fel", "ifca"], wl, max_rounds=2)
        for history in out.values():
            assert len(history.costs) == len(history.test_acc) == 2
            assert history.total_cost > 0
            assert all(np.isfinite(history.test_acc))


# --------------------------------------------- sweep order independence
class TestSweepOrderIndependence:
    def _sweep(self, names, population):
        wl = tiny_workload()
        out = run_methods(names, wl, population=population, max_rounds=2)
        return {k: tuple(h.test_acc) for k, h in out.items()}

    @pytest.mark.parametrize("population", ["drift:0.4:0.5", "corrupt:1.0:3:2"])
    def test_histories_independent_of_method_order(self, population):
        names = ["fedavg", "ifca", "fedgroup"]
        forward = self._sweep(names, population)
        backward = self._sweep(list(reversed(names)), population)
        assert forward == backward

    def test_workload_left_pristine(self):
        wl = tiny_workload()
        before = {cid: wl.fed.clients[cid].x.copy() for cid in range(3)}
        L_before = wl.fed.L.copy()
        run_methods(["fedavg", "ifca"], wl, max_rounds=2)
        assert np.array_equal(wl.fed.L, L_before)
        for cid, x in before.items():
            assert np.array_equal(wl.fed.clients[cid].x, x)

    def test_drifting_sweep_leaves_the_store_byte_identical(self):
        wl = tiny_workload()
        before = wl.fed.snapshot_shards(include_features=True)
        tel = Telemetry(label="drifting-sweep")
        run_methods(
            ["fedavg", "ifca"], wl, population="drift:0.4:0.5", max_rounds=2,
            telemetry=tel,
        )
        assert tel.metrics.counter("population.drifts").value > 0
        after = wl.fed.snapshot_shards(include_features=True)
        assert before.keys() == after.keys()
        for key in before:
            assert before[key].tobytes() == after[key].tobytes(), key
        wl.fed.check_invariants()

    @pytest.mark.slow
    def test_full_method_suite_order_independent(self):
        forward = self._sweep(ALL_METHODS, "drift:0.1")
        backward = self._sweep(list(reversed(ALL_METHODS)), "drift:0.1")
        assert forward == backward


# ------------------------------------------------ sampling scheme/observability
class TestSamplingPassthrough:
    def test_run_method_forwards_scheme(self):
        wl = tiny_workload()
        history = run_method("fedavg", wl, max_rounds=1,
                             sampling_scheme="multinomial")
        assert history.extra["sampling"]["scheme"] == "multinomial"

    def test_run_methods_forwards_scheme(self):
        wl = tiny_workload()
        out = run_methods(["fedavg", "ifca"], wl, max_rounds=1,
                          sampling_scheme="stratified")
        for history in out.values():
            assert history.extra["sampling"]["scheme"] == "stratified"

    def test_spec_scheme_honored_and_arg_wins(self, small_fed, small_edges,
                                              monkeypatch):
        spec = replace(METHODS["fedavg"], sampling_scheme="stratified")
        monkeypatch.setitem(METHODS, "fedavg", spec)
        trainer = _build("fedavg", fed=small_fed, edges=small_edges)
        try:
            assert trainer.config.sampling_scheme == "stratified"
            assert trainer.history.extra["sampling"]["scheme"] == "stratified"
        finally:
            trainer.close()
        trainer = _build("fedavg", fed=small_fed, edges=small_edges,
                         sampling_scheme="multinomial")
        try:
            assert trainer.config.sampling_scheme == "multinomial"
        finally:
            trainer.close()

    def test_spec_field_default_is_none(self):
        assert MethodSpec("x", lambda s, c: RandomGrouping(s), "random",
                          object).sampling_scheme is None

    def test_clobbered_sampling_method_recorded(self, small_fed, small_edges):
        tel = Telemetry(label="clobber-test")
        trainer = _build("fedavg", fed=small_fed, edges=small_edges,
                         cfg=_cfg(sampling_method="esrcov"), telemetry=tel)
        try:
            record = trainer.history.extra["sampling"]
            assert record["method"] == "random"
            assert record["requested_method"] == "esrcov"
            assert tel.metrics.counter(
                "build_method.sampling_method_overridden"
            ).value == 1.0
        finally:
            trainer.close()

    def test_matching_sampling_method_not_flagged(self, small_fed, small_edges):
        trainer = _build("fedavg", fed=small_fed, edges=small_edges,
                         cfg=_cfg(sampling_method="random"))
        try:
            assert "requested_method" not in trainer.history.extra["sampling"]
        finally:
            trainer.close()
