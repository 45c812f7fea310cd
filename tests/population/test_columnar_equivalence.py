"""Golden test: formation → sampling → training → churn/drift → resume.

GOLDEN (params ``b3d22b9a…9b9e61``, ledger 1843.0, trace ``d938a999…df5e38``) was
recorded at commit ``8d8b814`` from the 6-round object-path run of the differential
harness this file replaces. A ``FederatedDataset`` and a hand-built ``ColumnarPopulation``
over the same arrays must both reproduce it, on every backend and across a checkpoint.
"""

import functools
import hashlib

import numpy as np

from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.population import ColumnarPopulation, PopulationModel

SPEC = "start:0.8,join:0.6,leave:0.05,drift:0.25:0.3@corr"
EDGES = [np.arange(0, 8), np.arange(8, 16)]
model_fn = functools.partial(make_mlp, 192, 10, seed=0)  # picklable
GOLDEN = {
    "params": "b3d22b9a9c8895fb95e559af96f7c5b3ef3d9d0a1373264e32533abb989b9e61",
    "partitions": [(0, 1, [13, 11, 9]), (1, 1, [15, 14, 8]), (2, 0, [0, 4, 3, 6])],
    "p": "10dcc3f4edc3da3f8685243f5c99db3fd33c2f986b45c33f", "gamma_p": 11.352115597396946,
    "trace": "d938a999696065e184075aa9b8e67305f81fad0d3e1d47f4a853562a80df5e38",
    "sampled": [[0, 1], [1, 2], [1, 0], [1, 0], [1, 2], [0, 2]], "cost": 1843.0,
}
KINDS = ("federated", "hand_built")


def _make_trainer(kind, backend="serial", checkpoint_dir=None, pipeline=False):
    fed = FederatedDataset.from_dataset(  # fresh every call: drift mutates it in place
        *SyntheticImage(noise_std=2.0, seed=0).train_test(2_000, 300),
        num_clients=16, alpha=0.1, size_low=15, size_high=50, rng=11,
    )
    if kind == "hand_built":  # the bare store's own constructor, over the same arrays
        fed = ColumnarPopulation(fed.L, train_x=fed._train_x, train_y=fed._train_y,
                                 sample_offsets=fed._offsets, test=fed.test)
    grouper = CoVGrouping(min_group_size=3, max_cov=0.6)
    cfg = TrainerConfig(
        max_rounds=6, group_rounds=1, local_rounds=1, num_sampled=2, seed=3,
        parallel_backend=backend, population=PopulationModel.from_spec(SPEC, seed=7),
        pipeline_rounds=pipeline,
    )
    return GroupFELTrainer(
        model_fn, fed, group_clients_per_edge(grouper, fed.L, EDGES, rng=5), cfg,
        grouper=grouper, edge_assignment=EDGES, checkpoint_dir=checkpoint_dir,
    )


def _finished(trainer) -> dict:
    """Run to ``max_rounds`` and close; returns everything the harness pinned."""
    with trainer as t:
        t.run()
    return {
        "params": hashlib.sha256(t.global_params.tobytes()).hexdigest(),
        "partitions": sorted((g.group_id, g.edge_id, g.members.tolist()) for g in t.groups),
        "p": t.sampler.p.tobytes().hex(), "gamma_p": float(t.sampler.gamma_p()),
        "trace": t.population_trace.signature(),
        "sampled": [[g.group_id for g in sel] for sel in t.sampled_history], "cost": t.ledger.total,
    }


class TestTrainingEquivalence:
    def test_serial(self, backend="serial", pipeline=False):
        for kind in KINDS:
            assert _finished(_make_trainer(kind, backend, pipeline=pipeline)) == GOLDEN, kind

    def test_process(self):
        self.test_serial("process")

    def test_thread(self):
        """Churn and drift under pipelined rounds, whose evaluation runs on
        the trainer's one background thread, keep the golden."""
        self.test_serial(pipeline=True)


class TestResumeEquivalence:
    def test_cross_representation_resume(self, tmp_path, first="federated", second="hand_built"):
        with _make_trainer(first, checkpoint_dir=tmp_path) as t:
            for _ in range(3):
                t.train_round()
            t.save_checkpoint()
        resumed = _make_trainer(second, checkpoint_dir=tmp_path)  # fresh pristine data
        resumed.load_checkpoint(tmp_path)
        assert resumed.round_idx == 3
        assert _finished(resumed) == GOLDEN

    def test_columnar_resume_matches_uninterrupted_object_run(self, tmp_path):
        self.test_cross_representation_resume(tmp_path, "hand_built", "federated")


class TestChurnStateSharing:
    def test_store_active_mask_tracks_engine(self):
        for t in map(_make_trainer, KINDS):
            _finished(t)
            assert t.population_engine.active is t.fed.active  # one shared array
            assert t.fed.num_active() == t.population_engine.num_active

    def test_drift_lands_in_store_arrays(self):
        for t in map(_make_trainer, KINDS):
            _finished(t)
            assert any(e.kind == "drift" for e in t.population_trace.events)
            t.fed.check_invariants()  # L/n/y never diverge under drift
