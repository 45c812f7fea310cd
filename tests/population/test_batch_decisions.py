"""Batch population decisions: bit-equal to the scalar site RNG, same trace.

`PopulationModel` decides leave / drift / corrupt for a whole id array at
once through ``repro.rng.derive_seeds`` + ``first_uniform``. Pinned here:

1. every batched draw equals ``make_rng(derive_seed(...)).random()`` at
   the same site, and the scalar ``departs`` / ``drift_decisions`` /
   ``corruption_decisions`` are the length-1 case of the batch;
2. a 6-round engine run over a spec mixing every dynamic ends on the trace
   recorded at commit f649f5b (per-client loop), in the same recording
   order, including the "last active client never leaves" break.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.population import PopulationEngine, PopulationModel
from repro.rng import derive_seed, make_rng

MIXED_SPEC = (
    "start:0.6,join:2.0,leave:0.08,leave:0.03,drift:0.15:0.4,"
    "drift:0.04@linear,drift:0.1:0.3:0.8@corr,corrupt:0.3:4:2,corrupt:0.2:3:1@ramp"
)

#: recorded at f649f5b: (signature, sha256 of the events in recording order,
#: number of events, active clients after round 5)
GOLDEN_MIXED = (
    "11ed35e621abc6e2ca97900e3bf2ebf22811bc720b8e9d9de6d7b474d87c52a7",
    "4f632da663f8ea3e5db48015e8c8e94810b6c986a9d37be3de117289deb04b73",
    253,
    20,
)
#: a pool that a leave:0.9 dynamic empties down to its last client
GOLDEN_LAST_CLIENT = (
    "b8ed7021bdf89a14456524f1696b00e23589e10b7b44e63eca6ba040cb06b453",
    12,
)


def _engine(spec: str, seed: int, clients: int = 30) -> PopulationEngine:
    train, test = SyntheticImage(seed=1).train_test(1_500, 100)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=clients, alpha=0.3, size_low=10, size_high=40, rng=2
    )
    edges = np.array_split(np.arange(clients), 2)
    grouper = CoVGrouping(3, 0.5)
    groups = group_clients_per_edge(grouper, fed.L, edges, rng=3)
    model = PopulationModel.from_spec(spec, seed=seed)
    return PopulationEngine(model, fed, grouper, edges, groups)


def _ordered_digest(events) -> str:
    h = hashlib.sha256()
    for e in events:
        h.update(repr(e).encode())
    return h.hexdigest()


class TestGoldenTrace:
    def test_mixed_spec_trace_matches_the_per_client_loop(self):
        engine = _engine(MIXED_SPEC, seed=11)
        for t in range(6):
            engine.step(t)
        kinds = engine.trace.counts()
        assert {"leave", "join", "drift", "corrupt"} <= set(kinds)
        modes = {e.mode for e in engine.trace.events if e.kind == "drift"}
        assert modes == {"step", "linear", "corr"}
        engine.fed.check_invariants()
        assert (
            engine.trace.signature(),
            _ordered_digest(engine.trace.events),
            len(engine.trace),
            engine.num_active,
        ) == GOLDEN_MIXED

    def test_last_active_client_never_leaves(self):
        engine = _engine("leave:0.9", seed=5, clients=12)
        for t in range(6):
            engine.step(t)
        assert engine.num_active == 1
        assert (engine.trace.signature(), len(engine.trace)) == GOLDEN_LAST_CLIENT


class TestScalarIsTheBatch:
    def test_draws_equal_the_site_generator(self):
        model = PopulationModel.from_spec(MIXED_SPEC, seed=2**40 + 17)
        ids = np.array([0, 1, 7, 4_999, 2**31, 2**32 - 1])
        for kind, index, round_idx in [("leave", 2, 0), ("drift", 4, 3),
                                       ("drift-state", 6, 9), ("corrupt", 8, 2**20)]:
            want = [
                make_rng(derive_seed(model.seed, kind, index, round_idx, int(c))).random()
                for c in ids
            ]
            got = model._draws(kind, index, round_idx, ids)
            assert got.tolist() == want

    def test_scalar_decisions_are_the_length_one_batch(self):
        model = PopulationModel.from_spec(MIXED_SPEC, seed=4)
        ids = np.arange(60)
        for t in range(4):
            leaving = model.departing(t, ids)
            drifting = model.drifting(t, ids)
            corrupting = model.corrupting(t, ids)
            for k, cid in enumerate(ids.tolist()):
                assert model.departs(t, cid) == bool(leaving[k])
                assert model.drift_decisions(t, cid) == [
                    (idx, dyn) for idx, dyn, mask in drifting if mask[k]
                ]
                assert model.corruption_decisions(t, cid) == [
                    (idx, dyn) for idx, dyn, mask in corrupting if mask[k]
                ]

    def test_corr_chain_is_independent_of_batch_composition(self):
        spec = "drift:0.2:0.3:0.7@corr"
        whole = PopulationModel.from_spec(spec, seed=9)
        pieces = PopulationModel.from_spec(spec, seed=9)
        ids = np.arange(25)
        for t in range(8):
            (_, _, mask), = whole.drifting(t, ids)
            # late joiners: a client first asked at round t still starts its
            # chain at round 0
            late = ids[ids <= 3 * t]
            (_, _, late_mask), = pieces.drifting(t, late)
            assert mask[late].tolist() == late_mask.tolist()
