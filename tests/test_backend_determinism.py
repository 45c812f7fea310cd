"""Cross-backend determinism: serial, thread, and process executors must
produce bit-identical models — with and without fault injection.

Fault decisions are pure functions of (plan seed, site), and per-group
training RNGs are derived ahead of dispatch, so no backend's scheduling can
leak into the math. The hashes below are the contract.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import pytest

from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.costs import paper_cost_model
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp, make_resnet_lite
from repro.secure.backdoor import BackdoorDetector

BACKENDS = ["serial", "thread", "process"]

# Module-level so the process backend can pickle them.
model_fn = functools.partial(make_mlp, 192, 10, seed=0)
# The conv path: every thread's im2col reads one shared patch-index cache.
resnet_fn = functools.partial(make_resnet_lite, base_width=4, seed=0)


def _run(
    small_fed, small_edges, backend: str, faults=None, secagg=None,
    backdoor_detector=None, model=model_fn, **config,
):
    """(params SHA, fault-trace signature, ledger total, test loss and
    accuracy curves) of one seeded run."""
    groups = group_clients_per_edge(
        CoVGrouping(3, 1.0), small_fed.L, small_edges, rng=0
    )
    cfg = TrainerConfig(
        max_rounds=2, group_rounds=2, local_rounds=1, num_sampled=2,
        # momentum > 0 is part of the golden config: the serial path used
        # to reuse one shared SGD across groups while pooled backends built
        # fresh per-group optimizers, so only a momentum-bearing run can
        # catch state leaking between groups.
        momentum=0.9, weight_decay=1e-4,
        seed=7, parallel_backend=backend,
        use_secure_aggregation=faults is not None if secagg is None else secagg,
        faults=faults, **config,
    )
    trainer = GroupFELTrainer(
        model, small_fed, groups, cfg, paper_cost_model(),
        backdoor_detector=backdoor_detector,
    )
    try:
        history = trainer.run()
    finally:
        trainer.close()
    digest = hashlib.sha256(
        np.ascontiguousarray(trainer.global_params).tobytes()
    ).hexdigest()
    return (
        digest, trainer.fault_trace.signature(), trainer.ledger.total,
        tuple(history.test_loss), tuple(history.test_acc),
    )


@pytest.mark.slow
def test_backends_bit_identical_without_faults(small_fed, small_edges):
    results = {b: _run(small_fed, small_edges, b) for b in BACKENDS}
    hashes = {r[0] for r in results.values()}
    assert len(hashes) == 1, f"model hashes diverge: {results}"


@pytest.mark.slow
def test_backends_bit_identical_with_faults(small_fed, small_edges):
    spec = "dropout:0.35@after,straggler:0.5:0.5,loss:0.2,groupfail:0.1"
    results = {b: _run(small_fed, small_edges, b, faults=spec) for b in BACKENDS}
    hashes = {r[0] for r in results.values()}
    signatures = {r[1] for r in results.values()}
    assert len(hashes) == 1, f"model hashes diverge: {results}"
    assert len(signatures) == 1, f"fault traces diverge: {results}"


@pytest.mark.slow
@pytest.mark.parametrize("defense_flag", [True, False])
def test_backends_run_the_trainers_own_group_operations(
    small_fed, small_edges, defense_flag
):
    """Regression: process workers used to rebuild the group operations from
    config flags, so a ``backdoor_detector=`` instance ran on serial and
    thread while process ran a default detector — or, with
    ``use_backdoor_defense=False``, none at all."""
    results = {
        b: _run(
            small_fed, small_edges, b, faults="dropout:0.2@after", secagg=True,
            use_backdoor_defense=defense_flag,
            backdoor_detector=BackdoorDetector(criterion="split"),
        )
        for b in BACKENDS
    }
    assert len(set(results.values())) == 1, f"backends diverge: {results}"


def test_serial_and_thread_agree_fast(small_fed, small_edges):
    """Cheap always-on variant of the golden test (no process spin-up)."""
    spec = "dropout:0.35@after,loss:0.2"
    a = _run(small_fed, small_edges, "serial", faults=spec)
    b = _run(small_fed, small_edges, "thread", faults=spec)
    assert a == b


def test_resnet_serial_and_thread_agree(small_fed, small_edges):
    """Conv + BatchNorm models on the per-client loop: thread workers share
    the read-only patch-index cache and must not change a bit."""
    a = _run(small_fed, small_edges, "serial", model=resnet_fn)
    b = _run(small_fed, small_edges, "thread", model=resnet_fn)
    assert a == b


def test_resnet_pipelined_eval_agrees(small_fed, small_edges):
    """Pipelined rounds evaluate on a background thread while the next
    round trains, so two threads run the conv kernels at once."""
    a = _run(small_fed, small_edges, "serial", model=resnet_fn)
    b = _run(
        small_fed, small_edges, "thread", model=resnet_fn, pipeline_rounds=True
    )
    assert a == b


@pytest.mark.slow
def test_resnet_process_agrees(small_fed, small_edges):
    a = _run(small_fed, small_edges, "serial", model=resnet_fn)
    b = _run(small_fed, small_edges, "process", model=resnet_fn)
    assert a == b
