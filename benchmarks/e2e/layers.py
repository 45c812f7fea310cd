"""Which callables the traced pass rebinds, and what it counts at each.

One row per layer boundary: the object that *looks the callable up* (so the
caller really goes through the wrapper), the attribute, and the span name —
the layer's module name, which is also the prefix of its metrics in
BENCHMARK.json. Counts are taken from the call's own arguments and result,
never from ``repro.telemetry``.
"""

from __future__ import annotations

import os
import pickle

import numpy as np

import repro.core.group
import repro.core.trainer
import repro.sampling.schemes
from repro.core.trainer import GroupFELTrainer
from repro.costs.ledger import CostLedger
from repro.parallel import ParallelMap
from repro.population import ColumnarPopulation, OnlineGroupMaintainer, PopulationEngine
from repro.sampling.sampler import GroupSampler
from repro.secure.backdoor import BackdoorDetector
from repro.secure.secagg import SecureAggregator

from trace import Tracer

__all__ = ["install", "check_errors"]


def _local_train(tracer: Tracer, call: dict, result) -> None:
    clients = call["clients"] if "clients" in call else [call["client"]]
    per_local_round = (
        sum(c.n for c in clients)
        if call.get("step_mode", "epoch") == "epoch"
        else call["batch_size"] * len(clients)
    )
    tracer.counts["nn.samples_trained"] += call["local_rounds"] * per_local_round


def _secagg_weighted(tracer: Tracer, call: dict, result) -> None:
    plain = np.asarray(call["weights"]) @ np.asarray(call["vectors"])
    # fixed-point codec error is <= 3e-8 per element per client
    if not np.allclose(result, plain, rtol=0.0, atol=1e-6):
        tracer.counts["check.secagg_mismatch"] += 1


def _secagg_protocol(tracer: Tracer, call: dict, result) -> None:
    tracer.counts["secure.mask_expansions"] += result.mask_expansions


def _backdoor(tracer: Tracer, call: dict, result) -> None:
    tracer.counts["secure.backdoor.submitted"] += np.asarray(call["updates"]).shape[0]
    tracer.counts["secure.backdoor.admitted"] += result.admitted.size


def _population_step(tracer: Tracer, call: dict, result) -> None:
    tracer.counts["population.events"] += len(result.events)
    tracer.counts["population.groups_changed_rounds"] += bool(result.groups_changed)


def _materialize(tracer: Tracer, call: dict, result) -> None:
    tracer.counts["data.clients_materialized"] += len(result)


def _pool_map(tracer: Tracer, call: dict, result) -> None:
    items = call["items"]
    tracer.counts["parallel.tasks"] += len(items)
    tracer.counts["parallel.task_bytes"] += sum(len(pickle.dumps(i)) for i in items)


def _checkpoint(tracer: Tracer, call: dict, result) -> None:
    tracer.counts["checkpoint.bytes"] += os.path.getsize(result)


def install(tracer: Tracer) -> None:
    """Rebind every layer boundary to ``tracer`` (undo with ``tracer.restore()``)."""
    group, trainer = repro.core.group, repro.core.trainer
    tracer.patch(group, "batched_local_rounds", "nn.local_train", _local_train)
    tracer.patch(group, "run_local_rounds", "nn.local_train", _local_train)
    tracer.patch(GroupFELTrainer, "evaluate", "nn.evaluate")
    tracer.patch(trainer, "run_group_round", "core.group.round")
    tracer.patch(group, "weighted_average", "core.aggregation")
    tracer.patch(trainer, "weighted_average", "core.aggregation")
    tracer.patch(SecureAggregator, "aggregate_weighted", "secure.secagg", _secagg_weighted)
    # nested inside aggregate_weighted: same span name, not a second call
    tracer.patch(SecureAggregator, "aggregate", "secure.secagg", _secagg_protocol,
                 count_calls=False)
    tracer.patch(BackdoorDetector, "detect", "secure.backdoor", _backdoor)
    tracer.patch(GroupSampler, "__init__", "sampling.build")
    tracer.patch(GroupSampler, "sample", "sampling.sample")
    tracer.patch(repro.sampling.schemes, "sequential_wor_inclusion", "sampling.inclusion")
    tracer.patch(PopulationEngine, "step", "population.step", _population_step)
    tracer.patch(OnlineGroupMaintainer, "maintain", "population.maintain")
    tracer.patch(ColumnarPopulation, "materialize", "data.materialize", _materialize)
    tracer.patch(ParallelMap, "map", "parallel.map", _pool_map)
    tracer.patch(GroupFELTrainer, "save_checkpoint", "checkpoint.save", _checkpoint)
    tracer.patch(CostLedger, "charge_round", "costs.charge")


def check_errors(tracer: Tracer) -> list[str]:
    """Output checks taken inside the traced pass."""
    mismatches = int(tracer.counts["check.secagg_mismatch"])
    if mismatches:
        return [f"{mismatches} secure aggregations differ from the plain weighted sum by > 1e-6"]
    return []
