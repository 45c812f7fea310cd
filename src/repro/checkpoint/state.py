"""Capture/restore of complete `GroupFELTrainer` training state.

The captured dict is everything `run()` reads that evolves across rounds:
the global model parameters, the trainer and sampler RNGs (including their
seed-sequence spawn counters — see :func:`repro.rng.generator_state`), the
current groups (regrouping may have replaced the originals), the
per-strategy state (SCAFFOLD control variates), the training history, the
cost-ledger series, the fault trace, the sampled-group history, and any
stateful compressor (error-feedback residuals).

Static inputs — the federated dataset, the model factory, the config —
are *not* stored; a resumed run must be constructed from the same inputs
(the header's config fingerprint catches accidental mismatches).
"""

from __future__ import annotations

import copy
from dataclasses import fields
from typing import TYPE_CHECKING

import numpy as np

from repro.faults import FaultTrace
from repro.rng import generator_state, restore_generator
from repro.sampling.sampler import GroupSampler

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.trainer import GroupFELTrainer, TrainerConfig

__all__ = ["capture_state", "restore_state", "config_fingerprint"]

#: config fields that choose where and how a round is computed, never what
#: it computes (every backend and engine is bit-identical) — left out of the
#: fingerprint so a checkpoint resumes on any of them
_EXECUTION_ONLY_FIELDS = ("parallel_backend", "engine", "pipeline_rounds")


def config_fingerprint(config: "TrainerConfig", grouper=None) -> dict:
    """JSON-safe summary of the config, stored in the checkpoint header.

    Used to reject resuming a checkpoint into a trainer whose
    hyperparameters diverged — a silent way to lose bit-identical replay.
    ``grouper`` folds the trainer's grouping engine into the fingerprint
    (its repr carries MinGS/MaxCoV/cov_metric), so a resume under a
    different grouping — or, via the config's ``population`` field, a
    different population schedule — is rejected loudly instead of
    silently diverging. Execution-only fields are skipped.
    """
    fp: dict = {}
    for f in fields(config):
        if f.name in _EXECUTION_ONLY_FIELDS:
            continue
        value = getattr(config, f.name)
        if value is None or isinstance(value, (bool, int, float, str)):
            fp[f.name] = value
        else:  # AggregationMode enum, FaultPlan, PopulationModel — stable reprs
            fp[f.name] = getattr(value, "value", None) or repr(value)
    fp["grouper"] = None if grouper is None else repr(grouper)
    return fp


def capture_state(trainer: "GroupFELTrainer") -> dict:
    """Snapshot every piece of evolving state ``run()`` depends on."""
    return {
        "round_idx": int(trainer.round_idx),
        "global_params": np.array(trainer.global_params, copy=True),
        "rng": generator_state(trainer.rng),
        "sampler_rng": generator_state(trainer.sampler.rng),
        "groups": copy.deepcopy(trainer.groups),
        "sampled_history": copy.deepcopy(trainer.sampled_history),
        "strategy": trainer.strategy.state_dict(),
        "sampler_adaptive": trainer.sampler.adaptive_state_dict(),
        "history": trainer.history.state_dict(),
        "ledger": {
            "round_costs": list(trainer.ledger.round_costs),
            "fault_delay_s": list(trainer.ledger.fault_delay_s),
            "fault_events": list(trainer.ledger.fault_events),
        },
        "fault_trace": list(trainer.fault_trace.events),
        "compressor": copy.deepcopy(trainer.compressor),
        "population": (
            trainer.population_engine.state_dict()
            if trainer.population_engine is not None
            else None
        ),
        "trainer_extra": copy.deepcopy(trainer.extra_state_dict()),
    }


def restore_state(trainer: "GroupFELTrainer", state: dict) -> None:
    """Install a :func:`capture_state` snapshot into ``trainer`` in place.

    The sampler is rebuilt from the restored groups (its probability
    vector and sampling scheme are pure functions of them and the config)
    with its RNG stream restored directly, so the next draw matches the
    interrupted run's; an ``adaptive`` sampler additionally restores its
    norm-EMA estimator, replaying the probability trajectory exactly.
    """
    cfg = trainer.config
    trainer.round_idx = int(state["round_idx"])
    trainer.global_params = np.array(state["global_params"], copy=True)
    trainer.rng = restore_generator(state["rng"])
    trainer.groups = list(state["groups"])
    trainer.sampler = GroupSampler(
        trainer.groups,
        method=cfg.sampling_method,
        num_sampled=min(cfg.num_sampled, len(trainer.groups)),
        mode=cfg.aggregation_mode,
        min_prob=cfg.min_prob,
        rng=restore_generator(state["sampler_rng"]),
        telemetry=trainer.telemetry,
        scheme=cfg.sampling_scheme,
    )
    if trainer.sampler.adaptive is not None:
        trainer.sampler.load_adaptive_state_dict(state.get("sampler_adaptive"))
    trainer.sampled_history = list(state["sampled_history"])
    trainer.strategy.load_state_dict(state["strategy"])
    trainer.history.load_state_dict(state["history"])
    ledger = state["ledger"]
    trainer.ledger.round_costs = list(ledger["round_costs"])
    trainer.ledger.fault_delay_s = list(ledger["fault_delay_s"])
    trainer.ledger.fault_events = list(ledger["fault_events"])
    trace = FaultTrace()
    trace.extend(list(state["fault_trace"]))
    trainer.fault_trace = trace
    trainer.compressor = state["compressor"]
    population = state.get("population")
    if trainer.population_engine is not None:
        if population is None:
            raise ValueError(
                "checkpoint has no population state but this trainer runs "
                "population dynamics — it was written by a static-population "
                "run"
            )
        trainer.population_engine.load_state_dict(population, trainer.groups)
    elif population is not None:
        raise ValueError(
            "checkpoint carries population state but this trainer has no "
            "population model — construct it with the same "
            "TrainerConfig.population (and grouper/edge_assignment)"
        )
    # Subclass-owned state (IFCA centers, FedCLAR clusters) restores last:
    # it may reference the restored groups.
    trainer.load_extra_state_dict(copy.deepcopy(state.get("trainer_extra")))
