"""Named method configurations — one spec per curve in Figs. 9–11.

``build_method`` assembles a ready-to-run trainer for any of the paper's
seven methods from shared ingredients (dataset, model factory, edge
assignment, cost model), applying each method's grouping algorithm,
sampling rule, local strategy, and cost factors.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.baselines.fedclar import FedCLARTrainer
from repro.baselines.ifca import IFCATrainer
from repro.core.strategies import (
    FedProxStrategy,
    LocalStrategy,
    PlainSGDStrategy,
    ScaffoldStrategy,
)
from repro.core.trainer import GroupFELTrainer, TrainerConfig
from repro.costs.model import CostModel
from repro.data.store import FederatedDataset
from repro.grouping import (
    CDGGrouping,
    CoVGrouping,
    FedGroupGrouping,
    Grouper,
    KLDGrouping,
    RandomGrouping,
    group_clients_per_edge,
)
from repro.rng import make_rng

__all__ = ["MethodSpec", "METHODS", "build_method"]


@dataclass(frozen=True)
class MethodSpec:
    """Recipe for one method: grouping × sampling × local strategy."""

    name: str
    grouper_factory: Callable[[int, float], Grouper]  # (size_knob, max_cov) -> Grouper
    sampling_method: str
    strategy_factory: Callable[[], LocalStrategy]
    trainer_cls: type = GroupFELTrainer
    trainer_kwargs: dict | None = None
    #: optional per-method sampling scheme (None = keep the config's), so
    #: e.g. an HT-corrected multinomial baseline is expressible as a spec.
    sampling_scheme: str | None = None


def _covg(size: int, max_cov: float) -> Grouper:
    return CoVGrouping(min_group_size=size, max_cov=max_cov)


def _rg(size: int, max_cov: float) -> Grouper:
    return RandomGrouping(group_size=size)


def _cdg(size: int, max_cov: float) -> Grouper:
    return CDGGrouping(group_size=size)


def _kldg(size: int, max_cov: float) -> Grouper:
    return KLDGrouping(min_group_size=size)


def _fedgroup(size: int, max_cov: float) -> Grouper:
    return FedGroupGrouping(group_size=size)


#: The seven methods of §7.3 (Figs. 9–11) plus the clustered-FL suite
#: from the related work (IFCA, FedGroup).
METHODS: dict[str, MethodSpec] = {
    "group_fel": MethodSpec("group_fel", _covg, "esrcov", PlainSGDStrategy),
    "fedavg": MethodSpec("fedavg", _rg, "random", PlainSGDStrategy),
    "fedprox": MethodSpec("fedprox", _rg, "random", lambda: FedProxStrategy(mu=0.01)),
    "scaffold": MethodSpec("scaffold", _rg, "random", ScaffoldStrategy),
    "ouea": MethodSpec("ouea", _cdg, "random", PlainSGDStrategy),
    "share": MethodSpec("share", _kldg, "random", PlainSGDStrategy),
    "fedclar": MethodSpec(
        "fedclar",
        _rg,
        "random",
        PlainSGDStrategy,
        trainer_cls=FedCLARTrainer,
        trainer_kwargs={"cluster_round": 10, "num_clusters": 4},
    ),
    "ifca": MethodSpec(
        "ifca",
        _rg,
        "random",
        PlainSGDStrategy,
        trainer_cls=IFCATrainer,
        trainer_kwargs={"num_clusters": 3},
    ),
    "fedgroup": MethodSpec("fedgroup", _fedgroup, "random", PlainSGDStrategy),
}


def build_method(
    name: str,
    model_fn: Callable,
    fed: FederatedDataset,
    edge_assignment: list[np.ndarray],
    config: TrainerConfig,
    cost_model: CostModel | None = None,
    group_size_knob: int = 5,
    max_cov: float = 0.5,
    rng: np.random.Generator | int | None = None,
    telemetry=None,
    parallel=None,
    checkpoint_dir=None,
    sampling_scheme: str | None = None,
) -> GroupFELTrainer:
    """Build a ready-to-run trainer for a named method.

    Parameters
    ----------
    group_size_knob:
        MinGS for the greedy groupers, target group size for RG/CDG —
        "we tune all grouping algorithms so that they tend to generate
        similar group sizes" (§7.1).
    config:
        Shared hyperparameters; the method's sampling rule overrides
        ``config.sampling_method``. The override is recorded in the
        trainer's ``history.extra["sampling"]`` (with the clobbered
        request under ``"requested_method"``) so the effective rule is
        always observable.
    sampling_scheme:
        Optional draw-scheme override (see ``repro.sampling.schemes``);
        wins over the spec's ``sampling_scheme``, which wins over
        ``config.sampling_scheme``.
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` forwarded to the
        trainer (default: the run context's).
    parallel:
        Optional shared :class:`repro.parallel.ParallelMap` forwarded to
        the trainer so several methods reuse one persistent worker pool.
    checkpoint_dir:
        Optional crash-safe checkpoint directory forwarded to the trainer
        (see ``repro.checkpoint``); omit to fall back to the run context's
        :class:`repro.checkpoint.CheckpointPolicy`, if any.
    """
    try:
        spec = METHODS[name]
    except KeyError:
        raise KeyError(f"unknown method {name!r}; known: {sorted(METHODS)}") from None
    rng = make_rng(rng)
    grouper = spec.grouper_factory(group_size_knob, max_cov)
    groups = group_clients_per_edge(grouper, fed.L, edge_assignment, rng=rng)
    cfg = replace(config, sampling_method=spec.sampling_method)
    scheme = sampling_scheme if sampling_scheme is not None else spec.sampling_scheme
    if scheme is not None:
        cfg = replace(cfg, sampling_scheme=scheme)
    kwargs = dict(spec.trainer_kwargs or {})
    trainer = spec.trainer_cls(
        model_fn,
        fed,
        groups,
        cfg,
        cost_model=cost_model,
        strategy=spec.strategy_factory(),
        # Hand the trainer its formation context so regroup_every and
        # population dynamics (config or run context) can re-form groups.
        grouper=grouper,
        edge_assignment=edge_assignment,
        label=name,
        telemetry=telemetry,
        parallel=parallel,
        checkpoint_dir=checkpoint_dir,
        **kwargs,
    )
    # Make the effective sampling configuration observable: the spec's
    # rule silently wins over config.sampling_method, so record both.
    sampling_record = {
        "method": trainer.config.sampling_method,
        "scheme": trainer.config.sampling_scheme,
    }
    if config.sampling_method != spec.sampling_method:
        sampling_record["requested_method"] = config.sampling_method
        if trainer.telemetry.enabled:
            trainer.telemetry.inc("build_method.sampling_method_overridden")
    trainer.history.extra["sampling"] = sampling_record
    return trainer
