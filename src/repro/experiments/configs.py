"""Canonical experiment workloads at two scales.

``paper`` mirrors §7.2's setup: 300 clients with 20–200 samples each on 3
edge servers, Dirichlet(α) label skew, K=5, E=2, MinGS=5, 10⁶-unit budget,
ResNetLite on the image task and the 5-layer AudioCNN on the command task.

``fast`` shrinks every axis (clients, samples, rounds, model) by roughly an
order of magnitude so the whole figure suite runs in minutes on one core,
while keeping the regime that produces the paper's effects: strong label
skew, group sizes of ~5, more groups than the per-round sample count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.trainer import TrainerConfig
from repro.costs.calibration import paper_cost_model
from repro.costs.model import CostModel
from repro.data.store import FederatedDataset
from repro.data.datasets import SyntheticAudio, SyntheticImage
from repro.nn import make_audio_cnn, make_mlp, make_resnet_lite
from repro.rng import derive_seed, make_rng
from repro.topology.network import HierarchicalTopology

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "Workload",
    "make_image_workload",
    "make_audio_workload",
    "make_tta_workload",
]


@dataclass(frozen=True)
class ExperimentScale:
    """All size knobs of a figure run (algorithms never change with scale)."""

    name: str
    num_clients: int
    num_edges: int
    size_low: int
    size_high: int
    train_samples: int
    test_samples: int
    # model
    image_model: str  # "mlp" | "resnet"
    audio_model: str  # "mlp" | "cnn"
    # trainer
    group_rounds: int  # K
    local_rounds: int  # E
    num_sampled: int  # S
    max_rounds: int  # T
    lr: float
    batch_size: int
    min_group_size: int  # MinGS
    max_cov: float
    cost_budget: float
    eval_every: int
    # task difficulty
    image_noise: float
    audio_noise: float


SCALES: dict[str, ExperimentScale] = {
    "fast": ExperimentScale(
        name="fast",
        num_clients=60,
        num_edges=3,
        size_low=20,
        size_high=80,
        train_samples=12_000,
        test_samples=1_500,
        image_model="mlp",
        audio_model="mlp",
        group_rounds=3,
        local_rounds=2,
        num_sampled=4,
        max_rounds=30,
        lr=0.08,
        batch_size=16,
        min_group_size=4,
        max_cov=0.5,
        cost_budget=3.0e5,
        eval_every=1,
        image_noise=6.0,
        audio_noise=4.0,
    ),
    "paper": ExperimentScale(
        name="paper",
        num_clients=300,
        num_edges=3,
        size_low=20,
        size_high=200,
        train_samples=50_000,
        test_samples=5_000,
        image_model="resnet",
        audio_model="cnn",
        group_rounds=5,
        local_rounds=2,
        num_sampled=12,
        max_rounds=200,
        lr=0.05,
        batch_size=32,
        min_group_size=5,
        max_cov=0.5,
        cost_budget=1.0e6,
        eval_every=5,
        image_noise=6.0,
        audio_noise=4.0,
    ),
}


def get_scale(scale: str | ExperimentScale | None = None) -> ExperimentScale:
    """Resolve a scale name (or the REPRO_SCALE env var; default ``fast``)."""
    if isinstance(scale, ExperimentScale):
        return scale
    name = scale or os.environ.get("REPRO_SCALE", "fast")
    try:
        return SCALES[name]
    except KeyError:
        raise KeyError(f"unknown scale {name!r}; known: {sorted(SCALES)}") from None


@dataclass
class Workload:
    """A fully materialized experiment setup (one task, one scale)."""

    scale: ExperimentScale
    fed: FederatedDataset
    topology: HierarchicalTopology
    model_fn: Callable
    trainer_config: TrainerConfig
    cost_model: CostModel
    task: str  # "cifar" | "sc"
    alpha: float
    seed: int

    @property
    def edge_assignment(self) -> list[np.ndarray]:
        return self.topology.edge_assignment()


def _trainer_config(s: ExperimentScale, seed: int) -> TrainerConfig:
    return TrainerConfig(
        group_rounds=s.group_rounds,
        local_rounds=s.local_rounds,
        num_sampled=s.num_sampled,
        batch_size=s.batch_size,
        lr=s.lr,
        momentum=0.9,
        max_rounds=s.max_rounds,
        cost_budget=s.cost_budget,
        eval_every=s.eval_every,
        seed=seed,
    )


def make_image_workload(
    scale: str | ExperimentScale | None = None,
    alpha: float = 0.1,
    seed: int = 0,
) -> Workload:
    """The CIFAR-10-like workload of §7.2–7.3 (Figs. 2b, 7, 9, 10, 12, Table 1)."""
    s = get_scale(scale)
    rng = make_rng(derive_seed(seed, "image", s.name))
    data = SyntheticImage(noise_std=s.image_noise, seed=rng.spawn(1)[0])
    train, test = data.train_test(s.train_samples, s.test_samples)
    fed = FederatedDataset.from_dataset(
        train,
        test,
        num_clients=s.num_clients,
        alpha=alpha,
        size_low=s.size_low,
        size_high=s.size_high,
        rng=rng.spawn(1)[0],
    )
    topo = HierarchicalTopology(s.num_clients, s.num_edges)
    if s.image_model == "resnet":
        model_fn = lambda: make_resnet_lite(
            in_channels=3, num_classes=10, base_width=8, seed=derive_seed(seed, "model")
        )
    else:
        in_features = int(np.prod(train.feature_shape))
        model_fn = lambda: make_mlp(
            in_features, 10, hidden=(64,), seed=derive_seed(seed, "model")
        )
    return Workload(
        scale=s,
        fed=fed,
        topology=topo,
        model_fn=model_fn,
        trainer_config=_trainer_config(s, seed),
        cost_model=paper_cost_model("cifar", "secagg"),
        task="cifar",
        alpha=alpha,
        seed=seed,
    )


def make_tta_workload(
    scale: str | ExperimentScale | None = None,
    alpha: float = 0.1,
    seed: int = 0,
    corruption_prob: float = 1.0,
    severities: int = 4,
    period: int = 5,
) -> Workload:
    """The FedCTTA-style continual test-time adaptation workload.

    The image workload with a streaming feature-corruption schedule: every
    round each client's features are re-noised from pristine at a severity
    from its own seeded stream (severities ``1..severities``, advancing
    every ``period`` rounds, per-client phase offsets) — the CIFAR-C-style
    corruption loop that stresses grouping under non-stationarity. The
    schedule lives in the population idiom, so it replays bit-identically
    on every backend and composes with churn/drift/faults; the cost model
    is unchanged, so accuracy-vs-cost curves are directly comparable to
    the static workload's.
    """
    from repro.population import FeatureCorruption, PopulationModel

    wl = make_image_workload(scale, alpha=alpha, seed=seed)
    population = PopulationModel(
        seed=derive_seed(seed, "tta"),
        dynamics=[
            FeatureCorruption(
                prob=corruption_prob, severities=severities, period=period
            )
        ],
    )
    wl.trainer_config = replace(wl.trainer_config, population=population)
    wl.task = "cifar-tta"
    return wl


def make_audio_workload(
    scale: str | ExperimentScale | None = None,
    alpha: float = 0.01,
    seed: int = 0,
) -> Workload:
    """The Speech-Commands-like workload of §7.3.2 (Fig. 11): 35 classes,
    extreme skew (α=0.01), MinGS=15 at paper scale."""
    s = get_scale(scale)
    rng = make_rng(derive_seed(seed, "audio", s.name))
    data = SyntheticAudio(noise_std=s.audio_noise, seed=rng.spawn(1)[0])
    train, test = data.train_test(s.train_samples, s.test_samples)
    fed = FederatedDataset.from_dataset(
        train,
        test,
        num_clients=s.num_clients,
        alpha=alpha,
        size_low=s.size_low,
        size_high=s.size_high,
        rng=rng.spawn(1)[0],
    )
    topo = HierarchicalTopology(s.num_clients, s.num_edges)
    if s.audio_model == "cnn":
        model_fn = lambda: make_audio_cnn(
            num_classes=35, base_width=8, seed=derive_seed(seed, "model")
        )
    else:
        in_features = int(np.prod(train.feature_shape))
        model_fn = lambda: make_mlp(
            in_features, 35, hidden=(64,), seed=derive_seed(seed, "model")
        )
    cfg = _trainer_config(s, seed)
    # §7.3.2: MinGS = 15 at paper scale and "no MaxCoV constraint"; the fast
    # scale keeps the same *ratio* of MinGS to client count.
    return Workload(
        scale=s,
        fed=fed,
        topology=topo,
        model_fn=model_fn,
        trainer_config=cfg,
        cost_model=paper_cost_model("sc", "secagg"),
        task="sc",
        alpha=alpha,
        seed=seed,
    )
