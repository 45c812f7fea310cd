"""The five pinned workloads of the round ledger.

Each :class:`Workload` fixes everything but the seed: population shape,
grouper, model, trainer config and the number of global rounds in one pass.
All inputs derive from the seed (dataset prototypes, partition, group
formation, trainer RNG), so a seed names one exact run on every commit.

Why these five: each puts a different layer on the critical path of a
round, so a change to one layer has one workload that exercises it and
four that should stay flat (see README.md for the measured split).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from repro.core import GroupFELTrainer, TrainerConfig
from repro.data import ArrayDataset, FederatedDataset, SyntheticImage
from repro.grouping import CoVGrouping, group_clients_per_edge
from repro.nn import make_mlp, make_resnet_lite
from repro.parallel import ParallelMap, worker_init_count
from repro.population import ColumnarPopulation
from repro.secure.backdoor import BackdoorDetector

__all__ = ["Workload", "Setup", "WORKLOADS", "build"]


@dataclass(frozen=True)
class Workload:
    """One pinned input: how to build it and how long a pass runs.

    ``rounds`` x ``passes`` is the measured work of one untraced run: the
    same on every commit, sized so the passes take about BENCHMARK.json's
    ``run_seconds`` (20 s) on the 2-core reference box.
    """

    name: str
    why: str
    #: global rounds in one pass, warm-up round included
    rounds: int
    #: passes of one untraced run, each a replay of the same seed
    passes: int
    #: seed -> (population, edge assignment)
    make_data: Callable[[int], tuple]
    grouper: CoVGrouping
    model_fn: Callable
    #: TrainerConfig fields other than ``seed`` / ``max_rounds``
    config: dict
    #: final test accuracy every pass must reach
    min_accuracy: float
    #: process-pool workers (0: serial, in-process)
    workers: int = 0
    #: name of the serial workload this one must end bit-identical to
    reference: str | None = None
    #: save a checkpoint every round (the run then reads the last one back)
    checkpoints: bool = False


@dataclass
class Setup:
    """A built trainer plus how long each set-up stage took."""

    trainer: GroupFELTrainer
    init_params: np.ndarray
    pool: ParallelMap | None
    stage_s: dict = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.stage_s.values())

    def close(self) -> None:
        """Release the trainer and the pool handed to it (a trainer never
        closes a pool it was given)."""
        self.trainer.close()
        if self.pool is not None:
            self.pool.close()


def build(
    workload: Workload, seed: int, rounds: int, checkpoint_dir=None, callbacks=None
) -> Setup:
    """Data/store build, group formation, trainer construction — the work
    ``setup_s`` times. On the process workload the pool is started here
    (first dispatch would otherwise hide it in round 1)."""
    stage_s = {}
    t0 = time.perf_counter()
    fed, edges = workload.make_data(seed)
    t1 = time.perf_counter()
    stage_s["data.build_s"] = t1 - t0
    groups = group_clients_per_edge(workload.grouper, fed.L, edges, rng=seed + 1)
    t2 = time.perf_counter()
    stage_s["grouping.form_s"] = t2 - t1

    config = TrainerConfig(seed=seed + 2, max_rounds=rounds, **workload.config)
    kwargs = {}
    if "population" in workload.config:
        # online group maintenance re-forms groups as clients churn
        kwargs.update(grouper=workload.grouper, edge_assignment=edges)
    if workload.checkpoints:
        kwargs["checkpoint_dir"] = checkpoint_dir
    if workload.config.get("use_backdoor_defense"):
        # The default "distance" criterion bans almost every honest
        # small-shard client (their updates are mutually near-orthogonal),
        # which collapses SecAgg to groups of ~1 and hides the Θ(|g|²) cost.
        kwargs["backdoor_detector"] = BackdoorDetector(criterion="split")
    pool = None
    if workload.workers:
        pool = ParallelMap("process", max_workers=workload.workers)
        kwargs["parallel"] = pool
    trainer = GroupFELTrainer(
        partial(workload.model_fn, seed=seed + 3), fed, groups, config,
        label=workload.name, callbacks=callbacks, **kwargs,
    )
    t3 = time.perf_counter()
    stage_s["core.trainer.init_s"] = t3 - t2
    if pool is not None:
        pool.map(worker_init_count, range(workload.workers))
        stage_s["parallel.pool_start_s"] = time.perf_counter() - t3
    return Setup(trainer, trainer.global_params.copy(), pool, stage_s)


# ------------------------------------------------------------------- inputs
def _image_federation(
    seed: int, *, clients: int, edges: int, size_low: int, size_high: int,
    alpha: float, test_samples: int, noise_std: float = 2.0,
) -> tuple[FederatedDataset, list[np.ndarray]]:
    """Object-path population: synthetic 3x8x8 images, Dirichlet label skew."""
    train_samples = clients * size_high  # sizes are clipped to size_high
    train, test = SyntheticImage(noise_std=noise_std, seed=seed).train_test(
        train_samples, test_samples
    )
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=clients, alpha=alpha,
        size_low=size_low, size_high=size_high, rng=seed,
    )
    return fed, np.array_split(np.arange(clients), edges)


def _columnar_store(seed: int, noise_std: float = 0.8) -> tuple[ColumnarPopulation, list[np.ndarray]]:
    """Data-bearing columnar store built straight from flat arrays:
    5 000 clients, 10 classes, 32 features, 8-24 samples per client."""
    clients, classes, dim, edges = 5_000, 10, 32, 25
    rng = np.random.default_rng(seed)
    prototypes = rng.normal(size=(classes, dim))
    sizes = rng.integers(8, 25, size=clients)
    offsets = np.zeros(clients + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    owner = np.repeat(np.arange(clients), sizes)
    # per-client label skew: each client draws from its own Dirichlet mix
    mix = rng.dirichlet(np.full(classes, 0.3), size=clients)
    cdf = np.cumsum(mix, axis=1)
    y = (rng.random(owner.size)[:, None] > cdf[owner]).sum(axis=1).clip(max=classes - 1)
    x = prototypes[y] + rng.normal(scale=noise_std, size=(owner.size, dim))
    L = np.zeros((clients, classes), dtype=np.int64)
    np.add.at(L, (owner, y), 1)
    y_test = rng.integers(0, classes, size=1_000)
    x_test = prototypes[y_test] + rng.normal(scale=noise_std, size=(1_000, dim))
    store = ColumnarPopulation(
        L, train_x=x, train_y=y.astype(np.int64), sample_offsets=offsets,
        test=ArrayDataset(x_test, y_test, classes, name="columnar_test"),
        seed=seed, name="columnar_churn",
    )
    return store, np.array_split(np.arange(clients), edges)


# Shapes are chosen so that a round's *work* barely depends on the seed
# (narrow client-size ranges, label skew mild enough that CoV-Grouping stops
# at MinGS on every seed, uniform group sampling on the training-bound
# workloads): over 40 seeds the group shapes are identical and the median
# trained samples per round vary by about 1 %, so what is left in the timing
# spread is the machine. Learning rates and data noise are set so every
# workload ends a pass at 0.99-1.0 test accuracy — a steady number that still
# drops if training breaks.
_DENSE = dict(
    rounds=45,
    passes=4,
    make_data=partial(
        _image_federation, clients=120, edges=3, size_low=40, size_high=60,
        alpha=0.3, test_samples=1_000,
    ),
    grouper=CoVGrouping(10, 0.5),
    model_fn=partial(make_mlp, 192, 10, hidden=(64,)),
    config=dict(
        group_rounds=3, local_rounds=2, num_sampled=4, batch_size=16,
        sampling_method="random", engine="auto", eval_every=1,
    ),
    min_accuracy=0.8,
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="dense_static",
            why="default experiment path: dense MLP, serial, batched engine does "
                "~90% of a round and every group operation is bypassed",
            **_DENSE,
        ),
        Workload(
            name="dense_process",
            why="dense_static through a 2-worker process pool + shared-memory "
                "dispatch, so a dispatch change shows here and nowhere else",
            workers=2,
            reference="dense_static",
            **_DENSE,
        ),
        Workload(
            name="conv_static",
            why="conv model falls off the batched engine onto the per-client "
                "loop (core.client + nn.layers); evaluation is a visible share",
            rounds=7,
            passes=3,
            make_data=partial(
                _image_federation, clients=60, edges=3, size_low=45, size_high=55,
                alpha=2.0, test_samples=1_000, noise_std=0.5,
            ),
            grouper=CoVGrouping(5, 0.5),
            model_fn=make_resnet_lite,
            config=dict(
                group_rounds=2, local_rounds=1, num_sampled=2, batch_size=32,
                lr=0.1, sampling_method="random", eval_every=1,
            ),
            min_accuracy=0.5,
        ),
        Workload(
            name="secure_groups",
            why="the paper's quadratic group-operation regime: groups of 30 with "
                "SecAgg + backdoor filter on, so group operations dominate a round",
            rounds=11,
            passes=4,
            make_data=partial(
                _image_federation, clients=180, edges=3, size_low=10, size_high=14,
                alpha=0.5, test_samples=1_000, noise_std=1.5,
            ),
            grouper=CoVGrouping(30, 0.5),
            model_fn=partial(make_mlp, 192, 10, hidden=(128,)),
            config=dict(
                group_rounds=3, local_rounds=1, num_sampled=2, batch_size=16,
                lr=0.15, sampling_method="random",
                use_secure_aggregation=True, use_backdoor_defense=True,
                eval_every=1,
            ),
            min_accuracy=0.5,
        ),
        Workload(
            name="columnar_churn",
            why="5000-client columnar store with churn and drift: the control plane "
                "(pi_g rebuild, population step) dominates; only workload that writes",
            rounds=4,
            passes=3,
            make_data=_columnar_store,
            grouper=CoVGrouping(10, 0.6),
            model_fn=partial(make_mlp, 32, 10, hidden=(32,)),
            config=dict(
                group_rounds=2, local_rounds=1, num_sampled=8, batch_size=4,
                lr=0.5, population="start:0.9,join:10,leave:0.002,drift:0.002:0.3",
                eval_every=1,
            ),
            min_accuracy=0.8,
            checkpoints=True,
        ),
    )
}
