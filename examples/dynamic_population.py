"""Dynamic population: churn + label drift with online group maintenance.

Trains one Group-FEL workload over a client population that evolves while
training runs: 80% of the pool is active at round 0, dormant clients join
at ~0.6/round, active clients leave with 3% chance per round, and clients
inside correlated drift episodes relabel 30% of their samples each round.
The group partition is maintained *online* — single-client moment updates
plus a MaxCoV watchdog — instead of re-forming from scratch.

The run prints the population timeline, the migration/regroup telemetry,
and then proves the two replay contracts:

1. re-running with the same population seed reproduces the exact same
   population trace signature (deterministic replay), and
2. checkpointing mid-churn and resuming in a fresh trainer over freshly
   built data reproduces the uninterrupted run bit for bit.

    python examples/dynamic_population.py
"""

import hashlib
import tempfile

import numpy as np

from repro import (
    CoVGrouping,
    FederatedDataset,
    GroupFELTrainer,
    PopulationModel,
    RunContext,
    SyntheticImage,
    Telemetry,
    TrainerConfig,
    group_clients_per_edge,
    make_mlp,
    paper_cost_model,
)
from repro.context import activated

NUM_CLIENTS = 24
NUM_EDGES = 2
ROUNDS = 10
SPEC = "start:0.8,join:0.6,leave:0.03,drift:0.2:0.3:0.85@corr"


def build_trainer(checkpoint_dir: str | None = None) -> GroupFELTrainer:
    # Label drift relabels client samples in place, so every run (and the
    # resumed run in particular) starts from freshly built, pristine data.
    data = SyntheticImage(noise_std=4.0, seed=0)
    train, test = data.train_test(n_train=6_000, n_test=800)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=NUM_CLIENTS, alpha=0.1,
        size_low=20, size_high=80, rng=42,
    )
    per_edge = NUM_CLIENTS // NUM_EDGES
    edges = [np.arange(j * per_edge, (j + 1) * per_edge) for j in range(NUM_EDGES)]
    grouper = CoVGrouping(3, 0.5)
    groups = group_clients_per_edge(grouper, fed.L, edges, rng=1)

    in_features = int(np.prod(fed.test.feature_shape))
    return GroupFELTrainer(
        model_fn=lambda: make_mlp(in_features, 10, hidden=(64,), seed=7),
        fed=fed,
        groups=groups,
        config=TrainerConfig(
            group_rounds=2, local_rounds=2, num_sampled=3,
            lr=0.08, momentum=0.9, max_rounds=ROUNDS, eval_every=5,
            seed=0,
            population=PopulationModel.from_spec(SPEC, seed=9),
        ),
        cost_model=paper_cost_model(),
        grouper=grouper,              # formation context: the maintainer
        edge_assignment=edges,        # re-groups within these edges
        checkpoint_dir=checkpoint_dir,
    )


def model_hash(trainer: GroupFELTrainer) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(trainer.global_params).tobytes()
    ).hexdigest()


def main() -> None:
    tel = Telemetry(label="dynamic-population")
    with activated(RunContext(telemetry=tel)):
        trainer = build_trainer()
        history = trainer.run()

    print(f"population spec: {SPEC}")
    print(f"final accuracy {history.final_accuracy:.3f} "
          f"at cost {history.total_cost:.0f}")
    active = history.extra["population_active"]
    print(f"active clients per round: {active}")
    print(f"population events: {dict(trainer.population_trace.counts())}")

    counters = tel.metrics.snapshot()["counters"]
    maintained = {
        k.split(".", 1)[1]: int(v)
        for k, v in counters.items()
        if k.startswith("population.")
    }
    print(f"maintenance telemetry: {maintained}")
    signature = trainer.population_trace.signature()
    print(f"replay signature: {signature[:16]}…")
    final_hash = model_hash(trainer)

    # Contract 1 — deterministic replay: same seeds, same population, same
    # model, on any backend.
    replay = build_trainer()
    replay.run()
    assert replay.population_trace.signature() == signature, "replay diverged"
    assert model_hash(replay) == final_hash, "model diverged"
    print("replay check: second run is bit-identical ✓")

    # Contract 2 — resume mid-churn: checkpoint halfway, restore into a
    # fresh trainer over pristine data (drift is re-derived and re-applied
    # from the recorded events), continue — bit-identical to the
    # uninterrupted run.
    with tempfile.TemporaryDirectory() as ckpt_dir:
        interrupted = build_trainer(checkpoint_dir=ckpt_dir)
        interrupted.run(max_rounds=ROUNDS // 2)   # "crash" at the halfway point
        resumed = build_trainer()
        resumed.load_checkpoint(ckpt_dir)
        resumed.run(max_rounds=ROUNDS)
    assert resumed.population_trace.signature() == signature, "resume diverged"
    assert model_hash(resumed) == final_hash, "resumed model diverged"
    print("resume check: interrupted + resumed run is bit-identical ✓")


if __name__ == "__main__":
    main()
