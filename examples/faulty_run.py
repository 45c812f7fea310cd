"""Fault injection: accuracy-vs-cost degradation under client dropout.

Trains the same Group-FEL workload three times — fault-free, with moderate
dropout, and with heavy dropout plus a lossy uplink — using the *same*
training seed throughout, so every difference between the curves is caused
by the injected faults alone. Dropouts strike *after* masking (the
Bonawitz case), so with secure aggregation on, every dropped upload forces
the Shamir mask-reconstruction path; the run prints how often that
happened, the fault mix, and the latency the faults injected.

    python examples/faulty_run.py
"""

import numpy as np

from repro import (
    CoVGrouping,
    FederatedDataset,
    GroupFELTrainer,
    RunContext,
    SyntheticImage,
    Telemetry,
    TrainerConfig,
    group_clients_per_edge,
    make_mlp,
    paper_cost_model,
)
from repro.context import activated

NUM_CLIENTS = 30
NUM_EDGES = 2

#: label -> fault spec (None = the clean baseline)
SCENARIOS = {
    "clean": None,
    "dropout 20%": "dropout:0.2@after",
    "dropout 40% + lossy uplink": "dropout:0.4@after,loss:0.2,straggler:0.3:1.5",
}


def run_scenario(fed: FederatedDataset, faults: str | None):
    per_edge = NUM_CLIENTS // NUM_EDGES
    edges = [np.arange(j * per_edge, (j + 1) * per_edge) for j in range(NUM_EDGES)]
    groups = group_clients_per_edge(CoVGrouping(3, 0.5), fed.L, edges, rng=1)

    in_features = int(np.prod(fed.test.feature_shape))
    tel = Telemetry(label=faults or "clean")
    with activated(RunContext(telemetry=tel)):
        trainer = GroupFELTrainer(
            model_fn=lambda: make_mlp(in_features, 10, hidden=(64,), seed=7),
            fed=fed,
            groups=groups,
            config=TrainerConfig(
                group_rounds=3, local_rounds=2, num_sampled=3,
                lr=0.08, momentum=0.9, max_rounds=12, eval_every=3,
                seed=0,                      # same training randomness...
                use_secure_aggregation=True,
                faults=faults,               # ...different fault schedules
            ),
            cost_model=paper_cost_model("cifar", "secagg"),
        )
        history = trainer.run()
    return trainer, history, tel


def main() -> None:
    data = SyntheticImage(noise_std=4.0, seed=0)
    train, test = data.train_test(n_train=8_000, n_test=1_000)
    fed = FederatedDataset.from_dataset(
        train, test, num_clients=NUM_CLIENTS, alpha=0.1,
        size_low=20, size_high=80, rng=42,
    )

    results = {}
    for label, spec in SCENARIOS.items():
        trainer, history, tel = run_scenario(fed, spec)
        results[label] = (trainer, history, tel)
        counts = trainer.fault_trace.counts()
        recon = tel.metrics.snapshot()["counters"].get("secagg.reconstructions", 0)
        print(f"\n=== {label} ===")
        print(f"final accuracy {history.final_accuracy:.3f} "
              f"at cost {history.total_cost:.0f}")
        if spec:
            print(f"faults injected: {dict(counts)}")
            print(f"Shamir mask pairs reconstructed: {recon:.0f}")
            print(f"latency injected: {trainer.ledger.total_fault_delay_s:.1f}s")
            print(f"replay signature: {trainer.fault_trace.signature()[:16]}… "
                  "(same seed ⇒ same signature, any backend)")

    # Accuracy-vs-cost table: early on, the same cost buys less accuracy as
    # the fault rate rises (lost uploads shrink effective participation) —
    # the degradation curve the fault subsystem exists to map. On this easy
    # synthetic task the gap closes once all runs near convergence.
    print("\ncost         " + "".join(f"{label:>30}" for label in SCENARIOS))
    clean_hist = results["clean"][1]
    for i, cost in enumerate(clean_hist.costs):
        row = f"{cost:9.0f}    "
        for label in SCENARIOS:
            hist = results[label][1]
            acc = hist.test_acc[i] if i < len(hist.test_acc) else float("nan")
            row += f"{acc:>30.3f}"
        print(row)


if __name__ == "__main__":
    main()
