"""``import repro`` loads no optional heavy dependency.

SciPy's ``kmeans2`` is imported where a grouping first clusters, the
backdoor filter and FedCLAR cluster with an in-module kernel, and nothing
imports networkx. Each check runs in a fresh interpreter, whose
``sys.modules`` holds only what the probe pulled in.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_HEAVY = ("scipy.cluster", "scipy.spatial", "networkx")

_PROBE = """
import sys
import repro
heavy = tuple(sys.argv[1:])
print(sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + "." for h in heavy))))
"""


_CLUSTER_PROBE = """
import sys
import numpy as np
from repro.baselines import FedCLARTrainer
from repro.core import TrainerConfig
from repro.data import FederatedDataset, SyntheticImage
from repro.grouping import RandomGrouping, group_clients_per_edge
from repro.nn import make_mlp
from repro.secure import BackdoorDetector

updates = np.random.default_rng(0).normal(size=(6, 8))
for criterion in ("split", "distance"):
    BackdoorDetector(criterion=criterion).detect(updates, rng=0)
train, test = SyntheticImage(seed=0).train_test(200, 50)
fed = FederatedDataset.from_dataset(train, test, num_clients=6, alpha=0.5,
                                    size_low=10, size_high=20, rng=0)
groups = group_clients_per_edge(RandomGrouping(3), fed.L, [np.arange(6)], rng=0)
trainer = FedCLARTrainer(lambda: make_mlp(192, 10, hidden=(4,), seed=0), fed,
                         groups, TrainerConfig(num_sampled=1, max_rounds=1, seed=0),
                         num_clusters=2)
trainer._cluster_clients()
assert len(trainer.cluster_models) == 2
heavy = tuple(sys.argv[1:])
print(sorted(m for m in sys.modules if m in heavy or m.startswith(tuple(h + "." for h in heavy))))
"""


def _loaded_heavy_modules(probe: str) -> str:
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe, *_HEAVY],
        capture_output=True, text=True, check=True, env=env,
    )
    return out.stdout.strip()


def test_import_repro_loads_no_clustering_or_graph_module():
    assert _loaded_heavy_modules(_PROBE) == "[]"


def test_backdoor_filter_and_fedclar_cluster_without_scipy():
    assert _loaded_heavy_modules(_CLUSTER_PROBE) == "[]"
