"""Group-FEL: group-based hierarchical federated learning.

A complete reproduction of "Group-based Hierarchical Federated Learning:
Convergence, Group Formation, and Sampling" (Liu et al., ICPP 2023),
implemented from scratch on NumPy. See DESIGN.md for the system inventory
and EXPERIMENTS.md for the paper-vs-measured record.

Quick tour
----------
>>> from repro import (SyntheticImage, FederatedDataset, CoVGrouping,
...                    group_clients_per_edge, GroupFELTrainer, TrainerConfig,
...                    make_mlp, paper_cost_model)
>>> import numpy as np
>>> data = SyntheticImage(seed=0)
>>> train, test = data.train_test(8000, 1000)
>>> fed = FederatedDataset.from_dataset(train, test, num_clients=30, alpha=0.1, rng=0)
>>> groups = group_clients_per_edge(CoVGrouping(3, 0.5), fed.L, [np.arange(30)], rng=0)
>>> trainer = GroupFELTrainer(lambda: make_mlp(192, 10, seed=0), fed, groups,
...                           TrainerConfig(max_rounds=5), paper_cost_model())
>>> history = trainer.run()

Importing the package fixes glibc's malloc thresholds (see
``repro._heap``) so that peak memory follows the live arrays.
"""

from repro._heap import pin_malloc_thresholds
from repro.attacks import (
    LabelFlipAttack,
    ScalingAttack,
    SignFlipAttack,
    TriggerBackdoorAttack,
    attack_success_rate,
    poison_federation,
)
from repro.baselines import METHODS, FedCLARTrainer, build_method
from repro.checkpoint import (
    CheckpointError,
    CheckpointManager,
    CheckpointPolicy,
    CheckpointVersionError,
    CorruptCheckpointError,
)
from repro.context import RunContext
from repro.core import (
    Callback,
    Checkpointer,
    EarlyStopping,
    FedProxStrategy,
    GroupFELTrainer,
    MetricTracker,
    PlainSGDStrategy,
    RoundLogger,
    ScaffoldStrategy,
    TelemetryCallback,
    TimeBudget,
    TrainerConfig,
)
from repro.costs import (
    CostLedger,
    CostModel,
    LinearCost,
    QuadraticCost,
    RPiEmulator,
    paper_cost_model,
)
from repro.data import (
    ArrayDataset,
    ClientDataset,
    FederatedDataset,
    SyntheticAudio,
    SyntheticImage,
    dirichlet_partition,
    make_dataset,
)
from repro.faults import (
    ClientDropout,
    FaultEvent,
    FaultPlan,
    FaultTrace,
    GroupFailure,
    MessageLoss,
    RetryPolicy,
    Straggler,
)
from repro.grouping import (
    CDGGrouping,
    CoVGrouping,
    Group,
    KLDGrouping,
    RandomGrouping,
    cov_of_counts,
    group_clients_per_edge,
)
from repro.metrics import (
    FairnessReport,
    TrainingHistory,
    participation_counts,
    per_client_accuracy,
)
from repro.nn import (
    MLP,
    Adam,
    AudioCNN,
    ResNetLite,
    SGD,
    Sequential,
    load_model,
    make_audio_cnn,
    make_mlp,
    make_resnet_lite,
    save_model,
)
from repro.population import (
    Arrivals,
    Departures,
    InitialActive,
    LabelDrift,
    OnlineGroupMaintainer,
    PopulationEngine,
    PopulationEvent,
    PopulationModel,
    PopulationTrace,
)
from repro.sampling import AggregationMode, GroupSampler, sampling_probabilities
from repro.secure import (
    BackdoorDetector,
    DropoutTolerantAggregator,
    SecureAggregator,
)
from repro.telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry
from repro.theory import BoundInputs, convergence_bound
from repro.topology import CommModel, HierarchicalTopology

pin_malloc_thresholds()

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # data
    "ArrayDataset",
    "SyntheticImage",
    "SyntheticAudio",
    "make_dataset",
    "dirichlet_partition",
    "ClientDataset",
    "FederatedDataset",
    # nn
    "MLP",
    "ResNetLite",
    "AudioCNN",
    "Sequential",
    "SGD",
    "Adam",
    "make_mlp",
    "make_resnet_lite",
    "make_audio_cnn",
    "save_model",
    "load_model",
    # grouping
    "Group",
    "CoVGrouping",
    "RandomGrouping",
    "CDGGrouping",
    "KLDGrouping",
    "cov_of_counts",
    "group_clients_per_edge",
    # sampling
    "GroupSampler",
    "AggregationMode",
    "sampling_probabilities",
    # core
    "GroupFELTrainer",
    "TrainerConfig",
    "PlainSGDStrategy",
    "FedProxStrategy",
    "ScaffoldStrategy",
    "Callback",
    "RoundLogger",
    "EarlyStopping",
    "Checkpointer",
    "TimeBudget",
    "MetricTracker",
    "TelemetryCallback",
    # baselines
    "METHODS",
    "build_method",
    "FedCLARTrainer",
    # checkpoint
    "CheckpointManager",
    "CheckpointPolicy",
    "CheckpointError",
    "CorruptCheckpointError",
    "CheckpointVersionError",
    # run context
    "RunContext",
    # faults
    "FaultPlan",
    "FaultEvent",
    "FaultTrace",
    "ClientDropout",
    "Straggler",
    "MessageLoss",
    "RetryPolicy",
    "GroupFailure",
    # population
    "PopulationModel",
    "PopulationEngine",
    "PopulationTrace",
    "PopulationEvent",
    "OnlineGroupMaintainer",
    "InitialActive",
    "Arrivals",
    "Departures",
    "LabelDrift",
    # costs
    "CostModel",
    "LinearCost",
    "QuadraticCost",
    "CostLedger",
    "RPiEmulator",
    "paper_cost_model",
    # secure
    "SecureAggregator",
    "DropoutTolerantAggregator",
    "BackdoorDetector",
    # attacks
    "LabelFlipAttack",
    "SignFlipAttack",
    "ScalingAttack",
    "TriggerBackdoorAttack",
    "poison_federation",
    "attack_success_rate",
    # telemetry
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    # theory
    "BoundInputs",
    "convergence_bound",
    # topology
    "HierarchicalTopology",
    "CommModel",
    # metrics
    "TrainingHistory",
    "FairnessReport",
    "per_client_accuracy",
    "participation_counts",
]
