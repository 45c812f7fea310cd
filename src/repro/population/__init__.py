"""Dynamic client populations: churn, label drift, online group maintenance.

The paper's CoV-Grouping and Γ_p sampling analysis assume a static client
population; this package removes that assumption. A
:class:`PopulationModel` schedules seeded arrival/departure processes and
label-drift dynamics as pure per-round decisions (the ``repro.faults``
idiom — same seed ⇒ same population, bit for bit, on any backend); an
:class:`OnlineGroupMaintainer` keeps the CoV partition valid under those
events via O(m) incremental-moment updates and a MaxCoV-degradation
watchdog; a :class:`PopulationEngine` applies everything at the trainer's
round boundaries and records a replayable :class:`PopulationTrace`.

Enable it with ``TrainerConfig(population="start:0.7,join:1,leave:0.02")``
(plus ``grouper=``/``edge_assignment=`` on the trainer), the runner's
``population=`` parameter, or the CLI's ``--population SPEC``.
"""

from repro.data.store import ColumnarPopulation, group_label_counts, spawn_keys
from repro.population.dynamics import (
    CORRUPTION_MODES,
    DRIFT_MODES,
    Arrivals,
    Departures,
    FeatureCorruption,
    InitialActive,
    LabelDrift,
    PopulationModel,
)
from repro.population.engine import PopulationEngine, PopulationStep
from repro.population.maintenance import OnlineGroupMaintainer
from repro.population.trace import PopulationEvent, PopulationTrace

__all__ = [
    "ColumnarPopulation",
    "group_label_counts",
    "spawn_keys",
    "DRIFT_MODES",
    "CORRUPTION_MODES",
    "InitialActive",
    "Arrivals",
    "Departures",
    "LabelDrift",
    "FeatureCorruption",
    "PopulationModel",
    "PopulationEngine",
    "PopulationStep",
    "OnlineGroupMaintainer",
    "PopulationEvent",
    "PopulationTrace",
]
