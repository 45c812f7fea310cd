"""GroupFELTrainer — Algorithm 1 end to end.

The trainer wires together every subsystem: the federated dataset, the
formed groups, the cloud sampler, the local-update strategy, the cost
ledger, (optionally) the real secure-aggregation/backdoor-detection group
operations, a parallel group executor, and a fault-injection plan.

Stopping is by global-round count and/or cost budget — the paper's
evaluations fix a cost budget ("The budget is set as 10⁶ unit", §7.2) and
compare accuracy reached within it.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from repro.checkpoint import (
    CheckpointError,
    CheckpointManager,
    capture_state,
    config_fingerprint,
    manager_for_label,
    read_checkpoint,
    restore_state,
    write_checkpoint,
)
from repro.context import RunContext, current
from repro.core.aggregation import weighted_average
from repro.core.executor import GroupExecutor, GroupRunner

# Not called here: GroupRunner.run resolves the name through this module,
# where the end-to-end round ledger (benchmarks/e2e/layers.py) rebinds it.
from repro.core.group import run_group_round  # noqa: F401
from repro.core.strategies import LocalStrategy, PlainSGDStrategy
from repro.costs.ledger import CostLedger
from repro.costs.model import CostModel, LinearCost, QuadraticCost
from repro.data.store import ColumnarPopulation
from repro.faults import FaultEvent, FaultPlan, FaultTrace
from repro.grouping.base import Group, Grouper, group_clients_per_edge
from repro.metrics.history import TrainingHistory
from repro.nn.model import Model
from repro.nn.optim import SGD
from repro.parallel import ParallelMap, available_backends
from repro.population import PopulationEngine, PopulationModel, PopulationTrace
from repro.rng import derive_seed, make_rng
from repro.sampling.probability import WEIGHT_FUNCTIONS
from repro.sampling.sampler import AggregationMode, GroupSampler
from repro.sampling.schemes import SCHEMES
from repro.secure.backdoor import BackdoorDetector
from repro.secure.secagg import SecureAggregator
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = ["TrainerConfig", "GroupFELTrainer", "resolve_config"]


@dataclass
class TrainerConfig:
    """Hyperparameters of one Group-FEL run (Algorithm 1's inputs).

    Attributes mirror the paper's notation: ``group_rounds`` = K,
    ``local_rounds`` = E, ``num_sampled`` = S = |S_t|.

    ``faults`` accepts a :class:`repro.faults.FaultPlan` or a spec string
    (the CLI grammar, e.g. ``"dropout:0.2,straggler:0.1:2.0"``) — a string
    is parsed with a plan seed derived from ``seed``, so the whole faulted
    run replays from the one config.

    ``population`` accepts a :class:`repro.population.PopulationModel` or a
    spec string (e.g. ``"start:0.7,join:1.0,leave:0.02,drift:0.1:0.4"``)
    scheduling client churn and label drift; the trainer then needs its
    ``grouper=``/``edge_assignment=`` parameters so groups can be
    maintained online as the population evolves.

    ``checkpoint_every`` sets the auto-save cadence (in global rounds) used
    when the trainer has a checkpoint directory (its ``checkpoint_dir=``
    parameter, or the run context's :class:`repro.checkpoint.CheckpointPolicy`);
    None defers to the policy's cadence, defaulting to every round.
    """

    group_rounds: int = 5
    local_rounds: int = 2
    num_sampled: int = 4
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.0
    weight_decay: float = 0.0
    sampling_method: str = "esrcov"
    #: how S_t is drawn from p: "sequential_wor" (the paper's sequential
    #: renormalized draw, default), "multinomial" (with replacement — the
    #: scheme under which Eq. 4's S·p_g weights are provably exact), or
    #: "stratified" (one draw per p-mass-balanced stratum; Fraboni's
    #: clustered sampling). Unbiased weights always divide by the scheme's
    #: true expected multiplicity (see repro.sampling.schemes).
    sampling_scheme: str = "sequential_wor"
    aggregation_mode: AggregationMode | str = AggregationMode.BIASED
    min_prob: float = 0.0
    step_mode: str = "epoch"
    eval_every: int = 1
    max_rounds: int = 100
    cost_budget: float | None = None
    regroup_every: int | None = None
    use_secure_aggregation: bool = False
    use_backdoor_defense: bool = False
    client_dropout_prob: float = 0.0
    parallel_backend: str = "serial"
    #: local-training engine: "auto" uses the stacked batched engine
    #: (repro.nn.batched) whenever the model/strategy support it,
    #: "batched" forces it, "reference" keeps the per-client loop
    engine: str = "auto"
    #: overlap round t's evaluation + checkpoint writes with round t+1's
    #: group compute on a single background thread (bit-identical history;
    #: opt-in)
    pipeline_rounds: bool = False
    faults: FaultPlan | str | None = None
    population: PopulationModel | str | None = None
    checkpoint_every: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.group_rounds < 1:
            raise ValueError(f"group_rounds (K) must be >= 1, got {self.group_rounds}")
        if self.local_rounds < 1:
            raise ValueError(f"local_rounds (E) must be >= 1, got {self.local_rounds}")
        if self.num_sampled < 1:
            raise ValueError(f"num_sampled (S) must be >= 1, got {self.num_sampled}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds (T) must be >= 1, got {self.max_rounds}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0.0:
            raise ValueError(
                f"weight_decay must be >= 0, got {self.weight_decay}"
            )
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.checkpoint_every is not None and self.checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1 or None, got {self.checkpoint_every}"
            )
        if not 0.0 <= self.client_dropout_prob < 1.0:
            raise ValueError(
                f"client_dropout_prob must be in [0, 1), got {self.client_dropout_prob}"
            )
        if self.parallel_backend not in available_backends():
            raise ValueError(
                f"parallel_backend must be one of {available_backends()}, "
                f"got {self.parallel_backend!r}"
            )
        if self.engine not in ("auto", "batched", "reference"):
            raise ValueError(
                f"engine must be 'auto', 'batched' or 'reference', "
                f"got {self.engine!r}"
            )
        known_sampling = ("random", *sorted(WEIGHT_FUNCTIONS), "varopt")
        if self.sampling_method not in known_sampling:
            raise ValueError(
                f"sampling_method must be one of {sorted(known_sampling)}, "
                f"got {self.sampling_method!r}"
            )
        if self.sampling_scheme not in SCHEMES:
            raise ValueError(
                f"sampling_scheme must be one of {sorted(SCHEMES)}, "
                f"got {self.sampling_scheme!r}"
            )
        self.aggregation_mode = AggregationMode(self.aggregation_mode)
        if isinstance(self.faults, str):
            self.faults = FaultPlan.from_spec(
                self.faults, seed=derive_seed(self.seed, "faults")
            )
        if self.faults is not None and not isinstance(self.faults, FaultPlan):
            raise TypeError(
                f"faults must be a FaultPlan or spec string, got {self.faults!r}"
            )
        if isinstance(self.population, str):
            self.population = PopulationModel.from_spec(
                self.population, seed=derive_seed(self.seed, "population")
            )
        if self.population is not None and not isinstance(
            self.population, PopulationModel
        ):
            raise TypeError(
                f"population must be a PopulationModel or spec string, "
                f"got {self.population!r}"
            )


def resolve_config(
    config: TrainerConfig, context: RunContext, *, maintains_groups: bool = True
) -> TrainerConfig:
    """The config a trainer runs: ``config`` with ``context`` folded in.

    The context's ``engine`` / ``pipeline_rounds`` / ``sampling_scheme``
    override the config; its fault plan and population model fill the
    config only where it has none, so the checkpoint fingerprint (which
    reads the config) records them. A trainer that cannot maintain groups
    (no grouper/edge_assignment) skips the context's population with a
    ``RuntimeWarning`` and runs static. Returns ``config`` itself when the
    context changes nothing; never mutates it.
    """
    overrides = {
        name: getattr(context, name)
        for name in ("engine", "pipeline_rounds", "sampling_scheme")
        if getattr(context, name) is not None
    }
    if context.faults and config.faults is None:
        overrides["faults"] = context.faults
    if context.population and config.population is None:
        if maintains_groups:
            overrides["population"] = context.population
        else:
            warnings.warn(
                "run-context population model ignored: trainer has no "
                "grouper/edge_assignment",
                RuntimeWarning,
                stacklevel=3,
            )
    return replace(config, **overrides) if overrides else config


class GroupFELTrainer:
    """Run group-based federated edge learning (Algorithm 1).

    Parameters
    ----------
    model_fn:
        Zero-argument factory producing a fresh model (fresh instances are
        needed per parallel worker; the serial path builds one). Must be
        picklable (a module-level function) for the ``process`` backend.
    fed:
        The client population with its global test set: a data-bearing
        :class:`repro.data.ColumnarPopulation`, usually built by
        :class:`repro.data.FederatedDataset`. Each round materializes
        only the sampled ~S·|g| clients, as zero-copy views.
    groups:
        The formed groups G (from ``group_clients_per_edge``).
    config:
        Hyperparameters.
    cost_model:
        Eq. (5) calibration; defaults to unit costs (H(n)=n, O(s)=s²).
    strategy:
        Local-update strategy (plain / FedProx / SCAFFOLD).
    grouper / edge_assignment:
        Only needed when ``config.regroup_every`` is set: the trainer
        re-runs group formation on this grouper every R rounds (§6.1's
        remark on utilizing leftover data via regrouping).
    telemetry:
        Optional :class:`repro.telemetry.Telemetry` facade. When given (or
        carried by the run context, see :mod:`repro.context`), every round
        emits nested wall-clock spans (``round > group > client_update /
        secagg / backdoor / aggregate``) plus cost/sampling/aggregation
        metrics — and, under a fault plan, the ``faults.*`` /
        ``secagg.reconstructions`` counters.
    parallel:
        Optional shared :class:`repro.parallel.ParallelMap` to run group
        rounds on (it stays open when this trainer closes). Defaults to
        the run context's pool, else a fresh pool built from
        ``config.parallel_backend`` that this trainer owns and shuts down in
        :meth:`close`. How groups reach the pool is
        :mod:`repro.core.executor`'s business.
    checkpoint_dir:
        Directory for crash-safe auto-checkpoints: :meth:`run` saves
        complete trainer state every ``config.checkpoint_every`` rounds
        (default: every round) via :class:`repro.checkpoint.CheckpointManager`.
        Omitted, the run context's :class:`repro.checkpoint.CheckpointPolicy`
        applies, each trainer writing under ``policy.dir/<label>/`` — and,
        when the policy says so, resuming from the latest checkpoint there
        at the start of the first :meth:`run`.

    Run context
    -----------
    The installed :class:`repro.context.RunContext` is read once, here:
    :func:`resolve_config` folds it into :attr:`config`, and the pool and
    checkpoint policy are taken from it. Nothing reads it afterwards.

    Fault injection
    ---------------
    ``config.faults`` (or the run context's plan) schedules client
    dropouts, stragglers, uplink message loss, and whole-group failures.
    Decisions are pure functions of the plan seed and the site ids, so a
    faulted run replays bit-identically on any parallel backend. Injected
    events accumulate in :attr:`fault_trace`; straggler/retry wall-clock
    folds into the cost ledger's fault-overhead series and the wall-clock
    simulator.
    """

    def __init__(
        self,
        model_fn,
        fed: ColumnarPopulation,
        groups: list[Group],
        config: TrainerConfig | None = None,
        cost_model: CostModel | None = None,
        strategy: LocalStrategy | None = None,
        grouper: Grouper | None = None,
        edge_assignment: list[np.ndarray] | None = None,
        label: str = "group-fel",
        callbacks: list | None = None,
        compressor=None,
        wallclock=None,
        attackers: dict | None = None,
        backdoor_detector: BackdoorDetector | None = None,
        telemetry: Telemetry | None = None,
        parallel: ParallelMap | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
    ):
        context = current()
        #: resolved once at construction: the explicit instance, the run
        #: context's, or the no-op null.
        self.telemetry = resolve_telemetry(
            telemetry if telemetry is not None else context.telemetry
        )
        self.model_fn = model_fn
        self.fed = fed
        if not fed.has_data:
            raise ValueError(
                "cannot train on a metadata-only ColumnarPopulation — give "
                "it train_x / train_y / sample_offsets (or build it with "
                "FederatedDataset) so clients can be materialized"
            )
        self.groups = list(groups)
        self.config = resolve_config(
            config or TrainerConfig(),
            context,
            maintains_groups=grouper is not None and edge_assignment is not None,
        )
        self.cost_model = cost_model or CostModel(
            training=LinearCost(c1=1.0), group_op=QuadraticCost(c2=1.0)
        )
        self.strategy = strategy or PlainSGDStrategy()
        self.grouper = grouper
        self.edge_assignment = edge_assignment
        self.label = label
        if self.config.regroup_every is not None and (
            grouper is None or edge_assignment is None
        ):
            raise ValueError("regroup_every requires grouper and edge_assignment")

        #: the resolved config's fault plan; an empty plan (no injectors)
        #: counts as no plan.
        self.fault_plan: FaultPlan | None = self.config.faults or None
        #: every fault injected so far (see ``FaultTrace.signature`` for
        #: the deterministic-replay fingerprint)
        self.fault_trace = FaultTrace()

        #: the resolved config's population model; an empty model (no
        #: dynamics) counts as no model.
        self.population: PopulationModel | None = self.config.population or None
        if self.population is not None and (
            grouper is None or edge_assignment is None
        ):
            raise ValueError(
                "population dynamics require grouper and edge_assignment "
                "(online group maintenance re-forms groups as clients churn)"
            )

        self.rng = make_rng(self.config.seed)
        self.model: Model = model_fn()
        self.optimizer = SGD(
            self.model,
            lr=self.config.lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self.global_params = self.model.get_params()
        self.ledger = CostLedger(
            self._effective_cost_model(), fed.client_sizes(),
            telemetry=self.telemetry,
        )
        self.history = TrainingHistory(label=label)
        #: population engine (None for a static population): applies churn
        #: and drift at round boundaries, maintains the groups online, and
        #: records the replayable population trace.
        self.population_engine: PopulationEngine | None = None
        if self.population is not None:
            self.population_engine = PopulationEngine(
                self.population,
                fed,
                grouper,
                edge_assignment,
                self.groups,
                telemetry=self.telemetry,
            )
            # The model's start fraction may shrink the initial partition.
            self.groups = self.population_engine.groups
            self.history.extra["population_active"] = []
        self.sampler = self._make_sampler()
        self.secure_aggregator = (
            SecureAggregator(
                payload_factor=self.strategy.payload_factor,
                telemetry=self.telemetry,
            )
            if self.config.use_secure_aggregation
            else None
        )
        if backdoor_detector is not None:
            self.backdoor_detector: BackdoorDetector | None = backdoor_detector
        else:
            self.backdoor_detector = (
                BackdoorDetector(telemetry=self.telemetry)
                if self.config.use_backdoor_defense
                else None
            )
        # Dropouts + secure aggregation together require the recovery
        # protocol (survivors reconstruct dropped clients' masks). A fault
        # plan that can lose uploads post-masking needs it too.
        self.dropout_aggregator = None
        plan_drops = self.fault_plan is not None and (
            self.fault_plan.has_dropout or self.fault_plan.has_message_loss
        )
        if self.config.use_secure_aggregation and (
            self.config.client_dropout_prob > 0 or plan_drops
        ):
            from repro.secure.dropout import DropoutTolerantAggregator

            self.dropout_aggregator = DropoutTolerantAggregator(threshold=2)
        self.strategy.init_run(self.model.num_params, fed.num_clients)
        self.callbacks = list(callbacks or [])
        #: optional update compressor / ErrorFeedback (repro.compression)
        self.compressor = compressor
        #: optional WallClockSimulator: records per-round simulated latency
        #: into history.extra["wall_clock_s"]
        self.wallclock = wallclock
        if wallclock is not None:
            self.history.extra["wall_clock_s"] = []
        if self.fault_plan is not None:
            self.history.extra["fault_delay_s"] = []
        #: client_id -> Attack (model-poisoning transforms; repro.attacks)
        self.attackers = dict(attackers or {})
        #: groups sampled each round (feeds participation/fairness metrics)
        self.sampled_history: list[list[Group]] = []
        self.round_idx = 0

        #: pipelined-rounds state: the single background worker (open only
        #: inside a pipelined run()), its not-yet-joined futures, and the
        #: model recorded points are scored on — its own when pipelined, as
        #: the main thread may be using self.model for the next round
        self._pipeline: ThreadPoolExecutor | None = None
        self._pipeline_pending: list = []
        self._eval_model = model_fn() if self.config.pipeline_rounds else self.model
        #: span id of the most recently *finished* round — the async
        #: evaluation of round t parents its span here so the span tree
        #: stays per-round even when the eval overlaps round t+1
        self._last_round_span_id: int | None = None
        #: where and how the sampled groups run (serial/process)
        self.executor = GroupExecutor(
            self._group_runner(),
            parallel=parallel if parallel is not None else context.parallel,
            backend=self.config.parallel_backend,
            label=label,
        )

        # ------------------------------------------------- checkpointing
        # Explicit directory > the run context's policy > none. Under a
        # policy each trainer namespaces its own subdirectory by label.
        policy = context.checkpoint
        #: resume from the policy's latest checkpoint at the top of the
        #: first run() — only then does a subclass's state exist to restore
        #: into (cleared by any load_checkpoint)
        self._auto_resume = (
            checkpoint_dir is None and policy is not None and policy.resume
        )
        self.checkpoint_manager: CheckpointManager | None = None
        if checkpoint_dir is not None:
            self.checkpoint_manager = CheckpointManager(
                checkpoint_dir,
                every=self.config.checkpoint_every or 1,
                telemetry=self.telemetry,
            )
        elif policy is not None:
            self.checkpoint_manager = manager_for_label(
                policy,
                label,
                every=self.config.checkpoint_every,
                telemetry=self.telemetry,
            )

    # ------------------------------------------------------------------ plumbing
    def _group_runner(self) -> GroupRunner:
        """The round-invariant half of a group round, bound to this
        trainer's current state (hand a new one to
        :meth:`GroupExecutor.refresh` whenever that state is rebound)."""
        return GroupRunner(
            model_fn=self.model_fn,
            config=self.config,
            strategy=self.strategy,
            secure_aggregator=self.secure_aggregator,
            backdoor_detector=self.backdoor_detector,
            dropout_aggregator=self.dropout_aggregator,
            compressor=self.compressor,
            attackers=self.attackers,
            fault_plan=self.fault_plan,
            population=self.fed,
            telemetry=self.telemetry,
        )

    def close(self) -> None:
        """Release the parallel pool (shut down if owned). Idempotent."""
        self.executor.close()

    def __enter__(self) -> "GroupFELTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _effective_cost_model(self) -> CostModel:
        """Fold the strategy's compute/payload factors into the cost model."""
        cm = self.cost_model
        t = cm.training
        g = cm.group_op
        tf = self.strategy.training_factor
        pf = self.strategy.payload_factor
        if tf == 1.0 and pf == 1:
            return cm
        return CostModel(
            training=LinearCost(c0=t.c0 * tf, c1=t.c1 * tf),
            group_op=QuadraticCost(c0=g.c0 * pf, c1=g.c1 * pf, c2=g.c2 * pf),
            name=f"{cm.name}×{self.strategy.name}",
        )

    def _make_sampler(self, rng: np.random.Generator | None = None) -> GroupSampler:
        """The config's sampler over the groups; ``rng`` (a checkpoint's
        restored stream) defaults to a fresh child of the trainer's."""
        return GroupSampler(
            self.groups,
            method=self.config.sampling_method,
            num_sampled=min(self.config.num_sampled, len(self.groups)),
            mode=self.config.aggregation_mode,
            min_prob=self.config.min_prob,
            rng=self.rng.spawn(1)[0] if rng is None else rng,
            telemetry=self.telemetry,
            scheme=self.config.sampling_scheme,
        )

    @property
    def population_trace(self) -> PopulationTrace:
        """Every population event so far (empty for a static population);
        see ``PopulationTrace.signature`` for the replay fingerprint."""
        if self.population_engine is not None:
            return self.population_engine.trace
        return PopulationTrace()

    def _regroup(self) -> None:
        """A round's last stage: every ``regroup_every`` rounds, re-run group
        formation (random seeds make new groupings differ)."""
        every = self.config.regroup_every
        if not every or self.round_idx % every:
            return
        assert self.grouper is not None and self.edge_assignment is not None
        if self.population_engine is not None:
            # Regroup only the *active* population — the full-pool path
            # below would resurrect departed clients.
            self.population_engine.force_repartition(self.round_idx)
            self.groups = self.population_engine.groups
        else:
            self.groups = group_clients_per_edge(
                self.grouper, self.fed.L, self.edge_assignment,
                rng=self.rng.spawn(1)[0],
            )
        self.sampler = self._make_sampler()
        self._on_groups_changed()

    # ------------------------------------------------------------------ faults
    def _apply_group_failures(
        self, selected: list[Group], weights: np.ndarray
    ) -> tuple[list[Group], np.ndarray, list[FaultEvent]]:
        """Drop whole groups per the fault plan, with graceful degradation.

        Surviving weights are renormalized to preserve the original total
        mass — for biased/stabilized weights (which sum to 1) this is the
        Eq. (35) renormalization over survivors; for unbiased weights it
        keeps the estimator's scale while redistributing the failed
        groups' share. At least one group always survives (the one with
        the largest survival margin, deterministically).
        """
        plan = self.fault_plan
        draws = np.array(
            [plan.group_failure_draw(self.round_idx, g.group_id) for g in selected]
        )
        alive = draws >= 0.0
        if not alive.any():
            alive[int(np.argmax(draws))] = True
        if alive.all():
            return selected, weights, []
        events = [
            FaultEvent("group_failure", self.round_idx, g.group_id)
            for g, a in zip(selected, alive) if not a
        ]
        survivors = [g for g, a in zip(selected, alive) if a]
        weights = weights[alive] * (weights.sum() / weights[alive].sum())
        return survivors, weights, events

    def _meter_faults(self, events: list[FaultEvent]) -> None:
        """Record one round's fault events: the trace, telemetry and, under
        a fault plan, the ledger's and history's per-round overhead series."""
        self.fault_trace.extend(events)
        delay = 0.0
        tel = self.telemetry
        for e in events:
            delay += e.delay_s
            if not tel.enabled:
                continue
            if e.kind == "secagg_recovery":
                tel.inc("secagg.reconstructions", float(e.retries))
                continue
            tel.inc("faults.injected")
            tel.inc(f"faults.{e.kind}")
            if e.retries:
                tel.observe("faults.retries", float(e.retries))
            if e.delay_s:
                tel.observe("faults.delay_s", e.delay_s)
        if self.fault_plan is not None:
            self.ledger.record_fault_overhead(delay, len(events))
            self.history.extra["fault_delay_s"].append(delay)

    # ------------------------------------------------------------------ stages
    def _select(self) -> tuple[list[Group], np.ndarray]:
        """S_t and its aggregation weights: the sampler's draw (Line 7)."""
        with self.telemetry.span("sample"):
            return self.sampler.sample()

    def _route(self, selected: list[Group]) -> list[int]:
        """The index into :meth:`_models` each selected group trains from."""
        return [0] * len(selected)

    def _models(self) -> tuple[list[np.ndarray], list[float]]:
        """The models a round trains, with their evaluation masses (sum 1)."""
        return [self.global_params], [1.0]

    def _adopt(self, models: list[np.ndarray]) -> None:
        """Install the round's aggregates, one per :meth:`_models` entry."""
        self.global_params = models[0]

    def _train(
        self, selected: list[Group], weights: np.ndarray, round_events: list
    ) -> None:
        """Train each selected group from the model its route names, then
        fold each model's groups back into it, models in index order: the
        Eq. (4) aggregate for one model, a normalized mean per model for
        several (clusters). The executor copies results out per call, so
        several dispatches per round never alias."""
        tel = self.telemetry
        models, _ = self._models()
        routes = self._route(selected)
        group_rngs = self.rng.spawn(len(selected))
        unbiased = self.config.aggregation_mode is AggregationMode.UNBIASED
        for m in sorted(set(routes)):
            idx = [i for i, r in enumerate(routes) if r == m]
            results = self.executor.execute(
                [selected[i] for i in idx], [group_rngs[i] for i in idx],
                models[m], self.round_idx,
            )
            stacked = np.vstack([params for params, _ in results])
            for _, events in results:
                round_events.extend(events)
            with tel.span("cloud_aggregate", model=m, num_groups=len(idx)):
                models[m] = weighted_average(
                    stacked, weights[idx], normalize=len(models) > 1 or not unbiased
                )
            if tel.enabled:
                tel.inc("cloud_bytes_aggregated", float(stacked.nbytes))
                tel.inc("cloud_params_averaged", float(stacked.size))
        self._adopt(models)

    def _on_groups_changed(self) -> None:
        """Hook: the group partition was rebuilt (population churn or a
        scheduled regroup). Clustered trainers refresh cluster
        assignments here; the base trainer needs nothing."""

    # ----------------------------------------------------- subclass checkpoints
    def extra_state_dict(self) -> dict | None:
        """Subclass-owned evolving state to fold into checkpoints (cluster
        centers, assignments, ...). ``None`` means nothing extra."""
        return None

    def load_extra_state_dict(self, state: dict | None) -> None:
        """Restore what :meth:`extra_state_dict` captured. The base trainer
        has no extra state, so a truthy payload means the checkpoint came
        from a different trainer class."""
        if state:
            raise ValueError(
                f"checkpoint carries extra trainer state {sorted(state)} but "
                f"{type(self).__name__} does not define load_extra_state_dict"
            )

    def train_round(self) -> float:
        """Execute one global round (Lines 6–15); returns its cost.

        The only round loop: population step → select → group failures →
        spawn RNGs → train per start model → meter faults →
        ``strategy.after_global_round`` → charge → wall clock → regroup.
        Clustered trainers substitute stages (:meth:`_select`,
        :meth:`_route`, :meth:`_models` / :meth:`_adopt`, :meth:`_regroup`),
        never the sequence.
        """
        tel = self.telemetry
        with tel.span("round", index=self.round_idx):
            if self.population_engine is not None:
                with tel.span("population", index=self.round_idx):
                    pop_step = self.population_engine.step(self.round_idx)
                if pop_step.groups_changed:
                    # Membership or counts changed: sampling probabilities
                    # and the Eq. (4) weights are pure functions of the
                    # groups, so rebuild the sampler — and only then.
                    self.groups = self.population_engine.groups
                    self.sampler = self._make_sampler()
                    self._on_groups_changed()
                if pop_step.data_changed:
                    # Drift mutated the store; process workers hold copies.
                    self.executor.refresh(self._group_runner())
                self.history.extra["population_active"].append(
                    self.population_engine.num_active
                )
            selected, weights = self._select()
            round_events: list[FaultEvent] = []
            if self.fault_plan is not None:
                selected, weights, round_events = self._apply_group_failures(
                    selected, weights
                )
            self.sampled_history.append(selected)
            # The pipeline thread later parents this round's deferred
            # evaluation under this round's span, keeping the span tree
            # per-round under overlap.
            self._last_round_span_id = tel.current_span_id()
            self._train(selected, weights, round_events)
            self._meter_faults(round_events)
            self.strategy.after_global_round()
            cost = self.ledger.charge_round(
                selected, self.config.group_rounds, self.config.local_rounds
            )
            if self.wallclock is not None:
                delays: dict = {}
                for e in round_events:
                    if e.delay_s:
                        delays[e.group_id] = delays.get(e.group_id, 0.0) + e.delay_s
                timing = self.wallclock.round_timing(
                    selected,
                    self.ledger.client_sizes,
                    self.config.group_rounds,
                    self.config.local_rounds,
                    extra_group_delay_s=delays,
                )
                self.history.extra["wall_clock_s"].append(timing.total_s)
            self.round_idx += 1
            self._regroup()
        return cost

    def evaluate(
        self, snapshot: tuple | None = None, model: Model | None = None
    ) -> tuple[float, float]:
        """(loss, accuracy) on the global test set: the mass-weighted blend
        of a :meth:`_models` pair (``snapshot``, default the present one)
        scored on ``model`` (default :attr:`model`)."""
        models, masses = snapshot if snapshot is not None else self._models()
        model = model if model is not None else self.model
        loss = acc = 0.0
        for params, mass in zip(models, masses):
            if mass:
                model.set_params(params)
                l, a = model.evaluate(self.fed.test.x, self.fed.test.y)
                loss += mass * l
                acc += mass * a
        return loss, acc

    # ------------------------------------------------------------ checkpointing
    def save_checkpoint(
        self,
        path: str | os.PathLike | None = None,
        state: dict | None = None,
        parent_id: int | None = None,
    ) -> str:
        """Atomically write complete trainer state; returns the file path.

        With ``path`` the checkpoint goes exactly there; without it, the
        configured :class:`repro.checkpoint.CheckpointManager` stamps the
        file by round under its directory. Either way the write is
        temp-then-rename atomic, and ``checkpoint.saves`` /
        ``checkpoint.bytes`` are recorded when telemetry is enabled.
        ``state`` is a :func:`repro.checkpoint.capture_state` snapshot from
        an earlier round boundary (a pipelined :meth:`run` defers only the
        write, its span parented under ``parent_id``); default: now.
        """
        tel = self.telemetry
        pipelined = state is not None
        round_idx = state["round_idx"] if pipelined else self.round_idx
        meta = {
            "label": self.label,
            "round_idx": round_idx,
            "config": config_fingerprint(self.config, grouper=self.grouper),
        }
        with tel.span(
            "checkpoint_save", parent_id=parent_id, round=round_idx, pipelined=pipelined
        ):
            state = state if pipelined else capture_state(self)
            if path is not None:
                nbytes = write_checkpoint(path, state, meta=meta)
                if tel.enabled:
                    tel.inc("checkpoint.saves")
                    tel.inc("checkpoint.bytes", float(nbytes))
                return os.fspath(path)
            if self.checkpoint_manager is None:
                raise ValueError(
                    "save_checkpoint() needs a path when the trainer has no "
                    "checkpoint_dir (and its run context no checkpoint policy)"
                )
            return self.checkpoint_manager.save(state, round_idx, meta=meta)

    def load_checkpoint(
        self, path: str | os.PathLike, strict: bool = True
    ) -> "GroupFELTrainer":
        """Resume from a checkpoint file (or the latest in a directory).

        Restores every piece of evolving state — model, RNG streams
        (including spawn counters), strategy state, history, ledger, fault
        trace, sampler — so continuing :meth:`run` reproduces the
        uninterrupted run bit for bit on any backend, whichever backend
        wrote the checkpoint.

        With ``strict`` (default) the checkpoint's recorded config
        fingerprint must match this trainer's config in every field that
        can change a result (see :func:`repro.checkpoint.config_fingerprint`).
        """
        self._auto_resume = False
        path = os.fspath(path)
        if os.path.isdir(path):
            latest = CheckpointManager(path).latest()
            if latest is None:
                raise FileNotFoundError(f"no checkpoints under {path!r}")
            path = latest
        tel = self.telemetry
        with tel.span("resume", path=path):
            header, state = read_checkpoint(path)
            if strict:
                saved = header.get("config")
                current = config_fingerprint(self.config, grouper=self.grouper)
                # Compared on this trainer's fingerprint keys: names only the
                # checkpoint carries are execution-only or retired fields.
                diverged = sorted(
                    k for k in current if saved and saved.get(k) != current[k]
                )
                if diverged:
                    raise CheckpointError(
                        f"checkpoint {path!r} was written under a different "
                        f"config (fields {diverged}); resuming it would break "
                        "deterministic replay — pass strict=False to override"
                    )
            restore_state(self, state)
            # The restore replaced strategy/compressor/fault state; the
            # runner (and the copy pool workers hold) must follow or groups
            # would train against the pre-crash state.
            self.executor.refresh(self._group_runner())
        return self

    def _record_checkpoint(
        self, budget, round_idx, cost, snapshot=None, final=False, parent_id=None
    ) -> None:
        """Evaluate and record — unless the point would land past the budget.

        The paper's evaluations compare accuracy reached *within* a fixed
        budget (§7.2), so the accuracy-vs-cost curve must never report a
        point whose cumulative cost exceeds it. The round that crosses the
        budget still trains (its cost stays in the ledger and is surfaced
        via ``history.extra["budget_overshoot"]``), but its checkpoint is
        not recorded. Degenerate case: if the very first round overshoots,
        the final checkpoint is recorded with the cost clamped to the
        budget (flagged as ``budget_clamped``) so the curve is non-empty.

        ``round_idx``, ``cost`` and the :meth:`_models` ``snapshot`` are the
        round boundary's, so the pipeline thread records later (on its own
        model, span parented under ``parent_id``) what runs inline here.
        """
        if budget is not None and cost > budget:
            if not (final and not self.history.rounds):
                return
            cost = budget
            self.history.extra["budget_clamped"] = True
        with self.telemetry.span(
            "evaluate", parent_id=parent_id, round=round_idx,
            pipelined=self._pipeline is not None,
        ):
            loss, acc = self.evaluate(snapshot, self._eval_model)
        self.history.record(round_idx, cost, acc, loss)

    # ------------------------------------------------------------ pipelining
    def _defer(self, work, *args) -> None:
        """Round-boundary work (a history record, a checkpoint write): run
        inline on the synchronous schedule; pipelined, queued FIFO on the
        background thread with the finished round's span id as parent."""
        if self._pipeline is None:
            return work(*args)
        future = self._pipeline.submit(work, *args, parent_id=self._last_round_span_id)
        self._pipeline_pending.append(future)

    def _drain_pipeline(self) -> None:
        """Join all in-flight pipeline work, re-raising its exceptions."""
        pending, self._pipeline_pending = self._pipeline_pending, []
        for future in pending:
            future.result()

    def run(
        self,
        max_rounds: int | None = None,
        cost_budget: float | None = None,
    ) -> TrainingHistory:
        """Train until the round limit, cost budget, or a callback stops.

        When a cost budget is active and the final round overshoots it,
        ``history.extra`` carries ``budget_exhausted`` (True) and
        ``budget_overshoot`` (how far past the budget the ledger ran); the
        overshooting checkpoint itself is not recorded, so accuracy-vs-cost
        curves end within the budget.

        With a checkpoint directory configured (``checkpoint_dir=`` or the
        run context's policy), complete trainer state is saved atomically
        every ``config.checkpoint_every`` rounds — a crashed run resumes from
        the last boundary via :meth:`load_checkpoint` with bit-identical
        curves. Under a policy with ``resume``, the first call starts by
        loading the latest checkpoint under its label, if there is one.
        """
        if self._auto_resume:
            self._auto_resume = False
            latest = self.checkpoint_manager.latest()
            if latest is not None:
                self.load_checkpoint(latest)
        max_rounds = max_rounds if max_rounds is not None else self.config.max_rounds
        budget = cost_budget if cost_budget is not None else self.config.cost_budget
        for cb in self.callbacks:
            cb.on_train_start(self)
        # Pipelined rounds: round t's evaluation and checkpoint file write
        # run on this single background thread while round t+1's group
        # compute proceeds on the main thread. One worker keeps the deferred
        # work FIFO, so history points land in round order and curves are
        # bit-identical to the synchronous schedule, which runs the same
        # work inline.
        if self.config.pipeline_rounds:
            self._pipeline = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-pipeline"
            )
        try:
            stopped = False
            while self.round_idx < max_rounds and not stopped:
                if budget is not None and self.ledger.total >= budget:
                    break
                self.train_round()
                if (
                    self.round_idx % self.config.eval_every == 0
                    or self.round_idx >= max_rounds
                ):
                    # Snapshot the round boundary now; the next round
                    # rebinds the models and charges the ledger.
                    self._defer(
                        self._record_checkpoint,
                        budget, self.round_idx, self.ledger.total, self._models(),
                    )
                if (
                    self.checkpoint_manager is not None
                    and self.checkpoint_manager.should_save(self.round_idx)
                ):
                    # A deferred history record belongs in this checkpoint
                    # (the synchronous schedule records before saving), so
                    # join it first. State capture cannot overlap training:
                    # pipelined, only the atomic file write is deferred.
                    self._drain_pipeline()
                    state = None if self._pipeline is None else capture_state(self)
                    self._defer(self.save_checkpoint, None, state)
                if self.callbacks:
                    # Callbacks observe the trainer (history included); give
                    # them the fully-recorded state the serial path would.
                    self._drain_pipeline()
                for cb in self.callbacks:
                    if cb.on_round_end(self, self.round_idx):
                        stopped = True
            self._drain_pipeline()
        finally:
            if self._pipeline is not None:
                # An exceptional exit drops what the worker left unjoined
                # rather than mask the exception already in flight.
                self._pipeline.shutdown(wait=True)
                self._pipeline = None
                self._pipeline_pending = []
        if budget is not None and self.ledger.total >= budget:
            self.history.extra["budget_exhausted"] = True
            self.history.extra["budget_overshoot"] = max(
                0.0, self.ledger.total - budget
            )
        if not self.history.rounds or self.history.rounds[-1] != self.round_idx:
            self._record_checkpoint(
                budget, self.round_idx, self.ledger.total, final=True
            )
        if (
            self.checkpoint_manager is not None
            and self.checkpoint_manager.last_saved_round != self.round_idx
        ):
            # Off-cadence final round: persist it anyway so a later resume
            # can extend the run from its true end state.
            self.save_checkpoint()
        for cb in self.callbacks:
            cb.on_train_end(self)
        return self.history
