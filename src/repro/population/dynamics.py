"""`PopulationModel` — seeded churn and label-drift schedules, pure decisions.

The dynamic-population twin of :class:`repro.faults.FaultPlan`: every
decision ("does client c leave in round t?", "which samples does drift
relabel?") is computed by deriving a dedicated RNG from the model seed and
the stable identifiers of the site::

    rng = make_rng(derive_seed(seed, kind, index, round, client_id))

so decisions are pure functions of *where* they are asked, never of *when*
or *in which order*. That buys deterministic replay (same seed ⇒ same
population trace, bit for bit), backend independence (serial / thread /
process trainers see identical populations), and composability (each
dynamic draws from a disjoint stream).

A model is picklable (seed + frozen dynamic dataclasses); the correlated-
drift memo cache is process-local and dropped on pickle — it is a pure
function of the seed and rebuilds identically anywhere.

Spec grammar (the CLI's ``--population`` flag)
----------------------------------------------
Comma-separated ``name:value[:param...][@mode]`` terms::

    start:0.6                  60% of the client pool is active at round 0
    join:1.5                   ~Poisson(1.5) dormant clients join per round
    leave:0.02                 2% per-client departure chance per round
    drift:0.1                  step drift: 10%/round chance a client
                               relabels 50% of its samples
    drift:0.1:0.3              ... relabeling 30% of its samples
    drift:0.05@linear          every round relabel 5% of samples by a
                               fixed class rotation (slow drift)
    drift:0.05:0.3:0.9@corr    correlated episodes: enter drift w.p. 0.05,
                               persist w.p. 0.9, relabel 30%/round inside
    corrupt:1.0                continual test-time corruption: every round
                               each client's features are re-noised at a
                               severity from its streaming schedule
    corrupt:1.0:5:3            ... severities 1..5, advancing every 3 rounds
    corrupt:0.5:4:2@ramp       fire w.p. 0.5/round; severity ramps 1→4 and
                               saturates (default @cycle wraps around)

e.g. ``--population start:0.7,join:1.0,leave:0.03,drift:0.1:0.4``. The
CLI hands the parsed model to every trainer as
``RunContext(population=model)`` (see :mod:`repro.context`); a trainer
whose ``TrainerConfig.population`` is set keeps its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rng import derive_seed, derive_seeds, first_uniform, make_rng

__all__ = [
    "InitialActive",
    "Arrivals",
    "Departures",
    "LabelDrift",
    "FeatureCorruption",
    "PopulationModel",
    "DRIFT_MODES",
    "CORRUPTION_MODES",
]

DRIFT_MODES = ("step", "linear", "corr")
CORRUPTION_MODES = ("cycle", "ramp")


@dataclass(frozen=True)
class InitialActive:
    """``start:frac`` — the seeded fraction of the pool active at round 0."""

    frac: float
    kind = "start"

    def __post_init__(self) -> None:
        if not 0.0 < self.frac <= 1.0:
            raise ValueError(f"start fraction must be in (0, 1], got {self.frac}")


@dataclass(frozen=True)
class Arrivals:
    """``join:rate`` — Poisson(rate) dormant clients join per round."""

    rate: float
    kind = "join"

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ValueError(f"join rate must be >= 0, got {self.rate}")


@dataclass(frozen=True)
class Departures:
    """``leave:prob`` — per-client, per-round departure probability."""

    prob: float
    kind = "leave"

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob < 1.0:
            raise ValueError(f"leave prob must be in [0, 1), got {self.prob}")


@dataclass(frozen=True)
class LabelDrift:
    """``drift:prob[:fraction][:rho][@mode]`` — label-distribution drift.

    ``step`` (default): with probability ``prob`` per round, relabel
    ``fraction`` of the client's samples by a random class rotation.
    ``linear``: every round, relabel ``prob`` of the samples (slow
    continuous rotation; ``fraction``/``rho`` unused).
    ``corr``: a 2-state Markov chain per client — enter a drift episode
    w.p. ``prob``, persist w.p. ``rho``; while inside, relabel
    ``fraction``/round (FedCTTA-style temporally correlated shift).
    """

    prob: float
    fraction: float = 0.5
    rho: float = 0.8
    mode: str = "step"
    kind = "drift"

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"drift prob must be in [0, 1], got {self.prob}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(
                f"drift fraction must be in (0, 1], got {self.fraction}"
            )
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"drift rho must be in [0, 1], got {self.rho}")
        if self.mode not in DRIFT_MODES:
            raise ValueError(
                f"drift mode must be one of {DRIFT_MODES}, got {self.mode!r}"
            )


@dataclass(frozen=True)
class FeatureCorruption:
    """``corrupt:prob[:severities][:period][@mode]`` — continual test-time
    feature corruption (the FedCTTA scenario).

    Each client walks its own severity schedule — a seeded per-client
    *phase* staggers the stream so clients sit at different severities in
    the same round, which is what stresses grouping under non-stationarity.
    With probability ``prob`` per round, the client's features are
    re-noised *from pristine* with seeded Gaussian noise of standard
    deviation ``scale * severity``, severity in ``1..severities``:

    ``cycle`` (default): severity steps every ``period`` rounds and wraps
    around (the CIFAR-C-style repeating corruption stream).
    ``ramp``: severity steps every ``period`` rounds and saturates at
    ``severities`` (monotone degradation).
    """

    prob: float
    severities: int = 5
    period: int = 5
    mode: str = "cycle"
    scale: float = 0.25
    kind = "corrupt"

    def __post_init__(self) -> None:
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"corrupt prob must be in [0, 1], got {self.prob}")
        if self.severities < 1:
            raise ValueError(
                f"corrupt severities must be >= 1, got {self.severities}"
            )
        if self.period < 1:
            raise ValueError(f"corrupt period must be >= 1, got {self.period}")
        if self.mode not in CORRUPTION_MODES:
            raise ValueError(
                f"corrupt mode must be one of {CORRUPTION_MODES}, got {self.mode!r}"
            )
        if self.scale <= 0:
            raise ValueError(f"corrupt scale must be > 0, got {self.scale}")


_DYNAMIC_TYPES = (InitialActive, Arrivals, Departures, LabelDrift, FeatureCorruption)


class PopulationModel:
    """A seeded bundle of population dynamics applied across a run.

    Parameters
    ----------
    seed:
        Root seed of the population schedule — independent of the
        trainer's seed so the *same* population can be replayed against
        different training randomness (and vice versa).
    dynamics:
        Any mix of :class:`InitialActive`, :class:`Arrivals`,
        :class:`Departures`, :class:`LabelDrift`. Multiple dynamics of
        the same kind compose (arrival rates add, departure/drift
        chances apply independently).
    """

    def __init__(self, seed: int = 0, dynamics: list | tuple = ()):
        self.seed = int(seed)
        self.dynamics = list(dynamics)
        for dyn in self.dynamics:
            if not isinstance(dyn, _DYNAMIC_TYPES):
                raise TypeError(f"not a population dynamic: {dyn!r}")
        #: memo of correlated-drift chain states, keyed (index, client);
        #: process-local (a pure function of the seed — see __getstate__)
        self._corr_cache: dict[tuple[int, int], list[bool]] = {}

    # ------------------------------------------------------------- inspection
    def of_kind(self, kind: str) -> list:
        return [d for d in self.dynamics if d.kind == kind]

    @property
    def has_churn(self) -> bool:
        return bool(self.of_kind("join") or self.of_kind("leave"))

    @property
    def has_drift(self) -> bool:
        return bool(self.of_kind("drift"))

    @property
    def has_corruption(self) -> bool:
        return bool(self.of_kind("corrupt"))

    def __bool__(self) -> bool:
        return bool(self.dynamics)

    def __repr__(self) -> str:
        return f"PopulationModel(seed={self.seed}, dynamics={self.dynamics!r})"

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_corr_cache"] = {}  # rebuilds identically from the seed
        return state

    # -------------------------------------------------------------- decisions
    def _rng(self, kind: str, index: int, *key: int) -> np.random.Generator:
        """RNG unique to (dynamic, site) — the pure core."""
        return make_rng(derive_seed(self.seed, kind, index, *key))

    def _draws(
        self, kind: str, index: int, round_idx: int, client_ids: np.ndarray
    ) -> np.ndarray:
        """``_rng(kind, index, round, c).random()`` for every client id, in
        one vectorized pass (bit-identical; see :func:`repro.rng.derive_seeds`)."""
        ids = np.asarray(client_ids, dtype=np.int64)
        return first_uniform(derive_seeds(self.seed, kind, index, round_idx, ids))

    def initial_active(self, pool_size: int) -> np.ndarray:
        """Boolean mask of the clients active at round 0 (≥ 1 active).

        When several ``start`` terms are given the smallest fraction
        wins (the most restrictive initial population).
        """
        starts = self.of_kind("start")
        mask = np.ones(pool_size, dtype=bool)
        if not starts or pool_size == 0:
            return mask
        frac = min(d.frac for d in starts)
        idx = next(i for i, d in enumerate(self.dynamics) if d.kind == "start")
        draws = self._rng("start", idx).random(pool_size)
        mask = draws < frac
        if not mask.any():
            mask[int(np.argmin(draws))] = True
        return mask

    def arrivals(self, round_idx: int) -> int:
        """How many dormant clients join this round (Poisson per dynamic)."""
        total = 0
        for idx, dyn in enumerate(self.dynamics):
            if dyn.kind != "join" or dyn.rate <= 0:
                continue
            total += int(self._rng("join", idx, round_idx).poisson(dyn.rate))
        return total

    def departing(self, round_idx: int, client_ids: np.ndarray) -> np.ndarray:
        """Which of these active clients leave at the start of this round
        (boolean mask over ``client_ids``)."""
        ids = np.asarray(client_ids, dtype=np.int64)
        leaving = np.zeros(ids.shape, dtype=bool)
        for idx, dyn in enumerate(self.dynamics):
            if dyn.kind == "leave":
                leaving |= self._draws("leave", idx, round_idx, ids) < dyn.prob
        return leaving

    def departs(self, round_idx: int, client_id: int) -> bool:
        """Does this active client leave at the start of this round?"""
        return bool(self.departing(round_idx, [client_id])[0])

    def drifting(
        self, round_idx: int, client_ids: np.ndarray
    ) -> list[tuple[int, LabelDrift, np.ndarray]]:
        """Per drift dynamic, which of these clients it strikes this round:
        ``(index, dynamic, boolean mask over client_ids)``."""
        ids = np.asarray(client_ids, dtype=np.int64)
        struck = []
        for idx, dyn in enumerate(self.dynamics):
            if dyn.kind != "drift":
                continue
            if dyn.mode == "linear":
                mask = np.full(ids.shape, dyn.prob > 0)
            elif dyn.mode == "corr":
                mask = self._corr_states(idx, dyn, round_idx, ids)
            else:  # step
                mask = self._draws("drift", idx, round_idx, ids) < dyn.prob
            struck.append((idx, dyn, mask))
        return struck

    def drift_decisions(self, round_idx: int, client_id: int) -> list[tuple[int, LabelDrift]]:
        """The drift dynamics striking this client this round."""
        return [
            (idx, dyn)
            for idx, dyn, mask in self.drifting(round_idx, [client_id])
            if mask[0]
        ]

    def _corr_states(
        self, idx: int, dyn: LabelDrift, round_idx: int, ids: np.ndarray
    ) -> np.ndarray:
        """2-state Markov chains, advanced from round 0 to ``round_idx``.

        Memoized per (dynamic, client) so a T-round run stays O(T); the
        cache is dropped on pickle and rebuilt identically anywhere
        because each transition draw is keyed by its own round. Clients
        first asked late (joiners) catch up from round 0, one batched draw
        per missing round.
        """
        chains = [self._corr_cache.setdefault((idx, int(c)), []) for c in ids]
        first_missing = min((len(chain) for chain in chains), default=round_idx + 1)
        for t in range(first_missing, round_idx + 1):
            due = [k for k, chain in enumerate(chains) if len(chain) == t]
            inside = np.array([t > 0 and chains[k][t - 1] for k in due], dtype=bool)
            hits = self._draws("drift-state", idx, t, ids[due]) < np.where(
                inside, dyn.rho, dyn.prob
            )
            for k, hit in zip(due, hits.tolist()):
                chains[k].append(hit)
        return np.array([chain[round_idx] for chain in chains], dtype=bool)

    def drift_sample(
        self,
        index: int,
        dyn: LabelDrift,
        round_idx: int,
        client_id: int,
        n_samples: int,
        num_classes: int,
    ) -> tuple[int, int, np.ndarray]:
        """The mutation a firing drift applies: (count, class offset, indices).

        Pure in (seed, index, round, client): checkpoint resume re-derives
        the exact same relabeling from the recorded event site. The
        expected relabel count ``x`` (``fraction``·n for step/corr,
        ``prob``·n for linear) is realized as ⌊x⌋ plus a Bernoulli(frac(x))
        extra sample, so small shards still drift at the configured rate.
        """
        rng = self._rng("drift-apply", index, round_idx, client_id)
        x = (dyn.prob if dyn.mode == "linear" else dyn.fraction) * n_samples
        num = int(x) + int(rng.random() < (x - int(x)))
        offset = int(rng.integers(1, num_classes)) if num_classes > 1 else 0
        if num <= 0 or offset == 0 or n_samples == 0:
            return 0, 0, np.empty(0, dtype=np.int64)
        indices = rng.choice(n_samples, size=min(num, n_samples), replace=False)
        return int(indices.size), offset, indices.astype(np.int64)

    # ------------------------------------------------------------- corruption
    def corrupting(
        self, round_idx: int, client_ids: np.ndarray
    ) -> list[tuple[int, FeatureCorruption, np.ndarray]]:
        """Per corruption dynamic, which of these clients it strikes this
        round: ``(index, dynamic, boolean mask over client_ids)``."""
        return [
            (idx, dyn, self._draws("corrupt", idx, round_idx, client_ids) < dyn.prob)
            for idx, dyn in enumerate(self.dynamics)
            if dyn.kind == "corrupt"
        ]

    def corruption_decisions(
        self, round_idx: int, client_id: int
    ) -> list[tuple[int, FeatureCorruption]]:
        """The corruption dynamics striking this client this round."""
        return [
            (idx, dyn)
            for idx, dyn, mask in self.corrupting(round_idx, [client_id])
            if mask[0]
        ]

    def corruption_severity(
        self,
        index: int,
        dyn: FeatureCorruption,
        round_idx: int,
        client_id: int,
    ) -> int:
        """This client's severity (1..severities) at this round.

        The stream position is ``round + phase`` where ``phase`` is a
        seeded per-client offset into the schedule — pure in (seed, index,
        client), so replay and resume re-derive the identical stream.
        """
        phase = int(
            self._rng("corrupt-phase", index, client_id).integers(
                0, dyn.severities * dyn.period
            )
        )
        t = round_idx + phase
        if dyn.mode == "ramp":
            return min(dyn.severities, t // dyn.period + 1)
        return (t // dyn.period) % dyn.severities + 1

    def corruption_noise(
        self,
        index: int,
        dyn: FeatureCorruption,
        round_idx: int,
        client_id: int,
        severity: int,
        shape: tuple,
    ) -> np.ndarray:
        """The additive feature noise a firing corruption applies — pure in
        (seed, index, round, client), so resume re-derives it exactly."""
        rng = self._rng("corrupt-apply", index, round_idx, client_id)
        return rng.normal(0.0, dyn.scale * severity, shape)

    # ------------------------------------------------------------------ spec
    #: spec grammar arity: term name → max ``:``-separated values
    _SPEC_ARITY = {"start": 1, "join": 1, "leave": 1, "drift": 3, "corrupt": 3}

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "PopulationModel":
        """Parse the CLI grammar (see module docstring) into a model.

        Fail-fast: malformed terms — missing or non-numeric values,
        unknown kinds, surplus fields, duplicated ``start`` terms, a
        ``@mode`` on anything but ``drift``, out-of-range rates — raise a
        ``ValueError`` naming the offending token. (Multiple ``join`` /
        ``leave`` / ``drift`` terms compose by design; two ``start`` terms
        would silently shadow each other, so those are rejected.)
        """
        dynamics: list = []
        seen_start = False
        for raw in spec.split(","):
            term = raw.strip()
            if not term:
                continue
            mode = None
            if "@" in term:
                term, mode = term.rsplit("@", 1)
            parts = term.split(":")
            name = parts[0].lower()
            if name not in cls._SPEC_ARITY:
                raise ValueError(
                    f"unknown population kind {name!r} in term {raw!r}; "
                    "known: start, join, leave, drift, corrupt"
                )
            if len(parts) < 2:
                raise ValueError(
                    f"population term {raw!r} needs a value, e.g. 'leave:0.02'"
                )
            if len(parts) - 1 > cls._SPEC_ARITY[name]:
                raise ValueError(
                    f"population term {raw!r} has {len(parts) - 1} values; "
                    f"{name!r} takes at most {cls._SPEC_ARITY[name]}"
                )
            try:
                value = float(parts[1])
            except ValueError:
                raise ValueError(f"bad value in population term {raw!r}") from None
            if mode is not None and name not in ("drift", "corrupt"):
                raise ValueError(
                    f"population term {raw!r}: only drift and corrupt take an @mode"
                )
            if name == "start":
                if seen_start:
                    raise ValueError(
                        f"duplicate 'start' in population term {raw!r}: the "
                        "initial active fraction may only be given once"
                    )
                seen_start = True
            try:
                if name == "start":
                    dynamics.append(InitialActive(frac=value))
                elif name == "join":
                    dynamics.append(Arrivals(rate=value))
                elif name == "leave":
                    dynamics.append(Departures(prob=value))
                elif name == "corrupt":
                    ckwargs: dict = {"prob": value, "mode": mode or "cycle"}
                    if len(parts) > 2:
                        ckwargs["severities"] = int(parts[2])
                    if len(parts) > 3:
                        ckwargs["period"] = int(parts[3])
                    dynamics.append(FeatureCorruption(**ckwargs))
                else:  # drift
                    kwargs: dict = {"prob": value, "mode": mode or "step"}
                    if len(parts) > 2:
                        kwargs["fraction"] = float(parts[2])
                    if len(parts) > 3:
                        kwargs["rho"] = float(parts[3])
                    dynamics.append(LabelDrift(**kwargs))
            except ValueError as exc:
                raise ValueError(f"bad population term {raw!r}: {exc}") from None
        if not dynamics:
            raise ValueError(f"population spec {spec!r} defines no dynamics")
        return cls(seed=seed, dynamics=dynamics)
