"""`FaultPlan` — seeded, composable fault schedules with pure decisions.

Every decision ("does client c drop in group g, group-round k of global
round t?") is computed by deriving a dedicated RNG from the plan seed and
the stable identifiers of the site::

    rng = make_rng(derive_seed(seed, kind, round, group_id, k, client_id))

so decisions are pure functions of *where* they are asked, never of *when*
or *in which order*. That single property buys all three hard guarantees:

* **deterministic replay** — same seed ⇒ same fault trace, bit for bit;
* **backend independence** — serial / thread / process executors ask in
  different orders and from different workers, and still get identical
  answers;
* **composability** — injectors draw from disjoint streams, so adding a
  straggler injector does not reshuffle the dropout schedule.

A plan is picklable (seed + frozen injector dataclasses), so it crosses
process-pool boundaries intact.

Spec grammar (the CLI's ``--faults`` flag)
------------------------------------------
Comma-separated ``name:prob[:param][@phase]`` terms::

    dropout:0.2            20% per-client dropout after local steps
    dropout:0.1@mid        10% dropout mid-training (compute burned)
    straggler:0.3:2.5      30% of uploads straggle by ~2.5 s
    loss:0.15              15% uplink message loss (default retry policy)
    groupfail:0.05         5% whole-group failure per round

e.g. ``--faults dropout:0.2,straggler:0.1:2.0,groupfail:0.05``. The CLI
hands the parsed plan to every trainer as ``RunContext(faults=plan)`` (see
:mod:`repro.context`); a trainer whose ``TrainerConfig.faults`` is set
keeps its own.
"""

from __future__ import annotations

from repro.faults.injectors import (
    ClientDropout,
    GroupFailure,
    Injector,
    MessageLoss,
    RetryPolicy,
    Straggler,
)
from repro.rng import derive_seed, make_rng

__all__ = [
    "FaultPlan",
    "UplinkOutcome",
]


class UplinkOutcome:
    """Result of one client upload through a lossy, retrying uplink."""

    __slots__ = ("delivered", "retries", "delay_s")

    def __init__(self, delivered: bool, retries: int, delay_s: float):
        self.delivered = delivered
        self.retries = retries
        self.delay_s = delay_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"UplinkOutcome(delivered={self.delivered}, retries={self.retries}, "
            f"delay_s={self.delay_s:.3f})"
        )


class FaultPlan:
    """A seeded bundle of fault injectors applied across a training run.

    Parameters
    ----------
    seed:
        Root seed of the fault schedule — independent of the trainer's seed
        so the *same* faults can be replayed against different training
        randomness (and vice versa).
    injectors:
        Any mix of :class:`ClientDropout`, :class:`Straggler`,
        :class:`MessageLoss`, :class:`GroupFailure`. Multiple injectors of
        the same kind compose (e.g. a ``before`` and an ``after`` dropout).
    """

    def __init__(self, seed: int = 0, injectors: list[Injector] | tuple = ()):
        self.seed = int(seed)
        self.injectors = list(injectors)
        for inj in self.injectors:
            if not isinstance(inj, Injector):
                raise TypeError(f"not an Injector: {inj!r}")

    # ------------------------------------------------------------- inspection
    def of_kind(self, kind: str) -> list[Injector]:
        return [i for i in self.injectors if i.kind == kind]

    @property
    def has_dropout(self) -> bool:
        return bool(self.of_kind("dropout"))

    @property
    def has_message_loss(self) -> bool:
        return bool(self.of_kind("message_loss"))

    def __bool__(self) -> bool:
        return bool(self.injectors)

    def __repr__(self) -> str:
        return f"FaultPlan(seed={self.seed}, injectors={self.injectors!r})"

    # -------------------------------------------------------------- decisions
    def _draw(self, kind: str, index: int, *key: int) -> float:
        """Uniform [0,1) draw unique to (injector, site) — the pure core."""
        return float(
            make_rng(derive_seed(self.seed, kind, index, *key)).random()
        )

    def _rng(self, kind: str, index: int, *key: int):
        return make_rng(derive_seed(self.seed, kind, index, *key))

    def client_dropout(
        self, round_idx: int, group_id: int, k: int, client_id: int
    ) -> str | None:
        """Dropout phase striking this client this group round, or None.

        When several dropout injectors fire at once, the earliest phase
        wins (a device that dies before training cannot also die after).
        """
        struck: list[str] = []
        for idx, inj in enumerate(self.injectors):
            if inj.kind != "dropout" or not inj.active(round_idx):
                continue
            if self._draw("dropout", idx, round_idx, group_id, k, client_id) < inj.prob:
                struck.append(inj.phase)
        if not struck:
            return None
        order = {"before": 0, "mid": 1, "after": 2}
        return min(struck, key=order.__getitem__)

    def straggler_delay(
        self, round_idx: int, group_id: int, k: int, client_id: int
    ) -> float:
        """Total straggler delay (seconds) for this client this group round."""
        delay = 0.0
        for idx, inj in enumerate(self.injectors):
            if inj.kind != "straggler" or not inj.active(round_idx):
                continue
            rng = self._rng("straggler", idx, round_idx, group_id, k, client_id)
            if rng.random() < inj.prob:
                delay += inj.draw_delay(rng)
        return delay

    def uplink(
        self, round_idx: int, group_id: int, k: int, client_id: int
    ) -> UplinkOutcome:
        """Simulate this client's upload through every message-loss injector.

        Each injector runs its own attempt/retry loop; the upload is
        delivered only if it survives all of them. Retry counts and
        timeout/backoff delays accumulate across injectors.
        """
        delivered = True
        retries = 0
        delay = 0.0
        for idx, inj in enumerate(self.injectors):
            if inj.kind != "message_loss" or not inj.active(round_idx):
                continue
            rng = self._rng("message_loss", idx, round_idx, group_id, k, client_id)
            ok = False
            for attempt in range(inj.retry.max_retries + 1):
                if rng.random() >= inj.prob:
                    ok = True
                    break
                delay += inj.retry.attempt_delay_s(attempt)
                if attempt < inj.retry.max_retries:
                    retries += 1
            if not ok:
                delivered = False
        return UplinkOutcome(delivered, retries, delay)

    def group_failure_draw(self, round_idx: int, group_id: int) -> float:
        """Smallest survival draw over the group-failure injectors.

        The group fails iff this draw is below the (largest applicable)
        failure probability — exposed as a draw, not a bool, so the trainer
        can deterministically spare the most-surviving group when every
        sampled group would fail.
        """
        worst = 1.0
        for idx, inj in enumerate(self.injectors):
            if inj.kind != "group_failure" or not inj.active(round_idx):
                continue
            d = self._draw("group_failure", idx, round_idx, group_id)
            # Normalize each injector's draw to a survival margin: how far
            # above its own threshold the draw landed (negative = failed).
            worst = min(worst, d - inj.prob)
        return worst

    def group_failed(self, round_idx: int, group_id: int) -> bool:
        return self.group_failure_draw(round_idx, group_id) < 0.0

    # ------------------------------------------------------------------ spec
    #: spec grammar arity: term name → max ``:``-separated values
    _SPEC_ARITY = {
        "dropout": 1,
        "straggler": 2,
        "loss": 2,
        "msgloss": 2,
        "groupfail": 1,
        "group": 1,
    }

    @classmethod
    def from_spec(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Parse the CLI grammar (see module docstring) into a plan.

        Fail-fast: every malformed term — missing or non-numeric
        probability, unknown kind, surplus fields, out-of-range rates, a
        ``@phase`` on anything but ``dropout`` — raises a ``ValueError``
        naming the offending token, so a typo in a long comma-separated
        spec is pinpointed instead of silently ignored.
        """
        injectors: list[Injector] = []
        for raw in spec.split(","):
            term = raw.strip()
            if not term:
                continue
            phase = None
            if "@" in term:
                term, phase = term.rsplit("@", 1)
            parts = term.split(":")
            name = parts[0].lower()
            if name not in cls._SPEC_ARITY:
                raise ValueError(
                    f"unknown fault kind {name!r} in term {raw!r}; known: "
                    "dropout, straggler, loss, groupfail"
                )
            if len(parts) < 2:
                raise ValueError(
                    f"fault term {raw!r} needs a probability, e.g. 'dropout:0.2'"
                )
            if len(parts) - 1 > cls._SPEC_ARITY[name]:
                raise ValueError(
                    f"fault term {raw!r} has {len(parts) - 1} values; "
                    f"{name!r} takes at most {cls._SPEC_ARITY[name]}"
                )
            if phase is not None and name != "dropout":
                raise ValueError(
                    f"fault term {raw!r}: only dropout takes an @phase"
                )
            try:
                prob = float(parts[1])
            except ValueError:
                raise ValueError(f"bad probability in fault term {raw!r}") from None
            try:
                if name == "dropout":
                    injectors.append(ClientDropout(prob=prob, phase=phase or "after"))
                elif name == "straggler":
                    delay = float(parts[2]) if len(parts) > 2 else 1.0
                    injectors.append(Straggler(prob=prob, delay_s=delay))
                elif name in ("loss", "msgloss"):
                    retry = (
                        RetryPolicy(max_retries=int(parts[2]))
                        if len(parts) > 2
                        else RetryPolicy()
                    )
                    injectors.append(MessageLoss(prob=prob, retry=retry))
                else:  # groupfail / group
                    injectors.append(GroupFailure(prob=prob))
            except ValueError as exc:
                # Injector range validation (prob/delay/retries) — point at
                # the term, keep the dataclass's precise reason.
                raise ValueError(f"bad fault term {raw!r}: {exc}") from None
        if not injectors:
            raise ValueError(f"fault spec {spec!r} defines no injectors")
        return cls(seed=seed, injectors=injectors)
