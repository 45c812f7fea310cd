"""First-class sampling schemes: how S_t is drawn from p (§6 + Fraboni).

A :class:`SamplingScheme` is bound to one (p, S) pair and answers two
questions: how to draw S_t, and what each group's **expected multiplicity**
α_g = E[#times g appears in S_t] is. α is what unbiased aggregation
actually needs — the Horvitz–Thompson/Hansen–Hurwitz weight is
``n_g/(n·α_g)`` — and it is where the schemes differ:

* ``multinomial``     — S independent draws *with* replacement
  (Fraboni et al.'s MD sampling). α_g = S·p_g exactly, so the paper's
  Eq. (4) weight ``n_g/(n·p_g·S)`` is provably unbiased here.
* ``sequential_wor``  — the paper's sequential renormalized draw without
  replacement. α_g = π_g, the inclusion probability computed by
  :mod:`repro.sampling.inclusion` (deterministic quadrature over the
  exponential-race time), and only when something reads it — the
  ``biased`` aggregation mode never does; π_g ≠ S·p_g for S > 1 and
  non-uniform p, which is the Eq. (4) bias this module fixes.
* ``stratified``      — Fraboni's clustered sampling: partition the groups
  into S strata of near-equal p-mass (greedy longest-processing-time over
  p descending) and draw exactly one group per stratum, proportional to p
  within it. α_g = p_g/P_k for g in stratum k; never more than one draw
  per stratum, so the estimator's variance drops below multinomial's.

Schemes are stateless after construction and deterministic given p, so a
checkpoint-resumed sampler rebuilds the identical scheme from the restored
groups — no scheme state needs to be serialized.
"""

from __future__ import annotations

import numpy as np

from repro.rng import make_rng
from repro.sampling.inclusion import sequential_wor_inclusion

__all__ = [
    "SamplingScheme",
    "MultinomialScheme",
    "SequentialWORScheme",
    "StratifiedScheme",
    "SCHEMES",
    "make_scheme",
    "sample_without_replacement",
]


def sample_without_replacement(
    p: np.ndarray, size: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Draw ``size`` distinct indices with probability ∝ p, sequentially.

    Equivalent to successive renormalized draws; implemented with NumPy's
    ``choice(replace=False, p=...)`` which uses the same scheme. Note the
    resulting *inclusion* probability of each index is **not** ``size·p_g``
    for ``size > 1`` — see :mod:`repro.sampling.inclusion` for the exact
    π_g this draw induces.
    """
    p = np.asarray(p, dtype=np.float64)
    n = p.shape[0]
    if not 0 < size <= n:
        raise ValueError(f"cannot sample {size} from {n} groups")
    if np.any(p < 0) or not np.isclose(p.sum(), 1.0):
        raise ValueError("p must be a probability vector")
    rng = make_rng(rng)
    # Our isclose tolerance (atol 1e-8, rtol 1e-5) is looser than
    # rng.choice's internal sum check (~sqrt(eps) with Kahan summation), so
    # a vector that drifted during floor renormalization can pass the guard
    # above yet still raise "probabilities do not sum to 1" inside choice.
    # Renormalize immediately before the draw.
    p = p / p.sum()
    return rng.choice(n, size=size, replace=False, p=p)


class SamplingScheme:
    """One way of drawing S_t ⊆ G (with or without replacement) from p.

    Subclasses implement :meth:`draw` (returns S indices, repeats allowed)
    and :attr:`expected_multiplicity` (the α vector unbiased weights divide
    by). ``p`` is validated and renormalized once at construction.
    """

    name = "base"

    def __init__(self, p: np.ndarray, size: int):
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError(f"p must be a non-empty 1-D vector, got shape {p.shape}")
        if np.any(p < 0) or not np.isclose(p.sum(), 1.0):
            raise ValueError("p must be a probability vector")
        if not 0 < size <= p.size:
            raise ValueError(f"cannot sample {size} from {p.size} groups")
        self.p = p / p.sum()
        self.size = int(size)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """S_t as an index array of length ``size`` (repeats allowed)."""
        raise NotImplementedError

    @property
    def expected_multiplicity(self) -> np.ndarray:
        """α_g = E[#times g appears in a draw] — the unbiased divisor."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(S={self.size}, |G|={self.p.size})"


class MultinomialScheme(SamplingScheme):
    """S independent with-replacement draws; α_g = S·p_g exactly."""

    name = "multinomial"

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(self.p.size, size=self.size, replace=True, p=self.p)

    @property
    def expected_multiplicity(self) -> np.ndarray:
        return self.size * self.p


class SequentialWORScheme(SamplingScheme):
    """The paper's sequential renormalized WOR draw; α_g = π_g.

    π (:func:`repro.sampling.inclusion.sequential_wor_inclusion`) is
    computed on first use and cached for the scheme's lifetime; a scheme
    that is only ever drawn from never computes it.
    """

    name = "sequential_wor"

    def __init__(self, p: np.ndarray, size: int):
        super().__init__(p, size)
        if int(np.count_nonzero(self.p)) < size:
            raise ValueError(
                f"cannot draw {size} distinct groups: only "
                f"{int(np.count_nonzero(self.p))} have positive probability"
            )
        self._pi: np.ndarray | None = None

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        return sample_without_replacement(self.p, self.size, rng)

    @property
    def expected_multiplicity(self) -> np.ndarray:
        if self._pi is None:
            self._pi = sequential_wor_inclusion(self.p, self.size)
        return self._pi


class StratifiedScheme(SamplingScheme):
    """One draw per stratum over an LPT mass-balanced S-partition of G.

    Groups are assigned greedily, largest p first, to the currently
    lightest stratum (ties to the lowest stratum index), so the partition
    is a pure function of p — a resumed sampler rebuilds it identically.
    Each stratum contributes exactly one group, drawn ∝ p within the
    stratum, so α_g = p_g/P_k ≤ 1 and no group repeats.
    """

    name = "stratified"

    def __init__(self, p: np.ndarray, size: int):
        super().__init__(p, size)
        order = np.argsort(-self.p, kind="stable")
        masses = np.zeros(size)
        assignment = np.empty(self.p.size, dtype=np.int64)
        for g in order:
            k = int(np.argmin(masses))
            assignment[g] = k
            masses[k] += self.p[g]
        if np.any(masses == 0.0):
            raise ValueError(
                f"cannot form {size} non-empty strata: only "
                f"{int(np.count_nonzero(self.p))} groups have positive "
                "probability"
            )
        self.assignment = assignment
        self.strata = [np.flatnonzero(assignment == k) for k in range(size)]
        self.stratum_mass = masses
        alpha = self.p / masses[assignment]
        self._alpha = np.minimum(alpha, 1.0)

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        out = np.empty(self.size, dtype=np.int64)
        for k, members in enumerate(self.strata):
            q = self.p[members] / self.stratum_mass[k]
            out[k] = members[rng.choice(members.size, p=q / q.sum())]
        return out

    @property
    def expected_multiplicity(self) -> np.ndarray:
        return self._alpha


SCHEMES = {
    "multinomial": MultinomialScheme,
    "sequential_wor": SequentialWORScheme,
    "stratified": StratifiedScheme,
}


def make_scheme(name: str, p: np.ndarray, size: int) -> SamplingScheme:
    """Build a scheme by name (``multinomial``/``sequential_wor``/``stratified``)."""
    try:
        cls = SCHEMES[name]
    except KeyError:
        raise KeyError(
            f"unknown sampling scheme {name!r}; known: {sorted(SCHEMES)}"
        ) from None
    return cls(p, size)
