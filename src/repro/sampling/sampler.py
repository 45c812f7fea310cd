"""Group sampling and aggregation-weight computation.

Sampling S_t ⊆ G happens once per global round (Algorithm 1, Line 6)
through a pluggable :class:`~repro.sampling.schemes.SamplingScheme`:
``sequential_wor`` (the paper's sequential renormalized draw, default),
``multinomial`` (with replacement), or ``stratified`` (one draw per
p-mass-balanced stratum). Aggregation weights implement the three modes
discussed in §3.1/§6.2:

* ``biased``     — Line 15 verbatim: weight ∝ n_g (normalized over S_t).
* ``unbiased``   — the Horvitz–Thompson form ``n_g/(n·α_g)``, where
  α_g = E[#times g appears in S_t] is the scheme's expected multiplicity.
  The paper's Eq. (4) weight ``n_g/(n·p_g·S)`` is the α = S·p_g special
  case — exact for multinomial sampling and for S=1, but **biased** under
  the sequential WOR draw with S>1 and non-uniform p, whose true inclusion
  probability π_g deviates from S·p_g (see :mod:`repro.sampling.inclusion`
  for the exact computation that fixes it). Unbiased but numerically
  fragile when some 1/α_g is huge.
* ``stabilized`` — Eq. (35): the unbiased weights renormalized to sum to 1,
  trading exact unbiasedness for stability (the paper's recommendation
  when prioritized sampling and the unbiasedness factor are combined).

The probability vector p itself comes from the CoV weight functions of
Eq. (34) (``random``/``rcov``/``srcov``/``esrcov``) or from the closed-form
variance minimizer p* ∝ n_g (``varopt``).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.grouping.base import Group
from repro.rng import make_rng
from repro.sampling.probability import (
    sampling_probabilities_from_counts,
    variance_optimal_probabilities,
)
from repro.sampling.schemes import make_scheme, sample_without_replacement
from repro.telemetry import Telemetry, resolve as resolve_telemetry

__all__ = [
    "AggregationMode",
    "sample_without_replacement",
    "aggregation_weights",
    "GroupSampler",
]

class AggregationMode(str, Enum):
    """How sampled group models are combined at the cloud."""

    BIASED = "biased"
    UNBIASED = "unbiased"
    STABILIZED = "stabilized"


def aggregation_weights(
    selected_groups: list[Group],
    p_selected: np.ndarray,
    total_samples: int,
    mode: AggregationMode | str = AggregationMode.BIASED,
    *,
    inclusion: np.ndarray | None = None,
    multiplicity: np.ndarray | None = None,
) -> np.ndarray:
    """Aggregation weight per selected group (Line 15 / Eq. 4 / Eq. 35).

    Parameters
    ----------
    selected_groups:
        The *distinct* groups in S_t, in draw order.
    p_selected:
        Their sampling probabilities p_g (same order); any array-like.
    total_samples:
        The paper's n (all data across all groups); must be positive for
        the unbiased/stabilized modes, which divide by it.
    inclusion:
        The scheme's expected multiplicity α_g for each selected group
        (``scheme.expected_multiplicity``); required by the unbiased and
        stabilized modes, ignored by ``biased``. The unbiased weight is then
        ``multiplicity_g·n_g/(n·α_g)``. Eq. (4) verbatim is
        ``inclusion=S·p_g`` — exact only for multinomial sampling or S=1,
        *biased* under the sequential WOR draw with S>1.
    multiplicity:
        How many times each selected group was drawn (≥1; defaults to 1,
        which is always the case without replacement). With-replacement
        schemes fold repeat draws into the weight instead of training a
        group twice.
    """
    mode = AggregationMode(mode)
    n_g = np.array([g.n_g for g in selected_groups], dtype=np.float64)
    s = len(selected_groups)
    p_selected = np.asarray(p_selected, dtype=np.float64)
    if p_selected.shape != (s,):
        raise ValueError(f"p_selected shape {p_selected.shape} != ({s},)")
    if multiplicity is None:
        mult = np.ones(s, dtype=np.float64)
    else:
        mult = np.asarray(multiplicity, dtype=np.float64)
        if mult.shape != (s,):
            raise ValueError(f"multiplicity shape {mult.shape} != ({s},)")
        if np.any(mult < 1):
            raise ValueError(f"multiplicity entries must be >= 1, got {mult}")
    if mode is AggregationMode.BIASED:
        # Line 15: n_g / n_t where n_t is the data total over S_t
        # (with-replacement repeats count toward n_t).
        scaled = mult * n_g
        return scaled / scaled.sum()
    if total_samples <= 0:
        raise ValueError(
            f"total_samples must be positive for {mode.value} weights, "
            f"got {total_samples} (0 would yield inf/nan weights)"
        )
    if inclusion is None:
        raise ValueError(
            f"{mode.value} weights divide by each group's expected "
            "multiplicity: pass inclusion= (the scheme's "
            "scheme.expected_multiplicity; S·p_g for Eq. 4 verbatim)"
        )
    alpha = np.asarray(inclusion, dtype=np.float64)
    if alpha.shape != (s,):
        raise ValueError(f"inclusion shape {alpha.shape} != ({s},)")
    if np.any(alpha <= 0) or not np.all(np.isfinite(alpha)):
        raise ValueError(
            f"expected multiplicities must be finite and positive, got {alpha}"
        )
    raw = mult * n_g / (alpha * float(total_samples))
    if mode is AggregationMode.UNBIASED:
        return raw
    return raw / raw.sum()  # Eq. (35)


class GroupSampler:
    """Cloud-side sampler bound to a fixed group list.

    Computes p once (``Sampling-Prob`` — Algorithm 1 Line 4) from group
    CoVs (Eq. 34 methods, one pass over the groups' stacked label
    counts) or group sizes (``varopt``), binds a :class:`SamplingScheme`
    to it, and then draws S_t each round. p and the scheme never change
    after construction: recreate the sampler after any regrouping.

    Parameters
    ----------
    scheme:
        ``sequential_wor`` (default — the paper's draw), ``multinomial``,
        or ``stratified``. Determines both the draw mechanics and the
        expected-multiplicity vector α the unbiased weights divide by.
    method:
        ``random``/``rcov``/``srcov``/``esrcov`` (Eq. 34) or ``varopt``
        (p* ∝ n_g, the closed-form variance minimizer with unit norms).
    """

    def __init__(
        self,
        groups: list[Group],
        method: str = "esrcov",
        num_sampled: int = 1,
        mode: AggregationMode | str = AggregationMode.BIASED,
        min_prob: float = 0.0,
        rng: np.random.Generator | int | None = None,
        telemetry: Telemetry | None = None,
        scheme: str = "sequential_wor",
    ):
        if num_sampled < 1 or num_sampled > len(groups):
            raise ValueError(
                f"num_sampled {num_sampled} out of range for {len(groups)} groups"
            )
        self.groups = groups
        self.method = method
        self.num_sampled = int(num_sampled)
        self.mode = AggregationMode(mode)
        counts = np.stack([g.label_counts for g in groups])
        n_g = counts.sum(axis=1)
        if method == "varopt":
            self.p = variance_optimal_probabilities(n_g, min_prob=min_prob)
        else:
            self.p = sampling_probabilities_from_counts(
                counts, method=method, min_prob=min_prob
            )
        self.scheme = make_scheme(scheme, self.p, self.num_sampled)
        self.rng = make_rng(rng)
        self.total_samples = int(n_g.sum())
        #: per-draw sampling-dispersion metrics (Γ_p, inclusion probs)
        self.telemetry = resolve_telemetry(telemetry)

    def gamma_p(self) -> float:
        """Γ_p = Σ_g 1/p_g — the sampling-dispersion term of Theorem 1."""
        return float(np.sum(1.0 / self.p))

    def gamma_alpha(self) -> float:
        """Σ_g 1/α_g over the scheme's expected multiplicities.

        The scheme-corrected analogue of Γ_p: the dispersion the *actual*
        unbiased weights experience. Groups a scheme can never select
        (α_g = 0, possible under ``stratified`` with zero-p groups) are
        excluded — they never contribute a weight.
        """
        alpha = self.scheme.expected_multiplicity
        positive = alpha > 0
        return float(np.sum(1.0 / alpha[positive]))

    def sample(self) -> tuple[list[Group], np.ndarray]:
        """Draw S_t; returns (distinct groups, their aggregation weights).

        With-replacement schemes can draw a group several times; repeats
        are folded into that group's weight (``multiplicity``) instead of
        returning — and training — the same group twice.
        """
        raw = self.scheme.draw(self.rng)
        idx, counts = _dedupe_in_draw_order(raw)
        selected = [self.groups[i] for i in idx]
        # Line 15 weights never divide by α_g, so ``biased`` does not make
        # the scheme compute it (π_g, for the sequential WOR draw).
        alpha = (
            None
            if self.mode is AggregationMode.BIASED
            else self.scheme.expected_multiplicity[idx]
        )
        weights = aggregation_weights(
            selected,
            self.p[idx],
            self.total_samples,
            self.mode,
            inclusion=alpha,
            multiplicity=counts,
        )
        tel = self.telemetry
        if tel.enabled:
            # Fraboni et al. (PAPERS.md): sampling-induced variance is the
            # quantity to watch — record dispersion and participation.
            tel.set_gauge("gamma_p", self.gamma_p())
            tel.set_gauge("gamma_alpha", self.gamma_alpha())
            tel.inc("groups_sampled", float(len(selected)))
            tel.inc("clients_participating", float(sum(g.size for g in selected)))
            for p_g in self.p[idx]:
                tel.observe("sampled_group_prob", float(p_g))
        return selected, weights

    def __repr__(self) -> str:
        return (
            f"GroupSampler(method={self.method!r}, scheme={self.scheme.name!r}, "
            f"S={self.num_sampled}, mode={self.mode.value}, |G|={len(self.groups)})"
        )


def _dedupe_in_draw_order(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct indices in first-draw order, their multiplicities)."""
    idx: list[int] = []
    counts: dict[int, int] = {}
    for i in raw.tolist():
        if i in counts:
            counts[i] += 1
        else:
            counts[i] = 1
            idx.append(i)
    index = np.array(idx, dtype=np.int64)
    return index, np.array([counts[i] for i in idx], dtype=np.float64)
