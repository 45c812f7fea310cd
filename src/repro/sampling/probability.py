"""Sampling-probability computation (Eq. 34).

p_g = w(1/CoV(g)) / Σ_g' w(1/CoV(g')), with w non-decreasing:

* ``random``  — uniform p (ignores CoV)
* ``rcov``    — w(x) = x        (reciprocal CoV)
* ``srcov``   — w(x) = x²       (squared reciprocal CoV)
* ``esrcov``  — w(x) = e^{x²}   (exponential squared reciprocal CoV)

The paper picks ESRCoV as the default ("it has the best performance",
§6.1). e^{x²} overflows for tiny CoV, so weights are computed in log space
and shifted by the max before exponentiating (softmax-style), which leaves
the normalized p unchanged.

Groups are scored in one pass: :func:`sampling_probabilities_from_counts`
takes the (|G| × m) label-count matrix — ``GroupSampler`` stacks its
groups' counts into one — computes every CoV with one vectorized
:func:`~repro.grouping.cov.cov_of_counts` call and hands the CoVs to
:func:`sampling_probabilities`, which accepts CoV values only.
"""

from __future__ import annotations

from collections.abc import Iterable
from numbers import Real

import numpy as np

from repro.grouping.cov import cov_of_counts

__all__ = [
    "WEIGHT_FUNCTIONS",
    "gamma_p",
    "sampling_probabilities",
    "sampling_probabilities_from_counts",
    "uniform_probabilities",
    "variance_optimal_probabilities",
]

#: Weight functions expressed as log-weights of x = 1/CoV (log keeps
#: e^{x²} finite); each maps an array of x > 0 to log w(x).
WEIGHT_FUNCTIONS = {
    "rcov": lambda x: np.log(x),
    "srcov": lambda x: 2.0 * np.log(x),
    "esrcov": lambda x: x * x,
}

#: Floor on shifted log-weights. Without it, disparate CoVs (esrcov turns
#: a CoV gap into a *squared* gap in log space) make ``exp(log_w - max)``
#: underflow to exact 0.0, so p_g == 0: Γ_p = Σ 1/p_g blows up to inf and
#: Eq. 4 unbiased weights divide by zero. exp(-60) ≈ 8.8e-27 keeps every
#: p_g > 0 and 1/p_g comfortably finite while being far below any
#: probability that could affect a draw — an implicit floor of ~1e-26/|G|.
_LOG_WEIGHT_FLOOR = -60.0


def uniform_probabilities(num_groups: int) -> np.ndarray:
    """The ``random`` sampling vector: p_g = 1/|G|."""
    if num_groups <= 0:
        raise ValueError(f"num_groups must be positive, got {num_groups}")
    return np.full(num_groups, 1.0 / num_groups)


def _as_cov_array(covs: Iterable[Real] | np.ndarray) -> np.ndarray:
    """Normalize the ``covs`` argument to a float CoV array.

    Accepts an ndarray of CoVs or any iterable of real numbers, and raises
    a ``TypeError`` naming the first foreign element otherwise. Groups are
    scored by :func:`sampling_probabilities_from_counts` instead.
    """
    if isinstance(covs, np.ndarray):
        if covs.dtype == object or not np.issubdtype(covs.dtype, np.number):
            raise TypeError(
                f"cov array must be numeric, got dtype {covs.dtype}"
            )
        return np.asarray(covs, dtype=np.float64)
    try:
        items = list(covs)
    except TypeError:
        raise TypeError(
            f"covs must be an iterable of CoV floats, got {type(covs).__name__}"
        ) from None
    for c in items:
        if not isinstance(c, Real) or isinstance(c, bool):
            raise TypeError(
                "covs must be real CoV values (score groups with "
                "sampling_probabilities_from_counts); got element "
                f"{c!r} of type {type(c).__name__}"
            )
    return np.array(items, dtype=np.float64)


def sampling_probabilities(
    covs: Iterable[Real] | np.ndarray,
    method: str = "esrcov",
    min_prob: float = 0.0,
    cov_floor: float = 1e-3,
) -> np.ndarray:
    """Compute p over groups from their CoV values.

    Parameters
    ----------
    covs:
        One CoV per group: an array or any iterable of real numbers.
    method:
        ``random``, ``rcov``, ``srcov``, or ``esrcov``.
    min_prob:
        Optional floor on each p_g (then renormalized). Keeping every
        probability bounded away from zero bounds the paper's Γ_p ≥ Σ 1/p_g
        — the quantity Theorem 1 says must stay finite for unbiased
        aggregation to be stable (§4.3, second observation).
    cov_floor:
        CoV values below this are clamped before inversion: a perfectly
        balanced group (CoV = 0) would otherwise get infinite weight.

    Every returned probability is strictly positive: shifted log-weights
    are clamped at an implicit floor (``exp(-60)`` pre-normalization)
    before exponentiating, so extreme CoV disparity can no longer underflow
    a group to p_g = 0 — Γ_p and the Eq. 4 unbiased weights stay finite.
    """
    covs = _as_cov_array(covs)
    n = covs.shape[0]
    if n == 0:
        raise ValueError("cannot compute probabilities over zero groups")
    if method == "random":
        p = uniform_probabilities(n)
    else:
        try:
            log_w_fn = WEIGHT_FUNCTIONS[method]
        except KeyError:
            raise KeyError(
                f"unknown sampling method {method!r}; known: "
                f"{['random', *sorted(WEIGHT_FUNCTIONS)]}"
            ) from None
        x = 1.0 / np.maximum(covs, cov_floor)
        log_w = log_w_fn(x)
        # Shift-invariant normalization, clamped: exp of a very negative
        # shifted log-weight underflows to exact 0.0, which poisons Γ_p
        # (inf) and unbiased aggregation (division by p_g). The floor keeps
        # every weight a normal positive float without measurably changing
        # any sampleable probability.
        log_w = np.maximum(log_w - log_w.max(), _LOG_WEIGHT_FLOOR)
        w = np.exp(log_w)
        p = w / w.sum()
    if min_prob > 0.0:
        if min_prob * n > 1.0:
            raise ValueError(
                f"min_prob {min_prob} infeasible for {n} groups (needs ≤ {1.0 / n:.4f})"
            )
        p = _apply_floor(p, min_prob)
    return p


def sampling_probabilities_from_counts(
    group_counts: np.ndarray,
    method: str = "esrcov",
    min_prob: float = 0.0,
    cov_floor: float = 1e-3,
) -> np.ndarray:
    """p over groups given their label-count rows — the columnar hot path.

    ``group_counts`` is the (|G| × m) matrix of per-group class counts
    (e.g. from :func:`repro.population.group_label_counts` over a
    :class:`~repro.population.ColumnarPopulation`'s ``L``). One vectorized
    CoV pass feeds :func:`sampling_probabilities`, so 10⁵–10⁶-client
    populations get their sampling vector without a per-group Python loop.
    """
    counts = np.asarray(group_counts, dtype=np.float64)
    if counts.ndim != 2:
        raise ValueError(
            f"group_counts must be 2-D (groups × classes), got shape {counts.shape}"
        )
    covs = np.atleast_1d(cov_of_counts(counts))
    return sampling_probabilities(covs, method, min_prob=min_prob, cov_floor=cov_floor)


def variance_optimal_probabilities(
    group_sizes: np.ndarray,
    min_prob: float = 0.0,
) -> np.ndarray:
    """The closed-form variance minimizer p*_g ∝ n_g·‖x_g‖ (Fraboni et al.).

    Minimizes the sampling-variance term Σ_g (n_g/n)²·‖x_g‖²/p_g of the
    unbiased estimator over the probability simplex (Cauchy–Schwarz gives
    p*_g ∝ n_g·‖x_g‖). Every norm is taken as 1, collapsing to the
    size-optimal prior p* ∝ n_g — the ``varopt`` sampling method.
    ``min_prob`` water-fills a floor exactly as in
    :func:`sampling_probabilities`, bounding Γ_p.
    """
    n_g = np.asarray(group_sizes, dtype=np.float64)
    if n_g.ndim != 1 or n_g.size == 0:
        raise ValueError(
            f"group_sizes must be a non-empty 1-D vector, got shape {n_g.shape}"
        )
    if np.any(n_g <= 0) or not np.all(np.isfinite(n_g)):
        raise ValueError("group sizes must be finite and positive")
    p = n_g / n_g.sum()
    if min_prob > 0.0:
        if min_prob * p.size > 1.0:
            raise ValueError(
                f"min_prob {min_prob} infeasible for {p.size} groups "
                f"(needs ≤ {1.0 / p.size:.4f})"
            )
        p = _apply_floor(p, min_prob)
    return p


def gamma_p(p: np.ndarray) -> float:
    """Γ_p = Σ_g 1/p_g — the variance-controlling quantity of Theorem 1.

    Matches ``GroupSampler.gamma_p`` for the same p vector; exposed here so
    columnar pipelines can report Γ_p without building a sampler.
    """
    p = np.asarray(p, dtype=np.float64)
    if p.size == 0:
        raise ValueError("cannot compute gamma_p over zero groups")
    if (p <= 0.0).any():
        raise ValueError("gamma_p requires strictly positive probabilities")
    return float(np.sum(1.0 / p))


def _apply_floor(p: np.ndarray, floor: float) -> np.ndarray:
    """Raise every entry to ≥ floor, water-filling the deficit from the rest.

    Entries at the floor are pinned; the remaining probability mass is
    distributed proportionally among the others. Iterates because scaling
    the rest down can push new entries below the floor. The final vector
    is renormalized over the free entries before returning: each
    iteration's proportional rescale accumulates floating-point drift, and
    an off-by-1e-9 sum used to slip past our ``np.isclose`` guard only to
    be rejected by ``rng.choice``'s stricter internal check one call
    deeper. Pinned entries stay exactly ``floor``; the free entries absorb
    the drift, so the sum lands within one rounding of 1.0.
    """
    p = p.copy()
    pinned = np.zeros(p.shape, dtype=bool)
    for _ in range(p.shape[0]):
        low = (p < floor) & ~pinned
        if not low.any():
            break
        pinned |= low
        p[pinned] = floor
        free = ~pinned
        remaining = 1.0 - pinned.sum() * floor
        total_free = p[free].sum()
        if total_free > 0:
            p[free] *= remaining / total_free
        else:  # everything pinned
            break
    free = ~pinned
    total_free = p[free].sum() if free.any() else 0.0
    if total_free > 0.0:
        p[free] *= (1.0 - float(pinned.sum()) * floor) / total_free
    return p
