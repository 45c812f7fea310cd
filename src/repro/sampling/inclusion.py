"""Inclusion probabilities π_g of the sequential without-replacement draw.

The Eq. (4) weights ``n_g/(n·p_g·S)`` are unbiased only when each group's
expected multiplicity in S_t equals ``S·p_g``. That holds exactly for
multinomial (with-replacement) sampling, but **not** for the sequential
probability-proportional draw without replacement used by
:func:`repro.sampling.sample_without_replacement`: removing a drawn group
and renormalizing changes the conditional distribution of later draws, so
the marginal inclusion probability π_g deviates from ``S·p_g`` whenever
``S > 1`` and p is non-uniform. (High-p groups have π_g < S·p_g — they
cannot be drawn twice — and the freed mass flows to the low-p groups.)

This module computes π_g by a deterministic 1-D quadrature built on the
Efraimidis–Spirakis exponential-race equivalence: giving every group an
independent arrival time ``T_g ~ Exp(rate p_g)`` and keeping the S earliest
is distributed identically to S successive renormalized draws. Group g is
kept iff at most S−1 others arrive before it, so

    π_g = ∫₀^∞ p_g e^{-p_g t} · P[#{h≠g : T_h < t} ≤ S−1] dt,

where the count is Poisson-binomial with success chances ``1 − e^{-p_h t}``
and only its first S terms are ever needed. :func:`sequential_wor_inclusion`
evaluates the integral by the trapezoid rule in ``log t`` (the integrand is
analytic and decays exponentially on the left, doubly exponentially on the
right, so the rule converges geometrically: ~1e-15 at the step used, which
shrinks like 1/√S) on a node grid laid out from p's own scales, with the
leave-one-out tails of all groups obtained from one prefix pass and one
suffix pass per node — O(Q·|G|·S) flops, no sampling noise, nothing to
seed. :func:`sequential_wor_inclusion_exact`, the
O(|G|^S) enumeration over draw orders, is kept as the reference the tests
compare the quadrature against.

The corrected unbiased weight is then the Horvitz–Thompson form
``n_g/(n·π_g)`` — see :func:`repro.sampling.aggregation_weights`.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "num_ordered_sequences",
    "sequential_wor_inclusion",
    "sequential_wor_inclusion_exact",
]

#: widest trapezoid step in log t (see :func:`_log_step`)
_MAX_LOG_STEP = 0.25
#: e-folds of integrand decay covered past the last scale of p at either
#: end of the node grid (e⁻⁴⁰ ≈ 4e-18)
_TAIL_EFOLDS = 40.0
#: node-axis chunk size: bytes of prefix-pass state held at once
_CHUNK_BYTES = 16 << 20


def _validate(p: np.ndarray, size: int) -> np.ndarray:
    p = np.asarray(p, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"p must be a non-empty 1-D vector, got shape {p.shape}")
    if not 0 < size <= p.size:
        raise ValueError(f"cannot sample {size} from {p.size} groups")
    if np.any(p < 0) or not np.isclose(p.sum(), 1.0):
        raise ValueError("p must be a probability vector")
    if int(np.count_nonzero(p)) < size:
        raise ValueError(
            f"cannot draw {size} distinct groups: only "
            f"{int(np.count_nonzero(p))} have positive probability"
        )
    return p / p.sum()


def num_ordered_sequences(num_groups: int, size: int) -> int:
    """|G|·(|G|-1)···(|G|-S+1) — the exact recursion's leaf count."""
    total = 1
    for k in range(size):
        total *= num_groups - k
    return total


def sequential_wor_inclusion_exact(p: np.ndarray, size: int) -> np.ndarray:
    """Exact π_g by recursive enumeration over all ordered draw sequences.

    π_g sums, over every prefix in which g is still undrawn, the
    probability of reaching that prefix times the renormalized probability
    of drawing g next. Zero-probability branches are pruned, so sparse p
    vectors enumerate far fewer than ``num_ordered_sequences`` nodes.
    Cost is O(|G|^S) — this is the reference the tests hold
    :func:`sequential_wor_inclusion` to, not a production path.
    """
    p = _validate(p, size)
    n = p.size
    pi = np.zeros(n, dtype=np.float64)
    undrawn = np.ones(n, dtype=bool)

    def visit(prefix_prob: float, depth: int) -> None:
        # Summed over the undrawn entries, never carried as ``mass - p[j]``:
        # once a dominant group is drawn that subtraction cancels to
        # rounding noise (or 0.0) and every later draw is lost.
        remaining_mass = float(p[undrawn].sum())
        for j in range(n):
            if not undrawn[j] or p[j] == 0.0:
                continue
            pj = prefix_prob * p[j] / remaining_mass
            if pj == 0.0:
                continue
            pi[j] += pj
            if depth + 1 < size:
                undrawn[j] = False
                visit(pj, depth + 1)
                undrawn[j] = True

    visit(1.0, 0)
    return np.minimum(pi, 1.0)


def _log_step(size: int) -> float:
    """Trapezoid step in u = log t.

    The S-th arrival time concentrates as S grows (relative spread no
    narrower than 1/√S, the equal-rates Gamma case), and the integrand's
    features in u sharpen with it; half that width keeps the rule at
    rounding level (measured against step/4 references for S = 2 … 400,
    |G| = 439: a fixed 0.25 already loses five digits at S = 8).
    """
    return min(_MAX_LOG_STEP, 0.5 / math.sqrt(size))


def _log_time_nodes(p: np.ndarray, size: int) -> np.ndarray:
    """Quadrature nodes in u = log t, laid out from (all-positive) p's scales.

    Left end: below ``t = e⁻⁴⁰/p_max`` every integrand ``p_g·t·(…)`` is
    under e⁻⁴⁰. Right end: once S others have arrived group g is out, and
    the chance that fewer than S of the m other positive groups have
    arrived by t is at most ``C(m, S−1)·e^{-ρt}`` with ρ the (S+1)-th
    largest p (the slowest group that can still be needed to fill S slots),
    so the grid runs to where that bound, relative to π_g ≥ p_g, is e⁻⁴⁰.
    """
    descending = np.sort(p)[::-1]
    rho = descending[size]
    m = p.size - 1
    log_binom = math.lgamma(m + 1) - math.lgamma(size) - math.lgamma(m - size + 2)
    u_min = -math.log(descending[0]) - _TAIL_EFOLDS
    u_max = math.log((_TAIL_EFOLDS + log_binom - math.log(rho)) / rho)
    step = _log_step(size)
    return u_min + step * np.arange(math.ceil((u_max - u_min) / step) + 1)


def _race_integrand_sum(p: np.ndarray, size: int, t: np.ndarray) -> np.ndarray:
    """Σ over nodes t of ``p_g·t·e^{-p_g t}·P[at most S−1 others arrived by t]``.

    The count of arrivals among the groups before g (prefix) and after g
    (suffix) are Poisson-binomial; both are carried truncated to their
    first S terms, and the tail for g is Σ_{a+b ≤ S−1} prefix[a]·suffix[b].
    Every term is a sum of products of non-negative numbers, so tiny π_g
    keep full relative accuracy.
    """
    n = p.size
    rate = np.outer(p, t)
    gone = np.exp(-rate)  # group has not arrived by t
    here = -np.expm1(-rate)
    prefix = np.empty((n, size, t.size))
    prefix[0] = 0.0
    prefix[0, 0] = 1.0
    for g in range(n - 1):
        np.multiply(prefix[g], gone[g], out=prefix[g + 1])
        prefix[g + 1, 1:] += prefix[g, :-1] * here[g]
    tail = np.empty_like(rate)
    suffix = np.zeros((size, t.size))
    suffix[0] = 1.0
    for g in range(n - 1, -1, -1):
        at_most = np.cumsum(suffix, axis=0)[::-1]  # P[suffix ≤ S−1−a]
        np.einsum("aq,aq->q", prefix[g], at_most, out=tail[g])
        arrived = suffix[:-1] * here[g]
        suffix *= gone[g]
        suffix[1:] += arrived
    return np.einsum("gq,gq,gq->g", rate, gone, tail)


def sequential_wor_inclusion(p: np.ndarray, size: int) -> np.ndarray:
    """π_g for the sequential WOR draw, by quadrature over the race time.

    Deterministic and accurate to ~1e-15 for any p (including p spanning
    dozens of orders of magnitude, zeros and ties) at O(Q·|G|·S) cost with
    Q ≈ (85 + ln(p_max/p_(S+1)))·max(4, 2√S) nodes; see the module docstring.
    Shortcuts: S=1 gives π = p, and when exactly S groups (or all of them)
    have positive probability each of those is certain. Raises if the
    result fails Σπ = S.
    """
    p = _validate(p, size)
    if size == 1:
        return p.copy()
    positive = p > 0
    if int(positive.sum()) == size:
        return positive.astype(np.float64)
    support = p[positive]  # zero-p groups never arrive: π = 0, no work
    nodes = _log_time_nodes(support, size)
    chunk = max(1, _CHUNK_BYTES // (8 * support.size * size))
    total = np.zeros_like(support)
    for start in range(0, nodes.size, chunk):
        total += _race_integrand_sum(support, size, np.exp(nodes[start:start + chunk]))
    pi = np.zeros_like(p)
    pi[positive] = np.minimum(total * _log_step(size), 1.0)
    if abs(pi.sum() - size) > 1e-9 * size:
        raise ArithmeticError(
            f"inclusion probabilities of |G|={p.size} groups, S={size} sum to "
            f"{pi.sum()!r}, not S (p min {p.min():.3g}, max {p.max():.3g})"
        )
    return pi
