"""Test-side references for the sequential-WOR inclusion probabilities.

Two independent routes to π_g, neither sharing code with
``repro.sampling.inclusion``:

* :func:`inclusion_fractions` — exact rational arithmetic over *subsets*
  (not draw orders): f(A), the chance that the first |A| draws are exactly
  the set A, obeys f(A) = Σ_{j∈A} f(A∖j)·p_j/(1 − p(A∖j)), and
  π_g = Σ_{A∌g, |A|<S} f(A)·p_g/(1 − p(A)). 2^|G| states, so |G| ≲ 12.
* :func:`race_simulation` — Monte-Carlo over the Efraimidis–Spirakis race
  (the S smallest ``Exp(1)/p_g`` keys), for sizes the enumeration cannot
  reach. This is the estimator ``sequential_wor_inclusion`` used to fall
  back on; it now lives here, as a check.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np


def normalized_fractions(weights) -> list[Fraction]:
    """Exact rational p from float (or rational) weights."""
    exact = [Fraction(w) for w in weights]
    total = sum(exact)
    return [w / total for w in exact]


def inclusion_fractions(p: list[Fraction], size: int) -> list[Fraction]:
    """Exact π_g of S = ``size`` sequential renormalized draws from p."""
    n = len(p)
    first = {frozenset(): Fraction(1)}  # f(A), built level by level
    pi = [Fraction(0)] * n
    for level in range(size):
        for members in combinations(range(n), level):
            subset = frozenset(members)
            if level:
                first[subset] = sum(
                    first[subset - {j}] * p[j] / (1 - sum(p[i] for i in subset - {j}))
                    for j in subset
                    if p[j] and first[subset - {j}]
                )
            reach = first[subset]
            if not reach:
                continue
            left = 1 - sum(p[i] for i in subset)
            for g in range(n):
                if g not in subset and p[g]:
                    pi[g] += reach * p[g] / left
    return pi


def race_simulation(
    p: np.ndarray, size: int, draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Empirical inclusion frequencies over ``draws`` simulated races."""
    p = np.asarray(p, dtype=np.float64)
    counts = np.zeros(p.size, dtype=np.int64)
    positive = np.flatnonzero(p > 0)
    chunk = max(1, 4_000_000 // p.size)  # ~32 MB of keys at a time
    for start in range(0, draws, chunk):
        rows = min(chunk, draws - start)
        keys = rng.standard_exponential((rows, positive.size)) / p[positive]
        winners = np.argpartition(keys, size - 1, axis=1)[:, :size]
        counts += np.bincount(positive[winners].ravel(), minlength=p.size)
    return counts / float(draws)
