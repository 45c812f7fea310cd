"""Numerical validation of the analysis assumptions (§4.1).

The convergence proof rests on Assumptions 1–4. There is "no practical way
to compute ζ_g and L" exactly (§4.1), but both can be *probed* numerically:

* :func:`estimate_smoothness` — a lower bound on the Lipschitz constant L
  of ∇f via sampled secant quotients ‖∇f(x)−∇f(y)‖/‖x−y‖ (Assumption 2).
* :func:`check_descent_lemma` — verify the quadratic upper bound Eq. (19),
  f(y) ≤ f(x) + ⟨∇f(x), y−x⟩ + (L/2)‖x−y‖², at sampled point pairs for a
  given L: the inequality the whole proof skeleton starts from.

The theory test-suite uses these to confirm our loss landscape actually
satisfies the assumptions the reproduced theorem needs.
"""

from __future__ import annotations

import numpy as np

from repro.nn.model import Model
from repro.rng import make_rng

__all__ = ["estimate_smoothness", "check_descent_lemma"]


def _loss_and_gradient(
    model: Model, params: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray]:
    model.set_params(params)
    loss = model.loss_and_grad(x, y)
    return loss, model.get_grads()


def estimate_smoothness(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    num_pairs: int = 20,
    radius: float = 0.5,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Max sampled secant quotient — a lower bound on L (Assumption 2).

    Samples pairs (x₀, x₀ + r·u) around the model's current parameters and
    returns max ‖∇f(a)−∇f(b)‖ / ‖a−b‖.
    """
    if num_pairs < 1:
        raise ValueError(f"num_pairs must be >= 1, got {num_pairs}")
    rng = make_rng(rng)
    base = model.get_params().copy()
    worst = 0.0
    for _ in range(num_pairs):
        direction = rng.normal(size=base.shape)
        direction /= np.linalg.norm(direction)
        step = rng.uniform(0.01, radius)
        a = base + rng.normal(scale=0.1, size=base.shape)
        b = a + step * direction
        _, ga = _loss_and_gradient(model, a, x, y)
        _, gb = _loss_and_gradient(model, b, x, y)
        worst = max(worst, float(np.linalg.norm(ga - gb) / step))
    model.set_params(base)
    return worst


def check_descent_lemma(
    model: Model,
    x: np.ndarray,
    y: np.ndarray,
    L: float,
    num_pairs: int = 20,
    radius: float = 0.5,
    rng: np.random.Generator | int | None = None,
) -> tuple[bool, float]:
    """Check Eq. (19) at sampled pairs for the given L.

    Returns ``(all_satisfied, max_violation)`` where violation is
    f(y) − [f(x) + ⟨∇f(x), y−x⟩ + (L/2)‖x−y‖²] (≤ 0 when satisfied).
    """
    if L <= 0:
        raise ValueError(f"L must be positive, got {L}")
    rng = make_rng(rng)
    base = model.get_params().copy()
    worst = -np.inf
    for _ in range(num_pairs):
        a = base + rng.normal(scale=0.1, size=base.shape)
        direction = rng.normal(size=base.shape)
        direction /= np.linalg.norm(direction)
        step = rng.uniform(0.01, radius)
        b = a + step * direction
        fa, ga = _loss_and_gradient(model, a, x, y)
        fb, _ = _loss_and_gradient(model, b, x, y)
        bound = fa + float(ga @ (b - a)) + 0.5 * L * step * step
        worst = max(worst, fb - bound)
    model.set_params(base)
    return worst <= 1e-9, float(worst)
