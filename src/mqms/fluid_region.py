"""Stability surface of the fluid system with continuous channel laws.

With continuous per-link capacities every nonnegative direction yields a
supporting half-plane ``alpha . rate <= E[sum_k max_n alpha[n] C[n,k]]``,
so the region is a convex surface rather than a polytope.  The support
values are estimated by Monte Carlo; for two queues the upper boundary is
traced as the lower envelope of the sampled half-planes, and the
single-server exponential case has a closed form used as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity_region import _check_direction
from .channel_models import ContinuousChannelModel, link_means, sample_states


@dataclass(frozen=True)
class BoundaryCurve:
    """Traced upper boundary for a two-queue system.

    ``lambda2[i]`` is the largest sustainable rate for queue 2 when queue 1
    receives ``lambda1[i]``; ``stderr[i]`` is the Monte Carlo standard
    error of the active half-plane (zero where an exact axis bound binds).
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    stderr: np.ndarray
    directions: int
    samples: int


def _link_rows(block: np.ndarray) -> np.ndarray:
    """A (S, N, K) sample block as contiguous per-link rows, shape (N, K, S)."""
    return np.ascontiguousarray(block.transpose(1, 2, 0))


def _support_evaluator(rows: np.ndarray):
    """alpha -> mean and standard error of sum_k max_n alpha[n] * C[n,k] over link rows (N, K, S).

    The work arrays are allocated once, here, and reused by every direction:
    the (K, S) running maxima, one (K, S) scaled block whose first row also
    holds the deviations, and the (S,) server sums.  The statistics make the
    ufunc calls of ``ndarray.mean`` and ``std(ddof=1)``, in their order, on
    one pairwise sum of the sums, so they are bit-identical to those two.
    """
    N, K, S = rows.shape
    peaks = np.empty((K, S))
    scaled = np.empty((K, S))
    vals = np.empty(S)
    dev = scaled[0]
    root_s = math.sqrt(S)

    def support(alpha) -> tuple[float, float]:
        np.multiply(rows[0], alpha[0], out=peaks)
        for n in range(1, N):
            np.maximum(peaks, np.multiply(rows[n], alpha[n], out=scaled), out=peaks)
        np.add.reduce(peaks, axis=0, initial=0.0, out=vals)  # servers added left to right
        mean = float(np.add.reduce(vals)) / S
        if S == 1:
            return mean, float("inf")
        np.subtract(vals, mean, out=dev)
        ssd = float(np.add.reduce(np.square(dev, out=dev)))
        return mean, math.sqrt(ssd / (S - 1)) / root_s

    return support


def _support_on_block(rows: np.ndarray, alpha: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of sum_k max_n alpha[n] * C[n,k] over link rows (N, K, S)."""
    return _support_evaluator(rows)(alpha)


def mc_support_function(
    model: ContinuousChannelModel,
    alpha,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[sum_k max_n alpha[n] * C[n,k]].

    Returns (estimate, standard error).  Deterministic for a fixed seed.
    """
    a = _check_direction(alpha, model.N)
    if samples < 1:
        raise ValueError("need at least one sample")
    rows = _link_rows(sample_states(model, np.random.default_rng(seed), samples))
    return _support_evaluator(rows)(a)


def exp_2q_boundary(mu1: float, mu2: float, lambda1: float) -> float:
    """Closed-form boundary for two independent exponential links, one server.

    The largest stable rate for queue 2 given queue 1's rate is
        mu2 * sqrt(1 - lambda1/mu1) * (2 - sqrt(1 - lambda1/mu1)),
    dropping from mu2 at lambda1 = 0 to zero when queue 1 saturates the
    server at lambda1 = mu1.
    """
    if not (math.isfinite(mu1) and math.isfinite(mu2) and mu1 > 0 and mu2 > 0):
        raise ValueError("exponential means must be finite and positive")
    if not (math.isfinite(lambda1) and lambda1 >= 0):
        raise ValueError("rates must be finite and nonnegative")
    if lambda1 > mu1:
        raise ValueError("outside single-queue capacity")
    s = math.sqrt(1.0 - lambda1 / mu1)
    return mu2 * s * (2.0 - s)


def boundary_trace(
    model: ContinuousChannelModel,
    directions: int = 181,
    samples: int = 100_000,
    seed: int = 0,
    lambda1_values=None,
) -> BoundaryCurve:
    """Trace the two-queue boundary as a lower envelope of sampled half-planes.

    Directions (cos t, sin t) are taken on the uniform open grid
    t = d * pi / (2 (D+1)), d = 1..D, which nests when D+1 divides the
    finer D+1 -- so refining the grid can only lower the envelope.  One
    common sample block is reused for every direction, which removes
    direction-to-direction sampling noise from the envelope.  The axis
    directions are handled exactly through the per-queue mean-capacity
    bounds; the curve is clamped at zero.
    """
    if model.N != 2:
        raise ValueError("boundary tracing is defined for N = 2 only")
    if directions < 3:
        raise ValueError("need at least 3 directions")
    if samples < 1:
        raise ValueError("need at least one sample")
    means = link_means(model)
    box1, box2 = float(means[0].sum()), float(means[1].sum())
    if lambda1_values is None:
        lambda1_values = np.linspace(0.0, box1, 201)
    lam1 = np.asarray(lambda1_values, dtype=float)
    if lam1.ndim != 1:
        raise ValueError(f"lambda1_values must be one-dimensional, got shape {lam1.shape}")
    if not (np.isfinite(lam1) & (lam1 >= 0)).all():
        raise ValueError("lambda1 values must be finite and nonnegative")

    rows = _link_rows(sample_states(model, np.random.default_rng(seed), samples))
    thetas = np.arange(1, directions + 1) * (math.pi / 2.0) / (directions + 1)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    support = _support_evaluator(rows)
    est = np.empty(directions)
    se = np.empty(directions)
    for d in range(directions):
        est[d], se[d] = support((cos_t[d], sin_t[d]))

    # envelope over directions: lambda2 = min_t (h(t) - lambda1 cos t) / sin t
    cand = (est[None, :] - lam1[:, None] * cos_t[None, :]) / sin_t[None, :]
    active = np.argmin(cand, axis=1)
    lam2 = cand[np.arange(len(lam1)), active]
    err = se[active] / sin_t[active]
    use_box = box2 < lam2
    lam2 = np.where(use_box, box2, lam2)
    err = np.where(use_box, 0.0, err)
    lam2 = np.maximum(lam2, 0.0)
    return BoundaryCurve(
        lambda1=lam1, lambda2=lam2, stderr=err, directions=directions, samples=samples
    )
