"""Utility-fair rate allocation over the stability region.

Solves  maximize sum_n f_n(r_n)  subject to r in the region and
0 <= r_n <= cap_n, for nondecreasing concave utilities.  The per-source
caps are folded into the objective through min(r_n, cap_n), which keeps
the feasible set equal to the region itself -- so the linear subproblem
of Frank-Wolfe is answered exactly by the region's support vertex and no
LP solver is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity_region import StabilityRegion, _vertex_oracle, build_region, membership_margin, support_vertex
from .channel_models import DiscreteChannelModel

GRAD_FLOOR = 1e-12  # keeps power-law gradients finite at zero rates
# Each line-search round evaluates the objective at this many evenly spaced
# steps in one batch and keeps the two cells around the first maximum, so
# the bracket shrinks 32-fold per round: 8 rounds reach _LINE_SEARCH_TOL.
_LINE_SEARCH_POINTS = 65
_LINE_SEARCH_TOL = 1e-12
_GRID = np.linspace(0.0, 1.0, _LINE_SEARCH_POINTS)


@dataclass(frozen=True)
class UtilitySpec:
    """Concave nondecreasing per-queue utilities with per-queue rate caps.

    kind "weighted_linear": f_n(r) = weights[n] * r (weights >= 0);
    kind "log_shifted":     f_n(r) = log(r + epsilon), epsilon > 0;
    kind "alpha_fair":      f_n(r) = r^(1-a) / (1-a) for a >= 0, a != 1
    (a = 0 is plain throughput, larger a trades total rate for equality).
    Caps may be infinite.
    """

    kind: str
    caps: tuple
    weights: tuple = ()
    epsilon: float = 1e-6
    a: float = 0.0

    def __post_init__(self):
        caps, weights = tuple(float(c) for c in self.caps), tuple(float(w) for w in self.weights)
        epsilon, a = float(self.epsilon), float(self.a)
        if self.kind == "weighted_linear":
            if not all(0 <= w < math.inf for w in weights):
                raise ValueError("linear utility weights must be finite and nonnegative")
            if len(caps) != len(weights):
                raise ValueError(f"need {len(weights)} caps, got {len(caps)}")
        elif self.kind == "log_shifted":
            if not 0 < epsilon < math.inf:
                raise ValueError("epsilon must be finite and positive")
        elif self.kind == "alpha_fair":
            if not 0 <= a < math.inf or a == 1.0:
                raise ValueError("fairness exponent must be finite, >= 0 and != 1")
        else:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if not all(c >= 0 for c in caps):
            raise ValueError("caps must be nonnegative (infinity allowed), not NaN")
        for name, value in (("caps", caps), ("weights", weights), ("epsilon", epsilon), ("a", a)):
            object.__setattr__(self, name, value)

    @classmethod
    def weighted_linear(cls, weights, caps=None) -> "UtilitySpec":
        weights = tuple(weights)
        return cls(kind="weighted_linear", caps=_caps_tuple(caps, len(weights)), weights=weights)

    @classmethod
    def log_shifted(cls, n_queues: int, epsilon: float = 1e-6, caps=None) -> "UtilitySpec":
        return cls(kind="log_shifted", caps=_caps_tuple(caps, n_queues), epsilon=epsilon)

    @classmethod
    def alpha_fair(cls, n_queues: int, a: float, caps=None) -> "UtilitySpec":
        return cls(kind="alpha_fair", caps=_caps_tuple(caps, n_queues), a=a)

    @property
    def N(self) -> int:
        return len(self.caps)

    def value(self, r) -> float:
        return float(self._values(r))

    def _values(self, r) -> np.ndarray:
        """The capped objective of every rate vector along the last axis of r."""
        rc = np.minimum(np.asarray(r, dtype=float), self.caps)
        if self.kind == "weighted_linear":
            return np.dot(rc, self.weights)
        if self.kind == "log_shifted":
            return np.log(rc + self.epsilon).sum(axis=-1)
        rc = np.maximum(rc, GRAD_FLOOR)
        return (rc ** (1.0 - self.a)).sum(axis=-1) / (1.0 - self.a)

    def gradient(self, r) -> np.ndarray:
        """Supergradient of the capped objective; zero on the flat side of the cap."""
        r = np.asarray(r, dtype=float)
        if self.kind == "weighted_linear":
            g = np.array(self.weights, dtype=float)
        elif self.kind == "log_shifted":
            g = 1.0 / (np.minimum(r, self.caps) + self.epsilon)
        else:
            g = np.maximum(np.minimum(r, self.caps), GRAD_FLOOR) ** (-self.a)
        return np.where(r >= self.caps, 0.0, g)


def _caps_tuple(caps, n: int) -> tuple:
    caps = (math.inf,) * n if caps is None else tuple(caps)
    if len(caps) != n:
        raise ValueError(f"need {n} caps, got {len(caps)}")
    return caps


@dataclass(frozen=True)
class FairnessSolution:
    r_star: np.ndarray
    objective: float
    gap: float
    iterations: int
    slacks: tuple          # beta - alpha . r_star per region inequality
    binding: tuple         # directions whose slack is ~zero
    converged: bool        # gap <= tol; False when max_iters ran out first
    trajectory: tuple = ()


def _line_search_step(phi) -> float:
    """First argmax on [0, 1] of a concave phi that takes an array of steps.

    Each round evaluates phi on _LINE_SEARCH_POINTS evenly spaced steps of
    the bracket and keeps the cells on either side of the first maximum,
    which hold the argmax of a concave function.  Taking the first maximum
    prefers the smaller step on ties, so a constant phi gives 0.
    """
    lo, hi = 0.0, 1.0
    while hi - lo > _LINE_SEARCH_TOL:
        grid = lo + (hi - lo) * _GRID
        i = int(np.argmax(phi(grid)))
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, _LINE_SEARCH_POINTS - 1)]
    return float(grid[i])


def solve_fairness(
    model: DiscreteChannelModel,
    utilities: UtilitySpec,
    tol: float = 1e-6,
    max_iters: int = 10_000,
    step_rule: str = "line_search",
    region: StabilityRegion | None = None,
    keep_trace: bool = False,
) -> FairnessSolution:
    """Frank-Wolfe over the stability region starting from the origin.

    Each iteration asks the support-vertex oracle for the best rate point
    in the gradient direction, checks the linearization gap (an upper
    bound on the remaining suboptimality), and moves by an exact line
    search along the segment to that vertex (``step_rule="line_search"``,
    the one rule).  Stops when the gap drops to ``tol``, or after
    ``max_iters`` iterations with ``converged`` False.
    """
    if utilities.N != model.N:
        raise ValueError(f"dimension mismatch: utilities for {utilities.N} queues, model N={model.N}")
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be finite and positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if step_rule != "line_search":
        raise ValueError(f"unknown step rule {step_rule!r}")
    region = build_region(model) if region is None else region
    vertex = _vertex_oracle(model)

    r = np.zeros(model.N)
    gap = math.inf
    trace = []
    iters = 0
    for it in range(max_iters):
        grad = utilities.gradient(r)
        if not np.isfinite(grad).all():
            raise ValueError("non-finite utility gradient")
        if not grad.any():
            gap = 0.0
            break
        v = vertex(grad)
        gap = float(grad @ (v - r))
        if keep_trace:
            trace.append((r.copy(), utilities.value(r), gap))
        iters = it + 1
        if gap <= tol:
            break
        d = v - r
        r = r + _line_search_step(lambda g: utilities._values(r + g[:, None] * d)) * d

    r_star = np.clip(r, 0.0, np.asarray(utilities.caps))
    slacks = region.beta - region.A @ r_star
    return FairnessSolution(
        r_star=r_star,
        objective=utilities.value(r_star),
        gap=gap,
        iterations=iters,
        slacks=tuple(slacks.tolist()),
        binding=tuple(map(tuple, region.A[slacks <= 1e-6].tolist())),
        converged=gap <= tol,
        trajectory=tuple(trace),
    )


def fw_gap(
    model: DiscreteChannelModel,
    r,
    utilities: UtilitySpec,
    region: StabilityRegion | None = None,
) -> float:
    """Linearization gap at a feasible point; certifies (sub)optimality.

    Returns grad . (vertex(grad) - r), which is nonnegative and upper
    bounds how much utility any feasible point can add over r.
    """
    r = np.asarray(r, dtype=float)
    region = build_region(model) if region is None else region
    if membership_margin(region, r) < -1e-7:
        raise ValueError("rate point lies outside the region")
    grad = utilities.gradient(r)
    if not grad.any():
        return 0.0
    v = support_vertex(model, grad)
    return float(grad @ (v - r))
