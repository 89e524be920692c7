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

from .capacity_region import StabilityRegion, _vertex_kernel, build_region, membership_margin, support_vertex
from .channel_models import DiscreteChannelModel, ValidationError, _read_kind

GRAD_FLOOR = 1e-12  # keeps power-law gradients finite at zero rates
# The line search stops once its bracket is this wide, or once a Newton
# move is shorter than _NEWTON_STALL (a few ulps of a step near 1).
_LINE_SEARCH_TOL = 1e-12
_NEWTON_STALL = 1e-15


_UTILITY_KINDS = {
    "weighted_linear": {"caps": [float], "weights": [float]},
    "log_shifted": {"caps": [float], "epsilon": float},
    "alpha_fair": {"caps": [float], "a": float},
}


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
        _read_kind(self, _UTILITY_KINDS, "utility")
        if self.kind == "weighted_linear":
            if not all(0 <= w < math.inf for w in self.weights):
                raise ValidationError("linear utility weights must be finite and nonnegative")
            if len(self.caps) != len(self.weights):
                raise ValidationError(f"need {len(self.weights)} caps, got {len(self.caps)}")
        elif self.kind == "log_shifted":
            if not 0 < self.epsilon < math.inf:
                raise ValidationError("epsilon must be finite and positive")
        elif not 0 <= self.a < math.inf or self.a == 1.0:
            raise ValidationError("fairness exponent must be finite, >= 0 and != 1")
        if not all(c >= 0 for c in self.caps):
            raise ValidationError("caps must be nonnegative (infinity allowed), not NaN")

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
        if r.shape != (self.N,):
            raise ValueError(f"rate point must have length {self.N}, got shape {r.shape}")
        return np.array(self._gradient(r.tolist()))

    def _gradient(self, r) -> list:
        """gradient on a float sequence, as a list."""
        return [0.0 if rn >= cap else self._derivative(n, rn) for n, (rn, cap) in enumerate(zip(r, self.caps))]

    def _derivative(self, n: int, x: float) -> float:
        """u_n'(x) of queue n below its cap.

        The one derivative formula: ``gradient`` and ``_slope`` both read
        it.  Power-law derivatives are floored at GRAD_FLOOR, so a queue at
        zero rate has a finite, positive pull.
        """
        if self.kind == "weighted_linear":
            return self.weights[n]
        if self.kind == "log_shifted":
            return 1.0 / (x + self.epsilon)
        try:
            return max(x, GRAD_FLOOR) ** -self.a
        except OverflowError:  # float pow raises where numpy returns inf
            return math.inf

    def _slope(self, r, d, g: float) -> tuple[float, float]:
        """Right slope and curvature of g -> value(r + g d), on float sequences.

        A queue adds d_n u_n'(x_n) at x_n = r_n + g d_n while it stays below
        its cap over a small step to the right: a queue at its cap adds
        nothing moving up and d_n u_n'(cap) moving down.  Below GRAD_FLOOR a
        power-law derivative is constant, so it adds no curvature there.
        """
        slope = curvature = 0.0
        log, power = self.kind == "log_shifted", self.kind == "alpha_fair"
        for n, (rn, dn, cap) in enumerate(zip(r, d, self.caps)):
            x = rn + g * dn
            if dn == 0.0 or x > cap or (x == cap and dn > 0.0):
                continue
            u = self._derivative(n, x)
            slope += dn * u
            if log:
                curvature -= dn * dn * u * u
            elif power and x > GRAD_FLOOR:
                curvature -= self.a * dn * dn * u / x
        return slope, curvature


def _caps_tuple(caps, n: int) -> tuple:
    caps = (math.inf,) * n if caps is None else tuple(caps)
    if len(caps) != n:
        raise ValidationError(f"need {n} caps, got {len(caps)}")
    return caps


@dataclass(frozen=True)
class FairnessSolution:
    """A Frank-Wolfe result; ``StabilityRegion.binding(r_star)`` gives its binding inequalities."""

    r_star: np.ndarray
    objective: float
    gap: float
    iterations: int
    converged: bool        # gap <= tol, the gap taken at r_star
    trajectory: tuple = ()


def _line_search_step(utilities: UtilitySpec, r, d) -> float:
    """Smallest maximiser on [0, 1] of the concave phi(g) = value(r + g d).

    Keeps a bracket [lo, hi] with right slopes phi'(lo+) > 0 >= phi'(hi+),
    so the smallest maximiser lies in (lo, hi].  Each step is a Newton step
    on the slope from the last point, or a bisection when that step would
    leave the bracket, would not halve the previous move, or the curvature
    is zero (linear pieces, plateaus).  A constant phi gives 0.  r and d
    are sequences of N numbers, taken as Python floats.
    """
    r, d = list(map(float, r)), list(map(float, d))
    slope, curvature = utilities._slope(r, d, 0.0)
    if slope <= 0.0:
        return 0.0
    if utilities._slope(r, d, 1.0)[0] > 0.0:
        return 1.0
    lo, hi, g, move = 0.0, 1.0, 0.0, 2.0
    while hi - lo > _LINE_SEARCH_TOL:
        newton = g - slope / curvature if curvature < 0.0 else math.inf
        if lo < newton <= hi and abs(newton - g) <= move / 2:
            move, g = abs(newton - g), newton
            if move < _NEWTON_STALL:
                return g
        else:
            mid = 0.5 * (lo + hi)
            move, g = abs(mid - g), mid
        slope, curvature = utilities._slope(r, d, g)
        if slope > 0.0:
            lo = g
        else:
            hi = g
    return hi


def _dot(x, y) -> float:
    """x . y of two float sequences, added left to right from 0.0."""
    total = 0.0
    for a, b in zip(x, y):
        total += a * b
    return total


def _check_dimensions(model: DiscreteChannelModel, utilities: UtilitySpec, region: StabilityRegion | None) -> None:
    if utilities.N != model.N:
        raise ValueError(f"dimension mismatch: utilities for {utilities.N} queues, model N={model.N}")
    if region is not None and region.N != model.N:
        raise ValueError(f"dimension mismatch: region for {region.N} queues, model N={model.N}")


def solve_fairness(
    model: DiscreteChannelModel,
    utilities: UtilitySpec,
    tol: float = 1e-6,
    max_iters: int = 10_000,
    step_rule: str = "line_search",
    keep_trace: bool = False,
) -> FairnessSolution:
    """Frank-Wolfe over the stability region starting from the origin.

    Each iteration asks the support-vertex oracle for the best rate point
    in the gradient direction, checks the linearization gap (an upper
    bound on the remaining suboptimality), and moves by an exact line
    search along the segment to that vertex (``step_rule="line_search"``,
    the one rule).  Stops when the gap drops to ``tol``, or after
    ``max_iters`` iterations.  The reported gap is always the one at
    ``r_star``, and ``converged`` is whether it is at most ``tol``.

    The iterate, gradient and direction are lists of N floats, and the
    vertex comes from the unchecked oracle kernel: every gradient is
    checked finite here, has length N and is nonnegative, since the
    utilities are nondecreasing.  The iterations need only that oracle,
    so the region is never built here.
    """
    _check_dimensions(model, utilities, None)
    if not 0 < tol < math.inf:
        raise ValueError("tolerance must be finite and positive")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if step_rule != "line_search":
        raise ValueError(f"unknown step rule {step_rule!r}")
    vertex = _vertex_kernel(model)

    r = [0.0] * model.N
    gap = math.inf
    trace = []
    iters = 0
    for it in range(max_iters):
        grad = utilities._gradient(r)
        if not all(map(math.isfinite, grad)):
            raise ValueError("non-finite utility gradient")
        if not any(grad):
            gap = 0.0
            break
        d = [vn - rn for vn, rn in zip(vertex(grad).tolist(), r)]
        gap = _dot(grad, d)
        if keep_trace:
            trace.append((np.array(r), utilities.value(r), gap))
        iters = it + 1
        if gap <= tol:
            break
        step = _line_search_step(utilities, r, d)
        r = [rn + step * dn for rn, dn in zip(r, d)]
    else:  # max_iters moves: the last gap belongs to the point before r
        grad = utilities._gradient(r)
        gap = _dot(grad, [vn - rn for vn, rn in zip(vertex(grad).tolist(), r)]) if any(grad) else 0.0

    r_star = np.clip(r, 0.0, np.asarray(utilities.caps))
    return FairnessSolution(
        r_star=r_star,
        objective=utilities.value(r_star),
        gap=gap,
        iterations=iters,
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
    _check_dimensions(model, utilities, region)
    r = np.asarray(r, dtype=float)
    region = build_region(model) if region is None else region
    if membership_margin(region, r) < -1e-7:
        raise ValueError("rate point lies outside the region")
    grad = utilities._gradient(r.tolist())
    if not any(grad):
        return 0.0
    return _dot(grad, (support_vertex(model, grad) - r).tolist())
