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

from .capacity_region import _vertex_kernel, build_region, membership_margin, support_vertex
from .channel_models import DiscreteChannelModel, ValidationError, _read_count, _read_kind, _read_nonnegative

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
        if not self.caps:
            raise ValidationError("caps must be nonempty")
        _read_nonnegative([c for c in self.caps if c != math.inf], "caps other than inf", (None,))
        if self.kind == "weighted_linear":
            _read_nonnegative(self.weights, "weights", (self.N,))
        elif self.kind == "log_shifted":
            _read_nonnegative(self.epsilon, "epsilon", (), nonzero=True)
        else:
            _read_nonnegative(self.a, "a", ())
            if self.a == 1.0:
                raise ValidationError("a must be other than 1, got 1.0")

    @classmethod
    def weighted_linear(cls, weights, caps=None) -> "UtilitySpec":
        weights = tuple(weights)
        return cls(kind="weighted_linear", caps=_caps_tuple(caps, len(weights)), weights=weights)

    @classmethod
    def log_shifted(cls, n_queues: int, epsilon: float = 1e-6, caps=None) -> "UtilitySpec":
        n_queues = _read_count(n_queues, "n_queues", 1)
        return cls(kind="log_shifted", caps=_caps_tuple(caps, n_queues), epsilon=epsilon)

    @classmethod
    def alpha_fair(cls, n_queues: int, a: float, caps=None) -> "UtilitySpec":
        n_queues = _read_count(n_queues, "n_queues", 1)
        return cls(kind="alpha_fair", caps=_caps_tuple(caps, n_queues), a=a)

    @property
    def N(self) -> int:
        return len(self.caps)

    def value(self, r) -> float:
        return float(self._values(_read_nonnegative(r, "r", (self.N,))))

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
        return np.array(self._gradient_kernel()(_read_nonnegative(r, "r", (self.N,)).tolist()))

    def _gradient_kernel(self):
        """r -> the gradient list: 0.0 at or past a cap, else u_n'(r_n) of the kind.

        Power-law derivatives are floored at GRAD_FLOOR, so a queue at zero
        rate has a finite, positive pull.
        """
        caps, weights, eps, a = self.caps, self.weights, self.epsilon, self.a
        if self.kind == "weighted_linear":
            return lambda r: [0.0 if x >= cap else w for x, cap, w in zip(r, caps, weights)]
        if self.kind == "log_shifted":
            return lambda r: [0.0 if x >= cap else 1.0 / (x + eps) for x, cap in zip(r, caps)]
        return lambda r: [0.0 if x >= cap else _floored_power(x, a) for x, cap in zip(r, caps)]

    def _slope_kernel(self, r, d):
        """g -> the right slope and curvature of value(r + g d), r and d sequences of Python floats.

        A queue adds d_n u_n'(x_n) at x_n = r_n + g d_n while it stays below
        its cap over a small step to the right: a queue at its cap adds
        nothing moving up and d_n u_n'(cap) moving down.  Queues with d_n = 0
        add nothing and are dropped; d_n w_n, d_n^2 and a d_n^2 are computed
        here once.  Below GRAD_FLOOR a power-law derivative is constant, so
        it adds no curvature there.
        """
        eps, a = self.epsilon, self.a
        queues = zip(r, d, self.caps)
        if self.kind == "weighted_linear":
            queues = [(rn, dn, cap, dn * w) for (rn, dn, cap), w in zip(queues, self.weights) if dn]

            def kernel(g):
                slope = 0.0
                for rn, dn, cap, dw in queues:
                    x = rn + g * dn
                    if not (x >= cap and (x > cap or dn > 0.0)):
                        slope += dw
                return slope, 0.0
        elif self.kind == "log_shifted":
            queues = [(rn, dn, cap, dn * dn) for rn, dn, cap in queues if dn]

            def kernel(g):
                slope = curvature = 0.0
                for rn, dn, cap, dd in queues:
                    x = rn + g * dn
                    if x >= cap and (x > cap or dn > 0.0):
                        continue
                    u = 1.0 / (x + eps)
                    slope += dn * u
                    curvature -= dd * u * u
                return slope, curvature
        else:
            queues = [(rn, dn, cap, a * dn * dn) for rn, dn, cap in queues if dn]

            def kernel(g):
                slope = curvature = 0.0
                for rn, dn, cap, add in queues:
                    x = rn + g * dn
                    if x >= cap and (x > cap or dn > 0.0):
                        continue
                    u = _floored_power(x, a)
                    slope += dn * u
                    if x > GRAD_FLOOR:
                        curvature -= add * u / x
                return slope, curvature
        return kernel


def _floored_power(x: float, a: float) -> float:
    """max(x, GRAD_FLOOR) ** -a, or inf where Python's float pow overflows (numpy's gives inf)."""
    try:
        return max(x, GRAD_FLOOR) ** -a
    except OverflowError:
        return math.inf


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


def _line_search_step(utilities: UtilitySpec, r, d) -> float:
    """Smallest maximiser on [0, 1] of the concave phi(g) = value(r + g d).

    Keeps a bracket [lo, hi] with right slopes phi'(lo+) > 0 >= phi'(hi+),
    so the smallest maximiser lies in (lo, hi].  Each step is a Newton step
    on the slope from the last point, or a bisection when that step would
    leave the bracket, would not halve the previous move, or the curvature
    is zero (linear pieces, plateaus).  A constant phi gives 0.  r and d
    are sequences of N Python floats; they are not converted, so a caller
    with arrays passes ``.tolist()``.
    """
    slope_at = utilities._slope_kernel(r, d)
    slope, curvature = slope_at(0.0)
    if slope <= 0.0:
        return 0.0
    if slope_at(1.0)[0] > 0.0:
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
        slope, curvature = slope_at(g)
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


def _check_dimensions(model: DiscreteChannelModel, utilities: UtilitySpec) -> None:
    if utilities.N != model.N:
        raise ValueError(f"dimension mismatch: utilities for {utilities.N} queues, model N={model.N}")


def solve_fairness(
    model: DiscreteChannelModel,
    utilities: UtilitySpec,
    tol: float = 1e-6,
    max_iters: int = 10_000,
    step_rule: str = "line_search",
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
    _check_dimensions(model, utilities)
    tol = float(_read_nonnegative(tol, "tol", (), nonzero=True))
    max_iters = _read_count(max_iters, "max_iters", 1)
    if step_rule != "line_search":
        raise ValueError(f"unknown step rule {step_rule!r}")
    vertex, gradient = _vertex_kernel(model), utilities._gradient_kernel()

    r = [0.0] * model.N
    gap = math.inf
    iters = 0
    for it in range(max_iters):
        grad = gradient(r)
        if not all(map(math.isfinite, grad)):
            raise ValueError("non-finite utility gradient")
        if not any(grad):
            gap = 0.0
            break
        d = [vn - rn for vn, rn in zip(vertex(grad), r)]
        gap = _dot(grad, d)
        iters = it + 1
        if gap <= tol:
            break
        step = _line_search_step(utilities, r, d)
        r = [rn + step * dn for rn, dn in zip(r, d)]
    else:  # max_iters moves: the last gap belongs to the point before r
        grad = gradient(r)
        gap = _dot(grad, [vn - rn for vn, rn in zip(vertex(grad), r)]) if any(grad) else 0.0

    r_star = np.clip(r, 0.0, np.asarray(utilities.caps))
    return FairnessSolution(
        r_star=r_star,
        objective=utilities.value(r_star),
        gap=gap,
        iterations=iters,
        converged=gap <= tol,
    )


def fw_gap(model: DiscreteChannelModel, r, utilities: UtilitySpec) -> float:
    """Linearization gap at a feasible point; certifies (sub)optimality.

    Returns grad . (vertex(grad) - r), which is nonnegative and upper
    bounds how much utility any feasible point can add over r.
    """
    _check_dimensions(model, utilities)
    r = _read_nonnegative(r, "r", (model.N,))
    if membership_margin(build_region(model), r) < -1e-7:
        raise ValueError("rate point lies outside the region")
    grad = utilities._gradient_kernel()(r.tolist())
    if not any(grad):
        return 0.0
    return _dot(grad, (support_vertex(model, grad) - r).tolist())
