"""The stability-region polytope of a discrete channel model; the support values of every model.

For a direction ``alpha >= 0`` the region's support value is

    h(alpha) = sum_s pi_s sum_k max_n alpha[n] * C_s[n, k],

because the best server allocation for a fixed state assigns every server
independently to the queue maximizing its weighted capacity.  Summing
per server first, h(alpha) = sum_k E[max_n alpha[n] * C[n, k]] depends on
the channel law only through each server's column law, for every joint
law (``column_laws``).  One inequality ``alpha . rate <= h(alpha)`` per
canonical direction describes the full region.  This module computes support values and the rate points
attaining them, assembles the inequality list, and evaluates membership
margins used both for verdicts and for occupancy bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .alpha_sets import build_vhat
from .channel_models import (
    ContinuousChannelModel,
    DiscreteChannelModel,
    ValidationError,
    _check_probability,
    _read,
    _read_count,
    _read_nonnegative,
    column_laws,
    descriptor_hash,
    enumerate_states,
    validate_discrete,
)
from .fluid_region import _exact_supports, _overflow_scale

BRUTE_FORCE_CAP = 4096
_VERDICT_TOL = 1e-9  # a margin within this of 0 reads as "boundary"


@dataclass(frozen=True, eq=False)
class StabilityRegion:
    """Finite inequality description {rate >= 0 : A @ rate <= beta}.

    ``A`` (D, N) holds integer directions and ``beta`` (D,) their supports
    in packets/slot, both read-only copies; ``provenance`` is the generating
    model's descriptor hash.  Regions compare by identity; compare
    ``inequalities`` for equal values.
    """

    A: np.ndarray
    beta: np.ndarray
    provenance: str = ""

    def __post_init__(self):
        A, beta = np.asarray(self.A), np.array(self.beta, dtype=float)
        if A.ndim != 2 or beta.shape != A.shape[:1]:
            raise ValueError(f"need A of shape (D, N) and beta of shape (D,), got {A.shape} and {beta.shape}")
        integral = (np.isfinite(A) & (A >= 0) & (A == np.trunc(A))).all() and A.any(axis=1).all()
        if not (integral and np.isfinite(beta).all()):
            raise ValueError("directions must be nonzero with nonnegative integer entries, and betas finite")
        for name, arr in (("A", A.astype(np.int64)), ("beta", beta)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def N(self) -> int:
        return self.A.shape[1]

    @property
    def inequalities(self) -> tuple:
        """(alpha, beta) pairs in row order, alpha an int tuple and beta a float."""
        return tuple(zip(map(tuple, self.A.tolist()), self.beta.tolist()))

    def verdict(self, rates) -> str:
        return _verdict(membership_margin(self, rates))

    def binding(self, rates) -> tuple:
        """Rows of ``A``, as int tuples, whose slack beta - A @ rates is at most 1e-6."""
        tight = self.beta - self.A @ _read_nonnegative(rates, "rates", (self.N,)) <= 1e-6
        return tuple(map(tuple, self.A[tight].tolist()))

    def to_dict(self) -> dict:
        inequalities = [{"alpha": list(alpha), "beta": beta} for alpha, beta in self.inequalities]
        return {"N": self.N, "inequalities": inequalities, "provenance": self.provenance}


def _verdict(delta: float) -> str:
    """"interior", "boundary" or "outside" for a membership margin delta."""
    return "interior" if delta > _VERDICT_TOL else "outside" if delta < -_VERDICT_TOL else "boundary"


def support_function(model, alpha) -> float:
    """Largest value of alpha . rate over the region, sum_k E[max_n alpha[n] C[n,k]].

    A discrete model is evaluated per server against its column law, at
    cost sum_k S_k * N for S_k column states of server k; a continuous one
    is the value that ``boundary_trace`` uses for this direction,
    integrated from the link cdfs (``fluid_region._exact_supports``).
    """
    laws = None if isinstance(model, ContinuousChannelModel) else column_laws(model)
    a = _read_nonnegative(alpha, "alpha", (model.N,), nonzero=True)
    scale = _overflow_scale(a.max())
    a = a * scale
    if laws is None:
        return float(_exact_supports(model, a[None])[0]) / scale
    return sum(float(probs @ (values * a).max(axis=1)) for values, probs in laws) / scale


def max_weight_argmax(weights, tie_rule: str = "lowest_index") -> np.ndarray:
    """Index of the largest weight along the last axis, ties broken by tie_rule.

    This is the one max-weight decision of a server: support_vertex applies
    it to alpha-weighted column states and run's batched slot loop to
    backlog-weighted capacities.
    """
    w = np.asarray(weights)
    if tie_rule == "lowest_index":
        return w.argmax(axis=-1)
    if tie_rule == "highest_index":
        return w.shape[-1] - 1 - w[..., ::-1].argmax(axis=-1)
    raise ValueError(f"unknown tie rule {tie_rule!r}")


def support_vertex(model: DiscreteChannelModel, alpha, tie_rule: str = "lowest_index") -> np.ndarray:
    """Expected per-queue service under the allocation maximizing alpha-weight.

    Every server in every state goes to the queue with the largest
    alpha[n] * capacity, ties broken deterministically by ``tie_rule``.
    The returned rate point r satisfies alpha . r = support_function(alpha)
    and lies in the region.  Contributions are summed server by server, in
    column-law order.
    """
    a = _read_nonnegative(alpha, "alpha", (model.N,), nonzero=True)
    return np.array(_vertex_kernel(model, tie_rule)((a * _overflow_scale(a.max())).tolist()))


def _vertex_kernel(model: DiscreteChannelModel, tie_rule: str = "lowest_index"):
    """The support vertex as an unchecked function of alpha, memoized on its cell.

    Stacks the model's column laws up front, as float values and their
    products with the state probabilities, so a caller that asks for many
    vertices of one model (Frank-Wolfe asks once per iteration) pays for
    the law once.  alpha must be a sequence of N finite, nonnegative
    floats, not all zero; nothing checks it (``support_vertex`` does).
    Each server adds the product prob * value of its winning queue.

    The winners depend on alpha only through how the products
    alpha[n] * c compare, for each nonzero capacity c that queue n takes
    in some column state, and with 0.0 (every zero capacity gives 0.0).
    These are the float products that ``values * alpha`` holds, so their
    rank pattern, each product mapped to its first position in the
    sorted list, fixes every comparison ``max_weight_argmax`` makes
    under either tie rule.  The vertex is computed once per pattern, a
    cell of the arrangement alpha[n] c = alpha[m] c', and kept as a tuple
    of N floats, so a repeat returns the same tuple, bit for bit what the
    computation would give, with nothing to convert.  The memo lives as
    long as the kernel and holds at most one vertex per call.
    """
    laws = column_laws(model)
    capacities = np.concatenate([v for v, _ in laws])
    values = capacities.astype(float)
    served = (np.concatenate([p for _, p in laws])[:, None] * values).ravel()
    rows = np.arange(0, served.size, model.N)
    pairs = [(n, float(c)) for n, column in enumerate(capacities.T.tolist()) for c in sorted(set(column)) if c]
    memo = {}

    def kernel(alpha) -> tuple:
        products = [alpha[n] * c for n, c in pairs]
        products.append(0.0)
        key = tuple(map(sorted(products).index, products))
        vertex = memo.get(key)
        if vertex is None:
            winner = max_weight_argmax(values * alpha, tie_rule)
            vertex = np.bincount(winner, weights=served.take(rows + winner), minlength=model.N)
            vertex = memo[key] = tuple(vertex.tolist())
        return vertex

    return kernel


def onoff_support(p, queue_subset) -> float:
    """Closed-form support of an ON-OFF model in an indicator direction.

    For independent 0/1 links with success matrix p and a nonempty queue
    set Q, the support equals K - sum_k prod_{n in Q} (1 - p[n, k]): each
    server contributes the probability that at least one queue in Q sees
    an ON link.
    """
    p = _read_nonnegative(p, "p", (None, None))
    _check_probability(p, "p")
    Q = sorted({_read(n, int, f"queue_subset[{i}]") for i, n in enumerate(queue_subset)})
    if not Q:
        raise ValueError("queue subset must be nonempty")
    N, K = p.shape
    if Q[0] < 0 or Q[-1] >= N:
        raise ValueError("queue subset out of range")
    off = np.prod(1.0 - p[Q, :], axis=0)
    return float(K - off.sum())


def build_region(model: DiscreteChannelModel) -> StabilityRegion:
    """Assemble the full inequality list for a discrete model.

    One inequality per canonical direction, its beta the support function
    there, for every kind.  For bernoulli models ``onoff_support`` gives the
    same betas in closed form; it is kept as an independent oracle.
    """
    validate_discrete(model)
    directions = build_vhat(model.M, model.N)
    beta = [support_function(model, alpha) for alpha in directions]
    return StabilityRegion(directions, beta, provenance=descriptor_hash(model))


def membership_margin(region: StabilityRegion, rates) -> float:
    """Largest uniform increase keeping rates + delta * 1 inside the region.

    delta = min over inequalities of (beta - alpha . rates) / sum(alpha);
    positive means strictly interior, zero on the boundary, negative
    outside.  This is the slack that drives the occupancy bound.
    """
    lam = _read_nonnegative(rates, "rates", (region.N,))
    if not len(region.beta):
        raise ValueError("region has no inequalities")
    scale = _overflow_scale(lam.max())  # alpha . rates overflows for finite rates near the float limit
    delta = (region.beta * scale - region.A @ (lam * scale)) / region.A.sum(axis=1)
    return float(delta.min() / scale)


def brute_force_support(model: DiscreteChannelModel, alpha, state_cap: int = BRUTE_FORCE_CAP) -> float:
    """Independent oracle for support_function: try every allocation matrix.

    Enumerates all joint channel states and, per state, the value of all
    N^K allocation matrices (every server-to-queue assignment), then takes
    the literal maximum.  No per-server decomposition is used, so this
    cross-checks the fast path.  Only for small instances: at most
    ``state_cap`` states and ``BRUTE_FORCE_CAP`` allocations.
    """
    a = _read_nonnegative(alpha, "alpha", (model.N,), nonzero=True)
    scale = _overflow_scale(a.max())
    a = a * scale
    state_cap = _read_count(state_cap, "state_cap", 1)
    n_alloc = model.N ** model.K
    if n_alloc > BRUTE_FORCE_CAP:
        raise ValidationError(f"allocation cap exceeded: N^K = {n_alloc} > {BRUTE_FORCE_CAP}")
    states = enumerate_states(model, cap=state_cap)
    total = 0.0
    for mat, prob in states:
        weighted = a[:, None] * np.asarray(mat, dtype=float)  # (N, K)
        # cartesian sums over one column choice per server = all allocations
        sums = reduce(np.add.outer, [weighted[:, k] for k in range(model.K)])
        total += prob * float(sums.max())
    return total / scale
