"""The stability-region polytope of a discrete channel model.

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

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .alpha_sets import build_vhat
from .channel_models import (
    DiscreteChannelModel,
    ValidationError,
    column_laws,
    descriptor_hash,
    enumerate_states,
    validate,
    validate_discrete,
)

BRUTE_FORCE_CAP = 4096


@dataclass(frozen=True)
class StabilityRegion:
    """Finite inequality description {rate >= 0 : alpha . rate <= beta}.

    ``inequalities`` holds (alpha, beta) pairs with alpha an integer tuple
    and beta in packets/slot; ``provenance`` is the descriptor hash of the
    generating model.
    """

    N: int
    inequalities: tuple
    provenance: str = ""

    def margin(self, rates) -> float:
        return membership_margin(self, rates)

    def verdict(self, rates, tol: float = 1e-9) -> str:
        delta = self.margin(rates)
        if delta > tol:
            return "interior"
        if delta < -tol:
            return "outside"
        return "boundary"

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "inequalities": [
                {"alpha": list(alpha), "beta": beta} for alpha, beta in self.inequalities
            ],
            "provenance": self.provenance,
        }


def _check_direction(alpha, N: int) -> np.ndarray:
    a = np.asarray(alpha, dtype=float)
    if a.shape != (N,):
        raise ValueError(f"direction must have length {N}, got shape {a.shape}")
    if not (np.isfinite(a) & (a >= 0)).all():
        raise ValueError("direction coordinates must be finite and nonnegative")
    if not a.any():
        raise ValueError("zero vector is not a direction")
    return a


def support_function(model: DiscreteChannelModel, alpha) -> float:
    """Largest value of alpha . rate over the region.

    Evaluated per server against its column law, sum_k E[max_n alpha[n] C[n,k]],
    at cost sum_k S_k * N for S_k column states of server k.
    """
    laws = column_laws(model)
    a = _check_direction(alpha, model.N)
    return sum(float(probs @ (values * a).max(axis=1)) for values, probs in laws)


def max_weight_argmax(weights, tie_rule: str = "lowest_index") -> np.ndarray:
    """Index of the largest weight along the last axis, ties broken by tie_rule.

    This is the one max-weight decision of a server: support_vertex applies
    it to alpha-weighted column states, mw_allocate to backlog-weighted
    capacities and as_lcq_allocate to the backlogs of connected queues.
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
    return _vertex_oracle(model, tie_rule)(alpha)


def _vertex_oracle(model: DiscreteChannelModel, tie_rule: str = "lowest_index"):
    """support_vertex as a function of alpha, with the model's law built once.

    Validates the model and stacks its column laws up front, so a caller
    that asks for many vertices of one model (Frank-Wolfe asks once per
    iteration) pays for the law once.
    """
    laws = column_laws(model)
    values = np.concatenate([v for v, _ in laws])
    probs = np.concatenate([p for _, p in laws])
    rows = np.arange(len(values))

    def vertex(alpha) -> np.ndarray:
        a = _check_direction(alpha, model.N)
        winner = max_weight_argmax(values * a, tie_rule)
        served = values[rows, winner]
        return np.bincount(winner, weights=probs * served, minlength=model.N)

    return vertex


def onoff_support(p, queue_subset) -> float:
    """Closed-form support of an ON-OFF model in an indicator direction.

    For independent 0/1 links with success matrix p and a nonempty queue
    set Q, the support equals K - sum_k prod_{n in Q} (1 - p[n, k]): each
    server contributes the probability that at least one queue in Q sees
    an ON link.
    """
    p = np.asarray(p, dtype=float)
    Q = sorted(set(int(n) for n in queue_subset))
    if not Q:
        raise ValueError("queue subset must be nonempty")
    N, K = p.shape
    if Q[0] < 0 or Q[-1] >= N:
        raise ValueError("queue subset out of range")
    off = np.prod(1.0 - p[Q, :], axis=0)
    return float(K - off.sum())


def onoff_region(p) -> StabilityRegion:
    """Exact region of an ON-OFF model: 2^N - 1 subset-sum inequalities.

    For every nonempty queue set Q:  sum_{n in Q} rate_n <= onoff_support(p, Q),
    encoded with the 0/1 indicator of Q as the direction.
    """
    p = np.asarray(p, dtype=float)
    if (p < 0).any() or (p > 1).any():
        raise ValidationError("negative probability or >1 in ON-OFF matrix")
    N = p.shape[0]
    ineqs = []
    for mask in range(1, 2**N):
        alpha = tuple((mask >> n) & 1 for n in range(N))
        Q = [n for n in range(N) if alpha[n]]
        ineqs.append((alpha, onoff_support(p, Q)))
    ineqs.sort(key=lambda ab: ab[0])
    model = DiscreteChannelModel.bernoulli(p.tolist())
    return StabilityRegion(N=N, inequalities=tuple(ineqs), provenance=descriptor_hash(model))


def build_region(model: DiscreteChannelModel, method: str = "auto") -> StabilityRegion:
    """Assemble the full inequality list for a discrete model.

    method "vhat" evaluates the support function over every canonical
    direction; "onoff" uses the bernoulli closed form (2^N - 1 subset
    inequalities, identical direction set since M = 1); "auto" picks
    "onoff" for bernoulli models and "vhat" otherwise.
    """
    validate_discrete(model)
    if method == "auto":
        method = "onoff" if model.kind == "bernoulli" else "vhat"
    if method == "onoff":
        if model.kind != "bernoulli":
            raise ValidationError("onoff fast path requires a bernoulli model")
        return onoff_region(np.array(model.p))
    if method != "vhat":
        raise ValueError(f"unknown region method {method!r}")
    directions = build_vhat(model.M, model.N)
    ineqs = tuple((alpha, support_function(model, alpha)) for alpha in directions)
    return StabilityRegion(N=model.N, inequalities=ineqs, provenance=descriptor_hash(model))


def membership_margin(region: StabilityRegion, rates) -> float:
    """Largest uniform increase keeping rates + delta * 1 inside the region.

    delta = min over inequalities of (beta - alpha . rates) / sum(alpha);
    positive means strictly interior, zero on the boundary, negative
    outside.  This is the slack that drives the occupancy bound.
    """
    lam = np.asarray(rates, dtype=float)
    if lam.shape != (region.N,):
        raise ValueError(f"rate point must have length {region.N}")
    if not (np.isfinite(lam) & (lam >= 0)).all():
        raise ValueError("rates must be finite and nonnegative")
    if not region.inequalities:
        raise ValueError("region has no inequalities")
    # alpha . rates overflows for finite rates near the float limit.  Rates
    # and betas are then divided by a power of two, which is exact, so the
    # margin keeps its digits; below the threshold nothing is scaled.
    scale = 2.0 ** -math.frexp(lam.max())[1] if lam.max() > 2.0**512 else 1.0
    lam = lam * scale
    delta = np.inf
    for alpha, beta in region.inequalities:
        a = np.asarray(alpha, dtype=float)
        delta = min(delta, (beta * scale - float(a @ lam)) / float(a.sum()))
    return float(delta / scale)


def brute_force_support(
    model: DiscreteChannelModel,
    alpha,
    state_cap: int = BRUTE_FORCE_CAP,
    alloc_cap: int = BRUTE_FORCE_CAP,
) -> float:
    """Independent oracle for support_function: try every allocation matrix.

    Enumerates all joint channel states and, per state, the value of all
    N^K allocation matrices (every server-to-queue assignment), then takes
    the literal maximum.  No per-server decomposition is used, so this
    cross-checks the fast path.  Only for small instances.
    """
    validate(model)
    a = _check_direction(alpha, model.N)
    n_alloc = model.N ** model.K
    if n_alloc > alloc_cap:
        raise ValidationError(f"allocation cap exceeded: N^K = {n_alloc} > {alloc_cap}")
    states = enumerate_states(model, cap=state_cap)
    total = 0.0
    for mat, prob in states:
        weighted = a[:, None] * np.asarray(mat, dtype=float)  # (N, K)
        # cartesian sums over one column choice per server = all allocations
        sums = reduce(np.add.outer, [weighted[:, k] for k in range(model.K)])
        total += prob * float(sums.max())
    return total
