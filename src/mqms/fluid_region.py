"""Stability surface of the fluid system with continuous channel laws.

With independent continuous per-link capacities every nonnegative
direction yields a supporting half-plane ``alpha . rate <= h(alpha)``,

    h(alpha) = sum_k E[max_n alpha[n] C[n,k]]
             = sum_k integral_0^inf (1 - prod_n F[n,k](x / alpha[n])) dx,

so the region is a convex surface rather than a polytope.  The support
values are computed from the link cdfs, exactly up to rounding, for a
whole array of directions at once.  For two queues the upper boundary is
traced as the lower envelope of the support lines, with a certified
bracket below it.  A Monte Carlo estimate of the support value is kept as
an independent oracle, and the single-server exponential case has a
closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel_models import (
    ContinuousChannelModel,
    ValidationError,
    _read_count,
    _read_nonnegative,
    link_means,
    sample_states,
)

# The 16-point Gauss-Legendre rule on [-1, 1], one rule per piece: its
# positive nodes and their weights, as numpy.polynomial.legendre.leggauss(16)
# gives them.  Inlined because that module costs about 4 ms to import and
# 1 MB of memory once called.
_GAUSS_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
                0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499)
_GAUSS_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
                  0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)
_EXP_CUT_SCALES = 4   # an exponential link cuts the pieces every 4 of its scales ...
_EXP_CUTS = 10        # ... up to 40, past which its cdf is 1 to within e^-40
_TRACE_BLOCK = 512    # directions evaluated together: bounds a trace's work arrays


@dataclass(frozen=True)
class BoundaryCurve:
    """Traced upper boundary for a two-queue system.

    ``lambda2[i]`` is the envelope of the exact support lines at
    ``lambda1[i]``, an upper bound on the largest sustainable rate for
    queue 2 when queue 1 receives ``lambda1[i]``.  ``stderr[i]`` is the
    width of a certified bracket: the true boundary lies in
    ``[lambda2[i] - stderr[i], lambda2[i]]``, up to rounding.  The name is
    kept from the Monte Carlo tracer it replaced; ``samples`` echoes that
    tracer's argument, which the trace no longer uses.
    """

    lambda1: np.ndarray
    lambda2: np.ndarray
    stderr: np.ndarray
    directions: int
    samples: int


def mc_support_function(
    model: ContinuousChannelModel,
    alpha,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[sum_k max_n alpha[n] * C[n,k]].

    Returns (estimate, standard error), the error infinite for one sample.
    Deterministic for a fixed seed.  An oracle for the exact support values
    that ``boundary_trace`` uses.  ``samples`` is a count of at least 1
    (an integral float reads as one; a bool does not).
    """
    a = _read_nonnegative(alpha, "alpha", (model.N,), nonzero=True)
    samples = _read_count(samples, "samples", 1)
    block = sample_states(model, np.random.default_rng(seed), samples)
    vals = (a[:, None] * block).max(axis=1).sum(axis=1)
    se = float(vals.std(ddof=1)) / math.sqrt(samples) if samples > 1 else math.inf
    return float(vals.mean()), se


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [-1, 1], in increasing order, read-only."""
    nodes, weights = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    rule = np.concatenate((-nodes[::-1], nodes)), np.concatenate((weights[::-1], weights))
    for a in rule:
        a.flags.writeable = False  # one cached copy serves every call
    return rule


def _exact_supports(model: ContinuousChannelModel, alphas) -> np.ndarray:
    """h(alpha) = sum_k E[max_n alpha[n] C[n,k]] for every row of alphas, shape (D, N).

    Per server, E[max_n Y_n] = integral_0^inf (1 - prod_n G_n(x)) dx, where
    G_n(x) = F_n(x / alpha[n]) is the cdf of Y_n = alpha[n] C[n,k], and 1
    on x >= 0 when alpha[n] = 0.  The breakpoints alpha[n] b, for b every
    atom of an empirical link and the top of every uniform one, cut
    [0, T], T the largest of them, into pieces on which each empirical cdf
    is constant and each uniform cdf linear.  An exponential link adds a
    cut every 4 of its scales alpha[n] * mean, up to 40.  Cuts past T and
    coinciding breakpoints leave pieces of zero width, which add 0 and are
    not evaluated (``_up_to_top``).  A server with only empirical links is
    summed exactly, piece by piece.  Any other server is integrated with a
    16-point Gauss-Legendre rule per piece: exact on the polynomials that
    uniform links make, and at rounding level on exponential factors,
    whose pieces span at most 4 scales.
    Past T only exponential links stay below 1, and by inclusion-exclusion

        integral_T^inf (1 - prod_j (1 - e^{-x r_j})) dx
            = sum over nonempty sets S of (-1)^(|S|+1) e^{-T r_S} / r_S,

    with r_S the sum over S of the rates r_j = 1 / (alpha[j] mean_j).  The
    tail has 2^J - 1 terms for J exponential links on a server, and its
    cancellation costs about 2^J / J ulps: meant for a few per server.
    Every sum is a ufunc reduction, not a BLAS product, so the bits do not
    depend on the BLAS build, and each row's value does not depend on the
    other rows: evaluating the directions in blocks gives the same bits.
    """
    alphas = np.asarray(alphas, dtype=float)
    on = alphas > 0                      # alpha[n] = 0 (or -0.0): Y_n = 0, never above x
    safe = np.where(on, alphas, 1.0)     # divisors, masked by ``on`` wherever used
    total = np.zeros(len(alphas))
    for k in range(model.K):
        total += _server_supports([row[k] for row in model.links], alphas, on, safe)
    return total


def _server_supports(links, alphas, on, safe) -> np.ndarray:
    """E[max_n alpha[n] C[n]] for one server's links, for every row of alphas (D, N)."""
    D = len(alphas)
    steps, ramps, exps = [], [], []  # (n, sorted atoms, cdf below and at each), (n, top), (n, mean)
    tops = [np.zeros((D, 1))]
    for n, d in enumerate(links):
        if d.kind == "empirical":
            atoms, counts = np.unique(np.asarray(d.values, dtype=float), return_counts=True)
            steps.append((n, atoms, np.concatenate(([0.0], np.cumsum(counts) / len(d.values)))))
            tops.append(alphas[:, n, None] * atoms)
        elif d.kind == "uniform":
            ramps.append((n, d.high))
            tops.append(alphas[:, n, None] * d.high)
        else:
            exps.append((n, d.mean))
    tops = np.concatenate(tops, axis=1)
    T = tops.max(axis=1)
    support = _up_to_top(steps, ramps, exps, tops, T, alphas, on, safe) if steps or ramps else 0.0
    return support + _exp_tail(exps, T, on, safe) if exps else support


def _up_to_top(steps, ramps, exps, tops, T, alphas, on, safe) -> np.ndarray:
    """integral_0^T (1 - prod_n G_n(x)) dx, piece by piece.

    Clamping the breakpoints at T leaves many pieces of zero width: 71%
    and 79% on the two servers of demos/models/mixed_2x2_cont.json at 181
    directions.
    Only the live pieces (hi > lo) of all directions are evaluated, as one
    flat (pieces, nodes) array, with the same elementwise operations per
    piece.  Each integral is put back in its (direction, piece) cell of a
    zeroed array, so a dead piece adds the +0.0 it would add if evaluated
    and the sum over pieces sees the same operands in the same order.
    """
    cuts = np.arange(1, _EXP_CUTS + 1) * float(_EXP_CUT_SCALES)
    bps = np.concatenate([tops] + [alphas[:, n, None] * (mean * cuts) for n, mean in exps], axis=1)
    bps = np.sort(np.minimum(bps, T[:, None]), axis=1)
    live = bps[:, 1:] > bps[:, :-1]      # (D, pieces)
    rows = np.nonzero(live)[0]           # the direction of each live piece
    lo, hi = bps[:, :-1][live], bps[:, 1:][live]
    half = (hi - lo) / 2.0
    mid = lo + half

    # empirical cdfs are constant on each piece: read them at its midpoint
    below = np.ones_like(mid)
    for n, atoms, cdf in steps:
        below *= _masked(cdf[np.searchsorted(atoms, mid / safe[rows, n], side="right")], on[rows, n])
    pieces = np.zeros(live.shape)
    if not (ramps or exps):
        pieces[live] = (hi - lo) * (1.0 - below)
        return np.add.reduce(pieces, axis=1)

    nodes, weights = _gauss_legendre()
    x = half[:, None] * nodes  # (live pieces, nodes)
    x += mid[:, None]
    below = np.repeat(below[:, None], len(nodes), axis=1)
    cdf = np.empty_like(x)  # one work array for every link's cdf
    for n, high in ramps:
        np.divide(x, (safe[rows, n] * high)[:, None], out=cdf)
        below *= _masked(np.minimum(cdf, 1.0, out=cdf), on[rows, n, None])
    for n, mean in exps:
        np.divide(x, -(safe[rows, n] * mean)[:, None], out=cdf)
        below *= _masked(np.negative(np.expm1(cdf, out=cdf), out=cdf), on[rows, n, None])
    np.subtract(1.0, below, out=below)
    below *= weights
    pieces[live] = half * np.add.reduce(below, axis=1)
    return np.add.reduce(pieces, axis=1)


def _exp_tail(exps, T, on, safe) -> np.ndarray:
    """integral_T^inf (1 - prod_j G_j(x)) dx over the exponential links, by inclusion-exclusion."""
    J = len(exps)
    members = (np.arange(1, 2**J)[:, None] >> np.arange(J)) & 1  # (2^J - 1, J): the sets S
    sign = np.where(members.sum(axis=1) % 2 == 1, 1.0, -1.0)
    ns = [n for n, _ in exps]
    rates = 1.0 / (safe[:, ns] * np.array([mean for _, mean in exps]))
    rate_sets = np.add.reduce(rates[:, None, :] * members, axis=2)
    live = ~np.logical_and(~on[:, ns, None], members.T).any(axis=1)  # no link of S weighted 0
    return np.add.reduce(np.where(live, np.exp(-T[:, None] * rate_sets) / rate_sets, 0.0) * sign, axis=1)


def _masked(cdf: np.ndarray, on: np.ndarray) -> np.ndarray:
    """The cdf where the link's weight is positive, 1 where it is 0."""
    return cdf if on.all() else np.where(on, cdf, 1.0)


def exp_2q_boundary(mu1: float, mu2: float, lambda1: float) -> float:
    """Closed-form boundary for two independent exponential links, one server.

    The largest stable rate for queue 2 given queue 1's rate is
        mu2 * sqrt(1 - lambda1/mu1) * (2 - sqrt(1 - lambda1/mu1)),
    dropping from mu2 at lambda1 = 0 to zero when queue 1 saturates the
    server at lambda1 = mu1.
    """
    mu1 = float(_read_nonnegative(mu1, "mu1", (), nonzero=True))
    mu2 = float(_read_nonnegative(mu2, "mu2", (), nonzero=True))
    lambda1 = float(_read_nonnegative(lambda1, "lambda1", ()))
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
    """Trace the two-queue boundary as a lower envelope of exact support lines.

    Directions (cos t, sin t) are taken on the uniform open grid
    t = d * pi / (2 (D+1)), d = 1..D, which nests when D+1 divides the
    finer D+1 -- so refining the grid can only lower the envelope.  The
    support value of every direction is exact (``_exact_supports``), so
    the envelope is an upper bound on the boundary everywhere; the axis
    directions enter exactly through the per-queue mean-capacity bounds,
    and the curve is clamped at zero.  ``stderr`` is the width of the
    bracket below it (``_bracket_floor``).  The directions are evaluated
    ``_TRACE_BLOCK`` at a time and the envelope is folded block by block
    with an exact minimum, so a fine grid's work arrays stay those of one block and the
    curve has the bits of one evaluation of every direction.
    ``directions`` and ``samples`` are counts of at least 3 and 1 (an
    integral float reads as one; a bool does not).  ``samples`` and
    ``seed`` are checked as the Monte Carlo tracer checked them, and
    otherwise ignored.
    """
    if not isinstance(model, ContinuousChannelModel):
        raise ValidationError("boundary tracing requires a continuous model")
    if model.N != 2:
        raise ValueError("boundary tracing is defined for N = 2 only")
    directions, samples = _read_count(directions, "directions", 3), _read_count(samples, "samples", 1)
    np.random.default_rng(seed)  # accepts what the Monte Carlo tracer accepted; nothing is drawn
    means = link_means(model)
    box1, box2 = float(means[0].sum()), float(means[1].sum())
    if lambda1_values is None:
        lambda1_values = np.linspace(0.0, box1, 201)
    lam1 = _read_nonnegative(lambda1_values, "lambda1_values", (None,))

    thetas = np.arange(1, directions + 1) * (math.pi / 2.0) / (directions + 1)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    h = np.empty(directions)
    lam2 = np.full(len(lam1), np.inf)
    for b in range(0, directions, _TRACE_BLOCK):
        block = slice(b, b + _TRACE_BLOCK)
        h[block] = _exact_supports(model, np.column_stack([cos_t[block], sin_t[block]]))
        # envelope over directions: lambda2 = min_t (h(t) - lambda1 cos t) / sin t
        cand = (h[None, block] - lam1[:, None] * cos_t[None, block]) / sin_t[None, block]
        np.minimum(lam2, cand.min(axis=1), out=lam2)
    lam2 = np.clip(lam2, 0.0, box2)
    floor = _bracket_floor(h, cos_t, sin_t, box1, box2, lam1)
    err = lam2 - np.clip(floor, 0.0, lam2)
    return BoundaryCurve(
        lambda1=lam1, lambda2=lam2, stderr=err, directions=directions, samples=samples
    )


def _bracket_floor(h, cos_t, sin_t, box1: float, box2: float, lam1: np.ndarray) -> np.ndarray:
    """A lower bound on the two-queue boundary at each of lam1, from the support lines.

    Take the lines in order of falling angle: the queue-2 axis bound
    lambda2 = box2, the traced lines, then lambda1 = box1.  Consecutive
    lines meet at the envelope's vertices V_1..V_{D+1}; with V_0 = (0, box2)
    and V_{D+2} = (box1, 0), edge j runs from V_j to V_{j+1}.  Each exact
    support line touches the region somewhere on its own edge (V_0 and
    V_{D+2} are such points of the axis lines, and lie in the region).  The
    region is convex, so between the touching points p_j and p_{j+1} it
    lies above their chord, which lies in the triangle V_j V_{j+1} V_{j+2}
    and hence above the chord V_j V_{j+2}.  A point on edge j lies between
    p_{j-1} and p_{j+1}, so the boundary there is above the lower of the
    chords V_{j-1} V_{j+1} and V_j V_{j+2}.
    """
    c = np.concatenate(([0.0], cos_t[::-1], [1.0]))
    s = np.concatenate(([1.0], sin_t[::-1], [0.0]))
    g = np.concatenate(([box2], h[::-1], [box1]))
    det = c[:-1] * s[1:] - s[:-1] * c[1:]
    vx = (g[:-1] * s[1:] - s[:-1] * g[1:]) / det
    vy = (c[:-1] * g[1:] - g[:-1] * c[1:]) / det
    vx[-1], vy[0] = box1, box2  # on an axis line, exactly
    # V_{-1} = V_0 pads the first edge, whose touching point V_0 is known
    X = np.concatenate(([0.0, 0.0], vx, [box1]))
    Y = np.concatenate(([box2, box2], vy, [0.0]))
    edges = len(vx)  # edges 0..D carry a traced or the queue-2 line
    j = np.clip(np.searchsorted(np.maximum.accumulate(X[1:]), lam1, side="right") - 1, 0, edges - 1)
    return np.minimum(_chord(X, Y, j, j + 2, lam1), _chord(X, Y, j + 1, j + 3, lam1))


def _chord(X, Y, a, b, x) -> np.ndarray:
    """The chord from (X[a], Y[a]) to (X[b], Y[b]) at x; the lower end where it is vertical."""
    dx = X[b] - X[a]
    frac = np.divide(x - X[a], dx, out=np.zeros_like(dx), where=dx > 0)
    return np.where(dx > 0, Y[a] + (Y[b] - Y[a]) * frac, np.minimum(Y[a], Y[b]))
