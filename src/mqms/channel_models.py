"""Stationary channel-state models for an N-queue, K-server link system.

A channel state is an N x K matrix of per-link capacities in packets/slot.
Discrete models carry integer capacities in {0, ..., M} and support exact
enumeration of the joint state space; continuous models carry nonnegative
real capacities sampled per link.  A model checks itself once, when it is
built, and is immutable afterwards, so the library never checks it again
and it is safe to share; all sampling goes through a caller-owned
``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

PMF_TOL = 1e-12
DEFAULT_STATE_CAP = 10_000_000

# bernoulli blocks draw their float64 uniforms this many at a time (512 kB),
# so the transient stays small against the one-byte-per-link-slot block
_BERNOULLI_CHUNK_DRAWS = 1 << 16


class ValidationError(ValueError):
    """A model violates one of its structural invariants."""


def _as_tuple2(rows) -> tuple:
    return tuple(tuple(float(x) for x in row) for row in rows)


@dataclass(frozen=True)
class DiscreteChannelModel:
    """Joint distribution of the N x K integer capacity matrix.

    kind is one of:
      * ``"explicit_joint"`` -- an explicit list of (matrix, probability)
        pairs; ``states`` holds them with matrices as nested int tuples.
      * ``"factored"`` -- every link (n, k) has its own pmf over
        {0, ..., M} and links are mutually independent; ``pmfs[n][k]`` is
        the pmf as a length-(M+1) tuple.
      * ``"bernoulli"`` -- ON-OFF links: capacity 1 with probability
        ``p[n][k]``, else 0, links independent, M = 1.  A dedicated kind
        (rather than factored with M = 1) so closed-form region formulas
        can be dispatched on it.
    """

    N: int
    K: int
    M: int
    kind: str
    states: tuple = ()   # explicit_joint only
    pmfs: tuple = ()     # factored only
    p: tuple = ()        # bernoulli only

    def __post_init__(self):
        # nested fields become tuples, so the checked model cannot change afterwards
        object.__setattr__(self, "p", _as_tuple2(self.p))
        object.__setattr__(
            self, "pmfs", tuple(tuple(tuple(float(q) for q in link) for link in row) for row in self.pmfs)
        )
        object.__setattr__(self, "states", tuple(
            (tuple(tuple(as_integer(x, "capacity") for x in row) for row in mat), float(prob))
            for mat, prob in self.states
        ))
        object.__setattr__(self, "M", as_integer(self.M, "M"))
        validate(self)

    # -- constructors ----------------------------------------------------

    @classmethod
    def bernoulli(cls, p) -> "DiscreteChannelModel":
        """ON-OFF model from an N x K matrix of success probabilities."""
        return cls(N=len(p), K=len(p[0]) if len(p) else 0, M=1, kind="bernoulli", p=p)

    @classmethod
    def factored(cls, pmfs) -> "DiscreteChannelModel":
        """Independent-link model; ``pmfs[n][k]`` is a pmf over {0..M}."""
        lengths = {len(link) for row in pmfs for link in row}
        if len(lengths) != 1:
            raise ValidationError("dimension mismatch: link pmfs have unequal lengths")
        return cls(N=len(pmfs), K=len(pmfs[0]), M=lengths.pop() - 1, kind="factored", pmfs=pmfs)

    @classmethod
    def explicit_joint(cls, states, M: int | None = None) -> "DiscreteChannelModel":
        """Explicit joint model from (matrix, probability) pairs.

        Zero-probability states are dropped here so downstream enumeration
        never carries them.  M defaults to the largest entry seen.
        """
        cleaned = [(C, prob) for C, prob in states if float(prob) != 0.0]
        if not cleaned:
            raise ValidationError("explicit_joint model has no positive-probability states")
        if M is None:
            M = max(1, max(as_integer(x, "capacity") for C, _ in cleaned for row in C for x in row))
        return cls(N=len(cleaned[0][0]), K=len(cleaned[0][0][0]), M=M, kind="explicit_joint", states=cleaned)


@dataclass(frozen=True)
class LinkDistribution:
    """Distribution of one continuous link capacity.

    kind: "exponential" (scale = mean), "uniform" (on [0, high]), or
    "empirical" (resampled uniformly from a table of observed values).
    """

    kind: str
    mean: float = 0.0
    high: float = 0.0
    values: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    def expected_value(self) -> float:
        if self.kind == "exponential":
            return self.mean
        if self.kind == "uniform":
            return self.high / 2.0
        if self.kind == "empirical":
            return float(np.mean(self.values))
        raise ValidationError(f"unknown link distribution kind {self.kind!r}")


@dataclass(frozen=True)
class ContinuousChannelModel:
    """Independent continuous capacities per link, for the fluid model."""

    N: int
    K: int
    kind: str = "continuous"
    links: tuple = ()  # links[n][k] is a LinkDistribution

    def __post_init__(self):
        object.__setattr__(self, "links", tuple(tuple(row) for row in self.links))
        validate(self)

    @classmethod
    def of(cls, links) -> "ContinuousChannelModel":
        return cls(N=len(links), K=len(links[0]) if len(links) else 0, links=links)

    def link_means(self) -> np.ndarray:
        return np.array(
            [[self.links[n][k].expected_value() for k in range(self.K)] for n in range(self.N)]
        )


# -- validation ----------------------------------------------------------


def validate(model) -> None:
    """Check every structural invariant; raise ValidationError on the first violation."""
    if model.N < 1 or model.K < 1:
        raise ValidationError(f"dimension mismatch: need N >= 1 and K >= 1, got ({model.N}, {model.K})")

    if isinstance(model, ContinuousChannelModel):
        _validate_continuous(model)
        return
    if model.kind == "bernoulli":
        _check_grid_shape(model.p, model.N, model.K)
        for row in model.p:
            for q in row:
                if not 0.0 <= q <= 1.0:
                    raise ValidationError(f"negative probability or >1: p={q}")
    elif model.kind == "factored":
        _check_grid_shape(model.pmfs, model.N, model.K)
        for n, row in enumerate(model.pmfs):
            for k, pmf in enumerate(row):
                if len(pmf) != model.M + 1:
                    raise ValidationError(f"dimension mismatch: link ({n},{k}) pmf length {len(pmf)}")
                check_pmf(pmf, f"link ({n},{k}) pmf")
    elif model.kind == "explicit_joint":
        seen = set()
        for mat, _ in model.states:
            if len(mat) != model.N or any(len(row) != model.K for row in mat):
                raise ValidationError("dimension mismatch: state matrix shape differs from (N, K)")
            for row in mat:
                for x in row:
                    if x < 0 or x > model.M:
                        raise ValidationError(f"capacity {x} outside {{0..{model.M}}}")
            if mat in seen:
                raise ValidationError("duplicate state matrix in explicit_joint model")
            seen.add(mat)
        check_pmf([prob for _, prob in model.states], "state probabilities")
    else:
        raise ValidationError(f"unknown model kind {model.kind!r}")
    if model.M < 1:
        raise ValidationError(f"max capacity M must be >= 1, got {model.M}")


def check_pmf(pmf, what: str) -> None:
    """Raise ValidationError unless pmf is finite, nonnegative and sums to 1.

    Every comparison is written so that NaN fails it.
    """
    if not all(q >= 0 for q in pmf):
        raise ValidationError(f"negative or NaN probability in {what}")
    total = sum(pmf)
    if not abs(total - 1.0) <= PMF_TOL:
        raise ValidationError(f"pmf not normalized: {what} sums to {total}")


def as_integer(x, what: str) -> int:
    """x as an int; ValidationError unless it is an integral number (2.0 passes)."""
    try:
        if int(x) == x:
            return int(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{what} must be an integer, got {x!r}")


def validate_discrete(model) -> None:
    """Reject anything but a discrete model; continuous models have no finite state space."""
    if not isinstance(model, DiscreteChannelModel):
        raise ValidationError(
            f"a discrete channel model is required, got {type(model).__name__}; "
            "continuous models have a fluid region only"
        )


def _check_grid_shape(grid, N, K) -> None:
    if len(grid) != N or any(len(row) != K for row in grid):
        raise ValidationError("dimension mismatch: grid shape differs from (N, K)")


def _validate_continuous(model: ContinuousChannelModel) -> None:
    _check_grid_shape(model.links, model.N, model.K)
    for n, row in enumerate(model.links):
        for k, d in enumerate(row):
            if d.kind == "exponential":
                if not 0 < d.mean < math.inf:
                    raise ValidationError(f"link ({n},{k}) exponential mean must be finite and > 0")
            elif d.kind == "uniform":
                if not 0 < d.high < math.inf:
                    raise ValidationError(f"link ({n},{k}) uniform upper bound must be finite and > 0")
            elif d.kind == "empirical":
                if len(d.values) == 0:
                    raise ValidationError(f"link ({n},{k}) empirical table is empty")
                if not all(0 <= v < math.inf for v in d.values):
                    raise ValidationError(f"link ({n},{k}) empirical table has negative or non-finite values")
            else:
                raise ValidationError(f"unknown link distribution kind {d.kind!r}")


# -- enumeration ---------------------------------------------------------


def _link_supports(model: DiscreteChannelModel):
    """Per-link (values, probs) with zero-probability atoms removed, row-major."""
    supports = []
    for n in range(model.N):
        for k in range(model.K):
            if model.kind == "bernoulli":
                q = model.p[n][k]
                pmf = [1.0 - q, q]
            else:
                pmf = model.pmfs[n][k]
            pairs = [(v, pr) for v, pr in enumerate(pmf) if pr > 0.0]
            supports.append(pairs)
    return supports


def enumerate_states(model: DiscreteChannelModel, cap: int = DEFAULT_STATE_CAP):
    """Exact joint pmf of the channel matrix as a list of (matrix, probability).

    Factored and bernoulli models are expanded as products of their link
    pmfs; zero-probability states are omitted.  Matrices are returned as
    int arrays of shape (N, K).  Raises ValidationError when the joint
    state space exceeds ``cap``.
    """
    if model.kind == "explicit_joint":
        if len(model.states) > cap:
            raise ValidationError(f"state-space cap exceeded: {len(model.states)} > {cap}")
        return [(np.array(mat, dtype=np.int64), prob) for mat, prob in model.states]

    supports = _link_supports(model)
    count = 1
    for pairs in supports:
        count *= len(pairs)
        if count > cap:
            raise ValidationError(f"state-space cap exceeded: > {cap} joint states")
    out = []
    N, K = model.N, model.K
    for combo in itertools.product(*supports):
        prob = 1.0
        for _, pr in combo:
            prob *= pr
        mat = np.fromiter((v for v, _ in combo), dtype=np.int64, count=N * K).reshape(N, K)
        out.append((mat, prob))
    return out


def per_server_column_distribution(model: DiscreteChannelModel, k: int, cap: int = DEFAULT_STATE_CAP):
    """Exact joint pmf of the capacity column (C[0,k], ..., C[N-1,k]).

    Only defined for factored and bernoulli models, whose links are
    independent, so any per-server expectation can be taken against this
    column law alone.  Returns a list of (tuple of length N, probability).
    """
    if model.kind == "explicit_joint":
        raise ValidationError("per-server column law undefined for explicit_joint; use enumerate_states")
    if not 0 <= k < model.K:
        raise ValidationError(f"server index {k} out of range for K={model.K}")
    supports = _link_supports(model)
    col_supports = [supports[n * model.K + k] for n in range(model.N)]
    count = 1
    for pairs in col_supports:
        count *= len(pairs)
        if count > cap:
            raise ValidationError(f"state-space cap exceeded: > {cap} column states")
    out = []
    for combo in itertools.product(*col_supports):
        prob = 1.0
        for _, pr in combo:
            prob *= pr
        out.append((tuple(v for v, _ in combo), prob))
    return out


def column_laws(model: DiscreteChannelModel) -> list:
    """Per-server column laws of any discrete model, as arrays.

    Entry k is ``(values, probs)``: ``values`` (S_k, N) holds columns
    (C[0,k], ..., C[N-1,k]) and ``probs`` (S_k,) their probabilities.  Any
    sum over servers of a per-server expectation, such as the support value
    sum_k E[max_n alpha_n C[n,k]], depends on the channel law only through
    these marginals, whatever the dependence between servers.  Explicit
    models slice their joint states (columns may repeat); factored and
    bernoulli models use per_server_column_distribution.
    """
    validate_discrete(model)
    if model.kind == "explicit_joint":
        mats = np.array([mat for mat, _ in model.states], dtype=np.int64)
        probs = np.array([prob for _, prob in model.states])
        return [(mats[:, :, k], probs) for k in range(model.K)]
    laws = []
    for k in range(model.K):
        law = per_server_column_distribution(model, k)
        values = np.array([col for col, _ in law], dtype=np.int64)
        laws.append((values, np.array([prob for _, prob in law])))
    return laws


def link_means(model) -> np.ndarray:
    """E[C[n,k]] for every link, as an (N, K) array."""
    if isinstance(model, ContinuousChannelModel):
        return model.link_means()
    if model.kind == "bernoulli":
        return np.array(model.p, dtype=float)
    if model.kind == "factored":
        vals = np.arange(model.M + 1)
        return np.array(
            [[float(np.dot(model.pmfs[n][k], vals)) for k in range(model.K)] for n in range(model.N)]
        )
    return sum(prob * np.array(mat, dtype=float) for mat, prob in model.states)


# -- sampling ------------------------------------------------------------


def sample_states(model, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. channel matrices; shape (size, N, K).

    Slots are sampled independently from the stationary law (the models
    carry no temporal correlation).  Links are filled in fixed row-major
    order so a given generator state always produces the same block.

    Discrete blocks come in ``np.min_scalar_type(-M - 1)``, the smallest
    signed integer type holding 0..M (int8 while M < 128), which mixes
    with int64 exactly; continuous blocks are float64.  The values are
    those of the literal draws: per link ``rng.choice(M + 1, size, p=pmf)``
    for factored models, one ``rng.random((size, N, K)) < p`` for
    bernoulli models and ``rng.choice`` over the states for explicit_joint
    ones.  Factored links draw ``size`` uniforms u and look them up in the
    cdf that ``choice`` builds, without its per-call checks: the state is
    the number of cdf entries <= u, which is ``searchsorted(u, "right")``.
    While the block is int8 (M < 128) that number is counted as the sum of
    ``u >= edge`` over the interior edges cdf[:-1] (the last entry is 1.0,
    above every u), which is faster than the search up to there; wider
    blocks keep the search.  Bernoulli uniforms are drawn a chunk of slots
    at a time, which continues the same stream.
    """
    N, K = model.N, model.K
    if isinstance(model, ContinuousChannelModel):
        out = np.empty((size, N, K), dtype=float)
        for n in range(N):
            for k in range(K):
                d = model.links[n][k]
                if d.kind == "exponential":
                    out[:, n, k] = rng.exponential(d.mean, size)
                elif d.kind == "uniform":
                    out[:, n, k] = rng.uniform(0.0, d.high, size)
                else:
                    out[:, n, k] = rng.choice(np.asarray(d.values, dtype=float), size=size)
        return out

    dtype = np.min_scalar_type(-model.M - 1)
    if model.kind == "bernoulli":
        p = np.array(model.p, dtype=float)
        out = np.empty((size, N, K), dtype=dtype)
        chunk = max(1, _BERNOULLI_CHUNK_DRAWS // (N * K))
        for start in range(0, size, chunk):
            stop = min(start + chunk, size)
            np.less(rng.random((stop - start, N, K)), p, out=out[start:stop])
        return out
    if model.kind == "factored":
        out = np.empty((size, N, K), dtype=dtype)
        for n in range(N):
            for k in range(K):
                pmf = np.asarray(model.pmfs[n][k], dtype=float)
                cdf = (pmf / pmf.sum()).cumsum()
                cdf /= cdf[-1]
                u = rng.random(size)
                if dtype == np.int8:  # counting beats the search up to M = 127, not at 200
                    count = (u >= cdf[0]).view(np.int8)
                    for edge in cdf[1:-1]:
                        count += u >= edge
                    out[:, n, k] = count
                else:
                    out[:, n, k] = cdf.searchsorted(u, side="right")
        return out
    probs = np.array([pr for _, pr in model.states])
    mats = np.array([mat for mat, _ in model.states], dtype=dtype)
    idx = rng.choice(len(probs), size=size, p=probs / probs.sum())
    return mats[idx]


def sample_state(model, rng: np.random.Generator) -> np.ndarray:
    """Draw one channel matrix; shape (N, K)."""
    return sample_states(model, rng, 1)[0]


# -- JSON descriptors ----------------------------------------------------


def to_descriptor(model) -> dict:
    """JSON-ready description: {"N", "K", "kind", ...kind-specific fields}."""
    if isinstance(model, ContinuousChannelModel):
        links = [
            [_link_descriptor(model.links[n][k]) for k in range(model.K)]
            for n in range(model.N)
        ]
        return {"N": model.N, "K": model.K, "kind": "continuous", "links": links}
    d = {"N": model.N, "K": model.K, "kind": model.kind}
    if model.kind == "bernoulli":
        d["p"] = [list(row) for row in model.p]
    elif model.kind == "factored":
        d["pmfs"] = [[list(link) for link in row] for row in model.pmfs]
    else:
        d["M"] = model.M
        d["states"] = [{"C": [list(r) for r in mat], "prob": prob} for mat, prob in model.states]
    return d


def _link_descriptor(d: LinkDistribution) -> dict:
    if d.kind == "exponential":
        return {"dist": "exponential", "mean": d.mean}
    if d.kind == "uniform":
        return {"dist": "uniform", "high": d.high}
    return {"dist": "empirical", "values": list(d.values)}


def from_descriptor(d: dict):
    """Build and validate a model from its JSON descriptor."""
    try:
        kind = d["kind"]
    except (KeyError, TypeError):
        raise ValidationError("descriptor missing 'kind'") from None
    if kind == "bernoulli":
        return DiscreteChannelModel.bernoulli(d["p"])
    if kind == "factored":
        return DiscreteChannelModel.factored(d["pmfs"])
    if kind == "explicit_joint":
        states = [(s["C"], s["prob"]) for s in d["states"]]
        return DiscreteChannelModel.explicit_joint(states, M=d.get("M"))
    if kind == "continuous":
        links = []
        for row in d["links"]:
            built = []
            for spec in row:
                dist = spec["dist"]
                if dist == "exponential":
                    built.append(LinkDistribution("exponential", mean=float(spec["mean"])))
                elif dist == "uniform":
                    built.append(LinkDistribution("uniform", high=float(spec["high"])))
                elif dist == "empirical":
                    built.append(LinkDistribution("empirical", values=tuple(float(v) for v in spec["values"])))
                else:
                    raise ValidationError(f"unknown link distribution kind {dist!r}")
            links.append(built)
        return ContinuousChannelModel.of(links)
    raise ValidationError(f"unknown model kind {kind!r}")


def load_model(path):
    with open(path) as fh:
        return from_descriptor(json.load(fh))


def descriptor_hash(model) -> str:
    """Stable 16-hex-digit digest of the model descriptor."""
    blob = json.dumps(to_descriptor(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
