"""Slot-by-slot simulation of the multi-queue multi-server system.

Queues evolve by
    X[n](t) = max(X[n](t-1) - served[n](t), 0) + A[n](t),
with service determined by a per-slot allocation matrix: each server picks
exactly one queue.  The max-weight policy gives server k to the queue
maximizing X[n](t-1) * C[n, k](t); for ON-OFF channels the equivalent
longest-connected-queue rule is provided as well; on such channels it
delivers exactly the service of max-weight with lowest-index ties, which is
how ``run`` simulates it.  Runs are reproducible:
replication i draws everything from ``default_rng(seed + i)``, sampling
the whole channel block first and then the arrival block.  From 8
replications on, ``run`` advances them all in one slot loop over (K, R, N)
int64 arrays in preallocated buffers.  Its compact blocks take about
T*R*(K+1)*N bytes while M and the arrival caps are < 128, and are
converted to int64 in reused chunks of at most 256 KiB of slots.  Fewer
replications run one at a time on Python ints, read through memoryviews
of one (T, K, N) channel block in the same compact type, where servers
scan only the backlogged queues (``_BATCH_MIN_REPS`` measures where the
two loops break even).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .capacity_region import max_weight_argmax
from .channel_models import (
    DiscreteChannelModel,
    ValidationError,
    _categorical,
    _check_probability,
    _kind_fields,
    _read,
    _read_count,
    _read_fields,
    _read_kind,
    _read_nonnegative,
    check_pmf,
    sample_states,
    validate_discrete,
)


# -- arrival processes -----------------------------------------------------


_ARRIVAL_KINDS = {
    "deterministic": {"rate_num": int, "rate_den": int},
    "bernoulli_batch": {"batch": int, "prob": float},
    "bounded_pmf": {"pmf": [float]},
}


@dataclass(frozen=True)
class QueueArrivals:
    """Arrival law of one queue; realizations are bounded integers.

    kind "deterministic" releases floor(rate*t) - floor(rate*(t-1)) packets
    in slot t (a fluid-rounded token scheme); "bernoulli_batch" releases a
    batch of ``batch`` packets with probability ``prob``; "bounded_pmf"
    draws from an explicit pmf on {0, ..., len(pmf)-1}.
    """

    kind: str
    rate_num: int = 0   # deterministic rate as exact rational num/den
    rate_den: int = 1
    batch: int = 0
    prob: float = 0.0
    pmf: tuple = ()

    def __post_init__(self):
        # fields become ints, floats and a tuple first, so every instance is checked alike and hashable
        _read_kind(self, _ARRIVAL_KINDS, "arrival")
        if self.kind == "deterministic":
            _read_count(self.rate_num, "rate_num")
            _read_count(self.rate_den, "rate_den", 1)
        elif self.kind == "bernoulli_batch":
            _read_count(self.batch, "batch")
            _check_probability(_read_nonnegative(self.prob, "prob", ()), "prob")
        else:
            check_pmf(self.pmf, "pmf", (None,))

    @property
    def mean(self) -> float:
        if self.kind == "deterministic":
            return self.rate_num / self.rate_den
        if self.kind == "bernoulli_batch":
            return self.batch * self.prob
        return float(sum(a * q for a, q in enumerate(self.pmf)))

    @property
    def mean_square(self) -> float:
        """Largest E[A^2(t)] over slots; the second-moment input to occupancy bounds."""
        if self.kind == "deterministic":
            lo = self.rate_num // self.rate_den
            peak = lo if self.rate_num % self.rate_den == 0 else lo + 1
            return float(peak * peak)
        if self.kind == "bernoulli_batch":
            return self.prob * self.batch**2
        return float(sum(a * a * q for a, q in enumerate(self.pmf)))

    @property
    def cap(self) -> int:
        """Hard upper bound on a single slot's arrivals."""
        if self.kind == "deterministic":
            return -((-self.rate_num) // self.rate_den)  # ceil
        if self.kind == "bernoulli_batch":
            return self.batch
        return len(self.pmf) - 1


def _exact_rate(rate) -> tuple[int, int]:
    # via str, 0.3 reads as 3/10 (not the binary float) and "1/3" as 1/3
    try:
        frac = Fraction(str(rate))
    except (ArithmeticError, ValueError):
        raise ValidationError(f"arrival rate {rate!r} is not a finite number") from None
    return frac.numerator, frac.denominator


@dataclass(frozen=True)
class ArrivalModel:
    """Per-queue arrival descriptors plus the derived moment fields."""

    queues: tuple

    def __post_init__(self):
        _read_fields(self, {"queues": [QueueArrivals]})

    @classmethod
    def deterministic(cls, rates) -> "ArrivalModel":
        return cls(queues=[QueueArrivals("deterministic", *_exact_rate(r)) for r in rates])

    @classmethod
    def bernoulli_batch(cls, batches, probs) -> "ArrivalModel":
        if len(batches) != len(probs):
            raise ValidationError("dimension mismatch: batches vs probs")
        return cls(queues=[
            QueueArrivals(kind="bernoulli_batch", batch=b, prob=q) for b, q in zip(batches, probs)
        ])

    @classmethod
    def bounded_pmf(cls, pmfs) -> "ArrivalModel":
        return cls(queues=[QueueArrivals(kind="bounded_pmf", pmf=pmf) for pmf in pmfs])

    @property
    def N(self) -> int:
        return len(self.queues)

    def mean_rates(self) -> np.ndarray:
        return np.array([q.mean for q in self.queues])

    @property
    def a_max_sq(self) -> float:
        return max((q.mean_square for q in self.queues), default=0.0)

    def sample(self, rng: np.random.Generator, T: int) -> np.ndarray:
        """(T, N) integer arrivals for slots 1..T, one queue at a time."""
        T = _read_count(T, "T")
        out = np.empty((T, self.N), dtype=np.int64)
        for n, q in enumerate(self.queues):
            if q.kind == "deterministic":
                p, d = q.rate_num, q.rate_den
                out[:, n] = [(p * t) // d - (p * (t - 1)) // d for t in range(1, T + 1)]
            elif q.kind == "bernoulli_batch":
                out[:, n] = (rng.random(T) < q.prob) * q.batch
            else:
                out[:, n] = _categorical(rng, q.pmf, T)
        return out

    def to_descriptor(self) -> dict:
        qs = []
        for q in self.queues:
            if q.kind == "deterministic":
                rate = Fraction(q.rate_num, q.rate_den)
                exact = Fraction(repr(float(rate))) == rate  # 0.3 reads back as 3/10, 1/3 needs "1/3"
                qs.append({"kind": "deterministic", "rate": float(rate) if exact else str(rate)})
            else:
                qs.append({"kind": q.kind, **_kind_fields(q, _ARRIVAL_KINDS)})
        return {"queues": qs}


# the deterministic rate is a number or a fraction string, which _exact_rate reads
_ARRIVALS = {"queues": [("kind", {**_ARRIVAL_KINDS, "deterministic": {"rate": object}})]}


def arrivals_from_descriptor(d: dict) -> ArrivalModel:
    qs = []
    for n, (kind, fields) in enumerate(_read(d, _ARRIVALS, "arrivals")["queues"]):
        if kind == "deterministic":
            try:
                fields["rate_num"], fields["rate_den"] = _exact_rate(fields.pop("rate"))
            except ValidationError as exc:
                raise ValidationError(f"arrivals.queues[{n}].rate: {exc}") from None
        qs.append(QueueArrivals(kind=kind, **fields))
    return ArrivalModel(queues=qs)


# -- per-slot operations ---------------------------------------------------


def _is_binary(a: np.ndarray) -> bool:
    return bool(((a == 0) | (a == 1)).all())


def _backlogs_and_capacities(X, C) -> tuple[np.ndarray, np.ndarray]:
    """X of shape (N,) and C of shape (N, K), both finite and >= 0, else ValueError."""
    X = _read_nonnegative(X, "queue lengths", (None,), dtype=None)
    return X, _read_nonnegative(C, "capacities", (len(X), None), dtype=None)


def _allocation(weights, tie_rule: str) -> np.ndarray:
    """Allocation matrix giving server k to the max-weight queue of column k."""
    winner = max_weight_argmax(np.asarray(weights).T, tie_rule)
    return (np.arange(len(weights))[:, None] == winner).astype(np.int64)


def mw_allocate(X, C, tie_rule: str = "lowest_index") -> np.ndarray:
    """Max-weight allocation: server k to argmax_n X[n] * C[n, k].

    Every column sums to 1 -- servers are always assigned, even when all
    weights are zero (then the tie rule sends them to a fixed queue and
    the queue update wastes the capacity harmlessly).  X of shape (N,) and
    C of shape (N, K) must be finite and nonnegative, else ValueError.
    """
    X, C = _backlogs_and_capacities(X, C)
    return _allocation(X[:, None] * C, tie_rule)


def as_lcq_allocate(X, C) -> np.ndarray:
    """Longest-connected-queue allocation for ON-OFF channels.

    Each server goes to the connected queue (C[n, k] = 1) with the largest
    backlog at the start of the slot, ties to the lowest index; a server
    with no connected queue parks on queue 0 with zero effect.  For binary
    channels the delivered service per queue coincides with mw_allocate.
    X of shape (N,) must be finite and nonnegative and C of shape (N, K)
    binary, else ValueError.
    """
    X, C = _backlogs_and_capacities(X, C)
    if not _is_binary(C):
        raise ValueError("longest-connected-queue requires a binary channel matrix")
    return _allocation(np.where(C == 1, X[:, None], -1), "lowest_index")


def step(X, C, I, A) -> tuple[np.ndarray, np.ndarray]:
    """One queue update; returns (next queue vector, departures).

    Offered service is summed per queue from the allocation, clipped at the
    backlog (the positive-part projection applies before arrivals), and
    arrivals are added at the end of the slot.  X and A of shape (N,) must
    be nonnegative integers below 2**63 (integral floats pass), and so must
    the next queue vector; C of shape (N, K) must be finite and nonnegative,
    and the allocation I of shape (N, K) must hold only 0s and 1s, else
    ValueError.  Its columns need not sum to 1.
    """
    X, C = _backlogs_and_capacities(X, C)
    I = np.asarray(I)
    if I.shape != C.shape:
        raise ValueError(f"allocation must have shape {C.shape}, got {I.shape}")
    if not _is_binary(I):
        raise ValueError("allocation entries must be 0 or 1")
    A = _read_nonnegative(A, "arrivals", X.shape, dtype=None)
    for a, name in ((X, "queue lengths"), (A, "arrivals")):
        if a.dtype.kind == "f" and (a % 1).any():
            raise ValueError(f"{name} must be integers")
        if (a >= 2**63).any():
            raise ValueError(f"{name} must be below 2**63")
    X, A = X.astype(np.int64), A.astype(np.int64)
    offered = (C * I).sum(axis=1)
    departures = np.minimum(X, offered)
    if (A > np.iinfo(np.int64).max - (X - departures)).any():
        raise ValueError("next queue lengths overflow int64")
    return X - departures + A, departures


def delay_bound(N: int, a_max_sq: float, M: int, K: int, delta: float) -> float:
    """Occupancy bound (N * a_max_sq + (M*K)^2) / (2 * delta) for a margin 0 < delta < inf.

    N, M and K must be integers of at least 1 (an integral float reads as
    one) and a_max_sq a finite, nonnegative number, else ValueError.
    """
    N, M, K = (_read_count(x, name, 1) for x, name in ((N, "N"), (M, "M"), (K, "K")))
    a_max_sq, delta = float(_read_nonnegative(a_max_sq, "a_max_sq", ())), _read(delta, float, "delta")
    if not delta < np.inf:
        raise ValidationError(f"delta must be finite, got {delta}")
    if delta <= 0:
        raise ValueError("rate not strictly interior; bound undefined")
    return (N * a_max_sq + (M * K) ** 2) / (2.0 * delta)


# -- full runs --------------------------------------------------------------


def _check_queue_count(model: DiscreteChannelModel, arrivals: ArrivalModel) -> None:
    if arrivals.N != model.N:
        raise ValidationError(f"dimension mismatch: {arrivals.N} arrival queues vs N={model.N}")


@dataclass(frozen=True)
class SimStats:
    """Per-replication summary; every field is recomputable from the trace."""

    replication: int
    seed: int
    horizon: int
    avg_aggregate_occupancy: float
    per_queue_avg: tuple
    throughput: tuple
    final_queue: tuple
    total_arrivals: tuple
    total_departures: tuple


@dataclass(frozen=True)
class RunResult:
    replications: tuple
    trace: np.ndarray | None = None  # replication 0: columns t, X.., served.., arrived..

    def aggregate(self) -> dict:
        reps = self.replications
        R = len(reps)
        return {
            "avg_aggregate_occupancy": sum(s.avg_aggregate_occupancy for s in reps) / R,
            "per_queue_avgs": [
                sum(s.per_queue_avg[n] for s in reps) / R for n in range(len(reps[0].per_queue_avg))
            ],
            "throughput": [
                sum(s.throughput[n] for s in reps) / R for n in range(len(reps[0].throughput))
            ],
        }


# The batched slot loop pays its numpy call overhead once per slot
# whatever R is, while the scalar loop pays once per replication-slot, more
# on more links.  Over T = 5k slots (best of 3, 2-core host), the loops
# break even at about 7 replications on 1x1 ON-OFF channels, 4 on 2x2, 2
# on 4x4 and 1 on 8x8 (ON-OFF, or factored with M = 2); on 8x8 batching is
# 1.8x faster at R = 2, 3x at R = 4 and 4x at R = 7.  At R = 1 over 25k
# slots of 8x8 (either channel, best of 5 in each of 3 processes), batching
# is 0-13% faster with lowest-index ties and the scalar loop 1.1-1.25x
# faster with highest-index ties.  The threshold is set by 1x1, where
# batching is no faster at R = 7, so fewer than 8 replications run the
# scalar loop, which holds one replication's blocks instead of all R.
_BATCH_MIN_REPS = 8

# the batched loop converts its compact blocks to int64 in chunks of whole
# slots of at most this many bytes (256 KiB), reused for the whole run
_SLOT_CHUNK_BYTES = 1 << 18


def _compact_types(model, arrivals):
    """The smallest signed types holding 0..M and 0..cap, which convert to int64 exactly."""
    return np.min_scalar_type(-model.M - 1), np.min_scalar_type(-max(q.cap for q in arrivals.queues) - 1)


def _blocks(model, arrivals, T, seed, C):
    """Write one replication's channel block into C (T, K, N), server-major, then return its arrivals (T, N).

    Both come from default_rng(seed).  The sampled (T, N, K) channel block
    is freed before the arrivals are drawn, and they are returned in the
    compact type.
    """
    rng = np.random.default_rng(seed)
    C[...] = sample_states(model, rng, T).transpose(0, 2, 1)
    return arrivals.sample(rng, T).astype(_compact_types(model, arrivals)[1])


def _simulate_batched(model, arrivals, T, seed, R, tie_rule, record_trace):
    """All replications in one slot loop over (K, R, N) int64 arrays.

    The compact blocks are stored slot-major as (T, K, R, N) channel states
    and (T, R, N) arrivals, and converted to int64 a chunk of slots at a
    time into two buffers of at most _SLOT_CHUNK_BYTES, reused for the whole
    run.  A slot then makes only same-type numpy calls into preallocated
    buffers: the weights X[r, n] * C[k, r, n], the one max_weight_argmax
    call, the winners' one-hot rows times their capacities, and their sum
    over the servers.
    """
    N, K = model.N, model.K
    c_type, a_type = _compact_types(model, arrivals)
    C = np.empty((T, K, R, N), dtype=c_type)
    A = np.empty((T, R, N), dtype=a_type)
    for r in range(R):
        A[:, r] = _blocks(model, arrivals, T, seed + r, C[:, :, r])

    chunk = min(T, max(1, _SLOT_CHUNK_BYTES // (8 * K * R * N)))
    C_chunk = np.empty((chunk, K, R, N), dtype=np.int64)
    A_chunk = np.empty((chunk, R, N), dtype=np.int64)
    eye = np.eye(N, dtype=np.int64)
    W = np.empty((K, R, N), dtype=np.int64)
    onehot = np.empty((K, R, N), dtype=np.int64)
    served = np.empty((R, N), dtype=np.int64)
    X = np.zeros((R, N), dtype=np.int64)
    occupancy = np.zeros((R, N), dtype=np.int64)
    X0 = np.empty((T, N), dtype=np.int64) if record_trace else None
    for start in range(0, T, chunk):
        n = min(chunk, T - start)
        np.copyto(C_chunk[:n], C[start : start + n])
        np.copyto(A_chunk[:n], A[start : start + n])
        for t in range(n):
            Ct = C_chunk[t]
            np.multiply(X, Ct, out=W)
            winner = max_weight_argmax(W, tie_rule)
            # winners lie in 0..N-1, so "clip" never acts; the default "raise" buffers out
            eye.take(winner, axis=0, out=onehot, mode="clip")
            onehot *= Ct
            np.add.reduce(onehot, 0, out=served)
            X -= np.minimum(served, X, out=served)
            X += A_chunk[t]
            occupancy += X
            if record_trace:
                X0[start + t] = X[0]
    return X, occupancy, A.sum(axis=0, dtype=np.int64), X0, A[:, 0]


def _simulate_scalar(model, arrivals, T, seed, R, tie_rule, record_trace):
    """One replication at a time, slot by slot on Python ints read from flat memoryviews.

    Servers scan the queues in the tie rule's order and take a queue only on
    a strictly larger weight, starting from 0, so the first maximum scanned
    wins.  A server whose best weight X[n] * C[n, k] is 0 faces empty queues
    or offers them capacity 0: wherever the tie rule parks it, it departs
    nothing, so here it serves nothing.  Empty queues can then be left out
    of the scan; a slot with some empty queue lists the backlogged ones
    once for all its servers (with one server, listing cannot pay).
    """
    N, K = model.N, model.K
    KN = K * N
    order = range(N - 1, -1, -1) if tie_rule == "highest_index" else range(N)
    X_all, occupancy_all, arrived = (np.zeros((R, N), dtype=np.int64) for _ in range(3))
    X0, A0 = np.empty((T, N), dtype=np.int64) if record_trace else None, None
    # one (T, K, N) block for every replication: server k's column of slot t starts at (t*K + k)*N
    C_block = np.empty((T, K, N), dtype=_compact_types(model, arrivals)[0])
    C = memoryview(C_block.reshape(-1))
    for r in range(R):
        A_r = _blocks(model, arrivals, T, seed + r, C_block)
        if r == 0 and record_trace:
            A0 = A_r
        A = memoryview(A_r.reshape(-1))
        X = [0] * N
        occupancy = [0] * N
        trace = X0 if r == 0 else None
        for t in range(T):
            served = [0] * N
            backlogged = [n for n in order if X[n]] if K > 1 and 0 in X else order
            for c in range(t * KN, (t + 1) * KN, N):
                best, best_w = 0, 0
                for n in backlogged:
                    w = X[n] * C[c + n]
                    if w > best_w:
                        best, best_w = n, w
                if best_w:
                    served[best] += C[c + best]
            a = t * N
            for n in range(N):
                X[n] += A[a + n] - (served[n] if served[n] < X[n] else X[n])
                occupancy[n] += X[n]
            if trace is not None:
                trace[t] = X
        X_all[r], occupancy_all[r], arrived[r] = X, occupancy, A_r.sum(axis=0, dtype=np.int64)
        del A, A_r  # free this replication's arrivals before the next ones are sampled
    return X_all, occupancy_all, arrived, X0, A0


def run(
    model: DiscreteChannelModel,
    arrivals: ArrivalModel,
    policy: str = "mw",
    T: int = 10_000,
    seed: int = 0,
    replications: int = 1,
    tie_rule: str = "lowest_index",
    record_trace: bool = False,
) -> RunResult:
    """Simulate T slots from empty queues, one rng stream per replication.

    Replication i uses ``default_rng(seed + i)`` and samples its whole
    channel block before its arrival block, so each replication is
    reproducible on its own.  From _BATCH_MIN_REPS replications on, one
    slot loop advances them all on (K, R, N) int64 slot chunks of the
    compact blocks, making each slot's decisions in one max_weight_argmax
    call into buffers reused for the whole run; fewer replications run one
    at a time through a scalar loop with the same decisions.  On ON-OFF channels
    longest-connected-queue delivers exactly max-weight's service with
    lowest-index ties, so ``policy="as_lcq"`` runs the max-weight loop with
    that tie rule.  The trace (slot, queue lengths, departures, arrivals)
    is recorded for replication 0 only.  ``T`` and ``replications`` are
    counts of at least 1 and ``seed`` one of at least 0 (an integral float
    reads as one; a bool does not).

    Backlogs, weights and occupancy sums are kept in int64, so a run whose
    bound T * (largest arrival batch) * max(T, M) exceeds the int64 range is
    refused with ValidationError, even if its actual backlogs stay small.
    """
    validate_discrete(model)
    _check_queue_count(model, arrivals)
    if policy not in ("mw", "as_lcq"):
        raise ValueError(f"unknown policy {policy!r}")
    if tie_rule not in ("lowest_index", "highest_index"):
        raise ValueError(f"unknown tie rule {tie_rule!r}")
    if policy == "as_lcq":
        if model.M > 1:
            raise ValidationError("as_lcq requires ON-OFF channels (M = 1)")
        tie_rule = "lowest_index"
    T, replications = _read_count(T, "T", 1), _read_count(replications, "replications", 1)
    seed = _read_count(seed, "seed")
    cap = max(q.cap for q in arrivals.queues)
    if T * cap * max(T, model.M) > np.iinfo(np.int64).max:
        raise ValidationError("backlogs could overflow 64-bit integers; shorten T or lower the arrival caps")

    simulate = _simulate_batched if replications >= _BATCH_MIN_REPS else _simulate_scalar
    X, occupancy, arrived, X0, A0 = simulate(model, arrivals, T, seed, replications, tie_rule, record_trace)
    departed = arrived - X
    stats = tuple(
        SimStats(
            replication=r,
            seed=seed,
            horizon=T,
            avg_aggregate_occupancy=sum(occupancy[r].tolist()) / T,
            per_queue_avg=tuple(s / T for s in occupancy[r].tolist()),
            throughput=tuple(d / T for d in departed[r].tolist()),
            final_queue=tuple(X[r].tolist()),
            total_arrivals=tuple(arrived[r].tolist()),
            total_departures=tuple(departed[r].tolist()),
        )
        for r in range(replications)
    )
    trace = None
    if record_trace:  # replication 0's departures follow from conservation
        trace = np.hstack([np.arange(1, T + 1)[:, None], X0, A0 - np.diff(X0, axis=0, prepend=0), A0])
    return RunResult(replications=stats, trace=trace)
