"""Stationary channel-state models for an N-queue, K-server link system.

A channel state is an N x K matrix of per-link capacities in packets/slot.
Discrete models carry integer capacities in {0, ..., M} and support exact
enumeration of the joint state space; continuous models carry independent
nonnegative real capacities per link and are never sampled.  A model checks
itself once, when it is built, and is immutable afterwards, so the library
never checks it again and it is safe to share; all sampling goes through a
caller-owned ``numpy.random.Generator`` so runs are reproducible.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

PMF_TOL = 1e-12
DEFAULT_STATE_CAP = 10_000_000

# bernoulli blocks draw their float64 uniforms this many at a time (512 kB),
# so the transient stays small against the one-byte-per-link-slot block
_BERNOULLI_CHUNK_DRAWS = 1 << 16


class ValidationError(ValueError):
    """A model violates one of its structural invariants."""


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
        (rather than factored with M = 1): it samples as one
        ``rng.random(...) < p`` block, and ``oracle_check`` holds its
        support values to the ON-OFF closed form.
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
        _read_kind(self, _DISCRETE_KINDS, "model")
        validate(self)

    # -- constructors ----------------------------------------------------

    @classmethod
    def bernoulli(cls, p) -> "DiscreteChannelModel":
        """ON-OFF model from an N x K matrix of success probabilities."""
        p = _read(p, _DISCRETE_KINDS["bernoulli"]["p"], "p")
        return cls(N=len(p), K=len(p[0]), M=1, kind="bernoulli", p=p)

    @classmethod
    def factored(cls, pmfs) -> "DiscreteChannelModel":
        """Independent-link model; ``pmfs[n][k]`` is a pmf over {0..M}."""
        pmfs = _read(pmfs, _DISCRETE_KINDS["factored"]["pmfs"], "pmfs")
        return cls(N=len(pmfs), K=len(pmfs[0]), M=len(pmfs[0][0]) - 1, kind="factored", pmfs=pmfs)

    @classmethod
    def explicit_joint(cls, states, M: int | None = None) -> "DiscreteChannelModel":
        """Explicit joint model from (matrix, probability) pairs.

        Zero-probability states are dropped here so downstream enumeration
        never carries them.  M defaults to the largest entry seen.
        """
        states = _read(states, _DISCRETE_KINDS["explicit_joint"]["states"], "states")
        cleaned = [(C, prob) for C, prob in states if prob != 0.0]
        if not cleaned:
            raise ValidationError("states must hold a state of positive probability")
        if M is None:
            M = max(1, max(x for C, _ in cleaned for row in C for x in row))
        C = cleaned[0][0]
        return cls(N=len(C), K=len(C[0]), M=M, kind="explicit_joint", states=cleaned)


@dataclass(frozen=True)
class LinkDistribution:
    """Distribution of one continuous link capacity.

    kind: "exponential" (scale = mean), "uniform" (on [0, high]), or
    "empirical" (uniform over a table of observed values).
    The scale must be finite and positive, the table nonempty, finite and
    nonnegative.
    """

    kind: str
    mean: float = 0.0
    high: float = 0.0
    values: tuple = ()

    def __post_init__(self):
        _read_kind(self, _LINK_KINDS, "link distribution")
        if self.kind != "empirical":
            name = "mean" if self.kind == "exponential" else "high"
            _read_nonnegative(getattr(self, name), name, (), nonzero=True)
        else:
            _read_nonnegative(self.values, "values", (None,))

    def expected_value(self) -> float:
        if self.kind == "exponential":
            return self.mean
        if self.kind == "uniform":
            return self.high / 2.0
        return float(np.mean(self.values))


@dataclass(frozen=True)
class ContinuousChannelModel:
    """Independent continuous capacities per link, for the fluid model."""

    N: int
    K: int
    links: tuple = ()  # links[n][k] is a LinkDistribution
    kind = "continuous"  # a class constant, not a field: the one continuous kind

    def __post_init__(self):
        _read_fields(self, _CONTINUOUS_FIELDS)
        validate(self)

    @classmethod
    def of(cls, links) -> "ContinuousChannelModel":
        links = _read(links, _CONTINUOUS_FIELDS["links"], "links")
        return cls(N=len(links), K=len(links[0]), links=links)

    def link_means(self) -> np.ndarray:
        return np.array(
            [[self.links[n][k].expected_value() for k in range(self.K)] for n in range(self.N)]
        )


# -- validation ----------------------------------------------------------


def validate(model) -> None:
    """Check every structural invariant; raise ValidationError naming the first field at fault."""
    N, K = _read_count(model.N, "N", 1), _read_count(model.K, "K", 1)
    if isinstance(model, ContinuousChannelModel):  # each link checked itself when built
        if len(model.links) != N or any(len(row) != K for row in model.links):
            raise ValidationError(f"links must have shape ({N}, {K})")
        return
    M = _read_count(model.M, "M", 1)
    if model.kind == "bernoulli":
        if M != 1:
            raise ValidationError(f"M must be 1 for ON-OFF links, got {M}")
        _check_probability(_read_nonnegative(model.p, "p", (N, K)), "p")
    elif model.kind == "factored":
        check_pmf(model.pmfs, "pmfs", (N, K, M + 1))
    else:  # explicit_joint
        mats = _read_nonnegative([mat for mat, _ in model.states], "states", (None, N, K))
        if (mats > M).any():
            raise ValidationError(f"states must be matrices of capacities in {{0..{M}}}")
        if len(np.unique(mats, axis=0)) < len(mats):
            raise ValidationError("states must be distinct matrices")
        check_pmf([prob for _, prob in model.states], "states", (len(mats),))


def check_pmf(pmf, name: str, shape: tuple) -> None:
    """Raise ValidationError naming the first pmf in ``name`` that does not sum to 1 along the last axis.

    pmf is first read by ``_read_nonnegative`` at ``shape``, so one call
    checks every link pmf of a factored model.
    """
    sums = _read_nonnegative(pmf, name, shape).sum(axis=-1)
    _refuse_first(abs(sums - 1.0) > PMF_TOL, sums, name, "must be normalised, got a sum of")


def _check_probability(a: np.ndarray, name: str) -> None:
    """Raise ValidationError naming the first entry of the read array a above 1."""
    _refuse_first(a > 1.0, a, name, "must be in [0, 1], got")


def _refuse_first(bad: np.ndarray, a: np.ndarray, name: str, rule: str) -> None:
    """Raise ValidationError ``name[i][j] rule a[i, j]`` at the first true entry of bad, if any."""
    if bad.any():
        i = np.unravel_index(bad.argmax(), bad.shape)
        raise ValidationError(f"{name}{''.join(f'[{j}]' for j in i)} {rule} {a[i].item()!r}")


@contextlib.contextmanager
def _at(path: str):
    """Prefix the message of a ValidationError raised inside by ``path``, the JSON path of what is built."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{path}{exc}") from None


def _read(x, spec, where: str):
    """x read against ``spec``; ValidationError naming the JSON path ``where`` of the first fault.

    A spec is ``int`` or ``float`` (a number, not a bool; an integral float
    reads as an int), another class (an instance of it, so ``object`` takes
    anything), ``[item]`` (a nonempty list, tuple or array, read into a
    tuple), ``[a, b]`` (a list of exactly those entries), ``{key: spec}``
    (an object read into a dict; a key ending in ``?`` is optional) or
    ``(tag, {value: spec})`` (an object read into ``(value, dict)``).
    """
    if spec is float or spec is int:
        try:
            if type(x) in (int, float) or isinstance(x, numbers.Real) and not isinstance(x, bool):
                if spec is float or int(x) == x:
                    return spec(x)
        except (ValueError, OverflowError):
            pass
        raise ValidationError(f"{where} must be {'a number' if spec is float else 'an integer'}, got {x!r}")
    if isinstance(spec, type):
        if isinstance(x, spec):
            return x
        raise ValidationError(f"{where} must be a {spec.__name__}, got {x!r}")
    if isinstance(spec, list):
        if not isinstance(x, (list, tuple)) and not (isinstance(x, np.ndarray) and x.ndim):
            raise ValidationError(f"{where} must be a list, got {x!r}")
        if len(spec) == 1:
            if not len(x):
                raise ValidationError(f"{where} must be nonempty")
            if (spec[0] is float or spec[0] is int) and all(type(v) is spec[0] for v in x):
                return tuple(x)  # already read: the common case, without a call per entry
            return tuple(_read(v, spec[0], f"{where}[{i}]") for i, v in enumerate(x))
        if len(x) != len(spec):
            raise ValidationError(f"{where} must be a list of {len(spec)} entries, got {x!r}")
        return tuple(_read(v, s, f"{where}[{i}]") for i, (v, s) in enumerate(zip(x, spec)))
    if isinstance(spec, tuple):
        tag, cases = spec
        value = _read(x, {tag: object}, where)[tag]
        if not isinstance(value, str) or value not in cases:
            raise ValidationError(f"{where}.{tag} must be one of {list(cases)}, got {value!r}")
        return value, _read(x, cases[value], where)
    if not isinstance(x, dict):
        raise ValidationError(f"{where} must be an object, got {x!r}")
    out = {}
    for key, sub in spec.items():
        name = key.removesuffix("?")
        if name in x:
            out[name] = _read(x[name], sub, f"{where}.{name}" if where else name)
        elif name == key:
            raise ValidationError(f"{where} is missing {name!r}")
    return out


def _read_count(x, name: str, least: int = 0) -> int:
    """x read as ``_read(x, int, name)`` reads it, and at least ``least``; else ValidationError naming ``name``."""
    n = _read(x, int, name)
    if n < least:
        raise ValidationError(f"{name} must be at least {least}, got {n}")
    return n


def _read_nonnegative(x, name: str, shape: tuple, nonzero: bool = False) -> np.ndarray:
    """x as a float array of ``shape``, finite and >= 0; else ValidationError naming ``name``.

    A ``None`` in ``shape`` is a free axis.  With ``nonzero`` some entry
    must be positive.  Bools are refused, also one among numbers in a list
    or tuple (an array is not scanned), and so are strings, other objects
    and ragged lists.  A scalar (``shape`` ``()``) is first read as
    ``_read(x, float, name)`` reads it.
    """
    got = ""
    if shape == ():
        x = _read(x, float, name)
        got = f", got {x!r}"
    try:
        a = np.asarray(x)
    except (ValueError, Warning):  # a ragged list: numpy >= 1.24 raises, older numpy warns (an error under -W error)
        a = None
    # where older numpy only warns, a ragged list reads as an object array
    if a is None or a.dtype.kind not in "iuf" or isinstance(x, (list, tuple)) and _holds_bool(x):
        raise ValidationError(f"{name} must be a rectangular array of numbers, got {x!r}")
    if a.shape != shape and (a.ndim != len(shape) or any(s not in (None, d) for s, d in zip(shape, a.shape))):
        raise ValidationError(f"{name} must have shape {str(shape).replace('None', '*')}, got {a.shape}")
    a = a.astype(float, copy=False)
    if not (np.isfinite(a) & (a >= 0)).all():
        raise ValidationError(f"{name} must be finite and nonnegative{got}")
    if nonzero and not a.any():
        raise ValidationError(f"{name} must be nonzero{got}")
    return a


def _holds_bool(x) -> bool:
    """Whether a bool, or a boolean array, sits anywhere in the nested lists and tuples x."""
    return any(isinstance(v, (bool, np.bool_)) or isinstance(v, np.ndarray) and v.dtype.kind == "b"
               or isinstance(v, (list, tuple)) and _holds_bool(v) for v in x)


def _read_fields(obj, spec: dict) -> None:
    """Replace each field of a frozen dataclass named in ``spec`` by its reading."""
    # getattr, not vars(obj): a materialised __dict__ slows every later attribute read
    for name, value in _read({name: getattr(obj, name) for name in spec}, spec, "").items():
        object.__setattr__(obj, name, value)


def _read_kind(obj, kinds: dict, what: str) -> None:
    """Read a kind-tagged frozen dataclass against its table ``kinds``, kind -> {field: spec}.

    A kind outside the table is a ValidationError, and so is a field of
    another kind that is not at its default: the default object itself, or
    a plain int, float or tuple equal to it (a field of another kind is
    never read).  The kind's own fields are then read as ``_read_fields``
    reads them.
    """
    if not isinstance(obj.kind, str) or obj.kind not in kinds:
        raise ValidationError(f"unknown {what} kind {obj.kind!r}")
    own, defaults = kinds[obj.kind], type(obj).__dataclass_fields__
    for name in (name for table in kinds.values() for name in table if name not in own):
        value, default = getattr(obj, name), defaults[name].default
        if value is not default and not (type(value) in (int, float, tuple) and value == default):
            raise ValidationError(f"field {name!r} does not belong to kind {obj.kind!r}")
    _read_fields(obj, own)


# each type's kinds and their fields, read by _read_kind; the sizes belong to every discrete kind
_SIZES = {"N": int, "K": int, "M": int}
_DISCRETE_KINDS = {
    "bernoulli": {**_SIZES, "p": [[float]]},
    "factored": {**_SIZES, "pmfs": [[[float]]]},
    "explicit_joint": {**_SIZES, "states": [[[[int]], float]]},
}
_LINK_KINDS = {"exponential": {"mean": float}, "uniform": {"high": float}, "empirical": {"values": [float]}}
_CONTINUOUS_FIELDS = {"N": int, "K": int, "links": [[LinkDistribution]]}


def validate_discrete(model) -> None:
    """Reject anything but a discrete model; continuous models have no finite state space."""
    if not isinstance(model, DiscreteChannelModel):
        raise ValidationError(
            f"a discrete channel model is required, got {type(model).__name__}; "
            "continuous models have a fluid region only"
        )


# -- enumeration ---------------------------------------------------------


def _link_pmf(model: DiscreteChannelModel, n: int, k: int) -> tuple:
    """Pmf of link (n, k) over {0..M}; an ON-OFF link is capacity 1 with probability p."""
    if model.kind == "bernoulli":
        q = model.p[n][k]
        return (1.0 - q, q)
    return model.pmfs[n][k]


def _product_law(pmfs, cap: int, what: str) -> tuple[list, list]:
    """Law of independent variables with these pmfs, as (values, probs).

    ``values`` holds one tuple of positive-probability atoms per state, in
    ``itertools.product`` order, and ``probs`` each state's probability,
    multiplied left to right from 1.0.  At most ``cap`` states of ``what``.
    """
    supports = [[(v, q) for v, q in enumerate(pmf) if q > 0.0] for pmf in pmfs]
    if math.prod(map(len, supports)) > cap:
        raise ValidationError(f"state-space cap exceeded: > {cap} {what}")
    values, probs = [], []
    for combo in itertools.product(*supports):
        atoms, qs = zip(*combo)
        values.append(atoms)
        probs.append(math.prod(qs, start=1.0))
    return values, probs


def enumerate_states(model: DiscreteChannelModel, cap: int = DEFAULT_STATE_CAP):
    """Exact joint pmf of the channel matrix as a list of (matrix, probability).

    Factored and bernoulli models are expanded as products of their link
    pmfs in row-major link order; zero-probability states are omitted.
    Matrices are returned as int arrays of shape (N, K).  Raises
    ValidationError when the joint state space exceeds ``cap``.
    """
    cap = _read_count(cap, "cap", 1)
    if model.kind == "explicit_joint":
        if len(model.states) > cap:
            raise ValidationError(f"state-space cap exceeded: {len(model.states)} > {cap}")
        return [(np.array(mat, dtype=np.int64), prob) for mat, prob in model.states]
    N, K = model.N, model.K
    pmfs = [_link_pmf(model, n, k) for n in range(N) for k in range(K)]
    values, probs = _product_law(pmfs, cap, "joint states")
    return list(zip(np.array(values, dtype=np.int64).reshape(-1, N, K), probs))


def per_server_column_distribution(model: DiscreteChannelModel, k: int):
    """Exact joint pmf of the capacity column (C[0,k], ..., C[N-1,k]).

    Only defined for factored and bernoulli models, whose links are
    independent, so any per-server expectation can be taken against this
    column law alone.  Returns the law of ``column_laws(model)[k]``, built
    for server k alone, as a list of (tuple of length N, probability).
    """
    validate_discrete(model)
    if model.kind == "explicit_joint":
        raise ValidationError("per-server column law undefined for explicit_joint; use enumerate_states")
    k = _read(k, int, "k")
    if not 0 <= k < model.K:
        raise ValidationError(f"server index {k} out of range for K={model.K}")
    return list(zip(*_column_law(model, k)))


def _column_law(model: DiscreteChannelModel, k: int) -> tuple[list, list]:
    """Law of server k's column of a factored or bernoulli model, as ``_product_law`` gives it."""
    return _product_law([_link_pmf(model, n, k) for n in range(model.N)], DEFAULT_STATE_CAP, "column states")


def column_laws(model: DiscreteChannelModel) -> list:
    """Per-server column laws of any discrete model, as arrays.

    Entry k is ``(values, probs)``: ``values`` (S_k, N) holds columns
    (C[0,k], ..., C[N-1,k]) and ``probs`` (S_k,) their probabilities.  Any
    sum over servers of a per-server expectation, such as the support value
    sum_k E[max_n alpha_n C[n,k]], depends on the channel law only through
    these marginals, whatever the dependence between servers.  Explicit
    models slice their joint states (columns may repeat); factored and
    bernoulli models take the product of the column's link pmfs.
    """
    validate_discrete(model)
    if model.kind == "explicit_joint":
        mats = np.array([mat for mat, _ in model.states], dtype=np.int64)
        probs = np.array([prob for _, prob in model.states])
        return [(mats[:, :, k], probs) for k in range(model.K)]
    laws = [_column_law(model, k) for k in range(model.K)]
    return [(np.array(values, dtype=np.int64), np.array(probs)) for values, probs in laws]


def link_means(model) -> np.ndarray:
    """E[C[n,k]] for every link, as an (N, K) array."""
    if isinstance(model, ContinuousChannelModel):
        return model.link_means()
    if model.kind == "explicit_joint":
        return sum(prob * np.array(mat, dtype=float) for mat, prob in model.states)
    levels = np.arange(model.M + 1)
    return np.array(
        [[float(np.dot(_link_pmf(model, n, k), levels)) for k in range(model.K)] for n in range(model.N)]
    )


# -- sampling ------------------------------------------------------------


def sample_states(model: DiscreteChannelModel, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` i.i.d. channel matrices of a discrete model; shape (size, N, K).

    Slots are sampled independently from the stationary law (the models
    carry no temporal correlation).  Links are filled in fixed row-major
    order so a given generator state always produces the same block.  A
    continuous model is refused: the package never samples one.

    Blocks come in ``np.min_scalar_type(-M - 1)``, the smallest signed
    integer type holding 0..M (int8 while M < 128), which mixes with int64
    exactly.  The values are those of the literal draws: one
    ``rng.random((size, N, K)) < p`` for bernoulli models, drawn a chunk of
    slots at a time, which continues the same stream; per link
    ``_categorical(rng, pmf, size)`` for factored models and
    ``_categorical`` over the state probabilities for explicit_joint ones,
    each the draws of ``rng.choice`` with ``p=``.
    """
    validate_discrete(model)
    size = _read_count(size, "size")
    N, K = model.N, model.K
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
                out[:, n, k] = _categorical(rng, model.pmfs[n][k], size)
        return out
    mats = np.array([mat for mat, _ in model.states], dtype=dtype)
    return mats[_categorical(rng, [prob for _, prob in model.states], size)]


def _categorical(rng: np.random.Generator, pmf, size: int) -> np.ndarray:
    """The draws of ``rng.choice(len(pmf), size, p=pmf / pmf.sum())``, without its per-call checks.

    ``choice`` looks ``size`` uniforms u up in the normalised cdf: a draw
    is the number of cdf entries <= u, which is ``searchsorted(u, "right")``.
    Up to 128 atoms that number is counted in int8 as the sum of
    ``u >= edge`` over the interior edges cdf[:-1] (the last entry is 1.0,
    above every u), which is faster than the search up to there (not at
    200 atoms); more atoms keep the search.
    """
    pmf = np.asarray(pmf, dtype=float)
    cdf = (pmf / pmf.sum()).cumsum()
    cdf /= cdf[-1]
    u = rng.random(size)
    if len(cdf) > 128:
        return cdf.searchsorted(u, side="right")
    count = (u >= cdf[0]).view(np.int8)
    for edge in cdf[1:-1]:
        count += u >= edge
    return count


# -- JSON descriptors ----------------------------------------------------


def to_descriptor(model) -> dict:
    """JSON-ready description: {"N", "K", "kind", ...kind-specific fields}."""
    if isinstance(model, ContinuousChannelModel):
        links = [[{"dist": d.kind, **_kind_fields(d, _LINK_KINDS)} for d in row] for row in model.links]
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


def _kind_fields(obj, kinds: dict) -> dict:
    """The fields of obj's kind in table order, tuples as lists, for a JSON descriptor."""
    fields = {name: getattr(obj, name) for name in kinds[obj.kind]}
    return {name: list(v) if isinstance(v, tuple) else v for name, v in fields.items()}


_SHAPE = {"N?": int, "K?": int}
_DESCRIPTOR = ("kind", {
    "bernoulli": {**_SHAPE, "p": [[float]]},
    "factored": {**_SHAPE, "pmfs": [[[float]]]},
    "explicit_joint": {**_SHAPE, "M?": int, "states": [{"C": [[int]], "prob": float}]},
    "continuous": {**_SHAPE, "links": [[("dist", _LINK_KINDS)]]},
})


def from_descriptor(d: dict):
    """Build and validate a model from its JSON descriptor; ``N`` and ``K``, if given, must match its arrays.

    A fault found while a link or the model is built is named by its JSON
    path (``descriptor.links[0][1].mean``, ``descriptor.p[0][1]``).
    """
    kind, fields = _read(d, _DESCRIPTOR, "descriptor")
    if kind == "continuous":
        links = []
        for n, row in enumerate(fields["links"]):
            links.append([])
            for k, (dist, spec) in enumerate(row):
                with _at(f"descriptor.links[{n}][{k}]."):
                    links[n].append(LinkDistribution(dist, **spec))
    with _at("descriptor."):
        if kind == "bernoulli":
            model = DiscreteChannelModel.bernoulli(fields["p"])
        elif kind == "factored":
            model = DiscreteChannelModel.factored(fields["pmfs"])
        elif kind == "explicit_joint":
            states = [(s["C"], s["prob"]) for s in fields["states"]]
            model = DiscreteChannelModel.explicit_joint(states, M=fields.get("M"))
        else:
            model = ContinuousChannelModel.of(links)
    for key, size in (("N", model.N), ("K", model.K)):
        if fields.get(key, size) != size:
            raise ValidationError(f"descriptor.{key} must be {size} to match its arrays, got {fields[key]}")
    return model


def load_model(path):
    with open(path) as fh:
        return from_descriptor(json.load(fh))


def descriptor_hash(model) -> str:
    """Stable 16-hex-digit digest of the model descriptor."""
    blob = json.dumps(to_descriptor(model), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
