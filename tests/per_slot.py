"""The tests' own per-slot reference for ``run``, written from the definitions on Python ints.

It shares no code with the package: ``run``'s loops are replayed slot by
slot against these three functions.  Each refuses, with ValueError, an
input it is not defined on (a wrong shape, a non-finite or negative
entry, a fractional or too large backlog or arrival), so a replay fed a
malformed block fails instead of agreeing with ``run`` by accident.
"""

import math

import numpy as np


def _read(a, name, shape) -> list:
    """a as nested Python lists of finite, nonnegative numbers of ``shape`` (None: any length)."""
    try:
        a = np.asarray(a)
    except ValueError:  # a ragged list
        a = None
    if a is None or a.dtype.kind not in "biuf":
        raise ValueError(f"{name} must be a rectangular array of numbers")
    if a.ndim != len(shape) or any(s not in (None, d) for s, d in zip(shape, a.shape)):
        raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
    if not all(0 <= x < math.inf for x in a.ravel().tolist()):  # refuses nan too
        raise ValueError(f"{name} must be finite and nonnegative")
    return a.tolist()


def _counts(a, name, shape) -> list:
    """a as a list of ``shape`` of Python ints, each a count below 2**63 (integral floats pass)."""
    a = _read(a, name, shape)
    if any(x % 1 for x in a):
        raise ValueError(f"{name} must be integers")
    if any(x >= 2**63 for x in a):
        raise ValueError(f"{name} must be below 2**63")
    return [int(x) for x in a]


def _backlogs_and_capacities(X, C) -> tuple[list, list]:
    X = _read(X, "queue lengths", (None,))
    return X, _read(C, "capacities", (len(X), None))


def _one_hot(N, winners) -> np.ndarray:
    """The (N, K) allocation matrix giving server k to queue winners[k]."""
    return np.array([[int(n == w) for w in winners] for n in range(N)], dtype=np.int64)


def mw_allocate(X, C, tie_rule="lowest_index") -> np.ndarray:
    """Server k to the first queue, in the tie rule's order, of largest X[n] * C[n][k]."""
    X, C = _backlogs_and_capacities(X, C)
    order = range(len(X)) if tie_rule == "lowest_index" else range(len(X) - 1, -1, -1)
    return _one_hot(len(X), [max(order, key=lambda n: X[n] * C[n][k]) for k in range(len(C[0]))])


def lcq_allocate(X, C) -> np.ndarray:
    """Server k to the longest queue connected to it (C[n][k] = 1), the lowest index on ties.

    An unconnected queue weighs -1, so a server with no connected queue parks on queue 0.
    """
    X, C = _backlogs_and_capacities(X, C)
    if any(c not in (0, 1) for row in C for c in row):
        raise ValueError("longest-connected-queue requires a binary channel matrix")
    return _one_hot(len(X), [max(range(len(X)), key=lambda n: X[n] if C[n][k] == 1 else -1)
                             for k in range(len(C[0]))])


def step(X, C, I, A) -> tuple[np.ndarray, np.ndarray]:
    """(next backlogs, departures): the offered service C * I, capped at the backlog, then the arrivals."""
    X = _counts(X, "queue lengths", (None,))
    C = _read(C, "capacities", (len(X), None))
    I = np.asarray(I)
    if I.shape != (len(C), len(C[0])):
        raise ValueError(f"allocation must have shape {(len(C), len(C[0]))}, got {I.shape}")
    I, A = I.tolist(), _counts(A, "arrivals", (len(X),))
    if any(i not in (0, 1) for row in I for i in row):
        raise ValueError("allocation entries must be 0 or 1")
    departures = [min(x, sum(c * i for c, i in zip(C[n], I[n]))) for n, x in enumerate(X)]
    X = [x - d + a for x, d, a in zip(X, departures, A)]
    if any(x >= 2**63 for x in X):
        raise ValueError("next queue lengths overflow int64")
    return np.array(X), np.array(departures)
