"""Shared fixtures and random-instance generators for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from mqms import DiscreteChannelModel


def random_bernoulli(rng, N, K) -> DiscreteChannelModel:
    return DiscreteChannelModel.bernoulli(rng.random((N, K)).tolist())


def random_factored(rng, N, K, M) -> DiscreteChannelModel:
    pmfs = []
    for _ in range(N):
        row = []
        for _ in range(K):
            w = rng.random(M + 1) + 0.05
            row.append((w / w.sum()).tolist())
        pmfs.append(row)
    return DiscreteChannelModel.factored(pmfs)


def random_explicit(rng, N, K, M, n_states) -> DiscreteChannelModel:
    """Explicit model on n_states distinct random matrices; ValueError if fewer than that exist."""
    if n_states > (M + 1) ** (N * K):
        raise ValueError(f"only {(M + 1) ** (N * K)} distinct {N}x{K} matrices over 0..{M}, not {n_states}")
    mats = set()
    while len(mats) < n_states:
        mats.add(tuple(tuple(int(x) for x in row) for row in rng.integers(0, M + 1, (N, K))))
    mats = sorted(mats)
    w = rng.random(len(mats)) + 0.05
    w /= w.sum()
    return DiscreteChannelModel.explicit_joint(list(zip(mats, w)), M=M)


def random_discrete(rng, max_n=3, max_k=3, max_m=2, state_cap=4096) -> DiscreteChannelModel:
    """Any-kind random instance small enough for the brute-force oracle."""
    while True:
        N = int(rng.integers(1, max_n + 1))
        K = int(rng.integers(1, max_k + 1))
        M = int(rng.integers(1, max_m + 1))
        if (M + 1) ** (N * K) > state_cap or N**K > state_cap:
            continue
        kind = rng.choice(["bernoulli", "factored", "explicit_joint"])
        if kind == "bernoulli":
            return random_bernoulli(rng, N, K)
        if kind == "factored":
            return random_factored(rng, N, K, M)
        n_states = int(rng.integers(2, min(8, (M + 1) ** (N * K)) + 1))
        return random_explicit(rng, N, K, M, n_states)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
