"""Pinned boundary_trace outputs, bit for bit.

``fluid_golden.json`` holds, for every trace below, ``lambda1``,
``lambda2`` and ``stderr`` as ``float.hex`` strings, with ``directions``
and ``samples``.  They pin the whole tracer: the exact support value of
every direction, the envelope and its bracket.  The traces ignore
``samples`` and ``seed``, which the cases still pass and ``samples``
echoes.  Rewrite the file only for a deliberate change of that
arithmetic, with

    PYTHONPATH=src python tests/test_fluid_golden.py
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from mqms import ContinuousChannelModel, LinkDistribution, boundary_trace, load_model

GOLDEN = pathlib.Path(__file__).with_name("fluid_golden.json")
MODELS = pathlib.Path(__file__).parents[1] / "demos" / "models"


def _link(rng, kind):
    if kind == "exponential":
        return LinkDistribution("exponential", mean=float(rng.uniform(0.2, 3.0)))
    if kind == "uniform":
        return LinkDistribution("uniform", high=float(rng.uniform(0.2, 3.0)))
    values = np.round(rng.uniform(0.0, 3.0, int(rng.integers(1, 6))), 2).tolist()
    return LinkDistribution("empirical", values=tuple(values))


def _model(seed, K):
    rng = np.random.default_rng(seed)
    kinds = ("exponential", "uniform", "empirical")
    return ContinuousChannelModel.of([[_link(rng, kind) for kind in rng.choice(kinds, K)] for _ in range(2)])


def cases():
    """(name, model, directions, samples, seed) of every pinned trace."""
    # criterion 5: two exponential links sharing one server, at the demo's size
    yield "exp_2q_mu2_mu1", load_model(MODELS / "exp_2q_mu2_mu1.json"), 181, 100_000, 7
    yield "seed1-k1", _model(1, 1), 7, 1, 11
    yield "seed2-k2", _model(2, 2), 3, 2, 12
    yield "seed3-k3", _model(3, 3), 19, 500, 13
    yield "seed4-k9", _model(4, 9), 181, 20_000, 14
    # -0.0 as an empirical value, next to a link that is zero half the time
    zeros = ContinuousChannelModel.of([
        [LinkDistribution("empirical", values=(-0.0, 1.5)), LinkDistribution("exponential", mean=0.7)],
        [LinkDistribution("uniform", high=2.0), LinkDistribution("empirical", values=(0.0, -0.0, 2.25))],
    ])
    yield "negative-zero-k2", zeros, 31, 500, 15


def trace_all() -> dict:
    pinned = {}
    for name, model, directions, samples, seed in cases():
        curve = boundary_trace(model, directions=directions, samples=samples, seed=seed)
        pinned[name] = {
            "lambda1": [x.hex() for x in curve.lambda1.tolist()],
            "lambda2": [x.hex() for x in curve.lambda2.tolist()],
            "stderr": [x.hex() for x in curve.stderr.tolist()],
            "directions": curve.directions,
            "samples": curve.samples,
        }
    return pinned


def test_traces_match_the_pinned_outputs():
    golden = json.loads(GOLDEN.read_text())
    assert trace_all() == golden
    # the cases reach K = 1, 2, 3 and 9 and the criterion-5 size; every
    # bracket width is finite and nonnegative
    assert len(golden) == 6
    widths = [float.fromhex(x) for case in golden.values() for x in case["stderr"]]
    assert all(0.0 <= w < float("inf") for w in widths)
    assert golden["exp_2q_mu2_mu1"]["directions"] == 181 and golden["exp_2q_mu2_mu1"]["samples"] == 100_000


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(trace_all(), indent=1, sort_keys=True) + "\n")
