"""Pinned solve_fairness outputs, bit for bit.

``fairness_golden.json`` holds, for every case below, ``r_star``, ``gap``
and ``objective`` as ``float.hex`` strings and the iteration count.  They
pin the whole Frank-Wolfe arithmetic: the gradient, the line search and
the vertex oracle.  Rewrite the file only for a deliberate change of that
arithmetic, with

    PYTHONPATH=src python tests/test_fairness_golden.py
"""

from __future__ import annotations

import json
import math
import pathlib

import numpy as np

from mqms import UtilitySpec, solve_fairness
from conftest import random_discrete, random_factored

GOLDEN = pathlib.Path(__file__).with_name("fairness_golden.json")


def cases():
    """(name, model, spec, tol, max_iters) of every pinned solve."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        model = random_discrete(rng)
        N = model.N
        caps = np.where(rng.random(N) < 0.6, rng.uniform(0.05, 1.0, N), math.inf).tolist()
        weights = rng.uniform(0.1, 2.0, N).tolist()
        for capped, c in (("uncapped", None), ("capped", caps)):
            for kind, spec in (("log", UtilitySpec.log_shifted(N, caps=c)),
                               ("linear", UtilitySpec.weighted_linear(weights, caps=c)),
                               ("alpha0.5", UtilitySpec.alpha_fair(N, 0.5, caps=c)),
                               ("alpha2", UtilitySpec.alpha_fair(N, 2.0, caps=c))):
                yield f"seed{seed}-{kind}-{capped}", model, spec, 1e-7, 200
    # the fairness benchmark's shape: N = K = 3, M = 3, log, zig-zagging to max_iters
    model = random_factored(np.random.default_rng(28), 3, 3, 3)
    yield "factored-3x3-m3-log", model, UtilitySpec.log_shifted(3), 1e-6, 1000


def solve_all() -> dict:
    pinned = {}
    for name, model, spec, tol, max_iters in cases():
        sol = solve_fairness(model, spec, tol=tol, max_iters=max_iters)
        pinned[name] = {"r_star": [x.hex() for x in sol.r_star.tolist()], "gap": sol.gap.hex(),
                        "objective": sol.objective.hex(), "iterations": sol.iterations}
    return pinned


def test_solves_match_the_pinned_outputs():
    golden = json.loads(GOLDEN.read_text())
    assert solve_all() == golden
    # the cases reach both ends: solves that converge and solves stopped at max_iters
    iterations = [case["iterations"] for case in golden.values()]
    assert len(golden) == 97 and min(iterations) < 10 and iterations.count(200) >= 4
    assert golden["factored-3x3-m3-log"]["iterations"] == 1000


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(solve_all(), indent=1, sort_keys=True) + "\n")
