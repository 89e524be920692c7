"""Exact rational support values of discrete models: the truth column for ``build_region``'s betas.

Reads a model's JSON descriptor (``to_descriptor``), not the library's link
pmfs, column laws or state enumeration, and sums ``Fraction``s; every float
input is an exact binary rational.  For independent links (bernoulli and
factored kinds), with F_nk the cdf of link (n, k),

    h(alpha) = sum_k  sum over consecutive levels v < v' of max_n alpha_n C[n, k]
                      of (v' - v) * (1 - prod_n F_nk(v / alpha_n)),

since E[X] = sum (v' - v) P(X > v) for X >= 0 on those levels, and
P(max_n alpha_n C[n, k] <= v) is the product over the queues with
alpha_n > 0.  For explicit joint models it is the sum over the states of
prob * sum_k max_n alpha_n C[n, k].

Run as a script (``PYTHONPATH=src python tests/exact_betas.py``), it prints
the worst distance, in ulps, of a ``build_region`` beta from its exact value,
per model kind, over the corpus the test suite checks.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from mqms import build_region, from_descriptor, to_descriptor
from conftest import random_discrete, random_factored

DEMO_MODELS = Path(__file__).resolve().parent.parent / "demos" / "models"


def _link_cdfs(d: dict) -> list:
    """cdfs[n][k][c] = P(C[n, k] <= c) of an independent-link descriptor, as Fractions."""
    if d["kind"] == "bernoulli":
        pmfs = [[(1 - Fraction(q), Fraction(q)) for q in row] for row in d["p"]]
    else:
        pmfs = [[[Fraction(q) for q in pmf] for pmf in row] for row in d["pmfs"]]
    cdfs = []
    for row in pmfs:
        cdfs.append([])
        for pmf in row:
            total, cdf = Fraction(0), []
            for q in pmf:
                total += q
                cdf.append(total)
            cdfs[-1].append(cdf)
    return cdfs


def exact_support(d: dict, alpha) -> Fraction:
    """h(alpha) of the discrete model with descriptor d, exactly; alpha holds nonnegative integers."""
    N, K = d["N"], d["K"]
    alpha = [int(a) for a in alpha]
    if d["kind"] == "explicit_joint":
        return sum(
            Fraction(s["prob"]) * sum(max(alpha[n] * s["C"][n][k] for n in range(N)) for k in range(K))
            for s in d["states"]
        )
    cdfs = _link_cdfs(d)
    total = Fraction(0)
    for k in range(K):
        top = [len(cdfs[n][k]) - 1 for n in range(N)]
        levels = sorted({a * c for n, a in enumerate(alpha) for c in range(top[n] + 1)})
        for v, v_next in zip(levels, levels[1:]):
            at_most_v = Fraction(1)
            for n, a in enumerate(alpha):
                if a:
                    at_most_v *= cdfs[n][k][min(v // a, top[n])]
            total += (v_next - v) * (1 - at_most_v)
    return total


def ulps(x: float, exact: Fraction) -> float:
    """|x - exact| in units of the last place of the float nearest to exact."""
    return float(abs(Fraction(x) - exact) / Fraction(math.ulp(float(exact))))


def corpus() -> list:
    """The discrete demo models, 60 seeded small models of every kind and two region-shape factored models."""
    descriptors = [json.loads(path.read_text()) for path in sorted(DEMO_MODELS.glob("*.json"))]
    models = [from_descriptor(d) for d in descriptors if d.get("kind") in ("bernoulli", "factored", "explicit_joint")]
    rng = np.random.default_rng(1809)
    models += [random_discrete(rng) for _ in range(60)]
    models += [random_factored(rng, 3, 3, 4) for _ in range(2)]  # N = K = 3, M = 4
    return models


def worst_ulps(models) -> dict:
    """kind -> (worst ulps of a build_region beta from its exact support, rows checked)."""
    worst = {}
    for model in models:
        d, region = to_descriptor(model), build_region(model)
        err = max(ulps(beta, exact_support(d, alpha)) for alpha, beta in region.inequalities)
        w, rows = worst.get(model.kind, (0.0, 0))
        worst[model.kind] = (max(w, err), rows + len(region.beta))
    return worst


if __name__ == "__main__":
    for kind, (err, rows) in sorted(worst_ulps(corpus()).items()):
        print(f"{kind:15s} {rows:5d} rows  worst {err:.2f} ulps")
