"""Every public scalar argument is read, and a bad one is named.

Counts go through ``_read_count`` and real numbers through ``_read(x,
float, name)``: a bool, a fraction where an integer is due, a non-finite
number where a finite one is due and a count below its bound all raise a
ValueError whose message starts with the argument's name.  The integer
arguments whose bool and fraction cases other tests already hold (``T``,
``replications``, ``N``, ``M``, ``K``, ``directions``, ``samples``) appear
here with their value below the bound.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from mqms import (
    ArrivalModel,
    ContinuousChannelModel,
    DiscreteChannelModel,
    LinkDistribution,
    UtilitySpec,
    boundary_trace,
    brute_force_support,
    build_vhat,
    build_w,
    delay_bound,
    enumerate_states,
    exp_2q_boundary,
    in_v,
    mc_support_function,
    onoff_support,
    per_server_column_distribution,
    run,
    sample_states,
    solve_fairness,
    wn_count,
)

SYM = DiscreteChannelModel.bernoulli([[0.5], [0.5]])
EXP = ContinuousChannelModel.of([[LinkDistribution("exponential", mean=1.0)]] * 2)
ARRIVALS = ArrivalModel.deterministic([0.1, 0.1])


# (function, argument, call with the value, least value) of every count
COUNTS = [
    ("build_w", "M", lambda x: build_w(x, 2), 1),
    ("build_w", "N", lambda x: build_w(2, x), 1),
    ("wn_count", "M", lambda x: wn_count(x, 2), 1),
    ("wn_count", "N", lambda x: wn_count(2, x), 2),
    ("in_v", "M", lambda x: in_v((1, 1), x), 1),
    ("build_vhat", "M", lambda x: build_vhat(x, 2), 1),
    ("build_vhat", "N", lambda x: build_vhat(2, x), 1),
    ("build_vhat", "cap", lambda x: build_vhat(2, 2, cap=x), 1),
    ("log_shifted", "n_queues", lambda x: UtilitySpec.log_shifted(x), 1),
    ("alpha_fair", "n_queues", lambda x: UtilitySpec.alpha_fair(x, 2.0), 1),
    ("run", "seed", lambda x: run(SYM, ARRIVALS, T=10, seed=x), 0),
    ("ArrivalModel.sample", "T", lambda x: ARRIVALS.sample(np.random.default_rng(0), x), 0),
    ("sample_states", "size", lambda x: sample_states(SYM, np.random.default_rng(0), x), 0),
    ("enumerate_states", "cap", lambda x: enumerate_states(SYM, cap=x), 1),
    ("brute_force_support", "state_cap", lambda x: brute_force_support(SYM, (1, 1), state_cap=x), 1),
    ("brute_force_support", "alloc_cap", lambda x: brute_force_support(SYM, (1, 1), alloc_cap=x), 1),
]
# indices, whose range is checked against the model: a bool and a fraction
INDICES = [
    ("per_server_column_distribution", "k", lambda x: per_server_column_distribution(SYM, x)),
    ("onoff_support", "queue_subset[0]", lambda x: onoff_support([[0.5], [0.5]], [x])),
]
# real numbers: a bool and nan
NUMBERS = [
    ("solve_fairness", "tol", lambda x: solve_fairness(SYM, UtilitySpec.log_shifted(2), tol=x)),
    ("delay_bound", "delta", lambda x: delay_bound(2, 1.0, 1, 1, x)),
    ("exp_2q_boundary", "mu1", lambda x: exp_2q_boundary(x, 1.0, 0.5)),
    ("exp_2q_boundary", "mu2", lambda x: exp_2q_boundary(1.0, x, 0.5)),
    ("exp_2q_boundary", "lambda1", lambda x: exp_2q_boundary(1.0, 1.0, x)),
    ("in_v", "alpha[1]", lambda x: in_v((1, x), 2)),
]
# counts whose bool and fraction cases are held elsewhere: the value below the bound
BELOW = [
    ("run", "T", lambda x: run(SYM, ARRIVALS, T=x), 0),
    ("run", "replications", lambda x: run(SYM, ARRIVALS, T=10, replications=x), 0),
    ("delay_bound", "N", lambda x: delay_bound(x, 1.0, 1, 1, 0.5), 0),
    ("delay_bound", "M", lambda x: delay_bound(1, 1.0, x, 1, 0.5), 0),
    ("delay_bound", "K", lambda x: delay_bound(1, 1.0, 1, x, 0.5), -2),
    ("boundary_trace", "directions", lambda x: boundary_trace(EXP, directions=x), 2),
    ("boundary_trace", "samples", lambda x: boundary_trace(EXP, samples=x), 0),
    ("mc_support_function", "samples", lambda x: mc_support_function(EXP, (1.0, 1.0), x), 0),
]


def cases():
    for fn, name, call, least in COUNTS:
        for kind, x in (("bool", True), ("fraction", 1.5), ("below", least - 1)):
            yield pytest.param(call, x, name, id=f"{fn}-{name}-{kind}")
    for fn, name, call in INDICES:
        for kind, x in (("bool", True), ("fraction", 0.5)):
            yield pytest.param(call, x, name, id=f"{fn}-{name}-{kind}")
    for fn, name, call in NUMBERS:
        for kind, x in (("bool", True), ("nan", math.nan)):
            yield pytest.param(call, x, name, id=f"{fn}-{name}-{kind}")
    for fn, name, call, x in BELOW:
        yield pytest.param(call, x, name, id=f"{fn}-{name}-below")


@pytest.mark.parametrize(("call", "x", "name"), list(cases()))
def test_a_bad_argument_is_rejected_by_name(call, x, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be"):
        call(x)


def test_a_numpy_seed_is_stored_as_an_int():
    stats = run(SYM, ARRIVALS, T=10, seed=np.int64(3)).replications[0]
    assert stats.seed == 3 and type(stats.seed) is int


def test_queue_indices_may_come_from_any_iterable():
    p = [[0.5], [0.5]]
    assert onoff_support(p, iter([np.int64(1), 0])) == onoff_support(p, (0, 1)) == onoff_support(p, {1.0, 0})
