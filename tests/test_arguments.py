"""Every public argument and every range-limited field is read, and a bad one is named.

Counts go through ``_read_count`` and real numbers through ``_read(x,
float, name)``: a bool, a fraction where an integer is due, a non-finite
number where a finite one is due and a count below its bound all raise a
ValidationError whose message starts with the argument's name.  The integer
arguments whose bool and fraction cases other tests already hold (``T``,
``replications``, ``N``, ``M``, ``K``, ``directions``, ``samples``) appear
here with their value below the bound.  An array argument refuses strings,
bools, a bool among numbers, ragged lists and other objects.  The fields
of the raw model, link, arrival and utility constructors are read by the
same readers, and each out-of-range value, and each ragged array field,
raises its full message, which starts with the field's name.
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
    QueueArrivals,
    StabilityRegion,
    UtilitySpec,
    ValidationError,
    boundary_trace,
    brute_force_support,
    build_region,
    build_vhat,
    build_w,
    delay_bound,
    enumerate_states,
    exp_2q_boundary,
    fw_gap,
    in_v,
    membership_margin,
    onoff_support,
    per_server_column_distribution,
    run,
    sample_states,
    solve_fairness,
    support_function,
    support_vertex,
    wn_count,
)
from per_slot import mw_allocate, step

SYM = DiscreteChannelModel.bernoulli([[0.5], [0.5]])
EXP = ContinuousChannelModel.of([[LinkDistribution("exponential", mean=1.0)]] * 2)
ARRIVALS = ArrivalModel.deterministic([0.1, 0.1])
REGION = StabilityRegion([[1, 0], [0, 1]], [0.5, 0.5])


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
]

# array arguments read as float, each given a length-2 vector (onoff_support's p a 1 x 2 matrix)
ARRAYS = [
    ("membership_margin", "rates", lambda x: membership_margin(build_region(SYM), x)),
    ("binding", "rates", lambda x: REGION.binding(x)),
    ("support_function", "alpha", lambda x: support_function(SYM, x)),
    ("support_vertex", "alpha", lambda x: support_vertex(SYM, x)),
    ("brute_force_support", "alpha", lambda x: brute_force_support(SYM, x)),
    ("support_function-continuous", "alpha", lambda x: support_function(EXP, x)),
    ("UtilitySpec.value", "r", lambda x: UtilitySpec.log_shifted(2).value(x)),
    ("UtilitySpec.gradient", "r", lambda x: UtilitySpec.log_shifted(2).gradient(x)),
    ("fw_gap", "r", lambda x: fw_gap(SYM, x, UtilitySpec.log_shifted(2))),
    ("boundary_trace", "lambda1_values", lambda x: boundary_trace(EXP, directions=3, lambda1_values=x)),
    ("onoff_support", "p", lambda x: onoff_support([x] if isinstance(x, list) else x, [0])),
]
LEAKS = [("strings", ["0.1", "0.2"]), ("bools", [True, False]), ("mixed", [True, 0.2]),
         ("ragged", [[0.1, 0.2], [0.3]]), ("object", {"a": 1})]
# the tests' per-slot reference (tests/per_slot.py) keeps bools (ON-OFF blocks
# are bool) but refuses ragged lists and objects, with ValueError
SLOT_ARRAYS = [
    ("mw_allocate", "queue lengths", lambda x: mw_allocate(x, [[1, 0], [0, 1]])),
    ("mw_allocate", "capacities", lambda x: mw_allocate([1, 1], x)),
    ("step", "arrivals", lambda x: step([1, 1], [[1, 0], [0, 1]], [[1, 0], [0, 1]], x)),
]


def _discrete(kind, **fields):
    return lambda: DiscreteChannelModel(kind=kind, **{"N": 1, "K": 1, "M": 1, **fields})


P = ((0.5,),)
PMFS = (((0.5, 0.5),),)
STATES = ((((1,),), 1.0),)
# (type, field, construction, the message after the field's name) of every range-limited field
FIELDS = [
    *[("bernoulli", size, _discrete("bernoulli", p=P, **{size: 0}), "must be at least 1, got 0")
      for size in ("N", "K")],
    ("bernoulli", "M", _discrete("bernoulli", M=2, p=P), "must be 1 for ON-OFF links, got 2"),
    ("bernoulli", "p[0][0]", _discrete("bernoulli", p=((1.5,),)), "must be in [0, 1], got 1.5"),
    ("bernoulli", "p", _discrete("bernoulli", N=2, p=((0.5,), (0.5, 0.5))),
     "must be a rectangular array of numbers, got ((0.5,), (0.5, 0.5))"),
    *[("factored", size, _discrete("factored", pmfs=PMFS, **{size: 0}), "must be at least 1, got 0")
      for size in ("N", "K")],
    ("factored", "M", _discrete("factored", M=-1, pmfs=(((1.0,),),)), "must be at least 1, got -1"),
    ("factored", "pmfs", _discrete("factored", pmfs=(((-0.5, 1.5),),)), "must be finite and nonnegative"),
    ("factored", "pmfs[0][0]", _discrete("factored", pmfs=(((0.5, 0.6),),)), "must be normalised, got a sum of 1.1"),
    ("factored", "pmfs", _discrete("factored", N=2, pmfs=(((0.5, 0.5),), ((1.0,),))),
     "must be a rectangular array of numbers, got (((0.5, 0.5),), ((1.0,),))"),
    *[("explicit_joint", size, _discrete("explicit_joint", states=STATES, **{size: 0}), "must be at least 1, got 0")
      for size in ("N", "K")],
    ("explicit_joint", "M", _discrete("explicit_joint", M=-1, states=((((0,),), 1.0),)),
     "must be at least 1, got -1"),
    ("explicit_joint", "states", _discrete("explicit_joint", states=((((2,),), 1.0),)),
     "must be matrices of capacities in {0..1}"),
    ("explicit_joint", "states", _discrete("explicit_joint", states=((((1,),), 0.5), (((1,),), 0.5))),
     "must be distinct matrices"),
    ("explicit_joint", "states", _discrete("explicit_joint", states=((((1,),), 1.5), (((0,),), -0.5))),
     "must be finite and nonnegative"),
    ("explicit_joint", "states", _discrete("explicit_joint", states=((((1,),), 0.5), (((1, 0),), 0.5))),
     "must be a rectangular array of numbers, got [((1,),), ((1, 0),)]"),
    ("exponential", "mean", lambda: LinkDistribution("exponential", mean=-1.0),
     "must be finite and nonnegative, got -1.0"),
    ("uniform", "high", lambda: LinkDistribution("uniform", high=math.inf), "must be finite and nonnegative, got inf"),
    ("empirical", "values", lambda: LinkDistribution("empirical", values=(1.0, -0.5)),
     "must be finite and nonnegative"),
    ("empirical", "values", lambda: LinkDistribution("empirical"), "must be nonempty"),
    ("deterministic", "rate_num", lambda: QueueArrivals("deterministic", rate_num=-1), "must be at least 0, got -1"),
    ("deterministic", "rate_den", lambda: QueueArrivals("deterministic", rate_den=0), "must be at least 1, got 0"),
    ("bernoulli_batch", "batch", lambda: QueueArrivals("bernoulli_batch", batch=-1), "must be at least 0, got -1"),
    ("bernoulli_batch", "prob", lambda: QueueArrivals("bernoulli_batch", batch=1, prob=1.5),
     "must be in [0, 1], got 1.5"),
    ("bounded_pmf", "pmf", lambda: QueueArrivals("bounded_pmf", pmf=(0.5, 0.4)),
     "must be normalised, got a sum of 0.9"),
    ("bounded_pmf", "pmf", lambda: QueueArrivals("bounded_pmf", pmf=(-0.5, 1.5)), "must be finite and nonnegative"),
    ("weighted_linear", "weights", lambda: UtilitySpec("weighted_linear", caps=(1.0,), weights=(-1.0,)),
     "must be finite and nonnegative"),
    ("weighted_linear", "weights", lambda: UtilitySpec("weighted_linear", caps=(1.0, 1.0), weights=(1.0,)),
     "must have shape (2,), got (1,)"),
    ("log_shifted", "epsilon", lambda: UtilitySpec("log_shifted", caps=(1.0,), epsilon=0.0),
     "must be nonzero, got 0.0"),
    ("alpha_fair", "a", lambda: UtilitySpec("alpha_fair", caps=(1.0,), a=-1.0),
     "must be finite and nonnegative, got -1.0"),
    ("alpha_fair", "a", lambda: UtilitySpec("alpha_fair", caps=(1.0,), a=1.0), "must be other than 1, got 1.0"),
    ("log_shifted", "caps", lambda: UtilitySpec("log_shifted", caps=(math.inf, -0.5)),
     "other than inf must be finite and nonnegative"),
    ("log_shifted", "caps", lambda: UtilitySpec("log_shifted", caps=()), "must be nonempty"),
    ("weighted_linear", "caps", lambda: UtilitySpec.weighted_linear([]), "must be nonempty"),
]


def _named(name: str) -> str:
    return rf"^{re.escape(name)} must be"


def cases():
    for fn, name, call, least in COUNTS:
        for kind, x in (("bool", True), ("fraction", 1.5), ("below", least - 1)):
            yield pytest.param(call, x, _named(name), id=f"{fn}-{name}-{kind}")
    for fn, name, call in INDICES:
        for kind, x in (("bool", True), ("fraction", 0.5)):
            yield pytest.param(call, x, _named(name), id=f"{fn}-{name}-{kind}")
    for fn, name, call in NUMBERS:
        for kind, x in (("bool", True), ("nan", math.nan)):
            yield pytest.param(call, x, _named(name), id=f"{fn}-{name}-{kind}")
    for fn, name, call, x in BELOW:
        yield pytest.param(call, x, _named(name), id=f"{fn}-{name}-below")
    for fn, name, call in ARRAYS:
        for kind, x in LEAKS:
            yield pytest.param(call, x, _named(name), id=f"{fn}-{name}-{kind}")
    # a field's whole message is matched
    for i, (kind, name, make, rest) in enumerate(FIELDS):
        message = rf"^{re.escape(f'{name} {rest}')}$"
        yield pytest.param(lambda _, make=make: make(), None, message, id=f"{kind}-{name.partition('[')[0]}-{i}")


@pytest.mark.parametrize(("call", "x", "message"), list(cases()))
def test_a_bad_argument_is_rejected_by_name(call, x, message):
    with pytest.raises(ValidationError, match=message):
        call(x)


@pytest.mark.parametrize("p", [[[0.5, 0.5], (np.True_, 0.5)], [np.array([True, False]), [0.5, 0.5]]],
                         ids=["numpy-bool", "bool-row"])
def test_a_nested_bool_among_numbers_is_refused(p):
    with pytest.raises(ValidationError, match=r"^p must be a rectangular array of numbers"):
        onoff_support(p, [0])


@pytest.mark.parametrize(("call", "x", "message"), [
    pytest.param(call, x, _named(name), id=f"{fn}-{name}-{kind}")
    for fn, name, call in SLOT_ARRAYS for kind, x in LEAKS[3:]
])
def test_the_per_slot_reference_refuses_a_bad_argument_by_name(call, x, message):
    with pytest.raises(ValueError, match=message):
        call(x)


def test_the_per_slot_operations_keep_bools_among_numbers():
    assert mw_allocate([True, 2], [[1, 0], [0, True]]).tolist() == mw_allocate([1, 2], [[1, 0], [0, 1]]).tolist()


def test_a_numpy_seed_is_stored_as_an_int():
    stats = run(SYM, ARRIVALS, T=10, seed=np.int64(3)).replications[0]
    assert stats.seed == 3 and type(stats.seed) is int


def test_queue_indices_may_come_from_any_iterable():
    p = [[0.5], [0.5]]
    assert onoff_support(p, iter([np.int64(1), 0])) == onoff_support(p, (0, 1)) == onoff_support(p, {1.0, 0})
