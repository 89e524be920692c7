import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from mqms import (
    ArrivalModel,
    DiscreteChannelModel,
    QueueArrivals,
    SimStats,
    ValidationError,
    arrivals_from_descriptor,
    as_lcq_allocate,
    delay_bound,
    mw_allocate,
    run,
    sample_states,
    step,
)
from mqms import channel_models, mqms_sim
from mqms.capacity_region import max_weight_argmax
from conftest import random_bernoulli, random_explicit, random_factored

MODEL_2x2 = DiscreteChannelModel.bernoulli([[0.5, 0.5], [0.5, 0.5]])


# -- allocation rules ---------------------------------------------------------


def test_mw_prefers_heavier_weight():
    I = mw_allocate([5, 3], [[2], [4]])
    assert I.tolist() == [[0], [1]]  # weights 10 vs 12


def test_mw_tie_goes_to_lowest_index():
    I = mw_allocate([2, 2], [[1], [1]])
    assert I.tolist() == [[1], [0]]


def test_mw_empty_system_parks_on_first_queue():
    I = mw_allocate([0, 0], [[1, 0], [0, 1]])
    assert I.tolist() == [[1, 1], [0, 0]]


def test_mw_columns_always_sum_to_one(rng):
    for _ in range(20):
        N, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        X = rng.integers(0, 10, N)
        C = rng.integers(0, 3, (N, K))
        I = mw_allocate(X, C)
        assert (I.sum(axis=0) == 1).all()


def test_mw_matches_exhaustive_allocation_search(rng):
    for _ in range(60):
        N, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        M = int(rng.integers(1, 3))
        X = rng.integers(0, 8, N)
        C = rng.integers(0, M + 1, (N, K))
        I = mw_allocate(X, C)
        value = int((X[:, None] * C * I).sum())
        best = max(
            sum(int(X[pick[k]] * C[pick[k], k]) for k in range(K))
            for pick in itertools.product(range(N), repeat=K)
        )
        assert value == best


def test_lcq_picks_longest_connected():
    I = as_lcq_allocate([4, 7], [[1], [1]])
    assert I.tolist() == [[0], [1]]


def test_lcq_respects_connectivity():
    I = as_lcq_allocate([4, 7], [[1], [0]])
    assert I.tolist() == [[1], [0]]


def test_lcq_disconnected_server_has_no_effect():
    X = np.array([4, 7])
    C = np.array([[0], [0]])
    I = as_lcq_allocate(X, C)
    x_next, dep = step(X, C, I, [0, 0])
    assert dep.tolist() == [0, 0]
    assert x_next.tolist() == [4, 7]


def test_lcq_requires_binary_channels():
    with pytest.raises(ValueError, match="binary"):
        as_lcq_allocate([1, 1], [[2], [0]])


def test_lcq_delivers_same_service_as_mw_for_onoff(rng):
    for _ in range(300):
        N, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        X = rng.integers(0, 6, N)
        C = rng.integers(0, 2, (N, K))
        served_mw = np.minimum(X, (C * mw_allocate(X, C)).sum(axis=1))
        served_lcq = np.minimum(X, (C * as_lcq_allocate(X, C)).sum(axis=1))
        assert (served_mw == served_lcq).all()


# -- queue update --------------------------------------------------------------


def test_step_projects_before_arrivals():
    x_next, dep = step([5, 3], [[2], [4]], [[1], [1]], [1, 0])
    assert x_next.tolist() == [4, 0]
    assert dep.tolist() == [2, 3]


def test_step_from_empty_queues():
    x_next, dep = step([0, 0], [[3], [3]], [[1], [0]], [2, 5])
    assert x_next.tolist() == [2, 5]
    assert dep.tolist() == [0, 0]


def test_step_identity_without_service_or_arrivals():
    x_next, dep = step([1, 1], [[0], [0]], [[1], [0]], [0, 0])
    assert x_next.tolist() == [1, 1]
    assert dep.tolist() == [0, 0]


def test_step_accepts_integral_floats():
    x_next, dep = step([3.0, 0.0], [[1], [0]], [[1], [0]], [1.0, 2.0])
    assert x_next.dtype == np.int64 and x_next.tolist() == [3, 2]
    assert dep.tolist() == [1, 0]


def test_step_accepts_the_int64_range():
    # departures come off before arrivals, so a full queue may still take one
    x_next, dep = step([2**63 - 1, 0], [[1], [0]], [[1], [0]], [1, 0])
    assert x_next.tolist() == [2**63 - 1, 0] and dep.tolist() == [1, 0]
    x_next, _ = step([2.0**63 - 1024, 0], [[0], [0]], [[1], [0]], [0, 0])
    assert x_next.tolist() == [2**63 - 1024, 0]


C_2x2 = [[1, 2], [0, 1]]
I_2x2 = [[1, 0], [0, 1]]


@pytest.mark.parametrize(("call", "match"), [
    (lambda: step([[3, 3]], C_2x2, I_2x2, [0, 0]), "queue lengths must have shape"),
    (lambda: mw_allocate([3, 3], [1, 2]), "capacities must have shape"),
    (lambda: as_lcq_allocate([3, 3, 3], I_2x2), "capacities must have shape"),
    (lambda: step([3, 3], C_2x2, [[1], [0]], [0, 0]), "allocation must have shape"),
    (lambda: step([3, 3], C_2x2, I_2x2, [1]), "arrivals must have shape"),
    (lambda: mw_allocate([float("nan"), 1], I_2x2), "queue lengths must be finite"),
    (lambda: as_lcq_allocate([1, float("inf")], I_2x2), "queue lengths must be finite"),
    (lambda: step([-2, 3], C_2x2, I_2x2, [0, 0]), "queue lengths must be finite and nonnegative"),
    (lambda: mw_allocate([1, 1], [[1, float("inf")], [0, 1]]), "capacities must be finite"),
    (lambda: mw_allocate([1, 1], [[-1, 2], [0, 1]]), "capacities must be finite and nonnegative"),
    (lambda: step([3, 3], [[-1, 2], [0, 1]], I_2x2, [0, 0]), "capacities must be finite and nonnegative"),
    (lambda: step([3, 3], C_2x2, I_2x2, [float("nan"), 0]), "arrivals must be finite"),
    (lambda: step([3, 3], C_2x2, I_2x2, [-1, 0]), "arrivals must be finite and nonnegative"),
    (lambda: step([3, 3], C_2x2, [[2, 0], [0, 1]], [0, 0]), "allocation entries must be 0 or 1"),
    (lambda: step([3, 3], C_2x2, [[float("nan"), 0], [0, 1]], [0, 0]), "allocation entries must be 0 or 1"),
    (lambda: step([2.5, 0], [[1], [0]], [[1], [0]], [0, 0]), "queue lengths must be integers"),
    (lambda: step([2, 0], [[1], [0]], [[1], [0]], [0.5, 0]), "arrivals must be integers"),
    (lambda: step([1e300, 0], [[1], [0]], [[1], [0]], [0, 0]), "queue lengths must be below 2"),
    (lambda: step([2.0**63, 0], [[1], [0]], [[1], [0]], [0, 0]), "queue lengths must be below 2"),
    (lambda: step([2**63, 0], [[1], [0]], [[1], [0]], [0, 0]), "queue lengths must be below 2"),
    (lambda: step([0, 0], [[1], [0]], [[1], [0]], [2.0**63, 0]), "arrivals must be below 2"),
    (lambda: step([2**62, 0], [[0], [0]], [[1], [0]], [2**62, 0]), "overflow int64"),
    (lambda: step([2**63 - 1, 0], [[0], [0]], [[1], [0]], [1, 0]), "overflow int64"),
], ids=[
    "X-2d", "C-1d", "C-rows", "I-shape", "A-shape", "X-nan", "X-inf", "X-negative", "C-inf",
    "C-negative-mw", "C-negative-step", "A-nan", "A-negative", "I-two", "I-nan", "X-fraction", "A-fraction",
    "X-float-huge", "X-float-2**63", "X-int-2**63", "A-float-2**63", "X-plus-A-int", "X-max-plus-A",
])
def test_per_slot_ops_reject_bad_input(call, match):
    # before these checks, a (2, 1) allocation or one arrival broadcast over
    # both queues, negative backlogs and capacities gave negative
    # departures, and mw_allocate picked winners from NaN weights
    with pytest.raises(ValueError, match=match):
        call()


# -- occupancy bound -------------------------------------------------------------


def test_delay_bound_arithmetic():
    assert delay_bound(2, 4.0, 1, 2, 0.1) == pytest.approx(60.0)
    assert delay_bound(1, 1.0, 1, 1, 0.5) == pytest.approx(2.0)
    assert delay_bound(2.0, 4, 1.0, 2, 0.1) == delay_bound(2, 4.0, 1, 2, 0.1)  # integral floats read as integers


def test_delay_bound_decreasing_in_margin():
    bounds = [delay_bound(2, 4.0, 1, 2, d) for d in (0.01, 0.1, 0.5, 1.0)]
    assert bounds == sorted(bounds, reverse=True)


@pytest.mark.parametrize(("args", "message"), [
    ((2, math.nan, 1, 1, 0.5), "a_max_sq must be finite and nonnegative, got nan"),
    ((2, -5.0, 1, 1, 0.5), "a_max_sq must be finite and nonnegative, got -5.0"),
    ((2, math.inf, 1, 1, 0.5), "a_max_sq must be finite and nonnegative, got inf"),
    ((0, 1.0, 1, 1, 0.5), "N must be at least 1, got 0"),
    ((1, 1.0, 0, 1, 0.5), "M must be at least 1, got 0"),
    ((1, 1.0, 1, -2, 0.5), "K must be at least 1, got -2"),
    ((1.5, 1.0, 1, 1, 0.5), "N must be an integer, got 1.5"),
    ((1, 1.0, True, 1, 0.5), "M must be an integer, got True"),
    ((1, "1", 1, 1, 0.5), "a_max_sq must be a number, got '1'"),
], ids=["nan-moment", "negative-moment", "inf-moment", "no-queues", "zero-M", "negative-K",
        "fractional-N", "bool-M", "string-moment"])
def test_delay_bound_rejects_bad_dimensions_and_moments(args, message):
    # delay_bound(2, nan, 1, 1, 0.5) returned nan, a_max_sq = -5.0 gave -9.0, and N = 0 passed
    with pytest.raises(ValueError) as exc:
        delay_bound(*args)
    assert str(exc.value) == message


def test_delay_bound_requires_interior_rate():
    for delta in (0.0, -0.1, -np.inf):
        with pytest.raises(ValueError, match="not strictly interior"):
            delay_bound(2, 4.0, 1, 2, delta)
    for delta in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            delay_bound(2, 4.0, 1, 2, delta)


# -- arrival models ----------------------------------------------------------------


def test_deterministic_arrivals_token_schedule():
    arr = ArrivalModel.deterministic([0.3])
    got = arr.sample(np.random.default_rng(0), 10)[:, 0].tolist()
    assert got == [0, 0, 0, 1, 0, 0, 1, 0, 0, 1]
    assert arr.mean_rates().tolist() == [0.3]
    assert arr.a_max_sq == 1.0


def test_bernoulli_batch_moments():
    arr = ArrivalModel.bernoulli_batch([3], [0.25])
    q = arr.queues[0]
    assert q.mean == pytest.approx(0.75)
    assert q.mean_square == pytest.approx(0.25 * 9)
    assert q.cap == 3


def test_bounded_pmf_moments():
    arr = ArrivalModel.bounded_pmf([[0.5, 0.25, 0.25]])
    q = arr.queues[0]
    assert q.mean == pytest.approx(0.75)
    assert q.mean_square == pytest.approx(0.25 + 4 * 0.25)
    assert q.cap == 2


def test_arrival_descriptor_round_trip():
    # deterministic rates are written as floats only when those read back
    # exactly; 1/3 as a float read back as 3333333333333333/10^16 and
    # released its first packet a slot late
    for arr in (
        ArrivalModel.bernoulli_batch([1, 2], [0.65, 0.1]),
        ArrivalModel.deterministic([Fraction(1, 3), 0.3, "2/7", 2]),
        ArrivalModel.bounded_pmf([[0.5, 0.25, 0.25], [0.1, 0.9]]),
    ):
        back = arrivals_from_descriptor(json.loads(json.dumps(arr.to_descriptor())))
        assert back == arr
        assert (back.sample(np.random.default_rng(3), 12) == arr.sample(np.random.default_rng(3), 12)).all()
    rates = [q["rate"] for q in ArrivalModel.deterministic([Fraction(1, 3), 0.3]).to_descriptor()["queues"]]
    assert rates == ["1/3", 0.3]


def test_arrival_pmf_must_normalize():
    with pytest.raises(ValidationError, match="pmf must be normalised"):
        ArrivalModel.bounded_pmf([[0.5, 0.4]])


@pytest.mark.parametrize("spec", [
    {"kind": "bernoulli_batch", "batch": 1, "prob": 1.5},
    {"kind": "bernoulli_batch", "batch": -1, "prob": 0.5},
    {"kind": "bounded_pmf", "pmf": [0.5, 0.5, 0.5]},
    {"kind": "bounded_pmf", "pmf": [float("nan"), 1.0]},
    {"kind": "deterministic", "rate": float("inf")},
    {"kind": "deterministic", "rate": float("nan")},
])
def test_arrival_descriptor_is_validated(spec):
    with pytest.raises(ValidationError):
        arrivals_from_descriptor({"queues": [spec]})



@pytest.mark.parametrize(("spec", "field"), [
    ({"kind": "bernoulli_batch", "batch": 1, "prob": None}, r"arrivals\.queues\[0\]\.prob must be a number, got None"),
    ({"kind": "bounded_pmf", "pmf": [0.5, None]}, r"arrivals\.queues\[0\]\.pmf\[1\] must be a number, got None"),
    ({"kind": "bernoulli_batch", "batch": None, "prob": 0.5},
     r"arrivals\.queues\[0\]\.batch must be an integer, got None"),
    ({"kind": "deterministic", "rate": None}, "arrival rate None is not a finite number"),
], ids=["prob", "pmf-entry", "batch", "rate"])
def test_arrival_descriptor_rejects_null_numbers(spec, field):
    with pytest.raises(ValidationError, match=field):
        arrivals_from_descriptor(json.loads(json.dumps({"queues": [spec]})))

@pytest.mark.parametrize("make", [
    lambda: ArrivalModel.bounded_pmf([[float("nan"), 1.0]]),
    lambda: QueueArrivals(kind="bernoulli_batch", batch=1, prob=1.5),
    lambda: QueueArrivals(kind="bernoulli_batch", batch=1, prob=float("nan")),
    lambda: QueueArrivals(kind="deterministic", rate_num=-1, rate_den=2),
    lambda: ArrivalModel.bernoulli_batch([1, 1], [0.5]),
], ids=["bounded_pmf-nan", "prob-above-1", "prob-nan", "negative-rate", "unequal-lengths"])
def test_arrival_constructors_are_validated(make):
    with pytest.raises(ValidationError):
        make()


def test_bernoulli_batch_rejects_non_integral_batch():
    with pytest.raises(ValidationError, match="must be an integer"):
        ArrivalModel.bernoulli_batch([1.5], [0.5])
    assert ArrivalModel.bernoulli_batch([2.0], [0.5]).queues[0].batch == 2


def test_raw_queue_arrivals_reject_a_non_integral_batch():
    # a raw instance used to report mean 0.75 and cap 1.5 yet sample batches of 1
    with pytest.raises(ValidationError, match="must be an integer"):
        QueueArrivals(kind="bernoulli_batch", batch=1.5, prob=0.5)
    with pytest.raises(ValidationError, match="must be an integer"):
        QueueArrivals(kind="deterministic", rate_num=0.5, rate_den=1)
    q = QueueArrivals(kind="bernoulli_batch", batch=2.0, prob=1)
    assert (q.batch, q.prob) == (2, 1.0) and (type(q.batch), type(q.prob)) == (int, float)


def test_raw_queue_arrivals_keep_a_hashable_pmf():
    q = QueueArrivals(kind="bounded_pmf", pmf=[0.5, 0.5])
    assert q.pmf == (0.5, 0.5)
    assert hash(q) == hash(ArrivalModel.bounded_pmf([[0.5, 0.5]]).queues[0])


def test_arrival_descriptor_rejects_non_integral_batch():
    spec = {"kind": "bernoulli_batch", "batch": 1.5, "prob": 0.5}
    with pytest.raises(ValidationError, match="must be an integer"):
        arrivals_from_descriptor({"queues": [spec]})
    arr = arrivals_from_descriptor({"queues": [dict(spec, batch=2.0)]})
    assert arr.mean_rates().tolist() == [1.0]


def test_empty_arrivals_have_no_peak_second_moment():
    # the maximum over no queues, like the empty mean_rates() and the (T, 0) block
    arr = ArrivalModel(queues=())
    assert arr.a_max_sq == 0.0 and arr.mean_rates().shape == (0,)
    assert arr.sample(np.random.default_rng(0), 5).shape == (5, 0)


def _literal_arrivals(arr, rng, T):
    # the documented stream, drawn the plain way, one queue at a time: the
    # token schedule, one uniform per slot below prob, or rng.choice over the pmf
    out = np.empty((T, arr.N), dtype=np.int64)
    for n, q in enumerate(arr.queues):
        if q.kind == "deterministic":
            rate = Fraction(q.rate_num, q.rate_den)
            out[:, n] = [math.floor(rate * t) - math.floor(rate * (t - 1)) for t in range(1, T + 1)]
        elif q.kind == "bernoulli_batch":
            out[:, n] = (rng.random(T) < q.prob) * q.batch
        else:
            pmf = np.array(q.pmf)
            out[:, n] = rng.choice(len(pmf), T, p=pmf / pmf.sum())
    return out


def _arrival_cases(rng):
    yield ArrivalModel.deterministic([0.3, Fraction(1, 3), 2, 0, "7/2"])
    batches = rng.integers(0, 5, 4).tolist()
    yield ArrivalModel.bernoulli_batch(batches, [0.0, 1.0, *rng.random(2).tolist()])
    pmfs = []
    for atoms in (1, 2, 3, 5, 128, 129, 200):
        w = rng.random(atoms) + 0.05
        pmfs.append((w / w.sum()).tolist())
        if atoms > 3:  # a leading, an interior and a trailing zero atom
            w[[0, atoms // 2, atoms - 1]] = 0.0
            pmfs.append((w / w.sum()).tolist())
    pmfs.append([0.0, 0.0, 1.0, 0.0])
    yield ArrivalModel.bounded_pmf(pmfs)
    yield ArrivalModel(queues=[*ArrivalModel.bernoulli_batch([2], [0.4]).queues,
                               *ArrivalModel.bounded_pmf([pmfs[-2], [0.5, 0.0, 0.5]]).queues,
                               *ArrivalModel.deterministic([0.25]).queues])


def test_arrival_sample_replays_the_literal_stream(rng):
    # values, dtype and the generator's next draw
    for arr in _arrival_cases(rng):
        for T in (1, 2, 9, 500):
            seed = int(rng.integers(1 << 30))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = arr.sample(got_rng, T)
            want = _literal_arrivals(arr, want_rng, T)
            assert got.dtype == np.int64 and got.shape == (T, arr.N)
            assert (got == want).all()
            assert got_rng.random() == want_rng.random()


# -- full runs -----------------------------------------------------------------------


@pytest.mark.parametrize("policy", ["mw", "as_lcq"])
def test_run_rejects_unknown_tie_rule_before_sampling(monkeypatch, policy):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the tie rule")

    monkeypatch.setattr(mqms_sim, "sample_states", no_sampling)
    with pytest.raises(ValueError) as expected:
        max_weight_argmax([1, 2], "bogus")
    with pytest.raises(ValueError) as got:
        run(MODEL_2x2, ArrivalModel.deterministic([0.1, 0.1]), policy=policy, T=10, tie_rule="bogus")
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(("kwargs", "message"), [
    ({"policy": "bogus"}, "unknown policy 'bogus'"),
    ({"T": 0}, "T must be at least 1, got 0"),
    ({"T": -5}, "T must be at least 1, got -5"),
], ids=["policy", "T-zero", "T-negative"])
def test_run_rejects_a_bad_policy_or_horizon_before_sampling(monkeypatch, kwargs, message):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the arguments")

    monkeypatch.setattr(mqms_sim, "sample_states", no_sampling)
    with pytest.raises(ValueError) as info:
        run(MODEL_2x2, ArrivalModel.deterministic([0.1, 0.1]), **{"T": 10, **kwargs})
    assert str(info.value) == message


@pytest.mark.parametrize("reps", [0, -1])
def test_run_rejects_fewer_than_one_replication_before_sampling(monkeypatch, reps):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking the replication count")

    monkeypatch.setattr(mqms_sim, "sample_states", no_sampling)
    with pytest.raises(ValueError, match="replications must be at least 1"):
        run(MODEL_2x2, ArrivalModel.deterministic([0.1, 0.1]), T=10, replications=reps)


@pytest.mark.parametrize(("name", "value"), [
    ("T", 10.5), ("T", True), ("T", "10"), ("replications", 2.5), ("replications", True), ("replications", math.nan),
])
def test_run_rejects_a_horizon_or_replication_count_that_is_not_an_integer(name, value):
    arrivals = ArrivalModel.deterministic([0.1, 0.1])
    with pytest.raises(ValidationError, match=f"{name} must be an integer"):
        run(MODEL_2x2, arrivals, **{"T": 10, name: value})
    # an integral float reads as the integer
    a = run(MODEL_2x2, arrivals, T=100.0, replications=2.0)
    b = run(MODEL_2x2, arrivals, T=100, replications=2)
    assert a.replications == b.replications and a.replications[0].horizon == 100


@pytest.mark.parametrize("reps", [1, mqms_sim._BATCH_MIN_REPS])
def test_run_rejects_backlogs_that_could_overflow_int64(reps):
    # backlogs, weights X * C and occupancy sums are bounded by
    # T * cap * max(T, M): a run with that bound at the int64 maximum runs,
    # one slot more is refused, in both slot loops
    int64_max = np.iinfo(np.int64).max
    M = int64_max // 7
    assert 7 * M == int64_max
    model = DiscreteChannelModel.explicit_joint([([[M]], 0.5), ([[0]], 0.5)])
    arr = ArrivalModel.bernoulli_batch([1], [0.5])
    res = run(model, arr, T=7, replications=reps)
    assert all(s.total_arrivals == (s.total_departures[0] + s.final_queue[0],) for s in res.replications)
    with pytest.raises(ValidationError, match="overflow"):
        run(model, arr, T=8, replications=reps)


def test_run_zero_arrivals_stays_empty():
    arr = ArrivalModel.deterministic([0.0, 0.0])
    res = run(MODEL_2x2, arr, T=500, seed=1)
    s = res.replications[0]
    assert s.avg_aggregate_occupancy == 0.0
    assert s.final_queue == (0, 0)


def test_replication_i_is_the_run_seeded_seed_plus_i():
    arr = ArrivalModel.bernoulli_batch([1, 1], [0.4, 0.4])
    batch = run(MODEL_2x2, arr, T=2000, seed=11, replications=4)
    assert run(MODEL_2x2, arr, T=2000, seed=11, replications=4) == batch
    for i, s in enumerate(batch.replications):
        alone = run(MODEL_2x2, arr, T=2000, seed=11 + i).replications[0]
        assert (s.replication, s.seed) == (i, 11)
        assert replace(s, replication=0, seed=11 + i) == alone


def test_run_trace_conserves_packets():
    arr = ArrivalModel.bernoulli_batch([1, 1], [0.6, 0.6])
    res = run(MODEL_2x2, arr, T=3000, seed=5, record_trace=True)
    trace = res.trace
    N = 2
    X = trace[:, 1 : 1 + N]
    served = trace[:, 1 + N : 1 + 2 * N]
    arrived = trace[:, 1 + 2 * N : 1 + 3 * N]
    assert (X >= 0).all()
    # X(t) = arrivals(<=t) - departures(<=t), starting empty
    assert (X == np.cumsum(arrived, axis=0) - np.cumsum(served, axis=0)).all()
    s = res.replications[0]
    assert s.avg_aggregate_occupancy == pytest.approx(X.sum(axis=1).mean(), abs=1e-9)
    assert list(s.per_queue_avg) == pytest.approx(X.mean(axis=0).tolist(), abs=1e-9)
    assert list(s.throughput) == pytest.approx((served.sum(axis=0) / 3000).tolist(), abs=1e-9)


def test_run_matches_per_slot_operations():
    # replaying the documented sampling order through the public per-slot
    # ops must reproduce the fused loop exactly
    arr = ArrivalModel.bernoulli_batch([1, 1], [0.5, 0.5])
    T, seed = 400, 77
    res = run(MODEL_2x2, arr, T=T, seed=seed, record_trace=True)
    rng = np.random.default_rng(seed)
    C_all = sample_states(MODEL_2x2, rng, T)
    A_all = arr.sample(rng, T)
    X = np.zeros(2, dtype=np.int64)
    for t in range(T):
        I = mw_allocate(X, C_all[t])
        X, dep = step(X, C_all[t], I, A_all[t])
        assert (X == res.trace[t, 1:3]).all()
        assert (dep == res.trace[t, 3:5]).all()
        assert (A_all[t] == res.trace[t, 5:7]).all()


@pytest.mark.parametrize("R", [3, mqms_sim._BATCH_MIN_REPS])
@pytest.mark.parametrize("tie_rule", ["lowest_index", "highest_index"])
@pytest.mark.parametrize("kind", ["factored", "explicit_joint"])
def test_run_replications_match_per_slot_replay(rng, kind, tie_rule, R):
    # every replication r of a multi-replication run, replayed alone from
    # default_rng(seed + r) through the scalar per-slot ops, on multi-level
    # channels where the tie rule matters; R = 3 runs the scalar loop and
    # R = _BATCH_MIN_REPS the batched one
    for _ in range(4):
        N, K, M = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 4))
        if kind == "factored":
            model = random_factored(rng, N, K, M)
        else:
            model = random_explicit(rng, N, K, M, int(rng.integers(2, 9)))
        arr = ArrivalModel.bounded_pmf([(w / w.sum()).tolist() for w in rng.random((N, M + 1)) + 0.05])
        _assert_run_matches_per_slot_replay(model, arr, 300, int(rng.integers(1000)), R, tie_rule)


@pytest.mark.parametrize("R", [1, 3])
@pytest.mark.parametrize("tie_rule", ["lowest_index", "highest_index"])
@pytest.mark.parametrize("load", ["light", "saturated"])
def test_scalar_run_on_wide_models_matches_per_slot_replay(load, tie_rule, R):
    # the scalar loop lets servers scan only the backlogged queues; on a
    # factored 6x6, M = 2 model it must still replay mw_allocate exactly,
    # under a light load that leaves many queues empty and many weights
    # tied, and a saturated one where no queue empties after warm-up
    N, T, seed = 6, 400, 11
    model = random_factored(np.random.default_rng(6), N, N, 2)
    probs = [0.3] * N if load == "light" else [0.9] * N
    arr = ArrivalModel.bernoulli_batch([2 if load == "light" else 3] * N, probs)
    trace = _assert_run_matches_per_slot_replay(model, arr, T, seed, R, tie_rule)
    empty = trace[:, 1 : 1 + N] == 0
    if load == "light":
        assert empty.mean() >= 0.4
    else:
        assert not empty[10:].any()


def _assert_run_matches_per_slot_replay(model, arr, T, seed, R, tie_rule):
    # every replication r of the run, replayed alone from default_rng(seed + r)
    # through step and mw_allocate; returns replication 0's trace
    N = model.N
    res = run(model, arr, T=T, seed=seed, replications=R, tie_rule=tie_rule, record_trace=True)
    for r in range(R):
        stream = np.random.default_rng(seed + r)
        C_all = sample_states(model, stream, T)
        A_all = arr.sample(stream, T)
        X = np.zeros(N, dtype=np.int64)
        rows = []
        for t in range(T):
            X, dep = step(X, C_all[t], mw_allocate(X, C_all[t], tie_rule), A_all[t])
            rows.append(np.concatenate([[t + 1], X, dep, A_all[t]]))
        rows = np.array(rows)
        X_all, dep_all = rows[:, 1 : 1 + N], rows[:, 1 + N : 1 + 2 * N]
        assert res.replications[r] == SimStats(
            replication=r,
            seed=seed,
            horizon=T,
            avg_aggregate_occupancy=int(X_all.sum()) / T,
            per_queue_avg=tuple(int(x) / T for x in X_all.sum(axis=0)),
            throughput=tuple(int(d) / T for d in dep_all.sum(axis=0)),
            final_queue=tuple(X.tolist()),
            total_arrivals=tuple(A_all.sum(axis=0).tolist()),
            total_departures=tuple(dep_all.sum(axis=0).tolist()),
        )
        if r == 0:
            assert (res.trace == rows).all()
    return res.trace


@pytest.mark.parametrize("chunk", [7, None])
def test_scalar_run_spanning_several_sample_chunks_matches_literal_replay(monkeypatch, chunk):
    # bernoulli blocks are sampled a chunk of slots at a time; a horizon over
    # several chunks, with a partial last one, must replay exactly against
    # one literal rng.random((T, N, K)) < p draw, at a tiny chunk and at the
    # real one
    p = np.array([[0.3, 0.8], [0.6, 0.45]])
    model = DiscreteChannelModel.bernoulli(p.tolist())
    if chunk is not None:
        monkeypatch.setattr(channel_models, "_BERNOULLI_CHUNK_DRAWS", chunk * p.size)
    T = 2 * channel_models._BERNOULLI_CHUNK_DRAWS // p.size + 3 if chunk is None else 60
    arr = ArrivalModel.bernoulli_batch([2, 1], [0.3, 0.35])
    seed, R = 5, 2
    res = run(model, arr, T=T, seed=seed, replications=R, record_trace=True)
    for r in range(R):
        stream = np.random.default_rng(seed + r)
        C_all = (stream.random((T, 2, 2)) < p).astype(np.int64)
        A_all = arr.sample(stream, T)
        X = np.zeros(2, dtype=np.int64)
        occupancy = np.zeros(2, dtype=np.int64)
        for t in range(T):
            X, dep = step(X, C_all[t], mw_allocate(X, C_all[t]), A_all[t])
            occupancy += X
            if r == 0:
                assert (res.trace[t, 1:] == np.concatenate([X, dep, A_all[t]])).all()
        assert res.replications[r].final_queue == tuple(X.tolist())
        assert res.replications[r].per_queue_avg == tuple(int(s) / T for s in occupancy)


@pytest.mark.parametrize("chunk", [7, None])
@pytest.mark.parametrize("tie_rule", ["lowest_index", "highest_index"])
@pytest.mark.parametrize("R", [mqms_sim._BATCH_MIN_REPS, mqms_sim._BATCH_MIN_REPS + 1])
def test_batched_run_spanning_several_int64_chunks_matches_per_slot_replay(monkeypatch, R, tie_rule, chunk):
    # the batched loop converts its blocks to int64 a chunk of slots at a
    # time; a horizon over several chunks with a partial last one must
    # replay exactly, trace included, at 7-slot chunks and at the real size
    N, K = 4, 3
    model = random_factored(np.random.default_rng(14), N, K, 3)
    arr = ArrivalModel.bounded_pmf([[0.4, 0.3, 0.2, 0.1]] * N)
    if chunk is not None:
        monkeypatch.setattr(mqms_sim, "_SLOT_CHUNK_BYTES", chunk * 8 * K * R * N)
    T = 60 if chunk is not None else 2 * (mqms_sim._SLOT_CHUNK_BYTES // (8 * K * R * N)) + 3
    _assert_run_matches_per_slot_replay(model, arr, T, 23, R, tie_rule)


def test_scalar_run_frees_each_replication_before_sampling_the_next():
    # a run of three replications may peak no higher than a run of one, give
    # or take half a channel block; holding replication r-1's block while r
    # is sampled costs a whole one
    N, T = 8, 4000
    model = DiscreteChannelModel.bernoulli(np.full((N, N), 0.5).tolist())
    arr = ArrivalModel.bernoulli_batch([1] * N, [0.05] * N)
    block = T * N * N * np.dtype(np.int8).itemsize
    mqms_sim._simulate_scalar(model, arr, 10, 0, 1, "lowest_index", False)  # one-time allocations
    peaks = {}
    for R in (1, 3):
        tracemalloc.start()
        try:
            mqms_sim._simulate_scalar(model, arr, T, 0, R, "lowest_index", False)
            peaks[R] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[3] <= peaks[1] + block / 2


@pytest.mark.parametrize(("R", "bytes_per_link_slot"), [(1, 2.5), (mqms_sim._BATCH_MIN_REPS, 1.75)])
def test_run_peak_memory_per_link_slot(R, bytes_per_link_slot):
    # a factored 8x8, M = 2 run samples one-byte channel blocks.  The scalar
    # loop holds its (T, K, N) block and, at most, one sampled channel block
    # or the int64 arrival block (8/N bytes per link-slot), about 2.2 bytes
    # per link-slot; the batched loop holds all R blocks plus one
    # replication being sampled.
    # An int64 block alone takes 8 bytes per link-slot.
    N, T = 8, 20_000
    model = random_factored(np.random.default_rng(3), N, N, 2)
    arr = ArrivalModel.bernoulli_batch([1] * N, [0.1] * N)
    tracemalloc.start()
    try:
        run(model, arr, T=T, seed=0, replications=R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_link_slot * T * R * N * N


@pytest.mark.parametrize("tie_rule", ["lowest_index", "highest_index"])
def test_run_as_lcq_matches_per_slot_lcq(rng, tie_rule):
    # as_lcq runs the max-weight loop; replaying the LCQ rule slot by slot
    # through the public per-slot ops checks that it serves the same
    for _ in range(10):
        N, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        model = random_bernoulli(rng, N, K)
        arr = ArrivalModel.bernoulli_batch([1] * N, (0.8 * rng.random(N)).tolist())
        T, seed = 300, int(rng.integers(1000))
        res = run(model, arr, policy="as_lcq", T=T, seed=seed, tie_rule=tie_rule, record_trace=True)
        stream = np.random.default_rng(seed)
        C_all = sample_states(model, stream, T)
        A_all = arr.sample(stream, T)
        X = np.zeros(N, dtype=np.int64)
        for t in range(T):
            X, dep = step(X, C_all[t], as_lcq_allocate(X, C_all[t]), A_all[t])
            assert (res.trace[t, 1:] == np.concatenate([X, dep, A_all[t]])).all()


def test_run_throughput_converges_to_interior_rates():
    lam = (0.65, 0.65)
    arr = ArrivalModel.bernoulli_batch([1, 1], list(lam))
    res = run(MODEL_2x2, arr, T=100_000, seed=3, replications=20)
    thpt = np.array([s.throughput for s in res.replications])
    for n in range(2):
        mean = thpt[:, n].mean()
        se = thpt[:, n].std(ddof=1) / np.sqrt(len(thpt))
        # finite-horizon bias is below resolution here; allow a tiny absolute floor
        assert abs(mean - lam[n]) <= 3 * se + 5e-4


def test_run_mw_equals_lcq_for_onoff_channels(rng):
    model = random_bernoulli(rng, 3, 2)
    arr = ArrivalModel.bernoulli_batch([1, 1, 1], [0.2, 0.3, 0.25])
    a = run(model, arr, policy="mw", T=4000, seed=9, record_trace=True)
    b = run(model, arr, policy="as_lcq", T=4000, seed=9, record_trace=True)
    # delivered service coincides slot by slot, hence so do the queues
    assert (a.trace[:, 1:7] == b.trace[:, 1:7]).all()


def test_run_rejects_lcq_with_multilevel_capacities():
    model = DiscreteChannelModel.factored([[[0.2, 0.3, 0.5]]])
    arr = ArrivalModel.deterministic([0.1])
    with pytest.raises(ValidationError, match="ON-OFF"):
        run(model, arr, policy="as_lcq", T=10)


def test_run_aggregate_means():
    arr = ArrivalModel.bernoulli_batch([1, 1], [0.3, 0.3])
    res = run(MODEL_2x2, arr, T=1000, seed=2, replications=3)
    agg = res.aggregate()
    occ = [s.avg_aggregate_occupancy for s in res.replications]
    assert agg["avg_aggregate_occupancy"] == pytest.approx(np.mean(occ))
