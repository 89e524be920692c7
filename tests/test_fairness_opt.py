import dataclasses
import math

import numpy as np
import pytest

from mqms import (
    DiscreteChannelModel,
    UtilitySpec,
    ValidationError,
    build_region,
    build_vhat,
    fw_gap,
    membership_margin,
    solve_fairness,
    support_function,
    support_vertex,
)
from mqms import capacity_region
from mqms.fairness_opt import GRAD_FLOOR, _line_search_step
from conftest import random_bernoulli, random_discrete, random_factored

SYM = DiscreteChannelModel.bernoulli([[0.5], [0.5]])


def vertex_pool(model):
    """All support vertices over canonical directions with both tie rules."""
    pts = []
    for alpha in build_vhat(model.M, model.N):
        for rule in ("lowest_index", "highest_index"):
            pts.append(support_vertex(model, alpha, tie_rule=rule))
    return pts


# -- utility specs -----------------------------------------------------------


def test_linear_weights_must_be_nonnegative():
    with pytest.raises(ValueError):
        UtilitySpec.weighted_linear([1.0, -0.5])


def test_log_epsilon_must_be_positive():
    with pytest.raises(ValueError):
        UtilitySpec.log_shifted(2, epsilon=0.0)


def test_alpha_fair_excludes_one():
    with pytest.raises(ValueError):
        UtilitySpec.alpha_fair(2, a=1.0)


@pytest.mark.parametrize("make", [
    lambda: UtilitySpec.log_shifted(2, epsilon=float("nan")),
    lambda: UtilitySpec.log_shifted(2, epsilon=float("inf")),
    lambda: UtilitySpec.weighted_linear([float("nan"), 1.0]),
    lambda: UtilitySpec.weighted_linear([float("inf"), 1.0]),
    lambda: UtilitySpec.log_shifted(2, caps=[float("nan"), 1.0]),
    lambda: UtilitySpec.alpha_fair(2, float("nan")),
], ids=["epsilon-nan", "epsilon-inf", "weight-nan", "weight-inf", "cap-nan", "exponent-nan"])
def test_utility_spec_rejects_non_finite(make):
    with pytest.raises(ValueError):
        make()


UNCAPPED = (math.inf, math.inf)


@pytest.mark.parametrize(("kwargs", "match"), [
    ({"kind": "bogus"}, "unknown utility kind"),
    ({"kind": "weighted_linear", "weights": (1.0, -0.5)}, "weights must be finite and nonnegative"),
    ({"kind": "weighted_linear", "weights": (1.0,)}, "need 1 caps, got 2"),
    ({"kind": "log_shifted", "epsilon": -1.0}, "epsilon must be finite and positive"),
    ({"kind": "alpha_fair", "a": 1.0}, "fairness exponent must be finite"),
    ({"kind": "alpha_fair", "a": 2.0, "caps": (float("nan"), 1.0)}, "caps must be nonnegative"),
    ({"kind": "log_shifted", "caps": ("1.0", 1.0)}, r"caps\[0\] must be a number, got '1.0'"),
    ({"kind": "log_shifted", "caps": (True, 1.0)}, r"caps\[0\] must be a number, got True"),
    ({"kind": "log_shifted", "epsilon": "0.5"}, "epsilon must be a number, got '0.5'"),
], ids=["kind", "weights", "weights-vs-caps", "epsilon", "exponent", "caps", "string-cap", "bool-cap",
        "string-epsilon"])
def test_raw_utility_spec_is_checked(kwargs, match):
    # raw specs were never checked: kind "bogus" solved as alpha_fair with
    # a = 0, and a negative epsilon gave a NaN objective
    with pytest.raises(ValueError, match=match):
        UtilitySpec(**{"caps": UNCAPPED, **kwargs})


@pytest.mark.parametrize(("make", "message"), [
    (lambda: UtilitySpec(kind="bogus", caps=UNCAPPED), "unknown utility kind 'bogus'"),
    (lambda: UtilitySpec.log_shifted(2, epsilon=0.0), "epsilon must be finite and positive"),
    (lambda: UtilitySpec.alpha_fair(2, a=1.0), "fairness exponent must be finite, >= 0 and != 1"),
    (lambda: UtilitySpec.log_shifted(2, caps=[-0.5, 1.0]), "caps must be nonnegative (infinity allowed), not NaN"),
    (lambda: UtilitySpec.log_shifted(2, caps=[math.nan, 1.0]), "caps must be nonnegative (infinity allowed), not NaN"),
    (lambda: UtilitySpec.weighted_linear([1.0, 2.0], caps=[1.0]), "need 2 caps, got 1"),
    (lambda: UtilitySpec(kind="weighted_linear", caps=UNCAPPED, weights=(1.0,)), "need 1 caps, got 2"),
], ids=["kind", "epsilon", "exponent", "negative-cap", "nan-cap", "caps-count", "raw-caps-count"])
def test_utility_spec_range_faults_are_validation_errors(make, message):
    # one error type for every bad spec, as for the model and arrival dataclasses
    with pytest.raises(ValidationError) as exc:
        make()
    assert type(exc.value) is ValidationError and str(exc.value) == message


def test_raw_utility_spec_stores_floats():
    spec = UtilitySpec(kind="alpha_fair", caps=[1, 2], a=2)
    assert spec == UtilitySpec.alpha_fair(2, 2.0, caps=[1.0, 2.0])
    assert spec.caps == (1.0, 2.0) and type(spec.a) is float


@pytest.mark.parametrize("r", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]], ids=["short", "long", "2d"])
def test_gradient_rejects_a_rate_of_another_shape(r):
    with pytest.raises(ValueError, match=r"r must have shape \(2,\), got"):
        UtilitySpec.log_shifted(2).gradient(r)


@pytest.mark.parametrize("r", [[0.5], [0.5, 0.5, 0.5, 0.5], [[0.5, 0.5, 0.5]], 0.5],
                         ids=["short", "long", "2d", "scalar"])
def test_value_rejects_a_rate_of_another_shape(r):
    # value([0.5]) broadcast to the value at (0.5, 0.5, 0.5)
    with pytest.raises(ValueError, match=r"r must have shape \(3,\), got"):
        UtilitySpec.log_shifted(3).value(r)


@pytest.mark.parametrize("r", [[-1.0, 0.5], [math.nan, 0.5], [0.5, math.inf]], ids=["negative", "nan", "inf"])
def test_value_and_gradient_reject_rates_the_margin_rejects(r):
    # value([-1, 0.5]) was nan with a RuntimeWarning, and gradient had a negative entry
    spec = UtilitySpec.log_shifted(2)
    for ask in (spec.value, spec.gradient):
        with pytest.raises(ValueError, match="r must be finite and nonnegative"):
            ask(r)


def test_infinite_caps_are_allowed():
    assert UtilitySpec.log_shifted(2, caps=[math.inf, 1.0]).caps == (math.inf, 1.0)


def test_caps_fold_into_objective():
    spec = UtilitySpec.weighted_linear([1.0, 1.0], caps=[0.2, 10.0])
    assert spec.value([0.5, 0.5]) == pytest.approx(0.7)
    grad = spec.gradient([0.5, 0.5])
    assert grad.tolist() == [0.0, 1.0]  # capped coordinate stops pushing


def test_gradient_matches_finite_differences(rng):
    specs = [
        UtilitySpec.weighted_linear([0.5, 2.0]),
        UtilitySpec.log_shifted(2, epsilon=1e-6),
        UtilitySpec.alpha_fair(2, a=2.0),
        UtilitySpec.alpha_fair(2, a=0.5),
    ]
    pool = vertex_pool(SYM)
    h = 1e-6
    checked = 0
    while checked < 100:
        w = rng.random(len(pool))
        r = 0.9 * np.average(pool, axis=0, weights=w) + 0.02
        for spec in specs:
            grad = spec.gradient(r)
            for n in range(2):
                e = np.zeros(2)
                e[n] = h
                fd = (spec.value(r + e) - spec.value(r - e)) / (2 * h)
                assert abs(grad[n] - fd) <= 1e-4 * max(1.0, abs(fd))
        checked += 1


# -- solve_fairness ------------------------------------------------------------


def test_cap_binds_inside_capacity():
    model = DiscreteChannelModel.bernoulli([[0.5]])
    spec = UtilitySpec.weighted_linear([1.0], caps=[0.3])
    sol = solve_fairness(model, spec, tol=1e-9)
    assert sol.r_star[0] == pytest.approx(0.3, abs=1e-9)
    assert sol.objective == pytest.approx(0.3, abs=1e-9)


def test_symmetric_log_utility_splits_the_facet():
    spec = UtilitySpec.log_shifted(2, epsilon=1e-6)
    sol = solve_fairness(SYM, spec, tol=1e-6, max_iters=10_000, step_rule="line_search")
    assert np.allclose(sol.r_star, [0.375, 0.375], atol=1e-3)
    assert sol.gap <= 1e-6
    assert sol.iterations <= 10_000
    assert (1, 1) in build_region(SYM).binding(sol.r_star)


def test_single_weight_rides_to_the_vertex():
    spec = UtilitySpec.weighted_linear([1.0, 0.0])
    sol = solve_fairness(SYM, spec, tol=1e-9)
    assert np.allclose(sol.r_star, [0.5, 0.0], atol=1e-9)
    assert sol.objective == pytest.approx(0.5, abs=1e-9)


def test_linear_matches_vertex_enumeration(rng):
    models = [SYM, random_bernoulli(rng, 2, 2)]
    for model in models:
        pool = vertex_pool(model)
        for _ in range(6):
            w = rng.random(model.N) * 2
            spec = UtilitySpec.weighted_linear(w)
            sol = solve_fairness(model, spec, tol=1e-9)
            best = max(float(np.dot(w, v)) for v in pool)
            assert sol.objective == pytest.approx(best, abs=1e-6)


def fw_iterates(model, spec, tol, max_iters):
    """The origin and every later iterate of a solve; a solve is deterministic, so
    iterate k is the r_star of the same solve stopped after k iterations."""
    n = solve_fairness(model, spec, tol=tol, max_iters=max_iters).iterations
    return [np.zeros(model.N)] + [solve_fairness(model, spec, tol=tol, max_iters=k).r_star for k in range(1, n + 1)]


def test_objective_is_monotone_with_line_search():
    spec = UtilitySpec.log_shifted(2, epsilon=1e-6)
    values = [spec.value(r) for r in fw_iterates(SYM, spec, 1e-9, 10_000)]
    assert len(values) > 2
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_iterates_stay_inside_region():
    region = build_region(SYM)
    spec = UtilitySpec.log_shifted(2, epsilon=1e-6)
    for r in fw_iterates(SYM, spec, 1e-8, 300):
        assert membership_margin(region, r) >= -1e-9


def test_solution_respects_caps_and_region():
    spec = UtilitySpec.log_shifted(2, epsilon=1e-6, caps=[0.2, 0.6])
    sol = solve_fairness(SYM, spec, tol=1e-8, step_rule="line_search")
    assert (sol.r_star <= np.array([0.2, 0.6]) + 1e-9).all()
    assert membership_margin(build_region(SYM), sol.r_star) >= -1e-7


def test_solution_reports_convergence():
    spec = UtilitySpec.log_shifted(2, epsilon=1e-6)
    sol = solve_fairness(SYM, spec, tol=1e-6, step_rule="line_search")
    assert sol.converged is True and sol.gap <= 1e-6
    capped = solve_fairness(SYM, spec, tol=1e-6, max_iters=1)
    assert capped.converged is False
    assert capped.iterations == 1 and capped.gap > 1e-6
    # two moves reach the optimum: the gap reported is the one at r_star, not before the last move
    capped = solve_fairness(SYM, spec, tol=1e-6, max_iters=2)
    assert capped.converged is True and capped.iterations == 2 and capped.gap == 0.0


@pytest.mark.parametrize("kwargs", [
    {"max_iters": 0},
    {"max_iters": -1},
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"tol": 0.0},
    {"step_rule": "open_loop"},
], ids=["max-iters-0", "max-iters-minus-1", "tol-nan", "tol-inf", "tol-0", "step-rule-open-loop"])
def test_solve_rejects_bad_budget_or_tolerance(kwargs):
    with pytest.raises(ValueError):
        solve_fairness(SYM, UtilitySpec.log_shifted(2), **kwargs)


@pytest.mark.parametrize("max_iters", [True, 2.5, "3", math.inf])
def test_solve_rejects_a_max_iters_that_is_not_an_integer(max_iters):
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        solve_fairness(SYM, UtilitySpec.log_shifted(2), max_iters=max_iters)
    # an integral float reads as the integer
    assert solve_fairness(SYM, UtilitySpec.log_shifted(2), tol=1e-12, max_iters=1.0).iterations == 1


def test_solve_builds_the_channel_law_once(rng, monkeypatch):
    model = random_factored(rng, 3, 2, 2)
    calls = []
    real = capacity_region.column_laws

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(capacity_region, "column_laws", counted)
    sol = solve_fairness(model, UtilitySpec.log_shifted(3), tol=1e-9, max_iters=50)
    assert sol.iterations > 1
    assert len(calls) == 1


def test_tight_tolerance_converges_on_bernoulli_6x2():
    # a search that compares objective values places smooth steps only to
    # about 1e-8 (phi is flat to an ulp there) and stalls above this tol
    model = DiscreteChannelModel.bernoulli(np.random.default_rng(5).uniform(0.2, 0.8, (6, 2)).tolist())
    sol = solve_fairness(model, UtilitySpec.log_shifted(6), tol=1e-9, max_iters=1000)
    assert sol.converged and sol.gap <= 1e-9


def test_converged_solutions_are_certified(rng):
    tol, converged = 1e-7, 0
    for i in range(30):
        model = random_discrete(rng)
        caps = np.where(rng.random(model.N) < 0.5, rng.uniform(0.05, 1.0, model.N), math.inf)
        spec = (UtilitySpec.weighted_linear(rng.uniform(0.1, 2.0, model.N), caps=caps),
                UtilitySpec.log_shifted(model.N, caps=caps),
                UtilitySpec.alpha_fair(model.N, 2.0, caps=caps))[i % 3]
        region = build_region(model)
        sol = solve_fairness(model, spec, tol=tol, max_iters=1000)
        if sol.converged:
            converged += 1
            assert fw_gap(model, sol.r_star, spec) <= tol + 1e-12
            assert membership_margin(region, sol.r_star) >= -1e-9
    assert converged >= 20


def test_unconverged_solutions_report_the_gap_at_r_star(rng):
    # the draws of test_converged_solutions_are_certified, where 6 of 30 solves stop at max_iters;
    # clipping at the caps changes only coordinates whose gradient is 0, so the gaps agree exactly
    unconverged = 0
    for i in range(30):
        model = random_discrete(rng)
        caps = np.where(rng.random(model.N) < 0.5, rng.uniform(0.05, 1.0, model.N), math.inf)
        spec = (UtilitySpec.weighted_linear(rng.uniform(0.1, 2.0, model.N), caps=caps),
                UtilitySpec.log_shifted(model.N, caps=caps),
                UtilitySpec.alpha_fair(model.N, 2.0, caps=caps))[i % 3]
        sol = solve_fairness(model, spec, tol=1e-7, max_iters=1000)
        if not sol.converged:
            unconverged += 1
            assert sol.iterations == 1000
            assert sol.gap == fw_gap(model, sol.r_star, spec)
    assert unconverged >= 4


# Near a smooth maximum phi is flat to float64 precision over a few 1e-8 of
# step (its drop curvature * dg**2 / 2 stays below an ulp), so the dense scan
# of phi values places a smooth argmax only that closely; kinks, plateaus and
# ends are located to the line-search tolerance.
SMOOTH, SHARP = 1e-7, 1e-9


@pytest.mark.parametrize("spec, r, v, atol", [
    (UtilitySpec.log_shifted(2, epsilon=1e-6), [0.5, 0.0], [0.0, 0.5], SMOOTH),      # max at 1/2
    (UtilitySpec.log_shifted(2, epsilon=0.0625), [0.5, 0.0], [0.0, 0.25], SMOOTH),   # 7/16
    (UtilitySpec.log_shifted(2, epsilon=2**-10), [0.5, 0.0], [0.0, 0.25], SMOOTH),  # 1/2 - 2^-10, off the grid
    (UtilitySpec.log_shifted(2, epsilon=1e-6), [0.1, 0.1], [0.4, 0.3], SHARP),       # increasing: 1
    (UtilitySpec.alpha_fair(2, 2.0), [0.9, 0.0], [0.0, 0.1], SMOOTH),               # 3/4
    (UtilitySpec.alpha_fair(2, 0.5), [0.0, 0.25], [0.25, 0.0], SMOOTH),             # 1/2
    (UtilitySpec.weighted_linear([2.0, 1.0], caps=[0.25, 1.0]), [0.0, 0.5], [0.5, 0.0], SHARP),  # kink at 1/2
    (UtilitySpec.weighted_linear([1.0, 0.0], caps=[0.1875, 1.0]), [0.0, 0.3], [0.5, 0.0], SHARP),  # plateau from 3/8
    (UtilitySpec.weighted_linear([1.0, 1.0]), [0.0, 0.5], [0.5, 0.0], SHARP),         # constant
    (UtilitySpec.weighted_linear([1.0, 1.0], caps=[0.1, 0.1]), [0.2, 0.3], [0.5, 0.6], SHARP),  # constant, capped
    (UtilitySpec.alpha_fair(2, 0.5), [0.0, 0.0], [0.5, 0.25], SHARP),                 # from the origin: 1
    (UtilitySpec.alpha_fair(2, 2.0), [0.0, 0.0], [0.5, 0.25], SHARP),                 # from the origin: 1
    (UtilitySpec.log_shifted(2, epsilon=1e-6, caps=[0.1875, math.inf]), [0.0, 0.5], [0.5, 0.0], SHARP),  # cap at 3/8
    (UtilitySpec.weighted_linear([3.0, 1.0], caps=[0.25, 1.0]), [0.25, 0.0], [0.0, 0.5], SHARP),  # at cap, down: 0
    (UtilitySpec.weighted_linear([2.0, 1.0], caps=[0.25, 1.0]), [0.25, 0.5], [0.5, 0.25], SHARP),  # at cap, up: 0
    (UtilitySpec.log_shifted(3, epsilon=1e-6), [0.5, 0.0, 0.25], [0.0, 0.5, 0.25], SMOOTH),  # zero d_3: 1/2
], ids=["log-half", "log-7/16", "log-off-grid", "log-increasing", "alpha2-3/4", "alpha05-half",
        "capped-kink", "capped-plateau", "linear-constant", "capped-constant", "alpha05-origin",
        "alpha2-origin", "log-crosses-cap", "linear-at-cap-down", "linear-at-cap-up",
        "log-zero-direction"])
def test_line_search_matches_dense_scan(spec, r, v, atol):
    r, d = np.array(r), np.array(v) - np.array(r)
    phi = lambda g: spec._values(r + np.asarray(g)[..., None] * d)
    grid = np.linspace(0.0, 1.0, 2**20 + 1)  # holds every argmax above exactly
    values = phi(grid)
    dense = grid[int(np.argmax(values))]
    gamma = _line_search_step(spec, r.tolist(), d.tolist())
    assert abs(gamma - dense) <= atol
    assert phi(gamma) >= max(values[0], values[-1]) - 1e-12
    if dense == 0.0:  # a constant phi, or one that falls from the start
        assert gamma == 0.0


# -- fw_gap -----------------------------------------------------------------------


def test_gap_zero_after_convergence():
    spec = UtilitySpec.log_shifted(2, epsilon=1e-6)
    sol = solve_fairness(SYM, spec, tol=1e-8, step_rule="line_search")
    assert fw_gap(SYM, sol.r_star, spec) <= 1e-6


def test_gap_at_origin_equals_support_value():
    spec = UtilitySpec.weighted_linear([1.0, 1.0])
    assert fw_gap(SYM, [0.0, 0.0], spec) == pytest.approx(support_function(SYM, (1, 1)))


def test_gap_vanishes_on_optimal_face():
    spec = UtilitySpec.weighted_linear([1.0, 0.0])
    assert fw_gap(SYM, [0.5, 0.0], spec) <= 1e-9


def test_gap_rejects_outside_points():
    spec = UtilitySpec.log_shifted(2)
    with pytest.raises(ValueError, match="outside"):
        fw_gap(SYM, [0.6, 0.6], spec)


def test_gap_rejects_utilities_of_another_dimension():
    # used to fail inside support_vertex with "direction must have length 1, got shape (2,)"
    model = DiscreteChannelModel.bernoulli([[0.5]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        fw_gap(model, [0.1], UtilitySpec.log_shifted(2))


def test_overflowing_gradient_is_a_value_error():
    # GRAD_FLOOR ** -30 is past the float range: the solve must reject it, not raise OverflowError
    spec = UtilitySpec.alpha_fair(2, 30.0)
    assert spec.gradient([0.0, 0.1]).tolist() == [math.inf, 0.1 ** -30.0]
    with pytest.raises(ValueError, match="non-finite utility gradient"):
        solve_fairness(SYM, spec)
    with pytest.raises(ValueError, match="finite"):
        fw_gap(SYM, [0.0, 0.1], spec)


# -- the solution is plain data; the region answers which inequalities bind --------------


def test_solve_does_not_build_the_region(monkeypatch):
    # Frank-Wolfe needs only the vertex oracle
    def refused(model):
        raise AssertionError("solve_fairness built the region")

    monkeypatch.setattr("mqms.fairness_opt.build_region", refused)
    sol = solve_fairness(SYM, UtilitySpec.log_shifted(2), tol=1e-6)
    assert sol.converged
    assert [f.name for f in dataclasses.fields(sol)] == [
        "r_star", "objective", "gap", "iterations", "converged"]


def test_region_binding_is_the_slack_expression(rng):
    # bit for bit this array expression, at the solutions of 12 seeded models; the caps
    # keep some optima off every facet, so both empty and nonempty sets are compared
    nonempty = 0
    for _ in range(12):
        model = random_discrete(rng)
        caps = np.where(rng.random(model.N) < 0.5, rng.uniform(0.05, 1.0, model.N), math.inf)
        region = build_region(model)
        r = solve_fairness(model, UtilitySpec.log_shifted(model.N, caps=caps), tol=1e-7, max_iters=200).r_star
        binding = region.binding(r)
        assert binding == tuple(map(tuple, region.A[region.beta - region.A @ r <= 1e-6].tolist()))
        assert all(type(a) is int for row in binding for a in row)
        nonempty += bool(binding)
    assert 6 <= nonempty < 12


def test_solve_past_the_enumeration_cap():
    # |W|^N = 113,379,904 directions to enumerate, over the cap; the oracle alone is cheap
    model = random_factored(np.random.default_rng(3), 6, 2, 3)
    sol = solve_fairness(model, UtilitySpec.log_shifted(6), tol=1e-9, max_iters=50)
    assert sol.iterations == 50 and np.isfinite(sol.gap) and sol.objective > -math.inf
    with pytest.raises(ValueError, match="enumeration cap exceeded"):
        build_region(model)


# -- the float loop against numpy ---------------------------------------------------


def reference_fw(model, spec, tol, max_iters):
    """Frank-Wolfe on numpy arrays through gradient, support_vertex and _line_search_step."""
    r = np.zeros(model.N)
    iters = 0
    for it in range(max_iters):
        grad = spec.gradient(r)
        if not grad.any():
            break
        v = support_vertex(model, grad)
        iters = it + 1
        if float(grad @ (v - r)) <= tol:
            break
        d = v - r
        r = r + _line_search_step(spec, r.tolist(), d.tolist()) * d
    return np.clip(r, 0.0, np.asarray(spec.caps)), iters


def test_float_loop_reproduces_the_numpy_reference(rng):
    solves = 0
    for _ in range(36):
        model = random_discrete(rng)
        caps = np.where(rng.random(model.N) < 0.6, rng.uniform(0.05, 1.0, model.N), math.inf)
        for c in (None, caps):
            for spec, exact in ((UtilitySpec.log_shifted(model.N, caps=c), True),
                                (UtilitySpec.weighted_linear(rng.uniform(0.1, 2.0, model.N), caps=c), True),
                                (UtilitySpec.alpha_fair(model.N, 0.5, caps=c), False),
                                (UtilitySpec.alpha_fair(model.N, 2.0, caps=c), False)):
                sol = solve_fairness(model, spec, tol=1e-7, max_iters=200)
                r_ref, iters = reference_fw(model, spec, 1e-7, 200)
                assert sol.iterations == iters
                if exact:
                    assert sol.r_star.tobytes() == r_ref.tobytes()
                else:  # Python and numpy pow may round a gradient differently in the last ulp
                    assert np.abs(sol.r_star - r_ref).max() <= 1e-12
                solves += 1
    assert solves == 36 * 8


@pytest.mark.parametrize("tie_rule", ["lowest_index", "highest_index"])
def test_vertex_kernel_matches_support_vertex_on_ties(rng, tie_rule):
    # small integer directions on integer capacities tie in most states
    checked = 0
    while checked < 200:
        model = random_discrete(rng, max_n=4, max_k=3, max_m=2, state_cap=1 << 16)
        alpha = rng.integers(0, 3, model.N)
        if not alpha.any():
            continue
        laws = capacity_region.column_laws(model)
        values = np.concatenate([v for v, _ in laws])
        probs = np.concatenate([p for _, p in laws])
        winner = capacity_region.max_weight_argmax(values * alpha, tie_rule)
        served = probs * values[np.arange(len(values)), winner]
        expected = np.bincount(winner, weights=served, minlength=model.N)
        kernel = capacity_region._vertex_kernel(model, tie_rule)(alpha.astype(float).tolist())
        assert np.array(kernel).tobytes() == expected.tobytes()
        assert support_vertex(model, alpha, tie_rule=tie_rule).tobytes() == expected.tobytes()
        checked += 1


def _tie_heavy_directions(rng, N):
    """Integer directions in 0..3 with zero coordinates, repeats, permutations and scalar multiples."""
    directions = []
    for _ in range(12):
        alpha = rng.integers(0, 4, N)
        alpha[rng.integers(N)] = rng.integers(1, 4)
        directions += [alpha, alpha.copy(), rng.permutation(alpha), 2 * alpha, 3 * alpha, alpha]
    return [alpha.astype(float).tolist() for alpha in directions]


@pytest.mark.parametrize("tie_rule", ["lowest_index", "highest_index"])
def test_memoized_kernel_matches_a_fresh_kernel(rng, tie_rule):
    # every call, a memo hit or a miss, returns the bytes of a one-shot kernel
    kinds, hits = set(), 0
    for _ in range(30):
        model = random_discrete(rng, max_n=4, max_k=3, max_m=3, state_cap=1 << 16)
        kinds.add(model.kind)
        kernel, returned = capacity_region._vertex_kernel(model, tie_rule), []
        for alpha in _tie_heavy_directions(rng, model.N):
            vertex = kernel(alpha)
            hits += any(vertex is seen for seen in returned)
            returned.append(vertex)
            fresh = capacity_region._vertex_kernel(model, tie_rule)(alpha)
            assert np.array(vertex).tobytes() == np.array(fresh).tobytes()
    assert kinds == {"bernoulli", "factored", "explicit_joint"} and hits > 30 * 12


def test_memoized_solve_reproduces_the_reference_past_the_cap():
    # reference_fw asks support_vertex, a fresh kernel per iteration
    model = random_factored(np.random.default_rng(5), 6, 2, 3)
    spec = UtilitySpec.log_shifted(6)
    sol = solve_fairness(model, spec, tol=1e-9, max_iters=100)
    r_ref, iters = reference_fw(model, spec, 1e-9, 100)
    assert sol.iterations == iters == 100
    assert sol.r_star.tobytes() == r_ref.tobytes()


def test_mutating_a_support_vertex_leaves_later_calls_alone():
    model = random_factored(np.random.default_rng(5), 3, 2, 2)
    first = support_vertex(model, [1, 2, 2])
    expected = first.copy()
    first[:] = -1.0
    assert support_vertex(model, [1, 2, 2]).tobytes() == expected.tobytes()
    assert support_vertex(model, [2, 4, 4]).tobytes() == expected.tobytes()


@pytest.mark.parametrize("spec", [
    UtilitySpec.weighted_linear([0.5, 2.0, 1.0, 3.0], caps=[0.25, math.inf, 0.5, 1.0]),
    UtilitySpec.log_shifted(4, epsilon=1e-3, caps=[0.25, math.inf, 0.5, 1.0]),
    UtilitySpec.alpha_fair(4, 0.5, caps=[0.25, math.inf, 0.5, 1.0]),
    UtilitySpec.alpha_fair(4, 2.0, caps=[0.25, math.inf, 0.5, 1.0]),
], ids=["linear", "log", "alpha05", "alpha2"])
def test_gradient_is_the_per_queue_derivative(spec):
    # at a cap, at zero, at the floor, and past a cap
    for r in ([0.25, 0.0, GRAD_FLOOR, 1.5], [0.0, GRAD_FLOOR, 0.5, 0.5 * GRAD_FLOOR]):
        grad = spec.gradient(r)
        for n, (rn, cap) in enumerate(zip(r, spec.caps)):
            expected = spec._gradient_kernel()(r)[n]
            assert grad[n] == expected
            # the line search's right slope along e_n reads the same derivative
            e = [0.0] * 4
            e[n] = 1.0
            assert spec._slope_kernel(r, e)(0.0)[0] == expected
    if spec.kind == "alpha_fair":
        assert spec.gradient([0.0, 0.0, 0.0, 0.0])[1] == GRAD_FLOOR ** -spec.a


# -- the per-kind kernels against literal per-queue formulas --------------------------


def literal_derivative(spec, n, x):
    """u_n'(x) below the cap, one queue at a time."""
    if spec.kind == "weighted_linear":
        return spec.weights[n]
    if spec.kind == "log_shifted":
        return 1.0 / (x + spec.epsilon)
    try:
        return max(x, GRAD_FLOOR) ** -spec.a
    except OverflowError:
        return math.inf


def literal_slope(spec, r, d, g):
    """Right slope and curvature of g -> value(r + g d), summed queue by queue."""
    slope = curvature = 0.0
    for n, (rn, dn, cap) in enumerate(zip(r, d, spec.caps)):
        x = rn + g * dn
        if dn == 0.0 or x > cap or (x == cap and dn > 0.0):
            continue
        u = literal_derivative(spec, n, x)
        slope += dn * u
        if spec.kind == "log_shifted":
            curvature -= dn * dn * u * u
        elif spec.kind == "alpha_fair" and x > GRAD_FLOOR:
            curvature -= spec.a * dn * dn * u / x
    return slope, curvature


KERNEL_CAPS = [0.5, 0.5, math.inf, math.inf, math.inf, math.inf, 0.5]


@pytest.mark.parametrize("spec", [
    UtilitySpec.weighted_linear([0.5, 2.0, 1.0, 3.0, 1.5, 0.25, 0.75], caps=KERNEL_CAPS),
    UtilitySpec.log_shifted(7, epsilon=1e-3, caps=KERNEL_CAPS),
    UtilitySpec.alpha_fair(7, 0.5, caps=KERNEL_CAPS),
    UtilitySpec.alpha_fair(7, 2.0, caps=KERNEL_CAPS),
    UtilitySpec.alpha_fair(7, 30.0, caps=KERNEL_CAPS),  # GRAD_FLOOR ** -30 overflows to inf
], ids=["linear", "log", "alpha05", "alpha2", "alpha30"])
def test_kernels_are_the_literal_per_queue_formulas(spec):
    # queue 0 reaches its cap of 0.5 from below at g = 1/2, queue 1 from above;
    # queues 2 and 5 do not move (d = 0.0 and -0.0); queue 3 runs from
    # GRAD_FLOOR to zero and queue 4 leaves zero; queue 6 starts at its cap
    points = [
        ([0.25, 0.75, 0.3, GRAD_FLOOR, 0.0, 0.5 * GRAD_FLOOR, 0.5], [0.5, -0.5, 0.0, -GRAD_FLOOR, 0.25, -0.0, 0.25]),
        ([0.5, 0.5, 0.1, 0.5 * GRAD_FLOOR, 1e-3, 0.0, 0.5], [-0.25, 0.25, 0.0, 0.5 * GRAD_FLOOR, -1e-3, 0.0, -0.25]),
    ]
    grid = [0.0, 0.5 - 2.0**-54, 0.5, 0.5 + 2.0**-53, 1.0, *np.linspace(0.0, 1.0, 17).tolist()]
    hexed = lambda values: [float(v).hex() for v in values]
    gradient = spec._gradient_kernel()
    infinite = set()
    for r, d in points:
        kernel = spec._slope_kernel(r, d)
        for g in grid:
            x = [rn + g * dn for rn, dn in zip(r, d)]
            expected = [0.0 if xn >= cap else literal_derivative(spec, n, xn)
                        for n, (xn, cap) in enumerate(zip(x, spec.caps))]
            assert hexed(gradient(x)) == hexed(expected)
            assert hexed(kernel(g)) == hexed(literal_slope(spec, r, d, g))
            infinite.update(map(math.isinf, expected))
    assert infinite == ({False, True} if spec.a == 30.0 else {False})
