import math

import numpy as np
import pytest

from mqms import (
    DiscreteChannelModel,
    UtilitySpec,
    build_region,
    build_vhat,
    fw_gap,
    membership_margin,
    solve_fairness,
    support_function,
    support_vertex,
)
from mqms import capacity_region
from mqms.fairness_opt import _line_search_step
from conftest import random_bernoulli, random_factored

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
], ids=["kind", "weights", "weights-vs-caps", "epsilon", "exponent", "caps"])
def test_raw_utility_spec_is_checked(kwargs, match):
    # raw specs were never checked: kind "bogus" solved as alpha_fair with
    # a = 0, and a negative epsilon gave a NaN objective
    with pytest.raises(ValueError, match=match):
        UtilitySpec(**{"caps": UNCAPPED, **kwargs})


def test_raw_utility_spec_stores_floats():
    spec = UtilitySpec(kind="alpha_fair", caps=[1, 2], a=2)
    assert spec == UtilitySpec.alpha_fair(2, 2.0, caps=[1.0, 2.0])
    assert spec.caps == (1.0, 2.0) and type(spec.a) is float


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
    assert (1, 1) in sol.binding


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


def test_objective_is_monotone_with_line_search():
    spec = UtilitySpec.log_shifted(2, epsilon=1e-6)
    sol = solve_fairness(SYM, spec, tol=1e-9, step_rule="line_search", keep_trace=True)
    values = [v for _, v, _ in sol.trajectory]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-12


def test_iterates_stay_inside_region():
    region = build_region(SYM)
    spec = UtilitySpec.log_shifted(2, epsilon=1e-6)
    sol = solve_fairness(SYM, spec, tol=1e-8, max_iters=300, step_rule="line_search", keep_trace=True)
    for r, _, _ in sol.trajectory:
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
    capped = solve_fairness(SYM, spec, tol=1e-6, max_iters=2)
    assert capped.converged is False
    assert capped.iterations == 2 and capped.gap > 1e-6


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


def test_solve_builds_the_channel_law_once(rng, monkeypatch):
    model = random_factored(rng, 3, 2, 2)
    region = build_region(model)
    calls = []
    real = capacity_region.column_laws

    def counted(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(capacity_region, "column_laws", counted)
    sol = solve_fairness(model, UtilitySpec.log_shifted(3), tol=1e-9, max_iters=50, region=region)
    assert sol.iterations > 1
    assert len(calls) == 1


# Near a smooth maximum phi is flat to float64 precision over a few 1e-8 of
# step (its drop curvature * dg**2 / 2 stays below an ulp), so no search that
# compares phi values can place the step closer; kinks, plateaus and ends are
# located to the line-search tolerance.
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
], ids=["log-half", "log-7/16", "log-off-grid", "log-increasing", "alpha2-3/4", "alpha05-half",
        "capped-kink", "capped-plateau", "linear-constant", "capped-constant"])
def test_line_search_matches_dense_scan(spec, r, v, atol):
    r, d = np.array(r), np.array(v) - np.array(r)
    phi = lambda g: spec._values(r + np.asarray(g)[..., None] * d)
    grid = np.linspace(0.0, 1.0, 2**20 + 1)  # holds every argmax above exactly
    values = phi(grid)
    dense = grid[int(np.argmax(values))]
    gamma = _line_search_step(phi)
    assert abs(gamma - dense) <= atol
    assert phi(gamma) >= max(values[0], values[-1]) - 1e-12
    if np.ptp(values) == 0.0:
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
