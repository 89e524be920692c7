
import numpy as np
import pytest

from mqms import (
    ContinuousChannelModel,
    LinkDistribution,
    boundary_trace,
    exp_2q_boundary,
    mc_support_function,
)


def exponential_pair(mu1, mu2):
    return ContinuousChannelModel.of(
        [[LinkDistribution("exponential", mean=mu1)], [LinkDistribution("exponential", mean=mu2)]]
    )


def max_of_exponentials_mean(u, v):
    # E[max] = E[U] + E[V] - E[min], and the min of independent
    # exponentials is exponential with rate 1/u + 1/v
    return u + v - u * v / (u + v)


# -- Monte Carlo support values ------------------------------------------------


def test_mc_support_max_of_two_unit_exponentials():
    est, se = mc_support_function(exponential_pair(1.0, 1.0), (1, 1), 1_000_000, seed=3)
    assert abs(est - 1.5) <= 3 * se
    assert se < 0.005


def test_mc_support_matches_minmax_identity_asymmetric():
    est, se = mc_support_function(exponential_pair(2.0, 1.0), (1.0, 1.0), 400_000, seed=11)
    assert abs(est - max_of_exponentials_mean(2.0, 1.0)) <= 3 * se


def test_mc_support_axis_direction_sums_link_means():
    model = ContinuousChannelModel.of(
        [
            [LinkDistribution("exponential", mean=1.5), LinkDistribution("uniform", high=2.0)],
            [LinkDistribution("exponential", mean=0.5), LinkDistribution("empirical", values=(1.0,))],
        ]
    )
    est, se = mc_support_function(model, (1, 0), 400_000, seed=2)
    assert abs(est - 2.5) <= 3 * se  # 1.5 + 2.0/2


def test_mc_support_rejects_zero_direction():
    with pytest.raises(ValueError):
        mc_support_function(exponential_pair(1, 1), (0, 0), 100)


@pytest.mark.parametrize("alpha", [(np.nan, 1.0), (np.inf, 1.0), (1.0, -np.inf), (-1.0, 1.0)])
def test_mc_support_rejects_non_finite_or_negative_direction(alpha):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        mc_support_function(exponential_pair(1, 1), alpha, 100)


def test_mc_support_homogeneity_under_common_randomness():
    model = exponential_pair(2.0, 1.0)
    base, _ = mc_support_function(model, (0.3, 0.7), 50_000, seed=5)
    for q in (0.5, 2.0):
        scaled, _ = mc_support_function(model, (q * 0.3, q * 0.7), 50_000, seed=5)
        assert abs(scaled - q * base) <= 1e-12 * max(1.0, q * base)


def test_mc_support_is_seed_deterministic():
    a = mc_support_function(exponential_pair(2, 1), (1, 1), 10_000, seed=42)
    b = mc_support_function(exponential_pair(2, 1), (1, 1), 10_000, seed=42)
    assert a == b


# -- closed-form two-queue boundary ---------------------------------------------


def test_boundary_closed_form_endpoints_exact():
    assert exp_2q_boundary(2.0, 1.0, 0.0) == 1.0
    assert exp_2q_boundary(2.0, 1.0, 2.0) == 0.0


def test_boundary_closed_form_midpoint_value():
    assert exp_2q_boundary(2.0, 1.0, 1.0) == pytest.approx(0.9142135623730951, abs=1e-12)


def test_boundary_closed_form_rejects_overload():
    with pytest.raises(ValueError, match="outside single-queue capacity"):
        exp_2q_boundary(2.0, 1.0, 2.5)


# -- traced envelopes --------------------------------------------------------------


def test_trace_constant_channel_is_unit_simplex():
    # a channel that always offers one packet to either queue shares one
    # unit server: the boundary is the segment rate1 + rate2 = 1
    model = ContinuousChannelModel.of(
        [[LinkDistribution("empirical", values=(1.0,))], [LinkDistribution("empirical", values=(1.0,))]]
    )
    curve = boundary_trace(model, directions=3, samples=100, seed=0, lambda1_values=[0.0, 0.25, 0.5, 1.0])
    assert np.allclose(curve.lambda2, [1.0, 0.75, 0.5, 0.0], atol=1e-12)


def test_trace_matches_closed_form_exponential():
    curve = boundary_trace(
        exponential_pair(2.0, 1.0),
        directions=181,
        samples=100_000,
        seed=7,
        lambda1_values=[0.0, 0.5, 1.0, 1.5],
    )
    for l1, l2 in zip(curve.lambda1, curve.lambda2):
        truth = exp_2q_boundary(2.0, 1.0, float(l1))
        assert abs(l2 - truth) <= 0.01 * truth


def test_trace_refining_directions_never_raises_envelope():
    # grids with D+1 dividing the finer D+1 nest, so with one common sample
    # block the finer envelope is pointwise no higher
    model = exponential_pair(2.0, 1.0)
    grid = np.linspace(0.0, 2.0, 41)
    coarse = boundary_trace(model, directions=11, samples=20_000, seed=13, lambda1_values=grid)
    fine = boundary_trace(model, directions=23, samples=20_000, seed=13, lambda1_values=grid)
    finest = boundary_trace(model, directions=47, samples=20_000, seed=13, lambda1_values=grid)
    assert (fine.lambda2 <= coarse.lambda2 + 1e-12).all()
    assert (finest.lambda2 <= fine.lambda2 + 1e-12).all()


def test_trace_coarse_grid_overapproximates():
    model = exponential_pair(2.0, 1.0)
    grid = np.linspace(0.0, 2.0, 21)
    coarse = boundary_trace(model, directions=3, samples=20_000, seed=4, lambda1_values=grid)
    fine = boundary_trace(model, directions=7, samples=20_000, seed=4, lambda1_values=grid)
    assert (fine.lambda2 <= coarse.lambda2 + 1e-12).all()


def test_trace_curve_is_nonincreasing_and_nonnegative():
    curve = boundary_trace(exponential_pair(2.0, 1.0), directions=61, samples=30_000, seed=21)
    assert (np.diff(curve.lambda2) <= 1e-12).all()
    assert (curve.lambda2 >= 0).all()
    assert (curve.lambda1 >= 0).all()


def test_trace_curve_is_concave():
    curve = boundary_trace(exponential_pair(2.0, 1.0), directions=121, samples=50_000, seed=17)
    lam1, lam2, se = curve.lambda1, curve.lambda2, curve.stderr
    for i in range(0, len(lam1) - 2, 7):
        j = min(i + 14, len(lam1) - 1)
        mid = (lam1[i] + lam1[j]) / 2
        interp = np.interp(mid, lam1, lam2)
        chord = (lam2[i] + lam2[j]) / 2
        slack = 3 * (se[i] + se[j] + np.interp(mid, lam1, se))
        assert chord <= interp + slack + 1e-9


def test_trace_requires_two_queues():
    model = ContinuousChannelModel.of([[LinkDistribution("exponential", mean=1.0)]])
    with pytest.raises(ValueError, match="N = 2"):
        boundary_trace(model, directions=5, samples=10)


def test_trace_requires_enough_directions():
    with pytest.raises(ValueError, match="directions"):
        boundary_trace(exponential_pair(1, 1), directions=2, samples=10)


@pytest.mark.parametrize("samples", [0, -1])
def test_trace_requires_at_least_one_sample(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        boundary_trace(exponential_pair(1, 1), directions=5, samples=samples)
