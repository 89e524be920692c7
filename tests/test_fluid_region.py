import math

import numpy as np
import pytest

from mqms import (
    ContinuousChannelModel,
    LinkDistribution,
    boundary_trace,
    exp_2q_boundary,
    mc_support_function,
    sample_states,
)
from mqms import fluid_region


def exponential_pair(mu1, mu2):
    return ContinuousChannelModel.of(
        [[LinkDistribution("exponential", mean=mu1)], [LinkDistribution("exponential", mean=mu2)]]
    )


def random_continuous(rng, N, K):
    kinds = ("exponential", "uniform", "empirical")
    links = []
    for _ in range(N):
        row = []
        for kind in rng.choice(kinds, K):
            if kind == "exponential":
                row.append(LinkDistribution("exponential", mean=float(rng.uniform(0.2, 3.0))))
            elif kind == "uniform":
                row.append(LinkDistribution("uniform", high=float(rng.uniform(0.2, 3.0))))
            else:
                values = np.round(rng.uniform(0.0, 3.0, int(rng.integers(1, 6))), 2)
                row.append(LinkDistribution("empirical", values=tuple(values.tolist())))
        links.append(row)
    return ContinuousChannelModel.of(links)


def broadcast_support(block, alpha):
    # the (S, N, K) broadcast that _support_on_block replaces, kept as its oracle
    vals = (alpha[None, :, None] * block).max(axis=1).sum(axis=1)
    n = len(vals)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else float("inf")


def bits(pair):
    return np.asarray(pair, dtype=float).tobytes()


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


@pytest.mark.parametrize("samples", [0, -1])
def test_mc_support_rejects_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="need at least one sample"):
        mc_support_function(exponential_pair(1, 1), (1.0, 1.0), samples)


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


# -- link-row evaluation against the broadcast oracle ------------------------------


@pytest.mark.parametrize("K", [1, 2, 3, 7])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_support_on_block_is_bit_identical_to_broadcast(rng, N, K):
    for _ in range(5):
        model = random_continuous(rng, N, K)
        block = sample_states(model, rng, int(rng.choice([1, 2, 3, 500])))
        alpha = rng.uniform(0.0, 2.0, N) * rng.choice([0.0, 1.0, 1e-3, 1e3], N)
        alpha[0] += 0.1
        rows = fluid_region._link_rows(block)
        assert bits(fluid_region._support_on_block(rows, alpha)) == bits(broadcast_support(block, alpha))


@pytest.mark.parametrize("K", [8, 9, 15, 16, 17, 33, 129, 200])
def test_support_on_block_adds_many_servers_in_numpy_order(rng, K):
    # the link rows add servers left to right, numpy's order for a reduction
    # over the outer axis; from 8 servers on the broadcast sums its inner
    # axis pairwise.  Each sum of K nonnegative terms is then within
    # (K - 1) * 2^-52 of the other, relatively, and so are their means.
    # The standard error, std / sqrt(300), moves by at most that fraction of
    # the sums' root mean square over sqrt(300), well below the mean.
    for N in (1, 2, 3):
        model = random_continuous(rng, N, K)
        block = sample_states(model, rng, 300)
        alpha = rng.uniform(0.1, 2.0, N)
        rows = fluid_region._link_rows(block)
        est, se = fluid_region._support_on_block(rows, alpha)
        est_ref, se_ref = broadcast_support(block, alpha)
        assert abs(est - est_ref) <= K * 2**-52 * est_ref
        assert abs(se - se_ref) <= K * 2**-52 * est_ref


@pytest.mark.parametrize("K", [2, 9])
def test_support_on_block_matches_broadcast_on_zero_links(rng, K):
    # mostly zero links, and -0.0, a valid direction coordinate and
    # empirical value
    block = np.where(rng.random((40, 2, K)) < 0.5, -0.0, 0.0)
    block[:20] *= rng.exponential(1.0, (20, 2, K)) * (rng.random((20, 2, K)) < 0.2)
    rows = fluid_region._link_rows(block)
    for alpha in ([1.0, -0.0], [-0.0, 2.0], [0.5, 0.5]):
        alpha = np.array(alpha)
        assert bits(fluid_region._support_on_block(rows, alpha)) == bits(broadcast_support(block, alpha))


def test_trace_estimates_equal_mc_support_function(rng, monkeypatch):
    # every direction of a trace is the support estimate of that direction
    # from the same seed, exactly
    model = random_continuous(rng, 2, 3)
    calls = []
    support = fluid_region._support_on_block

    def recording(rows, alpha):
        calls.append(support(rows, alpha))
        return calls[-1]

    monkeypatch.setattr(fluid_region, "_support_on_block", recording)
    D, samples, seed = 9, 2_000, 31
    boundary_trace(model, directions=D, samples=samples, seed=seed, lambda1_values=[0.0])
    traced = calls[:]
    assert len(traced) == D
    thetas = np.arange(1, D + 1) * (math.pi / 2.0) / (D + 1)
    for t, est in zip(thetas, traced):
        assert bits(mc_support_function(model, (math.cos(t), math.sin(t)), samples, seed)) == bits(est)


# -- closed-form two-queue boundary ---------------------------------------------


def test_boundary_closed_form_endpoints_exact():
    assert exp_2q_boundary(2.0, 1.0, 0.0) == 1.0
    assert exp_2q_boundary(2.0, 1.0, 2.0) == 0.0


def test_boundary_closed_form_midpoint_value():
    assert exp_2q_boundary(2.0, 1.0, 1.0) == pytest.approx(0.9142135623730951, abs=1e-12)


def test_boundary_closed_form_rejects_overload():
    with pytest.raises(ValueError, match="outside single-queue capacity"):
        exp_2q_boundary(2.0, 1.0, 2.5)


@pytest.mark.parametrize(
    "args",
    [(np.nan, 1.0, 0.5), (2.0, np.nan, 0.5), (np.inf, 1.0, 0.5), (2.0, np.inf, 0.5), (-1.0, 1.0, 0.5)],
)
def test_boundary_closed_form_rejects_bad_means(args):
    with pytest.raises(ValueError, match="finite and positive"):
        exp_2q_boundary(*args)


@pytest.mark.parametrize("lambda1", [np.nan, np.inf, -0.5])
def test_boundary_closed_form_rejects_bad_rate(lambda1):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        exp_2q_boundary(2.0, 1.0, lambda1)


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


@pytest.mark.parametrize("values", [[np.nan], [-1.0], [0.5, np.inf], [0.0, -np.inf]])
def test_trace_rejects_non_finite_or_negative_lambda1(values):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        boundary_trace(exponential_pair(1, 1), directions=5, samples=10, lambda1_values=values)
