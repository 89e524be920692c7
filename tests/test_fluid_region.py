import math
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from mqms import (
    ContinuousChannelModel,
    DiscreteChannelModel,
    LinkDistribution,
    ValidationError,
    boundary_trace,
    exp_2q_boundary,
    link_means,
    load_model,
    mc_support_function,
    support_function,
)
import mqms
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
    with pytest.raises(ValueError, match="samples must be at least 1"):
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


def test_mc_support_on_many_servers_agrees_with_the_exact_support():
    # from 8 servers on, numpy sums the servers pairwise
    rng = np.random.default_rng(930)
    model = random_continuous(rng, 3, 9)
    for alpha in ([1.0, 0.5, 0.25], [0.0, 1.0, 2.0]):
        est, se = mc_support_function(model, alpha, 100_000, seed=9)
        assert abs(supports(model, [alpha])[0] - est) <= 4 * se
        assert mc_support_function(model, alpha, 100_000, seed=9) == (est, se)


@pytest.mark.parametrize("samples", [True, 10.5, "10", math.nan])
def test_mc_support_rejects_samples_that_are_not_integers(samples):
    with pytest.raises(ValidationError, match="samples must be an integer"):
        mc_support_function(exponential_pair(1, 1), (1.0, 1.0), samples)
    # an integral float reads as the integer
    assert mc_support_function(exponential_pair(1, 1), (1.0, 1.0), 10.0, seed=4) == \
        mc_support_function(exponential_pair(1, 1), (1.0, 1.0), 10, seed=4)


def test_mc_support_of_one_sample_has_infinite_error():
    est, se = mc_support_function(exponential_pair(1, 1), (1.0, 1.0), 1)
    assert math.isfinite(est) and se == math.inf


def record_supports(monkeypatch):
    """Record the directions and values of every _exact_supports call."""
    calls = []
    evaluate = fluid_region._exact_supports

    def recording(model, alphas):
        calls.append((np.array(alphas), evaluate(model, alphas)))
        return calls[-1][1]

    monkeypatch.setattr(fluid_region, "_exact_supports", recording)
    return calls


def test_trace_estimates_equal_mc_support_function(rng, monkeypatch):
    # every direction of a trace is the exact support of that direction,
    # which the independent Monte Carlo estimate agrees with
    model = random_continuous(rng, 2, 3)
    calls = record_supports(monkeypatch)
    D = 9
    boundary_trace(model, directions=D, samples=2_000, seed=31, lambda1_values=[0.0])
    [(alphas, supports)] = calls
    thetas = np.arange(1, D + 1) * (math.pi / 2.0) / (D + 1)
    assert bits(alphas) == bits(np.column_stack([np.cos(thetas), np.sin(thetas)]))
    for alpha, h in zip(alphas, supports):
        est, se = mc_support_function(model, alpha, 200_000, seed=31)
        assert abs(h - est) <= 4 * se


@pytest.mark.parametrize("D", [3, 181])
def test_trace_builds_one_evaluator(rng, monkeypatch, D):
    # one batched call for every direction, and no sampling at all
    def no_sampling(*args):
        raise AssertionError("boundary_trace sampled")

    monkeypatch.setattr(fluid_region, "sample_states", no_sampling)
    calls = record_supports(monkeypatch)
    boundary_trace(random_continuous(rng, 2, 2), directions=D, samples=50, seed=3)
    assert [alphas.shape for alphas, _ in calls] == [(D, 2)]


# -- exact support values ------------------------------------------------------------


def supports(model, alphas):
    return fluid_region._exact_supports(model, np.asarray(alphas, dtype=float))


@pytest.mark.parametrize(("u", "v"), [(1.0, 1.0), (2.0, 1.0), (0.3, 5.0), (1e-3, 7.0)])
def test_exact_support_of_two_exponentials_is_the_closed_form(u, v):
    model = exponential_pair(u, v)
    alphas = np.array([[1.0, 1.0], [0.3, 0.7], [2.0, 1e-3], [math.cos(0.1), math.sin(0.1)]])
    for alpha, h in zip(alphas, supports(model, alphas)):
        truth = max_of_exponentials_mean(alpha[0] * u, alpha[1] * v)
        assert abs(h - truth) <= 1e-14 * truth


@pytest.mark.parametrize(("m", "h"), [(1.0, 1.0), (0.1, 1.0), (1e-3, 1.0), (0.3, 30.0), (2.0, 3.0)])
def test_exact_support_of_an_exponential_and_a_uniform_is_the_closed_form(m, h):
    # E[max(E, U)] = h/2 + m^2 (1 - e^-u (1 + u)) / h + m e^-u, u = h/m, for
    # E exponential with mean m and U uniform on [0, h]; many exponential
    # scales fall inside [0, h] when m is small
    def truth(m, h):
        u = h / m
        return h / 2 + m * m * (-math.expm1(-u) - u * math.exp(-u)) / h + m * math.exp(-u)

    model = ContinuousChannelModel.of([[LinkDistribution("exponential", mean=m)], [LinkDistribution("uniform", high=h)]])
    alphas = np.array([[1.0, 1.0], [0.5, 2.0], [2.0, 0.7]])
    for (a1, a2), got in zip(alphas, supports(model, alphas)):
        assert abs(got - truth(a1 * m, a2 * h)) <= 1e-14 * truth(a1 * m, a2 * h)


def test_exact_support_of_integer_empirical_links_is_the_factored_support(rng):
    # an empirical table of levels 0..M is the factored link whose pmf holds
    # the table's frequencies; support_function reads it by the column law
    for _ in range(20):
        N, K, M = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        counts = rng.integers(0, 4, (N, K, M + 1))
        counts[..., int(rng.integers(0, M + 1))] += 1  # no empty table
        tables = [[rng.permutation(np.repeat(np.arange(M + 1), counts[n, k])).astype(float)
                   for k in range(K)] for n in range(N)]
        continuous = ContinuousChannelModel.of(
            [[LinkDistribution("empirical", values=tuple(t.tolist())) for t in row] for row in tables]
        )
        factored = DiscreteChannelModel.factored((counts / counts.sum(axis=2, keepdims=True)).tolist())
        alphas = rng.uniform(0.0, 2.0, (6, N)) * rng.choice([0.0, 1.0, 1e-3], (6, N))
        alphas[:, 0] += 0.1
        for alpha, h in zip(alphas, supports(continuous, alphas)):
            truth = support_function(factored, alpha)
            assert abs(h - truth) <= 1e-14 * max(1.0, truth)


def test_exact_support_agrees_with_monte_carlo_on_mixed_models():
    rng = np.random.default_rng(2828)
    for _ in range(30):
        model = random_continuous(rng, 2, 2)
        alpha = rng.uniform(0.05, 1.0, 2)
        est, se = mc_support_function(model, alpha, 400_000, seed=int(rng.integers(1 << 30)))
        assert abs(supports(model, [alpha])[0] - est) <= 4 * se


@pytest.mark.parametrize("K", [1, 2, 3])
def test_exact_support_on_an_axis_sums_the_link_means(rng, K):
    for _ in range(10):
        model = random_continuous(rng, 3, K)
        means = link_means(model)
        for n, h in enumerate(supports(model, np.eye(3))):
            assert abs(h - means[n].sum()) <= 1e-14 * max(1.0, means[n].sum())
        # -0.0 weighs a link as 0 does
        alpha = np.array([1.0, -0.0, 0.0])
        assert bits(supports(model, [alpha])) == bits(supports(model, [np.eye(3)[0]]))


def test_exact_support_rule_is_numpys_and_converged(rng, monkeypatch):
    from numpy.polynomial.legendre import leggauss

    assert [bits(a) for a in fluid_region._gauss_legendre()] == [bits(a) for a in leggauss(16)]
    # 24 Gauss-Legendre nodes per piece give the 16-node values
    models = [random_continuous(rng, 2, 2) for _ in range(50)]
    alphas = rng.uniform(0.05, 1.0, (5, 2))
    ours = [supports(model, alphas) for model in models]
    monkeypatch.setattr(fluid_region, "_gauss_legendre", lambda: leggauss(24))
    finer = [supports(model, alphas) for model in models]
    for h, ref in zip(ours, finer):
        assert (np.abs(h - ref) <= 1e-14 * np.maximum(1.0, ref)).all()


def test_exact_support_edge_cases():
    def one_server(*links):
        return ContinuousChannelModel.of([[link] for link in links])

    def emp(*values):
        return LinkDistribution("empirical", values=values)

    def exp(mean):
        return LinkDistribution("exponential", mean=mean)

    # below its smallest atom an empirical cdf is 0: max(C, 0) is C
    assert supports(one_server(emp(1.0, 2.0), emp(0.0)), [[1.0, 1.0]])[0] == 1.5
    assert supports(one_server(emp(1.0, 2.0), emp(0.0)), [[1.0, 5.0]])[0] == 1.5
    # -0.0 atoms, and a link that is always zero
    assert supports(one_server(emp(-0.0, 2.0), emp(0.0, -0.0)), [[1.0, 1.0]])[0] == 1.0
    assert supports(one_server(emp(0.0), emp(-0.0)), [[1.0, 1.0]])[0] == 0.0
    mixed = ContinuousChannelModel.of([[exp(1.5), emp(-0.0, 0.0)], [emp(0.0), LinkDistribution("uniform", high=2.0)]])
    assert abs(supports(mixed, [[1.0, 1.0]])[0] - 2.5) <= 1e-15
    # a server whose links are all exponential is the inclusion-exclusion tail alone
    three = one_server(exp(1.0), exp(2.0), exp(4.0))
    truth = 1 + 2 + 4 - 1 / (1 + 1 / 2) - 1 / (1 + 1 / 4) - 1 / (1 / 2 + 1 / 4) + 1 / (1 + 1 / 2 + 1 / 4)
    assert abs(supports(three, [[1.0, 1.0, 1.0]])[0] - truth) <= 1e-14 * truth


def test_exact_support_skips_zero_width_pieces_inside_a_row():
    # the uniform top 1 falls on the atom 1, so a piece of zero width lies
    # inside the row; U <= 1 <= E makes E[max(U, E)] = E[E] = 2.  An
    # exponential X of mean 0.25 cuts at 1, 2, 3 (two cuts on the atoms) and
    # then at 4..10, clamped to the top 3, and E[max(U, E, X)] = 2 + E[(X - E)^+]
    # = 2 + 0.125 (e^-4 + e^-12).  Scaling the direction scales the support
    uniform = LinkDistribution("uniform", high=1.0)
    atoms = LinkDistribution("empirical", values=(1.0, 3.0))
    exp = LinkDistribution("exponential", mean=0.25)
    scales = np.array([1.0, 0.5, 2.0])
    two = supports(ContinuousChannelModel.of([[uniform], [atoms]]), scales[:, None] * [1.0, 1.0])
    three = supports(ContinuousChannelModel.of([[uniform], [atoms], [exp]]), scales[:, None] * [1.0, 1.0, 1.0])
    for got, truth in [(two, 2.0 * scales), (three, (2.0 + 0.125 * (math.exp(-4) + math.exp(-12))) * scales)]:
        assert (np.abs(got - truth) <= 1e-14 * truth).all()


def test_exact_support_of_directions_with_a_zero_coordinate():
    # a link weighted 0 puts all its breakpoints at 0; every row of a batch
    # has the bits it has alone
    model = ContinuousChannelModel.of([
        [LinkDistribution("uniform", high=1.0)],
        [LinkDistribution("empirical", values=(1.0, 3.0))],
        [LinkDistribution("exponential", mean=0.25)],
    ])
    alphas = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                       [0.0, 0.7, 0.0], [0.3, 0.6, 0.9]])
    got = supports(model, alphas)
    truth = [2.0, 2.0 + 0.125 * (math.exp(-4) + math.exp(-12)), 0.5, 0.25, 1.4]
    assert (np.abs(got[:5] - truth) <= 1e-14 * np.array(truth)).all()
    for alpha, h in zip(alphas, got):
        assert bits(supports(model, [alpha])) == bits([h])


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
    with pytest.raises(ValueError, match="^mu[12] must be finite and nonnegative"):
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


def test_trace_in_blocks_is_one_envelope(monkeypatch):
    # past one block the directions are evaluated a block at a time and the
    # envelope folded block by block: the same bits as one evaluation of
    # every direction and one envelope over them all
    model = load_model(pathlib.Path(__file__).parents[1] / "demos" / "models" / "mixed_2x2_cont.json")
    B = fluid_region._TRACE_BLOCK
    D = 2 * B + 1
    evaluate = fluid_region._exact_supports
    calls = record_supports(monkeypatch)
    curve = boundary_trace(model, directions=D)
    assert [alphas.shape for alphas, _ in calls] == [(B, 2), (B, 2), (1, 2)]

    thetas = np.arange(1, D + 1) * (math.pi / 2.0) / (D + 1)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    h = evaluate(model, np.column_stack([cos_t, sin_t]))
    assert bits(np.concatenate([values for _, values in calls])) == bits(h)
    means = link_means(model)
    box1, box2 = float(means[0].sum()), float(means[1].sum())
    lam1 = curve.lambda1
    lam2 = np.clip(((h[None, :] - lam1[:, None] * cos_t[None, :]) / sin_t[None, :]).min(axis=1), 0.0, box2)
    floor = fluid_region._bracket_floor(h, cos_t, sin_t, box1, box2, lam1)
    assert bits(curve.lambda2) == bits(lam2)
    assert bits(curve.stderr) == bits(lam2 - np.clip(floor, 0.0, lam2))


def test_trace_peak_memory_is_bounded():
    # the directions are evaluated in blocks, so a fine trace's transient
    # memory stays near that of one block; evaluating all 20,000 directions
    # at once peaked at about 119 MB
    model = load_model(pathlib.Path(__file__).parents[1] / "demos" / "models" / "mixed_2x2_cont.json")
    tracemalloc.start()
    try:
        boundary_trace(model, directions=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000


def test_trace_requires_two_queues():
    model = ContinuousChannelModel.of([[LinkDistribution("exponential", mean=1.0)]])
    with pytest.raises(ValueError, match="N = 2"):
        boundary_trace(model, directions=5, samples=10)


def test_trace_requires_enough_directions():
    with pytest.raises(ValueError, match="directions"):
        boundary_trace(exponential_pair(1, 1), directions=2, samples=10)


@pytest.mark.parametrize("directions", [True, 10.5, "11", math.nan, math.inf])
def test_trace_rejects_directions_that_are_not_integers(directions):
    with pytest.raises(ValueError, match="directions must be an integer"):
        boundary_trace(exponential_pair(1, 1), directions=directions, samples=10)
    # an integral float reads as the integer
    assert boundary_trace(exponential_pair(1, 1), directions=11.0).directions == 11


@pytest.mark.parametrize("samples", [True, 2.5, "10", math.nan])
def test_trace_rejects_samples_that_are_not_integers(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        boundary_trace(exponential_pair(1, 1), directions=5, samples=samples)
    assert boundary_trace(exponential_pair(1, 1), directions=5, samples=10.0).samples == 10


@pytest.mark.parametrize("samples", [0, -1])
def test_trace_requires_at_least_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        boundary_trace(exponential_pair(1, 1), directions=5, samples=samples)


@pytest.mark.parametrize("values", [[np.nan], [-1.0], [0.5, np.inf], [0.0, -np.inf]])
def test_trace_rejects_non_finite_or_negative_lambda1(values):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        boundary_trace(exponential_pair(1, 1), directions=5, samples=10, lambda1_values=values)


@pytest.mark.parametrize("values", [0.5, [[0.1, 0.2], [0.3, 0.4]]], ids=["scalar", "2-d"])
def test_trace_rejects_lambda1_that_is_not_one_dimensional(monkeypatch, values):
    # rejected before any sample is drawn
    def no_sampling(*args):
        raise AssertionError("sampled before checking lambda1_values")

    monkeypatch.setattr(fluid_region, "sample_states", no_sampling)
    with pytest.raises(ValueError, match=r"lambda1_values must have shape \(\*,\)"):
        boundary_trace(exponential_pair(1, 1), directions=5, samples=10, lambda1_values=values)


def test_trace_on_no_lambda1_is_an_empty_curve():
    curve = boundary_trace(exponential_pair(1, 1), directions=5, samples=10, lambda1_values=[])
    for arr in (curve.lambda1, curve.lambda2, curve.stderr):
        assert arr.shape == (0,) and arr.dtype == float
    assert (curve.directions, curve.samples) == (5, 10)


def test_trace_rejects_a_discrete_model():
    model = DiscreteChannelModel.factored([[[0.5, 0.5]], [[0.25, 0.75]]])
    with pytest.raises(ValidationError, match="continuous model"):
        boundary_trace(model, directions=5, samples=10)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_trace_rejects_seeds_a_generator_rejects(seed):
    with pytest.raises((ValueError, TypeError)):
        boundary_trace(exponential_pair(1, 1), directions=5, samples=10, seed=seed)


def test_trace_ignores_samples_and_seed(rng):
    model = random_continuous(rng, 2, 3)
    base = boundary_trace(model, directions=31, samples=100_000, seed=0)
    for samples, seed in [(1, 0), (20_000, 7), (100_000, 2**40)]:
        other = boundary_trace(model, directions=31, samples=samples, seed=seed)
        assert other.samples == samples
        for a, b in zip((base.lambda1, base.lambda2, base.stderr), (other.lambda1, other.lambda2, other.stderr)):
            assert bits(a) == bits(b)


# -- the certified bracket ---------------------------------------------------------


@pytest.mark.parametrize("D", [3, 11, 47, 181])
@pytest.mark.parametrize(("mu1", "mu2"), [(2.0, 1.0), (1.0, 1.0), (0.3, 5.0)])
def test_trace_brackets_the_closed_form(mu1, mu2, D):
    grid = np.linspace(0.0, mu1, 401)
    curve = boundary_trace(exponential_pair(mu1, mu2), directions=D, lambda1_values=grid)
    truth = np.array([exp_2q_boundary(mu1, mu2, float(l1)) for l1 in grid])
    assert (curve.stderr >= 0).all()
    assert (curve.lambda2 - curve.stderr <= truth).all()
    assert (truth <= curve.lambda2 + 1e-12).all()
    # the bracket is tight where the boundary is known: at the queue-2 axis
    assert curve.stderr[0] == 0.0 and curve.lambda2[0] == mu2


def test_trace_bracket_holds_a_finer_envelope():
    # both envelopes are upper bounds and the coarse bracket's floor a lower
    # bound.  The grids do not nest (182 does not divide 4096), so the fine
    # envelope may stand above the coarse one by its own bracket width
    model = load_model(pathlib.Path(__file__).parents[1] / "demos" / "models" / "mixed_2x2_cont.json")
    coarse = boundary_trace(model, directions=181)
    fine = boundary_trace(model, directions=4095)
    assert (coarse.lambda2 - coarse.stderr <= fine.lambda2 + 1e-12).all()
    assert (fine.lambda2 <= coarse.lambda2 + fine.stderr + 1e-12).all()
    assert fine.stderr.max() < coarse.stderr.max() / 10


def test_trace_leaves_numpy_polynomial_unimported():
    # the quadrature rule is inlined: numpy.polynomial costs 4 ms to import
    code = ("import sys, mqms; mqms.boundary_trace(mqms.load_model(sys.argv[1]), directions=5); "
            "assert 'numpy.polynomial' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(mqms.__file__).parents[1])}
    model = pathlib.Path(__file__).parents[1] / "demos" / "models" / "mixed_2x2_cont.json"
    subprocess.run([sys.executable, "-c", code, str(model)], check=True, env=env)
