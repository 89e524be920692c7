
import itertools

import numpy as np
import pytest

from mqms import (
    ContinuousChannelModel,
    DiscreteChannelModel,
    LinkDistribution,
    StabilityRegion,
    UtilitySpec,
    ValidationError,
    brute_force_support,
    build_region,
    build_vhat,
    enumerate_states,
    from_descriptor,
    link_means,
    membership_margin,
    onoff_support,
    solve_fairness,
    support_function,
    support_vertex,
    to_descriptor,
)
from conftest import random_bernoulli, random_discrete, random_factored
import exact_betas

SYM = DiscreteChannelModel.bernoulli([[0.5], [0.5]])


# -- support_function --------------------------------------------------------


def test_support_symmetric_pair():
    # 1 - P(both links OFF) = 0.75
    assert abs(support_function(SYM, (1, 1)) - 0.75) <= 1e-12


def test_support_basis_direction_is_mean_capacity(rng):
    model = random_factored(rng, N=3, K=2, M=2)
    means = link_means(model)
    for n in range(3):
        e = [0.0] * 3
        e[n] = 1.0
        assert abs(support_function(model, e) - means[n].sum()) <= 1e-12


def test_support_positive_homogeneity_example():
    assert abs(support_function(SYM, (2, 2)) - 1.5) <= 1e-12


def test_support_rejects_bad_directions():
    # a continuous model's direction is read as a discrete one's
    for model in (SYM, ContinuousChannelModel.of([[LinkDistribution("exponential", mean=1.0)]] * 2)):
        for alpha, message in [((0, -0.0), "nonzero"), ((1, -1), "finite and nonnegative"),
                               ((float("nan"), 1), "finite and nonnegative"), ((1, -float("inf")), "finite"),
                               ((1, 1, 1), r"shape \(2,\)")]:
            with pytest.raises(ValidationError, match=f"^alpha must .*{message}"):
                support_function(model, alpha)


@pytest.mark.parametrize("alpha", [(float("nan"), 1.0), (float("inf"), 1.0), (1.0, -float("inf"))],
                         ids=["nan", "inf", "minus-inf"])
@pytest.mark.parametrize("fn", [support_function, support_vertex, brute_force_support])
def test_support_rejects_non_finite_directions(fn, alpha):
    with pytest.raises(ValueError, match="finite"):
        fn(SYM, alpha)


def test_support_homogeneity(rng):
    for _ in range(5):
        model = random_discrete(rng)
        alpha = rng.random(model.N) + 0.1
        h = support_function(model, alpha)
        for q in (0.5, 2.0, 10.0):
            assert abs(support_function(model, q * alpha) - q * h) <= 1e-9 * max(1.0, q * h)


def test_support_subadditivity(rng):
    for _ in range(5):
        model = random_discrete(rng)
        a = rng.random(model.N) + 0.05
        b = rng.random(model.N) + 0.05
        assert support_function(model, a + b) <= (
            support_function(model, a) + support_function(model, b) + 1e-9
        )


def test_support_of_a_huge_direction_is_finite():
    # unscaled, values * alpha overflows to inf; the true support is 0.4e308 + 0.9e308
    model = DiscreteChannelModel.explicit_joint([(((4,), (0,)), 0.1), (((0,), (1,)), 0.9)], M=4)
    for fn in (support_function, brute_force_support):
        with np.errstate(all="raise"):
            got = fn(model, (1e308, 1e308))
        assert got == 2.0**1000 * fn(model, (1e308 / 2.0**1000, 1e308 / 2.0**1000))
        assert abs(got - 1.3e308) <= 1e-15 * got


def test_support_monotonicity(rng):
    for _ in range(5):
        model = random_discrete(rng)
        a = rng.random(model.N) + 0.05
        bigger = a + rng.random(model.N)
        assert support_function(model, a) <= support_function(model, bigger) + 1e-12


# -- support_vertex -----------------------------------------------------------


def test_vertex_first_queue_only():
    # with weight only on queue 1, ties at zero go to queue 1 which is OFF
    r = support_vertex(SYM, (1, 0))
    assert np.allclose(r, [0.5, 0.0], atol=1e-12)


def test_vertex_symmetric_direction_lowest_index():
    # queue 1 wins the (1,1) and (0,0) ties: 4-state hand enumeration
    r = support_vertex(SYM, (1, 1))
    assert np.allclose(r, [0.5, 0.25], atol=1e-12)


def test_vertex_symmetric_direction_highest_index():
    r = support_vertex(SYM, (1, 1), tie_rule="highest_index")
    assert np.allclose(r, [0.25, 0.5], atol=1e-12)


def test_vertex_deterministic_channel():
    model = DiscreteChannelModel.explicit_joint([([[2], [1]], 1.0)])
    r = support_vertex(model, (1, 1))
    assert np.allclose(r, [2.0, 0.0], atol=1e-12)


def test_vertex_attains_support_and_stays_inside(rng):
    for _ in range(8):
        model = random_discrete(rng)
        region = build_region(model)
        for alpha in build_vhat(model.M, model.N):
            r = support_vertex(model, alpha)
            h = support_function(model, alpha)
            assert abs(float(np.dot(alpha, r)) - h) <= 1e-9 * max(1.0, h)
            assert membership_margin(region, r) >= -1e-9


def test_vertex_of_a_huge_direction_is_that_of_its_scaled_copy():
    # unscaled, values * alpha overflows to two equal infs, and the tie goes to queue 0
    model = DiscreteChannelModel.explicit_joint([(((2,), (3,)), 1.0)], M=3)
    with np.errstate(all="raise"):
        got = support_vertex(model, (1e308, 0.9e308))
    assert got.tolist() == support_vertex(model, (1.0, 0.9)).tolist() == [0.0, 3.0]


def test_a_tiny_entry_beside_a_huge_one_keeps_its_digits():
    # queue 0 never has capacity, so 2**-600 alone sets the support and the vertex;
    # a scaling that brought 2**1000 down to 2**512 would push 2**-600 to 0
    model = DiscreteChannelModel.explicit_joint([(((0,), (1,)), 1.0)], M=1)
    alpha = (2.0**1000, 2.0**-600)
    assert support_function(model, alpha) == brute_force_support(model, alpha) == 2.0**-600
    assert support_vertex(model, alpha).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("tie_rule", ["lowest_index", "highest_index"])
def test_vertex_matches_per_state_argmax(rng, tie_rule):
    # literal reference: walk every joint state and give each server to its
    # best queue, scanning queues in tie-rule order
    for _ in range(12):
        model = random_discrete(rng)
        order = range(model.N) if tie_rule == "lowest_index" else range(model.N - 1, -1, -1)
        states = enumerate_states(model)
        alphas = list(build_vhat(model.M, model.N)) + [rng.random(model.N) + 0.01 for _ in range(3)]
        for alpha in alphas:
            expected = np.zeros(model.N)
            for mat, prob in states:
                for k in range(model.K):
                    best = None
                    for n in order:
                        if best is None or alpha[n] * mat[n][k] > alpha[best] * mat[best][k]:
                            best = n
                    expected[best] += prob * mat[best][k]
            got = support_vertex(model, alpha, tie_rule=tie_rule)
            assert np.abs(got - expected).max() <= 1e-12


# -- regions -------------------------------------------------------------------


def one_exponential_link():
    return ContinuousChannelModel.of([[LinkDistribution("exponential", mean=1.0)]])


@pytest.mark.parametrize("make", [
    lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="bernoulli", p=((1.5,),)),
    lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="factored", pmfs=(((float("nan"), 1.0),),)),
    lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="explicit_joint", states=((((1,),), 0.6), (((0,),), 0.6))),
    one_exponential_link,
], ids=["bernoulli-p-above-1", "factored-nan", "explicit-unnormalized", "continuous"])
@pytest.mark.parametrize("fn", [support_function, support_vertex])
def test_support_validates_models_built_without_classmethods(make, fn):
    # invalid models fail when built; the continuous one when it reaches the support vertex,
    # while its support value is the exact one, sum_k E[max_n alpha[n] C[n,k]] = E[C] here
    if fn is support_function and make is one_exponential_link:
        assert fn(make(), (1,)) == 1.0
        return
    with pytest.raises(ValidationError):
        fn(make(), (1,))


def test_build_region_symmetric_pair():
    region = build_region(SYM)
    got = {alpha: beta for alpha, beta in region.inequalities}
    assert got == {(0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.75}


def test_build_region_unit_server_shared():
    model = DiscreteChannelModel.explicit_joint([([[1], [1]], 1.0)], M=1)
    region = build_region(model)
    got = {alpha: beta for alpha, beta in region.inequalities}
    assert got == {(0, 1): 1.0, (1, 0): 1.0, (1, 1): 1.0}


def test_build_region_m2_has_five_inequalities(rng):
    model = random_factored(rng, N=2, K=2, M=2)
    region = build_region(model)
    assert len(region.inequalities) == 5


def test_build_region_methods_agree_for_onoff(rng):
    # bernoulli regions come from the support function, like every kind; with
    # M = 1 each direction is the indicator of a queue set, where the ON-OFF
    # closed form must give the same beta
    for N, K in [(1, 1), (2, 2), (3, 2), (4, 3)]:
        model = random_bernoulli(rng, N, K)
        region = build_region(model)
        directions = build_vhat(1, N)
        assert [alpha for alpha, _ in region.inequalities] == directions
        for alpha, beta in region.inequalities:
            assert abs(beta - onoff_support(model.p, [n for n, a in enumerate(alpha) if a])) <= 1e-12


def test_region_contains_basis_directions_and_positive_betas(rng):
    model = random_discrete(rng)
    region = build_region(model)
    alphas = {alpha for alpha, _ in region.inequalities}
    for n in range(model.N):
        assert tuple(1 if i == n else 0 for i in range(model.N)) in alphas
    assert all(beta >= 0 for _, beta in region.inequalities)


def test_region_permutation_invariance(rng):
    model = random_factored(rng, N=3, K=2, M=2)
    perm = [2, 0, 1]  # permuted row n is original row perm[n]
    permuted = DiscreteChannelModel.factored([model.pmfs[i] for i in perm])
    base = {alpha: beta for alpha, beta in build_region(model).inequalities}
    inverse = {perm[j]: j for j in range(3)}
    mapped = {}
    for alpha, beta in build_region(permuted).inequalities:
        # alpha indexes permuted queues; express it over the original ones
        mapped[tuple(alpha[inverse[j]] for j in range(3))] = beta
    assert set(mapped) == set(base)
    for alpha in base:
        assert abs(mapped[alpha] - base[alpha]) <= 1e-9


def test_onoff_region_single_link():
    region = build_region(DiscreteChannelModel.bernoulli([[0.7]]))
    assert region.inequalities == (((1,), 0.7),)


def test_onoff_region_pair_sum_inequality():
    region = build_region(DiscreteChannelModel.bernoulli([[0.5, 0.5], [0.5, 0.5]]))
    got = dict(region.inequalities)
    assert abs(got[(1, 1)] - 1.5) <= 1e-12


def test_onoff_region_count():
    region = build_region(DiscreteChannelModel.bernoulli(np.full((3, 2), 0.4)))
    assert len(region.inequalities) == 7


def test_region_holds_read_only_arrays_behind_its_inequalities():
    A, beta = np.array([[0, 1], [1, 0], [1, 1]]), [0.5, 0.5, 0.75]
    region = StabilityRegion(A, beta)
    A[0, 0] = 7  # the region keeps its own copy
    assert region.N == 2 and region.A.dtype == np.int64
    assert region.inequalities == (((0, 1), 0.5), ((1, 0), 0.5), ((1, 1), 0.75))
    assert region.inequalities == build_region(SYM).inequalities
    twin = StabilityRegion(region.A, region.beta)
    assert twin != region and twin.inequalities == region.inequalities  # regions compare by identity
    for arr in (region.A, region.beta):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0
    json_ready = region.to_dict()["inequalities"][2]
    assert json_ready == {"alpha": [1, 1], "beta": 0.75} and type(json_ready["alpha"][0]) is int


@pytest.mark.parametrize(("A", "beta", "match"), [
    ([1, 1], [0.5, 0.5], "shape"),
    ([[1, 0]], [0.5, 0.5], "shape"),
    ([[1, 0]], [[0.5]], "shape"),
    ([[1.5, 0]], [0.5], "integer"),
    ([[-1, 1]], [0.5], "integer"),
    ([[np.nan, 1]], [0.5], "integer"),
    ([[0, 0]], [0.5], "nonzero"),
    ([[1, 0]], [np.inf], "finite"),
])
def test_region_rejects_bad_arrays(A, beta, match):
    with pytest.raises(ValueError, match=match):
        StabilityRegion(A, beta)


def test_onoff_closed_form_matches_support(rng):
    for _ in range(6):
        N, K = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        model = random_bernoulli(rng, N, K)
        p = np.array(model.p)
        for mask in range(1, 2**N):
            Q = [n for n in range(N) if (mask >> n) & 1]
            alpha = [1.0 if n in Q else 0.0 for n in range(N)]
            assert abs(support_function(model, alpha) - onoff_support(p, Q)) <= 1e-12



@pytest.mark.parametrize(
    ("p", "match"),
    [
        ([[1.5]], r"\[0, 1\]"),
        ([[float("nan")]], "finite and nonnegative"),
        ([[-0.5, 0.2]], "finite and nonnegative"),
        ([0.5, 0.5], r"shape \(\*, \*\)"),
        ([[[0.5]]], r"shape \(\*, \*\)"),
    ],
)
def test_onoff_support_rejects_bad_probabilities(p, match):
    with pytest.raises(ValueError, match=match):
        onoff_support(p, [0])


@pytest.mark.parametrize(("subset", "message"), [
    ([], "queue subset must be nonempty"),
    ([2], "queue subset out of range"),
    ([-1, 0], "queue subset out of range"),
], ids=["empty", "above", "negative"])
def test_onoff_support_rejects_bad_subsets(subset, message):
    with pytest.raises(ValueError) as info:
        onoff_support([[0.5], [0.5]], subset)
    assert str(info.value) == message


# -- exact and metamorphic checks of the betas ----------------------------------


def test_build_region_betas_are_the_exact_supports():
    # every row of the demo models, 60 seeded small models and two N = K = 3, M = 4
    # factored models against the Fraction sums of tests/exact_betas.py
    worst = exact_betas.worst_ulps(exact_betas.corpus())
    assert set(worst) == {"bernoulli", "factored", "explicit_joint"}
    assert max(err for err, _ in worst.values()) <= 8, worst


def seeded_models(count=100):
    rng = np.random.default_rng(1310)
    return [random_discrete(rng) for _ in range(count)]


def rearranged(model, rows, cols):
    """Queue n takes row rows[n] of the model and server k its column cols[k]; None is a server of capacity 0."""
    d = to_descriptor(model)
    zero = {"bernoulli": 0.0, "factored": [1.0] + [0.0] * model.M, "explicit_joint": 0}[model.kind]

    def grid(g):
        return [[zero if k is None else g[n][k] for k in cols] for n in rows]

    if model.kind == "explicit_joint":
        d["states"] = [{"C": grid(s["C"]), "prob": s["prob"]} for s in d["states"]]
    else:
        field = "p" if model.kind == "bernoulli" else "pmfs"
        d[field] = grid(d[field])
    d["K"] = len(cols)
    return from_descriptor(d)


def as_explicit(model):
    """An independent-link model rewritten as the explicit joint law of its links."""
    d = to_descriptor(model)
    pmfs = [[(1.0 - q, q) for q in row] for row in d["p"]] if model.kind == "bernoulli" else d["pmfs"]
    links = list(itertools.product(range(model.N), range(model.K)))
    states = []
    for combo in itertools.product(*[[(c, q) for c, q in enumerate(pmfs[n][k]) if q > 0] for n, k in links]):
        C, prob = [[0] * model.K for _ in range(model.N)], 1.0
        for (n, k), (c, q) in zip(links, combo):
            C[n][k] = c
            prob *= q
        states.append((C, prob))
    return DiscreteChannelModel.explicit_joint(states, M=model.M)


def assert_same_betas(region, other, rel):
    assert np.array_equal(region.A, other.A)
    assert (abs(other.beta - region.beta) <= rel * region.beta).all()


def test_betas_keep_under_an_explicit_rewrite():
    checked = 0
    for model in seeded_models():
        if model.kind != "explicit_joint":
            assert_same_betas(build_region(model), build_region(as_explicit(model)), 1e-14)
            checked += 1
    assert checked >= 30


def test_betas_keep_under_a_server_permutation():
    rng = np.random.default_rng(1311)
    for model in seeded_models():
        cols = rng.permutation(model.K).tolist()
        assert_same_betas(build_region(model), build_region(rearranged(model, range(model.N), cols)), 1e-14)


def test_fairness_objective_keeps_under_a_server_permutation():
    # both solves are within their gap of the one optimum, so converged objectives
    # agree within the larger gap; on these draws they differ by at most 8.9e-16
    rng = np.random.default_rng(1312)
    converged = 0
    for model in seeded_models(60):
        permuted = rearranged(model, range(model.N), rng.permutation(model.K).tolist())
        weights = rng.uniform(0.1, 2.0, model.N).tolist()
        for spec in (UtilitySpec.log_shifted(model.N), UtilitySpec.alpha_fair(model.N, 2.0),
                     UtilitySpec.weighted_linear(weights)):
            a = solve_fairness(model, spec, tol=1e-9, max_iters=2000)
            b = solve_fairness(permuted, spec, tol=1e-9, max_iters=2000)
            if a.converged and b.converged:
                converged += 1
                assert abs(a.objective - b.objective) <= max(a.gap, b.gap) + 1e-12
    assert converged >= 160


def test_an_all_zero_server_keeps_the_betas_bit_for_bit():
    for model in seeded_models():
        region, widened = build_region(model), build_region(rearranged(model, range(model.N), [*range(model.K), None]))
        assert np.array_equal(widened.A, region.A)
        assert widened.beta.tobytes() == region.beta.tobytes()


def test_reversing_the_queues_reverses_the_directions_and_mirrors_the_vertices():
    for model in seeded_models():
        reversed_model = rearranged(model, range(model.N - 1, -1, -1), range(model.K))
        betas = dict(build_region(reversed_model).inequalities)
        for alpha, beta in build_region(model).inequalities:
            assert abs(betas[alpha[::-1]] - beta) <= 1e-14
            vertex = support_vertex(model, alpha, "lowest_index")
            mirrored = support_vertex(reversed_model, alpha[::-1], "highest_index")[::-1]
            assert (abs(mirrored - vertex) <= 1e-14).all()


# -- membership margin ----------------------------------------------------------


def test_margin_single_queue():
    region = StabilityRegion([[1]], [0.5])
    assert abs(membership_margin(region, [0.3]) - 0.2) <= 1e-12


def test_margin_boundary_point():
    region = build_region(SYM)
    assert abs(membership_margin(region, [0.375, 0.375])) <= 1e-12
    assert region.verdict([0.375, 0.375]) == "boundary"


def test_margin_outside_point():
    region = build_region(SYM)
    assert abs(membership_margin(region, [0.5, 0.5]) + 0.125) <= 1e-12
    assert region.verdict([0.5, 0.5]) == "outside"
    assert region.verdict([0.1, 0.1]) == "interior"


@pytest.mark.parametrize(("region", "rates", "message"), [
    (StabilityRegion([[1, 0], [0, 1]], [0.5, 0.5]), [0.1], "rates must have shape (2,), got (1,)"),
    (StabilityRegion([[1, 0], [0, 1]], [0.5, 0.5]), [[0.1, 0.1]], "rates must have shape (2,), got (1, 2)"),
    (StabilityRegion(np.zeros((0, 2), dtype=int), []), [0.1, 0.1], "region has no inequalities"),
], ids=["short", "2d", "no-rows"])
def test_margin_rejects_a_rate_of_another_length_or_an_empty_region(region, rates, message):
    with pytest.raises(ValueError) as info:
        membership_margin(region, rates)
    assert str(info.value) == message


def test_margin_rejects_negative_rates():
    region = build_region(SYM)
    for rates in ([-0.1, 0.1], [np.nan, 0.1], [0.1, np.inf], [-np.inf, 0.1]):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            membership_margin(region, rates)


@pytest.mark.parametrize(("rates", "message"), [
    ([np.nan, 0.5], "rates must be finite and nonnegative"),
    ([-5.0, 1.5], "rates must be finite and nonnegative"),
    ([0.5, np.inf], "rates must be finite and nonnegative"),
    ([0.1], "rates must have shape (2,), got (1,)"),
    ([[0.5, 0.5]], "rates must have shape (2,), got (1, 2)"),
], ids=["nan", "negative", "inf", "short", "2d"])
def test_binding_checks_the_rate_point_as_the_margin_does(rates, message):
    # binding([nan, 0.5]) gave (), binding([-5.0, 1.5]) gave ((0, 1),), and a
    # wrong length failed inside the matrix product
    region = build_region(DiscreteChannelModel.bernoulli([[0.5, 0.5], [0.5, 0.5]]))
    for ask in (region.binding, lambda r: membership_margin(region, r)):
        with pytest.raises(ValueError) as info:
            ask(rates)
        assert str(info.value) == message


def test_margin_is_finite_for_huge_finite_rates():
    region = build_region(DiscreteChannelModel.bernoulli([[0.5, 0.5], [0.5, 0.5]]))
    top = np.finfo(float).max
    for rates in ([1e308, 1e308], [top, top], [top, 0.0]):
        with np.errstate(all="raise"):
            delta = membership_margin(region, rates)
        assert np.isfinite(delta) and delta <= -1e307
    # where alpha . rates cannot overflow, the power-of-two rescale of huge
    # rates gives the unscaled formula bit for bit
    for rates in ([3e200, 1e-3], [2.0**600, 0.7], [1e300, 1e299]):
        lam = np.array(rates)
        plain = min((beta - float(np.dot(alpha, lam))) / sum(alpha) for alpha, beta in region.inequalities)
        assert membership_margin(region, rates) == plain


# -- brute-force oracle -----------------------------------------------------------


def test_brute_force_matches_hand_enumeration():
    assert abs(brute_force_support(SYM, (1, 1)) - 0.75) <= 1e-12


def test_brute_force_single_state():
    model = DiscreteChannelModel.explicit_joint([([[2], [1]], 1.0)])
    assert abs(brute_force_support(model, (0, 1)) - 1.0) <= 1e-12


def test_brute_force_equals_fast_path(rng):
    for _ in range(6):
        model = random_discrete(rng)
        for alpha in build_vhat(model.M, model.N):
            fast = support_function(model, alpha)
            slow = brute_force_support(model, alpha)
            assert abs(fast - slow) <= 1e-9 * max(1.0, abs(slow))


def test_brute_force_allocation_cap():
    # 3^8 = 6,561 allocations; the cap is checked before the 2^24 states are enumerated
    model = random_bernoulli(np.random.default_rng(0), 3, 8)
    with pytest.raises(ValidationError, match=r"^allocation cap exceeded: N\^K = 6561 > 4096$"):
        brute_force_support(model, (1, 1, 1))
