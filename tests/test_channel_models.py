import json

import numpy as np
import pytest

from mqms import (
    ArrivalModel,
    ContinuousChannelModel,
    DiscreteChannelModel,
    LinkDistribution,
    UtilitySpec,
    ValidationError,
    boundary_trace,
    build_region,
    descriptor_hash,
    enumerate_states,
    from_descriptor,
    link_means,
    per_server_column_distribution,
    run,
    sample_state,
    sample_states,
    solve_fairness,
    support_vertex,
    to_descriptor,
    validate,
)
from mqms import capacity_region, channel_models, fairness_opt, fluid_region, mqms_sim
from conftest import random_bernoulli, random_explicit, random_factored


def test_validate_accepts_wellformed_bernoulli():
    model = DiscreteChannelModel.bernoulli([[0.5], [0.5]])
    validate(model)  # no raise


def test_validate_rejects_unnormalized_explicit():
    with pytest.raises(ValidationError, match="not normalized"):
        DiscreteChannelModel.explicit_joint(
            [([[1]], 0.6), ([[0]], 0.5)],
        )


def test_validate_rejects_unnormalized_factored_pmf():
    with pytest.raises(ValidationError, match="not normalized"):
        DiscreteChannelModel.factored([[[0.5, 0.5, 0.2]]])


def test_validate_rejects_negative_probability():
    with pytest.raises(ValidationError, match="negative probability"):
        DiscreteChannelModel.bernoulli([[-0.1]])


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(ValidationError, match="dimension mismatch"):
        DiscreteChannelModel(N=2, K=2, M=1, kind="bernoulli", p=((0.5, 0.5),))


@pytest.mark.parametrize("make", [
    lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="bernoulli", p=((1.5,),)),
    lambda: DiscreteChannelModel(N=1, K=1, M=2, kind="factored", pmfs=(((0.5, 0.5),),)),
    lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="explicit_joint", states=((((2,),), 1.0),)),
    lambda: ContinuousChannelModel(N=1, K=1, links=((LinkDistribution("uniform", high=-1.0),),)),
], ids=["bernoulli", "factored", "explicit_joint", "continuous"])
def test_raw_invalid_model_fails_when_built(make):
    # without a check in the constructor, sample_states and descriptor_hash took these as given
    with pytest.raises(ValidationError):
        make()


def test_built_model_keeps_its_own_copy_of_nested_inputs():
    p, pmfs, C, values = [[0.5, 0.25]], [[[0.5, 0.5]]], [[1]], [1.0, 2.0]
    states = [(C, 0.5), ([[0]], 0.5)]
    links = [[LinkDistribution("empirical", values=values)]]
    models = [
        DiscreteChannelModel(N=1, K=2, M=1, kind="bernoulli", p=p),
        DiscreteChannelModel(N=1, K=1, M=1, kind="factored", pmfs=pmfs),
        DiscreteChannelModel(N=1, K=1, M=1, kind="explicit_joint", states=states),
        ContinuousChannelModel(N=1, K=1, links=links),
    ]
    before = [to_descriptor(m) for m in models]
    p[0][0], pmfs[0][0][0], C[0][0], values[0] = 2.0, 7.0, 5, -1.0
    states.append(([[1]], 0.5))
    links[0].append(LinkDistribution("uniform", high=1.0))
    assert [to_descriptor(m) for m in models] == before
    for m in models:
        hash(m)  # TypeError if a nested field were still a list


def test_built_models_are_not_checked_again(rng, monkeypatch):
    discrete = random_factored(rng, N=2, K=2, M=2)
    onoff = DiscreteChannelModel.bernoulli([[0.5, 0.2], [0.1, 0.9]])
    continuous = ContinuousChannelModel.of(
        [[LinkDistribution("exponential", mean=1.0)], [LinkDistribution("uniform", high=2.0)]]
    )
    arrivals = ArrivalModel.bernoulli_batch([1, 1], [0.2, 0.2])
    calls = []
    real = channel_models.validate

    def counted(model):
        calls.append(model)
        real(model)

    for module in (channel_models, capacity_region, fairness_opt, fluid_region, mqms_sim):
        if hasattr(module, "validate"):
            monkeypatch.setattr(module, "validate", counted)
    DiscreteChannelModel.bernoulli([[0.5]])
    assert len(calls) == 1  # the counter sees the constructor's check
    calls.clear()
    build_region(discrete)
    build_region(onoff)
    support_vertex(discrete, (1, 2))
    solve_fairness(discrete, UtilitySpec.log_shifted(2), max_iters=5)
    for reps in (1, mqms_sim._BATCH_MIN_REPS):
        run(discrete, arrivals, T=20, replications=reps)
    boundary_trace(continuous, directions=5, samples=50)
    assert calls == []


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("make", [
    lambda: DiscreteChannelModel.factored([[[NAN, 1.0]]]),
    lambda: DiscreteChannelModel.factored([[[0.5, 0.5]], [[NAN, NAN]]]),
    lambda: DiscreteChannelModel.explicit_joint([([[1]], NAN), ([[0]], 1.0)]),
    lambda: from_descriptor(json.loads('{"N": 1, "K": 1, "kind": "factored", "pmfs": [[[NaN, 1.0]]]}')),
], ids=["factored", "factored-all-nan", "explicit_joint", "json-NaN"])
def test_discrete_models_reject_nan(make):
    with pytest.raises(ValidationError):
        make()


@pytest.mark.parametrize("link", [
    LinkDistribution("exponential", mean=NAN),
    LinkDistribution("exponential", mean=INF),
    LinkDistribution("uniform", high=NAN),
    LinkDistribution("uniform", high=INF),
    LinkDistribution("empirical", values=(NAN, 1.0)),
    LinkDistribution("empirical", values=(INF, 1.0)),
], ids=["exp-nan", "exp-inf", "uniform-nan", "uniform-inf", "empirical-nan", "empirical-inf"])
def test_continuous_links_reject_non_finite(link):
    with pytest.raises(ValidationError):
        ContinuousChannelModel.of([[link]])


@pytest.mark.parametrize("states, M", [
    ([([[1.5]], 0.5), ([[0]], 0.5)], None),
    ([([[1]], 0.5), ([[0]], 0.5)], 2.5),
], ids=["capacity", "M"])
def test_explicit_joint_rejects_non_integral_values(states, M):
    with pytest.raises(ValidationError, match="must be an integer"):
        DiscreteChannelModel.explicit_joint(states, M=M)


def test_explicit_joint_accepts_integral_floats():
    model = DiscreteChannelModel.explicit_joint([([[2.0]], 0.5), ([[0]], 0.5)], M=2.0)
    assert model.states[0][0] == ((2,),) and model.M == 2


def test_zero_probability_states_dropped():
    model = DiscreteChannelModel.explicit_joint(
        [([[1]], 0.5), ([[0]], 0.5), ([[2]], 0.0)],
        M=2,
    )
    assert len(model.states) == 2


def test_enumerate_single_bernoulli_link():
    model = DiscreteChannelModel.bernoulli([[0.5]])
    states = enumerate_states(model)
    got = sorted((int(mat[0, 0]), prob) for mat, prob in states)
    assert got == [(0, 0.5), (1, 0.5)]


def test_enumerate_factored_uniform_links():
    pmf = [1 / 3, 1 / 3, 1 / 3]
    model = DiscreteChannelModel.factored([[pmf, pmf]])
    states = enumerate_states(model)
    assert len(states) == 9
    assert all(abs(prob - 1 / 9) < 1e-12 for _, prob in states)


def test_enumerate_bernoulli_2x2_state_count():
    model = DiscreteChannelModel.bernoulli([[0.3, 0.6], [0.5, 0.9]])
    states = enumerate_states(model)
    assert len(states) == 16  # (M+1)^(N*K) with M = 1
    assert abs(sum(p for _, p in states) - 1.0) < 1e-9
    mats = {tuple(map(tuple, m)) for m, _ in states}
    assert len(mats) == 16


def test_enumerate_respects_cap():
    model = DiscreteChannelModel.bernoulli([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValidationError, match="cap exceeded"):
        enumerate_states(model, cap=15)


def test_column_distribution_bernoulli():
    model = DiscreteChannelModel.bernoulli([[0.5], [0.5]])
    cols = dict(per_server_column_distribution(model, 0))
    assert cols == {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25}


def test_column_distribution_factored_single_link():
    model = DiscreteChannelModel.factored([[[0.2, 0.8]]])
    cols = dict(per_server_column_distribution(model, 0))
    assert cols == {(0,): 0.2, (1,): 0.8}


def test_column_distribution_degenerate_links():
    model = DiscreteChannelModel.bernoulli([[1.0], [0.0]])
    cols = per_server_column_distribution(model, 0)
    assert cols == [((1, 0), 1.0)]


def test_column_distribution_rejects_explicit():
    model = DiscreteChannelModel.explicit_joint([([[1]], 1.0)])
    with pytest.raises(ValidationError, match="explicit_joint"):
        per_server_column_distribution(model, 0)


def test_factored_columns_reassemble_joint_probabilities(rng):
    for _ in range(5):
        model = random_factored(rng, N=2, K=2, M=2)  # 81 <= 4096 joint states
        col_laws = [dict(per_server_column_distribution(model, k)) for k in range(model.K)]
        for mat, prob in enumerate_states(model):
            product = 1.0
            for k in range(model.K):
                product *= col_laws[k][tuple(int(mat[n, k]) for n in range(model.N))]
            assert abs(product - prob) <= 1e-12


def test_enumeration_marginals_match_declared_pmfs(rng):
    model = random_factored(rng, N=2, K=2, M=2)
    states = enumerate_states(model)
    for n in range(model.N):
        for k in range(model.K):
            marginal = [0.0] * (model.M + 1)
            for mat, prob in states:
                marginal[int(mat[n, k])] += prob
            for v in range(model.M + 1):
                assert abs(marginal[v] - model.pmfs[n][k][v]) <= 1e-12


def test_sample_state_certain_links_always_on():
    model = DiscreteChannelModel.bernoulli([[1.0, 1.0], [1.0, 1.0]])
    block = sample_states(model, np.random.default_rng(1), 50)
    assert (block == 1).all()


def test_sample_state_exponential_mean():
    model = ContinuousChannelModel.of([[LinkDistribution("exponential", mean=2.0)]])
    block = sample_states(model, np.random.default_rng(5), 1_000_000)
    # 3 sigma of the sample mean is ~0.006 here
    assert abs(block.mean() - 2.0) < 0.01


def test_sampling_is_seed_reproducible():
    model = DiscreteChannelModel.bernoulli([[0.4, 0.7], [0.2, 0.9]])
    a = sample_states(model, np.random.default_rng(99), 200)
    b = sample_states(model, np.random.default_rng(99), 200)
    assert (a == b).all()
    one = sample_state(model, np.random.default_rng(99))
    assert (one == a[0]).all()


def _literal_sample(model, rng, T):
    # the documented stream, drawn the plain way: per-link rng.choice in
    # row-major link order, one rng.random((T, N, K)) < p, or rng.choice
    # over the states
    N, K = model.N, model.K
    if model.kind == "bernoulli":
        return rng.random((T, N, K)) < np.array(model.p)
    if model.kind == "factored":
        out = np.empty((T, N, K), dtype=np.int64)
        for n in range(N):
            for k in range(K):
                pmf = np.array(model.pmfs[n][k])
                out[:, n, k] = rng.choice(model.M + 1, size=T, p=pmf / pmf.sum())
        return out
    probs = np.array([prob for _, prob in model.states])
    idx = rng.choice(len(probs), size=T, p=probs / probs.sum())
    return np.array([mat for mat, _ in model.states])[idx]


def _zero_atom_pmfs(rng, M):
    # a leading, an interior run of and a trailing zero atom, and point masses
    # at 0, inside and at M: equal cdf entries and cdf[0] = 0.0
    pmfs = []
    for zeros in ([0], list(range(1, 1 + max(1, M // 2))), [M]):
        w = rng.random(M + 1) + 0.05
        w[zeros] = 0.0
        pmfs.append((w / w.sum()).tolist())
    for at in (0, M // 2, M):
        pmfs.append([1.0 if m == at else 0.0 for m in range(M + 1)])
    return pmfs


def _sample_cases(rng, kind):
    for M in (1, 2, 3, 200):
        if kind == "bernoulli" and M > 1:
            continue
        for _ in range(4):
            N, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            if kind == "bernoulli":
                yield M, random_bernoulli(rng, N, K)
            elif kind == "factored":
                yield M, random_factored(rng, N, K, M)
            else:
                n_states = int(rng.integers(2, min(8, (M + 1) ** (N * K)) + 1))
                yield M, random_explicit(rng, N, K, M, n_states)
    if kind == "factored":  # on both sides of the int8 cut at M = 128
        for M in (2, 127, 130):
            pmfs = _zero_atom_pmfs(rng, M)
            yield M, DiscreteChannelModel.factored([pmfs[:3], pmfs[3:]])


@pytest.mark.parametrize("kind", ["bernoulli", "factored", "explicit_joint"])
def test_sample_states_replays_the_literal_stream(rng, monkeypatch, kind):
    # values, dtype and the generator's next draw, at horizons on both sides
    # of a (shrunk) bernoulli sampling chunk
    monkeypatch.setattr(channel_models, "_BERNOULLI_CHUNK_DRAWS", 60)
    for M, model in _sample_cases(rng, kind):
        N, K = model.N, model.K
        chunk = max(1, 60 // (N * K))
        for T in sorted({1, max(1, chunk - 1), chunk, chunk + 1, 3 * chunk + 2}):
            seed = int(rng.integers(1 << 30))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_states(model, got_rng, T)
            want = _literal_sample(model, want_rng, T)
            assert got.dtype == np.min_scalar_type(-M - 1)
            assert got.shape == (T, N, K) and (got == want).all()
            assert got_rng.random() == want_rng.random()


def test_empirical_frequencies_converge(rng):
    model = DiscreteChannelModel.bernoulli([[0.3]])
    block = sample_states(model, rng, 100_000)
    assert abs(block.mean() - 0.3) < 3 * 0.3 * 0.7 / np.sqrt(100_000) + 0.005


def test_link_means_factored():
    model = DiscreteChannelModel.factored([[[0.5, 0.25, 0.25]]])
    assert abs(link_means(model)[0, 0] - 0.75) < 1e-12


def test_link_means_equal_the_state_average(rng):
    # E[C] = sum_s pi_s C_s over the enumerated joint states, for every kind
    for _ in range(4):
        N, K, M = int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 3))  # <= 3^9 states
        for model in (
            random_bernoulli(rng, N, K),
            random_factored(rng, N, K, M),
            random_explicit(rng, N, K, M, n_states=int(rng.integers(1, 6))),
        ):
            want = sum(prob * np.asarray(mat, dtype=float) for mat, prob in enumerate_states(model, cap=3**9))
            got = link_means(model)
            assert got.shape == (N, K)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def test_descriptor_round_trip_discrete():
    for model in (
        DiscreteChannelModel.bernoulli([[0.5, 0.2], [0.1, 0.9]]),
        DiscreteChannelModel.factored([[[0.2, 0.8]], [[0.5, 0.5]]]),
        DiscreteChannelModel.explicit_joint([([[2]], 0.25), ([[0]], 0.75)], M=2),
    ):
        again = from_descriptor(json.loads(json.dumps(to_descriptor(model))))
        assert again == model
        assert descriptor_hash(again) == descriptor_hash(model)


def test_descriptor_round_trip_continuous():
    model = ContinuousChannelModel.of(
        [
            [LinkDistribution("exponential", mean=2.0), LinkDistribution("uniform", high=3.0)],
            [LinkDistribution("empirical", values=(1.0, 2.0)), LinkDistribution("exponential", mean=1.0)],
        ]
    )
    again = from_descriptor(to_descriptor(model))
    assert again == model


def test_descriptor_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown model kind"):
        from_descriptor({"N": 1, "K": 1, "kind": "markov"})
