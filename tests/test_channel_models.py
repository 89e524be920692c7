import copy
import json
import time
from pathlib import Path

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
    with pytest.raises(ValidationError, match="states must be normalised"):
        DiscreteChannelModel.explicit_joint(
            [([[1]], 0.6), ([[0]], 0.5)],
        )


def test_validate_rejects_unnormalized_factored_pmf():
    with pytest.raises(ValidationError, match=r"pmfs\[0\]\[0\] must be normalised"):
        DiscreteChannelModel.factored([[[0.5, 0.5, 0.2]]])


def test_validate_rejects_negative_probability():
    with pytest.raises(ValidationError, match="p must be finite and nonnegative"):
        DiscreteChannelModel.bernoulli([[-0.1]])


def test_validate_rejects_dimension_mismatch():
    with pytest.raises(ValidationError, match=r"p must have shape \(2, 2\), got \(1, 2\)"):
        DiscreteChannelModel(N=2, K=2, M=1, kind="bernoulli", p=((0.5, 0.5),))


# a kind-tagged model, link, arrival or utility given a field of another kind
STRAY_FIELD_MODELS = {
    "bernoulli-with-pmfs": (
        lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="bernoulli", p=((0.5,),), pmfs=(((0.1, 0.9),),)),
        "field 'pmfs' does not belong to kind 'bernoulli'"),
    "factored-with-states": (
        lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="factored", pmfs=(((0.1, 0.9),),), states=((((1,),), 1.0),)),
        "field 'states' does not belong to kind 'factored'"),
    "explicit_joint-with-p": (
        lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="explicit_joint", states=((((1,),), 1.0),), p=((0.5,),)),
        "field 'p' does not belong to kind 'explicit_joint'"),
    "exponential-with-high": (
        lambda: LinkDistribution("exponential", mean=1.0, high=2.0),
        "field 'high' does not belong to kind 'exponential'"),
    "empirical-with-mean": (
        lambda: LinkDistribution("empirical", mean=1.0, values=(1.0, 2.0)),
        "field 'mean' does not belong to kind 'empirical'"),
    "deterministic-with-prob": (
        lambda: mqms_sim.QueueArrivals("deterministic", rate_num=1, rate_den=2, prob=0.5),
        "field 'prob' does not belong to kind 'deterministic'"),
    "bounded_pmf-with-batch": (
        lambda: mqms_sim.QueueArrivals("bounded_pmf", batch=2, pmf=(0.5, 0.5)),
        "field 'batch' does not belong to kind 'bounded_pmf'"),
    "log_shifted-with-weights": (
        lambda: UtilitySpec("log_shifted", caps=(1.0, 1.0), weights=(1.0, 2.0)),
        "field 'weights' does not belong to kind 'log_shifted'"),
    "alpha_fair-with-epsilon": (
        lambda: UtilitySpec("alpha_fair", caps=(1.0,), a=2.0, epsilon=0.5),
        "field 'epsilon' does not belong to kind 'alpha_fair'"),
}


@pytest.mark.parametrize(("make", "message"), [
    (lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="bernoulli", p=((1.5,),)), r"p\[0\]\[0\] must be in \[0, 1\], got 1\.5"),
    (lambda: DiscreteChannelModel(N=1, K=1, M=2, kind="factored", pmfs=(((0.5, 0.5),),)), r"pmfs must have shape \(1, 1, 3\), got \(1, 1, 2\)"),
    (lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="explicit_joint", states=((((2,),), 1.0),)),
     "states must be matrices of capacities in {0..1}"),
    (lambda: ContinuousChannelModel(N=1, K=1, links=((LinkDistribution("uniform", high=-1.0),),)),
     "high must be finite and nonnegative, got -1.0"),
    (lambda: LinkDistribution("exponential", mean="x"), "mean must be a number"),
    (lambda: DiscreteChannelModel(N="2", K=1, M=1, kind="bernoulli", p=((0.5,), (0.5,))), "N must be an integer"),
    *STRAY_FIELD_MODELS.values(),
    (lambda: DiscreteChannelModel.explicit_joint([([[1]], 0.5), ([[1]], 0.5)]), "states must be distinct matrices"),
    (lambda: DiscreteChannelModel(N=1, K=1, M=0, kind="factored", pmfs=(((1.0,),),)), "M must be at least 1, got 0"),
    (lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="markov"), "^unknown model kind 'markov'$"),
    (lambda: LinkDistribution("gamma"), "^unknown link distribution kind 'gamma'$"),
    (lambda: LinkDistribution(["exponential"]), r"^unknown link distribution kind \['exponential'\]$"),
    (lambda: mqms_sim.QueueArrivals("poisson"), "^unknown arrival kind 'poisson'$"),
    (lambda: UtilitySpec(None, caps=(1.0,)), "^unknown utility kind None$"),
    (lambda: LinkDistribution("exponential", mean=-1.0), "^mean must be finite and nonnegative, got -1.0$"),
    (lambda: LinkDistribution("exponential"), "^mean must be nonzero, got 0.0$"),
    (lambda: LinkDistribution("uniform", high=0.0), "^high must be nonzero, got 0.0$"),
    (lambda: LinkDistribution("empirical"), "^values must be nonempty$"),
    (lambda: LinkDistribution("empirical", values=(1.0, -0.5)), "^values must be finite and nonnegative$"),
], ids=["bernoulli", "factored", "explicit_joint", "continuous", "string-mean", "string-N", *STRAY_FIELD_MODELS,
        "duplicate-states", "M-zero", "unknown-model", "unknown-link", "unknown-link-list", "unknown-arrival",
        "unknown-utility", "exp-negative", "exp-default", "uniform-zero", "empirical-empty", "empirical-negative"])
def test_raw_invalid_model_fails_when_built(make, message):
    # without a check in the constructor, sample_states and descriptor_hash took these as given;
    # LinkDistribution("gamma") and LinkDistribution("exponential", mean=-1.0) built, the last
    # with expected_value() -1.0
    with pytest.raises(ValidationError, match=message):
        make()


@pytest.mark.parametrize(("make", "message"), STRAY_FIELD_MODELS.values(), ids=list(STRAY_FIELD_MODELS))
def test_stray_model_fields_are_named(make, message):
    # the bernoulli model with pmfs built, ignored them and hashed like bernoulli([[0.5]]);
    # a deterministic arrival with prob=0.5 built and released its deterministic schedule
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


def test_continuous_kind_is_a_class_constant():
    model = ContinuousChannelModel.of([[LinkDistribution("uniform", high=1.0)]])
    assert model.kind == ContinuousChannelModel.kind == "continuous"
    with pytest.raises(TypeError):
        ContinuousChannelModel(N=1, K=1, kind="bernoulli", links=model.links)


@pytest.mark.parametrize(("make", "message"), [
    (lambda: DiscreteChannelModel(N=1, K=1, M=1, kind="bernoulli", p=None), "p must be a list, got None"),
    (lambda: DiscreteChannelModel.bernoulli([0.5]), r"p\[0\] must be a list, got 0.5"),
    (lambda: DiscreteChannelModel.factored([[None]]), r"pmfs\[0\]\[0\] must be a list, got None"),
    (lambda: DiscreteChannelModel.explicit_joint(3), "states must be a list, got 3"),
    (lambda: DiscreteChannelModel.explicit_joint([((1,), 1.0)]), r"states\[0\]\[0\]\[0\] must be a list, got 1"),
    (lambda: ContinuousChannelModel(N=1, K=1, links=3), "links must be a list, got 3"),
    (lambda: LinkDistribution("empirical", values=None), "values must be a list, got None"),
    (lambda: mqms_sim.QueueArrivals(kind="bounded_pmf", pmf=None), "pmf must be a list, got None"),
    (lambda: ContinuousChannelModel(N=1, K=1, links=[[3]]), r"links\[0\]\[0\] must be a LinkDistribution, got 3"),
    (lambda: mqms_sim.ArrivalModel(queues=3), "queues must be a list, got 3"),
    (lambda: mqms_sim.ArrivalModel(queues=(1, 2)), r"queues\[0\] must be a QueueArrivals, got 1"),
    (lambda: DiscreteChannelModel.explicit_joint([([[1]], 1.0, 0)]), r"states\[0\] must be a list of 2 entries"),
], ids=["raw-p", "flat-p", "link-pmf", "states", "state-matrix", "links", "empirical-values", "arrival-pmf",
        "link-entry", "arrival-queues", "arrival-queue-entry", "state-pair-length"])
def test_non_list_fields_are_validation_errors(make, message):
    # a JSON null or number where a list belongs raised TypeError from len() or iteration,
    # and a number where a link or queue law belongs raised AttributeError or TypeError on use
    with pytest.raises(ValidationError, match=message):
        make()


def test_random_explicit_refuses_more_states_than_matrices(rng):
    # with 3 states asked of the 2 matrices [[0]] and [[1]], the generator drew forever
    with pytest.raises(ValueError, match="only 2 distinct 1x1 matrices over 0..1, not 3"):
        random_explicit(rng, 1, 1, 1, 3)
    assert len(random_explicit(rng, 1, 1, 1, 2).states) == 2


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



@pytest.mark.parametrize(("descriptor", "field"), [
    ({"N": 1, "K": 1, "kind": "bernoulli", "p": [[None]]}, r"descriptor\.p\[0\]\[0\]"),
    ({"N": 1, "K": 2, "kind": "factored", "pmfs": [[[0.5, 0.5], [None, 1.0]]]}, r"descriptor\.pmfs\[0\]\[1\]\[0\]"),
    ({"kind": "explicit_joint", "states": [{"C": [[1]], "prob": 1.0}, {"C": [[0]], "prob": None}]},
     r"descriptor\.states\[1\]\.prob"),
    ({"kind": "explicit_joint", "M": 1, "states": [{"C": [[1]], "prob": [1.0]}]}, r"descriptor\.states\[0\]\.prob"),
    ({"kind": "continuous", "links": [[{"dist": "exponential", "mean": None}]]}, r"descriptor\.links\[0\]\[0\]\.mean"),
    ({"kind": "continuous", "links": [[{"dist": "uniform", "high": None}]]}, r"descriptor\.links\[0\]\[0\]\.high"),
    ({"kind": "continuous", "links": [[{"dist": "empirical", "values": [1.0, None]}]]},
     r"descriptor\.links\[0\]\[0\]\.values\[1\]"),
    ({"N": 1, "K": 1, "kind": "bernoulli", "p": [[True]]}, r"descriptor\.p\[0\]\[0\]"),
    ({"N": 1, "K": 1, "kind": "bernoulli", "p": [["0.5"]]}, r"descriptor\.p\[0\]\[0\]"),
], ids=["bernoulli-p", "factored-pmf", "explicit-prob", "explicit-prob-list", "exponential-mean", "uniform-high",
        "empirical-value", "bool", "string"])
def test_descriptor_numbers_must_be_numbers(descriptor, field):
    # a null used to escape as a TypeError, which the CLI reports as an internal error
    with pytest.raises(ValidationError, match=field + " must be a number, got"):
        from_descriptor(json.loads(json.dumps(descriptor)))

@pytest.mark.parametrize("make", [
    lambda: LinkDistribution("exponential", mean=NAN),
    lambda: LinkDistribution("exponential", mean=INF),
    lambda: LinkDistribution("uniform", high=NAN),
    lambda: LinkDistribution("uniform", high=INF),
    lambda: LinkDistribution("empirical", values=(NAN, 1.0)),
    lambda: LinkDistribution("empirical", values=(INF, 1.0)),
], ids=["exp-nan", "exp-inf", "uniform-nan", "uniform-inf", "empirical-nan", "empirical-inf"])
def test_continuous_links_reject_non_finite(make):
    # a link checks itself when built, before any model holds it
    with pytest.raises(ValidationError, match="must be finite|finite nonnegative"):
        make()


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
    explicit = DiscreteChannelModel.explicit_joint([([[1]], 0.5), ([[0]], 0.5)])
    with pytest.raises(ValidationError, match="cap exceeded: 2 > 1"):
        enumerate_states(explicit, cap=1)


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


@pytest.mark.parametrize("k", [-1, 2])
def test_column_distribution_rejects_a_server_out_of_range(k):
    model = DiscreteChannelModel.bernoulli([[0.5, 0.5]])
    with pytest.raises(ValidationError, match=f"server index {k} out of range for K=2"):
        per_server_column_distribution(model, k)


def test_factored_columns_reassemble_joint_probabilities(rng):
    for _ in range(5):
        model = random_factored(rng, N=2, K=2, M=2)  # 81 <= 4096 joint states
        col_laws = [dict(per_server_column_distribution(model, k)) for k in range(model.K)]
        for mat, prob in enumerate_states(model):
            product = 1.0
            for k in range(model.K):
                product *= col_laws[k][tuple(int(mat[n, k]) for n in range(model.N))]
            assert abs(product - prob) <= 1e-12


def _literal_product(pmfs):
    """Every combination of positive atoms, the last pmf fastest, probabilities multiplied left to right."""
    law = [((), 1.0)]
    for pmf in pmfs:
        law = [(values + (v,), prob * q) for values, prob in law for v, q in enumerate(pmf) if q > 0.0]
    return law


@pytest.mark.parametrize("model", [
    DiscreteChannelModel.bernoulli([[0.3, 1.0], [0.0, 0.6]]),
    DiscreteChannelModel.bernoulli([[0.25, 0.5, 0.75]]),
    DiscreteChannelModel.factored([[[0.2, 0.0, 0.8], [0.0, 1.0, 0.0]], [[0.5, 0.25, 0.25], [0.1, 0.6, 0.3]]]),
    DiscreteChannelModel.factored([[[0.3, 0.7]], [[1.0, 0.0]], [[0.0, 1.0]], [[0.9, 0.1]]]),
], ids=["bernoulli-point-masses", "bernoulli-1x3", "factored-zero-atoms", "factored-4x1"])
def test_laws_are_the_literal_product_of_link_pmfs(model):
    N, K = model.N, model.K
    if model.kind == "bernoulli":
        pmf = [[(1.0 - q, q) for q in row] for row in model.p]
    else:
        pmf = model.pmfs
    joint = _literal_product([pmf[n][k] for n in range(N) for k in range(K)])  # row-major links
    states = enumerate_states(model)
    assert all(mat.dtype == np.int64 and mat.shape == (N, K) for mat, _ in states)
    assert [(tuple(mat.ravel().tolist()), prob) for mat, prob in states] == joint
    laws = channel_models.column_laws(model)
    for k in range(K):
        column = _literal_product([pmf[n][k] for n in range(N)])
        assert per_server_column_distribution(model, k) == column
        values, probs = laws[k]
        assert (values.dtype, probs.dtype) == (np.int64, np.float64)
        assert list(zip(map(tuple, values.tolist()), probs.tolist())) == column


def test_per_server_law_builds_one_column(rng, monkeypatch):
    model = random_factored(rng, N=4, K=8, M=2)
    laws = channel_models.column_laws(model)
    product_law, calls = channel_models._product_law, []

    def counting(*args):
        calls.append(args)
        return product_law(*args)

    monkeypatch.setattr(channel_models, "_product_law", counting)
    column = per_server_column_distribution(model, 5)
    assert len(calls) == 1
    values, probs = laws[5]
    assert column == list(zip(map(tuple, values.tolist()), probs.tolist()))


def test_bernoulli_model_needs_m_1():
    # with M = 2 its directions are not all 0/1, and build_region took closed-form
    # betas for them: 0.75 in direction (1, 2) here, where the support is 1.25
    with pytest.raises(ValidationError, match="M must be 1"):
        DiscreteChannelModel(N=2, K=1, M=2, kind="bernoulli", p=((0.5,), (0.5,)))


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
    one = sample_states(model, np.random.default_rng(99), 1)[0]
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
    kinds = r"\['bernoulli', 'factored', 'explicit_joint', 'continuous'\]"
    with pytest.raises(ValidationError, match=rf"descriptor\.kind must be one of {kinds}, got 'markov'"):
        from_descriptor({"N": 1, "K": 1, "kind": "markov"})


@pytest.mark.parametrize(("descriptor", "message"), [
    ({"N": 3, "K": 5, "kind": "bernoulli", "p": [[0.5, 0.5], [0.5, 0.5]]},
     "descriptor.N must be 2 to match its arrays, got 3"),
    ({"K": 1, "kind": "factored", "pmfs": [[[0.5, 0.5], [0.5, 0.5]]]},
     "descriptor.K must be 2 to match its arrays, got 1"),
    ({"kind": "explicit_joint", "M": True, "states": [{"C": [[1]], "prob": 1.0}]},
     "descriptor.M must be an integer, got True"),
    ({"N": 1, "K": 1, "kind": "bernoulli"}, "descriptor is missing 'p'"),
    ({"kind": "continuous", "links": [[{"mean": 1.0}]]}, "descriptor.links[0][0] is missing 'dist'"),
    # a fault found while the model or a link is built is named by its path, down to the entry
    ({"kind": "bernoulli", "p": [[0.5, 1.5], [0.2, 0.3]]}, "descriptor.p[0][1] must be in [0, 1], got 1.5"),
    ({"kind": "factored", "pmfs": [[[0.5, 0.5], [0.5, 0.6]]]},
     "descriptor.pmfs[0][1] must be normalised, got a sum of 1.1"),
    ({"kind": "explicit_joint", "states": [{"C": [[1]], "prob": 0.6}, {"C": [[0]], "prob": 0.5}]},
     "descriptor.states must be normalised, got a sum of 1.1"),
    ({"kind": "explicit_joint", "states": [{"C": [[1]], "prob": 0.0}]},
     "descriptor.states must hold a state of positive probability"),
    ({"kind": "continuous", "links": [[{"dist": "exponential", "mean": 1.0}, {"dist": "uniform", "high": -1.0}]]},
     "descriptor.links[0][1].high must be finite and nonnegative, got -1.0"),
], ids=["N", "K", "bool-M", "missing-p", "missing-dist", "p-entry", "pmf-entry", "state-probs", "no-state",
        "link-field"])
def test_descriptor_contract(descriptor, message):
    with pytest.raises(ValidationError) as info:
        from_descriptor(json.loads(json.dumps(descriptor)))
    assert str(info.value) == message


def test_descriptor_shape_keys_are_optional():
    model = from_descriptor({"kind": "bernoulli", "p": [[0.5, 0.25]]})
    assert (model.N, model.K) == (1, 2)


DELETE = object()
MUTATIONS = [DELETE, None, "x", [], {}, -1, 1e308, NAN, True]
MUTATED_DESCRIPTORS = [json.loads(path.read_text())
                       for path in sorted((Path(__file__).resolve().parents[1] / "demos" / "models").glob("*.json"))]
MUTATED_DESCRIPTORS += [
    {"N": 2, "K": 1, "kind": "explicit_joint", "M": 2,
     "states": [{"C": [[2], [1]], "prob": 0.4}, {"C": [[0], [1]], "prob": 0.6}]},
    {"N": 1, "K": 2, "kind": "continuous",
     "links": [[{"dist": "empirical", "values": [1.0, 2.5]}, {"dist": "uniform", "high": 3.0}]]},
    {"queues": [{"kind": "bernoulli_batch", "batch": 2, "prob": 0.25}]},
]


def _paths(node, path=()):
    """Every (path, value) of a JSON document, the root first; a path is its keys from the root."""
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


def _mutant(document, path, mutation):
    holder = [copy.deepcopy(document)]  # so that the root, too, has a parent
    keys = (0, *path)
    parent = holder
    for key in keys[:-1]:
        parent = parent[key]
    if mutation is DELETE:
        del parent[keys[-1]]
    else:
        parent[keys[-1]] = copy.deepcopy(mutation)
    return holder[0]


def _where(root, path):
    return root + "".join(f".{key}" if isinstance(key, str) else f"[{key}]" for key in path)


def _json_type(x):
    return "number" if type(x) in (int, float) else type(x)


def test_every_descriptor_mutation_is_built_or_a_path_naming_validation_error():
    # each mutant of each JSON path builds or raises ValidationError, never another exception;
    # a value of another JSON type, or a deleted required key, raises one naming that path
    start = time.perf_counter()
    outcomes = {"built": 0, "rejected": 0}
    for descriptor in MUTATED_DESCRIPTORS:
        root, read = ("arrivals", mqms_sim.arrivals_from_descriptor) if "queues" in descriptor else \
            ("descriptor", from_descriptor)
        for path, original in _paths(descriptor):
            for mutation in MUTATIONS:
                if mutation is DELETE:
                    if not path:
                        continue
                    optional = not isinstance(path[-1], str) or path[-1] in ("N", "K", "M")
                    expected = None if optional else f"{_where(root, path[:-1])} is missing {path[-1]!r}"
                else:
                    expected = _where(root, path) if _json_type(mutation) != _json_type(original) else None
                try:
                    read(_mutant(descriptor, path, mutation))
                except ValidationError as exc:
                    outcomes["rejected"] += 1
                    assert expected is None or expected in str(exc), (_where(root, path), mutation, str(exc))
                else:
                    outcomes["built"] += 1
                    assert expected is None, (_where(root, path), mutation)
    assert outcomes["rejected"] > 10 * outcomes["built"]
    assert time.perf_counter() - start < 2.0
