"""Acceptance gate: every shipped guarantee exercised at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion together with its runtime.
"""

import contextlib
import itertools
import time

import numpy as np

from mqms import (
    ArrivalModel,
    ContinuousChannelModel,
    DiscreteChannelModel,
    LinkDistribution,
    boundary_trace,
    brute_force_support,
    build_region,
    build_vhat,
    build_w,
    canonicalize,
    delay_bound,
    exp_2q_boundary,
    in_v,
    membership_margin,
    mw_allocate,
    onoff_support,
    run,
    solve_fairness,
    support_function,
    support_vertex,
    UtilitySpec,
    wn_count,
)
from conftest import random_bernoulli, random_discrete


@contextlib.contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} [{name}]: FAIL ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE {num} [{name}]: PASS ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds budget {budget_s}s"


REFERENCE_TABLE = {
    # (N, M): (direction-set size, |W^N| - 1)
    (2, 1): (3, 3),
    (2, 2): (5, 8),
    (2, 3): (9, 15),
    (2, 4): (13, 24),  # all 13 needed: test_alpha_sets.py::test_n2_m4_every_direction_is_needed
    (3, 1): (7, 7),
    (3, 2): (25, 63),
    (3, 3): (109, 342),
    (3, 4): (253, 1330),
}
BINDING_CELLS = {(2, 1), (2, 2), (2, 3), (2, 4), (3, 1)}


def test_criterion_1_direction_table():
    with criterion(1, "direction-set table reproduction", 10.0):
        for (N, M), (ref_vhat, ref_wn) in sorted(REFERENCE_TABLE.items()):
            enum = len(build_vhat(M, N))
            assert wn_count(M, N) - 1 == ref_wn, f"candidate-space count off at {(N, M)}"
            tag = "MATCH" if enum == ref_vhat else "MISMATCH"
            print(f"  cell (N={N}, M={M}): enumerated {enum}, reference {ref_vhat} -> {tag}")
            kind = "hand-verified cell" if (N, M) in BINDING_CELLS else "cell"
            assert enum == ref_vhat, f"{kind} {(N, M)} diverged from the reference value"


def test_criterion_2_onoff_closed_form():
    with criterion(2, "ON-OFF closed form", 5.0):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            N, K = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            model = random_bernoulli(rng, N, K)
            p = np.array(model.p)
            for mask in range(1, 2**N):
                Q = [n for n in range(N) if (mask >> n) & 1]
                alpha = [1.0 if n in Q else 0.0 for n in range(N)]
                fast = support_function(model, alpha)
                closed = onoff_support(p, Q)
                assert abs(fast - closed) <= 1e-12, (N, K, Q, fast, closed)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "brute-force oracle equivalence", 30.0):
        rng = np.random.default_rng(777)
        for _ in range(20):
            model = random_discrete(rng, max_n=3, max_k=3, max_m=2)
            for alpha in build_vhat(model.M, model.N):
                fast = support_function(model, alpha)
                slow = brute_force_support(model, alpha)
                assert abs(fast - slow) <= 1e-9, (model.kind, model.N, model.K, alpha)


def test_criterion_4_occupancy_bound_and_instability():
    with criterion(4, "occupancy bound under max-weight", 60.0):
        model = DiscreteChannelModel.bernoulli([[0.5, 0.5], [0.5, 0.5]])
        region = build_region(model)
        T, reps = 100_000, 20

        lam = [0.65, 0.65]
        delta = membership_margin(region, lam)
        assert delta >= 0.05
        arrivals = ArrivalModel.bernoulli_batch([1, 1], lam)
        bound = delay_bound(2, arrivals.a_max_sq, model.M, model.K, delta)
        res = run(model, arrivals, policy="mw", T=T, seed=1234, replications=reps)
        worst = max(s.avg_aggregate_occupancy for s in res.replications)
        print(f"  interior: delta={delta:.4f}, bound={bound:.1f}, worst avg occupancy={worst:.2f}")
        for s in res.replications:
            assert s.avg_aggregate_occupancy <= bound

        lam_hot = [0.85, 0.85]
        delta_hot = membership_margin(region, lam_hot)
        assert delta_hot <= -0.05
        threshold = 0.5 * abs(delta_hot) * T * 0.5
        arrivals_hot = ArrivalModel.bernoulli_batch([1, 1], lam_hot)
        res_hot = run(model, arrivals_hot, policy="mw", T=T, seed=4321, replications=reps)
        smallest = min(sum(s.final_queue) for s in res_hot.replications)
        print(f"  overload: delta={delta_hot:.4f}, threshold={threshold:.0f}, smallest final={smallest}")
        for s in res_hot.replications:
            assert sum(s.final_queue) > threshold


def test_criterion_5_fluid_boundary():
    with criterion(5, "fluid boundary vs closed form", 60.0):
        model = ContinuousChannelModel.of(
            [[LinkDistribution("exponential", mean=2.0)], [LinkDistribution("exponential", mean=1.0)]]
        )
        probes = [0.0, 0.5, 1.0, 1.5]
        curve = boundary_trace(
            model, directions=181, samples=100_000, seed=7,
            lambda1_values=probes + [2.0],
        )
        for l1, l2, se in zip(curve.lambda1[:4], curve.lambda2[:4], curve.stderr[:4]):
            truth = exp_2q_boundary(2.0, 1.0, float(l1))
            rel = abs(l2 - truth) / truth
            print(f"  lambda1={l1}: traced={l2:.6f} closed-form={truth:.6f} rel={rel:.3%}")
            assert rel <= 0.01
        # endpoints (0, 1) and (2, 0) within Monte Carlo resolution
        assert abs(curve.lambda2[0] - 1.0) <= 3 * curve.stderr[0] + 1e-12
        assert curve.lambda2[4] <= 3 * curve.stderr[4] + 1e-12


def test_criterion_6_property_suite():
    with criterion(6, "support, direction, allocation and conservation properties", 120.0):
        rng = np.random.default_rng(5150)

        # support-function shape properties
        for _ in range(5):
            model = random_discrete(rng)
            a = rng.random(model.N) + 0.05
            b = rng.random(model.N) + 0.05
            h = support_function(model, a)
            for q in (0.5, 2.0, 10.0):
                assert abs(support_function(model, q * a) - q * h) <= 1e-9 * max(1.0, q * h)
            assert support_function(model, a + b) <= (
                support_function(model, a) + support_function(model, b) + 1e-9
            )
            assert support_function(model, a) <= support_function(model, a + b) + 1e-12

        # direction-set scaling-freeness and completeness
        for M in (1, 2, 3):
            for N in (2, 3):
                vhat = build_vhat(M, N)
                vset = set(vhat)
                for u, v in itertools.combinations(vhat, 2):
                    assert not all(
                        u[i] * v[j] == u[j] * v[i] for i in range(N) for j in range(N)
                    ), f"{u} and {v} are scalar multiples"
                for cand in itertools.product(build_w(M, N), repeat=N):
                    if not any(cand) or not in_v(cand, M):
                        continue
                    assert canonicalize(cand) in vset

        # max-weight allocation equals the exhaustive search
        for _ in range(60):
            N, K = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            M = int(rng.integers(1, 3))
            X = rng.integers(0, 9, N)
            C = rng.integers(0, M + 1, (N, K))
            I = mw_allocate(X, C)
            value = int((X[:, None] * C * I).sum())
            best = max(
                sum(int(X[pick[k]] * C[pick[k], k]) for k in range(K))
                for pick in itertools.product(range(N), repeat=K)
            )
            assert value == best

        # nonnegativity and packet conservation along simulated paths
        model = DiscreteChannelModel.bernoulli([[0.6, 0.4], [0.3, 0.8]])
        arrivals = ArrivalModel.bernoulli_batch([1, 1], [0.5, 0.5])
        for policy in ("mw", "as_lcq"):
            res = run(model, arrivals, policy=policy, T=5000, seed=31, record_trace=True)
            X = res.trace[:, 1:3]
            served = res.trace[:, 3:5]
            arrived = res.trace[:, 5:7]
            assert (X >= 0).all()
            assert (X == np.cumsum(arrived, axis=0) - np.cumsum(served, axis=0)).all()


def test_criterion_7_fairness():
    with criterion(7, "fairness solver", 10.0):
        model = DiscreteChannelModel.bernoulli([[0.5], [0.5]])

        # symmetric log utility splits the shared-capacity facet evenly
        sol = solve_fairness(
            model, UtilitySpec.log_shifted(2, epsilon=1e-6),
            tol=1e-6, max_iters=10_000, step_rule="line_search",
        )
        assert sol.iterations <= 10_000
        assert sol.gap <= 1e-6
        assert np.allclose(sol.r_star, [0.375, 0.375], atol=1e-3)
        print(f"  log utility: r*={sol.r_star.round(6).tolist()}, gap={sol.gap:.2e}, iters={sol.iterations}")

        # independent oracle: dense grid search over the region
        eps = 1e-6
        g = np.arange(0.0, 0.751, 1e-3)
        r1, r2 = np.meshgrid(g, g, indexing="ij")
        feasible = (r1 <= 0.5) & (r2 <= 0.5) & (r1 + r2 <= 0.75)
        objective = np.where(feasible, np.log(r1 + eps) + np.log(r2 + eps), -np.inf)
        best = np.unravel_index(np.argmax(objective), objective.shape)
        grid_opt = (g[best[0]], g[best[1]])
        assert np.allclose(grid_opt, [0.375, 0.375], atol=1e-3)
        assert np.allclose(sol.r_star, grid_opt, atol=1e-3)

        # linear utilities match vertex enumeration exactly
        pool = [
            support_vertex(model, alpha, tie_rule=rule)
            for alpha in build_vhat(model.M, model.N)
            for rule in ("lowest_index", "highest_index")
        ]
        rng = np.random.default_rng(99)
        weight_sets = [[1.0, 0.0]] + [rng.random(2).tolist() for _ in range(5)]
        for w in weight_sets:
            lin = solve_fairness(model, UtilitySpec.weighted_linear(w), tol=1e-9)
            best_vertex = max(float(np.dot(w, v)) for v in pool)
            assert abs(lin.objective - best_vertex) <= 1e-6
        assert abs(
            solve_fairness(model, UtilitySpec.weighted_linear([1.0, 0.0]), tol=1e-9).objective - 0.5
        ) <= 1e-9
