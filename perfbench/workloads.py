"""The benchmark's five workloads: seeded inputs, timed passes and checks.

Each workload class builds its inputs from the seed in ``__init__`` (the
set-up that ``setup_s`` times), runs one pass of its timed library calls
in ``run_pass``, and checks a list of pass outputs in ``checks`` against
oracles that do not share the code path being timed.  Library calls go
through attributes of the ``mqms`` package looked up at call time, so the
wrappers that the traced run installs see them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

import mqms


@dataclass
class PassResult:
    """Outputs of one pass plus the counted work and the time spent on it."""

    outputs: dict
    calls: int      # library calls made in the pass
    work: float     # units of work, counted from the returned values
    work_s: float   # time of the calls that did that work
    extra: dict = field(default_factory=dict)


def factored_model(rng, N, K, M):
    """Independent-link model; every atom keeps mass >= 0.05/(M+1.05), so each
    link has the full support {0..M} and the work per direction does not
    depend on the seed."""
    w = rng.random((N, K, M + 1)) + 0.05
    return mqms.DiscreteChannelModel.factored((w / w.sum(axis=-1, keepdims=True)).tolist())


def _close(a, b, rel, abs_=0.0):
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def _same_across_passes(values):
    first = values[0]
    return all(v == first for v in values[1:])


class Region:
    """build_region on a factored N=K=3, M=4 model, then membership margins.

    N=K=4, M=3 (1,881 directions) takes over 4 s per call, too long to time
    many calls per run on a drifting host; (N, M) = (3, 4) is the largest
    cell of the paper's direction table."""

    name = "region"
    work_unit = "directions"
    N, K, M = 3, 3, 4
    EXPECTED_DIRECTIONS = 253  # |V-hat| for (N, M) = (3, 4) in the paper's table
    RATE_POINTS = 50
    VERTEX_SAMPLES = 20

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.model = factored_model(rng, self.N, self.K, self.M)
        mqms.validate(self.model)
        scale = mqms.link_means(self.model).sum(axis=1) / self.N
        self.rates = rng.uniform(0.2, 1.2, (self.RATE_POINTS, self.N)) * scale
        self.seed = seed

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        region = mqms.build_region(self.model)
        work_s = time.perf_counter() - t0
        margins = [mqms.membership_margin(region, lam) for lam in self.rates]
        return PassResult(
            outputs={"region": region, "margins": margins},
            calls=1 + len(self.rates),
            work=len(region.inequalities),
            work_s=work_s,
        )

    def checks(self, outs: list[dict]) -> list[tuple[str, bool, str]]:
        region = outs[0]["region"]
        ineqs = region.inequalities
        alphas = np.array([a for a, _ in ineqs], dtype=float)
        betas = np.array([b for _, b in ineqs])
        res = [(f"direction count is {self.EXPECTED_DIRECTIONS}",
                len(ineqs) == self.EXPECTED_DIRECTIONS, f"got {len(ineqs)}")]

        row_sums = mqms.link_means(self.model).sum(axis=1)
        by_alpha = dict(ineqs)
        unit_ok, worst = True, 0.0
        for n in range(self.N):
            beta = by_alpha.get(tuple(int(i == n) for i in range(self.N)))
            if beta is None:
                unit_ok = False
                continue
            worst = max(worst, abs(beta - row_sums[n]))
            unit_ok &= _close(beta, row_sums[n], 1e-12, 1e-12)
        res.append(("unit-direction betas equal link-mean row sums", unit_ok, f"max diff {worst:.2e}"))

        rng = np.random.default_rng([self.seed, 1])
        picks = rng.choice(len(ineqs), size=self.VERTEX_SAMPLES, replace=False)
        vert_ok, worst = True, 0.0
        for i in picks:
            alpha, beta = ineqs[i]
            value = float(np.dot(alpha, mqms.support_vertex(self.model, alpha)))
            worst = max(worst, abs(value - beta))
            vert_ok &= _close(value, beta, 1e-9, 1e-12)
        res.append(("alpha . support_vertex(alpha) equals beta", vert_ok, f"max diff {worst:.2e}"))

        # independent vectorised margin: min over rows of (beta - A lam) / sum(A)
        expect = ((betas[None, :] - self.rates @ alphas.T) / alphas.sum(axis=1)).min(axis=1)
        got = np.array(outs[0]["margins"])
        diff = float(np.abs(got - expect).max())
        res.append(("membership margins match a vectorised recomputation", diff <= 1e-12, f"max diff {diff:.2e}"))

        res.append(("region and margins identical across passes",
                    _same_across_passes([(o["region"].inequalities, o["margins"]) for o in outs]), ""))
        return res


class Fairness:
    """solve_fairness, log utility, line search, tol 1e-6, max_iters 1000, on N=K=3, M=3."""

    name = "fairness"
    work_unit = "FW iterations"
    N, K, M = 3, 3, 3
    TOL = 1e-6
    # The default cap of 10,000 iterations makes one call take 8.5 s or
    # more, too long to time many calls per run on a drifting host.  The
    # instance below still ends at the cap, not converged, at 1,000.
    MAX_ITERS = 1000
    # About half of uniformly drawn N=K=3, M=3 factored models put the
    # optimum inside a face, where vanilla Frank-Wolfe zig-zags until
    # max_iters; the rest converge within a few hundred iterations.  Drawing
    # a fresh model per seed would make the cost bimodal across seeds, so
    # every seed perturbs one fixed base instance by up to +-10% per pmf
    # entry.  The base (generator seed 28) is the zig-zagging instance whose
    # gap stays furthest above tol: at least 2.2e-5 from iteration 100 to
    # the default max_iters.  With a base whose gap fell to 4.6e-6, the gap
    # of some perturbed models dipped below tol after thousands of iterations.
    BASE_SEED = 28
    JITTER = 0.1

    def __init__(self, seed: int):
        base = factored_model(np.random.default_rng(self.BASE_SEED), self.N, self.K, self.M)
        rng = np.random.default_rng(seed)
        w = np.array(base.pmfs) * np.exp(self.JITTER * rng.uniform(-1.0, 1.0, (self.N, self.K, self.M + 1)))
        self.model = mqms.DiscreteChannelModel.factored((w / w.sum(axis=-1, keepdims=True)).tolist())
        mqms.validate(self.model)
        self.utility = mqms.UtilitySpec.log_shifted(self.N)

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        sol = mqms.solve_fairness(self.model, self.utility, tol=self.TOL, step_rule="line_search",
                                  max_iters=self.MAX_ITERS)
        work_s = time.perf_counter() - t0
        return PassResult(
            outputs={"solution": sol},
            calls=1,
            work=sol.iterations,
            work_s=work_s,
            extra={"fw_iterations": sol.iterations, "fw_final_gap": sol.gap,
                   "converged": sol.gap <= self.TOL},
        )

    def checks(self, outs: list[dict]) -> list[tuple[str, bool, str]]:
        sol = outs[0]["solution"]
        region = mqms.build_region(self.model)
        margin = mqms.membership_margin(region, sol.r_star)
        return [
            ("r_star is feasible (margin >= -1e-7)", margin >= -1e-7, f"margin {margin:.3e}"),
            ("FW gap is nonnegative", sol.gap >= -1e-12, f"gap {sol.gap:.3e}"),
            ("solution identical across passes",
             _same_across_passes([(o["solution"].r_star.tolist(), o["solution"].gap,
                                   o["solution"].iterations) for o in outs]), ""),
        ]


def _conservation(stats) -> bool:
    return all(
        tuple(a - d for a, d in zip(s.total_arrivals, s.total_departures)) == s.final_queue
        for s in stats
    )


class SimReps:
    """run with mw and as_lcq, 2x2 ON-OFF p=0.5, Bernoulli 0.65, 20 x 10k."""

    name = "sim_reps"
    work_unit = "replication-slots"
    T, REPS = 10_000, 20
    RATE = 0.65

    def __init__(self, seed: int):
        self.seed = seed
        self.model = mqms.DiscreteChannelModel.bernoulli([[0.5, 0.5], [0.5, 0.5]])
        self.arrivals = mqms.ArrivalModel.bernoulli_batch([1, 1], [self.RATE, self.RATE])
        mqms.validate(self.model)

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        out = {
            policy: mqms.run(self.model, self.arrivals, policy=policy, T=self.T,
                             seed=self.seed, replications=self.REPS)
            for policy in ("mw", "as_lcq")
        }
        work_s = time.perf_counter() - t0
        work = sum(s.horizon for res in out.values() for s in res.replications)
        return PassResult(outputs=out, calls=2, work=work, work_s=work_s)

    def checks(self, outs: list[dict]) -> list[tuple[str, bool, str]]:
        delta = mqms.membership_margin(mqms.build_region(self.model), [self.RATE, self.RATE])
        bound = mqms.delay_bound(2, self.arrivals.a_max_sq, self.model.M, self.model.K, delta)
        first = outs[0]
        worst = max(s.avg_aggregate_occupancy for res in first.values() for s in res.replications)
        return [
            ("packet conservation per replication",
             all(_conservation(res.replications) for res in first.values()), ""),
            ("occupancy <= delay_bound", worst <= bound, f"worst {worst:.2f} vs bound {bound:.1f}"),
            # on 0/1 channels LCQ serves exactly what max-weight serves
            ("mw and as_lcq stats identical on ON-OFF channels",
             first["mw"].replications == first["as_lcq"].replications, ""),
            ("stats identical across passes",
             _same_across_passes([{p: r.replications for p, r in o.items()} for o in outs]), ""),
        ]


class SimWide:
    """run(policy="mw") on a factored 8x8, M=2 model, one replication of 25k."""

    name = "sim_wide"
    work_unit = "replication-slots"
    N, K, M = 8, 8, 2
    T = 25_000
    LOAD = 0.8  # lambda_n = 0.8 E[C[n,n]]: interior through the diagonal allocation

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.model = factored_model(rng, self.N, self.K, self.M)
        mqms.validate(self.model)
        self.diag = np.diag(mqms.link_means(self.model))
        lam = self.LOAD * self.diag
        self.arrivals = mqms.ArrivalModel.bernoulli_batch([self.M] * self.N, (lam / self.M).tolist())

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        res = mqms.run(self.model, self.arrivals, policy="mw", T=self.T, seed=self.seed, replications=1)
        work_s = time.perf_counter() - t0
        return PassResult(outputs={"run": res}, calls=1,
                          work=sum(s.horizon for s in res.replications), work_s=work_s)

    def checks(self, outs: list[dict]) -> list[tuple[str, bool, str]]:
        # Serving queue n with server n alone sustains E[C[n,n]], so the
        # margin of lambda is at least min_n (E[C[n,n]] - lambda_n).
        delta = float((self.diag - self.arrivals.mean_rates()).min())
        bound = mqms.delay_bound(self.N, self.arrivals.a_max_sq, self.M, self.K, delta)
        reps = outs[0]["run"].replications
        worst = max(s.avg_aggregate_occupancy for s in reps)
        return [
            ("packet conservation per replication", _conservation(reps), ""),
            ("occupancy <= delay_bound of the diagonal margin", worst <= bound,
             f"worst {worst:.2f} vs bound {bound:.1f}"),
            ("stats identical across passes",
             _same_across_passes([o["run"].replications for o in outs]), ""),
        ]


def _cdf(link, y):
    if link.kind == "exponential":
        return 1.0 - np.exp(-y / link.mean)
    if link.kind == "uniform":
        return np.clip(y / link.high, 0.0, 1.0)
    vals = np.sort(np.asarray(link.values, dtype=float))
    return np.searchsorted(vals, y, side="right") / len(vals)


def exact_support_moments(model, alpha, grid: int = 200_001) -> tuple[float, float]:
    """Mean and variance of S = sum_k M_k, M_k = max_n alpha_n C[n,k], by the
    trapezoid rule; independent of the Monte Carlo path.  With independent
    links, E[M_k] = int_0^inf P(M_k > x) dx, E[M_k^2] = int_0^inf 2x P(M_k > x) dx,
    and the M_k of different servers are independent."""
    mean = var = 0.0
    for k in range(model.K):
        links = [model.links[n][k] for n in range(model.N)]
        top = max(
            a * (40.0 * d.mean if d.kind == "exponential" else d.high if d.kind == "uniform" else max(d.values))
            for a, d in zip(alpha, links)
        )
        x = np.linspace(0.0, top, grid)
        tail = np.ones_like(x)
        for a, d in zip(alpha, links):
            tail *= _cdf(d, x / a)
        y = 1.0 - tail
        m1 = float((y[:-1] + y[1:]).sum() * (x[1] - x[0]) / 2.0)
        y2 = 2.0 * x * y
        m2 = float((y2[:-1] + y2[1:]).sum() * (x[1] - x[0]) / 2.0)
        mean += m1
        var += m2 - m1 * m1
    return mean, var


class Fluid:
    """boundary_trace on the two-queue exponential model and a mixed 2x2 model."""

    name = "fluid"
    work_unit = "direction-samples"
    DIRECTIONS, SAMPLES = 181, 20_000
    EXP_PROBES = (0.0, 0.5, 1.0, 1.5)

    def __init__(self, seed: int):
        self.seed = seed
        LD = mqms.LinkDistribution
        self.exp_model = mqms.ContinuousChannelModel.of(
            [[LD("exponential", mean=2.0)], [LD("exponential", mean=1.0)]]
        )
        rng = np.random.default_rng(seed)
        table = tuple(float(v) for v in np.round(rng.uniform(0.0, 3.0, 6), 2))
        self.mixed_model = mqms.ContinuousChannelModel.of([
            [LD("exponential", mean=float(rng.uniform(0.8, 1.6))), LD("uniform", high=float(rng.uniform(1.5, 3.0)))],
            [LD("empirical", values=table), LD("exponential", mean=float(rng.uniform(0.5, 1.2)))],
        ])
        mqms.validate(self.exp_model)
        mqms.validate(self.mixed_model)

    def run_pass(self) -> PassResult:
        t0 = time.perf_counter()
        exp_curve = mqms.boundary_trace(self.exp_model, directions=self.DIRECTIONS, samples=self.SAMPLES,
                                        seed=self.seed, lambda1_values=list(self.EXP_PROBES))
        mixed_curve = mqms.boundary_trace(self.mixed_model, directions=self.DIRECTIONS,
                                          samples=self.SAMPLES, seed=self.seed)
        work_s = time.perf_counter() - t0
        work = sum(c.directions * c.samples for c in (exp_curve, mixed_curve))
        return PassResult(outputs={"exp": exp_curve, "mixed": mixed_curve}, calls=2, work=work, work_s=work_s)

    def _exact_envelope(self, lam1):
        """The envelope from exact supports on the traced directions, and the
        Monte Carlo standard error of the half-plane that binds it."""
        D = self.DIRECTIONS
        thetas = np.arange(1, D + 1) * (math.pi / 2.0) / (D + 1)
        moments = np.array([exact_support_moments(self.mixed_model, (math.cos(t), math.sin(t)))
                            for t in thetas])
        h, sd = moments[:, 0], np.sqrt(moments[:, 1])
        box2 = float(self.mixed_model.link_means()[1].sum())
        cand = (h[None, :] - lam1[:, None] * np.cos(thetas)[None, :]) / np.sin(thetas)[None, :]
        active = cand.argmin(axis=1)
        envelope = np.maximum(np.minimum(cand[np.arange(len(lam1)), active], box2), 0.0)
        return envelope, sd[active] / math.sqrt(self.SAMPLES) / np.sin(thetas[active])

    def checks(self, outs: list[dict]) -> list[tuple[str, bool, str]]:
        exp_curve, mixed = outs[0]["exp"], outs[0]["mixed"]
        truth = np.array([mqms.exp_2q_boundary(2.0, 1.0, float(l1)) for l1 in exp_curve.lambda1])
        # 1% as in acceptance criterion 5, or 4 Monte Carlo standard errors
        # where the sampling error of 20k samples exceeds 1% on some seeds
        exp_err = np.abs(exp_curve.lambda2 - truth)
        exp_ok = bool((exp_err <= np.maximum(0.01 * truth, 4.0 * exp_curve.stderr)).all())
        exact, exact_se = self._exact_envelope(mixed.lambda1)
        err = mixed.lambda2 - exact
        # A min over half-planes overshoots the exact one by at most the error
        # of the exactly binding half-plane, and undershoots it by at most the
        # error of the estimated binding one, whose standard error the curve
        # reports (0 where the box binds, where it cannot undershoot).  The
        # two differ at the ends, where 1/sin t amplifies the error of one.
        # Five standard errors each, plus 1e-3 for the trapezoid rule on the
        # step-shaped empirical CDF.
        excess = float(np.maximum(err - (5.0 * exact_se + 1e-3),
                                  -err - (5.0 * mixed.stderr + 1e-3)).max())
        return [
            ("exponential boundary within max(1%, 4 s.e.) of exp_2q_boundary", exp_ok,
             f"max rel {float((exp_err / truth).max()):.3%}"),
            ("mixed-law boundary within 5 s.e. of the quadrature envelope", excess <= 0.0,
             f"max err {float(np.abs(err).max()):.2e}, excess over tolerance {excess:.2e}"),
            ("curves identical across passes",
             _same_across_passes([tuple(c.lambda2.tolist() for c in o.values()) for o in outs]), ""),
        ]


WORKLOADS = {w.name: w for w in (Region, Fairness, SimReps, SimWide, Fluid)}
