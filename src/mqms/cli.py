"""Command-line entry point.

Subcommands: vhat, region, check, simulate, delay-bound, fluid-boundary,
fairness, oracle-check.  Each subcommand only computes its result; ``main``
resolves the configuration (every argument, defaults included, but the
output paths, plus the version), prints it to stderr, stamps its hash and
the tool version into the output and writes it, so any artifact can be
regenerated byte-for-byte.
Exit codes: 0 success, 2 bad input or validation failure, 1 internal error,
3 a solver ran but missed its tolerance (``fairness``; the output is still
written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .alpha_sets import DEFAULT_ENUM_CAP, build_vhat, wn_count
from .capacity_region import (
    BRUTE_FORCE_CAP,
    _verdict,
    brute_force_support,
    build_region,
    membership_margin,
    onoff_support,
)
from .channel_models import (
    ContinuousChannelModel,
    DiscreteChannelModel,
    ValidationError,
    load_model,
    validate_discrete,
)
from .fairness_opt import UtilitySpec, solve_fairness
from .fluid_region import boundary_trace
from .mqms_sim import ArrivalModel, _check_queue_count, arrivals_from_descriptor, delay_bound, run as run_sim


def _round12(obj):
    """Normalize floats to 12 significant digits so output bytes are stable."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _csv(header: list[str], rows, stamp: str) -> str:
    """CSV text under a '# stamp' line; floats at 12 significant digits."""
    lines = [f"# {stamp}", ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{x:.12g}" if isinstance(x, float) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _parse_rates(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x != ""]
    except ValueError:
        raise ValidationError(f"could not parse rate list {text!r}") from None


def _load_arrivals(path: str) -> ArrivalModel:
    with open(path) as fh:
        return arrivals_from_descriptor(json.load(fh))


# -- subcommands -----------------------------------------------------------
# Each takes the parsed arguments and the "config_hash=... version=..." stamp
# for CSV headers, and returns (JSON payload dict or CSV text, exit code).


def _cmd_vhat(args, stamp):
    directions = build_vhat(args.M, args.N, cap=args.cap)
    payload = {"N": args.N, "M": args.M, "vhat": [list(a) for a in directions], "vhat_size": len(directions)}
    if args.N > 1:  # for N = 1 the candidate set W = {1} holds no zero vector
        payload["wn_minus_zero"] = wn_count(args.M, args.N) - 1
    return payload, 0


def _cmd_region(args, stamp):
    region = build_region(load_model(args.model))
    if args.format == "csv":
        header = [f"alpha_{n+1}" for n in range(region.N)] + ["beta"]
        rows = [list(alpha) + [beta] for alpha, beta in region.inequalities]
        return _csv(header, rows, stamp), 0
    return region.to_dict(), 0


def _cmd_check(args, stamp):
    model = load_model(args.model)
    rates = _parse_rates(getattr(args, "lambda"))
    region = build_region(model)
    delta = membership_margin(region, rates)
    return {"lambda": rates, "delta": delta, "verdict": _verdict(delta)}, 0


def _verdict_to_stability(verdict: str) -> str:
    return {"interior": "stable", "boundary": "boundary", "outside": "unstable"}[verdict]


def _cmd_simulate(args, stamp):
    model = load_model(args.model)
    arrivals = _load_arrivals(args.arrivals)
    region = build_region(model)  # before the run, so a model without a region fails fast
    result = run_sim(
        model, arrivals, policy=args.policy, T=args.slots, seed=args.seed,
        replications=args.reps, tie_rule=args.tie_rule, record_trace=args.trace is not None,
    )
    agg = result.aggregate()
    delta = membership_margin(region, arrivals.mean_rates())
    payload = {
        "avg_aggregate_occupancy": agg["avg_aggregate_occupancy"],
        "per_queue_avgs": agg["per_queue_avgs"],
        "throughput": agg["throughput"],
        "delta": delta,
        "verdict": _verdict_to_stability(_verdict(delta)),
        "replications": [
            {
                "replication": s.replication,
                "avg_aggregate_occupancy": s.avg_aggregate_occupancy,
                "per_queue_avgs": list(s.per_queue_avg),
                "throughput": list(s.throughput),
                "final_queue": list(s.final_queue),
            }
            for s in result.replications
        ],
    }
    if delta > 0:
        payload["bound"] = delay_bound(model.N, arrivals.a_max_sq, model.M, model.K, delta)
    if args.trace:
        N = model.N
        header = (
            ["t"] + [f"X_{n+1}" for n in range(N)]
            + [f"served_{n+1}" for n in range(N)]
            + [f"arrived_{n+1}" for n in range(N)]
        )
        rows = [[int(x) for x in row] for row in result.trace]
        _write(_csv(header, rows, stamp), args.trace)
    return payload, 0


def _cmd_delay_bound(args, stamp):
    model = load_model(args.model)
    validate_discrete(model)
    arrivals = _load_arrivals(args.arrivals)
    _check_queue_count(model, arrivals)
    if args.delta is not None:
        delta = args.delta
    else:
        region = build_region(model)
        delta = membership_margin(region, arrivals.mean_rates())
    bound = delay_bound(model.N, arrivals.a_max_sq, model.M, model.K, delta)
    payload = {
        "N": model.N, "M": model.M, "K": model.K,
        "a_max_sq": arrivals.a_max_sq, "delta": delta, "bound": bound,
    }
    return payload, 0


def _cmd_fluid_boundary(args, stamp):
    model = load_model(args.model)
    if not isinstance(model, ContinuousChannelModel):
        raise ValidationError("fluid-boundary requires a continuous model")
    curve = boundary_trace(model, directions=args.directions)
    rows = [
        [float(l1), float(l2), float(se)]
        for l1, l2, se in zip(curve.lambda1, curve.lambda2, curve.stderr)
    ]
    return _csv(["lambda1", "lambda2", "stderr"], rows, stamp), 0


class _UtilityOption(argparse.Action):
    """Stores an option that one utility reads, and notes in ``given`` that it was given."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = (*getattr(namespace, "given", ()), self.option_strings[0])


def _cmd_fairness(args, stamp):
    own = {"linear": "--weights", "log": "--epsilon", "alpha_fair": "--fairness-alpha"}[args.utility]
    for option in getattr(args, "given", ()):
        if option != own:
            raise ValidationError(f"{option} does not apply to the {args.utility} utility")
    model = load_model(args.model)
    caps = _parse_rates(args.caps) if args.caps else None
    if args.utility == "linear":
        weights = _parse_rates(args.weights) if args.weights else [1.0] * model.N
        spec = UtilitySpec.weighted_linear(weights, caps=caps)
    elif args.utility == "log":
        spec = UtilitySpec.log_shifted(model.N, epsilon=args.epsilon, caps=caps)
    else:  # alpha_fair; argparse's choices admit no other utility
        spec = UtilitySpec.alpha_fair(model.N, args.fairness_alpha, caps=caps)
    region = build_region(model)  # before the solve, so a model without a region fails fast
    sol = solve_fairness(model, spec, tol=args.tol, max_iters=args.max_iters)
    payload = {
        "r_star": sol.r_star.tolist(),
        "objective": sol.objective,
        "gap": sol.gap,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "binding_constraints": [list(a) for a in region.binding(sol.r_star)],
    }
    return payload, 0 if sol.converged else 3


def oracle_check(model: DiscreteChannelModel, state_cap: int = BRUTE_FORCE_CAP) -> dict:
    """Cross-check the support function against its independent oracles.

    Compares the fast path with the literal all-allocations enumeration on
    every canonical direction, and for ON-OFF models, whose directions
    (M = 1) are the indicators of the nonempty queue sets, also with the
    subset closed form.  The fast values are the betas of ``build_region``.
    Returns the largest deviations.
    """
    inequalities = build_region(model).inequalities
    deviations, onoff_dev = [], 0.0
    for alpha, fast in inequalities:
        slow = brute_force_support(model, alpha, state_cap=state_cap)
        deviations.append(abs(fast - slow))
        if model.kind == "bernoulli":
            Q = [n for n, a in enumerate(alpha) if a]
            onoff_dev = max(onoff_dev, abs(fast - onoff_support(model.p, Q)))
    report = {
        "directions_checked": len(inequalities),
        "max_abs_deviation": max(deviations),
        "ok": max(deviations) <= 1e-9,
    }
    if model.kind == "bernoulli":
        report["onoff_max_deviation"] = onoff_dev
        report["ok"] = report["ok"] and onoff_dev <= 1e-9
    return report


def _cmd_oracle_check(args, stamp):
    report = oracle_check(load_model(args.model), state_cap=args.state_cap)
    n = report["directions_checked"]
    status = "==" if report["ok"] else "!="
    print(f"support_function {status} brute_force on {n}/{n} directions")
    return report, 0 if report["ok"] else 1


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqms",
        description="Stability regions, max-weight simulation, fluid boundaries, "
                    "and fair rate allocation for multi-queue multi-server systems.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("vhat", help="enumerate the canonical inequality directions")
    p.add_argument("--N", type=int, required=True, help="number of queues")
    p.add_argument("--M", type=int, required=True, help="maximum link capacity")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP, help="enumeration size cap")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_vhat)

    p = sub.add_parser("region", help="compute the stability-region inequalities")
    p.add_argument("--model", required=True, help="model descriptor JSON")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("check", help="membership margin and verdict for a rate point")
    p.add_argument("--model", required=True)
    p.add_argument("--lambda", required=True, help="comma-separated rates")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("simulate", help="slot-by-slot scheduling simulation")
    p.add_argument("--model", required=True)
    p.add_argument("--arrivals", required=True, help="arrival descriptor JSON")
    p.add_argument("--policy", choices=["mw", "as_lcq"], default="mw")
    p.add_argument("--slots", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--tie-rule", choices=["lowest_index", "highest_index"], default="lowest_index")
    p.add_argument("--trace", help="write replication 0's trace CSV here")
    p.add_argument("--out", help="summary JSON path (default stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("delay-bound", help="occupancy bound for an interior rate vector")
    p.add_argument("--model", required=True)
    p.add_argument("--arrivals", required=True)
    p.add_argument("--delta", type=float, default=None, help="override the computed margin")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_delay_bound)

    p = sub.add_parser("fluid-boundary", help="trace the two-queue fluid stability boundary")
    p.add_argument("--model", required=True)
    p.add_argument("--directions", type=int, default=181)
    p.add_argument("--out", help="curve CSV path (default stdout)")
    p.set_defaults(func=_cmd_fluid_boundary)

    p = sub.add_parser("fairness", help="utility-fair rate allocation over the region")
    p.add_argument("--model", required=True)
    p.add_argument("--utility", choices=["log", "linear", "alpha_fair"], default="log")
    p.add_argument("--caps", help="comma-separated per-queue caps")
    p.add_argument("--weights", action=_UtilityOption, help="comma-separated weights (linear utility)")
    p.add_argument("--epsilon", action=_UtilityOption, type=float, default=1e-6, help="log utility")
    p.add_argument("--fairness-alpha", action=_UtilityOption, type=float, default=2.0, help="alpha_fair utility")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=10_000)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_fairness)

    p = sub.add_parser("oracle-check", help="cross-check support values against brute force")
    p.add_argument("--model", required=True)
    p.add_argument("--state-cap", type=int, default=BRUTE_FORCE_CAP)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # the resolved config is every argument but the output paths, plus the version
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "out", "trace", "given")}
    cfg["version"] = __version__
    text = json.dumps(cfg, sort_keys=True)
    print(f"config: {text}", file=sys.stderr)
    config_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    try:
        for path in (args.out, vars(args).get("trace")):
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ValidationError(f"no directory to write {path!r} in")
        output, code = args.func(args, f"config_hash={config_hash} version={__version__}")
        if isinstance(output, dict):
            output = _round12({**output, "config_hash": config_hash, "version": __version__})
            output = json.dumps(output, indent=2, allow_nan=False) + "\n"
        _write(output, args.out)
        return code
    except (ValidationError, ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
