import hashlib
import json
import math
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from mqms import DiscreteChannelModel, __version__, to_descriptor
from mqms import capacity_region, cli
from mqms.cli import main, oracle_check
from conftest import random_factored

DEMO_MODELS = Path(__file__).resolve().parents[1] / "demos" / "models"


@pytest.fixture
def bern_model_path(tmp_path):
    path = tmp_path / "bern_2x1_p05.json"
    path.write_text(json.dumps({"N": 2, "K": 1, "kind": "bernoulli", "p": [[0.5], [0.5]]}))
    return str(path)


@pytest.fixture
def exp_model_path(tmp_path):
    descriptor = {
        "N": 2,
        "K": 1,
        "kind": "continuous",
        "links": [[{"dist": "exponential", "mean": 2.0}], [{"dist": "exponential", "mean": 1.0}]],
    }
    path = tmp_path / "exp_2q.json"
    path.write_text(json.dumps(descriptor))
    return str(path)


@pytest.fixture
def arrivals_path(tmp_path):
    path = tmp_path / "arrivals.json"
    path.write_text(
        json.dumps({"queues": [
            {"kind": "bernoulli_batch", "batch": 1, "prob": 0.3},
            {"kind": "bernoulli_batch", "batch": 1, "prob": 0.3},
        ]})
    )
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads without the NaN and Infinity tokens Python accepts by default."""
    return json.loads(text, parse_constant=_reject_constant)


def test_vhat_subcommand(capsys):
    code, payload = run_json(capsys, ["vhat", "--N", "2", "--M", "2"])
    assert code == 0
    assert payload["vhat_size"] == 5
    assert payload["wn_minus_zero"] == 8
    assert [1, 2] in payload["vhat"]
    assert "config_hash" in payload and "version" in payload
    # one queue: W = {1} has no zero vector to subtract, so the count is left out
    code, payload = run_json(capsys, ["vhat", "--N", "1", "--M", "3"])
    assert code == 0
    assert payload["vhat"] == [[1]] and payload["vhat_size"] == 1
    assert "wn_minus_zero" not in payload
    assert main(["vhat", "--N", "1", "--M", "0"]) == 2


def test_region_json(capsys, bern_model_path):
    code, payload = run_json(capsys, ["region", "--model", bern_model_path])
    assert code == 0
    ineqs = {tuple(i["alpha"]): i["beta"] for i in payload["inequalities"]}
    assert ineqs == {(0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.75}


def test_region_csv(capsys, bern_model_path, tmp_path):
    out = tmp_path / "region.csv"
    code = main(["region", "--model", bern_model_path, "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "alpha_1,alpha_2,beta"
    assert len(lines) == 5


def test_check_outside_point(capsys, bern_model_path):
    code, payload = run_json(capsys, ["check", "--model", bern_model_path, "--lambda", "0.5,0.5"])
    assert code == 0
    assert payload["verdict"] == "outside"
    assert payload["delta"] == pytest.approx(-0.125)


def test_check_interior_point(capsys, bern_model_path):
    code, payload = run_json(capsys, ["check", "--model", bern_model_path, "--lambda", "0.3,0.2"])
    assert code == 0
    assert payload["verdict"] == "interior"


def test_simulate_summary_and_trace(capsys, bern_model_path, arrivals_path, tmp_path):
    trace_path = tmp_path / "trace.csv"
    code, payload = run_json(
        capsys,
        [
            "simulate", "--model", bern_model_path, "--arrivals", arrivals_path,
            "--policy", "mw", "--slots", "2000", "--seed", "7", "--reps", "2",
            "--trace", str(trace_path),
        ],
    )
    assert code == 0
    assert payload["verdict"] == "stable"
    assert payload["delta"] > 0
    assert "bound" in payload
    assert len(payload["replications"]) == 2

    lines = trace_path.read_text().strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1] == "t,X_1,X_2,served_1,served_2,arrived_1,arrived_2"
    rows = np.array([[int(x) for x in line.split(",")] for line in lines[2:]])
    assert len(rows) == 2000
    # summary averages must be recomputable from the trace
    X = rows[:, 1:3]
    served = rows[:, 3:5]
    rep0 = payload["replications"][0]
    assert rep0["avg_aggregate_occupancy"] == pytest.approx(X.sum(axis=1).mean(), abs=1e-9)
    assert rep0["throughput"] == pytest.approx((served.sum(axis=0) / 2000).tolist(), abs=1e-9)


def _run_must_not_be_called(*args, **kwargs):
    raise AssertionError("the simulation ran")


@pytest.mark.parametrize("missing", ["out", "trace"])
def test_simulate_checks_output_directories_before_running(
    missing, monkeypatch, capsys, bern_model_path, arrivals_path, tmp_path
):
    # a summary or trace path in a missing directory fails before the run,
    # and no trace is left behind for a run that reported failure
    monkeypatch.setattr(cli, "run_sim", _run_must_not_be_called)
    trace = tmp_path / ("missing" if missing == "trace" else ".") / "trace.csv"
    out = tmp_path / ("missing" if missing == "out" else ".") / "summary.json"
    argv = ["simulate", "--model", bern_model_path, "--arrivals", arrivals_path, "--slots", "10",
            "--trace", str(trace), "--out", str(out)]
    assert main(argv) == 2
    assert "error: no directory" in capsys.readouterr().err
    assert not trace.exists() and not out.exists()


def test_simulate_builds_the_region_before_running(monkeypatch, capsys, tmp_path):
    # a factored 8x8, M = 2 model exceeds the direction enumeration cap; the
    # command must fail on it before simulating
    monkeypatch.setattr(cli, "run_sim", _run_must_not_be_called)
    model = tmp_path / "factored_8x8.json"
    model.write_text(json.dumps(to_descriptor(random_factored(np.random.default_rng(1), 8, 8, 2))))
    arrivals = tmp_path / "arrivals.json"
    arrivals.write_text(json.dumps({"queues": [{"kind": "bernoulli_batch", "batch": 1, "prob": 0.3}] * 8}))
    assert main(["simulate", "--model", str(model), "--arrivals", str(arrivals), "--slots", "10"]) == 2
    assert "enumeration cap exceeded" in capsys.readouterr().err


def test_fairness_builds_the_region_before_solving(monkeypatch, capsys, tmp_path):
    # solve_fairness itself no longer needs the region; the command still
    # fails on a model past the enumeration cap before the first iteration
    monkeypatch.setattr(cli, "solve_fairness", _run_must_not_be_called)
    model = tmp_path / "factored_8x8.json"
    model.write_text(json.dumps(to_descriptor(random_factored(np.random.default_rng(1), 8, 8, 2))))
    assert main(["fairness", "--model", str(model)]) == 2
    assert "enumeration cap exceeded" in capsys.readouterr().err


def test_fairness_solves_against_the_region_it_built(monkeypatch, capsys):
    built = []
    real = cli.build_region

    def counted(model):
        built.append(real(model))
        return built[-1]

    monkeypatch.setattr(cli, "build_region", counted)
    monkeypatch.setattr("mqms.fairness_opt.build_region", _run_must_not_be_called)
    code, payload = run_json(capsys, ["fairness", "--model", str(DEMO_MODELS / "bern_2x2_p05.json")])
    assert code == 0 and len(built) == 1
    assert payload["binding_constraints"]


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_margin_is_computed_once_per_command(command, monkeypatch, capsys, bern_model_path, arrivals_path):
    # the verdict comes from the margin the command already holds
    options = {"check": ["--lambda", "0.3,0.2"], "simulate": ["--arrivals", arrivals_path, "--slots", "50"]}
    calls = []
    real = capacity_region.membership_margin

    def counted(region, rates):
        calls.append(rates)
        return real(region, rates)

    monkeypatch.setattr(cli, "membership_margin", counted)
    monkeypatch.setattr(capacity_region, "membership_margin", counted)
    code, payload = run_json(capsys, [command, "--model", bern_model_path, *options[command]])
    assert code == 0 and payload["verdict"] in ("interior", "stable")
    assert len(calls) == 1


def test_delay_bound_subcommand(capsys, bern_model_path, arrivals_path):
    code, payload = run_json(
        capsys, ["delay-bound", "--model", bern_model_path, "--arrivals", arrivals_path]
    )
    assert code == 0
    # margin of (0.3, 0.3): min(0.2, 0.2, 0.15/2) = 0.075; a_max_sq = 0.3
    assert payload["delta"] == pytest.approx(0.075)
    assert payload["bound"] == pytest.approx((2 * 0.3 + 1) / (2 * 0.075))


@pytest.mark.parametrize("queues", [[{"kind": "bernoulli_batch", "batch": 1, "prob": 0.3}], []], ids=["one", "none"])
def test_delay_bound_rejects_arrivals_of_another_dimension(capsys, tmp_path, queues):
    # with --delta the bound mixed N = 2 with one queue's a_max_sq, and no queues failed in max()
    arrivals = tmp_path / "arrivals.json"
    arrivals.write_text(json.dumps({"queues": queues}))
    argv = ["delay-bound", "--model", str(DEMO_MODELS / "bern_2x2_p05.json"), "--arrivals", str(arrivals),
            "--delta", "0.1"]
    assert main(argv) == 2
    assert f"error: dimension mismatch: {len(queues)} arrival queues vs N=2" in capsys.readouterr().err


def test_fluid_boundary_csv(capsys, exp_model_path, tmp_path):
    out = tmp_path / "curve.csv"
    code = main(
        ["fluid-boundary", "--model", exp_model_path, "--directions", "21", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "lambda1,lambda2,stderr"
    first = [float(x) for x in lines[2].split(",")]
    assert first[0] == 0.0 and 0.8 <= first[1] <= 1.2


def test_fluid_boundary_rejects_seed_and_samples(capsys, exp_model_path):
    # the support values are exact and the trace draws nothing, so neither option exists
    for option in (["--samples", "10"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["fluid-boundary", "--model", exp_model_path, *option])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"unrecognized arguments: {' '.join(option)}" in captured.err


@pytest.mark.parametrize(("options", "r_star", "binding"), [
    (["--utility", "log"], [0.375, 0.375], [[1, 1]]),
    (["--utility", "alpha_fair", "--fairness-alpha", "2"], [0.375, 0.375], [[1, 1]]),
    # queue 1 is worth twice as much but capped at 0.25; queue 2 takes the rest
    (["--utility", "linear", "--weights", "2,1", "--caps", "0.25,1"], [0.25, 0.5], [[0, 1], [1, 1]]),
], ids=["log", "alpha_fair", "linear"])
def test_fairness_subcommand(capsys, bern_model_path, options, r_star, binding):
    code, payload = run_json(
        capsys,
        ["fairness", "--model", bern_model_path, *options, "--tol", "1e-6", "--max-iters", "10000"],
    )
    assert code == 0
    assert payload["r_star"] == pytest.approx(r_star, abs=1e-3)
    assert payload["gap"] <= 1e-6
    assert payload["binding_constraints"] == binding


@pytest.mark.parametrize(("options", "message"), [
    (["--weights", "5,1", "--fairness-alpha", "7"], "--weights does not apply to the log utility"),
    (["--fairness-alpha", "2"], "--fairness-alpha does not apply to the log utility"),
    (["--utility", "linear", "--epsilon", "0.1"], "--epsilon does not apply to the linear utility"),
    (["--utility", "linear", "--weights", "1,1", "--fairness-alpha", "2"],
     "--fairness-alpha does not apply to the linear utility"),
    (["--utility", "alpha_fair", "--eps", "1e-6"], "--epsilon does not apply to the alpha_fair utility"),
    (["--utility", "alpha_fair", "--weights", "2,1"], "--weights does not apply to the alpha_fair utility"),
], ids=["log-weights", "log-alpha", "linear-epsilon", "linear-alpha", "alpha-abbreviated-epsilon", "alpha-weights"])
def test_fairness_rejects_the_options_of_another_utility(capsys, bern_model_path, options, message):
    # these were ignored, and the solve ran with the utility's own parameters
    assert main(["fairness", "--model", bern_model_path, *options]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: {message}" in captured.err.splitlines()


def test_fairness_own_option_at_its_default_keeps_the_config(capsys, bern_model_path):
    configs = []
    for options in ([], ["--epsilon", "1e-6"]):
        assert main(["fairness", "--model", bern_model_path, *options]) == 0
        configs.append(capsys.readouterr().err.splitlines()[0])
    assert configs[0] == configs[1]


def test_fairness_reports_convergence_and_exits_3_when_capped(capsys, bern_model_path, tmp_path):
    argv = ["fairness", "--model", bern_model_path, "--utility", "log", "--tol", "1e-6"]
    assert main(argv) == 0
    assert strict_json(capsys.readouterr().out)["converged"] is True

    out = tmp_path / "capped.json"
    assert main(argv + ["--max-iters", "1", "--out", str(out)]) == 3
    payload = strict_json(out.read_text())
    assert payload["converged"] is False
    assert payload["iterations"] == 1 and payload["gap"] > 1e-6
    # the second move lands on the optimum, and the gap is the one taken there
    assert main(argv + ["--max-iters", "2"]) == 0
    payload = strict_json(capsys.readouterr().out)
    assert payload["converged"] is True and payload["iterations"] == 2 and payload["gap"] == 0.0


def test_check_huge_finite_rates_prints_a_finite_margin(capsys):
    model = str(DEMO_MODELS / "bern_2x2_p05.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", "--model", model, "--lambda", "1e308,1e308"])
    payload = strict_json(capsys.readouterr().out)
    assert code == 0
    assert math.isfinite(payload["delta"]) and payload["delta"] < 0
    assert payload["verdict"] == "outside"


def test_oracle_check_subcommand(capsys, bern_model_path):
    code = main(["oracle-check", "--model", bern_model_path])
    out = capsys.readouterr().out
    assert code == 0
    assert "support_function == brute_force on 3/3 directions" in out


def test_oracle_check_function_factored(rng):
    model = DiscreteChannelModel.factored(
        [[[0.2, 0.5, 0.3], [0.6, 0.2, 0.2]], [[0.1, 0.8, 0.1], [0.3, 0.3, 0.4]]]
    )
    report = oracle_check(model)
    assert report["ok"]
    assert report["max_abs_deviation"] <= 1e-9


def test_oracle_check_explicit_toy_model_is_exact():
    # both paths walk the same three states, so the deviation is literally zero
    model = DiscreteChannelModel.explicit_joint(
        [([[2], [0]], 0.25), ([[1], [1]], 0.5), ([[0], [2]], 0.25)]
    )
    report = oracle_check(model)
    assert report["max_abs_deviation"] == 0.0


def test_oracle_check_state_cap_leaves_the_allocations_alone():
    # 2 states but N^K = 81 allocations: the state cap of 64 used to cap the allocations too
    model = DiscreteChannelModel.explicit_joint([
        ([[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], 0.5),
        ([[0, 1, 1, 0], [1, 0, 0, 1], [0, 0, 0, 0]], 0.5),
    ])
    report = oracle_check(model, state_cap=64)
    assert report["ok"] and report["directions_checked"] == 7


def test_oracle_check_subcommand_on_factored_demo(capsys):
    code = main(["oracle-check", "--model", str(DEMO_MODELS / "factored_2x2_m2.json")])
    summary, payload = capsys.readouterr().out.split("\n", 1)
    assert code == 0
    assert summary == "support_function == brute_force on 5/5 directions"
    assert json.loads(payload)["ok"] is True


@pytest.mark.parametrize("argv", [
    ["check", "--lambda", "0.1,0.1"],
    ["simulate", "--slots", "10"],
    ["delay-bound"],
    ["delay-bound", "--delta", "0.1"],
    ["fairness"],
    ["oracle-check"],
    ["region"],
], ids=["check", "simulate", "delay-bound", "delay-bound-delta", "fairness", "oracle-check", "region"])
def test_continuous_model_on_discrete_subcommand_exits_2(argv, exp_model_path, arrivals_path, capsys):
    argv = argv[:1] + ["--model", exp_model_path] + argv[1:]
    if argv[0] in ("simulate", "delay-bound"):
        argv += ["--arrivals", arrivals_path]
    assert main(argv) == 2
    assert "discrete channel model is required" in capsys.readouterr().err


def test_discrete_model_on_fluid_boundary_exits_2(bern_model_path, capsys):
    assert main(["fluid-boundary", "--model", bern_model_path]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error: fluid-boundary requires a continuous model" in captured.err


@pytest.mark.parametrize("argv", [
    ["check", "--lambda", "nan,0.1"],
    ["check", "--lambda", "0.1,inf"],
    ["simulate", "--slots", "10", "--reps", "0"],
    ["simulate", "--slots", "10", "--reps", "-1"],
    ["delay-bound", "--delta", "nan"],
    ["delay-bound", "--delta", "inf"],
    ["fairness", "--max-iters", "0"],
    ["fairness", "--tol", "nan"],
    ["check", "--lambda", "0.3,x"],
], ids=["check-nan", "check-inf", "simulate-reps-0", "simulate-reps-minus-1", "delay-bound-nan", "delay-bound-inf",
        "fairness-max-iters-0", "fairness-tol-nan", "check-unparsable"])
def test_invalid_numbers_exit_2(argv, bern_model_path, arrivals_path, capsys):
    argv = argv[:1] + ["--model", bern_model_path] + argv[1:]
    if argv[0] in ("simulate", "delay-bound"):
        argv += ["--arrivals", arrivals_path]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err and "internal error" not in captured.err


def test_outputs_are_byte_identical_across_runs(bern_model_path, arrivals_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["simulate", "--model", bern_model_path, "--arrivals", arrivals_path,
            "--slots", "500", "--seed", "3", "--reps", "2"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    va, vb = tmp_path / "va.json", tmp_path / "vb.json"
    assert main(["vhat", "--N", "3", "--M", "2", "--out", str(va)]) == 0
    assert main(["vhat", "--N", "3", "--M", "2", "--out", str(vb)]) == 0
    assert va.read_bytes() == vb.read_bytes()


@pytest.mark.parametrize("subcommand", [
    "vhat", "region", "check", "simulate", "delay-bound", "fluid-boundary", "fairness", "oracle-check",
])
def test_resolved_config_is_printed(subcommand, capsys, bern_model_path, exp_model_path, arrivals_path, tmp_path):
    # the config is every argument, defaults included, but the output paths,
    # plus the version; the printed line and the output's hash both come from it
    bern, exp, arrivals = bern_model_path, exp_model_path, arrivals_path
    argv, expected = {
        "vhat": (["--N", "2", "--M", "2"], {"N": 2, "M": 2, "cap": 10_000_000}),
        "region": (["--model", bern], {"model": bern, "format": "json"}),
        "check": (["--model", bern, "--lambda", "0.1,0.1"], {"model": bern, "lambda": "0.1,0.1"}),
        "simulate": (
            ["--model", bern, "--arrivals", arrivals, "--slots", "10", "--trace", str(tmp_path / "trace.csv")],
            {"model": bern, "arrivals": arrivals, "policy": "mw", "slots": 10, "seed": 0, "reps": 1,
             "tie_rule": "lowest_index"},
        ),
        "delay-bound": (["--model", bern, "--arrivals", arrivals], {"model": bern, "arrivals": arrivals, "delta": None}),
        "fluid-boundary": (
            ["--model", exp, "--directions", "5"],
            {"model": exp, "directions": 5},
        ),
        "fairness": (
            ["--model", bern],
            {"model": bern, "utility": "log", "caps": None, "weights": None, "epsilon": 1e-6,
             "fairness_alpha": 2.0, "tol": 1e-6, "max_iters": 10_000},
        ),
        "oracle-check": (["--model", bern], {"model": bern, "state_cap": 4096}),
    }[subcommand]
    cfg = json.dumps({"subcommand": subcommand, **expected, "version": __version__}, sort_keys=True)
    config_hash = hashlib.sha256(cfg.encode()).hexdigest()[:16]
    out = tmp_path / "out"
    assert main([subcommand, *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines()[0] == f"config: {cfg}"
    if subcommand == "fluid-boundary":
        assert out.read_text().splitlines()[0] == f"# config_hash={config_hash} version={__version__}"
    else:
        payload = json.loads(out.read_text())
        assert (payload["config_hash"], payload["version"]) == (config_hash, __version__)


def test_seed_default_is_announced(capsys, bern_model_path, arrivals_path):
    main(["simulate", "--model", bern_model_path, "--arrivals", arrivals_path, "--slots", "10"])
    err = capsys.readouterr().err
    assert '"seed": 0' in err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["region", "--model", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_invalid_model_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad_model.json"
    bad.write_text(json.dumps({"N": 1, "K": 1, "kind": "bernoulli", "p": [[1.5]]}))
    assert main(["region", "--model", str(bad)]) == 2



@pytest.mark.parametrize(("argv", "model", "arrivals"), [
    (["region"], {"N": 1, "K": 1, "kind": "bernoulli", "p": [[None]]}, None),
    (["region"], {"N": 1, "K": 1, "kind": "factored", "pmfs": [[[None, 1.0]]]}, None),
    (["simulate", "--slots", "10"], {"N": 1, "K": 1, "kind": "bernoulli", "p": [[0.5]]},
     {"queues": [{"kind": "bernoulli_batch", "batch": 1, "prob": None}]}),
], ids=["bernoulli-p", "factored-pmf", "arrival-prob"])
def test_null_numbers_exit_2(argv, model, arrivals, tmp_path, capsys):
    model_path, arrivals_path = tmp_path / "model.json", tmp_path / "arrivals.json"
    model_path.write_text(json.dumps(model))
    argv = argv[:1] + ["--model", str(model_path)] + argv[1:]
    if arrivals is not None:
        arrivals_path.write_text(json.dumps(arrivals))
        argv += ["--arrivals", str(arrivals_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "must be a number, got None" in err and "internal error" not in err

def _exit_and_error(capsys, tmp_path, command, model, arrivals):
    model_path, arrivals_path = tmp_path / "model.json", tmp_path / "arrivals.json"
    model_path.write_text(json.dumps(model))
    arrivals_path.write_text(json.dumps(arrivals))
    argv = [command, "--model", str(model_path)]
    if command == "simulate":
        argv += ["--arrivals", str(arrivals_path), "--slots", "10"]
    code = main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize(("model", "message"), [
    ({"N": 1, "K": 1, "kind": "bernoulli", "p": None}, "descriptor.p must be a list, got None"),
    ({"N": 1, "K": 1, "kind": "bernoulli", "p": [0.5]}, "descriptor.p[0] must be a list, got 0.5"),
    ({"N": 1, "K": 1, "kind": "factored", "pmfs": [[None]]}, "descriptor.pmfs[0][0] must be a list, got None"),
    ({"N": 1, "K": 1, "kind": "factored", "pmfs": 3}, "descriptor.pmfs must be a list, got 3"),
    ({"N": 1, "K": 1, "kind": "explicit_joint", "states": 3}, "descriptor.states must be a list, got 3"),
    ({"N": 1, "K": 1, "kind": "explicit_joint", "states": [3]}, "descriptor.states[0] must be an object, got 3"),
    ({"N": 1, "K": 1, "kind": "explicit_joint", "states": [{"C": 1, "prob": 1.0}]},
     "descriptor.states[0].C must be a list, got 1"),
    ({"N": 1, "K": 1, "kind": "continuous", "links": [[{"dist": "empirical", "values": None}]]},
     "descriptor.links[0][0].values must be a list, got None"),
    ({"N": 1, "K": 1, "kind": "continuous", "links": [[3]]}, "descriptor.links[0][0] must be an object, got 3"),
], ids=["p-null", "p-flat", "pmf-null", "pmfs-number", "states-number", "state-number", "state-matrix-number",
        "values-null", "link-number"])
@pytest.mark.parametrize("command", ["region", "simulate"])
def test_non_list_model_fields_exit_2(command, model, message, tmp_path, capsys):
    arrivals = {"queues": [{"kind": "bernoulli_batch", "batch": 1, "prob": 0.3}]}
    code, err = _exit_and_error(capsys, tmp_path, command, model, arrivals)
    assert code == 2 and err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(("arrivals", "message"), [
    ({"queues": [{"kind": "bounded_pmf", "pmf": None}]}, "arrivals.queues[0].pmf must be a list, got None"),
    ({"queues": 3}, "arrivals.queues must be a list, got 3"),
    ({"queues": "ab"}, "arrivals.queues must be a list, got 'ab'"),
    ({"queues": [3]}, "arrivals.queues[0] must be an object, got 3"),
    ([3], "arrivals must be an object, got [3]"),
], ids=["pmf-null", "queues-number", "queues-string", "queue-number", "descriptor-list"])
def test_non_list_arrival_fields_exit_2(arrivals, message, tmp_path, capsys):
    model = {"N": 1, "K": 1, "kind": "bernoulli", "p": [[0.5]]}
    code, err = _exit_and_error(capsys, tmp_path, "simulate", model, arrivals)
    assert code == 2 and err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["vhat", "--M", "100000000", "--N", "2"],
    ["vhat", "--M", "3", "--N", "1000000"],
    ["region", "--model", "EXPLICIT"],
], ids=["huge-M", "huge-N", "explicit-joint-huge-M"])
def test_enumeration_cap_exits_2_before_building_w(argv, capsys, tmp_path):
    # building W for these took gigabytes or ran on for seconds before the cap was checked
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"kind": "explicit_joint", "M": 1e8, "states": [{"C": [[1], [0]], "prob": 1.0}]}))
    argv = [str(model) if a == "EXPLICIT" else a for a in argv]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "error: enumeration cap exceeded" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["region", "--model", "/nonexistent/model.json"]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
