"""Pinned CLI output bytes on the demo models.

``cli_golden.json`` holds, for every command below, its exit code and its
stdout, and for the one command that writes a trace the sha256 of that
CSV.  The commands are CI's loop over the four discrete demo models, with
``simulate`` at 2,000 slots, and ``fluid-boundary`` on the two continuous
ones.  ``cli.main`` runs in-process from the repository root, so the
model paths, and hence the stamped config hashes, are the same on every
machine.  ``cli_golden_arrivals.json`` is the interior arrival law that
CI writes to a temporary file for ``delay-bound``.  Rewrite the file only
for a deliberate change of the output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import tempfile

from mqms.cli import main

GOLDEN = pathlib.Path(__file__).with_name("cli_golden.json")
ROOT = pathlib.Path(__file__).resolve().parents[1]
INTERIOR = "tests/cli_golden_arrivals.json"
TRACE = "--trace"


def commands() -> list[str]:
    """Every pinned command line; ``--trace`` takes a path in a temporary directory."""
    out = []
    for m in ("bern_2x1_p05", "bern_2x2_p05", "factored_2x2_m2", "explicit_2x2_m2"):
        for cmd in ("region", "region --format csv", "check --lambda 0.3,0.2",
                    "simulate --arrivals demos/models/arrivals_bern_065.json",
                    "simulate --arrivals demos/models/arrivals_mixed.json",
                    "simulate --arrivals demos/models/arrivals_bern_065.json --reps 8",
                    "simulate --arrivals demos/models/arrivals_bern_065.json --tie-rule highest_index",
                    "simulate --arrivals demos/models/arrivals_bern_065.json --reps 8 "
                    f"--tie-rule highest_index {TRACE}",
                    f"delay-bound --arrivals {INTERIOR}", "fairness", "fairness --utility alpha_fair",
                    "fairness --utility linear --weights 2,1 --caps 0.25,1", "oracle-check"):
            if cmd.startswith("simulate"):
                cmd += " --slots 2000"
            out.append(f"{cmd} --model demos/models/{m}.json")
    # an option of another utility is rejected, not ignored
    for cmd in ("fairness --weights 2,1", "fairness --utility linear --epsilon 0.1"):
        out.append(f"{cmd} --model demos/models/bern_2x1_p05.json")
    out.append("vhat --N 3 --M 2")
    for m in ("exp_2q_mu2_mu1", "mixed_2x2_cont"):
        out.append(f"fluid-boundary --model demos/models/{m}.json")
    return out


def run_all(tmpdir: str) -> dict:
    """{command: {"exit", "stdout"[, "trace_sha256"]}}, run from the repository root."""
    trace = os.path.join(tmpdir, "trace.csv")
    pinned = {}
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        for cmd in commands():
            argv = [a for arg in cmd.split() for a in ((arg, trace) if arg == TRACE else (arg,))]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            pinned[cmd] = {"exit": code, "stdout": stdout.getvalue()}
            if TRACE in argv:
                pinned[cmd]["trace_sha256"] = hashlib.sha256(pathlib.Path(trace).read_bytes()).hexdigest()
    finally:
        os.chdir(cwd)
    return pinned


def test_cli_matches_the_pinned_outputs(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert run_all(str(tmp_path)) == golden
    # every command but the two rejected options succeeds
    codes = [case["exit"] for case in golden.values()]
    assert len(golden) == 57 and codes.count(2) == 2 and codes.count(0) == 55


def test_every_json_stdout_is_one_document():
    # every pinned stdout but the two CSV writers' is one strict JSON document and nothing
    # else (the rejected options print nothing); oracle-check's summary goes to stderr
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    golden = json.loads(GOLDEN.read_text())
    documents = [case["stdout"] for cmd, case in golden.items()
                 if case["stdout"] and "--format csv" not in cmd and not cmd.startswith("fluid-boundary")]
    assert len(documents) == 49
    for stdout in documents:
        assert isinstance(json.loads(stdout, parse_constant=reject), dict)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmpdir:
        GOLDEN.write_text(json.dumps(run_all(tmpdir), indent=1, sort_keys=True) + "\n")
