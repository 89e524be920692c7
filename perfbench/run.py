"""Benchmark for mqms: one seeded workload per process, outputs checked.

Run from the repository root:

    python3 perfbench/run.py --workload region --seed 1 --seconds 16 --trace 0

Workloads: region, fairness, sim_reps, sim_wide, fluid (see README.md).
The package is imported from ``src/`` of the checkout that holds this
file; the command fails without a result when that source is missing.

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
Its timings are scaled to a reference host speed (see host_speed.py): the
speed of a shared host drifts by tens of percent between and within runs,
and a reference kernel timed before and after each pass cancels that
drift.  The text output gives the measured times as well.
``--trace 1`` runs untraced passes for half the time and traced passes for
the other half, and reports the per-layer metrics plus the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One workload per single-threaded process, set-up probes included.  Left
# alone, numpy's OpenBLAS starts a thread per CPU at import; on a 2-vCPU
# host that took 0.07-0.09 s of a 0.2-s set-up, varying with the state of
# the other vCPU.  Set before anything imports numpy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("region", "fairness", "sim_reps", "sim_wide", "fluid")
SETUP_PROBES = 7   # fresh processes whose median set-up time is setup_s
MIN_PASSES = 2     # the across-pass determinism checks need two passes

# the specific name of each workload's work_per_s in the text output
WORK_RATE_ALIAS = {
    "region": "region_directions_per_s",
    "fairness": "fw_iterations_per_s",
    "sim_reps": "sim_rep_slots_per_s",
    "sim_wide": "sim_rep_slots_per_s",
    "fluid": "fluid_direction_samples_per_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="Benchmark one mqms workload.")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=16.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def use_checkout_sources() -> None:
    if not (SRC / "mqms" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'mqms'}; run from a repository checkout")
    sys.path.insert(0, str(SRC))


def setup_probe(args) -> None:
    """Child-process mode: time import, input construction and validation."""
    t0 = time.perf_counter()
    use_checkout_sources()
    import mqms  # noqa: F401  (timed: the import is part of set-up)
    import workloads
    workloads.WORKLOADS[args.workload](args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(args) -> list[float]:
    """Set-up times of fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
        setups.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return setups


class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def run_passes(wl, seconds, min_passes, ledger, tracer=None, first_pass=0):
    """Repeat whole passes until ``seconds`` have elapsed and ``min_passes`` ran.

    Returns each pass's wall time, the mean time of the reference kernel
    run just before and just after it, and its result."""
    import host_speed
    walls, kernels, results = [], [], []
    start = time.perf_counter()
    kernel_before = host_speed.measure()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.start_pass(first_pass + len(walls))
        t0 = time.perf_counter()
        try:
            res = wl.run_pass()
        except Exception:
            traceback.print_exc()
            ledger.attempted += 1
            ledger.failed += 1
            break
        walls.append(time.perf_counter() - t0)
        kernel_after = host_speed.measure()
        kernels.append((kernel_before + kernel_after) / 2)
        kernel_before = kernel_after
        results.append(res)
        ledger.attempted += res.calls
    return walls, kernels, results


def describe(samples, unit) -> str:
    """Median, plus the highest percentile that has at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g} {unit}, n={n}"
    if n >= 11:
        ordered = sorted(samples)
        text += f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.6g} {unit}"
    else:
        text += f" (fewer than 11 samples: no percentile has ten beyond it; max {max(samples):.6g})"
    return text


def run_checks(wl, results):
    if not results:
        return [("at least one pass completed", False, "every pass failed")]
    try:
        return wl.checks([r.outputs for r in results])
    except Exception as exc:
        traceback.print_exc()
        return [("checks ran", False, repr(exc))]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    use_checkout_sources()
    setups = measure_setup(args)

    import mqms
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    ledger = Ledger()
    print(f"perfbench: workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"mqms {mqms.__version__} from {Path(mqms.__file__).parent}")

    tracer = None
    if args.trace:
        from layer_trace import Tracer
        walls, _, results = run_passes(wl, args.seconds / 2, 1, ledger)
        tracer = Tracer(mqms)
        tracer.install()
        try:
            traced_walls, _, traced = run_passes(wl, args.seconds / 2, 1, ledger, tracer, first_pass=len(walls))
        finally:
            tracer.uninstall()
        all_results = results + traced
    else:
        walls, kernels, results = run_passes(wl, args.seconds, MIN_PASSES, ledger)
        all_results = results

    checks = run_checks(wl, all_results)
    checks_failed = sum(not ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    print(f"  checks_failed = {checks_failed} of {len(checks)}")
    correct = bool(all_results) and ledger.failed == 0 and checks_failed == 0

    if args.trace:
        metrics = trace_report(args, wl, tracer, walls, traced_walls)
    else:
        metrics = end_to_end_report(wl, setups, walls, kernels, results)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


def end_to_end_report(wl, setups, walls, kernels, results) -> dict:
    from host_speed import REFERENCE_S, scale
    # A pass is scaled by the kernel runs on either side of it.  The median
    # set-up time is scaled by the median of those kernel runs: kernel runs
    # next to the probes, in this process or in the probe's, read from 22%
    # faster to 32% slower than during the passes, varying from run to run.
    pass_s = [scale(w, k) for w, k in zip(walls, kernels)]
    rates = [r.work / scale(r.work_s, k) for r, k in zip(results, kernels)]
    setup_s = scale(statistics.median(setups), statistics.median(kernels)) if kernels else 0.0
    metrics = {
        "setup_s": (setup_s, "s"),
        # 0.0 only when every pass failed, which also reports correct: false
        "pass_s": (statistics.median(pass_s) if pass_s else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "work_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
    }
    print(f"  at reference speed (kernel {1e3 * REFERENCE_S:g} ms):")
    print(f"    setup_s: {setup_s:.6g} s, median of {len(setups)} fresh processes")
    if walls:
        print(f"    pass_s: {describe(pass_s, 's')}")
        print(f"    work_per_s = {WORK_RATE_ALIAS[wl.name]}: {describe(rates, wl.work_unit + '/s')}")
    print("  as measured:")
    print(f"    set-up: {describe(setups, 's')}")
    if walls:
        print(f"    pass wall time: {describe(walls, 's')}")
        print(f"    reference kernel: {describe(kernels, 's')}")
    if results and results[0].extra:
        for key, value in results[0].extra.items():
            print(f"  {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    return metrics


def trace_report(args, wl, tracer, walls, traced_walls) -> dict:
    passes = len(traced_walls)
    metrics, absent = tracer.layer_metrics(max(passes, 1))
    traced = statistics.fmean(traced_walls) if traced_walls else 0.0
    untraced = statistics.fmean(walls) if walls else 0.0
    leftover = traced - tracer.outer_s / max(passes, 1)
    metrics.update({
        "trace.wall_s": (traced, "s"),
        "trace.untraced_wall_s": (untraced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.leftover_s": (leftover, "s"),
        "trace.spans": (len(tracer.spans) / max(passes, 1), "count"),
    })
    path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
    tracer.write_spans(path, {"workload": wl.name, "seed": args.seed, "passes": passes})
    print(f"  traced passes {passes}, untraced passes {len(walls)}; spans written to {path.relative_to(ROOT)}")
    print("  layer self time per traced pass (sums to trace.wall_s):")
    from layer_trace import LAYERS
    for layer in LAYERS:
        if f"{layer}.self_s" in metrics:
            s = metrics[f"{layer}.self_s"][0]
            print(f"    {layer:16s} {s:10.4f} s  {100 * s / traced if traced else 0:5.1f}%")
    print(f"    {'(leftover)':16s} {leftover:10.4f} s  {100 * leftover / traced if traced else 0:5.1f}%")
    print("  waiting: none; the benchmark is single-threaded with no queues, so no layer waits on another")
    if absent:
        print(f"  absent (wrapped name no longer in the package): {', '.join(absent)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
