"""Per-layer tracing, installed from the benchmark at run time.

The package is never edited.  ``Tracer.install`` rebinds, in the package
namespace and in every layer module, each public name that refers to a
function defined in a layer, plus ``ArrivalModel.sample``.  Calls from one
module into another (``fairness_opt.support_vertex``,
``mqms_sim.sample_states``, ...) and calls inside a module, which look up
the same module globals, then pass through a wrapper that records calls,
total time and self time (total minus time in wrapped callees).

Each wrapped label keeps a span (id, name, start, end, parent span, pass)
for its first ``SPANS_PER_LABEL`` calls in a pass; later calls of a hot
label are only counted.  A name that a later version of the package no
longer has is simply not wrapped, and the metrics that need it are
reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("alpha_sets", "channel_models", "capacity_region", "mqms_sim", "fluid_region", "fairness_opt")
METHOD_HOOKS = (("mqms_sim", "ArrivalModel", "sample"),)
SPANS_PER_LABEL = 100


class _Frame:
    __slots__ = ("child", "span", "anc")


def _count_build_vhat(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    M, N = bound.arguments["M"], bound.arguments["N"]
    tracer.counts["alpha_sets.directions"] += len(result)
    build_w = tracer.originals.get("alpha_sets.build_w")
    if build_w is not None and N > 1:
        # candidates the |W|^N scan visits, zero vector excluded
        tracer.counts["alpha_sets.candidates"] += len(build_w(M, N)) ** N - 1


def _count_sample_states(tracer, fn, args, kwargs, result):
    tracer.counts["channel_models.sample_states.bytes"] += result.nbytes


def _count_run(tracer, fn, args, kwargs, result):
    tracer.counts["mqms_sim.rep_slots"] += sum(s.horizon for s in result.replications)


def _count_boundary_trace(tracer, fn, args, kwargs, result):
    tracer.counts["fluid_region.direction_samples"] += result.directions * result.samples


def _count_solve_fairness(tracer, fn, args, kwargs, result):
    tracer.counts["fairness_opt.iterations"] += result.iterations
    tracer.last["fairness_opt.final_gap"] = result.gap


COUNTERS = {
    "alpha_sets.build_vhat": _count_build_vhat,
    "channel_models.sample_states": _count_sample_states,
    "mqms_sim.run": _count_run,
    "fluid_region.boundary_trace": _count_boundary_trace,
    "fairness_opt.solve_fairness": _count_solve_fairness,
}


class Tracer:
    """Wrappers plus the spans and aggregates they record."""

    def __init__(self, package):
        self.package = package
        self.originals = {}          # label -> unwrapped function
        self._undo = []              # (owner, attribute, original)
        self.stack = []
        self.run_id = 0
        self.next_id = 0
        self.spans = []              # (id, label, start, end, parent id, run id)
        self.span_budget = defaultdict(int)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # label -> calls, total_s, self_s
        self.depth = defaultdict(int)                    # layer -> open calls
        self.busy = defaultdict(float)                   # layer -> time with a call open
        self.counts = defaultdict(float)
        self.last = {}
        self.outer_s = 0.0           # time inside outermost wrapped calls

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        owners = [self.package]
        for layer in LAYERS:
            try:
                owners.append(importlib.import_module(f"{self.package.__name__}.{layer}"))
            except ModuleNotFoundError:
                continue
        prefix = self.package.__name__ + "."
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.removeprefix(prefix)
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
                setattr(owner, attr, wrappers[obj])
                self._undo.append((owner, attr, obj))
        for layer, cls_name, meth in METHOD_HOOKS:
            cls = getattr(self.package, cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                setattr(cls, meth, self._wrap(fn, f"{layer}.{cls_name}.{meth}", layer))
                self._undo.append((cls, meth, fn))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def start_pass(self, run_id: int) -> None:
        self.run_id = run_id
        self.span_budget.clear()

    def _wrap(self, fn, label, layer):
        self.originals[label] = fn
        counter = COUNTERS.get(label)
        tracer = self
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            frame = _Frame()
            frame.child = 0.0
            parent = stack[-1].anc if stack else None
            if tracer.span_budget[label] < SPANS_PER_LABEL:
                tracer.span_budget[label] += 1
                frame.span = frame.anc = tracer.next_id
                tracer.next_id += 1
            else:
                frame.span, frame.anc = None, parent
            depth = tracer.depth[layer]
            tracer.depth[layer] = depth + 1
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.depth[layer] = depth
                dur = t1 - t0
                st = tracer.stats[label]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame.child
                if depth == 0:
                    tracer.busy[layer] += dur
                if stack:
                    stack[-1].child += dur
                else:
                    tracer.outer_s += dur
                if frame.span is not None:
                    tracer.spans.append((frame.span, label, t0, t1, parent, tracer.run_id))
            if counter is not None:
                counter(tracer, fn, args, kwargs, result)
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def write_spans(self, path, meta: dict) -> None:
        doc = dict(meta)
        doc["columns"] = ["id", "name", "start", "end", "parent", "pass"]
        doc["spans"] = self.spans
        doc["aggregates"] = {
            label: {"calls": c, "total_s": t, "self_s": s} for label, (c, t, s) in sorted(self.stats.items())
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))

    def layer_metrics(self, passes: int) -> tuple[dict, list[str]]:
        """Per-pass layer metrics {name: (value, unit)} and the names found absent."""
        have = set(self.originals)
        out, absent = {}, []

        def per_pass(x):
            return x / passes

        def calls(label):
            return per_pass(self.stats[label][0])

        def total(label):
            return per_pass(self.stats[label][1])

        def self_s(label):
            return per_pass(self.stats[label][2])

        def count(name):
            return per_pass(self.counts[name])

        def ratio(a, b, scale=1.0):
            return scale * a / b if b else 0.0

        def put(name, unit, needs, value):
            if all(n in have for n in needs):
                out[name] = (value(), unit)
            else:
                absent.append(name)

        for layer in LAYERS:
            labels = [lb for lb in have if lb.startswith(layer + ".")]
            if not labels:
                absent += [f"{layer}.self_s", f"{layer}.busy_s", f"{layer}.calls"]
                continue
            out[f"{layer}.self_s"] = (per_pass(sum(self.stats[lb][2] for lb in labels)), "s")
            out[f"{layer}.busy_s"] = (per_pass(self.busy[layer]), "s")
            out[f"{layer}.calls"] = (per_pass(sum(self.stats[lb][0] for lb in labels)), "count")

        vhat, sf, sv = "alpha_sets.build_vhat", "capacity_region.support_function", "capacity_region.support_vertex"
        val, pscd = "channel_models.validate", "channel_models.per_server_column_distribution"
        fair, runl, samp = "fairness_opt.solve_fairness", "mqms_sim.run", "channel_models.sample_states"
        trace_l = "fluid_region.boundary_trace"
        put("alpha_sets.build_vhat.s", "s", [vhat], lambda: total(vhat))
        put("alpha_sets.candidates", "count", [vhat, "alpha_sets.build_w"], lambda: count("alpha_sets.candidates"))
        put("alpha_sets.directions", "count", [vhat], lambda: count("alpha_sets.directions"))
        put("alpha_sets.keep_ratio", "ratio", [vhat, "alpha_sets.build_w"],
            lambda: ratio(count("alpha_sets.directions"), count("alpha_sets.candidates")))
        put("capacity_region.support_function.calls", "count", [sf], lambda: calls(sf))
        put("capacity_region.support_function.self_s", "s", [sf], lambda: self_s(sf))
        put("capacity_region.build_region.s", "s", ["capacity_region.build_region"],
            lambda: total("capacity_region.build_region"))
        put("capacity_region.membership_margin.s", "s", ["capacity_region.membership_margin"],
            lambda: total("capacity_region.membership_margin"))
        put("capacity_region.support_vertex.calls", "count", [sv], lambda: calls(sv))
        put("capacity_region.support_vertex.self_s", "s", [sv], lambda: self_s(sv))
        put("channel_models.validate.calls", "count", [val], lambda: calls(val))
        put("channel_models.validate.s", "s", [val], lambda: total(val))
        put(f"{pscd}.calls", "count", [pscd], lambda: calls(pscd))
        put(f"{pscd}.s", "s", [pscd], lambda: total(pscd))
        put("fairness_opt.solve_fairness.s", "s", [fair], lambda: total(fair))
        put("fairness_opt.fw.self_s", "s", [fair], lambda: self_s(fair))
        put("fairness_opt.iterations", "count", [fair], lambda: count("fairness_opt.iterations"))
        put("fairness_opt.final_gap", "1", [fair], lambda: self.last.get("fairness_opt.final_gap", 0.0))
        put("mqms_sim.run.s", "s", [runl], lambda: total(runl))
        put("mqms_sim.kernel.self_s", "s", [runl], lambda: self_s(runl))
        put("mqms_sim.rep_slots", "count", [runl], lambda: count("mqms_sim.rep_slots"))
        put("mqms_sim.kernel.ns_per_rep_slot", "ns", [runl],
            lambda: ratio(self_s(runl), count("mqms_sim.rep_slots"), 1e9))
        put("mqms_sim.arrivals_sample.s", "s", ["mqms_sim.ArrivalModel.sample"],
            lambda: total("mqms_sim.ArrivalModel.sample"))
        put("channel_models.sample_states.s", "s", [samp], lambda: total(samp))
        put("channel_models.sample_states.bytes", "B", [samp], lambda: count("channel_models.sample_states.bytes"))
        put("fluid_region.boundary_trace.s", "s", [trace_l], lambda: total(trace_l))
        put("fluid_region.envelope.self_s", "s", [trace_l], lambda: self_s(trace_l))
        put("fluid_region.direction_samples", "count", [trace_l], lambda: count("fluid_region.direction_samples"))
        put("fluid_region.ns_per_direction_sample", "ns", [trace_l],
            lambda: ratio(self_s(trace_l), count("fluid_region.direction_samples"), 1e9))
        return out, absent
