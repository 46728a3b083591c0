"""Span tracer for freeshift's public layers, installed from outside the
library.

``Tracer.install`` wraps the public functions, constructors and methods
that the benchmark's per-layer metrics name, and rebinds every
``freeshift.*`` module attribute that refers to a wrapped function (``cli``,
``spectra`` and ``diagnostics`` import them by name). Each call records one
span: name, thread, parent span on the same thread, start, end and the
counters read from its result, plus the CPU time its thread spent inside
the call. Spans stay in memory until ``dump``.

Run as a script it traces one CLI invocation in the current process:

    PYTHONPATH=src python3 bench/tracer.py --spans spans.jsonl \\
        --trace-id demo -- delta --config run.ini
"""

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time


def _fiber_counters(result):
    series = next(iter(result.values()))
    return {"lengths": series.n_max,
            "log_mode_calls": int(bool(series.meta.get("log_mode")))}


# span name, module, owning class (None for a module function), attribute,
# counters read from the call's result
TARGETS = [
    ("spectra.free_energy", "spectra", None, "free_energy",
     lambda r: {"evaluations": r.evaluations}),
    ("spectra.free_energy_curve", "spectra", None, "free_energy_curve", None),
    ("spectra.legendre", "spectra", None, "legendre", None),
    ("pressure.perron_eigen", "pressure", None, "perron_eigen",
     lambda r: {"iterations": r.iterations}),
    ("pressure.TransferMatrix", "pressure", "TransferMatrix", "__init__",
     None),
    ("pressure.LiftedTransferMatrix", "pressure", "LiftedTransferMatrix",
     "__init__", None),
    ("pressure.full_pressure", "pressure", None, "full_pressure", None),
    ("pressure.restricted_pressure", "pressure", None, "restricted_pressure",
     None),
    ("pressure.fiber_partition_many", "pressure", None,
     "fiber_partition_many", _fiber_counters),
    ("pressure.growth_rate", "pressure", None, "growth_rate", None),
    ("quotients.ball", "quotients", "Quotient", "ball",
     lambda r: {"elements": len(r)}),
    ("quotients.period", "quotients", "Quotient", "period", None),
    ("quotients.first_return_words", "quotients", "Quotient",
     "first_return_words", None),
    ("potentials.combine", "potentials", None, "combine", None),
    ("diagnostics.amenability_report", "diagnostics", None,
     "amenability_report", None),
    ("diagnostics.half_bound_check", "diagnostics", None, "half_bound_check",
     None),
    ("diagnostics.pressure_inequality_check", "diagnostics", None,
     "pressure_inequality_check", None),
    ("diagnostics.divergence_probe", "diagnostics", None, "divergence_probe",
     None),
    ("diagnostics.symmetric_on_average_statistic", "diagnostics", None,
     "symmetric_on_average_statistic", None),
    ("diagnostics.gibbs_verify", "diagnostics", None, "gibbs_verify", None),
    ("config.load_config", "config", None, "load_config", None),
    ("cli.main", "cli", None, "main", None),
]

# Per-layer metrics, named <span>.<kind>: "calls" counts spans, "self_s"
# sums the thread CPU time of a span minus its direct children's (so time
# spent waiting for the interpreter lock under the CLI's thread pool is not
# counted), "s" sums wall durations, and any other kind sums that counter.
# "s" is used where the work runs on pool threads, off the span's own.
PER_LAYER = {
    "spectra.free_energy.calls": "count",
    "spectra.free_energy.evaluations": "count",
    "spectra.evals_per_point": "evals/point",
    "spectra.free_energy.self_s": "s",
    "spectra.free_energy_curve.s": "s",
    "spectra.legendre.self_s": "s",
    "pressure.perron_eigen.calls": "count",
    "pressure.perron_eigen.self_s": "s",
    "pressure.perron_eigen.iterations": "count",
    "pressure.TransferMatrix.calls": "count",
    "pressure.TransferMatrix.self_s": "s",
    "pressure.LiftedTransferMatrix.calls": "count",
    "pressure.LiftedTransferMatrix.self_s": "s",
    "pressure.full_pressure.calls": "count",
    "pressure.restricted_pressure.calls": "count",
    "pressure.restricted_pressure.self_s": "s",
    "pressure.fiber_partition_many.calls": "count",
    "pressure.fiber_partition_many.self_s": "s",
    "pressure.fiber_partition_many.lengths": "count",
    "pressure.fiber_partition_many.log_mode_calls": "count",
    "pressure.growth_rate.calls": "count",
    "pressure.growth_rate.self_s": "s",
    "quotients.ball.calls": "count",
    "quotients.ball.self_s": "s",
    "quotients.ball.elements": "count",
    "quotients.period.self_s": "s",
    "quotients.first_return_words.self_s": "s",
    "potentials.combine.calls": "count",
    "potentials.combine.self_s": "s",
    "diagnostics.amenability_report.s": "s",
    "diagnostics.half_bound_check.s": "s",
    "diagnostics.pressure_inequality_check.s": "s",
    "diagnostics.divergence_probe.s": "s",
    "diagnostics.symmetric_on_average_statistic.s": "s",
    "diagnostics.gibbs_verify.s": "s",
    "config.load_config.self_s": "s",
    "cli.main.self_s": "s",
}


class Tracer:
    """Records spans around the TARGETS calls while installed."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counters=None):
        """fn wrapped to record one span per call. Spans nest through a
        per-thread stack, so pool workers never see another thread's open
        span as their parent; list.append and next() on a count are atomic
        under the interpreter lock."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"trace": self.trace_id, "span": next(self._ids),
                    "parent": stack[-1]["span"] if stack else None,
                    "name": name, "thread": threading.get_ident(),
                    "start": time.perf_counter()}
            stack.append(span)
            cpu = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["cpu"] = time.thread_time() - cpu
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counters is not None:
                span["counters"] = counters(result)
            return result

        traced.traced_span = name
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        importlib.import_module("freeshift.cli")    # loads every layer
        by_id = {}
        for name, modname, cls, attr, counters in TARGETS:
            module = sys.modules[f"freeshift.{modname}"]
            owner = getattr(module, cls) if cls else module
            original = vars(owner)[attr]
            wrapper = self.wrap(name, original, counters)
            self._patch(owner, attr, wrapper)
            if cls is None:
                by_id[id(original)] = (original, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname != "freeshift" and not modname.startswith("freeshift."):
                continue
            for key, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, hit[1])

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(paths):
    spans = []
    for path in paths:
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def span_totals(spans):
    """span name -> calls, wall seconds ("s"), self CPU seconds ("self_s")
    and summed counters. Self time is a span's thread CPU time minus its
    direct children's; children nest on the parent's thread, so they never
    overlap one another."""
    child_cpu = {}
    for s in spans:
        if s["parent"] is not None:
            parent = (s["trace"], s["parent"])
            child_cpu[parent] = child_cpu.get(parent, 0.0) + s["cpu"]
    totals = {}
    for s in spans:
        agg = totals.setdefault(s["name"], {"calls": 0, "s": 0.0,
                                            "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += s["end"] - s["start"]
        agg["self_s"] += s["cpu"] - child_cpu.get((s["trace"], s["span"]),
                                                  0.0)
        for counter, value in s.get("counters", {}).items():
            agg[counter] = agg.get(counter, 0) + value
    return totals


def layer_metrics(spans):
    """Every PER_LAYER metric over ``spans`` (zero for a layer that was
    never called)."""
    totals = span_totals(spans)
    out = {}
    for metric in PER_LAYER:
        if metric == "spectra.evals_per_point":
            fe = totals.get("spectra.free_energy", {})
            out[metric] = fe.get("evaluations", 0) / fe["calls"] \
                if fe.get("calls") else 0.0
            continue
        span_name, kind = metric.rsplit(".", 1)
        out[metric] = totals.get(span_name, {}).get(kind, 0)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run one freeshift CLI invocation with layer spans")
    parser.add_argument("--spans", required=True,
                        help="JSON-lines file the spans are appended to")
    parser.add_argument("--trace-id", required=True,
                        help="identifier shared by this invocation's spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER,
                        help="-- followed by the freeshift CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    tracer = Tracer(args.trace_id)
    tracer.install()
    try:
        return sys.modules["freeshift.cli"].main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
