"""In-memory span tracing of the banach_sgd layers, and the per-layer metrics drawn from it.

`instrument(tracer)` rebinds the public functions listed in FUNCTIONS in every
banach_sgd module that imported them, and wraps the METHODS on their classes,
so each call records a span: name, start, end, parent and run id.  Spans stay
in memory until `Tracer.write_csv` writes them out, gzip-compressed.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import itertools
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

PACKAGE = "banach_sgd"

# (module, function) -> span name.  The inverse duality map shares the name of
# the forward map: a span nested directly in a span of the same name is folded
# into it, so the forward map the inverse delegates to is not counted twice.
FUNCTIONS = {
    ("spaces", "duality_map"): "spaces.duality_map",
    ("spaces", "inverse_duality_map"): "spaces.duality_map",
    ("spaces", "lr_norm"): "spaces.lr_norm",
    ("spaces", "bregman_distance"): "spaces.bregman_distance",
    ("operators", "build_radon_operator"): "operators.build_radon_operator",
    ("operators", "partition_rows"): "operators.partition_rows",
    ("operators", "boyd_operator_norm"): "operators.boyd",
    ("solver", "run"): "solver.run",
    ("solver", "sgd_step"): "solver.step",
    ("solver", "landweber_step"): "solver.step",
    ("noise", "corrupt"): "noise.corrupt",
    ("diagnostics", "monte_carlo_mean"): "diagnostics.monte_carlo_mean",
    ("diagnostics", "delta_metrics"): "diagnostics.delta_metrics",
    ("diagnostics", "minimum_norm_solution"): "diagnostics.minimum_norm_solution",
    ("cli", "write_pgm"): "cli.write_pgm",
}

# (module, class, method) -> span name
METHODS = {
    ("operators", "BlockOperator", "apply"): "operators.apply",
    ("operators", "BlockOperator", "apply_adjoint"): "operators.apply_adjoint",
    ("operators", "BlockOperator", "apply_all"): "operators.apply_all",
    ("diagnostics", "ConvergenceRecord", "to_csv"): "diagnostics.to_csv",
}

# Per-layer metrics of the traced run, in the order BENCHMARK.json lists them:
# (name, unit, better).  Each value is per experiment, the median over the
# traced experiments of a run.  A layer a workload never calls reads 0.
LAYER_METRICS = [
    ("spaces.duality_map.calls", "count", "lower"),
    ("spaces.duality_map.self_s", "s", "lower"),
    ("spaces.lr_norm.calls", "count", "lower"),
    ("spaces.lr_norm.self_s", "s", "lower"),
    ("spaces.bregman_distance.self_s", "s", "lower"),
    ("operators.apply.calls", "count", "lower"),
    ("operators.apply.self_s", "s", "lower"),
    ("operators.apply_adjoint.calls", "count", "lower"),
    ("operators.apply_adjoint.self_s", "s", "lower"),
    ("operators.apply_all.calls", "count", "lower"),
    ("operators.apply_all.self_s", "s", "lower"),
    ("operators.build_radon_operator.s", "s", "lower"),
    ("operators.partition_rows.s", "s", "lower"),
    ("operators.boyd.self_s", "s", "lower"),
    ("operators.boyd.iterations", "count", "lower"),
    ("operators.boyd.converged_frac", "1", "higher"),
    ("operators.stored_bytes", "bytes", "lower"),
    ("operators.nnz_frac", "1", "higher"),
    ("solver.steps", "count", "lower"),
    ("solver.step.self_s", "s", "lower"),
    ("solver.step_us.p50", "us", "lower"),
    ("solver.step_us.p99", "us", "lower"),
    ("solver.run.outside_steps_s", "s", "lower"),
    ("noise.corrupt.self_s", "s", "lower"),
    ("diagnostics.monte_carlo_mean.s", "s", "lower"),
    ("diagnostics.delta_metrics.self_s", "s", "lower"),
    ("diagnostics.minimum_norm_solution.s", "s", "lower"),
    ("diagnostics.to_csv.s", "s", "lower"),
    ("cli.write_pgm.s", "s", "lower"),
    ("io.bytes_written", "bytes", "lower"),
    ("trace.overhead_frac", "1", "lower"),
]

SPAN_COLUMNS = ("run_id", "span_id", "parent_id", "name", "start_ns", "end_ns", "self_ns")


class Tracer:
    """Collects spans and counters; `run_id` tags everything recorded with the current experiment."""

    def __init__(self):
        self.run_id = 0
        self.spans = []  # tuples in SPAN_COLUMNS order
        self.counters = defaultdict(float)  # (run_id, name) -> sum
        self._stack = []  # open spans: [span_id, name, start_ns, child_ns]
        self._ids = itertools.count(1)

    def _open(self, name):
        frame = [next(self._ids), name, perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = perf_counter_ns()
        self._stack.pop()
        duration = end - frame[2]
        parent_id = 0
        if self._stack:
            parent = self._stack[-1]
            parent[3] += duration
            parent_id = parent[0]
        self.spans.append((self.run_id, frame[0], parent_id, frame[1], frame[2], end, duration - frame[3]))

    @contextmanager
    def span(self, name):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, name, value):
        self.counters[(self.run_id, name)] += value

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack and self._stack[-1][1] == name:
                return fn(*args, **kwargs)
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def write_csv(self, path):
        with gzip.open(path, "wt", newline="", encoding="ascii") as f:
            writer = csv.writer(f)
            writer.writerow(SPAN_COLUMNS)
            writer.writerows(self.spans)


def _count_boyd(tracer, estimate):
    tracer.count("operators.boyd.iterations", estimate.iterations)
    tracer.count("operators.boyd.converged", bool(estimate.converged))


ON_RESULT = {"operators.boyd": _count_boyd}


@contextmanager
def instrument(tracer: Tracer):
    """Route every FUNCTIONS and METHODS call through `tracer` until the block exits."""
    undo = []
    try:
        for module, *_ in (*FUNCTIONS, *METHODS):
            importlib.import_module(f"{PACKAGE}.{module}")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for (module, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            traced = tracer.wrap(name, original, ON_RESULT.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        undo.append((m, key, value))
                        setattr(m, key, traced)
        for (module, cls, attr), name in METHODS.items():
            klass = getattr(sys.modules[f"{PACKAGE}.{module}"], cls)
            original = klass.__dict__[attr]
            undo.append((klass, attr, original))
            setattr(klass, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for obj, key, value in reversed(undo):
            setattr(obj, key, value)


def layer_metrics(tracer: Tracer, run_id: int) -> dict:
    """The span-derived LAYER_METRICS of one experiment (the rest come from the runner)."""
    spans = [s for s in tracer.spans if s[0] == run_id]
    calls = defaultdict(int)
    total_ns = defaultdict(int)
    self_ns = defaultdict(int)
    for _, _, _, name, start, end, own in spans:
        calls[name] += 1
        total_ns[name] += end - start
        self_ns[name] += own
    steps = {s[1]: s for s in spans if s[3] == "solver.step"}
    step_us = np.array([(s[5] - s[4]) / 1e3 for s in steps.values()])
    in_steps = defaultdict(int)  # solver.run span id -> time in its direct step children
    for s in steps.values():
        in_steps[s[2]] += s[5] - s[4]
    outside = sum(s[5] - s[4] - in_steps[s[1]] for s in spans if s[3] == "solver.run")
    n_boyd = calls["operators.boyd"]
    out = {
        "operators.boyd.iterations": tracer.counters[(run_id, "operators.boyd.iterations")],
        "operators.boyd.converged_frac":
            tracer.counters[(run_id, "operators.boyd.converged")] / n_boyd if n_boyd else 0.0,
        "solver.steps": len(steps),
        "solver.step_us.p50": float(np.percentile(step_us, 50)) if step_us.size else 0.0,
        "solver.step_us.p99": float(np.percentile(step_us, 99)) if step_us.size else 0.0,
        "solver.run.outside_steps_s": outside / 1e9,
    }
    for metric, _, _ in LAYER_METRICS:
        if metric in out:
            continue
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[span]
        elif kind == "self_s":
            out[metric] = self_ns[span] / 1e9
        elif kind == "s":
            out[metric] = total_ns[span] / 1e9
    return out


def nesting_problems(rows) -> list:
    """Spans whose parent does not contain them, or whose self time is negative."""
    by_id = {int(r[1]): r for r in rows}
    problems = []
    for run_id, span_id, parent_id, name, start, end, own in rows:
        if int(own) < 0 or int(end) < int(start):
            problems.append(f"span {span_id} ({name}): negative duration or self time")
        if int(parent_id):
            p = by_id.get(int(parent_id))
            if p is None or p[0] != run_id or not (int(p[4]) <= int(start) and int(end) <= int(p[5])):
                problems.append(f"span {span_id} ({name}) lies outside its parent {parent_id}")
    return problems
