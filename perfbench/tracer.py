"""Layer spans for one efq CLI stage, recorded from outside the program.

Run as a script, this is the traced stage process::

    python3 -X importtime perfbench/tracer.py SPANS.json design --config C --out O

It imports efq, replaces the layer functions below with wrappers in every efq
module that looks them up, runs ``efq.cli.main`` on the remaining arguments
and writes the spans and counts to SPANS.json. Each span is (id, parent id,
name, start, end, thread); the stage itself is span 0. Spans stay in memory
until the stage ends.

``layer_metrics`` reduces the span files of a workload to the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
from time import perf_counter

# (module, function) pairs wrapped in the traced run, named "<module>.<name>"
# in the spans; cli's writers appear as cli.write_csv and cli.write_json.
LAYERS = (
    ("spectral", "band_integral"),
    ("design", "solve_min_mse"),
    ("fitting", "norm_constrained_fir"),
    ("fitting", "yule_walker_fit"),
    ("fitting", "evaluate_fit"),
    ("simulate", "gen_input"),
    ("simulate", "run_feedback_loop"),
    ("simulate", "summarize_run"),
    ("cli", "_write_csv"),
    ("cli", "_write_json"),
)
STAGE_SPAN = "cli.main"
# A lane has collapsed once COLLAPSE_MIN_OVERLOADS of COLLAPSE_WINDOW
# consecutive samples overload; the onset is the start of the first such window.
COLLAPSE_WINDOW = 1000
COLLAPSE_MIN_OVERLOADS = 100


def collapse_onset(overload) -> int | None:
    # numpy is imported here, not at the top, so that the traced process
    # times the whole of efq's import, numpy included.
    import numpy as np

    flags = np.asarray(overload, dtype=np.int64)
    if len(flags) < COLLAPSE_WINDOW:
        return None
    csum = np.concatenate(([0], np.cumsum(flags)))
    hits = np.flatnonzero(csum[COLLAPSE_WINDOW:] - csum[:-COLLAPSE_WINDOW] >= COLLAPSE_MIN_OVERLOADS)
    return int(hits[0]) if hits.size else None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self.lanes: list[tuple[int, int | None]] = []  # (samples, collapse onset)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = [0]  # pool threads hang their spans off the stage
        return self._local.stack

    def wrap(self, name: str, fn, on_return=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, threading.get_ident()))
            if on_return is not None:
                on_return(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def _loop_done(self, arguments, traces) -> None:
        self.lanes.append((len(traces.x), collapse_onset(traces.overload)))
        self.add("simulate.overloads", int(traces.overload.sum()))

    def _written(self, arguments, result) -> None:
        self.add("cli.artifact_bytes", arguments["path"].stat().st_size)
        if "rows" in arguments:
            self.add("cli.write_csv.rows", len(arguments["rows"]))

    def install(self, package) -> list[str]:
        """Wrap every layer function that exists; return those missing."""
        hooks = {"run_feedback_loop": self._loop_done, "_write_csv": self._written, "_write_json": self._written}
        missing = []
        modules = [m for n, m in sys.modules.items() if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for module_name, fn_name in LAYERS:
            original = getattr(getattr(package, module_name, None), fn_name, None)
            if original is None:
                missing.append(f"{module_name}.{fn_name}")
                continue
            traced = self.wrap(f"{module_name}.{fn_name.lstrip('_')}", original, hooks.get(fn_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
        return missing

    def run_stage(self, main, argv) -> int:
        start = perf_counter()
        try:
            return main(argv)
        finally:
            self.spans.append((0, None, STAGE_SPAN, start, perf_counter(), threading.get_ident()))


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(stages: list[dict], overhead_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from the span files of
    one traced pass over a workload's stages."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    solve_self = 0.0
    integrals_in_solve = 0
    stage_wall = 0.0
    stage_self = 0.0
    workers = 1
    lanes = []
    counts: dict[str, float] = {}
    for stage in stages:
        spans = {s[0]: s for s in stage["spans"]}
        child_time: dict[int, float] = {}
        for span_id, parent, name, start, end, _ in spans.values():
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        for span_id, parent, name, start, end, _ in spans.values():
            if name == "design.solve_min_mse":
                solve_self += (end - start) - child_time.get(span_id, 0.0)
            elif name == "spectral.band_integral":
                while parent:
                    if spans[parent][2] == "design.solve_min_mse":
                        integrals_in_solve += 1
                        break
                    parent = spans[parent][1]
        root = spans[0]
        stage_wall += root[4] - root[3]
        inner = [(max(s[3], root[3]), min(s[4], root[4])) for s in spans.values() if s[0] != 0]
        stage_self += (root[4] - root[3]) - _union_length([iv for iv in inner if iv[1] > iv[0]])
        pool_threads = {s[5] for s in spans.values() if s[5] != root[5]}
        workers = max(workers, len(pool_threads))
        lanes.extend(stage["lanes"])
        for name, value in stage["counts"].items():
            counts[name] = counts.get(name, 0) + value

    lane_samples = sum(n for n, _ in lanes)
    useful = sum(n if onset is None else onset for n, onset in lanes)
    solves = calls.get("design.solve_min_mse", 0)
    integrals = calls.get("spectral.band_integral", 0)
    loop = "simulate.run_feedback_loop"
    metrics = {
        "startup.import_efq_s": (statistics.median(s["import_efq_s"] for s in stages), "s"),
        "startup.import_scipy_signal_s": (statistics.median(s["import_scipy_signal_s"] for s in stages), "s"),
        "spectral.band_integral.calls": (integrals, "count"),
        "spectral.band_integral.busy_s": (busy.get("spectral.band_integral", 0.0), "s"),
        "spectral.band_integral.us_per_call": (
            1e6 * busy["spectral.band_integral"] / integrals if integrals else 0.0,
            "us",
        ),
        "design.solve_min_mse.calls": (solves, "count"),
        "design.solve_min_mse.self_s": (solve_self, "s"),
        "design.integrals_per_solve": (integrals_in_solve / solves if solves else 0.0, "ratio"),
    }
    for name in ("fitting.norm_constrained_fir", "fitting.yule_walker_fit", "fitting.evaluate_fit"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.busy_s"] = (busy.get(name, 0.0), "s")
    metrics.update(
        {
            f"{loop}.calls": (calls.get(loop, 0), "count"),
            f"{loop}.lane_samples": (lane_samples, "count"),
            f"{loop}.ns_per_sample": (1e9 * busy.get(loop, 0.0) / lane_samples if lane_samples else 0.0, "ns"),
            "simulate.gen_input.busy_s": (busy.get("simulate.gen_input", 0.0), "s"),
            "simulate.summarize_run.busy_s": (busy.get("simulate.summarize_run", 0.0), "s"),
            "simulate.collapsed_lanes": (sum(1 for _, onset in lanes if onset is not None), "count"),
            "simulate.useful_sample_frac": (useful / lane_samples if lane_samples else 1.0, "ratio"),
            "simulate.overloads": (counts.get("simulate.overloads", 0), "count"),
            "cli.write_csv.busy_s": (busy.get("cli.write_csv", 0.0), "s"),
            "cli.write_csv.rows": (counts.get("cli.write_csv.rows", 0), "count"),
            "cli.write_json.busy_s": (busy.get("cli.write_json", 0.0), "s"),
            "cli.artifact_bytes": (counts.get("cli.artifact_bytes", 0), "bytes"),
            "cli.pool_workers": (workers, "count"),
            "cli.stage_wall_s": (stage_wall, "s"),
            "cli.stage_self_s": (stage_self, "s"),
            "trace.overhead_s": (overhead_s, "s"),
        }
    )
    return metrics


def scipy_signal_import_s(importtime_log: str) -> float:
    """Time spent importing scipy.signal, from ``-X importtime`` output: the
    cumulative times of scipy.signal modules not imported by another one.

    The log lists each module after the modules it imported, indented one
    level deeper, so reading it backwards meets every parent first.
    """

    def in_scope(name: str) -> bool:
        return name == "scipy.signal" or name.startswith("scipy.signal.")

    total_us = 0
    parents: list[tuple[int, str]] = []
    for line in reversed(importtime_log.splitlines()):
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        depth = len(fields[2]) - len(fields[2].lstrip())
        name = fields[2].strip()
        while parents and parents[-1][0] >= depth:
            parents.pop()
        if in_scope(name) and not any(in_scope(p) for _, p in parents):
            total_us += int(fields[1])
        parents.append((depth, name))
    return total_us / 1e6


def main(argv: list[str]) -> int:
    spans_path, efq_argv = argv[0], argv[1:]
    start = perf_counter()
    import efq
    import efq.cli

    import_efq_s = perf_counter() - start
    tracer = Tracer()
    missing = tracer.install(efq)
    try:
        return tracer.run_stage(efq.cli.main, efq_argv)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(
                {
                    "import_efq_s": import_efq_s,
                    "unwrapped": missing,
                    "spans": tracer.spans,
                    "counts": tracer.counts,
                    "lanes": tracer.lanes,
                },
                handle,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
