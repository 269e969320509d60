"""Per-layer tracing: spans at the program's module boundaries, kept in memory.

No file of the program changes.  `Tracer.install` rebinds, in each calling
module, the public callables it imported from another layer (and wraps the
constructors of `NewmanPolynomial` and `KeepMask` on their classes);
`Tracer.uninstall` puts the originals back.  A span is (name, start, end,
parent, run id), where the run id is the index of the round that made it.
A span's self time is its duration minus the durations of its children;
children never overlap, because the program runs in one thread.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

SMALL_DEGREE = 2 ** 7   # poly.square band `small`: N < 2**7
LARGE_DEGREE = 2 ** 15  # poly.square band `large`: N >= 2**15

# Every per-layer metric, as (name, unit, better).  Span metrics are
# `<span>.<stat>`; the rest are counts taken at the same boundaries.  All
# values except percentiles are means per traced round.
LAYER_METRICS: list[tuple[str, str, str]] = [
    *[(f"poly.square.{band}.{stat}", unit, "lower")
      for band in ("small", "mid", "large")
      for stat, unit in (("calls", "count"), ("busy_s", "s"), ("p50_us", "us"), ("p99_us", "us"))],
    ("poly.square.l1sq_sum", "count", "lower"),
    ("poly.square.coeffs_out", "count", "lower"),
    ("poly.construct.calls", "count", "lower"),
    ("poly.construct.busy_s", "s", "lower"),
    ("sparsify.keepmask.busy_s", "s", "lower"),
    ("sparsify.alpha_of.busy_s", "s", "lower"),
    ("sparsify.sample.calls", "count", "higher"),
    ("sparsify.sample.busy_s", "s", "lower"),
    ("sparsify.sample.self_s", "s", "lower"),
    ("sparsify.sample.p50_ms", "ms", "lower"),
    ("sparsify.sample.p99_ms", "ms", "lower"),
    ("sparsify.empty_trials", "count", "lower"),
    ("sparsify.clean_trials", "count", "higher"),
    ("experiment.run_campaign.busy_s", "s", "lower"),
    ("experiment.run_campaign.self_s", "s", "lower"),
    ("experiment.record_from_trial.busy_s", "s", "lower"),
    ("experiment.emit_results.busy_s", "s", "lower"),
    ("experiment.emit_results.bytes", "B", "lower"),
    ("concentration.busy_s", "s", "lower"),
    ("search.exhaustive.busy_s", "s", "lower"),
    ("search.exhaustive.self_s", "s", "lower"),
    ("search.exhaustive.candidates", "count", "lower"),
    ("search.exhaustive.reversal_skipped", "count", "higher"),
    ("search.exhaustive.density_rejected", "count", "higher"),
    ("search.local.busy_s", "s", "lower"),
    ("search.local.self_s", "s", "lower"),
    ("search.local.steps", "count", "higher"),
    ("search.local.density_rejected", "count", "lower"),
    ("search.local.improvements", "count", "higher"),
    ("search.local.best_product", "1", "lower"),
    ("search.metrics.calls", "count", "lower"),
    ("search.metrics.busy_s", "s", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("process.minor_faults", "count", "lower"),
    ("process.sys_s", "s", "lower"),
    ("trace.rounds", "count", "higher"),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
]


def square_band(degree: int) -> str:
    if degree < SMALL_DEGREE:
        return "small"
    return "large" if degree >= LARGE_DEGREE else "mid"


# Hooks that turn a call's arguments and result into counts.

def _count_square(counts: Counter, args: tuple, result) -> None:
    p = args[0]
    counts["poly.square.l1sq_sum"] += p.l1 * p.l1
    counts["poly.square.coeffs_out"] += len(result)


def _count_sample(counts: Counter, args: tuple, result) -> None:
    counts["sparsify.empty_trials"] += result.is_empty
    counts["sparsify.clean_trials"] += result.flags.clean


def _count_emit(counts: Counter, args: tuple, result) -> None:
    out_dir = Path(result["trials"])
    counts["experiment.emit_results.bytes"] += sum(
        entry.stat().st_size for entry in out_dir.iterdir() if entry.is_file()
    )


def _count_exhaustive(counts: Counter, args: tuple, result) -> None:
    meta = result.metadata
    counts["search.exhaustive.candidates"] += meta.candidates_examined
    counts["search.exhaustive.reversal_skipped"] += meta.reversal_skipped
    counts["search.exhaustive.density_rejected"] += meta.density_rejected


def _count_local(counts: Counter, args: tuple, result) -> None:
    spec, meta = args[0], result.metadata
    walks = sum(1 for d in range(spec.min_degree, spec.max_degree + 1) if d > 1)
    counts["search.local.steps"] += (spec.iteration_budget // 4) * 4 * walks
    counts["search.local.density_rejected"] += meta.density_rejected
    counts["search.local.improvements"] += len(meta.trajectory)
    counts["search.local.best_product"] += float(result.report.product)


def _bindings(nl) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, span name or name function, count hook) per boundary."""
    cli, experiment, sparsify, search, poly = nl.cli, nl.experiment, nl.sparsify, nl.search, nl.poly

    def square_name(p, *_):
        return f"poly.square.{square_band(p.degree)}"

    return [
        (cli, "run_campaign", "experiment.run_campaign", None),
        (cli, "emit_results", "experiment.emit_results", _count_emit),
        (cli, "exhaustive_search", "search.exhaustive", _count_exhaustive),
        (cli, "local_search", "search.local", _count_local),
        (cli, "square", square_name, _count_square),
        (cli, "sample", "sparsify.sample", _count_sample),
        (experiment, "sample", "sparsify.sample", _count_sample),
        (experiment, "record_from_trial", "experiment.record_from_trial", None),
        (experiment, "square", square_name, _count_square),
        (experiment, "alpha_of", "sparsify.alpha_of", None),
        (experiment, "bad_event_E_bound", "concentration", None),
        (sparsify, "square", square_name, _count_square),
        (sparsify, "alpha_of", "sparsify.alpha_of", None),
        (sparsify, "choose_epsilon", "concentration", None),
        (search, "metrics", "search.metrics", None),
        (poly, "square", square_name, _count_square),
        (poly.NewmanPolynomial, "__init__", "poly.construct", None),
        (sparsify.KeepMask, "__init__", "sparsify.keepmask", None),
    ]


class Tracer:
    """Records spans and counts while installed; inert once uninstalled."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.runs: list[int] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter_ns()
            self.starts[index] = start
            self._stack.pop()

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name(*args) if callable(name) else name
            result = self.call(span, fn, args, kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self, nl) -> None:
        for owner, attr, name, hook in _bindings(nl):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def count_process(self, before, after) -> None:
        """Add the page faults and kernel CPU time between two getrusage() readings."""
        self.counts["process.minor_faults"] += after.ru_minflt - before.ru_minflt
        self.counts["process.sys_s"] += after.ru_stime - before.ru_stime

    def write(self, path: Path) -> None:
        """Write every span as CSV: name, start_ns, end_ns, parent, run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("name,start_ns,end_ns,parent,run\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.runs):
                handle.write(",".join(map(str, row)) + "\n")
        tmp.replace(path)

    def layer_metrics(self, traced_rounds: list[float], untraced_rounds: list[float]) -> dict[str, float]:
        """Every LAYER_METRICS value; layers a workload never calls read 0."""
        rounds = len(traced_rounds)
        durations = (np.asarray(self.ends, dtype=np.int64) - np.asarray(self.starts, dtype=np.int64)) / 1e9
        parents = np.asarray(self.parents, dtype=np.int64)
        child = parents >= 0
        child_time = np.bincount(parents[child], weights=durations[child], minlength=len(durations))
        self_times = durations - child_time
        by_name: dict[str, list[int]] = {}
        for index, name in enumerate(self.names):
            by_name.setdefault(name, []).append(index)
        values: dict[str, float] = {k: v / rounds for k, v in self.counts.items()}
        for name, indices in by_name.items():
            d = durations[indices]
            values[f"{name}.calls"] = len(indices) / rounds
            values[f"{name}.busy_s"] = float(d.sum()) / rounds
            values[f"{name}.self_s"] = float(self_times[indices].sum()) / rounds
            p50, p99 = np.percentile(d, [50, 99])
            values[f"{name}.p50_us"], values[f"{name}.p99_us"] = p50 * 1e6, p99 * 1e6
            values[f"{name}.p50_ms"], values[f"{name}.p99_ms"] = p50 * 1e3, p99 * 1e3
        root_time = float(durations[~child].sum())
        run_s = statistics.fmean(traced_rounds)
        values["trace.rounds"] = rounds
        values["trace.run_s"] = run_s
        values["trace.untraced_run_s"] = statistics.fmean(untraced_rounds)
        values["trace.overhead_s"] = run_s - values["trace.untraced_run_s"]
        values["trace.self_sum_s"] = float(self_times.sum()) / rounds
        values["trace.unspanned_s"] = (sum(traced_rounds) - root_time) / rounds
        return {name: float(values.get(name, 0.0)) for name, _, _ in LAYER_METRICS}
