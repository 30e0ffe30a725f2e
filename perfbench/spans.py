"""In-memory span recorder for the vodsim benchmark.

The tracer wraps vodsim's public entry points from outside the package: it
rebinds module and class attributes to wrappers that record one span per call
(name, start, end, parent).  Spans stay in memory until the run ends.  A
layer's self time is its span's duration minus the durations of its direct
children, so nested layers are never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

from workloads import STRATEGIES, metric_key

# Span kinds every workload must produce; a kind with zero calls means the
# wrapper no longer sits on the simulation path (for example because a
# refactor rebound `vodsim.engine.make_allocator`), so its numbers would read 0.
REQUIRED_SPANS = (
    "engine.run",
    "engine.World.step",
    "behavior.sample_slots",
    "behavior.hazard_at",
    "metrics.aggregate",
    "arrivals.generate",
) + tuple(f"strategy.alloc.{s}" for s in STRATEGIES)
REQUIRED_CLI_SPANS = ("cli.main", "arrivals.load_trace", "metrics.csv_row")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, name: str, fn, count=None):
        """Return `fn` recording a span per call; `count(counts, args, result)`
        updates the counters after the span closes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def install(self, vodsim_modules, runlog) -> None:
        """Rebind the entry points the benchmark measures."""
        arrivals, behavior, cli, engine, metrics = vodsim_modules

        def patch(owner, attr, name, count=None):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), count))

        patch(engine.World, "step", "engine.World.step", _count_step)
        patch(behavior.DepartureModel, "sample_slots", "behavior.sample_slots")
        patch(behavior.DepartureModel, "hazard_at", "behavior.hazard_at")
        patch(engine, "aggregate", "metrics.aggregate", _count_aggregate)
        patch(arrivals.ArrivalProcess, "generate", "arrivals.generate", _count_generate)
        patch(arrivals, "load_trace", "arrivals.load_trace")
        patch(metrics, "csv_row", "metrics.csv_row")
        patch(cli, "main", "cli.main")
        runlog.run_fn = self.wrap("engine.run", runlog.run_fn)
        runlog.tracer = self

        make_allocator = engine.make_allocator

        @functools.wraps(make_allocator)
        def traced_make_allocator(*args, **kwargs):
            name = args[0] if args else kwargs["name"]
            alloc = make_allocator(*args, **kwargs)
            return self.wrap(f"strategy.alloc.{name.lower()}", alloc, _count_alloc)

        engine.make_allocator = traced_make_allocator

    def mark(self) -> int:
        """Start a new table: reset counters and return the first span index."""
        self.counts = Counter()
        return len(self.names)

    def layer_metrics(self, first: int, cli: bool) -> dict[str, float]:
        """Per-layer metrics over the spans recorded since `mark()`."""
        end = len(self.names)
        dur = np.array(self.ends[first:end], dtype=np.int64) - np.array(
            self.starts[first:end], dtype=np.int64
        )
        parents = np.array(self.parents[first:end], dtype=np.int64) - first
        names = np.array(self.names[first:end], dtype=object)
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=dur.size)
        self_ns = dur - child

        missing = [
            n for n in REQUIRED_SPANS + (REQUIRED_CLI_SPANS if cli else ()) if not (names == n).any()
        ]
        if missing:
            raise RuntimeError(f"trace self-check: no calls recorded for {', '.join(missing)}")

        def self_s(*kinds):
            return float(self_ns[np.isin(names, kinds)].sum()) / 1e9

        def pct_us(kinds, q):
            return float(np.percentile(dur[np.isin(names, kinds)], q)) / 1e3

        allocs = tuple(f"strategy.alloc.{s}" for s in STRATEGIES)
        c = self.counts
        out = {f"strategy.alloc_s.{metric_key(s)}": self_s(f"strategy.alloc.{s}") for s in STRATEGIES}
        out.update({
            "strategy.alloc_us_p50": pct_us(allocs, 50),
            "strategy.alloc_us_p99": pct_us(allocs, 99),
            "strategy.users": c["strategy.users"],
            "strategy.binding_share": c["strategy.binding"] / c["strategy.calls"],
            "engine.step_self_s": self_s("engine.World.step"),
            "engine.step_us_p50": pct_us(("engine.World.step",), 50),
            "engine.step_us_p99": pct_us(("engine.World.step",), 99),
            "engine.session_slots": c["engine.session_slots"],
            "engine.departures": c["engine.departures"],
            "engine.run_self_s": self_s("engine.run"),
            "behavior.sample_slots_s": self_s("behavior.sample_slots"),
            "behavior.hazard_at_s": self_s("behavior.hazard_at"),
            "metrics.aggregate_s": self_s("metrics.aggregate"),
            "metrics.sessions": c["metrics.sessions"],
            "arrivals.s": self_s("arrivals.generate", "arrivals.load_trace"),
            "arrivals.count": c["arrivals.count"],
            "cli.self_s": self_s("cli.main"),
        })
        return out

    def write(self, path) -> None:
        """Dump every span as `index<TAB>name<TAB>start_ns<TAB>end_ns<TAB>parent`."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents)):
                fh.write(f"{i}\t{row[0]}\t{row[1]}\t{row[2]}\t{row[3]}\n")


def _count_step(counts, args, ledger):
    counts["engine.session_slots"] += ledger.active
    counts["engine.departures"] += ledger.departures


def _count_alloc(counts, args, rates):
    pool, capacity = args
    counts["strategy.calls"] += 1
    counts["strategy.users"] += len(rates)
    if float(rates.sum()) >= capacity * (1.0 - 1e-9):
        counts["strategy.binding"] += 1


def _count_aggregate(counts, args, report):
    counts["metrics.sessions"] += len(args[0])


def _count_generate(counts, args, arrivals):
    counts["arrivals.count"] += int(arrivals.sum())
