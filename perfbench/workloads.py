"""Workload set-up, result tables and output checks for the vodsim benchmark.

Every workload produces the paper's six-strategy result table:

- heavy_poisson: `engine.run` per strategy, Poisson arrivals at rho 0.995,
  C = 1000, L = 300, freeze mode.  Capacity binds every slot, so the
  allocators run their sorting water-fill: this stresses `strategy`.
- trace_unlimited_cli: `cli.main(["run", ...])` on the 7200-slot diurnal
  trace, written to a file, at unlimited capacity.  The allocators mostly
  short-circuit, so the engine's admit/compress/session bookkeeping and
  `metrics.aggregate` dominate; it also covers `cli`, `arrivals.load_trace`
  and CSV output.

The seed given on the command line sets `SimConfig.seed` and the trace;
vodsim receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vodsim import arrivals, behavior, cli, engine, metrics

MODULES = (arrivals, behavior, cli, engine, metrics)
STRATEGIES = ("sc", "sc+", "be", "eb", "ew", "bb")

HEAVY_RHO = 0.995
HEAVY_SLOTS = 3000
TRACE_SLOTS = 7200
VIDEO_SLOTS = 300

REF_EVERY = 100       # World.step calls between two reference_kernel calls
REF_SLOTS = 6         # slots of work in one reference_kernel call


def metric_key(strategy: str) -> str:
    return strategy.replace("+", "_plus")


@dataclass
class Context:
    """Inputs one workload's tables are built from."""

    workload: str
    model: behavior.DepartureModel
    config: engine.SimConfig | None = None
    process: arrivals.ArrivalProcess | None = None
    rho: float | None = None
    argv: list[str] | None = None   # set for the CLI workload
    csv_path: Path | None = None


def setup(workload: str, seed: int, workdir: Path) -> Context:
    """Build a workload's inputs from its seed (this is what setup_s times)."""
    model = behavior.DepartureModel.synthetic(L=VIDEO_SLOTS)
    if workload == "heavy_poisson":
        estimate = engine.planning_viewing_ratio(model.mean_viewing_ratio, VIDEO_SLOTS)
        lam = engine.load_to_arrival_rate(HEAVY_RHO, 1000.0, VIDEO_SLOTS, 1.0, estimate)
        return Context(
            workload,
            model,
            config=engine.SimConfig(duration=HEAVY_SLOTS, seed=seed),
            process=arrivals.ArrivalProcess.poisson(lam),
            rho=HEAVY_RHO,
        )
    if workload == "trace_unlimited_cli":
        counts = arrivals.diurnal_trace(TRACE_SLOTS, 0.5, 22.0, np.random.default_rng(seed))
        trace_path = workdir / "trace.txt"
        csv_path = workdir / "table.csv"
        arrivals.save_trace(counts, trace_path)
        argv = [
            "run", "--strategy", ",".join(STRATEGIES), "--trace", str(trace_path),
            "--capacity", "unlimited", "--warmup", "600",
            "--seed", str(seed), "--out", str(csv_path),
        ]
        return Context(workload, model, argv=argv, csv_path=csv_path)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class RunRecord:
    """One `engine.run` call as seen from outside, with its output checks."""

    strategy: str
    capacity: float
    slots: int
    seconds: float = math.nan
    ref_s: list[float] = field(default_factory=list)   # reference-kernel calls inside it
    problems: list[str] = field(default_factory=list)
    csv_sha256: str = ""
    ledger_sha256: str = ""


@dataclass
class Table:
    seconds: float
    runs: list[RunRecord]      # every engine.run call, one per strategy
    failed: int
    attempted: int
    problems: list[str]


def check_result(result, capacity: float) -> list[str]:
    """Output checks on one strategy run; returns the violations found."""
    problems = []
    for l in result.ledgers:
        if not math.isinf(capacity) and l.bw_used > capacity * (1.0 + 1e-9):
            problems.append(f"slot {l.slot}: bw_used {l.bw_used} exceeds capacity {capacity}")
            break
    for l in result.ledgers:
        if l.bw_wasted < 0:
            problems.append(f"slot {l.slot}: negative bw_wasted {l.bw_wasted}")
            break
    report = result.report.as_dict()
    for name, value in report.items():
        if not math.isfinite(value):
            problems.append(f"report field {name} is {value}")
    for name in ("percent_user", "freeze_ratio"):
        if not 0.0 <= report[name] <= 1.0:
            problems.append(f"ratio {name} = {report[name]} outside [0, 1]")
    if report["sessions_completed"] <= 0:
        problems.append("no completed sessions")
    return problems


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class RunLog:
    """Stands in for `vodsim.engine.run` (constructing one rebinds it): times
    each call, checks its output and hashes its result row and ledger.  The
    benchmark's own work is kept out of the table time.  With `reference`
    set, it also rebinds `World.step` to time one `reference_kernel` call
    every REF_EVERY slots into the run's record, so the host's speed is
    sampled all through each run; that time is kept out of the run's."""

    def __init__(self, ctx: Context, workdir: Path, reference: bool = False):
        self.ctx = ctx
        self.ledger_path = workdir / "ledger.csv"
        self.run_fn = engine.run
        self.tracer = None
        self.records: list[RunRecord] = []
        self.excluded_s = 0.0
        engine.run = self
        if reference:
            step = engine.World.step

            def sampled_step(world, *args, **kwargs):
                if world.slot % REF_EVERY == REF_EVERY - 1:
                    t0 = time.perf_counter()
                    reference_kernel()
                    self.records[-1].ref_s.append(time.perf_counter() - t0)
                return step(world, *args, **kwargs)

            engine.World.step = sampled_step

    @contextlib.contextmanager
    def _excluded(self):
        """Benchmark work inside a table: kept out of the table time and, when
        traced, in a span of its own so no layer is charged for it."""
        t0 = time.perf_counter()
        with self.tracer.span("bench.check") if self.tracer else contextlib.nullcontext():
            yield
        self.excluded_s += time.perf_counter() - t0

    def __call__(self, config, strategy, process, model):
        rec = RunRecord(strategy, config.server_capacity, config.duration)
        self.records.append(rec)
        t0 = time.perf_counter()
        try:
            result = self.run_fn(config, strategy, process, model)
        except Exception as exc:
            rec.problems.append(f"raised {exc!r}")
            raise
        rec.seconds = time.perf_counter() - t0 - sum(rec.ref_s)
        self.excluded_s += sum(rec.ref_s)
        with self._excluded():
            self._check(rec, result)
        return result

    def _check(self, rec: RunRecord, result) -> None:
        rec.problems += check_result(result, rec.capacity)
        rec.csv_sha256 = _sha256(metrics.csv_row(rec.strategy, self.ctx.rho, result.report))
        engine.export_ledgers(result.ledgers, self.ledger_path)
        rec.ledger_sha256 = hashlib.sha256(self.ledger_path.read_bytes()).hexdigest()

    def table(self, rotate: int = 0) -> Table:
        """Produce the workload's result table once.  Library tables start
        at strategy `rotate`, so that over repeated tables every strategy
        runs early and late alike."""
        self.records = []
        self.excluded_s = 0.0
        if self.ctx.argv:
            seconds, table_problems = self._cli_table()
        else:
            k = rotate % len(STRATEGIES)
            for strategy in STRATEGIES[k:] + STRATEGIES[:k]:
                try:
                    engine.run(self.ctx.config, strategy, self.ctx.process, self.ctx.model)
                except Exception:
                    traceback.print_exc()
            seconds, table_problems = sum(r.seconds for r in self.records), []
        attempted = len(STRATEGIES)
        if table_problems:
            failed = attempted
        else:
            failed = sum(1 for r in self.records if r.problems)
            failed += abs(attempted - len(self.records))
        problems = table_problems + [p for r in self.records for p in r.problems]
        return Table(seconds, self.records, min(failed, attempted), attempted, problems)

    def _cli_table(self) -> tuple[float, list[str]]:
        """Run the CLI once; returns its time and the problems that void the
        whole table (per-run problems go on the run records)."""
        csv_path = self.ctx.csv_path
        csv_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        try:
            code = cli.main(self.ctx.argv)
        except Exception:
            traceback.print_exc()
            code = None
        seconds = time.perf_counter() - t0 - self.excluded_s
        if code != 0:
            return seconds, [f"cli.main returned {code}"]
        lines = csv_path.read_text().splitlines() if csv_path.exists() else []
        if not lines or lines[0] != metrics.CSV_HEADER:
            return seconds, ["CSV output has no header"]
        rows = {line.split(",")[0]: line for line in lines[1:]}
        if len(rows) != len(lines) - 1:
            return seconds, ["CSV output repeats a strategy"]
        width = len(metrics.CSV_HEADER.split(","))
        for rec in self.records:
            line = rows.pop(rec.strategy, None)
            if line is None:
                rec.problems.append("no CSV row")
                continue
            fields = line.split(",")
            try:
                ok = len(fields) == width and all(math.isfinite(float(f)) for f in fields[2:])
            except ValueError:
                ok = False
            if not ok:
                rec.problems.append(f"unparseable CSV row {line!r}")
            elif _sha256(line) != rec.csv_sha256:
                rec.problems.append("CSV row differs from the run's report")
        if rows:
            return seconds, [f"CSV rows without a run: {sorted(rows)}"]
        return seconds, []


@dataclass
class _RefRecord:
    arrival: int
    play: float
    waste: float


_REF_RNG = np.random.default_rng(0)
_REF_POOL = {
    "buffer": _REF_RNG.random(1000) * 4.0,
    "played": _REF_RNG.integers(0, 300, 1000),
    "target": _REF_RNG.integers(1, 300, 1000),
    "downloaded": _REF_RNG.random(1000) * 300.0,
    "arrival": np.arange(1000),
}


def reference_kernel() -> float:
    """Fixed work shaped like `World.step` on a pool of about 1000 sessions,
    over REF_SLOTS slots: admit by concatenation, a sort-based water-fill of
    a binding capacity, buffer and state updates through masks, and
    departures that build small records and compress the arrays.  It starts
    from the same pool on every call and never changes with vodsim, so its
    time follows the host's speed alone."""
    pool = dict(_REF_POOL)
    records = []
    for slot in range(REF_SLOTS):
        for name, fill in (("buffer", 0.0), ("played", 0), ("downloaded", 0.0)):
            pool[name] = np.concatenate([pool[name], np.full(3, fill, dtype=pool[name].dtype)])
        pool["target"] = np.concatenate([pool["target"], np.full(3, 150)])
        pool["arrival"] = np.concatenate([pool["arrival"], np.full(3, 1000 + slot)])
        n = pool["buffer"].size
        caps = np.full(n, 2.0)
        floors = pool["buffer"]
        points = np.concatenate([floors, floors + caps])
        slopes = np.concatenate([np.ones(n), -np.ones(n)])
        order = np.argsort(points, kind="stable")
        pts = points[order]
        slope = np.cumsum(slopes[order])
        spent = np.concatenate(([0.0], np.cumsum(slope[:-1] * np.diff(pts))))
        k = int(np.searchsorted(spent, 1000.0, side="right")) - 1
        level = pts[k] + (1000.0 - spent[k]) / max(slope[k], 1.0)
        rates = np.clip(level - floors, 0.0, caps)
        pool["buffer"] = pool["buffer"] + rates
        pool["downloaded"] = pool["downloaded"] + rates
        playing = pool["buffer"] > 1.0
        pool["buffer"][playing] -= 1.0
        pool["played"][playing] += 1
        departing = (pool["played"] >= pool["target"]) | (pool["downloaded"] >= 300.0)
        waste = np.maximum(pool["downloaded"][departing] - pool["played"][departing], 0.0)
        for a, p, w in zip(pool["arrival"][departing], pool["played"][departing], waste):
            records.append(_RefRecord(int(a), float(p), float(w)))
        keep = ~departing
        pool = {name: v[keep] for name, v in pool.items()}
    return float(sum(r.waste for r in records)) + pool["buffer"].sum()
