"""Benchmark one vodsim workload in one single-threaded process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; vodsim is imported from `src/`.  The run sets
up the workload's inputs from the seed, then produces the workload's result
table again and again until `--seconds` would be exceeded (at least once),
checking every strategy run's output.  Each time is a mean over the run's
tables.  A fixed reference kernel, timed every few hundred slots, gives the
host's slowdown, and reported times are divided by it (see README.md,
"Timing on a noisy host").  The last stdout line is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, where `attempted` and
`failed` count strategy runs and `metrics` holds the end-to-end metrics of
BENCHMARK.json (`--trace 0`) or its per-layer metrics (`--trace 1`).  The line
before it is a `detail` object with sample counts, output hashes and the
problems found.

With `--trace 1` the first table runs untraced, then the tracer wraps the
entry points and the remaining tables are traced; tracing overhead is the
traced minus the untraced wall time of a table.  Spans are written to `.perfbench_out/`.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SETUP_PROBES = 9
# Mean time of one `workloads.reference_kernel` call, made inside a run, on
# the reference host whose speed reported times are scaled to (README.md).
REF_KERNEL_S = 0.001


def _import_vodsim_sources() -> None:
    if not (SRC / "vodsim" / "__init__.py").is_file():
        raise SystemExit(f"error: vodsim sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import vodsim

    if Path(vodsim.__file__).resolve().parent != SRC / "vodsim":
        raise SystemExit(f"error: imported vodsim from {vodsim.__file__}, not {SRC}")


def _setup_seconds(args, workdir: Path) -> list[float]:
    """Time set-up in fresh processes, so import cost is paid every time."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(workdir),
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout))
    return samples


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def _peak_rss_mb() -> float:
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


def _tables(make_table, seconds: float, started: float) -> list:
    """Collect `make_table(i)` until the next table would end past
    `started + seconds`; always at least one."""
    tables = []
    while True:
        t0 = time.perf_counter()
        tables.append(make_table(len(tables)))
        last = time.perf_counter() - t0
        if time.perf_counter() - started + last > seconds:
            return tables


def _end_to_end(tables, setup_samples) -> tuple[dict, dict]:
    """End-to-end metrics: means over the run's tables, divided by the host's
    slowdown against the reference host; also returns them unscaled.  A
    strategy's rate is scaled by the slowdown sampled during its own runs,
    the table and set-up times by that of the whole run."""
    import workloads

    ref_s = [x for t in tables for r in t.runs for x in r.ref_s]
    # A kernel call during which the process lost the core reads many times
    # too long; capping each sample keeps one such call from setting the mean.
    cap = 2.0 * statistics.median(ref_s)

    def slowdown(samples) -> float:
        return statistics.fmean(min(x, cap) for x in samples) / REF_KERNEL_S

    host = slowdown(ref_s)
    raw = {
        "table_s": statistics.fmean(t.seconds for t in tables),
        "setup_s": statistics.median(setup_samples),
    }
    values = {name: v / host for name, v in raw.items()}
    for r in tables[-1].runs:
        runs = [q for t in tables for q in t.runs if q.strategy == r.strategy]
        name = f"slots_per_s.{workloads.metric_key(r.strategy)}"
        raw[name] = r.slots / statistics.fmean(q.seconds for q in runs)
        values[name] = raw[name] * slowdown([x for q in runs for x in q.ref_s])
    values["peak_rss_mb"] = _peak_rss_mb()
    return values, {"host_slowdown": host, "reference_calls": len(ref_s), **raw}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # One core for the whole run: the scheduler would otherwise move the
    # process between cores whose speed differs on a shared host.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    if args.setup_probe:
        t0 = time.perf_counter()
        _import_vodsim_sources()
        import workloads

        workloads.setup(args.workload, args.seed, Path(args.setup_probe))
        print(time.perf_counter() - t0)
        return 0

    _import_vodsim_sources()
    import workloads

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        started = time.perf_counter()
        setup_samples = _setup_seconds(args, workdir)
        ctx = workloads.setup(args.workload, args.seed, workdir)
        if args.trace:
            runlog = workloads.RunLog(ctx, workdir)
            import spans

            untraced = runlog.table()
            tracer = spans.Tracer()
            tracer.install(workloads.MODULES, runlog)

            def make_table(i):
                first = tracer.mark()
                return runlog.table(rotate=i), first

            tables = _tables(make_table, args.seconds, started)
            per_table = [tracer.layer_metrics(first, bool(ctx.argv)) for _, first in tables]
            samples = {name: [m[name] for m in per_table] for name in per_table[0]}
            values = {name: statistics.median(v) for name, v in samples.items()}
            traced_s = [t.seconds - untraced.seconds for t, _ in tables]
            values["trace.overhead_s"] = statistics.median(traced_s)
            samples["trace.overhead_s"] = traced_s
            counts = {name: len(v) for name, v in samples.items()}
            extra = {"quartiles": {name: _quartiles(v) for name, v in samples.items()}}
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(spans_path)
            wanted = spec["per_layer"]
            tables = [(untraced, None)] + tables
        else:
            runlog = workloads.RunLog(ctx, workdir, reference=True)
            tables = _tables(lambda i: (runlog.table(rotate=i), None), args.seconds, started)
            values, unscaled = _end_to_end([t for t, _ in tables], setup_samples)
            counts = {name: len(tables) for name in values}
            counts.update(setup_s=len(setup_samples), peak_rss_mb=1)
            extra = {
                "unscaled": unscaled,
                "setup_probes_s": setup_samples,
            }
            spans_path = None
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    names = [m["name"] for m in wanted]
    if sorted(values) != sorted(names):
        raise RuntimeError(
            f"computed metrics {sorted(values)} do not match BENCHMARK.json {sorted(names)}"
        )
    attempted = sum(t.attempted for t, _ in tables)
    failed = sum(t.failed for t, _ in tables)
    last = tables[-1][0]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tables": len(tables),
        "failed_runs": failed / attempted,
        "samples": counts,
        **extra,
        "raw_table_s": [t.seconds for t, _ in tables],
        "raw_run_s": {
            f"{r.strategy}@{r.capacity:g}": [
                q.seconds for t, _ in tables for q in t.runs if q.strategy == r.strategy
            ]
            for r in last.runs
        },
        "hashes": {
            f"{r.strategy}@{r.capacity:g}": {"csv_row": r.csv_sha256, "ledger": r.ledger_sha256}
            for r in last.runs
        },
        "problems": sorted({p for t, _ in tables for p in t.problems}),
        "spans": str(spans_path.relative_to(ROOT)) if spans_path else None,
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
