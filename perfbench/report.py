"""Run the vodsim benchmark over workloads and seeds and print every metric.

    python3 perfbench/report.py [--workloads W1,W2] [--seeds 1,2,3]
                                [--seconds S] [--trace 0|1|both] [--out FILE]

Run from the repository root.  Each (seed, workload, trace) combination runs
`perfbench/run.py` in a fresh process, one at a time.  The report has one row
per metric and workload: unit, number of runs, median over runs, first and
third quartile, spread = (q3 - q1) / median, the bound from BENCHMARK.json
(end-to-end metrics only) and how many samples each run's value was taken
over.  `--out` also writes the rows, and every run's result line, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"run.py failed for {workload} seed {seed} trace {trace}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def _summary(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    workloads = [w for w in args.workloads.split(",") if w]
    seeds = [int(s) for s in args.seeds.split(",") if s]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    runs: dict[tuple[str, int], list[dict]] = {}
    for seed in seeds:
        for trace in traces:
            for workload in workloads:
                result = _run(workload, seed, args.seconds, trace)
                runs.setdefault((workload, trace), []).append(result)
                status = "ok" if result["correct"] else "INCORRECT"
                print(f"# {workload} seed {seed} trace {trace}: {status}, "
                      f"{result['failed']}/{result['attempted']} runs failed", flush=True)

    rows = []
    header = f"{'workload':18} {'metric':26} {'unit':8} {'runs':>4} {'median':>12} " \
             f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6} samples/run"
    print(header)
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        for metric in spec[kind]:
            for workload in workloads:
                results = runs.get((workload, trace))
                if not results:
                    continue
                name = metric["name"]
                values = [r["metrics"][name]["value"] for r in results]
                samples = sorted({r["detail"]["samples"].get(name, 1) for r in results})
                row = {"workload": workload, "metric": name, "unit": metric["unit"],
                       "runs": len(values), "values": values, "bound": metric.get("bound"),
                       "samples_per_run": samples, **_summary(values)}
                rows.append(row)
                bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
                print(f"{workload:18} {name:26} {metric['unit']:8} {len(values):4d} "
                      f"{row['median']:12.6g} {row['q1']:12.6g} {row['q3']:12.6g} "
                      f"{row['spread']:7.3f} {bound:>6} {samples}")
    failed = sum(r["failed"] for rs in runs.values() for r in rs)
    attempted = sum(r["attempted"] for rs in runs.values() for r in rs)
    print(f"failed_runs: {failed}/{attempted} strategy runs")
    if args.out:
        doc = {
            "seconds": args.seconds,
            "seeds": seeds,
            "rows": rows,
            "failed_runs": {"failed": failed, "attempted": attempted},
            "runs": {f"{w}/trace{t}": rs for (w, t), rs in runs.items()},
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
