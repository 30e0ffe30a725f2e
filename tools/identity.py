"""Identity sweep: one SHA-256 digest over the output of a fixed grid of
vodsim runs, so that two source trees can be compared for byte-identical
results with one command each.

    python tools/identity.py [--src DIR]

`--src` names the directory that holds the `vodsim` package (default: this
tree's `src/`).  The grid is seeds 12 and 13, freeze and skip mode, video
lengths 60 and 300 and, for each of those, Poisson arrivals at offered loads
0.5, 0.995 and 1.2 on a 100 Mb/s server, plus a diurnal trace uncapped and
capped at 70% of sc's uncapped peak, each run for all six strategies.  Every
run feeds its report, every field of its slot table and its session log into
the digest.  The sweep takes some seconds on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

CAPACITY = 100.0
RHOS = (0.5, 0.995, 1.2)
CAP_FRACTION = 0.7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy as np

    from vodsim import arrivals, behavior, engine
    from vodsim.strategy import STRATEGY_NAMES

    digest = hashlib.sha256()
    runs = 0

    def feed(label, config, strategy, process, model):
        nonlocal runs
        result = engine.run(config, strategy, process, model)
        digest.update(label.encode())
        digest.update(json.dumps(result.report.as_dict()).encode())
        digest.update(result.ledgers.tobytes())
        digest.update(result.sessions.columns.tobytes())
        runs += 1
        return result

    for seed in (12, 13):
        for mode in ("freeze", "skip"):
            for L in (60, 300):
                model = behavior.DepartureModel.synthetic(L=L)
                config = engine.SimConfig(video_length=L, server_capacity=CAPACITY,
                                          playback_model=mode, duration=4 * L, seed=seed)
                for rho in RHOS:
                    process = arrivals.ArrivalProcess.poisson(
                        engine.poisson_arrival_rate(rho, config, model))
                    for strategy in STRATEGY_NAMES:
                        feed(f"{seed} {mode} {L} rho {rho} {strategy}", config, strategy,
                             process, model)
                counts = arrivals.diurnal_trace(config.duration, 0.05, 0.6,
                                                np.random.default_rng(seed))
                process = arrivals.ArrivalProcess.trace(counts)
                uncapped = replace(config, server_capacity=math.inf)
                peak = feed(f"{seed} {mode} {L} trace sc reference", uncapped, "sc", process,
                            model).report.peak_bw
                capped = replace(config, server_capacity=arrivals.target_bandwidth_from_peak(
                    peak, CAP_FRACTION))
                for strategy in STRATEGY_NAMES:
                    for label, cfg in (("uncapped", uncapped), ("capped", capped)):
                        feed(f"{seed} {mode} {L} trace {label} {strategy}", cfg, strategy,
                             process, model)
    print(f"{digest.hexdigest()}  {runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
