"""Command-line front end: run experiments, sweep loads, generate inputs,
and verify the analytical claims on small instances."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields, replace

import numpy as np

from . import analysis, arrivals, behavior, engine, metrics
from .engine import SimConfig
from .strategy import STRATEGY_NAMES

_CONFIG_FIELDS = {f.name: f.type for f in fields(SimConfig)}


def _parse_capacity(text: str) -> float:
    if text.strip().lower() in ("unlimited", "inf"):
        return math.inf
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("capacity must be positive or 'unlimited'")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {value}")
    return value


def _positive_finite(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _path(text: str) -> str:
    """A file path.  An empty one is an error, not the flag's absence."""
    if text == "":
        raise argparse.ArgumentTypeError("needs a file path, got ''")
    return text


def load_config_file(path) -> dict:
    """Flat key = value document mirroring SimConfig field names, each key
    set once.  Maps each key to its value, converted to its field's type,
    and the number of the line that set it."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in out:
                raise ValueError(f"{path}:{lineno}: duplicate config key {key!r} "
                                 f"(first set on line {out[key][1]})")
            out[key] = _coerce(key, value, f"{path}:{lineno}"), lineno
    return out


def _coerce(key: str, value: str, where: str):
    """`value` as config field `key`'s type; an error names `where`."""
    if key == "playback_model":
        return value
    if key == "server_capacity" and value.lower() == "unlimited":
        return math.inf  # any other value is a float, checked by `SimConfig.validate`
    integer = key in ("video_length", "seed", "duration", "warmup")
    try:
        return int(value) if integer else float(value)
    except ValueError:
        kind = "an integer" if integer else "a number"
        if key == "server_capacity":
            kind += " or 'unlimited'"
        raise ValueError(f"{where}: {key} must be {kind}, got {value!r}") from None


def build_config(args) -> SimConfig:
    """Flags override config-file keys override defaults.  A config-file
    value that fails validation is reported with its file and line; when
    the message names two fields the file set, with the later line."""
    entries = load_config_file(args.config) if args.config is not None else {}
    values = {key: value for key, (value, _) in entries.items()}
    flag_map = {
        "seed": args.seed,
        "server_capacity": args.capacity,
        "duration": args.duration,
        "warmup": args.warmup,
        "bitrate": getattr(args, "bitrate", None),
        "video_length": getattr(args, "video_length", None),
    }
    for key, val in flag_map.items():
        if val is not None:
            values[key] = val
            entries.pop(key, None)
    config = SimConfig(**values)
    try:
        config.validate()
    except ValueError as exc:
        # Every `SimConfig.validate` message starts with the field it rejects,
        # and one that compares two fields names the other after it; the
        # rejected value, after ", got", names none.
        named = [word for word in str(exc).split(", got", 1)[0].split() if word in entries]
        if named:
            line = max(entries[key][1] for key in named)
            raise ValueError(f"{args.config}:{line}: {exc}") from None
        raise
    # `--target-fraction` sets the capacity itself, so a finite one given
    # beside it would be dropped.
    capacity = values.get("server_capacity", math.inf)
    if getattr(args, "target_fraction", None) is not None and not math.isinf(capacity):
        given = (f"{args.config}:{entries['server_capacity'][1]}: server_capacity"
                 if "server_capacity" in entries else "--capacity")
        raise ValueError(f"{given} {capacity} conflicts with --target-fraction, which sets "
                         "the capacity from sc's unlimited peak; give 'unlimited' or no capacity")
    return config


def _strategies(arg: str) -> list[str]:
    names = [s.strip().lower() for s in arg.split(",") if s.strip()]
    if not names:
        raise argparse.ArgumentTypeError("needs at least one strategy")
    for name in names:
        if name not in STRATEGY_NAMES:
            raise argparse.ArgumentTypeError(
                f"unknown strategy {name!r}; choose from {', '.join(STRATEGY_NAMES)}"
            )
    return names


def _positive_rhos(arg: str) -> list[float]:
    rhos = [float(x) for x in arg.split(",") if x.strip()]
    if not rhos or not all(r > 0 for r in rhos):
        raise argparse.ArgumentTypeError(f"needs positive load points, got {arg!r}")
    return rhos


def _build_model(args, config: SimConfig) -> behavior.DepartureModel:
    if args.histogram is not None:
        return behavior.DepartureModel(behavior.load_histogram(args.histogram))
    return behavior.DepartureModel.synthetic(L=config.video_length)


def _write_rows(rows, fmt: str, out_path):
    if fmt == "json":
        text = metrics.reports_to_json(rows) + "\n"
    else:
        lines = [metrics.CSV_HEADER]
        lines += [metrics.csv_row(strategy, rho, rep) for strategy, rho, rep in rows]
        text = "\n".join(lines) + "\n"
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _repetition_seeds(seed: int, repetitions: int) -> list[int]:
    """Seeds of the repetitions: the first keeps `seed`, the others are drawn
    from children of `SeedSequence(seed)`, so that a later repetition of one
    seed does not replay the first run of a neighbouring seed."""
    children = np.random.SeedSequence(seed).spawn(repetitions - 1)
    return [seed] + [int(c.generate_state(1)[0]) for c in children]


def _check_measured(config: SimConfig) -> None:
    """Reject a run whose warmup leaves no slot to measure."""
    if config.warmup_slots >= config.duration:
        raise ValueError(
            f"warmup ({config.warmup_slots} slots) must be shorter than the "
            f"duration ({config.duration} slots): no slot would be measured"
        )


def _experiment_rows(args, config, model, rho_values):
    """One (strategy, rho, report) row per cell, strategy and repetition,
    and the last run's result.  The cells, each (rho, arrival process,
    config), are built before any strategy runs: one for a trace, whose rho
    is None, at the `--target-fraction` capacity if one is given; one per
    load for Poisson arrivals."""
    if args.trace is not None:
        process = arrivals.load_trace(args.trace, scale=args.trace_scale)
        cfg = replace(config, duration=process.length if args.duration is None else args.duration)
        _check_measured(cfg)
        if args.target_fraction is not None:
            # Reference run: SC at unlimited capacity fixes the target peak.
            ref = engine.run(replace(cfg, server_capacity=math.inf), "sc", process, model)
            capacity = arrivals.target_bandwidth_from_peak(
                ref.report.peak_bw, args.target_fraction
            )
            cfg = replace(cfg, server_capacity=capacity)
        cells = [(None, process, cfg)]
    else:
        if math.isinf(config.server_capacity):
            raise ValueError(
                "Poisson arrivals need a finite --capacity: rho is a share of it "
                "(use --trace for an unlimited-capacity run)"
            )
        cells = []
        for rho in rho_values:
            lam = engine.poisson_arrival_rate(rho, config, model)
            _check_measured(config)
            cells.append((rho, arrivals.ArrivalProcess.poisson(lam), config))
    seeds = _repetition_seeds(config.seed, args.repetitions)
    rows = []
    last_result = None
    for rho, process, cfg in cells:
        for strategy in args.strategy:
            for seed in seeds:
                result = engine.run(replace(cfg, seed=seed), strategy, process, model)
                rows.append((strategy, rho, result.report))
                last_result = result
    return rows, last_result


def cmd_run(args) -> int:
    if args.trace is None and args.target_fraction is not None:
        raise ValueError("--target-fraction caps a trace run; it needs --trace")
    config = build_config(args)
    model = _build_model(args, config)
    rows, last = _experiment_rows(args, config, model, [args.rho])
    _write_rows(rows, args.format, args.out)
    if args.ledger_out is not None and last is not None:
        engine.export_ledgers(last.ledgers, args.ledger_out)
    return 0


def cmd_sweep(args) -> int:
    config = build_config(args)
    model = _build_model(args, config)
    rows, _ = _experiment_rows(args, config, model, args.rho)
    _write_rows(rows, args.format, args.out)
    return 0


def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.kind == "trace":
        counts = arrivals.diurnal_trace(args.slots, args.base_rate, args.peak_rate, rng)
        arrivals.save_trace(counts, args.out)
    else:
        hist = behavior.synthetic_model(
            args.bins, args.browse_mass, args.browse_width, args.complete_mass
        )
        behavior.save_histogram(hist, args.out)
    return 0


def cmd_verify(args) -> int:
    failures = 0

    def report(name: str, ok: bool, detail: str) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({detail})")
        failures += 0 if ok else 1

    # Wastage identity (Lemma 1 analog): skip-mode heavy-load run.
    cfg = SimConfig(
        server_capacity=200.0,
        video_length=100,
        playback_model="skip",
        duration=1000,
        warmup=300,
        seed=args.seed,
    )
    model = behavior.DepartureModel.synthetic(L=cfg.video_length)
    # rho just under 1 keeps the population below C (the identity's regime)
    # while the access-capped demand still saturates the server.
    lam = engine.load_to_arrival_rate(
        0.93, cfg.server_capacity, cfg.video_length, cfg.bitrate, model.mean_viewing_ratio
    )
    result = engine.run(cfg, "be", arrivals.ArrivalProcess.poisson(lam), model)
    W, N, gamma = analysis.steady_state_stats(result.ledgers, cfg.warmup_slots)
    predicted = analysis.wastage_identity(cfg.server_capacity, N, gamma)
    rel = abs(W - predicted) / cfg.server_capacity
    report("wastage identity W = C - N + N*gamma", rel <= 0.02, f"relative error {rel:.4f}")

    # The analytical claims, each checked by its driver on one stream.
    rng = np.random.default_rng(args.seed)
    for name, driver in [
        ("equal-buffer split minimizes skip probability", analysis.equal_buffer_failures),
        ("min-max waste split equalizes waste rates", analysis.equal_waste_failures),
        ("constrained minimizers satisfy the derivative-ratio condition",
         analysis.lagrange_failures),
    ]:
        k = driver(rng, args.cases)
        report(name, k == 0, f"failures {k} of {args.cases}")

    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vodsim",
        description="Discrete-time VoD streaming simulator with departure-aware allocation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--strategy", type=_strategies, required=True,
                       help="comma-separated list: " + ",".join(STRATEGY_NAMES))
        p.add_argument("--seed", type=_nonnegative_int, default=None)
        p.add_argument("--capacity", type=_parse_capacity, default=None,
                       help="server capacity in Mb/s, or 'unlimited'")
        p.add_argument("--histogram", type=_path, default=None, help="departure histogram file")
        p.add_argument("--duration", type=int, default=None)
        p.add_argument("--warmup", type=int, default=None)
        p.add_argument("--bitrate", type=float, default=None)
        p.add_argument("--video-length", dest="video_length", type=int, default=None)
        p.add_argument("--config", type=_path, default=None, help="key = value config file")
        p.add_argument("--repetitions", type=_positive_int, default=1)
        p.add_argument("--out", type=_path, default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_run = sub.add_parser("run", help="run one experiment per strategy")
    add_common(p_run)
    p_run.add_argument("--rho", type=float, default=0.995)
    p_run.add_argument("--trace", type=_path, default=None, help="arrival trace file")
    p_run.add_argument("--trace-scale", type=float, default=1.0)
    p_run.add_argument("--target-fraction", type=_positive_finite, default=None,
                       help="cap capacity at this fraction of SC's unlimited peak (trace mode)")
    p_run.add_argument("--ledger-out", type=_path, default=None,
                       help="write the last run's per-slot ledger table here")
    p_run.set_defaults(func=cmd_run)

    # A sweep varies rho, so its arrivals are always Poisson.
    p_sweep = sub.add_parser("sweep", help="sweep offered load")
    add_common(p_sweep)
    p_sweep.add_argument("--rho", type=_positive_rhos, required=True,
                         help="comma-separated load points")
    p_sweep.set_defaults(func=cmd_sweep, trace=None)

    p_gen = sub.add_parser("gen", help="generate synthetic inputs")
    p_gen.add_argument("kind", choices=("trace", "histogram"))
    p_gen.add_argument("--out", type=_path, required=True)
    p_gen.add_argument("--seed", type=_nonnegative_int, default=12345)
    p_gen.add_argument("--slots", type=int, default=86400)
    p_gen.add_argument("--base-rate", type=float, default=0.3)
    p_gen.add_argument("--peak-rate", type=float, default=4.0)
    p_gen.add_argument("--bins", type=int, default=300)
    p_gen.add_argument("--browse-mass", type=float, default=behavior.DEFAULT_BROWSE_MASS)
    p_gen.add_argument("--browse-width", type=float, default=behavior.DEFAULT_BROWSE_WIDTH)
    p_gen.add_argument("--complete-mass", type=float, default=behavior.DEFAULT_COMPLETE_MASS)
    p_gen.set_defaults(func=cmd_gen)

    p_verify = sub.add_parser("verify", help="run the analytical-claim oracles")
    p_verify.add_argument("--seed", type=_nonnegative_int, default=12345)
    p_verify.add_argument("--cases", type=_positive_int, default=20)
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
