"""Acceptance gate: ten end-to-end criteria, one PASS/FAIL line each.

Each test prints a single verdict line (bypassing pytest capture so the
summary is always visible) and then asserts the same condition.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.stats

from vodsim import analysis, arrivals, behavior, cli, engine
from vodsim.strategy import STRATEGY_NAMES, PoolState, eb_rates, ew_rates

TABLE_STRATEGIES = ("sc", "sc+", "be", "bb")


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[criterion {num:2d}] {status}  {name}{suffix}", flush=True)


@pytest.fixture(scope="module")
def departure_model():
    return behavior.DepartureModel.synthetic(L=300)


@pytest.fixture(scope="module")
def heavy_load_runs(departure_model):
    """Poisson heavy-load comparison runs shared by criterion 1."""
    model = departure_model
    estimate = engine.planning_viewing_ratio(model.mean_viewing_ratio, 300)
    lam = engine.load_to_arrival_rate(0.995, 1000.0, 300, 1.0, estimate)
    config = engine.SimConfig(duration=60000, warmup=15000)
    process = arrivals.ArrivalProcess.poisson(lam)
    reports, elapsed = {}, {}
    for name in TABLE_STRATEGIES:
        start = time.perf_counter()
        reports[name] = engine.run(config, name, process, model).report
        elapsed[name] = time.perf_counter() - start
    return reports, elapsed


@pytest.fixture(scope="module")
def trace_runs(departure_model):
    """Diurnal-trace runs: unlimited capacity, then capped at 95% of the
    slowest strategy's peak.  Shared by criteria 2 and 3."""
    model = departure_model
    counts = arrivals.diurnal_trace(7200, 0.5, 22.0, np.random.default_rng(12345))
    process = arrivals.ArrivalProcess.trace(counts)
    config = engine.SimConfig(server_capacity=math.inf, duration=7200, warmup=600)
    unlimited = {
        name: engine.run(config, name, process, model).report
        for name in TABLE_STRATEGIES
    }
    cap = arrivals.target_bandwidth_from_peak(unlimited["sc"].peak_bw, 0.95)
    capped_config = replace(config, server_capacity=cap)
    capped = {
        name: engine.run(capped_config, name, process, model).report
        for name in TABLE_STRATEGIES
    }
    return unlimited, capped


def test_criterion_1_qoe_ordering(heavy_load_runs):
    reports, elapsed = heavy_load_runs
    metrics_checked = ("percent_user", "avg_n_freeze", "freeze_ratio", "rate_freeze")
    ok = True
    details = []
    for metric in metrics_checked:
        values = [getattr(reports[name], metric) for name in ("bb", "be", "sc+", "sc")]
        margins = [(hi - lo) / hi if hi > 0 else -1.0 for lo, hi in zip(values, values[1:])]
        if any(m < 0.10 for m in margins):
            ok = False
        details.append(f"{metric} min margin {min(margins):.3f}")
    slowest = max(elapsed.values())
    if slowest >= 60.0:
        ok = False
    details.append(f"slowest run {slowest:.1f}s")
    _report(1, "heavy-load QoE ordering bb < be < sc+ < sc", ok, "; ".join(details))
    assert ok


def test_criterion_2_peak_bandwidth_ordering(trace_runs):
    unlimited, _ = trace_runs
    peaks = {name: unlimited[name].peak_bw for name in TABLE_STRATEGIES}
    ordering = peaks["sc"] < peaks["sc+"] < peaks["bb"] < peaks["be"]
    sc_be = peaks["sc"] / peaks["be"]
    bb_be = peaks["bb"] / peaks["be"]
    ok = ordering and 0.70 <= sc_be <= 0.90 and bb_be <= 0.95
    _report(
        2,
        "unlimited-capacity peak ordering sc < sc+ < bb < be",
        ok,
        f"sc/be {sc_be:.3f}, bb/be {bb_be:.3f}",
    )
    assert ok


def test_criterion_3_capped_trace(trace_runs):
    _, capped = trace_runs
    waste_ok = capped["sc"].wasted_bw < capped["bb"].wasted_bw < capped["be"].wasted_bw
    pu = {name: capped[name].percent_user for name in TABLE_STRATEGIES}
    bb_best = all(pu["bb"] < pu[name] for name in ("sc", "sc+", "be"))
    ok = waste_ok and bb_best
    _report(
        3,
        "capped trace: waste sc < bb < be and bb best on percent_user",
        ok,
        "pu " + ", ".join(f"{name} {pu[name]:.4f}" for name in TABLE_STRATEGIES),
    )
    assert ok


def test_criterion_4_light_load_perfection(departure_model):
    model = departure_model
    estimate = engine.planning_viewing_ratio(model.mean_viewing_ratio, 300)
    lam = engine.load_to_arrival_rate(0.85, 1000.0, 300, 1.0, estimate)
    config = engine.SimConfig(duration=20000, warmup=5000)
    process = arrivals.ArrivalProcess.poisson(lam)
    worst = 0.0
    for name in STRATEGY_NAMES:
        report = engine.run(config, name, process, model).report
        worst = max(worst, report.percent_user)
    ok = worst <= 0.001
    _report(4, "light load (rho=0.85): percent_user <= 0.1% for all strategies",
            ok, f"worst {worst:.5f}")
    assert ok


def test_criterion_5_wastage_identity():
    config = engine.SimConfig(
        server_capacity=200.0,
        video_length=100,
        playback_model="skip",
        duration=1200,
        warmup=300,
    )
    model = behavior.DepartureModel.synthetic(L=config.video_length)
    lam = engine.load_to_arrival_rate(
        0.93, config.server_capacity, config.video_length,
        config.bitrate, model.mean_viewing_ratio,
    )
    result = engine.run(config, "be", arrivals.ArrivalProcess.poisson(lam), model)
    window = config.duration - config.warmup_slots
    assert window >= 2 * config.video_length
    W, N, gamma, _ = analysis.steady_state_stats(result.ledgers, config.warmup_slots)
    predicted = analysis.wastage_identity(config.server_capacity, N, gamma)
    rel = abs(W - predicted) / config.server_capacity
    ok = rel <= 0.02
    _report(5, "skip-mode identity W = C - N + N*gamma", ok, f"relative error {rel:.4f}")
    assert ok


def _random_convex_fn(rng):
    """Random convex nonincreasing skip-probability function."""
    if rng.random() < 0.5:
        fn = analysis.SkipProbFn.exponential(
            g0=float(rng.uniform(0.3, 1.0)), decay=float(rng.uniform(0.3, 2.0))
        )
    else:
        g0 = float(rng.uniform(0.3, 1.0))
        k = float(rng.uniform(1.0, 3.0))
        fn = analysis.SkipProbFn(lambda b, g0=g0, k=k: g0 / (1.0 + b) ** k)
    assert fn.check_shape(np.linspace(0.0, 10.0, 81))
    return fn


def test_criterion_6_equal_buffer_minimizes_skip():
    rng = np.random.default_rng(2024)
    grid = 0.25
    failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        g = _random_convex_fn(rng)
        S = grid * int(rng.integers(n, int(8 / grid) + 1))
        buffers, _ = analysis.brute_force_min_skip(n, S, g, grid)
        if buffers.max() - buffers.min() > grid + 1e-9:
            failures += 1
    ok = failures == 0
    _report(6, "min-skip oracle: equal buffers within one grid step, 50/50 cases",
            ok, f"failures {failures}")
    assert ok


def test_criterion_7_waste_and_lagrange_oracles():
    rng = np.random.default_rng(4096)
    grid = 0.25
    failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        f = rng.uniform(0.3, 1.0, size=n)
        S = grid * int(rng.integers(8 * n, 33))
        buffers, _ = analysis.brute_force_min_waste(f, S, grid)
        rates = f * buffers
        if rates.max() - rates.min() > grid * f.max() + 1e-9:
            failures += 1
    for _ in range(50):
        n = int(rng.integers(2, 4))
        f_vals = rng.uniform(0.4, 1.0, size=n)
        g = analysis.SkipProbFn.exponential(g0=1.0, decay=float(rng.uniform(0.4, 1.2)))
        beta = grid * rng.integers(4, 13, size=n)
        W = float(f_vals @ beta)
        buffers, _ = analysis.constrained_min_skip(f_vals, W, g, grid, b_max=6.0)
        ratios = np.linspace(0.1, 0.9, n)
        lookup = dict(zip(ratios, f_vals))
        verdict = analysis.lagrange_condition_check(
            buffers, ratios, lambda v: lookup[v], g, tolerance=10 * grid, h=grid / 10
        )
        if verdict is False:
            failures += 1
    ok = failures == 0
    _report(7, "min-waste equalization and Lagrange ratio condition, 100 cases",
            ok, f"failures {failures}")
    assert ok


def test_criterion_8_behavior_model_exactness(departure_model):
    rng = np.random.default_rng(31337)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        q = rng.random(n) + 1e-6
        q /= q.sum()
        back = behavior.histogram_from_rates(behavior.rates_from_histogram(q))
        worst = max(worst, float(np.abs(back - q).max()))
    roundtrip_ok = worst <= 1e-12

    q = departure_model.q
    draws = departure_model.sample_slots(rng.random(10**6))
    observed = np.bincount(draws, minlength=q.size + 1)[1:].astype(float)
    expected = q * 10**6
    # chisquare requires matching totals; float round-off is re-normalized away.
    expected *= observed.sum() / expected.sum()
    pvalue = scipy.stats.chisquare(observed, expected).pvalue
    sampling_ok = pvalue >= 0.01

    ok = roundtrip_ok and sampling_ok
    _report(8, "histogram/hazard roundtrip <= 1e-12 and sampling chi-square fit",
            ok, f"max roundtrip error {worst:.2e}, p-value {pvalue:.3f}")
    assert ok


def test_criterion_9_ew_generalizes_eb():
    rng = np.random.default_rng(7)
    hazard = 0.37
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        # Each user's six values are drawn in turn: viewing ratio, buffer,
        # access cap, remaining demand, startup, playing.
        users = [
            (
                float(rng.random()),
                float(rng.uniform(0.0, 10.0)),
                float(rng.uniform(0.5, 3.0)),
                float(rng.uniform(0.0, 5.0)),
                bool(rng.random() < 0.2),
                bool(rng.random() < 0.9),
            )
            for _ in range(n)
        ]
        ratio, buffer, cap, remaining, startup, playing = (np.array(c) for c in zip(*users))
        pool = PoolState(buffer=buffer, viewed=300 * ratio, cap=np.minimum(cap, remaining),
                         in_startup=startup, playing=playing & ~startup)
        C = float(rng.uniform(0.5, 2.0 * n))
        ew = ew_rates(pool, C, 1.0, np.full(n, hazard))
        eb = eb_rates(pool, C, 1.0)
        if not np.array_equal(ew, eb):
            mismatches += 1
    ok = mismatches == 0
    _report(9, "constant-hazard EW equals EB exactly, 1000 random inputs",
            ok, f"mismatches {mismatches}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    commands = {
        "run": [
            "run", "--strategy", "sc,be", "--rho", "0.9", "--seed", "4242",
            "--capacity", "50", "--video-length", "100",
            "--duration", "1500", "--warmup", "300",
        ],
        "sweep": [
            "sweep", "--strategy", "be", "--rho", "0.8,1.0", "--seed", "4242",
            "--capacity", "50", "--video-length", "100",
            "--duration", "1500", "--warmup", "300",
        ],
    }
    ok = True
    for label, argv in commands.items():
        outputs = []
        for attempt in range(2):
            out = tmp_path / f"{label}_{attempt}.csv"
            code = cli.main(argv + ["--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            ok = False
    _report(10, "identical flags and seed give byte-identical CSV output", ok)
    assert ok
