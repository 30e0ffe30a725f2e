"""Slot-loop, load-conversion, and determinism tests for the simulator."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodsim import arrivals, behavior, engine, metrics, strategy
from vodsim.engine import SimConfig, World, load_to_arrival_rate, planning_viewing_ratio
from vodsim.strategy import STRATEGY_NAMES


def _no_departure_model(L=20):
    return behavior.DepartureModel(np.eye(L)[-1])


def _columns(world, copy=False):
    """The active sessions' slab rows, by name: the tests' one view of
    `World`'s internal layout."""
    rows = world._slab[:, : world.active_count]
    return dict(zip(engine.SLAB_ROWS, rows.copy() if copy else rows))


class TestLoadConversion:
    def test_reference_scale_uncorrected(self):
        assert load_to_arrival_rate(0.995, 1000.0, 300, 1.0, 1.0) == pytest.approx(3.3167, abs=1e-4)

    def test_reference_scale_corrected(self):
        assert load_to_arrival_rate(0.995, 1000.0, 300, 1.0, 0.5) == pytest.approx(6.633, abs=1e-3)

    def test_unit_case(self):
        assert load_to_arrival_rate(1.0, 300.0, 300, 1.0, 1.0) == pytest.approx(1.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            load_to_arrival_rate(0.0, 1000.0, 300, 1.0, 1.0)
        with pytest.raises(ValueError):
            load_to_arrival_rate(0.995, 1000.0, 300, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite(self, value):
        with pytest.raises(ValueError, match=f"rho must be positive and finite, got {value}"):
            load_to_arrival_rate(value, 1000.0, 300, 1.0, 1.0)
        with pytest.raises(ValueError, match="mean_viewing_ratio must be positive and finite"):
            load_to_arrival_rate(0.995, 1000.0, 300, 1.0, value)


class TestPoissonArrivalRate:
    @pytest.mark.parametrize("rho, cfg", [
        (0.995, SimConfig()),
        (0.5, SimConfig(server_capacity=50.0, video_length=100)),
        (1.2, SimConfig(bitrate=2.5, server_capacity=300.0, video_length=120,
                        startup_threshold=4.0)),
    ])
    def test_equals_the_two_step_chain(self, rho, cfg):
        model = behavior.DepartureModel.synthetic(L=cfg.video_length)
        estimate = planning_viewing_ratio(model.mean_viewing_ratio, cfg.video_length,
                                          cfg.startup_threshold)
        expected = load_to_arrival_rate(rho, cfg.server_capacity, cfg.video_length,
                                        cfg.bitrate, estimate)
        assert engine.poisson_arrival_rate(rho, cfg, model) == expected

    @pytest.mark.parametrize("bitrate", [0.3, 1.0, 2.5])
    def test_startup_share_is_the_same_at_any_bitrate(self, bitrate):
        # The startup prefetch is startup_threshold content seconds, 4/120 of
        # the video whatever the bitrate: 0.4985 + 0.0333 rounds up to 0.54.
        model = behavior.DepartureModel.synthetic(L=120)
        estimate = planning_viewing_ratio(model.mean_viewing_ratio, 120, 4.0)
        assert estimate == pytest.approx(0.54)
        cfg = SimConfig(bitrate=bitrate, server_capacity=300.0, video_length=120,
                        startup_threshold=4.0)
        expected = load_to_arrival_rate(1.2, 300.0, 120, bitrate, estimate)
        assert engine.poisson_arrival_rate(1.2, cfg, model) == expected

    def test_validates_the_config_first(self):
        cfg = SimConfig(bitrate=math.nan)
        with pytest.raises(ValueError, match="bitrate must be positive, got nan"):
            engine.poisson_arrival_rate(0.9, cfg, behavior.DepartureModel.synthetic(L=300))


class TestPlanningViewingRatio:
    def test_rounds_download_ratio_up(self):
        # mean 0.4975 plus startup 2/300 is ~0.5042 -> 0.51 at 1% precision
        assert planning_viewing_ratio(0.4975, 300) == pytest.approx(0.51)

    def test_exact_multiple_stays(self):
        assert planning_viewing_ratio(0.48, 100, startup_threshold=2.0) == pytest.approx(0.5)

    def test_never_below_download_ratio(self):
        for mean in np.linspace(0.1, 0.99, 23):
            est = planning_viewing_ratio(float(mean), 300)
            assert est >= mean + 2.0 / 300 - 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            planning_viewing_ratio(0.5, 0)


class TestSlotLoop:
    def test_startup_completes_after_one_full_cap_slot(self):
        # Access cap 2 fills the 2 s startup threshold in one slot; playback
        # (and consumption) starts on the next slot.
        cfg = SimConfig(server_capacity=10.0, video_length=20, duration=5, warmup=0)
        world = World(cfg, "be", _no_departure_model())
        first = world.step(1)
        second = world.step(0)
        assert first.playing == 0 and first.consumed == 0.0
        assert second.playing == 1 and second.consumed == 1.0

    def test_balanced_rate_holds_buffer(self):
        # Server capacity 1 = bitrate: once playing, download and playback
        # cancel out, so the session keeps consuming a slot per slot.
        cfg = SimConfig(server_capacity=1.0, video_length=20, duration=10, warmup=0)
        world = World(cfg, "be", _no_departure_model())
        ledgers = [world.step(1)] + [world.step(0) for _ in range(6)]
        assert [l.consumed for l in ledgers] == [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]

    def test_starved_session_freezes(self):
        # Capacity below bitrate: the buffer drains and the session freezes.
        cfg = SimConfig(server_capacity=0.5, video_length=30, duration=120, warmup=0)
        result = engine.run(
            cfg, "be", arrivals.ArrivalProcess.trace([1] + [0] * 119),
            _no_departure_model(L=30),
        )
        assert result.report.sessions_completed == 1
        assert result.report.percent_user == 1.0
        assert result.report.avg_n_freeze >= 1

    def test_zero_duration_empty_report(self):
        cfg = SimConfig(video_length=20, duration=0, warmup=0)
        result = engine.run(cfg, "be", arrivals.ArrivalProcess.poisson(1.0),
                            _no_departure_model())
        assert result.report.empty
        assert result.report.sessions_completed == 0

    @pytest.mark.parametrize("count", [-1, 2.5, None, True, False])
    def test_step_rejects_a_bad_arrival_count(self, count):
        world = World(SimConfig(video_length=20), "be", _no_departure_model())
        world.step(3)
        with pytest.raises(ValueError, match=f"^arrival count must be a nonnegative integer, "
                                             f"got {count}$"):
            world.step(count)
        assert world.slot == 1 and world.active_count == 3 and world._next_target == 3

    def test_overprovisioned_run_has_no_freezes(self):
        cfg = SimConfig(server_capacity=50.0, video_length=100, duration=2000, warmup=200)
        model = behavior.DepartureModel.synthetic(L=100)
        lam = load_to_arrival_rate(0.5, 50.0, 100, 1.0, model.mean_viewing_ratio)
        result = engine.run(cfg, "be", arrivals.ArrivalProcess.poisson(lam), model)
        report = result.report
        assert report.sessions_completed > 0
        assert report.percent_user == 0.0
        assert report.avg_n_freeze == 0.0
        assert report.freeze_ratio == 0.0


class TestConsumeThreshold:
    """Freeze mode consumes while `buffer > c*`, which must agree with
    `buffer - 1.0 > freeze_trigger` on every double."""

    @pytest.mark.parametrize("trigger", [0.0, 0.1, 0.5, 2.0, 5e-324])
    def test_one_comparison_is_the_subtraction_test(self, trigger):
        c = engine._consume_threshold(trigger)
        near = [math.nextafter(c, -math.inf), c, math.nextafter(c, math.inf)]
        assert [b - 1.0 > trigger for b in near] == [False, False, True]
        buffers = np.concatenate((near, np.random.default_rng(0).uniform(0.0, 4.0, 10**4)))
        assert np.array_equal(buffers > c, buffers - 1.0 > trigger)


class TestAccounting:
    def test_bandwidth_never_exceeds_capacity(self):
        cfg = SimConfig(server_capacity=30.0, video_length=60, duration=600, warmup=0)
        model = behavior.DepartureModel.synthetic(L=60)
        result = engine.run(cfg, "be", arrivals.ArrivalProcess.poisson(1.5), model)
        assert np.all(result.ledgers.bw_used <= cfg.server_capacity + 1e-9)

    def test_session_waste_is_download_minus_viewed(self):
        # One viewer with unlimited headroom prefetches up to the access cap,
        # then departs early; the un-viewed tail is the recorded waste.
        cfg = SimConfig(server_capacity=10.0, video_length=20, duration=60, warmup=0)
        q = np.zeros(20)
        q[4] = 1.0  # departs after viewing 5 of 20 slots
        model = behavior.DepartureModel(q)
        result = engine.run(
            cfg, "be", arrivals.ArrivalProcess.trace([1] + [0] * 59), model
        )
        *_, (play_time,), (waste,) = result.sessions.columns
        assert play_time == 5
        assert waste == pytest.approx(result.ledgers.bw_used.sum() - 5.0)
        assert waste == pytest.approx(result.ledgers.bw_wasted.sum())

    def test_completed_full_viewing_wastes_nothing(self):
        cfg = SimConfig(server_capacity=10.0, video_length=20, duration=80, warmup=0)
        result = engine.run(
            cfg, "sc", arrivals.ArrivalProcess.trace([1] + [0] * 79),
            _no_departure_model(L=20),
        )
        *_, (waste,) = result.sessions.columns
        assert waste == pytest.approx(0.0, abs=1e-9)


class TestStatisticalProperties:
    def test_population_matches_littles_law(self):
        # No early departure, skip mode, ample capacity: mean active ~ lam * L.
        # Access cap = bitrate so downloads finish only at the video end and
        # every session stays resident for ~L slots.
        cfg = SimConfig(server_capacity=math.inf, video_length=50, access_cap=1.0,
                        playback_model="skip", duration=8000, warmup=500)
        lam = 2.0
        result = engine.run(cfg, "be", arrivals.ArrivalProcess.poisson(lam),
                            _no_departure_model(L=50))
        mean_active = result.ledgers.active[cfg.warmup_slots:].mean()
        assert mean_active == pytest.approx(lam * 50, rel=0.05)

    def test_freeze_time_monotone_in_load(self):
        cfg = SimConfig(server_capacity=100.0, video_length=100, duration=3000, warmup=600)
        model = behavior.DepartureModel.synthetic(L=100)
        totals = []
        for rho in (0.8, 0.9, 1.0, 1.1):
            lam = load_to_arrival_rate(rho, 100.0, 100, 1.0, model.mean_viewing_ratio)
            report = engine.run(cfg, "be", arrivals.ArrivalProcess.poisson(lam), model).report
            totals.append(report.avg_t_freeze * report.sessions_completed)
        assert totals == sorted(totals)


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        cfg = SimConfig(server_capacity=40.0, video_length=80, duration=800, warmup=160)
        model = behavior.DepartureModel.synthetic(L=80)
        process = arrivals.ArrivalProcess.poisson(0.4)
        a = engine.run(cfg, "bb", process, model)
        b = engine.run(cfg, "bb", process, model)
        assert a.report == b.report
        assert a.ledgers.tobytes() == b.ledgers.tobytes()

    @pytest.mark.parametrize("name", ["eb", "ew"])
    def test_worlds_stepped_in_turn(self, name):
        # eb's and ew's allocators carry their last water level from slot to
        # slot as the next fill's guess.  Two worlds stepped in turn give
        # the ledgers and session logs of two runs made one after the other,
        # and each world's fills get the guesses its own run gives them, so
        # the carried level belongs to its world.
        model = behavior.DepartureModel.synthetic(L=60)
        worlds = [(SimConfig(server_capacity=40.0, video_length=60, duration=600, seed=seed),
                   arrivals.ArrivalProcess.poisson(lam).generate(600, np.random.default_rng(seed)))
                  for seed, lam in ((3, 1.1), (4, 0.9))]
        guesses = []
        real = strategy._buffer_fill

        def spy(pool, C, weights, guess=None):
            rates, level = real(pool, C, weights, guess)
            guesses.append((guess, level))
            return rates, level

        def record(world, count, trail):
            del guesses[:]
            world.step(int(count))
            trail.append(list(guesses))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strategy, "_buffer_fill", spy)
            alone = []
            for cfg, counts in worlds:
                world, trail = World(cfg, name, model), []
                for c in counts:
                    record(world, c, trail)
                alone.append((world, trail))
            turns = [(World(cfg, name, model), []) for cfg, _ in worlds]
            for slot_counts in zip(*(counts for _, counts in worlds)):
                for (world, trail), c in zip(turns, slot_counts):
                    record(world, c, trail)
        for (a, a_trail), (b, b_trail) in zip(alone, turns):
            assert a.ledgers.tobytes() == b.ledgers.tobytes()
            assert a.sessions.columns.tobytes() == b.sessions.columns.tobytes()
            assert a_trail == b_trail
            # Each guess is the last finite level its own world's fills gave.
            last = None
            for guess, level in (g for slot in a_trail for g in slot):
                assert guess == last
                if math.isfinite(level):
                    last = level
        # Capacity binds, so the fills took the guess; the two worlds' guesses differ.
        assert sum(g is not None for t in alone[0][1] for g, _ in t) > 100
        assert alone[0][1] != alone[1][1]

    def test_seed_changes_results(self):
        cfg = SimConfig(server_capacity=40.0, video_length=80, duration=800, warmup=160)
        model = behavior.DepartureModel.synthetic(L=80)
        process = arrivals.ArrivalProcess.poisson(0.4)
        a = engine.run(cfg, "be", process, model)
        b = engine.run(replace(cfg, seed=999), "be", process, model)
        assert a.report != b.report


class TestConfigValidation:
    def test_rejects_bad_playback_model(self):
        with pytest.raises(ValueError):
            SimConfig(playback_model="rewind").validate()

    @pytest.mark.parametrize("field", ["bitrate", "access_cap", "server_capacity",
                                       "startup_threshold"])
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError, match=f"{field} must be positive, got nan"):
            replace(SimConfig(), **{field: math.nan}).validate()

    @pytest.mark.parametrize("field", ["bitrate", "startup_threshold", "rebuffer_threshold",
                                       "freeze_trigger"])
    def test_rejects_infinite(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got inf$"):
            replace(SimConfig(), **{field: math.inf}).validate()

    def test_capacities_may_be_unlimited(self):
        SimConfig(access_cap=math.inf, server_capacity=math.inf).validate()

    @pytest.mark.parametrize("field, value", [
        ("duration", 10.5), ("duration", 10.0), ("video_length", 30.5), ("warmup", 2.5),
        ("seed", 1.5), ("seed", "7"), ("duration", True),
    ])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value!r}$"):
            replace(SimConfig(), **{field: value}).validate()

    def test_accepts_numpy_integer_counts(self):
        SimConfig(video_length=np.int64(30), seed=np.int32(1), duration=np.int64(90),
                  warmup=np.uint8(0)).validate()

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            SimConfig(seed=-1).validate()

    def test_default_warmup_is_twice_video_length(self):
        assert SimConfig(duration=5000).warmup_slots == 600

    def test_ledger_export_format(self, tmp_path):
        cfg = SimConfig(server_capacity=20.0, video_length=30, duration=50, warmup=0)
        result = engine.run(cfg, "be", arrivals.ArrivalProcess.poisson(0.3),
                            _no_departure_model(L=30))
        path = tmp_path / "ledger.csv"
        engine.export_ledgers(result.ledgers, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "slot,arrivals,active,bw_used,bw_wasted,departures"
        assert len(lines) == 51


class TestSlotTable:
    def test_stepping_past_duration_keeps_every_row(self):
        # The table grows with the slots stepped, not with config.duration;
        # 300 slots outgrow its first block.  A row's bw_wasted is NaN when
        # `step` returns it and is settled when `ledgers` is read; every
        # other field keeps the bytes `step` returned.
        cfg = SimConfig(server_capacity=10.0, video_length=20, duration=5, warmup=0)
        world = World(cfg, "be", behavior.DepartureModel.synthetic(L=20))
        rows = b"".join(world.step(i % 3).tobytes() for i in range(300))
        stepped = np.frombuffer(rows, engine.SLOT_DTYPE).copy()
        assert np.isnan(stepped["bw_wasted"]).all()
        ledgers = world.ledgers
        _assert_wasted_is_each_slots_logged_waste(ledgers, world.sessions)
        stepped["bw_wasted"] = ledgers.bw_wasted
        assert ledgers.tobytes() == stepped.tobytes()
        assert np.array_equal(ledgers.slot, np.arange(300))
        assert np.array_equal(ledgers.arrivals, np.arange(300) % 3)
        assert ledgers.departures.sum() > 0

    def test_export_of_an_empty_table_is_the_header(self, tmp_path):
        world = World(SimConfig(video_length=20), "be", _no_departure_model())
        path = tmp_path / "ledger.csv"
        engine.export_ledgers(world.ledgers, path)
        assert path.read_text() == engine.LEDGER_HEADER + "\n"


def _assert_wasted_is_each_slots_logged_waste(ledgers, log):
    """Each slot's bw_wasted is, bit for bit, the one `np.add.reduce` of the
    waste its departures logged, in log order; 0.0 in a slot with none."""
    waste = log.columns[-1]
    counts = ledgers.departures.astype(int)
    assert counts.sum() == waste.size
    ends = np.cumsum(counts).tolist()
    want = np.array([np.add.reduce(waste[e - m : e]) for e, m in zip(ends, counts.tolist())])
    assert ledgers.bw_wasted.tobytes() == want.tobytes()


def _logged_waste(mode, downloaded, playback, skipped, target, bitrate=1.0):
    """The waste a departing session logs, in Mb: the seconds it downloaded
    beyond those it viewed, at least 0, times the bitrate.  Skip mode views
    the slots played less the seconds skipped; freeze mode credits a session
    up to its target, the buffered tail it would still watch.  The tests'
    one statement of the rule, for scalars or for arrays of sessions."""
    viewed = playback - skipped if mode == "skip" else np.maximum(playback, target)
    return np.maximum(downloaded - viewed, 0.0) * bitrate


def _reference_session(cfg, name, model, target):
    """One session at unlimited capacity, as a plain loop over its slots
    that shares no code with the slab.  No budget binds, so no session
    affects another: sc and sc+ take the access cap in startup and then
    1 + delta seconds per slot, bb one second per slot while browsing, and
    every other slot takes the access cap.  Returns the session's rate in
    each of its slots (content seconds) and its logged (freeze_count,
    freeze_time, play_time, waste)."""
    access = cfg.access_cap / cfg.bitrate
    buffer = downloaded = skipped = 0.0
    state, playback, freeze_count, freeze_time = engine.STARTUP, 0, 0, 0
    rates = []
    while True:
        cap = min(cfg.video_length - downloaded, access)
        if state == engine.STARTUP or name in ("be", "eb", "ew"):
            rate = cap
        elif name in ("sc", "sc+"):
            rate = min(cap, 1.05 if name == "sc+" else 1.0)
        else:  # bb
            rate = min(cap, 1.0) if playback < model.browse_slots else cap
        rates.append(rate)
        buffer += rate
        downloaded += rate
        was_playing = state == engine.PLAYING
        if state == engine.STARTUP and buffer >= cfg.startup_threshold:
            state = engine.PLAYING
        if cfg.playback_model == "skip":
            if was_playing:
                take = min(buffer, 1.0)
                buffer -= take
                skipped += 1.0 - take
                playback += 1
        else:
            if state == engine.FROZEN and buffer >= cfg.rebuffer_threshold:
                state = engine.PLAYING
            if was_playing and buffer - 1.0 > cfg.freeze_trigger:
                buffer -= 1.0
                playback += 1
            elif was_playing:
                state = engine.FROZEN
                freeze_count += 1
            freeze_time += state == engine.FROZEN
        if playback >= target or downloaded >= cfg.video_length - 1e-9:
            waste = _logged_waste(cfg.playback_model, downloaded, playback, skipped, target,
                                  cfg.bitrate)
            return rates, (freeze_count, freeze_time, playback, waste)


class TestUnlimitedCapacity:
    @staticmethod
    def _setup(mode):
        cfg = SimConfig(server_capacity=math.inf, video_length=60, playback_model=mode,
                        duration=600, warmup=0, seed=5)
        counts = arrivals.diurnal_trace(600, 0.5, 6.0, np.random.default_rng(5))
        return cfg, counts, behavior.DepartureModel.synthetic(L=60)

    @pytest.mark.parametrize("mode", ["freeze", "skip"])
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_matches_the_scalar_reference(self, name, mode):
        cfg, counts, model = self._setup(mode)
        result = engine.run(cfg, name, arrivals.ArrivalProcess.trace(counts), model)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
        targets = model.sample_slots(rng.random(int(counts.sum())))
        arrival = np.repeat(np.arange(cfg.duration), counts)
        active, bw_used, logged = np.zeros(cfg.duration), np.zeros(cfg.duration), []
        for i, (a, target) in enumerate(zip(arrival.tolist(), targets.tolist())):
            rates, row = _reference_session(cfg, name, model, target)
            # Sessions are logged in departure order, same-slot departures
            # in arrival order; ones still active at the end are not.
            last = a + len(rates) - 1
            if last < cfg.duration:
                logged.append((last, i, a, *row))
            rates = rates[: cfg.duration - a]
            active[a : a + len(rates)] += 1
            bw_used[a : a + len(rates)] += np.multiply(rates, cfg.bitrate)
        want = np.array(sorted(logged))[:, 2:].T
        got = result.sessions.columns
        assert got.shape == want.shape and got.shape[1] > 500
        assert np.array_equal(got[:4], want[:4])  # arrival, freezes, play_time
        assert want[4].sum() > 0
        np.testing.assert_allclose(got[4], want[4], rtol=1e-12, atol=0)
        assert np.array_equal(result.ledgers.active, active)
        np.testing.assert_allclose(result.ledgers.bw_used, bw_used, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("mode", ["freeze", "skip"])
    def test_be_eb_ew_are_one_simulation(self, mode):
        # With no binding budget, be, eb and ew all serve every session its
        # cap, so their slot tables and session logs agree bit for bit, both
        # from `run` and from the slot loop.
        cfg, counts, model = self._setup(mode)
        for simulate in (_run, _stepped):
            results = [simulate(cfg, name, model, counts) for name in ("be", "eb", "ew")]
            be_ledgers, be_log = results[0]
            assert be_log.shape[1] > 500 and be_ledgers.bw_wasted.sum() > 0
            for ledgers, log in results[1:]:
                assert ledgers.tobytes() == be_ledgers.tobytes()
                assert log.tobytes() == be_log.tobytes()

    @pytest.mark.parametrize("mode", ["freeze", "skip"])
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_matches_the_slot_loop(self, name, mode):
        counts = arrivals.diurnal_trace(120, 0.5, 4.0, np.random.default_rng(3))
        configs = itertools.product([1.0, 0.3, 2.5], [60, 61], [2.0, 1.5, 3.7], [0.7, 2.0],
                                    [2.0, 5.0], [0.0, 0.4])
        for bitrate, L, access, startup, rebuffer, trigger in configs:
            cfg = SimConfig(bitrate=bitrate, video_length=L, access_cap=access * bitrate,
                            server_capacity=math.inf, startup_threshold=startup,
                            rebuffer_threshold=rebuffer, freeze_trigger=trigger,
                            playback_model=mode, duration=120, warmup=20, seed=L)
            model = behavior.DepartureModel.synthetic(L=L)
            _assert_matches_the_slot_loop(cfg, name, model, counts)

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @pytest.mark.parametrize("case", ["no arrivals", "no slots", "shorter than a lifetime",
                                      "one-slot video", "startup above the video length",
                                      "warmup after the end", "departure bursts",
                                      "skip with fractional takes"])
    def test_edge_cases_match_the_slot_loop(self, name, case):
        cfg = SimConfig(server_capacity=math.inf, video_length=30, duration=120, warmup=0,
                        seed=9)
        counts = arrivals.diurnal_trace(120, 0.5, 3.0, np.random.default_rng(9))
        model = behavior.DepartureModel.synthetic(L=30)
        if case == "no arrivals":
            counts[:] = 0
        elif case == "no slots":
            cfg = replace(cfg, duration=0)
        elif case == "shorter than a lifetime":
            cfg, counts = replace(cfg, duration=12), counts[:12]
        elif case == "one-slot video":
            cfg = replace(cfg, video_length=1, startup_threshold=0.5, rebuffer_threshold=0.5)
            model = behavior.DepartureModel([1.0])
        elif case == "startup above the video length":
            cfg = replace(cfg, startup_threshold=45.0, rebuffer_threshold=45.0)
        elif case == "departure bursts":
            # Hundreds of same-slot departures with inexact waste: slots of
            # more than 128 departures take numpy's pairwise branch, which
            # the per-count sums must follow as the slot loop's sums do.
            cfg = replace(cfg, bitrate=0.3, access_cap=0.51)
            counts[:] = 0
            counts[3], counts[40] = 400, 150
        elif case == "warmup after the end":
            cfg = replace(cfg, warmup=200)
        elif case == "skip with fractional takes":
            cfg = replace(cfg, playback_model="skip", bitrate=0.3, access_cap=0.3 * 0.55)
        result = _assert_matches_the_slot_loop(cfg, name, model, counts)
        ledgers, sessions = result.ledgers, result.sessions
        if case in ("no arrivals", "no slots"):
            assert not ledgers.active.any() and len(sessions) == 0 and result.report.empty
        elif case == "shorter than a lifetime":
            # Sessions still active at the end count in `active`, unlogged.
            assert ledgers.active[-1] > 0
            assert len(sessions) == ledgers.departures.sum() < counts.sum()
        elif case == "one-slot video":
            assert np.array_equal(ledgers.departures, counts)  # all leave in their first slot
        elif case == "startup above the video length":
            assert not ledgers.playing.any() and ledgers.departures.sum() > 0
        elif case == "departure bursts":
            departures = ledgers.departures
            assert departures.max() > 128 and ((departures >= 8) & (departures <= 128)).any()
            assert ledgers.bw_wasted.max() > 0
            _assert_matches_the_slot_loop(replace(cfg, playback_model="skip"), name, model,
                                          counts)
        elif case == "skip with fractional takes":
            # An access link below a second per slot leaves takes below one.
            assert np.any(ledgers.consumed % 1 > 0) and len(sessions) > 0
        else:
            assert result.report.empty and ledgers.departures.sum() > 0

    @pytest.mark.parametrize("name", ["sc", "bb"])
    @pytest.mark.parametrize("T", [65535, 65536, 65537])
    def test_departure_order_across_the_key_width(self, T, name):
        # The departure order sorts slot keys, with the slot count as the key
        # of a session still active at the end: 16-bit keys below 2**16
        # slots, wider ones from there on.  A burst near the end puts
        # same-slot departures on the last slots, 65535 and 65536 among
        # them, and leaves sessions active at the end.
        cfg = SimConfig(server_capacity=math.inf, video_length=30, duration=T, warmup=0,
                        seed=9)
        counts = np.zeros(T, dtype=np.int64)
        counts[100] = 3
        counts[T - 40 :] = 5
        model = behavior.DepartureModel.synthetic(L=30)
        ledgers = _assert_matches_the_slot_loop(cfg, name, model, counts).ledgers
        assert ledgers.departures[-3:].sum() > 0 and ledgers.departures[-40:].max() > 1
        assert ledgers.active[-1] > ledgers.departures[-1]

    def test_group_sums_match_one_reduce_per_group(self):
        # Each group sums as the one 1-D `np.add.reduce` a departure makes,
        # bit for bit, for every size up to and past numpy's 8-term and
        # 128-term branches, with empty groups in between.
        rng = np.random.default_rng(17)
        counts = rng.permutation(np.repeat(np.arange(261), 2))
        values = rng.lognormal(0.0, 4.0, counts.sum())
        first = np.cumsum(counts) - counts
        want = np.array([np.add.reduce(values[f : f + m]) for f, m in zip(first, counts)])
        got = engine._group_sums(values, counts)
        assert got.tobytes() == want.tobytes()
        # The values spread enough that the order shows: exactly rounded
        # sums differ from the reduction's in many groups.
        exact = np.array([math.fsum(values[f : f + m]) for f, m in zip(first, counts)])
        assert (exact != want).sum() > 100


def _run(cfg, name, model, counts):
    """`run`'s slot table and session log over `counts` arrivals."""
    result = engine.run(cfg, name, arrivals.ArrivalProcess.trace(counts), model)
    return result.ledgers, result.sessions.columns


def _stepped(cfg, name, model, counts):
    """A `World` stepped over the first `cfg.duration` of `counts`, as `run`
    reads a trace: its slot table and the session log `run` keeps from it,
    the reference for `run`'s unlimited-capacity path."""
    world = World(cfg, name, model)
    for c in counts[: cfg.duration]:
        world.step(int(c))
    log = world.sessions.columns
    return world.ledgers, log[:, log[0] >= cfg.warmup_slots]


def _assert_matches_the_slot_loop(cfg, name, model, counts):
    """`run` at unlimited capacity against the slot loop: every column bit
    for bit, except `bw_used` and skip mode's `consumed`, sums over the pool
    in another order, to 1e-12 relative; and its read-off against a session
    per target.  Returns `run`'s result."""
    result = engine.run(cfg, name, arrivals.ArrivalProcess.trace(counts), model)
    ledgers, log = _stepped(cfg, name, model, counts)
    got = result.ledgers
    assert got.shape == ledgers.shape
    summed = ("bw_used", "consumed") if cfg.playback_model == "skip" else ("bw_used",)
    for field in engine.SLOT_FIELDS:
        if field in summed:
            np.testing.assert_allclose(got[field], ledgers[field], rtol=1e-12, atol=0,
                                       err_msg=f"{field} {cfg}")
        else:
            assert got[field].tobytes() == ledgers[field].tobytes(), (field, cfg)
    assert result.sessions.columns.shape == log.shape, cfg
    assert result.sessions.columns.tobytes() == log.tobytes(), cfg
    _assert_read_off_matches_each_target(cfg, name, model)
    return result


def _assert_read_off_matches_each_target(cfg, name, model):
    """`run`'s unlimited-capacity read-off, each target's departure slot and
    logged row from one session's trajectory, against the oracle: a `World`
    preloaded with one session per target 1..L in slot 0 and stepped.  Bit
    for bit, for every target."""
    L, T = cfg.video_length, cfg.duration
    world = World(cfg, name, model)
    world._targets = np.arange(1.0, L + 1)
    world._admit(L)
    # The arrival row is only logged: mark each session with its target.
    _columns(world)["arrival"][:] = np.arange(1, L + 1)
    while world.slot < T and world.active_count:
        world.step()
    log = world.sessions.columns
    targets = log[0].astype(int)
    want_d = np.full(L, T)
    want_d[targets - 1] = np.repeat(np.arange(world.slot), world.ledgers.departures.astype(int))
    want_log = np.zeros((log.shape[0], L))
    want_log[:, targets - 1] = log
    want_log[0] = 0  # the trajectory's session arrives in slot 0

    d, logged = engine._Trajectory(cfg, name, model).read_off()
    assert d.tobytes() == want_d.astype(d.dtype).tobytes(), cfg
    assert logged.tobytes() == want_log[:, want_d < T].tobytes(), cfg


def _check_every_slot(cfg, strategy, model, counts):
    """Run a World over `counts` arrivals and check every slot's invariants,
    read through a wrapped `engine.make_allocator` and `engine._compact` (no
    `World` option).  The pool's caps are the content seconds left to each
    session, capped by its access link; every rate stays within its cap
    exactly.  eb and ew spend at most C exactly, the others to 1e-9.
    Returns the number of slots where capacity binds."""
    exact = strategy in ("eb", "ew")
    slot = {}
    real_make_allocator, real_compact = engine.make_allocator, engine._compact

    def make_allocator(*args):
        alloc = real_make_allocator(*args)

        def checked(pool, C):
            assert np.all(pool.cap > 0.0)  # the fills rely on cap >= 0
            # hazard_at indexes the model's rates by these slot counts.
            v = pool.viewed
            assert np.all((v == np.floor(v)) & (v >= 0) & (v < cfg.video_length))
            slot["before"] = before = _columns(world, copy=True)
            left = cfg.video_length - before["downloaded"]
            cap = np.minimum(cfg.access_cap / cfg.bitrate, left)
            assert np.array_equal(cap, pool.cap)
            slot["rates"] = rates = alloc(pool, C)
            assert np.all(rates >= 0.0)
            assert np.all(rates <= cap)
            if exact:
                assert np.add.reduce(rates) <= C
            else:
                assert rates.sum() <= C * (1 + 1e-9)
            return rates
        return checked

    def compact(src, dst, n, gone):
        slot["after_download"] = _columns(world, copy=True)
        slot["departing"] = np.isin(np.arange(n), gone)
        return real_compact(src, dst, n, gone)

    binding = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "make_allocator", make_allocator)
        mp.setattr(engine, "_compact", compact)
        world = World(cfg, strategy, model)
        for c in counts:
            slot.clear()
            world.step(int(c))
            after = slot.get("after_download") or _columns(world)
            if "departing" in slot:
                survivors = ~slot["departing"]
                for name, column in _columns(world).items():
                    assert np.array_equal(column, after[name][survivors])
            if "rates" in slot:
                before = slot["before"]
                binding += slot["rates"].sum() * cfg.bitrate >= cfg.server_capacity * (1 - 1e-9)
                assert np.array_equal(after["downloaded"], before["downloaded"] + slot["rates"])
                assert np.all(after["buffer"] >= 0.0)
                assert np.all(np.isin(after["state"], (engine.STARTUP, engine.PLAYING, engine.FROZEN)))
            assert np.all(np.diff(_columns(world)["arrival"]) >= 0)
    return binding


class TestSlotInvariants:
    """Per-slot invariants of every strategy, on one overloaded config and on
    random ones."""

    @pytest.mark.parametrize("mode", ["freeze", "skip"])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_invariants_hold_every_slot(self, strategy, mode):
        cfg = SimConfig(server_capacity=40.0, video_length=60, playback_model=mode,
                        duration=500, warmup=0, seed=7)
        model = behavior.DepartureModel.synthetic(L=60)
        lam = load_to_arrival_rate(1.2, 40.0, 60, 1.0, model.mean_viewing_ratio)
        counts = arrivals.ArrivalProcess.poisson(lam).generate(500, np.random.default_rng(7))
        binding = _check_every_slot(cfg, strategy, model, counts)
        assert binding > 100  # capacity binds, so the fills take their sort paths

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @given(
        rho=st.floats(min_value=0.3, max_value=1.5),
        capacity=st.floats(min_value=5.0, max_value=40.0),
        L=st.integers(min_value=10, max_value=60),
        mode=st.sampled_from(["freeze", "skip"]),
        startup=st.floats(min_value=0.5, max_value=6.0),
        rebuffer=st.floats(min_value=0.5, max_value=6.0),
        trigger_share=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
        bitrate=st.sampled_from([1.0, 0.3, 2.5]),
    )
    @settings(max_examples=20, deadline=None)
    def test_invariants_hold_on_random_configs(self, strategy, rho, capacity, L, mode,
                                               startup, rebuffer, trigger_share, seed, bitrate):
        cfg = SimConfig(bitrate=bitrate, server_capacity=capacity, video_length=L,
                        playback_model=mode, startup_threshold=startup,
                        rebuffer_threshold=rebuffer, freeze_trigger=trigger_share * rebuffer,
                        duration=300, warmup=0, seed=seed)
        model = behavior.DepartureModel.synthetic(L=L)
        lam = engine.poisson_arrival_rate(rho, cfg, model)
        counts = arrivals.ArrivalProcess.poisson(lam).generate(300, np.random.default_rng(seed))
        _check_every_slot(cfg, strategy, model, counts)


class TestBitrateIsAUnit:
    """The slot loop counts seconds of video, so scaling the bitrate, the
    access cap and the server capacity by one power of two scales the
    bandwidth columns by it exactly and leaves every other column's bits."""

    @pytest.mark.parametrize("mode", ["freeze", "skip"])
    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    def test_only_bandwidth_scales(self, strategy, mode):
        base = SimConfig(server_capacity=40.0, video_length=60, playback_model=mode,
                         duration=500, warmup=0, seed=7)
        model = behavior.DepartureModel.synthetic(L=60)
        lam = load_to_arrival_rate(1.2, 40.0, 60, 1.0, model.mean_viewing_ratio)
        process = arrivals.ArrivalProcess.trace(
            arrivals.ArrivalProcess.poisson(lam).generate(500, np.random.default_rng(7)))
        ref = engine.run(base, strategy, process, model)
        assert ref.ledgers.bw_wasted.sum() > 0 and len(ref.sessions) > 100
        for b in (0.25, 4.0):
            cfg = replace(base, bitrate=b, access_cap=base.access_cap * b,
                          server_capacity=base.server_capacity * b)
            got = engine.run(cfg, strategy, process, model)
            for name in engine.SLOT_FIELDS:
                want = ref.ledgers[name] * (b if name in ("bw_used", "bw_wasted") else 1.0)
                assert got.ledgers[name].tobytes() == want.tobytes(), (b, name)
            want = ref.sessions.columns.copy()
            want[metrics.SessionLog.FIELDS.index("waste")] *= b
            assert got.sessions.columns.tobytes() == want.tobytes(), b


def _filled_world(n, seed=0, **config):
    """A World holding n sessions with distinct values in every slab row."""
    world = World(SimConfig(video_length=20, **config), "be", _no_departure_model())
    world.step(n)
    values = np.random.default_rng(seed).random((len(engine.SLAB_ROWS), n))
    for column, v in zip(_columns(world).values(), values):
        column[:] = v
    return world


class TestCompaction:
    """Departures leave the survivors and the logged rows that a boolean mask
    gives, however many sessions leave in one slot."""

    @pytest.mark.parametrize("n, gone", [
        (10, [0]),
        (10, [9]),
        (10, [3, 4]),
        (10, [0, 1, 2, 8, 9]),
        (10, list(range(10))),
        (1, [0]),
        (100, [0, 1, 37, 38, 39, 70, 99]),
        (100, list(range(0, 100, 2))),       # 50 departures, 50 runs
        (100, list(range(60, 100))),         # 40 adjacent, the last rows
        (100, list(range(0, 100))),
        (100, [0, 5, 6, 50, 98, 99] + list(range(10, 46))),
    ])
    def test_matches_boolean_mask(self, n, gone):
        world = _filled_world(n)
        before = _columns(world, copy=True)
        departing = np.zeros(n, dtype=bool)
        departing[gone] = True
        world._depart(departing.nonzero()[0])
        assert world.active_count == n - len(gone)
        for name, column in _columns(world).items():
            assert np.array_equal(column, before[name][~departing])
        ref = {name: column[departing] for name, column in before.items()}
        logged = world.sessions.columns
        assert np.array_equal(logged[0], ref["arrival"])
        assert np.array_equal(logged[1], ref["freeze_count"])
        assert np.array_equal(logged[2], ref["freeze_time"])
        assert np.array_equal(logged[3], ref["playback"])
        waste = _logged_waste("freeze", ref["downloaded"], ref["playback"], ref["skipped"],
                              ref["target"])
        assert np.array_equal(logged[4], waste)

    @pytest.mark.parametrize("mode", ["freeze", "skip"])
    def test_logged_fields_are_the_named_rows(self, mode):
        # A departure logs a slice of the slab's rows; each logged field must
        # come from the row of its name, whatever the row order.  The filled
        # values in [0, 1) are taken as bandwidth: downloaded holds content
        # seconds, so it is divided by the bitrate.
        bitrate = 0.25
        world = _filled_world(40, seed=3, playback_model=mode, bitrate=bitrate)
        _columns(world)["downloaded"] /= bitrate
        rows = _columns(world, copy=True)
        gone = np.array([0, 6, 7, 21, 39])
        world._depart(gone)
        logged = dict(zip(metrics.SessionLog.FIELDS, world.sessions.columns))
        assert np.array_equal(logged["arrival_slot"], rows["arrival"][gone])
        assert np.array_equal(logged["freeze_count"], rows["freeze_count"][gone])
        assert np.array_equal(logged["freeze_time"], rows["freeze_time"][gone])
        assert np.array_equal(logged["play_time"], rows["playback"][gone])
        waste = _logged_waste(mode, rows["downloaded"], rows["playback"], rows["skipped"],
                              rows["target"], bitrate)[gone]
        assert np.count_nonzero(waste) >= 3
        assert np.array_equal(logged["waste"], waste)
        # A stepped slot's bw_wasted, read through `ledgers`, sums the waste
        # its departures logged; slots with several wasting departures show
        # the order of the sum.
        cfg = SimConfig(bitrate=bitrate, access_cap=2 * bitrate, server_capacity=10 * bitrate,
                        video_length=20, playback_model=mode)
        world = World(cfg, "be", behavior.DepartureModel.synthetic(L=20))
        for i in range(200):
            world.step(i % 5)
        ledgers = world.ledgers
        assert ((ledgers.departures >= 3) & (ledgers.bw_wasted > 0)).sum() >= 3
        _assert_wasted_is_each_slots_logged_waste(ledgers, world.sessions)

    def test_grow_right_after_a_swap(self):
        # A departure swaps the slab with its spare; growing the slab next
        # must carry the survivors over and leave a spare of the new size.
        world = _filled_world(50)
        before = _columns(world, copy=True)
        departing = np.zeros(50, dtype=bool)
        departing[[0, 7, 8, 30, 49]] = True
        world._depart(departing.nonzero()[0])
        assert world._slab.shape[1] == 50
        world._admit(20)  # 45 + 20 > 50 columns: grows
        assert world._slab.shape == world._spare.shape
        assert world._slab.shape[1] > 50
        columns = _columns(world)
        for name, column in columns.items():
            assert np.array_equal(column[:45], before[name][~departing])
        assert np.all(columns["state"][45:] == engine.STARTUP)
        assert np.all(columns["buffer"][45:] == 0.0)
        # A second compaction goes through the grown spare slab.
        grown = _columns(world, copy=True)
        gone = np.array([3, 44, 45, 64])
        world._depart(gone)
        keep = ~np.isin(np.arange(65), gone)
        for name, column in _columns(world).items():
            assert np.array_equal(column, grown[name][keep])


class _PricedPerSlot(World):
    """The oracle for settlement: a `World` that also prices each departing
    block in its own slot, as the slot loop did before departures were
    settled in batches: `_waste` on the slot's block and one
    `np.add.reduce` of its waste."""

    def __init__(self, *args):
        super().__init__(*args)
        self.wasted = {}
        self.blocks = [np.zeros((len(metrics.SessionLog.FIELDS), 0))]

    def _depart(self, gone):
        block = self._slab[engine.SKIPPED :].take(gone, axis=1)
        self._waste(block)
        self.blocks.append(block[engine.ARRIVAL - engine.SKIPPED :])
        self.wasted[self.slot] = float(np.add.reduce(block[-1]))
        super()._depart(gone)

    def assert_settled_alike(self):
        ledgers = self.ledgers
        want = np.zeros(self.slot)
        for slot, wasted in self.wasted.items():
            want[slot] = wasted
        assert ledgers.bw_wasted.tobytes() == want.tobytes()
        assert self.sessions.columns.tobytes() == np.concatenate(self.blocks, axis=1).tobytes()
        return ledgers


def _stepped_world(world, counts, read_every=0):
    """`world` stepped over `counts`, its slot table and session log read
    every `read_every` slots (never for 0)."""
    for i, c in enumerate(counts, start=1):
        world.step(int(c))
        if read_every and i % read_every == 0:
            assert not np.isnan(world.ledgers.bw_wasted).any()
            assert len(world.sessions) == world.ledgers.departures.sum()
    return world


def _overloaded_counts(rho, slots=400, L=60, seed=7):
    model = behavior.DepartureModel.synthetic(L=L)
    lam = load_to_arrival_rate(rho, 40.0, L, 1.0, model.mean_viewing_ratio)
    return model, arrivals.ArrivalProcess.poisson(lam).generate(slots, np.random.default_rng(seed))


class TestSettlement:
    """Departures are priced in batches, yet every slot's bw_wasted and every
    logged row carry the bits that pricing each slot's departures in that
    slot gives, whenever settlement runs."""

    CASES = list(itertools.product(["freeze", "skip"], [0.3, 1.0, 2.5], [0.5, 0.995, 1.2]))

    @pytest.mark.parametrize("i", range(len(CASES)),
                             ids=["-".join(map(str, case)) for case in CASES])
    def test_matches_pricing_per_slot(self, i):
        mode, bitrate, rho = self.CASES[i]
        model, counts = _overloaded_counts(rho)
        cfg = SimConfig(bitrate=bitrate, access_cap=2.0 * bitrate,
                        server_capacity=40.0 * bitrate, video_length=60, playback_model=mode,
                        seed=i)
        world = _stepped_world(_PricedPerSlot(cfg, STRATEGY_NAMES[i % 6], model), counts)
        ledgers = world.assert_settled_alike()
        assert ledgers.departures.max() >= 3 and ledgers.bw_wasted.sum() > 0

    @pytest.mark.parametrize("every", [1, 13, 100])
    def test_reading_mid_run_changes_no_byte(self, every):
        model, counts = _overloaded_counts(0.995)
        cfg = SimConfig(server_capacity=40.0, video_length=60, seed=4)
        read = _stepped_world(World(cfg, "bb", model), counts, read_every=every)
        unread = _stepped_world(World(cfg, "bb", model), counts)
        assert read.ledgers.tobytes() == unread.ledgers.tobytes()
        assert read.sessions.columns.tobytes() == unread.sessions.columns.tobytes()

    def test_a_log_read_mid_run_keeps_its_bytes(self):
        # `sessions` is a view of the departed block: later slots, the
        # block's growth and later settlements must not write its columns.
        model, counts = _overloaded_counts(1.2)
        cfg = SimConfig(server_capacity=40.0, video_length=60, seed=5)
        world = _stepped_world(World(cfg, "sc", model), counts[:100])
        log = world.sessions
        before, block = log.columns.copy(), world._departed
        _stepped_world(world, counts[100:], read_every=13)
        assert world._departed is not block and len(world.sessions) > block.shape[1]
        assert log.columns.tobytes() == before.tobytes()
        assert world.sessions.columns[:, : len(log)].tobytes() == before.tobytes()

    @pytest.mark.parametrize("mode", ["freeze", "skip"])
    def test_a_slot_departing_more_than_the_block_holds(self, mode):
        # 5000 sessions of a three-slot video arrive together and all leave
        # when their downloads complete, most of them with waste, in one
        # slot: more than twice the departed block's initial columns, so it
        # grows to hold them at once, settled with the slots before.
        cfg = SimConfig(server_capacity=1e5, video_length=3, playback_model=mode, seed=2)
        world = _PricedPerSlot(cfg, "be", behavior.DepartureModel.synthetic(L=3))
        initial = world._departed.shape[1]
        _stepped_world(world, [1, 0, 2, 5000, 0, 0, 0])
        ledgers = world.assert_settled_alike()
        assert ledgers.departures.max() > 2 * initial
        assert ledgers.departures[:3].sum() > 0 and ledgers.bw_wasted.max() > 0


class TestDepartureTargets:
    """Targets are drawn ahead in chunks, yet every session gets the target a
    draw per admitted session would give."""

    @pytest.mark.parametrize("bursts", [
        [1, 3, 4097, 5000],
        [5000, 1, 3, 4097],
        [engine.TARGET_CHUNK - 1, 1, 1, engine.TARGET_CHUNK, 2],
    ])
    def test_equal_one_draw_of_all_sessions(self, bursts):
        cfg = SimConfig(video_length=300, seed=11)
        model = behavior.DepartureModel.synthetic(L=300)
        world = World(cfg, "be", model)
        for k in bursts:
            world._admit(k)
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])
        expected = model.sample_slots(rng.random(sum(bursts)))
        assert np.array_equal(_columns(world)["target"], expected)
