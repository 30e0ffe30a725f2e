"""Slot-loop, load-conversion, and determinism tests for the simulator."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodsim import arrivals, behavior, engine
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
                                          cfg.startup_threshold, cfg.bitrate)
        expected = load_to_arrival_rate(rho, cfg.server_capacity, cfg.video_length,
                                        cfg.bitrate, estimate)
        assert engine.poisson_arrival_rate(rho, cfg, model) == expected

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


class TestAccounting:
    def test_bandwidth_never_exceeds_capacity(self):
        cfg = SimConfig(server_capacity=30.0, video_length=60, duration=600, warmup=0)
        model = behavior.DepartureModel.synthetic(L=60)
        result = engine.run(cfg, "be", arrivals.ArrivalProcess.poisson(1.5), model)
        assert all(l.bw_used <= cfg.server_capacity + 1e-9 for l in result.ledgers)

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
        downloaded = sum(l.bw_used for l in result.ledgers)
        assert waste == pytest.approx(downloaded - 5.0)
        assert waste == pytest.approx(sum(l.bw_wasted for l in result.ledgers))

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
        window = [l for l in result.ledgers if l.slot >= cfg.warmup_slots]
        mean_active = sum(l.active for l in window) / len(window)
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
        assert [l.row() for l in a.ledgers] == [l.row() for l in b.ledgers]

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


def _check_every_slot(cfg, strategy, model, counts):
    """Run a World over `counts` arrivals and check every slot's invariants,
    read through a wrapped `engine.make_allocator` and `engine._compact` (no
    `World` option).  Returns the number of slots where capacity binds."""
    slot = {}
    real_make_allocator, real_compact = engine.make_allocator, engine._compact

    def make_allocator(*args):
        alloc = real_make_allocator(*args)

        def checked(pool, C):
            assert np.all(pool.cap >= 0.0)  # the fills rely on it
            # hazard_at indexes the model's rates by these slot counts.
            v = pool.viewed
            assert np.all((v == np.floor(v)) & (v >= 0) & (v < cfg.video_length))
            rates = alloc(pool, C)
            slot["before"] = before = _columns(world, copy=True)
            slot["rates"] = rates
            cap = np.minimum(cfg.access_cap, cfg.file_size - before["downloaded"])
            assert np.all(rates >= 0.0)
            assert np.all(rates <= cap * (1 + 1e-12))
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
                binding += slot["rates"].sum() >= cfg.server_capacity * (1 - 1e-9)
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
    )
    @settings(max_examples=20, deadline=None)
    def test_invariants_hold_on_random_configs(self, strategy, rho, capacity, L, mode,
                                               startup, rebuffer, trigger_share, seed):
        cfg = SimConfig(server_capacity=capacity, video_length=L, playback_model=mode,
                        startup_threshold=startup, rebuffer_threshold=rebuffer,
                        freeze_trigger=trigger_share * rebuffer,
                        duration=300, warmup=0, seed=seed)
        model = behavior.DepartureModel.synthetic(L=L)
        lam = engine.poisson_arrival_rate(rho, cfg, model)
        counts = arrivals.ArrivalProcess.poisson(lam).generate(300, np.random.default_rng(seed))
        _check_every_slot(cfg, strategy, model, counts)


def _filled_world(n, seed=0):
    """A World holding n sessions with distinct values in every slab row."""
    world = World(SimConfig(video_length=20), "be", _no_departure_model())
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
        world._depart(departing.nonzero()[0], engine.SlotLedger(slot=0))
        assert world.active_count == n - len(gone)
        for name, column in _columns(world).items():
            assert np.array_equal(column, before[name][~departing])
        ref = {name: column[departing] for name, column in before.items()}
        logged = world.sessions.columns
        assert np.array_equal(logged[0], ref["arrival"])
        assert np.array_equal(logged[1], ref["freeze_count"])
        assert np.array_equal(logged[2], ref["freeze_time"])
        assert np.array_equal(logged[3], ref["playback"])
        viewed = np.maximum(ref["playback"], ref["target"])
        assert np.array_equal(logged[4], np.maximum(ref["downloaded"] - viewed, 0.0))

    def test_grow_right_after_a_swap(self):
        # A departure swaps the slab with its spare; growing the slab next
        # must carry the survivors over and leave a spare of the new size.
        world = _filled_world(50)
        before = _columns(world, copy=True)
        departing = np.zeros(50, dtype=bool)
        departing[[0, 7, 8, 30, 49]] = True
        world._depart(departing.nonzero()[0], engine.SlotLedger(slot=0))
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
        world._depart(gone, engine.SlotLedger(slot=0))
        keep = ~np.isin(np.arange(65), gone)
        for name, column in _columns(world).items():
            assert np.array_equal(column, grown[name][keep])


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
