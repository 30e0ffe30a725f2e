"""Unit, oracle, and property tests for the six rate allocators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vodsim.behavior import DepartureModel
from vodsim.strategy import (
    STRATEGY_NAMES,
    PoolState,
    _buffer_fill,
    _fair_fill,
    _level_fill,
    bb_rates,
    be_rates,
    eb_rates,
    ew_rates,
    make_allocator,
    sc_rates,
)

BIG = 1e6  # remaining demand stand-in for "far from file end"
L = 100  # video length, in slots, of the pools' `viewed` counts
BROWSE_SLOTS = 15  # bb's browsing phase: fewer than 15 of L slots viewed


def _pool(n=None, *, buffers=0.0, caps=2.0, viewed=50.0, remaining=BIG,
          in_startup=False, playing=True):
    """A PoolState of n sessions.  Each field takes one value per session or
    one value for all; n defaults to the length of the per-session fields.
    As in the engine, a session's cap is min(caps, remaining) and a startup
    session never plays."""
    values = (buffers, viewed, caps, remaining, in_startup, playing)
    n = n or max(np.size(v) for v in values)
    buffer, view, cap, rem = (np.broadcast_to(np.asarray(v, dtype=float), n).copy()
                              for v in values[:4])
    startup, play = (np.broadcast_to(np.asarray(v, dtype=bool), n).copy() for v in values[4:])
    return PoolState(buffer, view, np.minimum(cap, rem), startup, play & ~startup)


class TestWaterfill:
    def test_slack(self):
        np.testing.assert_allclose(_fair_fill(np.array([1.0, 2.0]), 10.0)[0], [1.0, 2.0])

    def test_scarce_equal_split(self):
        np.testing.assert_allclose(_fair_fill(np.array([2.0, 2.0, 2.0]), 2.0)[0], [2 / 3] * 3)

    def test_cap_binds_then_split(self):
        np.testing.assert_allclose(_fair_fill(np.array([0.5, 2.0, 2.0]), 3.0)[0], [0.5, 1.25, 1.25])


class TestFairFill:
    """`_fair_fill` is `_level_fill` with zero floors and unit weights, bit for bit."""

    @given(
        st.lists(
            st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                      st.floats(min_value=0.0, max_value=10.0)),
            max_size=30,
        ),
        # budget as a share of the summed caps: 0, exactly all, or unlimited
        st.one_of(st.sampled_from([0.0, 1.0, math.inf]), st.floats(min_value=0.0, max_value=1.0)),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_level_fill(self, caps, share):
        caps = np.array(caps, dtype=float)
        budget = math.inf if share == math.inf else share * float(caps.sum())
        n = caps.size
        x_ref, level_ref = _level_fill(np.zeros(n), np.ones(n), caps, budget)
        x, level = _fair_fill(caps, budget)
        assert np.array_equal(x, x_ref)
        assert level == level_ref


# Buffers, caps and weights for the lean fill paths.  Buffer 0 with
# playing=True gives the floor -1 of a session about to drain; the sampled
# values make tied floors and zero caps common.
_buffers = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(min_value=0.0, max_value=8.0))
_caps = st.one_of(st.sampled_from([0.0, 1.0, 2.0]), st.floats(min_value=0.0, max_value=4.0))
_weights = st.one_of(st.sampled_from([0.1, 0.5, 1.0]), st.floats(min_value=1e-3, max_value=1.0))
# Budget as a share of the summed caps: 0, exactly all, or unlimited.
_shares = st.one_of(st.sampled_from([0.0, 1.0, math.inf]), st.floats(min_value=0.0, max_value=1.0))


def _budget(share, caps):
    return math.inf if share == math.inf else share * float(np.sum(caps))


class TestLeanFill:
    """`weights=None` and the all-positive shortcut give the same bits as the
    general paths they skip."""

    @given(st.lists(st.tuples(_buffers, st.booleans(), _caps), max_size=30), _shares)
    @settings(max_examples=400, deadline=None)
    def test_unit_weights_match_ones(self, users, share):
        floors = np.array([b - p for b, p, _ in users], dtype=float)
        caps = np.array([c for _, _, c in users], dtype=float)
        budget = _budget(share, caps)
        x, level = _level_fill(floors, None, caps, budget)
        x_ref, level_ref = _level_fill(floors, np.ones(floors.size), caps, budget)
        assert x.tobytes() == x_ref.tobytes()
        assert np.float64(level).tobytes() == np.float64(level_ref).tobytes()

    @given(st.lists(st.tuples(_buffers, st.booleans(), _caps, _weights), max_size=30), _shares)
    @settings(max_examples=400, deadline=None)
    def test_all_positive_shortcut_matches_masked_path(self, users, share):
        # One extra user of weight 0 and cap 0 sends the same users down the
        # masked path; it receives nothing, and the others must get the same
        # bits as through the shortcut.
        buffer, playing, caps, weights = (np.array(c) for c in zip(*users, (0.0, False, 0.0, 0.0)))
        n = buffer.size
        pool = PoolState(buffer=buffer, viewed=np.zeros(n), cap=caps,
                         in_startup=np.zeros(n, dtype=bool), playing=playing.astype(bool))
        C = _budget(share, caps)
        masked = _buffer_fill(pool, C, 1.0, weights)
        short = _buffer_fill(PoolState(*(f[:-1] for f in pool)), C, 1.0, weights[:-1])
        assert masked[-1] == 0.0
        assert masked[:-1].tobytes() == short.tobytes()
        unit = _buffer_fill(PoolState(*(f[:-1] for f in pool)), C, 1.0, None)
        ones = _buffer_fill(PoolState(*(f[:-1] for f in pool)), C, 1.0, np.ones(n - 1))
        assert unit.tobytes() == ones.tobytes()


class TestSC:
    def test_capacity_slack(self):
        rates = sc_rates(_pool(3), C=10.0, bitrate=1.0)
        assert rates.tolist() == [1.0, 1.0, 1.0]

    def test_scarce_equal_split(self):
        rates = sc_rates(_pool(3), C=2.0, bitrate=1.0)
        np.testing.assert_allclose(rates, [2 / 3] * 3)

    def test_plus_variant_overprovisions(self):
        rates = sc_rates(_pool(2), C=10.0, bitrate=1.0, delta=0.05)
        np.testing.assert_allclose(rates, [1.05, 1.05])

    def test_not_work_conserving(self):
        rates = sc_rates(_pool(2), C=10.0, bitrate=1.0)
        assert rates.sum() == pytest.approx(2.0)


class TestBE:
    def test_symmetric(self):
        rates = be_rates(_pool(caps=[2.0, 2.0, 2.0]), C=3.0)
        np.testing.assert_allclose(rates, [1.0, 1.0, 1.0])

    def test_cap_binds(self):
        rates = be_rates(_pool(caps=[0.5, 2.0, 2.0]), C=3.0)
        np.testing.assert_allclose(rates, [0.5, 1.25, 1.25])

    def test_single_user(self):
        rates = be_rates(_pool(caps=[2.0]), C=10.0)
        assert rates.tolist() == [2.0]


class TestEB:
    def test_equalizes_projected_buffers(self):
        rates = eb_rates(_pool(buffers=[0.0, 2.0, 4.0]), C=3.0, bitrate=1.0)
        np.testing.assert_allclose(rates, [2.0, 1.0, 0.0])

    def test_already_equal(self):
        rates = eb_rates(_pool(buffers=[3.0, 3.0]), C=2.0, bitrate=1.0)
        np.testing.assert_allclose(rates, [1.0, 1.0])

    def test_symmetric_split(self):
        rates = eb_rates(_pool(buffers=[0.0, 0.0]), C=1.0, bitrate=1.0)
        np.testing.assert_allclose(rates, [0.5, 0.5])


class TestEW:
    def test_equalizes_waste_rates(self):
        pool = _pool(buffers=[1.0, 1.0], caps=[10.0, 10.0])
        rates = ew_rates(pool, C=2.0, bitrate=1.0, hazard=np.array([0.2, 0.1]))
        np.testing.assert_allclose(rates, [2 / 3, 4 / 3])

    def test_constant_hazard_reduces_to_eb(self):
        pool = _pool(buffers=[0.3, 2.7, 1.1], caps=[1.5, 2.0, 2.0])
        ew = ew_rates(pool, C=2.5, bitrate=1.0, hazard=np.full(3, 0.1))
        eb = eb_rates(pool, C=2.5, bitrate=1.0)
        assert np.array_equal(ew, eb)

    def test_single_user(self):
        rates = ew_rates(_pool(caps=[2.0]), C=10.0, bitrate=1.0, hazard=np.array([0.5]))
        assert rates.tolist() == [2.0]

    def test_zero_hazard_users_filled_last(self):
        pool = _pool(buffers=[0.0, 0.0], caps=[2.0, 2.0])
        hazard = np.array([0.2, 0.0])
        # Zero-hazard users cannot raise waste, so the positive-hazard user
        # is served first and user 1 only receives the leftover capacity.
        scarce = ew_rates(pool, C=1.0, bitrate=1.0, hazard=hazard)
        assert scarce[0] == pytest.approx(1.0)
        assert scarce[1] == pytest.approx(0.0)
        ample = ew_rates(pool, C=3.0, bitrate=1.0, hazard=hazard)
        assert ample[0] == pytest.approx(2.0)
        assert ample[1] == pytest.approx(1.0)


class TestBB:
    def test_browsing_pinned_to_bitrate(self):
        pool = _pool(viewed=[5, 50, 80])
        rates = bb_rates(pool, C=4.0, bitrate=1.0, browse_slots=BROWSE_SLOTS)
        np.testing.assert_allclose(rates, [1.0, 1.5, 1.5])

    def test_fallback_when_viewers_starved(self):
        pool = _pool(viewed=[5, 50, 80])
        rates = bb_rates(pool, C=2.5, bitrate=1.0, browse_slots=BROWSE_SLOTS)
        np.testing.assert_allclose(rates, [2.5 / 3] * 3)
        assert np.array_equal(rates, be_rates(pool, C=2.5))

    def test_no_browsing_users_equals_be(self):
        pool = _pool(viewed=[50, 80], buffers=[1.0, 2.0])
        rates = bb_rates(pool, C=1.7, bitrate=1.0, browse_slots=BROWSE_SLOTS)
        assert np.array_equal(rates, be_rates(pool, C=1.7))

    def test_startup_user_not_browsing(self):
        # A startup user below the boundary is pooled with viewers, not pinned.
        pool = _pool(viewed=[0, 50], in_startup=True)
        rates = bb_rates(pool, C=4.0, bitrate=1.0, browse_slots=BROWSE_SLOTS)
        assert np.array_equal(rates, be_rates(pool, C=4.0))

    @pytest.mark.parametrize("length", [50, 60, 300])
    def test_slot_count_matches_viewing_ratio(self, length):
        # The engine's bb pins a session while its viewing ratio viewed / L
        # is below the browsing phase's share browse_slots / L, for every
        # slot count and every browse length in [0, L - 1]: a model with all
        # its mass on bin k browses k + 1 slots, or none when k is the last.
        # At unlimited capacity a pinned session gets the bitrate and any
        # other its whole cap of 2.
        viewed = np.arange(length + 1, dtype=float)
        pool = _pool(viewed=viewed)
        lengths = set()
        for k in range(length):
            model = DepartureModel(np.eye(length)[k])
            rates = make_allocator("bb", 1.0, model)(pool, math.inf)
            assert np.array_equal(rates == 1.0, viewed / length < model.browse_slots / length), k
            lengths.add(model.browse_slots)
        assert lengths == set(range(length))


def _bb_parent(pool, C, bitrate, browse_slots):
    """bb without its fit check: the reference while capacity binds."""
    browsing = (~pool.in_startup) & (pool.viewed < browse_slots)
    if not browsing.any():
        return be_rates(pool, C)
    d_browse = np.minimum(pool.cap[browsing], bitrate)
    reserved = float(d_browse.sum())
    if reserved > C:
        d_browse = d_browse * (C / reserved)
    rates = np.zeros(pool.buffer.size)
    rates[browsing] = d_browse
    others = ~browsing
    if not others.any():
        return rates
    residual = max(C - float(d_browse.sum()), 0.0) if not math.isinf(C) else math.inf
    x, level = _fair_fill(pool.cap[others], residual)
    if level < float(d_browse.max()):
        return be_rates(pool, C)
    rates[others] = x
    return rates


# Pools for the fit contract.  The sampled values make zero caps, zero
# hazards, browsing sessions (viewed < BROWSE_SLOTS) and startup sessions
# common; each pool comes with its ew hazards.
_contract_pools = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(*(st.lists(e, min_size=n, max_size=n) for e in (
        _buffers,
        _caps,
        st.sampled_from([0.0, 5.0, 14.0, 15.0, 50.0]),
        st.booleans(),
        st.booleans(),
        st.one_of(st.just(0.0), _weights),
    )))
)
_bitrates = st.one_of(st.just(1.0), st.floats(min_value=0.1, max_value=4.0))


def _contract_case(case):
    buffers, caps, viewed, in_startup, playing, hazard = case
    pool = _pool(buffers=buffers, caps=caps, viewed=viewed, in_startup=in_startup,
                 playing=playing)
    return pool, np.array(hazard)


def _demand(name, pool, bitrate):
    """What eb, ew and bb return when every demand fits: eb and ew give each
    session its cap, taken through seconds (`cap / bitrate * bitrate`); bb
    gives a browsing session min(cap, bitrate) and any other its cap."""
    if name == "bb":
        browsing = ~pool.in_startup & (pool.viewed < BROWSE_SLOTS)
        return np.where(browsing, np.minimum(pool.cap, bitrate), pool.cap)
    return pool.cap / bitrate * bitrate


def _rates(name, pool, C, bitrate, hazard):
    if name == "eb":
        return eb_rates(pool, C, bitrate)
    if name == "ew":
        return ew_rates(pool, C, bitrate, hazard)
    return bb_rates(pool, C, bitrate, BROWSE_SLOTS)


class TestFitContract:
    """eb, ew and bb return their demand whenever it fits in C."""

    @pytest.mark.parametrize("name", ["eb", "ew", "bb"])
    @given(_contract_pools, _bitrates,
           st.one_of(st.sampled_from([1.0, 2.0, math.inf]),
                     st.floats(min_value=1.0, max_value=3.0)))
    @settings(max_examples=200, deadline=None)
    def test_fitting_demand_is_returned(self, name, case, bitrate, factor):
        pool, hazard = _contract_case(case)
        demand = _demand(name, pool, bitrate)
        C = float(demand.sum()) * (1 + 1e-9) * factor
        assert _rates(name, pool, C, bitrate, hazard).tobytes() == demand.tobytes()

    @pytest.mark.parametrize("name", ["eb", "ew", "bb"])
    @given(_contract_pools)
    @settings(max_examples=300, deadline=None)
    def test_capacity_at_total_demand(self, name, case):
        # One ulp below C = sum(demand), at it and one ulp above, the rates
        # stay within the caps and C.  From C = sum(demand) up every demand
        # fits and is returned exactly, except by ew with zero hazards: it
        # fills those sessions from what the others leave, and that
        # remainder can round an ulp short of their caps.
        pool, hazard = _contract_case(case)
        demand = _demand(name, pool, 1.0)
        total = float(demand.sum())
        exact = name != "ew" or bool(np.all(hazard > 0))
        for C in (np.nextafter(total, -math.inf), total, np.nextafter(total, math.inf)):
            if C < 0.0:
                continue
            rates = _rates(name, pool, float(C), 1.0, hazard)
            assert np.all(rates >= 0.0)
            assert np.all(rates <= pool.cap)
            assert rates.sum() <= C * (1 + 1e-12)
            if C >= total and exact:
                assert rates.tobytes() == demand.tobytes()

    @given(_contract_pools, _bitrates, st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=400, deadline=None)
    def test_bb_binding_paths_unchanged(self, case, bitrate, share):
        # Below the total demand bb keeps its reservation, its equal
        # scale-down when the reservations alone exceed C, and its be
        # fallback, bit for bit.
        pool, _ = _contract_case(case)
        total = float(_demand("bb", pool, bitrate).sum())
        C = share * total
        assume(C < total)
        rates = bb_rates(pool, C, bitrate, BROWSE_SLOTS)
        assert rates.tobytes() == _bb_parent(pool, C, bitrate, BROWSE_SLOTS).tobytes()


users_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.0, max_value=L), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.floats(min_value=0.0, max_value=15.0),
    )
)


def _build(case):
    buffers, caps, viewed, remaining, startups, C = case
    pool = _pool(buffers=buffers, caps=caps, viewed=viewed, remaining=remaining,
                 in_startup=startups)
    return pool, C


def _hazard(pool):
    return 0.5 * (1.0 - pool.viewed / L) + 0.01


def _all_allocations(pool, C):
    yield sc_rates(pool, C, bitrate=1.0), "sc"
    yield sc_rates(pool, C, bitrate=1.0, delta=0.05), "sc+"
    yield be_rates(pool, C), "be"
    yield eb_rates(pool, C, bitrate=1.0), "eb"
    yield ew_rates(pool, C, bitrate=1.0, hazard=_hazard(pool)), "ew"
    yield bb_rates(pool, C, bitrate=1.0, browse_slots=BROWSE_SLOTS), "bb"


class TestAllocatorProperties:
    @given(users_strategy)
    @settings(max_examples=150, deadline=None)
    def test_feasibility(self, case):
        pool, C = _build(case)
        demand = pool.cap
        for rates, name in _all_allocations(pool, C):
            assert rates.sum() <= C + 1e-9, name
            assert np.all(rates >= -1e-12), name
            assert np.all(rates <= demand + 1e-9), name

    @given(users_strategy)
    @settings(max_examples=150, deadline=None)
    def test_work_conservation(self, case):
        pool, C = _build(case)
        demand = pool.cap
        if demand.sum() < C:
            return
        conserving = [
            ("be", be_rates(pool, C)),
            ("eb", eb_rates(pool, C, bitrate=1.0)),
            ("ew", ew_rates(pool, C, bitrate=1.0, hazard=_hazard(pool))),
        ]
        # BB deliberately pins browsing users to the bitrate, so it conserves
        # work only when the non-browsing pool can absorb the residual.
        browsing = ~pool.in_startup & (pool.viewed < BROWSE_SLOTS)
        browsing_demand = np.minimum(demand, 1.0)[browsing].sum()
        other_demand = demand[~browsing].sum()
        if browsing_demand + other_demand >= C:
            conserving.append(
                ("bb", bb_rates(pool, C, bitrate=1.0, browse_slots=BROWSE_SLOTS))
            )
        for name, rates in conserving:
            assert rates.sum() == pytest.approx(C, abs=1e-9), name

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_be_symmetry(self, cap, remaining, C, n):
        pool = _pool(buffers=np.arange(n, dtype=float), caps=cap, remaining=remaining)
        rates = set(round(r, 12) for r in be_rates(pool, C).tolist())
        assert len(rates) == 1


def _grid_allocations(demands, C, grid):
    """Every grid-quantized feasible rate vector (exhaustive oracle)."""
    unit_caps = [int(round(d / grid)) for d in demands]
    budget = int(round(C / grid))
    for combo in itertools.product(*(range(u + 1) for u in unit_caps)):
        if sum(combo) <= budget:
            yield np.array(combo, dtype=float) * grid


class TestGridOracles:
    GRID = 0.05

    def _random_case(self, rng, n):
        buffers = rng.uniform(0.0, 3.0, size=n)
        caps = rng.choice([0.3, 0.6, 0.9], size=n)
        C = self.GRID * int(rng.integers(4, 25))
        return _pool(buffers=buffers, caps=caps), caps, buffers, C

    def test_eb_matches_exhaustive_search(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            pool, caps, buffers, C = self._random_case(rng, n)
            best_min = max(
                (buffers + r - 1.0).min()
                for r in _grid_allocations(caps, C, self.GRID)
            )
            rates = eb_rates(pool, C, bitrate=1.0)
            got = (buffers + rates - 1.0).min()
            assert got >= best_min - self.GRID - 1e-9

    def test_ew_matches_exhaustive_search(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            pool, caps, buffers, C = self._random_case(rng, n)
            f_vals = rng.uniform(0.1, 1.0, size=n)
            # EW is work-conserving: compare only full-budget allocations.
            target = min(C, float(caps.sum()))
            full = [
                r for r in _grid_allocations(caps, C, self.GRID)
                if abs(r.sum() - target) <= 1e-9
            ]
            best_max = min((f_vals * (buffers + r - 1.0)).max() for r in full)
            rates = ew_rates(pool, C, bitrate=1.0, hazard=f_vals)
            got = (f_vals * (buffers + rates - 1.0)).max()
            assert got <= best_max + self.GRID * f_vals.max() + 1e-9


class TestFactory:
    def test_known_names(self):
        assert set(STRATEGY_NAMES) == {"sc", "sc+", "be", "eb", "ew", "bb"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_allocator("zz", bitrate=1.0, model=DepartureModel.synthetic(L=L))
