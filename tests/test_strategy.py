"""Unit, oracle, and property tests for the six rate allocators."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodsim.behavior import PhaseBoundary
from vodsim.strategy import (
    STRATEGY_NAMES,
    PoolState,
    UserView,
    _buffer_fill,
    _fair_fill,
    _level_fill,
    allocate_bb,
    allocate_be,
    allocate_eb,
    allocate_ew,
    allocate_sc,
    make_allocator,
    waterfill,
)

BIG = 1e6  # remaining demand stand-in for "far from file end"


def _users(buffers=None, caps=None, ratios=None, remaining=None, n=None,
           in_startup=False, playing=True):
    n = n or len(buffers or caps or ratios or remaining)
    buffers = buffers or [0.0] * n
    caps = caps or [2.0] * n
    ratios = ratios or [0.5] * n
    remaining = remaining or [BIG] * n
    return [
        UserView(i, ratios[i], buffers[i], caps[i], remaining[i],
                 in_startup=in_startup, playing=playing)
        for i in range(n)
    ]


def _rates(alloc, n):
    return [alloc.rates[i] for i in range(n)]


class TestWaterfill:
    def test_slack(self):
        np.testing.assert_allclose(waterfill(np.array([1.0, 2.0]), 10.0), [1.0, 2.0])

    def test_scarce_equal_split(self):
        np.testing.assert_allclose(waterfill(np.array([2.0, 2.0, 2.0]), 2.0), [2 / 3] * 3)

    def test_cap_binds_then_split(self):
        np.testing.assert_allclose(waterfill(np.array([0.5, 2.0, 2.0]), 3.0), [0.5, 1.25, 1.25])


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
        pool = PoolState(buffer=buffer, ratio=np.zeros(n), access_cap=caps,
                         remaining=np.full(n, BIG), in_startup=np.zeros(n, dtype=bool),
                         playing=playing.astype(bool))
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
        alloc = allocate_sc(_users(n=3), C=10.0, bitrate=1.0)
        assert _rates(alloc, 3) == [1.0, 1.0, 1.0]

    def test_scarce_equal_split(self):
        alloc = allocate_sc(_users(n=3), C=2.0, bitrate=1.0)
        np.testing.assert_allclose(_rates(alloc, 3), [2 / 3] * 3)

    def test_plus_variant_overprovisions(self):
        alloc = allocate_sc(_users(n=2), C=10.0, bitrate=1.0, delta=0.05)
        np.testing.assert_allclose(_rates(alloc, 2), [1.05, 1.05])

    def test_not_work_conserving(self):
        alloc = allocate_sc(_users(n=2), C=10.0, bitrate=1.0)
        assert sum(alloc.rates.values()) == pytest.approx(2.0)


class TestBE:
    def test_symmetric(self):
        alloc = allocate_be(_users(caps=[2.0, 2.0, 2.0]), C=3.0)
        np.testing.assert_allclose(_rates(alloc, 3), [1.0, 1.0, 1.0])

    def test_cap_binds(self):
        alloc = allocate_be(_users(caps=[0.5, 2.0, 2.0]), C=3.0)
        np.testing.assert_allclose(_rates(alloc, 3), [0.5, 1.25, 1.25])

    def test_single_user(self):
        alloc = allocate_be(_users(caps=[2.0]), C=10.0)
        assert _rates(alloc, 1) == [2.0]


class TestEB:
    def test_equalizes_projected_buffers(self):
        alloc = allocate_eb(_users(buffers=[0.0, 2.0, 4.0]), C=3.0, bitrate=1.0)
        np.testing.assert_allclose(_rates(alloc, 3), [2.0, 1.0, 0.0])

    def test_already_equal(self):
        alloc = allocate_eb(_users(buffers=[3.0, 3.0]), C=2.0, bitrate=1.0)
        np.testing.assert_allclose(_rates(alloc, 2), [1.0, 1.0])

    def test_symmetric_split(self):
        alloc = allocate_eb(_users(buffers=[0.0, 0.0]), C=1.0, bitrate=1.0)
        np.testing.assert_allclose(_rates(alloc, 2), [0.5, 0.5])


class TestEW:
    def test_equalizes_waste_rates(self):
        users = _users(buffers=[1.0, 1.0], caps=[10.0, 10.0], ratios=[0.1, 0.9])
        f = lambda v: 0.2 if v < 0.5 else 0.1
        alloc = allocate_ew(users, C=2.0, bitrate=1.0, f=f)
        np.testing.assert_allclose(_rates(alloc, 2), [2 / 3, 4 / 3])

    def test_constant_hazard_reduces_to_eb(self):
        users = _users(buffers=[0.3, 2.7, 1.1], caps=[1.5, 2.0, 2.0])
        ew = allocate_ew(users, C=2.5, bitrate=1.0, f=lambda v: 0.1)
        eb = allocate_eb(users, C=2.5, bitrate=1.0)
        assert ew.rates == eb.rates

    def test_single_user(self):
        alloc = allocate_ew(_users(caps=[2.0]), C=10.0, bitrate=1.0, f=lambda v: 0.5)
        assert _rates(alloc, 1) == [2.0]

    def test_zero_hazard_users_filled_last(self):
        users = _users(buffers=[0.0, 0.0], caps=[2.0, 2.0], ratios=[0.1, 0.9])
        f = lambda v: 0.2 if v < 0.5 else 0.0
        # Zero-hazard users cannot raise waste, so the positive-hazard user
        # is served first and user 1 only receives the leftover capacity.
        scarce = allocate_ew(users, C=1.0, bitrate=1.0, f=f)
        assert scarce.rates[0] == pytest.approx(1.0)
        assert scarce.rates[1] == pytest.approx(0.0)
        ample = allocate_ew(users, C=3.0, bitrate=1.0, f=f)
        assert ample.rates[0] == pytest.approx(2.0)
        assert ample.rates[1] == pytest.approx(1.0)


class TestBB:
    BOUNDARY = PhaseBoundary(0.15)

    def test_browsing_pinned_to_bitrate(self):
        users = _users(ratios=[0.05, 0.5, 0.8])
        alloc = allocate_bb(users, C=4.0, bitrate=1.0, boundary=self.BOUNDARY)
        np.testing.assert_allclose(_rates(alloc, 3), [1.0, 1.5, 1.5])

    def test_fallback_when_viewers_starved(self):
        users = _users(ratios=[0.05, 0.5, 0.8])
        alloc = allocate_bb(users, C=2.5, bitrate=1.0, boundary=self.BOUNDARY)
        np.testing.assert_allclose(_rates(alloc, 3), [2.5 / 3] * 3)
        assert alloc.rates == allocate_be(users, C=2.5).rates

    def test_no_browsing_users_equals_be(self):
        users = _users(ratios=[0.5, 0.8], buffers=[1.0, 2.0])
        alloc = allocate_bb(users, C=1.7, bitrate=1.0, boundary=self.BOUNDARY)
        assert alloc.rates == allocate_be(users, C=1.7).rates

    def test_startup_user_not_browsing(self):
        # A startup user below the boundary is pooled with viewers, not pinned.
        users = _users(ratios=[0.0, 0.5], in_startup=True)
        alloc = allocate_bb(users, C=4.0, bitrate=1.0, boundary=self.BOUNDARY)
        assert alloc.rates == allocate_be(users, C=4.0).rates


users_strategy = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.1, max_value=4.0), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n, max_size=n),
        st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n),
        st.floats(min_value=0.0, max_value=15.0),
    )
)


def _build(case):
    buffers, caps, ratios, remaining, startups, C = case
    users = [
        UserView(i, ratios[i], buffers[i], caps[i], remaining[i],
                 in_startup=startups[i], playing=not startups[i])
        for i in range(len(buffers))
    ]
    return users, C


def _all_allocations(users, C):
    f = lambda v: 0.5 * (1.0 - v) + 0.01
    yield allocate_sc(users, C, bitrate=1.0), "sc"
    yield allocate_sc(users, C, bitrate=1.0, delta=0.05), "sc+"
    yield allocate_be(users, C), "be"
    yield allocate_eb(users, C, bitrate=1.0), "eb"
    yield allocate_ew(users, C, bitrate=1.0, f=f), "ew"
    yield allocate_bb(users, C, bitrate=1.0, boundary=PhaseBoundary(0.15)), "bb"


class TestAllocatorProperties:
    @given(users_strategy)
    @settings(max_examples=150, deadline=None)
    def test_feasibility(self, case):
        users, C = _build(case)
        for alloc, name in _all_allocations(users, C):
            total = sum(alloc.rates.values())
            assert total <= C + 1e-9, name
            for u in users:
                r = alloc.rates[u.session_id]
                assert -1e-12 <= r <= min(u.access_cap, u.remaining_demand) + 1e-9, name

    @given(users_strategy)
    @settings(max_examples=150, deadline=None)
    def test_work_conservation(self, case):
        users, C = _build(case)
        demand = sum(min(u.access_cap, u.remaining_demand) for u in users)
        if demand < C:
            return
        f = lambda v: 0.5 * (1.0 - v) + 0.01
        conserving = [
            ("be", allocate_be(users, C)),
            ("eb", allocate_eb(users, C, bitrate=1.0)),
            ("ew", allocate_ew(users, C, bitrate=1.0, f=f)),
        ]
        # BB deliberately pins browsing users to the bitrate, so it conserves
        # work only when the non-browsing pool can absorb the residual.
        browsing_demand = sum(
            min(u.access_cap, u.remaining_demand, 1.0)
            for u in users if not u.in_startup and u.viewing_ratio < 0.15
        )
        other_demand = sum(
            min(u.access_cap, u.remaining_demand)
            for u in users if u.in_startup or u.viewing_ratio >= 0.15
        )
        if browsing_demand + other_demand >= C:
            conserving.append(
                ("bb", allocate_bb(users, C, bitrate=1.0, boundary=PhaseBoundary(0.15)))
            )
        for name, alloc in conserving:
            assert sum(alloc.rates.values()) == pytest.approx(C, abs=1e-9), name

    @given(
        st.floats(min_value=0.1, max_value=3.0),
        st.floats(min_value=0.0, max_value=6.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.integers(min_value=2, max_value=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_be_symmetry(self, cap, remaining, C, n):
        users = [UserView(i, 0.5, float(i), cap, remaining) for i in range(n)]
        alloc = allocate_be(users, C)
        rates = set(round(r, 12) for r in alloc.rates.values())
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
        users = [UserView(i, 0.5, float(buffers[i]), float(caps[i]), BIG)
                 for i in range(n)]
        return users, caps, buffers, C

    def test_eb_matches_exhaustive_search(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            users, caps, buffers, C = self._random_case(rng, n)
            best_min = max(
                (buffers + r - 1.0).min()
                for r in _grid_allocations(caps, C, self.GRID)
            )
            alloc = allocate_eb(users, C, bitrate=1.0)
            got = min(buffers[i] + alloc.rates[i] - 1.0 for i in range(n))
            assert got >= best_min - self.GRID - 1e-9

    def test_ew_matches_exhaustive_search(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(2, 4))
            _, caps, buffers, C = self._random_case(rng, n)
            f_vals = rng.uniform(0.1, 1.0, size=n)
            users = [UserView(i, i / n, float(buffers[i]), float(caps[i]), BIG)
                     for i in range(n)]
            lookup = {i / n: f_vals[i] for i in range(n)}
            # EW is work-conserving: compare only full-budget allocations.
            target = min(C, float(caps.sum()))
            full = [
                r for r in _grid_allocations(caps, C, self.GRID)
                if abs(r.sum() - target) <= 1e-9
            ]
            best_max = min((f_vals * (buffers + r - 1.0)).max() for r in full)
            alloc = allocate_ew(users, C, bitrate=1.0, f=lambda v: lookup[v])
            got = max(f_vals[i] * (buffers[i] + alloc.rates[i] - 1.0) for i in range(n))
            assert got <= best_max + self.GRID * f_vals.max() + 1e-9


class TestFactory:
    def test_known_names(self):
        assert set(STRATEGY_NAMES) == {"sc", "sc+", "be", "eb", "ew", "bb"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_allocator("zz", bitrate=1.0)
