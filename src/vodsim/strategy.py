"""Per-slot bandwidth allocation strategies.

Six strategies share one idea: max-min fair water-filling subject to
per-user demand caps.  SC/SC+ cap each user at 1 + delta seconds of video
per slot, BE at the access link, EB water-fills projected next-slot buffers,
EW water-fills hazard-weighted buffers, and BB pins browsing-phase users to
one second of video per slot and serves the rest best-effort (falling back
to plain BE when the reservation would starve the viewing users).  sc, sc+,
be and bb sort their caps and sweep them up to the first copy of the
largest (`_fair_fill`), so a pool whose caps mostly tie at the access cap
costs a sweep over the few below it; eb and ew search for their level
(`_level_fill`).  Rates, caps and the capacity are all in content seconds
per slot: the engine converts to and from bandwidth.

Every *_rates allocator is a pure function of a `PoolState` (one array per
session field) and returns one rate per session, in pool order, as a fresh
array that shares no memory with any of the pool's arrays.  No allocator
keeps a pool array after it returns: the engine reuses them as scratch.
`make_allocator` binds a strategy's parameters for the simulation engine;
the tests call the same *_rates functions.  eb's and ew's engine allocators
carry their last finite water level from slot to slot, where the next
search starts; it never changes the rates.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

STRATEGY_NAMES = ("sc", "sc+", "be", "eb", "ew", "bb")


class PoolState(NamedTuple):
    """Array view of all active sessions, as the engine sees them."""

    buffer: np.ndarray         # seconds of unplayed content
    viewed: np.ndarray         # playback position, in whole slots
    cap: np.ndarray            # most the session can take this slot (content seconds)
    in_startup: np.ndarray     # bool
    playing: np.ndarray        # bool; False for startup and frozen sessions


def _level_fill(floors, weights, caps, budget, guess=None):
    """Raise weighted levels w_i*(floor_i + x_i) to a common value.

    Finds x (0 <= x_i <= cap_i) for caps >= 0 that lexicographically
    maximizes the level vector within the budget.  Weights lie in (0, 1] or
    are infinite, which holds a user at x = -floor; None means unit weights.
    Returns (x, level); level is +inf when every user ends at its cap.
    Demand that fits is returned as it is, in a fresh array.
    """
    caps = np.array(caps, dtype=float)
    if budget >= np.add.reduce(caps):
        return caps, math.inf
    return _binding_fill(np.asarray(floors, dtype=float), weights, caps, budget, guess)


def _binding_fill(floors, weights, caps, budget, guess):
    """`_level_fill` when the demand does not fit in the budget.

    Rate i at level L is clip(L / w_i - floor_i, 0, cap_i), so the rates'
    sum never falls as L rises.  L runs over the multiples of h, the power
    of two that puts every breakpoint w*floor and w*(floor + cap) within
    2**52 steps of 0.  The level is the first step at
    which the sum reaches the budget, or the step below if it overspends
    there: one number, so no bit of the result depends on `guess`.  The
    rates are then rounded down to multiples of q, the power of two with
    budget/q a whole number below 2**53, so every partial sum is exact and
    they sum to at most the budget in any order, with any zeros among them.
    (Were the rounded sum above it, the level would step down 1, 2, 4, ...
    steps until it is not, at most 54 times.)

    The search keeps lo < L < hi with sum(lo) < budget <= sum(hi): Newton
    steps from the guess until both ends are known, then secant steps,
    halving the excess of an end kept twice in a row.  A step that would
    leave the interval halves it instead, and after 16 steps only halving
    is left, which ends within 54 more: at most 71 sums per fill.
    """
    n = floors.size
    if not budget > 0.0:  # also NaN
        levels = floors if weights is None else weights * floors
        return np.zeros(n), float(levels.min()) if n else math.inf
    k = 1.0 if weights is None else np.divide(1.0, weights)

    def rates_at(level, slope=False):
        # The rates, their sum and, if asked, how fast the sum grows.
        u = np.subtract(level, floors) if weights is None else np.multiply(k, level)
        if weights is not None:
            u -= floors
        np.maximum(u, 0.0, out=u)
        np.minimum(u, caps, out=u)
        if slope:
            rising = (u > 0.0) & (u < caps)
            slope = np.count_nonzero(rising) if weights is None else float(np.dot(rising, k))
        return u, float(np.add.reduce(u)), slope

    span = float(np.maximum.reduce(np.abs(floors))) + float(np.maximum.reduce(caps))
    h = math.ldexp(1.0, max(math.frexp(span)[1] - 52, -1074))

    def everyone_rising():
        # Where the budget would run out if every user rose from its floor.
        return (budget + float(np.add.reduce(floors))) / float(np.add.reduce(np.broadcast_to(k, n)))

    if guess is None or not math.isfinite(guess):
        guess = everyone_rising()
    lo, hi = -2**53, 2**53  # in steps of h; nothing is spent at lo
    j = round(min(max(guess / h, lo + 1), hi - 1))
    u_lo = u_hi = last = slope = None
    side, f_lo, f_hi = 0, -budget, 0.0
    for step in range(16 + 55):
        u, s, measured = rates_at(j * h, slope is None)
        # Newton's slope per step: measured at the guess, then the secant
        # through the last two points whose sums differ.
        if slope is None:
            slope = measured * h
        elif s != last[1]:
            slope = (s - last[1]) / (j - last[0])
        last = j, s
        if s < budget:
            lo, u_lo, f_lo = j, u, s - budget
            f_hi *= 0.5 if side < 0 else 1.0
            side = -1
        else:
            hi, u_hi, f_hi, s_hi = j, u, s - budget, s
            f_lo *= 0.5 if side > 0 else 1.0
            side = 1
        if hi - lo == 1:
            break
        if step >= 16:
            nxt = math.nan
        elif u_lo is None or u_hi is None:
            nxt = j + (budget - s) / slope if slope > 0 else math.nan
            if not lo - 1 < nxt < hi + 1:  # Newton overshoots: try everyone rising
                nxt = everyone_rising() / h
                nxt = nxt if lo < round(nxt) < hi else math.nan
        else:  # halved excesses can underflow to zero
            nxt = lo - f_lo * ((hi - lo) / (f_hi - f_lo)) if f_hi > f_lo else math.nan
        j = min(max(round(nxt), lo + 1), hi - 1) if lo - 1 < nxt < hi + 1 else (lo + hi) // 2
    if u_hi is None:
        u, level = u_lo, math.inf
    elif s_hi == budget:
        u, level = u_hi, hi * h
    else:
        u, level = u_lo, lo * h
    q = math.ldexp(1.0, max(math.frexp(budget)[1] - 53, -1074))
    u /= q
    np.floor(u, out=u)
    back = 1
    while np.add.reduce(u) > budget / q:
        lo, back = lo - back, 2 * back
        level = lo * h
        u = np.floor(rates_at(level)[0] / q)
    u *= q
    return u, level


def _fair_fill(caps, budget):
    """The level fill with zero floors and unit weights, as a sorted sweep
    of the breakpoints gives it, bit for bit.

    Its breakpoints are n zeros followed by the caps, so only the n caps are
    sorted: below the smallest cap all n users rise together, and each cap
    passed leaves one user fewer.  The sweep stops at the first copy of the
    largest cap, sorted position m - 1: every later gap is 0, so the
    cumulative spend is flat from there on, its first m sums are the full
    sweep's bit for bit, and the budget passes all m exactly when it passes
    all n.  Caps must be >= 0.  Returns (x, level) as `_level_fill` does.
    """
    caps = np.asarray(caps, dtype=float)
    n = caps.size
    if n == 0:
        return np.zeros(0), math.inf
    if budget >= float(np.add.reduce(caps)):
        return caps.copy(), math.inf
    if budget <= 0.0:
        return np.zeros(n), 0.0
    pts = caps.copy()
    pts.sort()
    m = int(pts.searchsorted(pts[-1], "left")) + 1
    slope = np.arange(n, n - m, -1, dtype=float)  # users still below each cap
    # Cumulative capacity spent to raise the level up to each sorted cap.
    spent = np.empty(m)
    spent[0] = pts[0]
    np.subtract(pts[1:m], pts[:m - 1], out=spent[1:])
    np.multiply(spent, slope, out=spent)
    np.add.accumulate(spent, out=spent)
    k = int(spent.searchsorted(budget, "right"))
    if k >= m:
        return caps.copy(), math.inf
    base, spent_k = (pts[k - 1], spent[k - 1]) if k else (0.0, 0.0)
    level = base + (budget - spent_k) / slope[k]
    # level >= 0, so clipping to [0, cap] is a minimum with the cap.
    return np.minimum(caps, level), float(level)


def sc_rates(pool: PoolState, C: float, delta: float = 0.0) -> np.ndarray:
    """Simple rate control: demand capped at 1 + delta seconds of video per
    slot; startup users are served best-effort."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    d = np.where(pool.in_startup, pool.cap, np.minimum(pool.cap, 1.0 + delta))
    return _fair_fill(d, C)[0]


def be_rates(pool: PoolState, C: float) -> np.ndarray:
    """Best-effort progressive download: max-min fair over full demands."""
    return _fair_fill(pool.cap, C)[0]


def _buffer_fill(
    pool: PoolState, C: float, weights: np.ndarray | None, guess=None
) -> tuple[np.ndarray, float]:
    """Weighted water-fill of projected next-slot buffers; `weights=None`
    means unit weights.  Returns (rates, level), the positive-weight users'
    common level for weights scaled to a maximum of 1; `guess` starts their
    fill.  Zero-weight users cannot raise the waste level, so they share
    what is left at unit weight once every other user has its cap.
    """
    caps = pool.cap
    # All weights positive (and none NaN); `initial` answers True for no users.
    if weights is None or np.minimum.reduce(weights, initial=math.inf) > 0:
        # `_level_fill`'s own fit test, made before the floors and weights.
        if C >= np.add.reduce(caps):
            return caps.copy(), math.inf
        if weights is not None and weights.size:
            weights = weights / weights.max()  # scale-invariant; constant weights become 1.0
        return _binding_fill(pool.buffer - pool.playing, weights, caps, C, guess)
    floors = pool.buffer - pool.playing
    pos = weights > 0
    if pos.any() and (C < np.add.reduce(caps[pos])
                      or C < np.add.reduce(np.where(pos, caps, 0.0))):
        # The positive-weight users' caps overspend C in their order or the pool's.
        w = weights[pos]
        out = np.zeros(floors.size)
        out[pos], level = _binding_fill(floors[pos], w / w.max(), caps[pos], C, guess)
        return out, level
    if not C > 0.0:
        return np.zeros(floors.size), math.inf
    # Infinite weight and floor -cap hold a positive-weight user at its cap:
    # one fill over all users, with one fit test, serves the rest.
    rates, _ = _level_fill(np.where(pos, -caps, floors), np.where(pos, math.inf, 1.0), caps, C)
    return rates, math.inf


def eb_rates(pool: PoolState, C: float) -> np.ndarray:
    """Equal-buffer streaming: water-fill projected next-slot buffers."""
    return _buffer_fill(pool, C, None)[0]


def ew_rates(pool: PoolState, C: float, hazard: np.ndarray) -> np.ndarray:
    """Equal waste-rate streaming: equalize hazard * projected buffer.

    `hazard` holds one value in [0, 1] per session.  The engine passes
    `DepartureModel.hazard_at(pool.viewed)`, entries of the model's `p`,
    which was checked and clipped to [0, 1] when the model was built.
    """
    return _buffer_fill(pool, C, hazard)[0]


def _level_allocator(hazard_at=None):
    """eb (no `hazard_at`) or ew for the engine: `_buffer_fill`, started
    from the last finite level it returned."""
    last = None

    def alloc(pool: PoolState, C: float) -> np.ndarray:
        nonlocal last
        weights = None if hazard_at is None else hazard_at(pool.viewed)
        rates, level = _buffer_fill(pool, C, weights, last)
        if math.isfinite(level):
            last = level
        return rates

    return alloc


def bb_rates(pool: PoolState, C: float, browse_slots: int) -> np.ndarray:
    """Behavior-based streaming: pin browsing users (fewer than
    `browse_slots` slots viewed) to one second of video per slot, serve the
    rest best-effort; fall back to plain BE if browsing would out-pace
    viewing.  When every demand fits in C, each session gets its demand."""
    browsing = (~pool.in_startup) & (pool.viewed < browse_slots)
    rates = np.where(browsing, np.minimum(pool.cap, 1.0), pool.cap)
    if C >= np.add.reduce(rates):
        return rates
    d_browse = rates[browsing]
    if d_browse.size == 0:
        return be_rates(pool, C)
    reserved = float(np.add.reduce(d_browse))
    if reserved > C:
        d_browse *= C / reserved  # degenerate overload: equal scale-down
        rates[browsing] = d_browse
        reserved = float(np.add.reduce(d_browse))
    if d_browse.size == rates.size:
        return rates
    others = ~browsing
    residual = max(C - reserved, 0.0)
    x, level = _fair_fill(pool.cap[others], residual)
    if level < float(np.maximum.reduce(d_browse)):
        return be_rates(pool, C)
    rates[others] = x
    return rates


def make_allocator(name: str, model):
    """Build the array-level allocator the engine drives each slot.

    `model` (a DepartureModel) gives ew its hazards and bb its browsing-phase
    length.
    """
    name = name.lower()
    if name == "sc":
        return lambda pool, C: sc_rates(pool, C, 0.0)
    if name == "sc+":
        return lambda pool, C: sc_rates(pool, C, 0.05)
    if name == "be":
        return lambda pool, C: be_rates(pool, C)
    if name == "eb":
        return _level_allocator()
    if name == "ew":
        return _level_allocator(model.hazard_at)
    if name == "bb":
        return lambda pool, C: bb_rates(pool, C, model.browse_slots)
    raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
