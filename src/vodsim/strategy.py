"""Per-slot bandwidth allocation strategies.

Six strategies share one primitive: max-min fair water-filling subject to
per-user demand caps.  SC/SC+ cap each user at (1 + delta) times the bitrate,
BE at the access link, EB water-fills projected next-slot buffers, EW
water-fills hazard-weighted buffers, and BB pins browsing-phase users to the
bitrate and serves the rest best-effort (falling back to plain BE when the
reservation would starve the viewing users).

Every allocator is a pure function of a `PoolState` (one array per session
field) and returns one rate per session, in pool order.  `make_allocator`
binds a strategy's parameters for the simulation engine; the tests call the
same *_rates functions.
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
    cap: np.ndarray            # most the session can take this slot (rate units)
    in_startup: np.ndarray     # bool
    playing: np.ndarray        # bool; False for startup and frozen sessions


def _level_fill(floors, weights, caps, budget):
    """Raise weighted levels w_i*(floor_i + x_i) to a common value.

    Finds x (0 <= x_i <= cap_i, sum x_i <= budget) for caps >= 0 that
    lexicographically maximizes the level vector; users whose cap binds
    below the common level receive their cap.  `weights=None` means unit
    weights and gives the same bits as `np.ones(n)`, since multiplying or
    dividing by 1.0 is exact.  Returns (x, level); level is +inf when every
    cap binds with budget to spare.
    """
    floors = np.asarray(floors, dtype=float)
    caps = np.asarray(caps, dtype=float)
    n = floors.size
    if n == 0:
        return np.zeros(0), math.inf
    total_caps = float(caps.sum())
    if budget >= total_caps:
        return caps.copy(), math.inf
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
    if budget <= 0.0:
        return np.zeros(n), float((floors if weights is None else weights * floors).min())

    # Breakpoints: each user starts rising at w*floor and stops at
    # w*(floor + cap); between them it adds 1/w to the level's slope.
    points = np.empty(2 * n)
    slopes = np.empty(2 * n)
    np.add(floors, caps, out=points[n:])
    if weights is None:
        points[:n] = floors
        slopes[:n] = 1.0
        slopes[n:] = -1.0
    else:
        np.multiply(weights, floors, out=points[:n])
        points[n:] *= weights
        np.divide(1.0, weights, out=slopes[:n])
        np.negative(slopes[:n], out=slopes[n:])
    # Stable: tied breakpoints keep their order, and the float slope sums
    # depend on it.
    order = points.argsort(kind="stable")
    pts = points[order]
    slope = slopes[order].cumsum()
    # Cumulative capacity spent to raise the level up to each breakpoint.
    spent = np.empty(2 * n)
    spent[0] = 0.0
    gaps = np.subtract(pts[1:], pts[:-1])
    gaps *= slope[:-1]
    gaps.cumsum(out=spent[1:])
    k = int(spent.searchsorted(budget, side="right")) - 1
    if k >= n * 2 - 1:
        return caps.copy(), math.inf
    if slope[k] > 0:
        level = pts[k] + (budget - spent[k]) / slope[k]
    else:
        level = pts[k]
    x = np.subtract(level if weights is None else level / weights, floors)
    x.clip(0.0, caps, out=x)
    return x, float(level)


def _fair_fill(caps, budget):
    """`_level_fill` with zero floors and unit weights, bit for bit.

    Its breakpoints are n zeros followed by the caps, so only the n caps are
    sorted: below the smallest cap all n users rise together, and each cap
    passed leaves one user fewer.  Caps must be >= 0.  Returns (x, level) as
    `_level_fill` does.
    """
    caps = np.asarray(caps, dtype=float)
    n = caps.size
    if n == 0:
        return np.zeros(0), math.inf
    if budget >= float(caps.sum()):
        return caps.copy(), math.inf
    if budget <= 0.0:
        return np.zeros(n), 0.0
    pts = np.sort(caps)
    slope = np.arange(n, 0, -1, dtype=float)  # users still below each cap
    # Cumulative capacity spent to raise the level up to each sorted cap.
    gaps = np.empty(n)
    gaps[0] = pts[0]
    np.subtract(pts[1:], pts[:-1], out=gaps[1:])
    spent = np.cumsum(slope * gaps)
    k = int(np.searchsorted(spent, budget, side="right"))
    if k >= n:
        return caps.copy(), math.inf
    base, spent_k = (pts[k - 1], spent[k - 1]) if k else (0.0, 0.0)
    level = base + (budget - spent_k) / slope[k]
    # level >= 0, so clipping to [0, cap] is a minimum with the cap.
    return np.minimum(caps, level), float(level)


def sc_rates(pool: PoolState, C: float, bitrate: float, delta: float = 0.0) -> np.ndarray:
    """Simple rate control: demand capped at bitrate*(1+delta); startup users
    are served best-effort."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    d = np.where(pool.in_startup, pool.cap, np.minimum(pool.cap, bitrate * (1.0 + delta)))
    return _fair_fill(d, C)[0]


def be_rates(pool: PoolState, C: float) -> np.ndarray:
    """Best-effort progressive download: max-min fair over full demands."""
    return _fair_fill(pool.cap, C)[0]


def _buffer_fill(
    pool: PoolState, C: float, bitrate: float, weights: np.ndarray | None
) -> np.ndarray:
    """Weighted water-fill of projected next-slot buffers; `weights=None`
    means unit weights.

    With no zero weight, every session gets its cap when all caps fit in C.
    Zero-weight users cannot raise the waste level, so they are served after
    all positive-weight users reach the common level.
    """
    caps_sec = pool.cap / bitrate
    budget_sec = C / bitrate
    pos = None if weights is None else weights > 0
    if pos is None or pos.all():
        # `_level_fill`'s own fit test, made before the floors and weights.
        if budget_sec >= caps_sec.sum():
            return caps_sec * bitrate
        if weights is not None and weights.size:
            weights = weights / weights.max()  # scale-invariant; constant weights become 1.0
        x, _ = _level_fill(pool.buffer - pool.playing, weights, caps_sec, budget_sec)
        return x * bitrate
    floors = pool.buffer - pool.playing
    x = np.zeros(floors.size)
    spent = 0.0
    if pos.any():
        w = weights[pos]
        w = w / w.max()
        x_pos, _ = _level_fill(floors[pos], w, caps_sec[pos], budget_sec)
        x[pos] = x_pos
        spent = float(x_pos.sum())
    rest = ~pos
    leftover = budget_sec - spent
    if leftover > 0:
        x_rest, _ = _level_fill(floors[rest], None, caps_sec[rest], leftover)
        x[rest] = x_rest
    return x * bitrate


def eb_rates(pool: PoolState, C: float, bitrate: float) -> np.ndarray:
    """Equal-buffer streaming: water-fill projected next-slot buffers."""
    return _buffer_fill(pool, C, bitrate, None)


def ew_rates(pool: PoolState, C: float, bitrate: float, hazard: np.ndarray) -> np.ndarray:
    """Equal waste-rate streaming: equalize hazard * projected buffer.

    `hazard` holds one value in [0, 1] per session.  The engine passes
    `DepartureModel.hazard_at(pool.viewed)`, entries of the model's `p`,
    which was checked and clipped to [0, 1] when the model was built.
    """
    return _buffer_fill(pool, C, bitrate, hazard)


def bb_rates(pool: PoolState, C: float, bitrate: float, browse_slots: int) -> np.ndarray:
    """Behavior-based streaming: pin browsing users (fewer than
    `browse_slots` slots viewed) to the bitrate, serve the rest best-effort;
    fall back to plain BE if browsing would out-pace viewing.  When every
    demand fits in C, each session gets its demand."""
    browsing = (~pool.in_startup) & (pool.viewed < browse_slots)
    rates = np.where(browsing, np.minimum(pool.cap, bitrate), pool.cap)
    if C >= rates.sum():
        return rates
    if not browsing.any():
        return be_rates(pool, C)
    d_browse = rates[browsing]
    reserved = float(d_browse.sum())
    if reserved > C:
        d_browse *= C / reserved  # degenerate overload: equal scale-down
        rates[browsing] = d_browse
    others = ~browsing
    if not others.any():
        return rates
    residual = max(C - float(d_browse.sum()), 0.0)
    x, level = _fair_fill(pool.cap[others], residual)
    if level < float(d_browse.max()):
        return be_rates(pool, C)
    rates[others] = x
    return rates


def make_allocator(name: str, bitrate: float, model):
    """Build the array-level allocator the engine drives each slot.

    `model` (a DepartureModel) gives ew its hazards and bb its browsing-phase
    length.
    """
    name = name.lower()
    if name == "sc":
        return lambda pool, C: sc_rates(pool, C, bitrate, 0.0)
    if name == "sc+":
        return lambda pool, C: sc_rates(pool, C, bitrate, 0.05)
    if name == "be":
        return lambda pool, C: be_rates(pool, C)
    if name == "eb":
        return lambda pool, C: eb_rates(pool, C, bitrate)
    if name == "ew":
        return lambda pool, C: ew_rates(pool, C, bitrate, model.hazard_at(pool.viewed))
    if name == "bb":
        return lambda pool, C: bb_rates(pool, C, bitrate, model.browse_slots)
    raise ValueError(f"unknown strategy {name!r}; choose from {STRATEGY_NAMES}")
