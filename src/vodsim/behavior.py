"""Viewer early-departure behavior: one departure model, its array-level
conversions, synthetic histograms and histogram file I/O.

A video of L slots has a departure histogram q: q[t] is the share of viewers
who leave after viewing t + 1 slots, and the final bin includes those who
finish.  `DepartureModel(q)` derives the rest from it: the hazard rates p
(p[t] = P(depart in slot t | survived slots < t)), read by ew; the CDF, for
inverse-transform sampling of departure slots at admission; the mean viewing
ratio; and `browse_slots`, the length of the high-churn browsing prefix that
precedes the flatter viewing phase, read by bb.
"""

from __future__ import annotations

import numpy as np

SUM_TOL = 1e-9
_EPS = 1e-12


def _check_unit_range(x: np.ndarray, message: str) -> None:
    """Raise ValueError(message) unless every entry of x lies in [0, 1] up
    to round-off.  The test is written so that NaN fails it."""
    if not np.all((x >= -_EPS) & (x <= 1.0 + _EPS)):
        raise ValueError(message)


def _histogram(q) -> np.ndarray:
    """A validated copy of the histogram q, with round-off clipped to [0, 1]."""
    q = np.asarray(q, dtype=float)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("histogram needs at least one bin")
    _check_unit_range(q, "bin probabilities must lie in [0, 1]")
    if abs(float(q.sum()) - 1.0) > SUM_TOL:
        raise ValueError(f"bin probabilities sum to {q.sum()}, expected 1")
    return np.clip(q, 0.0, 1.0)


def _rates(p) -> np.ndarray:
    """A validated copy of the hazard rates p, with round-off clipped to [0, 1]."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("rates need at least one slot")
    _check_unit_range(p, "hazard rates must lie in [0, 1]")
    p = np.clip(p, 0.0, 1.0)
    # Everyone leaves by video end: p[last] = 1 unless no one can reach it.
    survivors_into_last = float(np.prod(1.0 - p[:-1])) if p.size > 1 else 1.0
    if survivors_into_last > SUM_TOL and p[-1] < 1.0 - SUM_TOL:
        raise ValueError("final-slot hazard must be 1 (all survivors depart)")
    return p


def rates_from_histogram(q) -> np.ndarray:
    """Invert Q_t = P_t * prod_{i<t}(1 - P_i) to recover hazard rates."""
    q = _histogram(q)
    survivors = 1.0 - np.concatenate(([0.0], np.cumsum(q[:-1])))
    if np.any(survivors < -SUM_TOL):
        raise ValueError("malformed histogram: negative survivor mass")
    # Survivor mass 0 means the slot is unreachable; p = 0 by convention.
    p = np.where(survivors > _EPS, q / np.maximum(survivors, _EPS), 0.0)
    if survivors[-1] > _EPS:
        # All remaining mass departs in the final bin; pin the terminal hazard
        # to exactly 1 despite cumsum round-off in the survivor mass.
        p[-1] = 1.0
    # q / survivors can pass 1 by more than round-off where survivors is tiny.
    return _rates(np.clip(p, 0.0, 1.0))


def histogram_from_rates(p) -> np.ndarray:
    """Forward formula Q_t = P_t * prod_{i<t}(1 - P_i)."""
    p = _rates(p)
    survivors = np.concatenate(([1.0], np.cumprod(1.0 - p[:-1])))
    return _histogram(p * survivors)


# Share of the summed hazard rates that the browsing phase's slots cover.
BROWSE_HAZARD_SHARE = 0.5


def phase_boundary(p) -> int:
    """Length in slots of the browsing phase, found from top hazard rates.

    Slots are selected in descending hazard order (earlier slot wins ties)
    until their sum reaches BROWSE_HAZARD_SHARE of the total; the browsing
    phase runs through the largest selected slot.  The final slot (the
    forced completion spike) is excluded from selection, and with no
    positive hazard there is no browsing phase.
    """
    p = np.asarray(p, dtype=float)
    if p.size == 0:
        raise ValueError("empty rates")
    if not np.all(p >= 0):  # NaN fails
        raise ValueError("hazard rates must be nonnegative")
    candidates = p[:-1]
    total = float(candidates.sum())
    if total <= 0.0:
        return 0
    order = np.argsort(-candidates, kind="stable")  # stable: earlier slot first on ties
    csum = np.cumsum(candidates[order])
    k = int(np.argmax(csum >= BROWSE_HAZARD_SHARE * total - _EPS))
    return int(order[: k + 1].max()) + 1


# Ratio by which the browsing-phase mass decays from its first to last bin.
BROWSE_DECAY_SPAN = 0.7


def synthetic_model(
    L: int,
    browse_mass: float,
    browse_width: float,
    complete_mass: float,
) -> np.ndarray:
    """Synthetic departure histogram: decaying browsing prefix, flat middle,
    completion spike at the end.

    browse_mass is spread geometrically over the first browse_width * L slots,
    complete_mass sits on the final slot, and the remainder is uniform over
    the middle slots.
    """
    if L < 1:
        raise ValueError("L must be positive")
    # Comparisons are written so that NaN fails them.
    for name, mass in (("browse_mass", browse_mass), ("complete_mass", complete_mass)):
        if not 0.0 <= mass <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {mass}")
    if not browse_mass + complete_mass <= 1 + _EPS:
        raise ValueError(
            f"browse_mass + complete_mass must not exceed 1, got {browse_mass} + {complete_mass}"
        )
    if not 0.0 < browse_width < 1.0:
        raise ValueError(f"browse_width must lie in (0, 1), got {browse_width}")

    q = np.zeros(L)
    n_browse = min(max(int(round(browse_width * L)), 1), max(L - 1, 1))
    if browse_mass > 0:
        if L == 1:
            raise ValueError("cannot place browsing mass in a 1-slot video")
        ratio = BROWSE_DECAY_SPAN ** (1.0 / (n_browse - 1)) if n_browse > 1 else 1.0
        w = ratio ** np.arange(n_browse)
        q[:n_browse] = browse_mass * w / w.sum()
    middle_mass = 1.0 - browse_mass - complete_mass
    if middle_mass > _EPS:
        n_middle = (L - 1) - n_browse
        if n_middle <= 0:
            raise ValueError("no middle slots left for the residual mass")
        q[n_browse : L - 1] = middle_mass / n_middle
    q[-1] += complete_mass
    q /= q.sum()
    return _histogram(q)


# Desk-scale preset: calibrated so the mean viewing ratio is ~0.5 and the
# detected browsing phase spans ~0.15 of the video.
DEFAULT_BROWSE_MASS = 0.45
DEFAULT_BROWSE_WIDTH = 0.15
DEFAULT_COMPLETE_MASS = 0.35


# Buckets of `DepartureModel.sample_slots`' lookup; a power of two.
BUCKETS = 4096


class DepartureModel:
    """Departure behavior of a video of L slots, built from its histogram q.

    Holds read-only arrays `q`, `p` (hazard rates) and `cdf`
    (cdf[t] = P(depart within t + 1 slots)), the browsing-phase length
    `browse_slots` and `mean_viewing_ratio`, the expected fraction of the
    video viewed before departure.
    """

    def __init__(self, q):
        self.q = _histogram(q)
        self.p = rates_from_histogram(self.q)
        self.cdf = np.cumsum(self.q)
        self.cdf[-1] = 1.0  # absorb float round-off at the terminal bin
        # `sample_slots`' bucket tables: the number of cdf values at or
        # below each bucket's left edge b / G, and whether the bucket's open
        # interior holds two or more of them.
        edges = np.arange(BUCKETS + 1) / BUCKETS
        self._first = np.searchsorted(self.cdf, edges[:-1], side="right")
        self._wide = np.searchsorted(self.cdf, edges[1:], side="left") - self._first >= 2
        for a in (self.q, self.p, self.cdf, self._first, self._wide):
            a.flags.writeable = False
        self.browse_slots = phase_boundary(self.p)
        t = np.arange(1, self.slots + 1)
        self.mean_viewing_ratio = float((t * self.q).sum()) / self.slots

    @classmethod
    def synthetic(
        cls,
        L: int = 300,
        browse_mass: float = DEFAULT_BROWSE_MASS,
        browse_width: float = DEFAULT_BROWSE_WIDTH,
        complete_mass: float = DEFAULT_COMPLETE_MASS,
    ) -> "DepartureModel":
        return cls(synthetic_model(L, browse_mass, browse_width, complete_mass))

    @property
    def slots(self) -> int:
        return int(self.q.size)

    def sample_slots(self, u: np.ndarray) -> np.ndarray:
        """Inverse-transform samples: for each u in [0, 1), the smallest
        1-based t with u < cdf[t - 1], the number of slots the viewer watches.

        The result is `np.searchsorted(cdf, u, side="right") + 1`, the count
        of cdf values at or below u, plus one, found in one step for most u.
        G = BUCKETS is a power of two, so u * G is exact and u lies in bucket
        b = floor(u * G), [b / G, (b + 1) / G).  The cdf values at or below
        b / G number `_first[b]`, and those at or above (b + 1) / G all exceed
        u, so only values strictly inside the bucket remain to count.  With at
        most one of them, it is `cdf[_first[b]]`, the first value above b / G
        (cdf[-1] = 1 is above every b / G), counted if it is at most u; a
        bucket holding two or more (a `_wide` one) is searched.
        """
        u = np.asarray(u, dtype=float)
        if u.size and not (u.min() >= 0.0 and u.max() < 1.0):  # NaN fails
            raise ValueError("departure draws must lie in [0, 1)")
        shape, u = u.shape, u.ravel()
        b = (u * BUCKETS).astype(np.intp)
        t = self._first[b]
        t += self.cdf[t] <= u
        wide = self._wide[b].nonzero()[0]
        if wide.size:
            t[wide] = np.searchsorted(self.cdf, u[wide], side="right")
        t += 1
        return t.reshape(shape)[()]

    def hazard_at(self, viewed: np.ndarray) -> np.ndarray:
        """Hazard of the slot after `viewed` viewed slots, `p[viewed]`.  The
        engine passes whole slot counts in [0, L - 1]."""
        return self.p[np.asarray(viewed).astype(int)]


def load_histogram(path) -> np.ndarray:
    """Read a `bin_index,probability` text file (# comments allowed)."""
    probs: dict[int, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected 'bin_index,probability'")
            try:
                idx = int(parts[0])
                prob = float(parts[1])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed line {line!r}") from exc
            if idx < 0:
                raise ValueError(f"{path}:{lineno}: negative bin index")
            if idx in probs:
                raise ValueError(f"{path}:{lineno}: duplicate bin index {idx}")
            if not np.isfinite(prob):
                raise ValueError(f"{path}:{lineno}: probability must be finite, got {prob}")
            if not -_EPS <= prob <= 1.0 + _EPS:  # `_check_unit_range`'s tolerance
                raise ValueError(f"{path}:{lineno}: probability must lie in [0, 1], got {prob}")
            probs[idx] = prob
    if not probs:
        raise ValueError(f"{path}: empty histogram file")
    q = np.zeros(max(probs) + 1)
    for idx, prob in probs.items():
        q[idx] = prob
    try:
        return _histogram(q)
    except ValueError as exc:  # the rows are in range, so their sum is off
        raise ValueError(f"{path}: {exc}") from None


def save_histogram(q: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write("# bin_index,probability\n")
        for i, prob in enumerate(q):
            fh.write(f"{i},{float(prob)!r}\n")
