"""Viewer early-departure behavior: histograms, hazard rates, sampling, phases.

Departure behavior is expressed in three equivalent forms: a per-slot
departure histogram (mass per viewed-content slot), per-slot hazard rates
(departure probability given survival), and the CDF used for inverse-transform
sampling of random departure times.  A phase boundary splits the video into a
high-churn browsing prefix and a flatter viewing phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SUM_TOL = 1e-9
_EPS = 1e-12


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DepartureHistogram:
    """Per-bin departure mass; bin t is the t-th viewed slot of the video.

    The final bin includes the completion mass (viewers who finish).
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size == 0:
            raise ValueError("histogram needs at least one bin")
        if np.any(q < -_EPS) or np.any(q > 1.0 + _EPS):
            raise ValueError("bin probabilities must lie in [0, 1]")
        if abs(float(q.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"bin probabilities sum to {q.sum()}, expected 1")
        object.__setattr__(self, "q", _freeze(np.clip(q, 0.0, 1.0)))

    @property
    def bins(self) -> int:
        return int(self.q.size)

    def mean_viewing_ratio(self) -> float:
        """Expected fraction of the video viewed before departure."""
        t = np.arange(1, self.bins + 1)
        return float((t * self.q).sum()) / self.bins


@dataclass(frozen=True, eq=False)
class DepartureRates:
    """Hazard rates: p[t] = P(depart in slot t | survived slots < t)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("rates need at least one slot")
        if np.any(p < -_EPS) or np.any(p > 1.0 + _EPS):
            raise ValueError("hazard rates must lie in [0, 1]")
        p = np.clip(p, 0.0, 1.0)
        # Everyone leaves by video end: p[last] = 1 unless no one can reach it.
        survivors_into_last = float(np.prod(1.0 - p[:-1])) if p.size > 1 else 1.0
        if survivors_into_last > SUM_TOL and p[-1] < 1.0 - SUM_TOL:
            raise ValueError("final-slot hazard must be 1 (all survivors depart)")
        object.__setattr__(self, "p", _freeze(p))

    @property
    def slots(self) -> int:
        return int(self.p.size)


@dataclass(frozen=True, eq=False)
class ViewingRatioCdf:
    """Cumulative departure mass; cdf[t] = P(depart in slot <= t+1)."""

    cdf: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cdf, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("cdf needs at least one bin")
        if np.any(np.diff(c) < -_EPS):
            raise ValueError("cdf must be nondecreasing")
        if abs(float(c[-1]) - 1.0) > SUM_TOL:
            raise ValueError("cdf must terminate at 1")
        object.__setattr__(self, "cdf", _freeze(c))


@dataclass(frozen=True)
class PhaseBoundary:
    """Viewing ratios below boundary_ratio belong to the browsing phase."""

    boundary_ratio: float

    def __post_init__(self):
        if not 0.0 <= self.boundary_ratio <= 1.0:
            raise ValueError("boundary_ratio must lie in [0, 1]")


def rates_from_histogram(h: DepartureHistogram) -> DepartureRates:
    """Invert Q_t = P_t * prod_{i<t}(1 - P_i) to recover hazard rates."""
    q = h.q
    survivors = 1.0 - np.concatenate(([0.0], np.cumsum(q[:-1])))
    if np.any(survivors < -SUM_TOL):
        raise ValueError("malformed histogram: negative survivor mass")
    # Survivor mass 0 means the slot is unreachable; p = 0 by convention.
    p = np.where(survivors > _EPS, q / np.maximum(survivors, _EPS), 0.0)
    if survivors[-1] > _EPS:
        # All remaining mass departs in the final bin; pin the terminal hazard
        # to exactly 1 despite cumsum round-off in the survivor mass.
        p[-1] = 1.0
    return DepartureRates(np.clip(p, 0.0, 1.0))


def histogram_from_rates(r: DepartureRates) -> DepartureHistogram:
    """Forward formula Q_t = P_t * prod_{i<t}(1 - P_i)."""
    p = r.p
    survivors = np.concatenate(([1.0], np.cumprod(1.0 - p[:-1])))
    return DepartureHistogram(p * survivors)


def cdf_from_histogram(h: DepartureHistogram) -> ViewingRatioCdf:
    c = np.cumsum(h.q)
    c[-1] = 1.0  # absorb float round-off at the terminal bin
    return ViewingRatioCdf(c)


def sample_departure_slot(cdf: ViewingRatioCdf, u: float) -> int:
    """Inverse-transform sample: smallest 1-based t with u < cdf[t].

    The result is the number of video slots the viewer will watch.
    """
    if not 0.0 <= u < 1.0:
        raise ValueError("u must lie in [0, 1)")
    return int(np.searchsorted(cdf.cdf, u, side="right")) + 1


def sample_departure_slots(cdf: ViewingRatioCdf, u: np.ndarray) -> np.ndarray:
    """Vectorized sample_departure_slot."""
    return np.searchsorted(cdf.cdf, np.asarray(u, dtype=float), side="right") + 1


# Share of the summed hazard rates that the browsing phase's slots cover.
BROWSE_HAZARD_SHARE = 0.5


def phase_boundary(rates) -> PhaseBoundary:
    """Demarcate the browsing phase from top hazard rates.

    Slots are selected in descending hazard order (earlier slot wins ties)
    until their sum reaches BROWSE_HAZARD_SHARE of the total; the boundary
    is the largest selected slot divided by the video length.  The final
    slot (the forced completion spike) is excluded from selection.
    """
    p = rates.p if isinstance(rates, DepartureRates) else np.asarray(rates, dtype=float)
    if p.size == 0:
        raise ValueError("empty rates")
    if np.any(p < 0):
        raise ValueError("hazard rates must be nonnegative")
    length = p.size
    candidates = p[:-1]
    total = float(candidates.sum())
    if total <= 0.0:
        return PhaseBoundary(0.0)
    order = np.argsort(-candidates, kind="stable")  # stable: earlier slot first on ties
    csum = np.cumsum(candidates[order])
    k = int(np.argmax(csum >= BROWSE_HAZARD_SHARE * total - _EPS))
    last_selected = int(order[: k + 1].max())
    return PhaseBoundary((last_selected + 1) / length)


# Ratio by which the browsing-phase mass decays from its first to last bin.
BROWSE_DECAY_SPAN = 0.7


def synthetic_model(
    L: int,
    browse_mass: float,
    browse_width: float,
    complete_mass: float,
) -> DepartureHistogram:
    """Synthetic departure histogram: decaying browsing prefix, flat middle,
    completion spike at the end.

    browse_mass is spread geometrically over the first browse_width * L slots,
    complete_mass sits on the final slot, and the remainder is uniform over
    the middle slots.
    """
    if L < 1:
        raise ValueError("L must be positive")
    if browse_mass < 0 or complete_mass < 0 or browse_mass + complete_mass > 1 + _EPS:
        raise ValueError("browse_mass + complete_mass must not exceed 1")
    if not 0.0 < browse_width < 1.0:
        raise ValueError("browse_width must lie in (0, 1)")

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
    return DepartureHistogram(q)


# Desk-scale preset: calibrated so the mean viewing ratio is ~0.5 and the
# detected phase boundary lands at ~0.15 of the video.
DEFAULT_BROWSE_MASS = 0.45
DEFAULT_BROWSE_WIDTH = 0.15
DEFAULT_COMPLETE_MASS = 0.35


@dataclass(frozen=True, eq=False)
class DepartureModel:
    """Bundle of the equivalent departure-behavior representations."""

    histogram: DepartureHistogram
    rates: DepartureRates
    cdf: ViewingRatioCdf
    boundary: PhaseBoundary
    mean_viewing_ratio: float

    @classmethod
    def from_histogram(cls, h: DepartureHistogram) -> "DepartureModel":
        r = rates_from_histogram(h)
        return cls(
            histogram=h,
            rates=r,
            cdf=cdf_from_histogram(h),
            boundary=phase_boundary(r),
            mean_viewing_ratio=h.mean_viewing_ratio(),
        )

    @classmethod
    def synthetic(
        cls,
        L: int = 300,
        browse_mass: float = DEFAULT_BROWSE_MASS,
        browse_width: float = DEFAULT_BROWSE_WIDTH,
        complete_mass: float = DEFAULT_COMPLETE_MASS,
    ) -> "DepartureModel":
        return cls.from_histogram(synthetic_model(L, browse_mass, browse_width, complete_mass))

    @classmethod
    def no_early_departure(cls, L: int) -> "DepartureModel":
        q = np.zeros(L)
        q[-1] = 1.0
        return cls.from_histogram(DepartureHistogram(q))

    @property
    def slots(self) -> int:
        return self.histogram.bins

    def sample_slots(self, u: np.ndarray) -> np.ndarray:
        return sample_departure_slots(self.cdf, u)

    def hazard_at(self, viewed: np.ndarray) -> np.ndarray:
        """Hazard of the slot after `viewed` viewed slots, `rates.p[viewed]`,
        with `viewed` truncated to a whole slot and clamped to [0, L-1]."""
        idx = np.asarray(viewed).astype(int)  # 0-d stays an array
        np.minimum(idx, self.slots - 1, out=idx)
        np.maximum(idx, 0, out=idx)
        return self.rates.p[idx]


def load_histogram(path) -> DepartureHistogram:
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
            probs[idx] = prob
    if not probs:
        raise ValueError(f"{path}: empty histogram file")
    q = np.zeros(max(probs) + 1)
    for idx, prob in probs.items():
        q[idx] = prob
    return DepartureHistogram(q)


def save_histogram(h: DepartureHistogram, path) -> None:
    with open(path, "w") as fh:
        fh.write("# bin_index,probability\n")
        for i, prob in enumerate(h.q):
            fh.write(f"{i},{float(prob)!r}\n")
