"""Arrival processes: Poisson generation and trace playback.

Trace files carry one nonnegative integer per line (arrivals in that second);
`slot,count` CSV rows are also accepted.  A synthetic two-peak diurnal trace
generator stands in for real provider traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def poisson_counts(lam: float, n_slots: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. Poisson(lam) arrival counts, one per slot."""
    if lam < 0:
        raise ValueError("arrival rate must be nonnegative")
    if n_slots < 0:
        raise ValueError("n_slots must be nonnegative")
    return rng.poisson(lam, size=n_slots)


def stochastic_round(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Round to integers with expectation equal to the input."""
    values = np.asarray(values, dtype=float)
    floor = np.floor(values)
    frac = values - floor
    return (floor + (rng.random(values.shape) < frac)).astype(np.int64)


@dataclass
class ArrivalProcess:
    """Either Poisson(lam per slot) or a scaled replay of a per-slot trace."""

    kind: str  # "poisson" | "trace"
    lam: float = 0.0
    counts: np.ndarray | None = None
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("poisson", "trace"):
            raise ValueError(f"unknown arrival kind {self.kind!r}")
        if self.kind == "poisson" and not 0 <= self.lam < np.inf:  # NaN, inf fail
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if self.kind == "trace":
            c = np.asarray(self.counts, dtype=np.int64)
            if c.ndim != 1 or c.size == 0:
                raise ValueError("trace must be a nonempty 1-d count sequence")
            if np.any(c < 0):
                raise ValueError("trace counts must be nonnegative")
            if not 0 < self.scale < np.inf:
                raise ValueError(f"trace scale must be positive and finite, got {self.scale}")
            self.counts = c

    @classmethod
    def poisson(cls, lam: float) -> "ArrivalProcess":
        return cls(kind="poisson", lam=lam)

    @classmethod
    def trace(cls, counts, scale: float = 1.0) -> "ArrivalProcess":
        return cls(kind="trace", counts=np.asarray(counts), scale=scale)

    @property
    def length(self) -> int | None:
        """Natural duration in slots (traces only)."""
        return None if self.kind == "poisson" else int(self.counts.size)

    def generate(self, duration: int, rng: np.random.Generator) -> np.ndarray:
        """Per-slot arrival counts for `duration` slots."""
        if self.kind == "poisson":
            return poisson_counts(self.lam, duration, rng)
        counts = self.counts[:duration]
        if counts.size < duration:
            counts = np.concatenate([counts, np.zeros(duration - counts.size, dtype=np.int64)])
        if self.scale != 1.0:
            counts = stochastic_round(counts * self.scale, rng)
        return counts


def load_trace(path, scale: float = 1.0) -> ArrivalProcess:
    """Parse a trace file; reports the offending line on errors."""
    counts = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            field = line.split(",")[-1] if "," in line else line
            try:
                value = int(field)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed count {line!r}") from exc
            if value < 0:
                raise ValueError(f"{path}:{lineno}: negative arrival count {value}")
            counts.append(value)
    if not counts:
        raise ValueError(f"{path}: empty trace")
    return ArrivalProcess.trace(np.array(counts, dtype=np.int64), scale=scale)


def save_trace(counts, path) -> None:
    with open(path, "w") as fh:
        for c in np.asarray(counts, dtype=np.int64):
            fh.write(f"{int(c)}\n")


def diurnal_trace(
    n_slots: int,
    base_rate: float = 0.3,
    peak_rate: float = 4.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Synthetic two-peak day: a midday bump and a prime-time evening block.

    The evening block ramps up sharply, stays near peak_rate with a gentle
    within-evening swell, and falls off before the day ends.  The sharp ramp
    is what separates the strategies' peak usage: progressive downloaders
    serve the incoming wave at the access-link rate, while rate-controlled
    strategies spread the same bytes over each session's lifetime.
    """
    if n_slots <= 0:
        raise ValueError("n_slots must be positive")
    if base_rate < 0 or peak_rate < 0:
        raise ValueError("rates must be nonnegative")
    rng = rng or np.random.default_rng()
    tau = np.arange(n_slots) / n_slots

    def _edge(x):
        return 1.0 / (1.0 + np.exp(-x))

    midday = 0.6 * np.exp(-(((tau - 0.35) / 0.10) ** 2))
    block = _edge((tau - 0.62) / 0.004) * _edge(-(tau - 0.90) / 0.01)
    swell = 0.94 + 0.06 * np.sin(2.0 * np.pi * (tau - 0.62) / 0.06)
    rate = base_rate + peak_rate * (midday + block * swell)
    return rng.poisson(np.maximum(rate, 0.0))


def target_bandwidth_from_peak(peak_bw: float, fraction: float) -> float:
    """Finite capacity for capped re-runs, e.g. 95% of a reference peak."""
    if peak_bw <= 0 or fraction <= 0:
        raise ValueError("peak_bw and fraction must be positive")
    return fraction * peak_bw
