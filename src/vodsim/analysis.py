"""Small-instance oracles for the steady-state claims, and one driver per
claim, shared by `vodsim verify` and the acceptance gate, that counts its
oracle's failures on random instances.

Everything here is deliberately dumb: grid enumeration rather than convex
solvers, so the oracles stay independent of the allocation code they check.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class SkipProbFn:
    """Convex, nonincreasing skip-probability function of buffer seconds."""

    g: Callable[[float], float]

    @classmethod
    def exponential(cls, g0: float = 1.0, decay: float = math.log(2)) -> "SkipProbFn":
        """Default g(b) = g0 * exp(-decay * b); decay ln2 gives g0 * 2^-b."""
        if not 0 < g0 <= 1:
            raise ValueError("g0 must lie in (0, 1]")
        return cls(lambda b: g0 * math.exp(-decay * b))

    def __call__(self, b: float) -> float:
        return self.g(b)

    def check_shape(self, grid: np.ndarray, tol: float = 1e-9) -> bool:
        """Nonincreasing and midpoint-convex on the sampled grid."""
        vals = np.array([self.g(float(b)) for b in grid])
        if np.any(np.diff(vals) > tol):
            return False
        return bool(np.all(vals[:-2] + vals[2:] >= 2 * vals[1:-1] - tol))


def wastage_identity(C: float, N: float, gamma: float) -> float:
    """Steady-state wastage W = C - N + N*gamma (heavy load, N <= C)."""
    if N > C + 1e-9:
        raise ValueError("identity assumes the heavy-load regime N <= C")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    return C - N + N * gamma


def _grid_vectors(n: int, total_units: int) -> np.ndarray:
    """All nonnegative integer n-vectors summing to total_units."""
    if n == 1:
        return np.array([[total_units]])
    out = []
    for head in itertools.product(range(total_units + 1), repeat=n - 1):
        rest = total_units - sum(head)
        if rest >= 0:
            out.append(head + (rest,))
    return np.array(out, dtype=np.int64)


def brute_force_min_skip(N: int, S: float, g: Callable[[float], float], grid: float):
    """Exhaustive minimizer of mean skip probability over buffer splits.

    Searches nonnegative grid vectors with sum S for the minimum of
    (1/N) * sum g(b_i).  Returns (buffers, gamma*).
    """
    if N < 1 or N > 4:
        raise ValueError("oracle is bounded to N <= 4")
    units = S / grid
    if abs(units - round(units)) > 1e-9:
        raise ValueError("S must be a multiple of the grid")
    units = int(round(units))
    if (units + 1) ** max(N - 1, 1) > 10**7:
        raise ValueError("grid too fine for exhaustive search")
    vectors = _grid_vectors(N, units) * grid
    gv = np.vectorize(g)
    gamma = gv(vectors).mean(axis=1)
    best = int(np.argmin(gamma))
    return vectors[best], float(gamma[best])


def brute_force_min_waste(f: Sequence[float], S: float, grid: float):
    """Exhaustive min of max_i f_i*b_i over buffer splits with sum S.

    Ties broken by smaller total waste sum(f_i*b_i).  Returns (buffers, W*)
    where W* = sum f_i*b_i at the minimizer.
    """
    f = np.asarray(f, dtype=float)
    N = f.size
    if N < 1 or N > 4:
        raise ValueError("oracle is bounded to N <= 4")
    units = S / grid
    if abs(units - round(units)) > 1e-9:
        raise ValueError("S must be a multiple of the grid")
    vectors = _grid_vectors(N, int(round(units))) * grid
    waste_rates = vectors * f
    max_rate = waste_rates.max(axis=1)
    totals = waste_rates.sum(axis=1)
    order = np.lexsort((totals, max_rate))
    best = order[0]
    return vectors[best], float(totals[best])


def constrained_min_skip(
    f: Sequence[float],
    W: float,
    g: Callable[[float], float],
    grid: float,
    b_max: float,
):
    """Grid search for min (1/N) sum g(b_i) s.t. sum f_i*b_i = W.

    The equality constraint is met within half a grid step (scaled by the
    largest weight).  Returns (buffers, gamma*).
    """
    f = np.asarray(f, dtype=float)
    N = f.size
    if N < 1 or N > 4:
        raise ValueError("oracle is bounded to N <= 4")
    axis = np.arange(0, int(round(b_max / grid)) + 1) * grid
    if axis.size**N > 5 * 10**6:
        raise ValueError("grid too fine for exhaustive search")
    grids = np.meshgrid(*([axis] * N), indexing="ij")
    vectors = np.stack([gg.ravel() for gg in grids], axis=1)
    tol = 0.5 * grid * float(f.max())
    feasible = np.abs(vectors @ f - W) <= tol
    if not feasible.any():
        raise ValueError("no grid point satisfies the waste constraint")
    vectors = vectors[feasible]
    gv = np.vectorize(g)
    gamma = gv(vectors).mean(axis=1)
    best = int(np.argmin(gamma))
    return vectors[best], float(gamma[best])


def lagrange_condition_check(
    buffers: Sequence[float],
    ratios: Sequence[float],
    f: Callable[[float], float],
    g: Callable[[float], float],
    tolerance: float,
    h: float = 0.025,
):
    """Check g'(b_i)/g'(b_j) = f(v_i)/f(v_j) for all pairs (central differences).

    Returns True/False, or None when a zero derivative or zero hazard makes
    the ratio indeterminate.
    """
    b = np.asarray(buffers, dtype=float)
    v = np.asarray(ratios, dtype=float)
    dg = np.array([(g(bi + h) - g(bi - h)) / (2 * h) for bi in b])
    fv = np.array([f(vi) for vi in v])
    for i in range(b.size):
        for j in range(b.size):
            if i == j:
                continue
            if abs(dg[j]) < 1e-12 or abs(fv[j]) < 1e-12:
                return None
            if abs(dg[i] / dg[j] - fv[i] / fv[j]) > tolerance:
                return False
    return True


# The drivers' buffer grid (seconds), and the buffers on which a random
# skip-probability function must be convex and nonincreasing.
GRID = 0.25
_SHAPE_GRID = np.linspace(0.0, 10.0, 81)


def random_convex_fn(rng: np.random.Generator) -> SkipProbFn:
    """A random skip-probability function, with probability 1/2 each
    g0 * exp(-decay * b) or the power law g0 / (1 + b)^k."""
    if rng.random() < 0.5:
        return SkipProbFn.exponential(
            g0=float(rng.uniform(0.3, 1.0)), decay=float(rng.uniform(0.3, 2.0))
        )
    g0 = float(rng.uniform(0.3, 1.0))
    k = float(rng.uniform(1.0, 3.0))
    return SkipProbFn(lambda b: g0 / (1.0 + b) ** k)


def equal_buffer_failures(rng: np.random.Generator, cases: int) -> int:
    """Equal buffers minimize skip probability (Lemma 2 analog): of `cases`
    random instances, the number whose g is misshapen or whose minimizing
    split has buffers more than one grid step apart."""
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        g = random_convex_fn(rng)
        S = GRID * int(rng.integers(n, 33))
        buffers, _ = brute_force_min_skip(n, S, g, GRID)
        if not g.check_shape(_SHAPE_GRID) or buffers.max() - buffers.min() > GRID + 1e-9:
            failures += 1
    return failures


def equal_waste_failures(rng: np.random.Generator, cases: int) -> int:
    """Equal waste rates minimize the worst waste (Prop. 3 analog): of
    `cases` random instances, the number whose min-max split has waste rates
    f_i * b_i more than one grid step times max f apart."""
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(2, 5))
        f = rng.uniform(0.3, 1.0, size=n)
        S = GRID * int(rng.integers(8 * n, 33))
        buffers, _ = brute_force_min_waste(f, S, GRID)
        rates = f * buffers
        if rates.max() - rates.min() > GRID * f.max() + 1e-9:
            failures += 1
    return failures


def lagrange_failures(rng: np.random.Generator, cases: int) -> int:
    """Constrained minimizers meet the derivative-ratio condition (Prop. 4
    analog): of `cases` random instances, the number whose minimizer fails
    `lagrange_condition_check` (an indeterminate verdict is no failure).
    The grid minimizer meets it only up to grid error, which alone fails
    about 4 cases in 10 000."""
    failures = 0
    for _ in range(cases):
        n = int(rng.integers(2, 4))
        f = rng.uniform(0.4, 1.0, size=n)
        g = SkipProbFn.exponential(g0=1.0, decay=float(rng.uniform(0.4, 1.2)))
        beta = GRID * rng.integers(4, 13, size=n)
        buffers, _ = constrained_min_skip(f, float(f @ beta), g, GRID, b_max=6.0)
        ratios = np.linspace(0.1, 0.9, n)
        lookup = dict(zip(ratios, f))
        verdict = lagrange_condition_check(
            buffers, ratios, lambda v: lookup[v], g, tolerance=10 * GRID, h=GRID / 10
        )
        if verdict is False:
            failures += 1
    return failures


def steady_state_stats(ledgers, window_start: int):
    """Measured (W, N, gamma) over the slot table from window_start on.

    W is mean wasted bandwidth per slot, N the mean number of playback
    attempts, gamma the fraction of attempted slots that were skipped.
    """
    window = ledgers[ledgers["slot"] >= window_start]
    if not window.size:
        raise ValueError("empty measurement window")
    W = float(window["bw_wasted"].mean())
    N = float(window["playing"].mean())
    attempts = window["playing"].sum()
    gamma = 1.0 - float(window["consumed"].sum() / attempts) if attempts > 0 else 0.0
    return W, N, gamma
