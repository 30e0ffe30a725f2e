"""Steady-state oracle tests: identities, grid searches, optimality conditions."""

import math

import numpy as np
import pytest

from vodsim import analysis
from vodsim.analysis import (
    SkipProbFn,
    brute_force_min_skip,
    brute_force_min_waste,
    constrained_min_skip,
    lagrange_condition_check,
    wastage_identity,
)


class TestWastageIdentity:
    def test_full_population(self):
        assert wastage_identity(100, 100, 0.05) == pytest.approx(5.0)

    def test_idle_capacity(self):
        assert wastage_identity(100, 95, 0.0) == pytest.approx(5.0)

    def test_lossless(self):
        assert wastage_identity(80, 80, 0.0) == 0.0

    def test_rejects_overfull_population(self):
        with pytest.raises(ValueError):
            wastage_identity(100, 120, 0.1)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            wastage_identity(100, 90, 1.5)


class TestSkipProbFn:
    def test_exponential_shape(self):
        g = SkipProbFn.exponential(g0=1.0, decay=math.log(2))
        assert g(0.0) == pytest.approx(1.0)
        assert g(1.0) == pytest.approx(0.5)
        assert g.check_shape(np.linspace(0, 8, 33))

    def test_concave_shape_detected(self):
        bad = SkipProbFn(lambda b: max(1.0 - b * b / 100.0, 0.0))
        assert not bad.check_shape(np.linspace(0, 8, 33))

    def test_rejects_bad_g0(self):
        with pytest.raises(ValueError):
            SkipProbFn.exponential(g0=0.0)


class TestMinSkipOracle:
    def test_strict_convexity_forces_equality(self):
        buffers, _ = brute_force_min_skip(2, 4.0, lambda b: math.exp(-b), 0.5)
        np.testing.assert_allclose(buffers, [2.0, 2.0])

    def test_known_gamma(self):
        buffers, gamma = brute_force_min_skip(3, 3.0, lambda b: 2.0 ** (-b), 0.5)
        np.testing.assert_allclose(buffers, [1.0, 1.0, 1.0])
        assert gamma == pytest.approx(0.5)

    def test_zero_budget(self):
        buffers, _ = brute_force_min_skip(2, 0.0, lambda b: math.exp(-b), 0.25)
        np.testing.assert_allclose(buffers, [0.0, 0.0])

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            brute_force_min_skip(5, 2.0, lambda b: math.exp(-b), 0.5)

    def test_rejects_off_grid_budget(self):
        with pytest.raises(ValueError):
            brute_force_min_skip(2, 1.3, lambda b: math.exp(-b), 0.5)


class TestMinWasteOracle:
    def test_equalizes_waste_rates(self):
        buffers, total = brute_force_min_waste([0.2, 0.1], 3.0, 0.25)
        np.testing.assert_allclose(buffers, [1.0, 2.0])
        assert total == pytest.approx(0.4)

    def test_equal_hazards_give_equal_buffers(self):
        buffers, _ = brute_force_min_waste([0.3, 0.3, 0.3], 3.0, 0.25)
        assert buffers.max() - buffers.min() <= 0.25 + 1e-12

    def test_single_user_gets_everything(self):
        buffers, _ = brute_force_min_waste([0.4], 2.5, 0.25)
        np.testing.assert_allclose(buffers, [2.5])


class TestLagrangeCondition:
    def test_constant_hazard_equal_buffers(self):
        assert lagrange_condition_check(
            [1.5, 1.5], [0.2, 0.8], lambda v: 0.3, lambda b: math.exp(-b), 0.05
        )

    def test_closed_form_offset(self):
        # g = e^-b and hazards 2:1 demand b_j - b_i = ln 2.
        assert lagrange_condition_check(
            [1.0, 1.0 + math.log(2)], [0.2, 0.8],
            lambda v: 0.2 if v < 0.5 else 0.1, lambda b: math.exp(-b), 0.05
        )

    def test_violation_detected(self):
        assert lagrange_condition_check(
            [1.0, 1.0], [0.2, 0.8],
            lambda v: 0.2 if v < 0.5 else 0.1, lambda b: math.exp(-b), 0.05
        ) is False

    def test_zero_hazard_indeterminate(self):
        verdict = lagrange_condition_check(
            [1.0, 1.0], [0.2, 0.8], lambda v: 0.0, lambda b: math.exp(-b), 0.05
        )
        assert verdict is None


class TestConstrainedMinSkip:
    def test_solution_satisfies_lagrange_condition(self):
        grid = 0.25
        f_vals = [0.8, 0.4]
        g = SkipProbFn.exponential(g0=1.0, decay=0.7)
        W = 2.0
        buffers, _ = constrained_min_skip(f_vals, W, g, grid, b_max=6.0)
        lookup = {0.1: 0.8, 0.9: 0.4}
        verdict = lagrange_condition_check(
            buffers, [0.1, 0.9], lambda v: lookup[v], g, tolerance=10 * grid, h=grid / 10
        )
        assert verdict is not False
        assert abs(np.dot(f_vals, buffers) - W) <= 0.5 * grid * max(f_vals)

    def test_infeasible_constraint_rejected(self):
        with pytest.raises(ValueError):
            constrained_min_skip([0.5, 0.5], 100.0, lambda b: math.exp(-b), 0.5, b_max=2.0)


# The draws of one case of the loop each claim driver replaced, without
# its oracle, in the order that loop drew them.
def _skip_case_draws(rng):
    n = rng.integers(2, 5)
    if rng.random() < 0.5:
        rng.uniform(0.3, 1.0), rng.uniform(0.3, 2.0)
    else:
        rng.uniform(0.3, 1.0), rng.uniform(1.0, 3.0)
    rng.integers(n, 33)


def _waste_case_draws(rng):
    n = rng.integers(2, 5)
    rng.uniform(0.3, 1.0, size=n)
    rng.integers(8 * n, 33)


def _lagrange_case_draws(rng):
    n = rng.integers(2, 4)
    rng.uniform(0.4, 1.0, size=n)
    rng.uniform(0.4, 1.2)
    rng.integers(4, 13, size=n)


def _one_sided(N, S, *_):
    return np.r_[S, np.zeros(N - 1)], 0.0


class TestClaimDrivers:
    STREAMS = [
        (analysis.equal_buffer_failures, _skip_case_draws),
        (analysis.equal_waste_failures, _waste_case_draws),
        (analysis.lagrange_failures, _lagrange_case_draws),
    ]
    WRONG_SPLITS = [
        (analysis.equal_buffer_failures, "brute_force_min_skip", _one_sided),
        (analysis.equal_waste_failures, "brute_force_min_waste",
         lambda f, S, grid: _one_sided(len(f), S)),
        # Buffers 0 and b_max: g'(0) / g'(6) = exp(6 * decay) >= 11, while
        # the hazard ratio is at most 2.5 and the tolerance 2.5.
        (analysis.lagrange_failures, "constrained_min_skip",
         lambda f, W, g, grid, b_max: (np.r_[0.0, np.full(len(f) - 1, b_max)], 0.0)),
    ]
    IDS = ["equal-buffer", "equal-waste", "lagrange"]

    @pytest.mark.parametrize("driver, case_draws", STREAMS, ids=IDS)
    @pytest.mark.parametrize("seed", [0, 2024, 4096])
    def test_draws_the_replaced_loops_stream(self, driver, case_draws, seed):
        rng, replay = np.random.default_rng(seed), np.random.default_rng(seed)
        driver(rng, 12)
        for _ in range(12):
            case_draws(replay)
        assert rng.bit_generator.state == replay.bit_generator.state

    @pytest.mark.parametrize("driver, oracle, wrong", WRONG_SPLITS, ids=IDS)
    def test_counts_every_wrong_split(self, monkeypatch, driver, oracle, wrong):
        monkeypatch.setattr(analysis, oracle, wrong)
        assert driver(np.random.default_rng(1), 9) == 9

    def test_counts_every_misshapen_function(self, monkeypatch):
        # Convex and decreasing on the budgets' [0, 8] s, so the buffers are
        # equal, but rising past 9 s.
        rising = SkipProbFn(lambda b: (b - 9.0) ** 2 / 81.0)
        monkeypatch.setattr(analysis, "random_convex_fn", lambda rng: rising)
        assert analysis.equal_buffer_failures(np.random.default_rng(1), 9) == 9

    def test_random_functions_are_convex_and_nonincreasing(self):
        rng = np.random.default_rng(5)
        assert all(analysis.random_convex_fn(rng).check_shape(np.linspace(0.0, 10.0, 81))
                   for _ in range(200))
