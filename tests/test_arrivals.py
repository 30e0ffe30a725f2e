"""Arrival-process generation, trace parsing, and scaling tests."""

import math

import numpy as np
import pytest

from vodsim.arrivals import (
    ArrivalProcess,
    diurnal_trace,
    load_trace,
    poisson_counts,
    save_trace,
    stochastic_round,
    target_bandwidth_from_peak,
)


class TestPoisson:
    def test_zero_rate(self):
        counts = poisson_counts(0.0, 100, np.random.default_rng(1))
        assert not counts.any()

    def test_moments(self):
        n = 10**5
        counts = poisson_counts(5.0, n, np.random.default_rng(2))
        sigma = np.sqrt(5.0 / n)
        assert abs(counts.mean() - 5.0) <= 3 * sigma
        # Poisson variance equals the mean; Var of the sample variance ~ 2m^2/n + m/n.
        assert abs(counts.var() - 5.0) <= 3 * np.sqrt((2 * 25 + 5) / n)

    def test_heavy_load_rate(self):
        counts = poisson_counts(3.3167, 10**5, np.random.default_rng(3))
        assert counts.mean() == pytest.approx(3.32, abs=0.05)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            poisson_counts(-1.0, 10, np.random.default_rng(0))


class TestStochasticRounding:
    def test_integers_pass_through(self):
        values = np.array([0.0, 1.0, 7.0])
        out = stochastic_round(values, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [0, 1, 7])

    def test_expectation_preserved(self):
        rng = np.random.default_rng(5)
        values = np.full(20000, 2.3)
        out = stochastic_round(values, rng)
        sigma = np.sqrt(0.3 * 0.7 / values.size)
        assert abs(out.mean() - 2.3) <= 3 * sigma

    def test_trace_scaling_expectation(self):
        base = np.array([1, 3, 0, 2] * 500)
        process = ArrivalProcess.trace(base, scale=1.7)
        out = process.generate(base.size, np.random.default_rng(6))
        assert out.mean() == pytest.approx(1.7 * base.mean(), rel=0.03)


class TestArrivalProcess:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ArrivalProcess(kind="burst")

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            ArrivalProcess.trace([1, -2, 3])

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            ArrivalProcess.trace([1, 2], scale=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite_scale_and_rate(self, value):
        with pytest.raises(ValueError, match=f"scale must be positive and finite, got {value}"):
            ArrivalProcess.trace([1, 2], scale=value)
        with pytest.raises(ValueError, match=f"lam must be nonnegative and finite, got {value}"):
            ArrivalProcess.poisson(value)

    def test_trace_length(self):
        assert ArrivalProcess.trace([1, 2, 3]).length == 3
        assert ArrivalProcess.poisson(2.0).length is None

    def test_short_trace_padded_with_zeros(self):
        process = ArrivalProcess.trace([4, 5])
        out = process.generate(5, np.random.default_rng(0))
        np.testing.assert_array_equal(out, [4, 5, 0, 0, 0])


class TestTraceFiles:
    def test_plain_counts(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("0\n2\n1\n")
        np.testing.assert_array_equal(load_trace(path).counts, [0, 2, 1])

    def test_csv_rows_and_comments(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# synthetic\n0,3\n1,1\n2,4\n")
        np.testing.assert_array_equal(load_trace(path).counts, [3, 1, 4])

    def test_negative_count_names_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1\n-1\n")
        with pytest.raises(ValueError, match="2"):
            load_trace(path)

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("1\nbogus\n")
        with pytest.raises(ValueError, match="2"):
            load_trace(path)

    def test_save_load_roundtrip(self, tmp_path):
        counts = diurnal_trace(500, rng=np.random.default_rng(7))
        path = tmp_path / "trace.txt"
        save_trace(counts, path)
        np.testing.assert_array_equal(load_trace(path).counts, counts)


class TestDiurnalTrace:
    def test_length_and_nonnegativity(self):
        counts = diurnal_trace(86400, rng=np.random.default_rng(8))
        assert counts.size == 86400
        assert counts.min() >= 0

    def test_two_peak_shape(self):
        # Mean arrivals: quiet night, a midday bump, and a taller evening peak.
        counts = diurnal_trace(86400, base_rate=0.3, peak_rate=4.0,
                               rng=np.random.default_rng(9)).astype(float)
        night = counts[: 86400 // 10].mean()
        midday = counts[int(0.30 * 86400) : int(0.40 * 86400)].mean()
        evening = counts[int(0.65 * 86400) : int(0.85 * 86400)].mean()
        assert night < midday < evening

    def test_deterministic_given_rng(self):
        a = diurnal_trace(1000, rng=np.random.default_rng(10))
        b = diurnal_trace(1000, rng=np.random.default_rng(10))
        np.testing.assert_array_equal(a, b)


class TestTargetBandwidth:
    def test_peak_shaving(self):
        assert target_bandwidth_from_peak(191007, 0.95) == pytest.approx(181456.65)

    def test_identity_fraction(self):
        assert target_bandwidth_from_peak(1234.5, 1.0) == 1234.5

    def test_half(self):
        assert target_bandwidth_from_peak(241004, 0.5) == 120502
