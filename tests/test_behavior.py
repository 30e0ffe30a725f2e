"""Unit and property tests for the departure-behavior model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodsim import behavior
from vodsim.behavior import (
    DepartureHistogram,
    DepartureModel,
    DepartureRates,
    ViewingRatioCdf,
    cdf_from_histogram,
    histogram_from_rates,
    load_histogram,
    phase_boundary,
    rates_from_histogram,
    sample_departure_slot,
    sample_departure_slots,
    save_histogram,
    synthetic_model,
)

histograms = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=40
).map(lambda xs: DepartureHistogram(np.array(xs) / np.sum(xs)))


class TestHistogramRatesConversion:
    def test_half_then_rest(self):
        r = rates_from_histogram(DepartureHistogram([0.5, 0.5]))
        np.testing.assert_allclose(r.p, [0.5, 1.0])

    def test_uniform_quarters(self):
        r = rates_from_histogram(DepartureHistogram([0.25] * 4))
        np.testing.assert_allclose(r.p, [0.25, 1 / 3, 0.5, 1.0])

    def test_single_bin(self):
        r = rates_from_histogram(DepartureHistogram([1.0]))
        np.testing.assert_allclose(r.p, [1.0])

    def test_forward_half(self):
        h = histogram_from_rates(DepartureRates([0.5, 1.0]))
        np.testing.assert_allclose(h.q, [0.5, 0.5])

    def test_forward_quarters(self):
        h = histogram_from_rates(DepartureRates([0.25, 1 / 3, 0.5, 1.0]))
        np.testing.assert_allclose(h.q, [0.25] * 4)

    def test_forward_no_early_departure(self):
        h = histogram_from_rates(DepartureRates([0.0, 0.0, 1.0]))
        np.testing.assert_allclose(h.q, [0.0, 0.0, 1.0])

    @given(histograms)
    @settings(max_examples=200)
    def test_roundtrip(self, h):
        back = histogram_from_rates(rates_from_histogram(h))
        assert np.abs(back.q - h.q).max() <= 1e-12

    def test_unreachable_slot_rate_is_zero(self):
        # All mass leaves in bin one; later bins are unreachable.
        r = rates_from_histogram(DepartureHistogram([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(r.p, [1.0, 0.0, 0.0])


class TestInvariantValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            DepartureHistogram([0.5, 0.4])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DepartureHistogram([1.2, -0.2])

    def test_rejects_nonterminal_hazard(self):
        with pytest.raises(ValueError):
            DepartureRates([0.2, 0.5])

    @pytest.mark.parametrize("p", [[-0.1, 1.0], [0.5, 1.5], [1.2]])
    def test_rejects_hazard_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"hazard rates must lie in \[0, 1\]"):
            DepartureRates(p)

    def test_clips_round_off_into_unit_interval(self):
        # ew_rates reads these entries unchecked, so they must lie in [0, 1].
        r = DepartureRates([-1e-13, 0.5, 1.0 + 1e-13])
        assert r.p.tolist() == [0.0, 0.5, 1.0]

    def test_rejects_decreasing_cdf(self):
        with pytest.raises(ValueError):
            ViewingRatioCdf([0.5, 0.4, 1.0])

    @given(histograms)
    @settings(max_examples=100)
    def test_cdf_monotone_terminal(self, h):
        c = cdf_from_histogram(h).cdf
        assert np.all(np.diff(c) >= -1e-12)
        assert abs(c[-1] - 1.0) <= 1e-9


class TestSampling:
    def test_inverse_transform(self):
        cdf = ViewingRatioCdf([0.25, 0.5, 0.75, 1.0])
        assert sample_departure_slot(cdf, 0.6) == 3

    def test_lowest_bin(self):
        cdf = ViewingRatioCdf([0.25, 0.5, 0.75, 1.0])
        assert sample_departure_slot(cdf, 0.0) == 1

    def test_single_bin(self):
        assert sample_departure_slot(ViewingRatioCdf([1.0]), 0.999) == 1

    def test_rejects_u_out_of_range(self):
        with pytest.raises(ValueError):
            sample_departure_slot(ViewingRatioCdf([1.0]), 1.0)

    def test_vectorized_matches_scalar(self):
        cdf = ViewingRatioCdf([0.1, 0.4, 0.9, 1.0])
        u = np.linspace(0.0, 0.999, 50)
        vec = sample_departure_slots(cdf, u)
        assert list(vec) == [sample_departure_slot(cdf, float(x)) for x in u]

    def test_empirical_frequencies(self):
        h = DepartureHistogram([0.1, 0.4, 0.3, 0.2])
        cdf = cdf_from_histogram(h)
        n = 10**5
        draws = sample_departure_slots(cdf, np.random.default_rng(99).random(n))
        counts = np.bincount(draws, minlength=5)[1:]
        stderr = np.sqrt(n * h.q * (1 - h.q))
        assert np.all(np.abs(counts - n * h.q) <= 3 * stderr)


class TestPhaseBoundary:
    def test_top_rates_cover_half(self):
        # Final slot (forced completion) is excluded from selection.
        assert phase_boundary(np.array([0.4, 0.3, 0.2, 0.1])).boundary_ratio == 0.5

    def test_single_dominant_rate(self):
        assert phase_boundary(np.array([0.9, 0.05, 0.05])).boundary_ratio == pytest.approx(1 / 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            phase_boundary(np.array([]))

    @given(
        st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2, max_size=20),
        st.floats(min_value=1.1, max_value=50.0),
    )
    @settings(max_examples=100)
    def test_scale_invariance(self, p, k):
        p = np.array(p)
        assert phase_boundary(p).boundary_ratio == phase_boundary(k * p).boundary_ratio


class TestSyntheticModel:
    def test_all_mass_on_completion(self):
        h = synthetic_model(4, browse_mass=0.0, browse_width=0.5, complete_mass=1.0)
        np.testing.assert_allclose(h.q, [0.0, 0.0, 0.0, 1.0])

    def test_construction_sums_to_one(self):
        h = synthetic_model(10, browse_mass=0.5, browse_width=0.15, complete_mass=0.2)
        assert abs(h.q.sum() - 1.0) <= 1e-9
        assert h.q[-1] >= 0.2

    def test_rejects_infeasible_mass(self):
        with pytest.raises(ValueError):
            synthetic_model(10, browse_mass=0.7, browse_width=0.2, complete_mass=0.5)

    def test_default_preset_calibration(self):
        model = DepartureModel.synthetic(L=300)
        assert model.mean_viewing_ratio == pytest.approx(0.5, abs=0.02)
        assert model.boundary.boundary_ratio == pytest.approx(0.15, abs=0.02)

    def test_browsing_prefix_decays(self):
        h = synthetic_model(300, 0.45, 0.15, 0.35)
        prefix = h.q[:45]
        assert np.all(np.diff(prefix) <= 1e-12)
        assert prefix[0] > prefix[-1]


class TestHazardLookup:
    # Positions as viewing ratios; the lookup takes them in slots of L = 50.
    RATIOS = [-0.5, 0.0, 0.004, 0.5, 0.999, 1.0, 1.7]

    def test_clamps_out_of_range_ratios(self):
        model = DepartureModel.synthetic(L=50)
        viewed = np.array(self.RATIOS) * 50
        idx = np.clip(viewed.astype(int), 0, 49)
        assert np.array_equal(model.hazard_at(viewed), model.rates.p[idx])

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_scalar_matches_array(self, ratio):
        model = DepartureModel.synthetic(L=50)
        viewed = ratio * 50
        assert model.hazard_at(viewed) == model.hazard_at(np.array([viewed]))[0]
        assert model.hazard_at(np.float64(viewed)) == model.hazard_at(np.array([viewed]))[0]

    @pytest.mark.parametrize("L", [50, 60, 300])
    def test_every_slot_reads_its_own_rate(self, L):
        # A viewing ratio k / L times L can round below k (k = 55 at L = 300),
        # so the lookup takes the slot count itself.
        model = DepartureModel.synthetic(L=L)
        viewed = np.arange(L, dtype=float)  # as the engine's playback row
        assert np.array_equal(model.hazard_at(viewed), model.rates.p)


class TestHistogramFileIO:
    def test_roundtrip(self, tmp_path):
        h = synthetic_model(50, 0.4, 0.2, 0.3)
        path = tmp_path / "hist.txt"
        save_histogram(h, path)
        back = load_histogram(path)
        np.testing.assert_allclose(back.q, h.q, atol=1e-12)

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "hist.txt"
        path.write_text("# header\n0,0.5\n1,0.5\n")
        np.testing.assert_allclose(load_histogram(path).q, [0.5, 0.5])

    def test_invalid_mass_rejected(self, tmp_path):
        path = tmp_path / "hist.txt"
        path.write_text("0,0.9\n1,0.9\n")
        with pytest.raises(ValueError):
            load_histogram(path)
