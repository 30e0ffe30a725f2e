"""Unit and property tests for the departure-behavior model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vodsim import behavior
from vodsim.behavior import (
    BROWSE_HAZARD_SHARE,
    DepartureModel,
    histogram_from_rates,
    load_histogram,
    phase_boundary,
    rates_from_histogram,
    save_histogram,
    synthetic_model,
)

histograms = st.lists(
    st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=40
).map(lambda xs: np.array(xs) / np.sum(xs))


class TestHistogramRatesConversion:
    def test_half_then_rest(self):
        np.testing.assert_allclose(rates_from_histogram([0.5, 0.5]), [0.5, 1.0])

    def test_uniform_quarters(self):
        np.testing.assert_allclose(rates_from_histogram([0.25] * 4), [0.25, 1 / 3, 0.5, 1.0])

    def test_single_bin(self):
        np.testing.assert_allclose(rates_from_histogram([1.0]), [1.0])

    def test_forward_half(self):
        np.testing.assert_allclose(histogram_from_rates([0.5, 1.0]), [0.5, 0.5])

    def test_forward_quarters(self):
        np.testing.assert_allclose(histogram_from_rates([0.25, 1 / 3, 0.5, 1.0]), [0.25] * 4)

    def test_forward_no_early_departure(self):
        np.testing.assert_allclose(histogram_from_rates([0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])

    @given(histograms)
    @settings(max_examples=200)
    def test_roundtrip(self, q):
        back = histogram_from_rates(rates_from_histogram(q))
        assert np.abs(back - q).max() <= 1e-12

    def test_unreachable_slot_rate_is_zero(self):
        # All mass leaves in bin one; later bins are unreachable.
        np.testing.assert_allclose(rates_from_histogram([1.0, 0.0, 0.0]), [1.0, 0.0, 0.0])


class TestInvariantValidation:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to"):
            DepartureModel([0.5, 0.4])

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError, match=r"bin probabilities must lie in \[0, 1\]"):
            DepartureModel([1.2, -0.2])

    def test_rejects_nonterminal_hazard(self):
        with pytest.raises(ValueError, match="final-slot hazard must be 1"):
            histogram_from_rates([0.2, 0.5])

    @pytest.mark.parametrize("p", [[-0.1, 1.0], [0.5, 1.5], [1.2]])
    def test_rejects_hazard_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"hazard rates must lie in \[0, 1\]"):
            histogram_from_rates(p)

    def test_clips_round_off_into_unit_interval(self):
        # ew_rates reads the model's p unchecked, so it must lie in [0, 1].
        assert behavior._rates([-1e-13, 0.5, 1.0 + 1e-13]).tolist() == [0.0, 0.5, 1.0]

    def test_model_arrays_are_read_only(self):
        # ew reads p unchecked, so no caller may write into a model's arrays.
        model = DepartureModel.synthetic(L=20)
        for a in (model.q, model.p, model.cdf):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.5

    @given(histograms)
    @settings(max_examples=100)
    def test_cdf_monotone_terminal(self, q):
        c = DepartureModel(q).cdf
        assert np.all(np.diff(c) >= -1e-12)
        assert abs(c[-1] - 1.0) <= 1e-9


class TestSampling:
    def test_inverse_transform(self):
        assert DepartureModel([0.25] * 4).sample_slots([0.6]).tolist() == [3]

    def test_lowest_bin(self):
        assert DepartureModel([0.25] * 4).sample_slots([0.0]).tolist() == [1]

    def test_single_bin(self):
        assert DepartureModel([1.0]).sample_slots([0.999]).tolist() == [1]

    def test_vectorized_matches_scalar(self):
        # Each draw is the smallest 1-based t with u < cdf[t - 1].
        model = DepartureModel([0.1, 0.3, 0.5, 0.1])
        u = np.linspace(0.0, 0.999, 50)
        expected = [next(t for t, c in enumerate(model.cdf, start=1) if x < c) for x in u]
        assert model.sample_slots(u).tolist() == expected

    def test_empirical_frequencies(self):
        q = np.array([0.1, 0.4, 0.3, 0.2])
        n = 10**5
        draws = DepartureModel(q).sample_slots(np.random.default_rng(99).random(n))
        counts = np.bincount(draws, minlength=5)[1:]
        stderr = np.sqrt(n * q * (1 - q))
        assert np.all(np.abs(counts - n * q) <= 3 * stderr)


def _browse_slots_oracle(p):
    """phase_boundary by its definition, in plain Python."""
    candidates = [float(x) for x in p[:-1]]
    total = sum(candidates)
    if total <= 0.0:
        return 0
    covered, last = 0.0, -1
    for t in sorted(range(len(candidates)), key=lambda t: (-candidates[t], t)):
        covered += candidates[t]
        last = max(last, t)
        if covered >= BROWSE_HAZARD_SHARE * total - 1e-12:
            break
    return last + 1


class TestBrowseSlots:
    def test_top_rates_cover_half(self):
        # Final slot (forced completion) is excluded from selection.
        assert phase_boundary(np.array([0.4, 0.3, 0.2, 0.1])) == 2

    def test_single_dominant_rate(self):
        assert phase_boundary(np.array([0.9, 0.05, 0.05])) == 1

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
        assert phase_boundary(p) == phase_boundary(k * p)

    @given(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0])
                    | st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
    @settings(max_examples=300)
    def test_matches_oracle(self, p):
        # Ties, zero hazards and an empty candidate set included.
        assert phase_boundary(np.array(p)) == _browse_slots_oracle(p)


class TestSyntheticModel:
    def test_all_mass_on_completion(self):
        q = synthetic_model(4, browse_mass=0.0, browse_width=0.5, complete_mass=1.0)
        np.testing.assert_allclose(q, [0.0, 0.0, 0.0, 1.0])

    def test_construction_sums_to_one(self):
        q = synthetic_model(10, browse_mass=0.5, browse_width=0.15, complete_mass=0.2)
        assert abs(q.sum() - 1.0) <= 1e-9
        assert q[-1] >= 0.2

    def test_rejects_infeasible_mass(self):
        with pytest.raises(ValueError):
            synthetic_model(10, browse_mass=0.7, browse_width=0.2, complete_mass=0.5)

    def test_default_preset_calibration(self):
        model = DepartureModel.synthetic(L=300)
        assert model.mean_viewing_ratio == pytest.approx(0.5, abs=0.02)
        assert model.browse_slots / model.slots == pytest.approx(0.15, abs=0.02)

    def test_browsing_prefix_decays(self):
        q = synthetic_model(300, 0.45, 0.15, 0.35)
        prefix = q[:45]
        assert np.all(np.diff(prefix) <= 1e-12)
        assert prefix[0] > prefix[-1]


class TestHazardLookup:
    # Positions as viewing ratios; the lookup takes them in slots of L = 50.
    RATIOS = [0.0, 0.004, 0.5, 0.999]

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
        assert np.array_equal(model.hazard_at(viewed), model.p)


class TestHistogramFileIO:
    def test_roundtrip(self, tmp_path):
        q = synthetic_model(50, 0.4, 0.2, 0.3)
        path = tmp_path / "hist.txt"
        save_histogram(q, path)
        np.testing.assert_allclose(load_histogram(path), q, atol=1e-12)

    def test_comments_allowed(self, tmp_path):
        path = tmp_path / "hist.txt"
        path.write_text("# header\n0,0.5\n1,0.5\n")
        np.testing.assert_allclose(load_histogram(path), [0.5, 0.5])

    def test_invalid_mass_rejected(self, tmp_path):
        path = tmp_path / "hist.txt"
        path.write_text("0,0.9\n1,0.9\n")
        with pytest.raises(ValueError):
            load_histogram(path)
