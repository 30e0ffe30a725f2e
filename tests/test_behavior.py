"""Unit and property tests for the departure-behavior model."""

import math

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

    @pytest.mark.parametrize("p", [[-0.1, 1.0], [0.5, 1.5], [1.2], [math.nan, 1.0]])
    def test_rejects_hazard_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match=r"hazard rates must lie in \[0, 1\]"):
            histogram_from_rates(p)

    # A range test written as `x < lo or x > hi` lets NaN through.
    @pytest.mark.parametrize("build, q", [(DepartureModel, [0.5, 0.5, math.nan]),
                                          (rates_from_histogram, [0.5, math.nan, 0.5])])
    def test_rejects_a_nan_bin(self, build, q):
        with pytest.raises(ValueError, match=r"bin probabilities must lie in \[0, 1\]"):
            build(q)

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


def _assert_sampling_is_the_search(model):
    """`sample_slots` equals `np.searchsorted(cdf, u, side="right") + 1` bit
    for bit, dtype included, at every cdf value, both float neighbours of
    each, 0.0 and the largest double below 1; for an array, for 0-d draws
    (a numpy integer, as the search gives) and for an empty array."""
    cdf = model.cdf
    u = np.concatenate((cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf),
                        [0.0, np.nextafter(1.0, 0.0)]))
    u = u[(u >= 0.0) & (u < 1.0)]
    want = np.searchsorted(cdf, u, side="right") + 1
    got = model.sample_slots(u)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # Every draw in a bucket that the search serves, and a few others, 0-d.
    wide = u[model._wide[(u * behavior.BUCKETS).astype(int)]]
    for x in [*wide[:20], *u[:: max(1, u.size // 20)]]:
        one, expected = model.sample_slots(x), np.searchsorted(cdf, x, side="right") + 1
        assert type(one) is type(expected) and one == expected
    empty = model.sample_slots(np.zeros(0))
    assert empty.shape == (0,) and empty.dtype == want.dtype


# Bin weights: zero runs, bins of 1e-7 (several cdf values in one bucket)
# and ordinary ones.
_weights = st.sampled_from([0.0, 1e-7, 1.0]) | st.floats(min_value=1e-9, max_value=1.0)


class TestSamplingIsExact:
    @pytest.mark.parametrize("q", [
        [1.0], [0.25] * 4, [0.3, 0.0, 0.0, 0.2, 0.0, 0.5],
        np.r_[np.full(1000, 1e-7), 1.0 - 1e-4], synthetic_model(300, 0.45, 0.15, 0.35),
    ], ids=["one bin", "four bins", "zero runs", "1e-7 bins", "synthetic L 300"])
    def test_named_histograms(self, q):
        model = DepartureModel(q)
        if len(q) in (6, 1001):
            assert model._wide.any()  # the searched path is taken
        _assert_sampling_is_the_search(model)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 4, 300]) | st.integers(1, 80), st.data())
    def test_random_histograms(self, L, data):
        w = np.array(data.draw(st.lists(_weights, min_size=L, max_size=L)))
        if not w.sum() > 0:
            w[-1] = 1.0
        _assert_sampling_is_the_search(DepartureModel(w / w.sum()))

    @pytest.mark.parametrize("u", [-0.1, 1.0, np.nan, [0.5, 1.5]])
    def test_rejects_draws_outside_the_unit_interval(self, u):
        with pytest.raises(ValueError, match=r"departure draws must lie in \[0, 1\)"):
            DepartureModel([0.25] * 4).sample_slots(u)


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

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="hazard rates must be nonnegative"):
            phase_boundary(np.array([math.nan, 0.5, 1.0]))

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

    @pytest.mark.parametrize("name, message", [
        ("browse_mass", "browse_mass must lie in [0, 1], got {}"),
        ("complete_mass", "complete_mass must lie in [0, 1], got {}"),
        ("browse_width", "browse_width must lie in (0, 1), got {}"),
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite_mass_and_width(self, name, message, value):
        args = dict(browse_mass=0.45, browse_width=0.15, complete_mass=0.35)
        args[name] = value
        with pytest.raises(ValueError) as exc:
            synthetic_model(300, **args)
        assert str(exc.value) == message.format(value)

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_probability_names_its_line(self, tmp_path, value):
        path = tmp_path / "hist.txt"
        path.write_text(f"0,0.5\n1,0.5\n2,{value}\n")
        with pytest.raises(ValueError, match=f"hist.txt:3: probability must be finite, got {value}"):
            load_histogram(path)

    def test_invalid_mass_rejected(self, tmp_path):
        path = tmp_path / "hist.txt"
        path.write_text("0,0.9\n1,0.9\n")
        with pytest.raises(ValueError, match=r"hist.txt: bin probabilities sum to 1.8, expected 1$"):
            load_histogram(path)

    @pytest.mark.parametrize("text, message", [
        ("0,1.5\n1,-0.5\n", r"hist.txt:1: probability must lie in \[0, 1\], got 1.5"),
        ("0,0.5\n1,-0.5\n2,1.0\n", r"hist.txt:2: probability must lie in \[0, 1\], got -0.5"),
        ("0,-1e-11\n1,1.0\n", r"hist.txt:1: probability must lie in \[0, 1\], got -1e-11"),
    ], ids=["above 1", "below 0", "past round-off"])
    def test_out_of_range_probability_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "hist.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            load_histogram(path)

    def test_round_off_outside_the_unit_range_still_loads(self, tmp_path):
        # Each row is checked with the tolerance the whole histogram is.
        path = tmp_path / "hist.txt"
        path.write_text("0,-1e-13\n1,1.0000000000001\n")
        np.testing.assert_array_equal(load_histogram(path), [0.0, 1.0])
