"""Tests for range estimation, the KL threshold scan, and grid-search calibration.

The scan and the grid search are checked against deliberately naive
reimplementations (plain loops, no shared helpers) so a bug in the fast path
cannot hide in its own oracle.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarptq.calib import (
    DEFAULT_BINS,
    CalibError,
    Histogram,
    SearchConfig,
    build_histogram,
    calibrate_layer,
    candidate_thresholds,
    entropy_threshold,
    grid_search_detail,
    grid_search_scale,
    histogram_fixed_range,
    kl_divergence,
    maxmin_range,
    merge_histograms,
)
from pillarptq.quant import EPS_SCALE, QuantParams, fake_quant, scale_from_range


# -- naive references -----------------------------------------------------------------


def naive_kl(p, q) -> float:
    total = 0.0
    for pi, qi in zip(p, q):
        if pi > 0:
            if qi == 0:
                return float("inf")
            total += pi * math.log(pi / qi)
    return total


def naive_entropy_best_bin(counts, bits: int) -> int:
    """Plain-loop KL scan; returns the winning clip bin index."""
    levels = 2 ** (bits - 1)
    n = len(counts)
    best_i, best_kl = -1, float("inf")
    for i in range(levels, n):
        ref = [float(c) for c in counts[:i]]
        ref[i - 1] += float(sum(counts[i:]))
        tot = sum(ref)
        ref = [v / tot for v in ref]

        group_sum = [0.0] * levels
        group_n = [0] * levels
        for j in range(i):
            g = min(j * levels // i, levels - 1)
            group_sum[g] += float(counts[j])
            group_n[g] += 1
        coarse = [s / max(c, 1) for s, c in zip(group_sum, group_n)]
        centers = [(j + 0.5) / i for j in range(i)]
        level_pos = [(g + 0.5) / levels for g in range(levels)]
        cand = list(np.interp(centers, level_pos, coarse))
        cand = [
            1e-10 if (c == 0 and r > 0) else c for c, r in zip(cand, ref)
        ]
        tot = sum(cand)
        cand = [c / tot for c in cand] if tot > 0 else [1.0 / i] * i

        kl = naive_kl(ref, cand)
        if kl < best_kl:
            best_kl, best_i = kl, i
    return best_i


def naive_grid_search(x: np.ndarray, bits: int, cfg: SearchConfig):
    """Sweep every candidate threshold, lowest MSE wins, ties to larger t."""
    x = np.asarray(x, dtype=np.float64)
    t_max = float(np.abs(x).max())
    raw = np.append(np.linspace(cfg.alpha * t_max, cfg.beta * t_max, cfg.T), t_max)
    q_min, q_max = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    best_t, best_s, best_mse = None, None, None
    for t in np.unique(raw):
        s = (t - (-t)) / (2**bits - 1)
        r = x / s
        q = np.clip(np.floor(np.abs(r) + 0.5) * np.where(r < 0, -1.0, 1.0), q_min, q_max)
        mse = float(np.mean((x - q * s) ** 2))
        if best_mse is None or mse < best_mse or (mse == best_mse and t > best_t):
            best_t, best_s, best_mse = float(t), float(s), mse
    return best_t, best_s, best_mse


# -- histograms -----------------------------------------------------------------------


class TestHistogram:
    def test_counts_coerced_to_int64(self):
        h = Histogram(np.array([1, 2, 3]), bin_width=0.5)
        assert h.bin_counts.dtype == np.int64
        assert h.n_bins == 3 and h.total == 6

    @pytest.mark.parametrize(
        "counts,width",
        [([1], 0.5), ([[1, 2]], 0.5), ([1, -2], 0.5), ([1, 2], 0.0)],
    )
    def test_rejects_malformed(self, counts, width):
        with pytest.raises(CalibError):
            Histogram(np.array(counts), bin_width=width)

    def test_build_covers_all_samples(self, rng):
        x = rng.normal(size=5000)
        h = build_histogram(x, n_bins=64)
        assert h.total == x.size  # right-inclusive last bin keeps max|x|
        assert h.bin_width == pytest.approx(np.abs(x).max() / 64)

    def test_build_rejects_all_zero(self):
        with pytest.raises(CalibError):
            build_histogram(np.zeros(100))

    def test_default_bin_count(self):
        assert DEFAULT_BINS == 2048

    def test_merge_equals_histogram_of_concatenation(self, rng):
        a, b = rng.normal(size=300), rng.normal(size=200)
        hi = float(max(np.abs(a).max(), np.abs(b).max()))
        merged = merge_histograms(
            histogram_fixed_range(a, 32, hi), histogram_fixed_range(b, 32, hi)
        )
        whole = histogram_fixed_range(np.concatenate([a, b]), 32, hi)
        np.testing.assert_array_equal(merged.bin_counts, whole.bin_counts)

    def test_merge_rejects_mismatched_geometry(self):
        a = histogram_fixed_range(np.ones(10), 16, 2.0)
        b = histogram_fixed_range(np.ones(10), 16, 3.0)
        with pytest.raises(CalibError):
            merge_histograms(a, b)


# -- range estimators -----------------------------------------------------------------


class TestMaxminRange:
    def test_symmetric_cover(self):
        lo, hi = maxmin_range(np.array([-3.0, 2.0, 0.5]))
        assert (lo, hi) == (-3.0, 3.0)

    def test_zero_tensor_gets_epsilon_range(self):
        lo, hi = maxmin_range(np.zeros(5))
        assert (lo, hi) == (-EPS_SCALE, EPS_SCALE)

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(CalibError):
            maxmin_range(np.array([]))
        with pytest.raises(CalibError):
            maxmin_range(np.array([1.0, np.inf]))


# -- KL divergence --------------------------------------------------------------------


class TestKLDivergence:
    def test_zero_for_identical_distributions(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_matches_naive_sum(self, rng):
        p = rng.random(50)
        q = rng.random(50)
        p, q = p / p.sum(), q / q.sum()
        assert kl_divergence(p, q) == pytest.approx(naive_kl(p, q), rel=1e-12)

    def test_zero_p_bins_contribute_nothing(self):
        p = np.array([0.0, 1.0])
        q = np.array([0.5, 0.5])
        assert kl_divergence(p, q) == pytest.approx(math.log(2.0))

    def test_infinite_when_q_misses_p_mass(self):
        assert kl_divergence(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    def test_shape_mismatch_raises(self):
        with pytest.raises(CalibError):
            kl_divergence(np.ones(3), np.ones(4))


# -- KL threshold scan ----------------------------------------------------------------


class TestEntropyThreshold:
    def test_matches_naive_scan_on_random_histograms(self, rng):
        for bins in (200, 400):
            counts = rng.integers(0, 50, size=bins)
            counts[: bins // 4] += rng.integers(50, 200, size=bins // 4)
            h = Histogram(counts, bin_width=0.01)
            res = entropy_threshold(h, bits=8)
            want_i = naive_entropy_best_bin(list(counts), bits=8)
            assert res.threshold == pytest.approx((want_i + 0.5) * 0.01, rel=1e-12)
            assert not res.fallback

    def test_outlier_tail_is_clipped(self, rng):
        x = np.concatenate([np.abs(rng.normal(0, 1, 20000)), [40.0]])
        h = build_histogram(x, n_bins=512)
        res = entropy_threshold(h, bits=8)
        assert res.threshold < 40.0 * 0.5  # far below the lone outlier
        assert res.quant_range == (-res.threshold, res.threshold)

    def test_single_low_bin_falls_back_to_cover(self):
        counts = np.zeros(300, dtype=np.int64)
        counts[3] = 1000
        h = Histogram(counts, bin_width=0.1)
        res = entropy_threshold(h, bits=8)
        assert res.fallback
        assert res.threshold == pytest.approx(0.4)  # right edge of the hot bin

    def test_rejects_too_few_bins(self):
        with pytest.raises(CalibError):
            entropy_threshold(Histogram(np.ones(100), bin_width=0.1), bits=8)

    def test_rejects_empty_histogram(self):
        with pytest.raises(CalibError):
            entropy_threshold(Histogram(np.zeros(300), bin_width=0.1), bits=8)


# -- candidate sweeps -----------------------------------------------------------------


class TestCandidateSweeps:
    def test_linear_sweep_contains_endpoints_and_t_max(self):
        cfg = SearchConfig(T=10, alpha=0.1, beta=1.2)
        t = candidate_thresholds(5.0, cfg)
        assert np.all(np.diff(t) > 0)
        for v in (0.5, 6.0, 5.0):
            assert np.isclose(t, v).any()
        assert len(t) <= cfg.T + 1

    def test_single_point_sweep(self):
        t = candidate_thresholds(2.0, SearchConfig(T=1, alpha=0.5, beta=1.0))
        np.testing.assert_allclose(t, [1.0, 2.0])

    @pytest.mark.parametrize("kw", [{"T": 0}, {"alpha": 0.0}, {"alpha": 2.0, "beta": 1.0}])
    def test_config_validation(self, kw):
        with pytest.raises(CalibError):
            SearchConfig(**kw)


# -- grid search ----------------------------------------------------------------------


class TestGridSearch:
    def test_matches_naive_sweep_bitwise(self, rng):
        cfg = SearchConfig(T=40)
        for _ in range(10):
            x = rng.normal(0, 1, size=4000) * rng.choice([0.1, 1.0, 10.0])
            if rng.random() < 0.5:
                x[rng.integers(0, x.size, 3)] *= 20.0  # inject outliers
            info = grid_search_detail(x, bits=8, cfg=cfg)
            want_t, want_s, want_mse = naive_grid_search(x, 8, cfg)
            assert info.threshold == want_t
            assert info.params.scale == want_s
            assert info.mse == want_mse

    def test_never_worse_than_full_range(self, rng):
        x = rng.standard_t(3, size=3000)
        info = grid_search_detail(x, bits=8)
        assert info.mse <= info.maxmin_mse
        assert not info.degenerate

    def test_heavy_tails_pull_threshold_inward(self, rng):
        # the squared clip penalty keeps rare lone spikes covered, but a
        # spread-out tail makes some clipping worth the resolution gain
        x = rng.standard_t(2, size=20000)
        info = grid_search_detail(x, bits=8)
        assert info.threshold < float(np.abs(x).max())
        assert info.mse < info.maxmin_mse

    def test_zero_tensor_is_degenerate(self):
        info = grid_search_detail(np.zeros(10))
        assert info.degenerate
        assert info.params.scale == EPS_SCALE

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(CalibError):
            grid_search_scale(np.array([]))
        with pytest.raises(CalibError):
            grid_search_scale(np.array([np.nan]))

    @settings(max_examples=50, deadline=None)
    @given(data=st.lists(st.floats(-100, 100), min_size=8, max_size=64), t_seed=st.integers(0, 10))
    def test_property_grid_beats_or_ties_maxmin(self, data, t_seed):
        x = np.asarray(data)
        if np.abs(x).max() == 0:
            return
        info = grid_search_detail(x, bits=8, cfg=SearchConfig(T=10 + t_seed))
        assert info.mse <= info.maxmin_mse + 1e-18


# -- per-layer dispatch ---------------------------------------------------------------


class TestCalibrateLayer:
    def test_maxmin_scales_are_closed_form(self, rng):
        acts = [rng.normal(0, 1, (4, 8, 8)) for _ in range(3)]
        w = rng.normal(0, 0.2, (8, 4, 3, 3))
        a_max = max(float(np.abs(a).max()) for a in acts)
        res = calibrate_layer(acts, w, method="maxmin")
        assert res.a_params.scale == scale_from_range(-a_max, a_max, 8)
        assert res.w_params.scale == scale_from_range(
            -np.abs(w).max(), np.abs(w).max(), 8
        )
        assert not res.entropy_fallback

    def test_entropy_clips_tighter_than_maxmin_on_outliers(self, rng):
        core = np.abs(rng.normal(0, 1, (2, 40000)))
        acts = [core[0], np.concatenate([core[1], [60.0]])]
        res_mm = calibrate_layer(acts, rng.normal(size=(4, 4, 1, 1)), method="maxmin")
        res_en = calibrate_layer(acts, rng.normal(size=(4, 4, 1, 1)), method="entropy")
        assert res_en.a_params.scale < 0.25 * res_mm.a_params.scale

    def test_entropy_ignores_exact_zeros(self, rng):
        base = np.abs(rng.normal(0, 1, 30000)) + 0.05
        padded = np.concatenate([base, np.zeros(300000)])
        r1 = calibrate_layer([base], rng.normal(size=(2, 2, 1, 1)), method="entropy")
        r2 = calibrate_layer([padded], rng.normal(size=(2, 2, 1, 1)), method="entropy")
        assert r1.a_params.scale == pytest.approx(r2.a_params.scale, rel=1e-12)

    def test_all_zero_activations(self):
        w = np.ones((2, 2, 1, 1))
        res = calibrate_layer([np.zeros((1, 8))], w, method="entropy")
        assert res.entropy_fallback
        assert res.a_params.scale == EPS_SCALE
        res = calibrate_layer([np.zeros((1, 8))], w, method="maxmin")
        assert res.a_params.scale == scale_from_range(-EPS_SCALE, EPS_SCALE, 8)

    def test_grid_method_refines_both_tensors(self, rng):
        acts = [rng.standard_t(2, 30000)]
        w = rng.standard_t(2, (32, 16, 3, 3)) * 0.1
        res = calibrate_layer(acts, w, method="maxmin_grid")
        mm = calibrate_layer(acts, w, method="maxmin")
        assert res.a_params.scale < mm.a_params.scale
        assert res.w_params.scale < mm.w_params.scale
        assert res.a_mse <= res.a_maxmin_mse

    def test_reported_mse_matches_direct_computation(self, rng):
        acts = [rng.normal(0, 1, 5000)]
        res = calibrate_layer(acts, rng.normal(size=(2, 2, 1, 1)), method="maxmin")
        err = acts[0] - fake_quant(acts[0], res.a_params)
        assert res.a_mse == pytest.approx(float(np.mean(err**2)), rel=1e-12)

    def test_unknown_method_rejected(self):
        with pytest.raises(CalibError):
            calibrate_layer([np.ones(4)], np.ones((1, 1, 1, 1)), method="percentile")

    def test_empty_calibration_set_rejected(self):
        with pytest.raises(CalibError):
            calibrate_layer([], np.ones((1, 1, 1, 1)), method="maxmin")
