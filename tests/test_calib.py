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

from pillarptq import calib
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
    kl_divergence,
)
from pillarptq.quant import EPS_SCALE, QuantParams, clip_scale, fake_quant


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


def brute_force_grid_search(x: np.ndarray, bits: int, cfg: SearchConfig):
    """One fake_quant pass over the whole tensor per candidate; returns the
    threshold, scale and MSE of the best candidate and the max-min MSE."""
    x = np.asarray(x, dtype=np.float64)
    t_max = float(np.abs(x).max())
    mse_of = {}
    best = None
    for t in candidate_thresholds(t_max, cfg):
        s = clip_scale(t, bits)
        err = x - fake_quant(x, QuantParams(s, bits))
        mse_of[s] = float(np.mean(err * err))
        if best is None or mse_of[s] < best[2] or (mse_of[s] == best[2] and t > best[0]):
            best = (float(t), s, mse_of[s])
    return best + (mse_of[clip_scale(t_max, bits)],)


def searched_mses(x: np.ndarray, info):
    """The MSEs of a grid search's grid and of the max-min grid over x, scored
    as `calibrate_layer` scores them."""
    x = np.asarray(x, dtype=np.float64)
    bits = info.params.bits
    maxmin = QuantParams(clip_scale(float(np.abs(x).max()), bits), bits)
    return calib._direct_mse(x, info.params), calib._direct_mse(x, maxmin)


def scatter_direct_mse(x: np.ndarray, nonzero: np.ndarray, p: QuantParams) -> float:
    """The grid search's scorer before it scored in one buffer: fake_quant
    over the entries `nonzero` marks, their errors scattered into zeros."""
    err = np.zeros_like(x)
    values = x[nonzero]
    err[nonzero] = values - fake_quant(values, p)
    return float(np.mean(err * err))


@st.composite
def scorer_inputs(draw):
    """A float64 tensor with +0.0 and -0.0, exact half-level ties and values
    clamped at either end, on a grid of 4, 8 or 12 bits."""
    p = QuantParams(draw(st.floats(1e-6, 1e3)), draw(st.sampled_from([4, 8, 12])))
    top = (1 << (p.bits - 1)) + 3
    x = [p.scale * draw(st.sampled_from([-top, top]))]
    x += [p.scale * v for v in draw(st.lists(st.floats(-top, top), max_size=60))]
    x += [(k + 0.5) * p.scale for k in draw(st.lists(st.integers(-top, top), max_size=20))]
    x += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=10))
    x = np.asarray(draw(st.permutations(x)), dtype=np.float64)
    return (x.reshape(2, -1) if x.size % 2 == 0 else x), p


@st.composite
def grid_inputs(draw):
    """Tensors with exact zeros of both signs, duplicates, exact half-level
    ties of one candidate's scale, and (when all-negative) values at the
    -2^(bits-1) clamp, which only the negative side reaches."""
    bits = draw(st.sampled_from([2, 3, 8, 16]))
    cfg = SearchConfig(
        T=draw(st.integers(1, 30)),
        alpha=draw(st.sampled_from([0.01, 0.3, 1.0])),
        beta=draw(st.sampled_from([1.0, 1.2])),
    )
    t_max = draw(st.floats(1e-6, 1e3))
    x = [t_max * draw(st.sampled_from([1.0, -1.0]))]
    x += [t_max * v for v in draw(st.lists(st.floats(-1.0, 1.0), max_size=40))]
    scales = [clip_scale(t, bits) for t in candidate_thresholds(t_max, cfg)]
    s = scales[draw(st.integers(0, len(scales) - 1))]
    top = (1 << (bits - 1)) + 2
    ties = ((k + 0.5) * s for k in draw(st.lists(st.integers(-top, top), max_size=20)))
    x += [v for v in ties if abs(v) <= t_max]
    x += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=10))
    if draw(st.booleans()):
        x = [-abs(v) for v in x]
    x = np.asarray(x * draw(st.sampled_from([1, 8, 100])))
    return x.astype(draw(st.sampled_from([np.float64, np.float32]))), bits, cfg


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
        # per-batch histograms over the pooled range add up to the one
        # histogram entropy calibration builds over the pooled values
        a, b = rng.normal(size=300), rng.normal(size=200)
        whole = build_histogram(np.concatenate([a, b]), 32)
        hi = float(max(np.abs(a).max(), np.abs(b).max()))
        parts = [np.histogram(np.abs(v), bins=32, range=(0.0, hi))[0] for v in (a, b)]
        np.testing.assert_array_equal(parts[0] + parts[1], whole.bin_counts)


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
            assert searched_mses(x, info)[0] == want_mse

    def test_never_worse_than_full_range(self, rng):
        x = rng.standard_t(3, size=3000)
        info = grid_search_detail(x, bits=8)
        mse, maxmin_mse = searched_mses(x, info)
        assert mse <= maxmin_mse
        assert info.threshold > 0.0

    def test_heavy_tails_pull_threshold_inward(self, rng):
        # the squared clip penalty keeps rare lone spikes covered, but a
        # spread-out tail makes some clipping worth the resolution gain
        x = rng.standard_t(2, size=20000)
        info = grid_search_detail(x, bits=8)
        assert info.threshold < float(np.abs(x).max())
        mse, maxmin_mse = searched_mses(x, info)
        assert mse < maxmin_mse

    def test_zero_tensor_is_degenerate(self):
        # it clips at 0, and the grid that clips at 0 has EPS_SCALE
        info = grid_search_detail(np.zeros(10))
        assert info.threshold == 0.0
        assert info.params.scale == EPS_SCALE

    def test_rejects_empty_and_non_finite(self):
        with pytest.raises(CalibError):
            grid_search_detail(np.array([]))
        with pytest.raises(CalibError):
            grid_search_detail(np.array([np.nan]))

    @settings(max_examples=300, deadline=None)
    @given(case=grid_inputs())
    def test_property_matches_brute_force_bitwise(self, case):
        x, bits, cfg = case
        info = grid_search_detail(x, bits=bits, cfg=cfg)
        want_t, want_s, want_mse, want_maxmin = brute_force_grid_search(x, bits, cfg)
        assert info.threshold == want_t
        assert info.params == QuantParams(want_s, bits)
        assert searched_mses(x, info) == (want_mse, want_maxmin)

    @pytest.mark.parametrize("bits", [8, 32])
    def test_scores_few_candidates_in_full(self, rng, monkeypatch, bits):
        # At 8 bits the sorted sweep rules out all but a handful of the 101
        # candidates; at 32 bits a level sweep would cost more than a direct
        # pass, so each candidate is scored directly and no 2^31-level array
        # is built. Each scored scale is one scorer call on the whole tensor.
        x = np.maximum(rng.normal(size=20000), 0.0)
        cfg = SearchConfig(T=100)
        calls = []
        scorer = calib._direct_mse

        def counting(values, p):
            calls.append((values, p.scale))
            return scorer(values, p)

        monkeypatch.setattr(calib, "_direct_mse", counting)
        info = grid_search_detail(x, bits=bits, cfg=cfg)
        monkeypatch.setattr(calib, "_direct_mse", scorer)
        want_t, want_s, want_mse, want_maxmin = brute_force_grid_search(x, bits, cfg)
        assert (info.threshold, info.params.scale) == (want_t, want_s)
        assert searched_mses(x, info) == (want_mse, want_maxmin)
        for values, _ in calls:
            assert values is calls[0][0]
            np.testing.assert_array_equal(values, x)
        scales = [s for _, s in calls]
        assert len(set(scales)) == len(scales)  # no scale is scored twice
        if bits == 8:
            assert len(calls) <= 4
        else:
            t_max = float(x.max())
            assert sorted(scales) == sorted(
                {clip_scale(t, bits) for t in candidate_thresholds(t_max, cfg)}
            )

    def test_scores_nothing_when_the_shortlist_holds_one_candidate(self, rng, monkeypatch):
        # the ranking leaves one candidate here, so the formula never runs
        x = np.maximum(rng.normal(size=20000), 0.0)
        cfg, calls = SearchConfig(T=20), []
        scales = [clip_scale(t, 8) for t in candidate_thresholds(float(x.max()), cfg)]
        assert len(calib._shortlist(x[x != 0.0], scales, 8)) == 1
        monkeypatch.setattr(calib, "_direct_mse", lambda values, p: calls.append(p.scale))
        info = grid_search_detail(x, bits=8, cfg=cfg)
        assert calls == []
        assert info.params.scale == brute_force_grid_search(x, 8, cfg)[1]

    @settings(max_examples=50, deadline=None)
    @given(data=st.lists(st.floats(-100, 100), min_size=8, max_size=64), t_seed=st.integers(0, 10))
    def test_property_grid_beats_or_ties_maxmin(self, data, t_seed):
        x = np.asarray(data)
        if np.abs(x).max() == 0:
            return
        info = grid_search_detail(x, bits=8, cfg=SearchConfig(T=10 + t_seed))
        mse, maxmin_mse = searched_mses(x, info)
        assert mse <= maxmin_mse + 1e-18


class TestDirectMse:
    @settings(max_examples=300, deadline=None)
    @given(case=scorer_inputs())
    def test_property_matches_the_gather_scatter_scorer_bitwise(self, case):
        x, p = case
        before = x.tobytes()
        got = calib._direct_mse(x, p)
        assert x.tobytes() == before
        assert got == scatter_direct_mse(x, x != 0.0, p)
        err = x - fake_quant(x, p)
        assert got == float(np.mean(err * err))


# -- per-layer dispatch ---------------------------------------------------------------


class TestCalibrateLayer:
    def test_maxmin_scales_are_closed_form(self, rng):
        acts = [rng.normal(0, 1, (4, 8, 8)) for _ in range(3)]
        w = rng.normal(0, 0.2, (8, 4, 3, 3))
        a_max = max(float(np.abs(a).max()) for a in acts)
        res = calibrate_layer(acts, w, method="maxmin")
        assert res.a_params.scale == clip_scale(a_max, 8)
        assert res.w_params.scale == clip_scale(np.abs(w).max(), 8)
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

    @settings(max_examples=100, deadline=None)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        sizes=st.lists(st.integers(0, 400), min_size=1, max_size=4),
        zero_frac=st.sampled_from([0.0, 0.5, 0.95]),
        n_bins=st.sampled_from([160, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_entropy_pools_like_per_batch_histograms(
        self, dtype, sizes, zero_frac, n_bins, seed
    ):
        # reference: one histogram per batch over the shared [0, a_max],
        # summed, as entropy calibration used to build it
        r = np.random.default_rng(seed)
        acts = [
            (np.maximum(r.standard_t(3, n), 0.0) * (r.uniform(size=n) >= zero_frac)).astype(dtype)
            for n in sizes
        ]
        acts[-1] = np.append(acts[-1], dtype(r.uniform(0.5, 20.0)))  # a nonzero somewhere
        res = calibrate_layer(acts, np.ones((1, 1, 1, 1)), method="entropy", n_bins=n_bins)
        a_max = max(float(np.abs(a).max()) if a.size else 0.0 for a in acts)
        counts, width = np.zeros(n_bins, np.int64), None
        for a in acts:
            nz = a[a != 0.0]
            if nz.size:
                c, edges = np.histogram(np.abs(nz), bins=n_bins, range=(0.0, a_max))
                counts += c
                width = float(edges[1] - edges[0])
        want = entropy_threshold(Histogram(counts, width), bits=8)
        assert res.entropy_fallback == want.fallback
        assert res.a_params == QuantParams(clip_scale(want.threshold, 8), 8)

    def test_all_zero_activations(self):
        w = np.ones((2, 2, 1, 1))
        res = calibrate_layer([np.zeros((1, 8))], w, method="entropy")
        assert res.entropy_fallback
        assert res.a_params.scale == EPS_SCALE
        res = calibrate_layer([np.zeros((1, 8))], w, method="maxmin")
        assert res.a_params.scale == EPS_SCALE

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

    @pytest.mark.parametrize("method", ["maxmin", "entropy", "maxmin_grid"])
    def test_reported_mses_are_the_whole_tensor_formula(self, rng, method):
        acts = [np.maximum(rng.normal(0, 1, (4, 30, 30)), 0.0).astype(np.float32) for _ in range(2)]
        w = rng.normal(size=(2, 4, 3, 3))
        res = calibrate_layer(acts, w, method=method, cfg=SearchConfig(T=20))
        pooled = np.concatenate([a.ravel() for a in acts]).astype(np.float64)
        a_max = float(np.abs(pooled).max())

        def mse(p):
            err = pooled - fake_quant(pooled, p)
            return float(np.mean(err * err))

        assert res.a_mse == mse(res.a_params)
        assert res.a_maxmin_mse == mse(QuantParams(clip_scale(a_max, 8)))

    @pytest.mark.parametrize(
        "method,error",
        [("maxmin", CalibError), ("entropy", CalibError), ("maxmin_grid", CalibError)],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_activations_raise(self, method, error, bad):
        # the pooled tensor is checked once, whichever batch holds the value,
        # and every method raises the same error
        w = np.ones((2, 2, 1, 1))
        for acts in (
            [np.array([1.0, bad, 2.0])],
            [np.array([1.0, 2.0], np.float32), np.array([bad, 0.5], np.float32)],
            [np.zeros(3), np.array([bad, 0.5])],
        ):
            with pytest.raises(error):
                calibrate_layer(acts, w, method=method)

    @pytest.mark.parametrize("method", calib.METHODS)
    @pytest.mark.parametrize("tensor", ["activations", "weights"])
    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf, -np.inf])
    def test_one_edge_case_rule_for_every_method(self, rng, method, tensor, value):
        # an all-zero tensor gets EPS_SCALE (all-zero activations, MSEs of
        # 0.0); a non-finite entry in either tensor raises CalibError
        acts, w = np.abs(rng.normal(size=(4, 50))), rng.normal(size=(2, 2, 3, 3))
        x = acts if tensor == "activations" else w
        if value == 0.0:
            x[...] = 0.0
        else:
            x.flat[7] = value
            with pytest.raises(CalibError):
                calibrate_layer([acts], w, method=method)
            return
        res = calibrate_layer([acts], w, method=method)
        if tensor == "weights":
            assert res.w_params.scale == EPS_SCALE
        else:
            assert res.a_params.scale == EPS_SCALE
            assert (res.a_mse, res.a_maxmin_mse) == (0.0, 0.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(CalibError):
            calibrate_layer([np.ones(4)], np.ones((1, 1, 1, 1)), method="percentile")

    def test_empty_calibration_set_rejected(self):
        with pytest.raises(CalibError):
            calibrate_layer([], np.ones((1, 1, 1, 1)), method="maxmin")
