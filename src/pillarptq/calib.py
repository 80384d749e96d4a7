"""Calibration strategies for picking quantization ranges.

Three methods: symmetric max-min, entropy (KL) threshold search over an
absolute-value histogram, and grid search over candidate clipping thresholds
minimizing reconstruction MSE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Tuple

import numpy as np

from .quant import EPS_SCALE, QuantParams, fake_quant, scale_from_range

DEFAULT_BINS = 2048
_KL_SMOOTH = 1e-10


class CalibError(ValueError):
    pass


@dataclass(frozen=True)
class SearchConfig:
    """Candidate-grid geometry: T thresholds spanning [alpha, beta] x max-min."""

    T: int = 100
    alpha: float = 0.01
    beta: float = 1.2

    def __post_init__(self):
        if self.T < 1:
            raise CalibError(f"T must be >= 1, got {self.T}")
        if not (0.0 < self.alpha <= self.beta):
            raise CalibError(f"need 0 < alpha <= beta, got {self.alpha}, {self.beta}")


@dataclass
class Histogram:
    bin_counts: np.ndarray  # int64, length N
    bin_width: float
    origin: float = 0.0  # left edge of bin 0

    def __post_init__(self):
        self.bin_counts = np.asarray(self.bin_counts, dtype=np.int64)
        if self.bin_counts.ndim != 1 or self.bin_counts.size < 2:
            raise CalibError("histogram needs a 1-D count vector of length >= 2")
        if (self.bin_counts < 0).any():
            raise CalibError("negative bin count")
        if not self.bin_width > 0:
            raise CalibError(f"bin_width must be > 0, got {self.bin_width}")

    @property
    def n_bins(self) -> int:
        return self.bin_counts.size

    @property
    def total(self) -> int:
        return int(self.bin_counts.sum())


# -- range estimators ---------------------------------------------------------------


def maxmin_range(x: np.ndarray) -> Tuple[float, float]:
    """Symmetric cover of the full dynamic range: (-max|x|, +max|x|)."""
    x = np.asarray(x)
    if x.size == 0:
        raise CalibError("maxmin_range: empty tensor")
    if not np.isfinite(x).all():
        raise CalibError("maxmin_range: non-finite values")
    m = float(np.abs(x).max())
    if m == 0.0:
        return (-EPS_SCALE, EPS_SCALE)
    return (-m, m)


def build_histogram(x: np.ndarray, n_bins: int = DEFAULT_BINS) -> Histogram:
    """Equal-width histogram of |x| over [0, max|x|]; last bin right-inclusive."""
    if n_bins < 2:
        raise CalibError(f"build_histogram: n_bins must be >= 2, got {n_bins}")
    x = np.asarray(x)
    if x.size == 0 or not np.isfinite(x).all():
        raise CalibError("build_histogram: empty or non-finite tensor")
    hi = float(np.abs(x).max())
    if hi == 0.0:
        raise CalibError(
            "build_histogram: all-zero tensor; skip entropy calibration for this layer"
        )
    counts, edges = np.histogram(np.abs(x), bins=n_bins, range=(0.0, hi))
    return Histogram(counts.astype(np.int64), bin_width=float(edges[1] - edges[0]))


def histogram_fixed_range(x: np.ndarray, n_bins: int, hi: float) -> Histogram:
    """Histogram of |x| over a caller-fixed [0, hi]; lets per-batch histograms share bins."""
    if not hi > 0:
        raise CalibError(f"histogram range must be > 0, got {hi}")
    counts, edges = np.histogram(np.abs(np.asarray(x)), bins=n_bins, range=(0.0, hi))
    return Histogram(counts.astype(np.int64), bin_width=float(edges[1] - edges[0]))


def merge_histograms(a: Histogram, b: Histogram) -> Histogram:
    """Sum counts of two histograms over the identical binning."""
    if a.n_bins != b.n_bins:
        raise CalibError(f"bin-count mismatch: {a.n_bins} vs {b.n_bins}")
    if not (
        np.isclose(a.bin_width, b.bin_width, rtol=1e-12)
        and np.isclose(a.origin, b.origin, rtol=1e-12, atol=1e-300)
    ):
        raise CalibError("histograms use different bin geometry; cannot merge")
    return Histogram(a.bin_counts + b.bin_counts, a.bin_width, a.origin)


# -- entropy calibration --------------------------------------------------------------


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) with 0*log(0) := 0; q=0 where p>0 yields +inf."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise CalibError(f"length mismatch: {p.shape} vs {q.shape}")
    mask = p > 0
    if (q[mask] == 0).any():
        return float("inf")
    return float(np.sum(p[mask] * (np.log(p[mask]) - np.log(q[mask]))))


def _candidate_distributions(counts: np.ndarray, i: int, levels: int):
    """Reference/candidate pair for keeping the first i bins.

    Reference: first i bins with all outlier mass folded into bin i-1.
    Candidate: first i bins box-averaged down to `levels` values, then
    linearly interpolated back to length i; zero bins where the reference
    has mass get a small smoothing constant before normalization.
    """
    ref = counts[:i].astype(np.float64)
    ref[i - 1] += counts[i:].sum()
    ref /= ref.sum()

    kept = counts[:i].astype(np.float64)
    centers = (np.arange(i) + 0.5) / i  # bin centers mapped to (0, 1)
    level_pos = (np.arange(levels) + 0.5) / levels
    level_idx = np.minimum((np.arange(i) * levels) // i, levels - 1)
    coarse = np.bincount(level_idx, weights=kept, minlength=levels)
    width = np.bincount(level_idx, minlength=levels)
    coarse = coarse / np.maximum(width, 1)
    cand = np.interp(centers, level_pos, coarse)
    cand = np.where((cand == 0) & (ref > 0), _KL_SMOOTH, cand)
    total = cand.sum()
    if total == 0:
        cand = np.full(i, 1.0 / i)
    else:
        cand = cand / total
    return ref, cand


class EntropyResult(NamedTuple):
    threshold: float
    quant_range: Tuple[float, float]
    fallback: bool  # True when the histogram was too degenerate for a KL scan


def entropy_threshold(h: Histogram, bits: int = 8) -> EntropyResult:
    """Scan clipping points and keep the one whose quantized distribution
    stays closest (in KL) to the reference; returns a symmetric range.

    For each candidate i in [2^(bits-1), N): fold mass beyond bin i into the
    reference's last kept bin, requantize the kept bins to 2^(bits-1) levels,
    and score KL(reference || candidate). m = the i attaining the minimum
    (first on ties); threshold = (m + 0.5) * bin_width.
    """
    levels = 1 << (bits - 1)
    if h.n_bins <= levels:
        raise CalibError(f"need more than {levels} bins, histogram has {h.n_bins}")
    if h.total <= 0:
        raise CalibError("entropy_threshold: empty histogram")

    nonzero = np.flatnonzero(h.bin_counts)
    if nonzero.size == 1 and nonzero[0] < levels:
        # Everything sits in one low bin: a KL scan is meaningless, cover it.
        t = h.origin + (int(nonzero[0]) + 1) * h.bin_width
        return EntropyResult(t, (-t, t), fallback=True)

    counts = h.bin_counts
    best_i, best_kl = -1, np.inf
    for i in range(levels, h.n_bins):
        ref, cand = _candidate_distributions(counts, i, levels)
        kl = kl_divergence(ref, cand)
        if kl < best_kl:
            best_kl, best_i = kl, i
    t = h.origin + (best_i + 0.5) * h.bin_width
    return EntropyResult(t, (-t, t), fallback=False)


# -- grid search ----------------------------------------------------------------------


def candidate_thresholds(t_max: float, cfg: SearchConfig) -> np.ndarray:
    """Ascending clipping-threshold candidates: T points spanning
    [alpha*t_max, beta*t_max], plus t_max itself so the max-min scale is
    always in the set."""
    if cfg.T == 1:
        grid = np.asarray([cfg.alpha * t_max], dtype=np.float64)
    else:
        grid = np.linspace(cfg.alpha * t_max, cfg.beta * t_max, cfg.T)
    grid = np.append(grid, t_max)
    return np.unique(grid)


class GridSearchInfo(NamedTuple):
    params: QuantParams
    threshold: float
    mse: float
    maxmin_mse: float
    degenerate: bool


def grid_search_detail(
    x: np.ndarray,
    bits: int = 8,
    cfg: SearchConfig = SearchConfig(),
) -> GridSearchInfo:
    """Evaluate every candidate threshold and keep the scale with the lowest
    reconstruction MSE; ties go to the larger threshold."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise CalibError("grid_search_scale: empty tensor")
    if not np.isfinite(x).all():
        raise CalibError("grid_search_scale: non-finite values")
    t_max = float(np.abs(x).max())
    if t_max == 0.0:
        p = QuantParams(scale=EPS_SCALE, bits=bits)
        return GridSearchInfo(p, EPS_SCALE, 0.0, 0.0, degenerate=True)

    best = None  # (mse, threshold, params)
    maxmin_mse = None
    maxmin_scale = scale_from_range(-t_max, t_max, bits)
    for t in candidate_thresholds(t_max, cfg):
        p = QuantParams(scale=scale_from_range(-t, t, bits), bits=bits)
        err = x - fake_quant(x, p)
        mse = float(np.mean(err * err))
        if best is None or mse < best[0] or (mse == best[0] and t > best[1]):
            best = (mse, float(t), p)
        if p.scale == maxmin_scale:
            maxmin_mse = mse
    if maxmin_mse is None:
        pm = QuantParams(scale=maxmin_scale, bits=bits)
        err = x - fake_quant(x, pm)
        maxmin_mse = float(np.mean(err * err))
    mse, t, p = best
    return GridSearchInfo(p, t, mse, maxmin_mse, degenerate=False)


def grid_search_scale(
    x: np.ndarray,
    bits: int = 8,
    cfg: SearchConfig = SearchConfig(),
) -> QuantParams:
    return grid_search_detail(x, bits, cfg).params


# -- per-layer dispatch ---------------------------------------------------------------

# Pooled activation samples beyond this count are deterministically thinned
# before the grid-search MSE loop; full data would make the sweep quadratic
# in calibration-set size for no measurable change in the chosen scale.
GRID_SAMPLE_CAP = 1 << 21

METHODS = ("maxmin", "entropy", "maxmin_grid")


class LayerCalibration(NamedTuple):
    w_params: QuantParams
    a_params: QuantParams
    entropy_fallback: bool
    a_mse: float  # pooled-activation MSE of the chosen activation scale
    a_maxmin_mse: float


def _pool(batches: Iterable[np.ndarray]) -> list:
    pooled = [np.asarray(b).ravel() for b in batches]
    if not pooled or sum(b.size for b in pooled) == 0:
        raise CalibError("empty calibration set")
    return pooled


def _thin(x: np.ndarray, cap: int = GRID_SAMPLE_CAP) -> np.ndarray:
    if x.size <= cap:
        return x
    stride = int(np.ceil(x.size / cap))
    return x[::stride]


def calibrate_layer(
    activations: Iterable[np.ndarray],
    weights: np.ndarray,
    method: str = "maxmin",
    bits: int = 8,
    cfg: SearchConfig = SearchConfig(),
    n_bins: int = DEFAULT_BINS,
) -> LayerCalibration:
    """Pick weight and activation QuantParams from pooled calibration batches.

    maxmin:      symmetric full-range cover for both tensors.
    entropy:     KL threshold for activations, max-min for weights.
    maxmin_grid: grid-search refined scales for both tensors.
    """
    if method not in METHODS:
        raise CalibError(f"unknown calibration method {method!r}")
    batches = _pool(activations)
    weights = np.asarray(weights)

    a_max = max(float(np.abs(b).max()) if b.size else 0.0 for b in batches)
    w_lo, w_hi = maxmin_range(weights)
    fallback = False

    if method == "maxmin":
        w_params = QuantParams(scale_from_range(w_lo, w_hi, bits), bits)
        lo, hi = (-EPS_SCALE, EPS_SCALE) if a_max == 0.0 else (-a_max, a_max)
        a_params = QuantParams(scale_from_range(lo, hi, bits), bits)
    elif method == "entropy":
        w_params = QuantParams(scale_from_range(w_lo, w_hi, bits), bits)
        if a_max == 0.0:
            a_params = QuantParams(EPS_SCALE, bits)
            fallback = True
        else:
            # Exact zeros are representable under every symmetric scale, so
            # they say nothing about where to clip; with sparse BEV maps they
            # would otherwise swamp bin 0 and drag the threshold to the
            # smallest candidate.
            hist = None
            for b in batches:
                nz = b[b != 0.0]
                if nz.size == 0:
                    continue
                part = histogram_fixed_range(nz, n_bins, a_max)
                hist = part if hist is None else merge_histograms(hist, part)
            res = entropy_threshold(hist, bits)
            fallback = res.fallback
            lo, hi = res.quant_range
            a_params = QuantParams(scale_from_range(lo, hi, bits), bits)
    else:  # maxmin_grid
        w_params = grid_search_scale(weights, bits, cfg)
        pooled = _thin(np.concatenate(batches))
        a_params = grid_search_scale(pooled, bits, cfg)

    pooled = _thin(np.concatenate(batches))
    if pooled.size and a_max > 0.0:
        err = pooled - fake_quant(pooled.astype(np.float64), a_params)
        a_mse = float(np.mean(err * err))
        mm = QuantParams(scale_from_range(-a_max, a_max, bits), bits)
        err = pooled - fake_quant(pooled.astype(np.float64), mm)
        a_maxmin_mse = float(np.mean(err * err))
    else:
        a_mse = a_maxmin_mse = 0.0
    return LayerCalibration(w_params, a_params, fallback, a_mse, a_maxmin_mse)
