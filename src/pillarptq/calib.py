"""Calibration strategies: each picks a clipping threshold t, and
`quant.clip_scale` turns it into the symmetric grid that clips at +-t.

Three methods: max-min (t = max|x|), entropy (the KL threshold search over an
absolute-value histogram) and grid search (the candidate threshold with the
lowest reconstruction MSE).

The entropy scan returns bitwise what scoring every clip point returns, but
scores them in ascending order of a closed-form lower bound on their KL and
stops at the first bound above the lowest KL found; see `_kl_lower_bounds`.

The grid search returns bitwise what a brute-force sweep returns, one
`fake_quant` pass over the whole tensor per candidate, in O(N log N) plus
O(min(2^(bits-1) log N, N)) per candidate instead of O(N) per candidate.
Exact zeros quantize exactly under every symmetric scale, so the ranking sets
them aside: the positive and negative magnitudes are sorted apart (the
negative side clamps one level further out, at -2^(bits-1)), and each
candidate's error is ranked from suffix sums over its level boundaries. The
few candidates it cannot tell apart within its rounding bound are scored
again over the whole tensor; see `_direct_mse` and `grid_search_detail`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .quant import QuantParams, clip_scale, level

DEFAULT_BINS = 2048
_KL_SMOOTH = 1e-10
_BOUND_BLOCK = 128  # candidates per `_kl_lower_bounds` block: caps its scratch arrays
_EPS = float(np.finfo(np.float64).eps)


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
    bin_width: float  # bin 0 starts at 0

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


# -- histograms -----------------------------------------------------------------------


def _max_abs(x: np.ndarray, what: str) -> float:
    """max|x|. Refuses an empty tensor, and a non-finite one through the max
    itself, which is finite only when every entry is."""
    if x.size == 0:
        raise CalibError(f"{what}: empty tensor")
    m = float(np.abs(x).max())
    if not math.isfinite(m):
        raise CalibError(f"{what}: non-finite values")
    return m


def build_histogram(x: np.ndarray, n_bins: int = DEFAULT_BINS) -> Histogram:
    """Equal-width histogram of |x| over [0, max|x|]; last bin right-inclusive."""
    if n_bins < 2:
        raise CalibError(f"build_histogram: n_bins must be >= 2, got {n_bins}")
    x = np.asarray(x)
    hi = _max_abs(x, "build_histogram")
    if hi == 0.0:
        raise CalibError(
            "build_histogram: all-zero tensor; skip entropy calibration for this layer"
        )
    counts, edges = np.histogram(np.abs(x), bins=n_bins, range=(0.0, hi))
    return Histogram(counts.astype(np.int64), bin_width=float(edges[1] - edges[0]))


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


def _kl_lower_bounds(counts: np.ndarray, levels: int) -> np.ndarray:
    """Lower bounds on the KL that `kl_divergence` gives
    `_candidate_distributions(counts, i, levels)`, for i = levels .. N-1.

    KL = sum (w/S) log(w/S) - sum (w/S) log cand + log T, where w are the
    reference's counts (the tail folded into bin i-1), S their total, y the
    candidate before smoothing and T its total. cand <= z = y + 1e-10 and
    sum y <= T. y is flat outside the level centres and linear in j between
    two; on each such segment, of weight W, log z lies below its tangent at
    the mean by at least phi (z - mean)^2 / mean^2, phi = (u - 1 - log u) /
    (u - 1)^2 at u = max z / mean, so sum w log z <= W (log mean - phi
    Var_w(z) / mean^2). Moments come from prefix sums taken once, exact while
    S N L < 2^52 (else every bound is -inf). The variance is lowered by its
    rounding error, the bound by twice (i + L + 16) eps times the magnitudes
    summed here and in `kl_divergence`, plus 8 (L + 1) i eps for the relative
    error of np.interp and of the means. Non-finite bounds read -inf.
    """
    c = counts.astype(np.float64)
    n, total = c.size, float(c.sum())
    if total * n * levels >= 2.0**52:
        return np.full(n - levels, -np.inf)
    odd = 2.0 * np.arange(n) + 1.0
    cum, cum1, cum2, cum_wlogw = (
        np.concatenate(([0.0], np.cumsum(v)))
        for v in (c, c * odd, c * odd * odd, c * np.log(np.maximum(c, 1.0)))
    )
    shift = levels.bit_length() - 1
    seg = 2 * np.arange(levels) - 1  # 2s - 1: segment s ends at level centre s
    log_mag = 2.0 * np.log(total) - np.log(_KL_SMOOTH) + np.log1p(c.max()) + 1.0
    bounds = np.empty(n - levels)
    for first in range(levels, n, _BOUND_BLOCK):
        ii = np.arange(first, min(first + _BOUND_BLOCK, n))
        i = ii[:, None]
        # Level l holds bins ceil(l i / L) .. ceil((l + 1) i / L) - 1.
        edges = (np.arange(levels + 1) * i + levels - 1) >> shift
        g = cum[edges]
        coarse = (g[:, 1:] - g[:, :-1]) / (edges[:, 1:] - edges[:, :-1])
        lo, hi = np.concatenate((coarse[:, :1], coarse[:, :-1]), axis=1), coarse
        # Segment s holds bins ks[s] .. ks[s+1]-1; ks[s+1] is the first bin
        # whose centre (j + 1/2) / i is at or past level centre s.
        ks = np.zeros((ii.size, levels + 1), dtype=np.int64)
        ks[:, 1:] = ((seg + 2) * i + levels - 1) >> (shift + 1)
        # Across segment s, y is linear in t = ((2j + 1) L - (2s - 1) i) / 2i.
        g, g1, g2 = cum[ks], cum1[ks], cum2[ks]
        w, q1, q2 = g[:, 1:] - g[:, :-1], g1[:, 1:] - g1[:, :-1], g2[:, 1:] - g2[:, :-1]
        wd = np.maximum(w, 1.0)
        t = np.clip((levels * q1 - seg * i * w) / (2 * i * wd), 0.0, 1.0)
        var = (q2 - q1 * q1 / wd - (2 * n + 8) * _EPS * g2[:, 1:]) / wd
        var = np.maximum(var, 0.0) * ((hi - lo) * levels / (2 * i)) ** 2
        z = lo * (1.0 - t) + hi * t + _KL_SMOOTH
        d = np.maximum((np.maximum(lo, hi) + _KL_SMOOTH) / z - 1.0, 1e-3)
        terms = w * (np.log(z) - var * (d - np.log1p(d)) / (d * z) ** 2)
        tail = (total - cum[ks[:, -1]]) * np.log(coarse[:, -1] + _KL_SMOOTH)
        tau = np.clip((levels * (ks[:, :-1] + ks[:, 1:]) - seg * i) / (2.0 * i), 0.0, 1.0)
        y_total = (np.diff(ks, axis=1) * (lo * (1.0 - tau) + hi * tau)).sum(axis=1)
        y_total += (ii - ks[:, -1]) * coarse[:, -1]
        log_t = np.log(y_total, out=np.full_like(y_total, -np.inf), where=y_total > 0)
        r = total - cum[ii - 1]
        wlogw = cum_wlogw[ii - 1] + r * np.log(np.maximum(r, 1.0))
        b = (wlogw - terms.sum(axis=1) - tail) / total - np.log(total) + log_t
        mag = log_mag + np.abs(log_t) + np.abs(b)
        b -= 2.0 * _EPS * ((ii + levels + 16) * mag + 8 * (levels + 1) * ii)
        bounds[first - levels : first - levels + ii.size] = np.where(np.isfinite(b), b, -np.inf)
    return bounds


class EntropyResult(NamedTuple):
    threshold: float
    fallback: bool  # True when the histogram was too degenerate for a KL scan


def entropy_threshold(h: Histogram, bits: int = 8) -> EntropyResult:
    """Scan clipping points and keep the one whose quantized distribution
    stays closest (in KL) to the reference; returns its clip threshold.

    For each candidate i in [2^(bits-1), N): fold mass beyond bin i into the
    reference's last kept bin, requantize the kept bins to 2^(bits-1) levels,
    and score KL(reference || candidate). m = the i attaining the minimum
    (first on ties); threshold = (m + 0.5) * bin_width.

    The candidate interpolates linearly between level centres, not by
    TensorRT's expansion over nonzero bins; at 4 bits a post-ReLU layer
    histogram can pick the smallest candidate (bin 8 of 2048 on a trained
    conv1 input).

    Bitwise the scan of every candidate: candidates are scored in ascending
    order of `_kl_lower_bounds` until a bound exceeds the lowest KL so far,
    which no unscored candidate can then reach, let alone tie; ties among
    the scored go to the smallest i. Cost: O(N 2^(bits-1)) for the bounds
    plus O(N) per candidate scored, typically under a tenth of them.
    """
    levels = 1 << (bits - 1)
    if h.n_bins <= levels:
        raise CalibError(f"need more than {levels} bins, histogram has {h.n_bins}")
    if h.total <= 0:
        raise CalibError("entropy_threshold: empty histogram")

    nonzero = np.flatnonzero(h.bin_counts)
    if nonzero.size == 1 and nonzero[0] < levels:
        # Everything sits in one low bin: a KL scan is meaningless, cover it.
        t = (int(nonzero[0]) + 1) * h.bin_width
        return EntropyResult(t, fallback=True)

    counts = h.bin_counts
    bounds = _kl_lower_bounds(counts, levels)
    best_i, best_kl = -1, np.inf
    for c in np.argsort(bounds, kind="stable"):
        if bounds[c] > best_kl:
            break
        i = levels + int(c)
        kl = kl_divergence(*_candidate_distributions(counts, i, levels))
        if kl < best_kl or (kl == best_kl and i < best_i):
            best_kl, best_i = kl, i
    return EntropyResult((best_i + 0.5) * h.bin_width, fallback=False)


# -- grid search ----------------------------------------------------------------------


def candidate_thresholds(t_max: float, cfg: SearchConfig) -> np.ndarray:
    """Ascending clipping-threshold candidates: T points spanning
    [alpha*t_max, beta*t_max], plus t_max itself so the max-min scale is
    always in the set. At T=1 the one point is alpha*t_max."""
    grid = np.linspace(cfg.alpha * t_max, cfg.beta * t_max, cfg.T)
    grid = np.append(grid, t_max)
    return np.unique(grid)


class GridSearchInfo(NamedTuple):
    """A grid search's clip threshold and the grid `clip_scale` makes of it."""

    params: QuantParams
    threshold: float


def _direct_mse(x: np.ndarray, p: QuantParams) -> float:
    """np.mean((x - fake_quant(x, p))**2), bitwise, for a finite float64 x:
    `level(x, p)`, * s, x - q and its square, in place in one buffer over the
    whole tensor, then the mean. A zero of either sign has an error of +0.0.
    The caller checks x is finite, once per tensor."""
    buf = level(x, p)
    buf *= p.scale
    np.subtract(x, buf, out=buf)
    np.square(buf, out=buf)
    return float(np.mean(buf))


def _level_starts(a: np.ndarray, scale: float, top: int) -> np.ndarray:
    """e[j-1] = how many of the ascending magnitudes `a` round below level j,
    for j = 1..top, under the level rule of `quant.level`.

    Level j starts at the smallest float tau with level(tau) >= j, on a grid
    wide enough that no level up to `top` clamps. (j - 0.5) * scale lies
    within a few ulps of it; the nudges below land on it exactly, because the
    predicate is monotone in tau. Searching for tau rather than correcting an
    index keeps runs of duplicates exact.
    """
    grid = QuantParams(scale, int(top).bit_length() + 1)
    j = np.arange(1, top + 1, dtype=np.float64)
    tau = (j - 0.5) * scale
    while True:
        low = level(tau, grid) < j
        if not low.any():
            break
        tau[low] = np.nextafter(tau[low], np.inf)
    while True:
        below = np.nextafter(tau, -np.inf)
        high = level(below, grid) >= j
        if not high.any():
            break
        tau[high] = below[high]
    return np.searchsorted(a, tau)


def _shortlist(nonzeros: np.ndarray, scales: Sequence[float], bits: int) -> np.ndarray:
    """Indices of the candidate scales that can hold the lowest brute-force MSE.

    For ascending magnitudes a_1..a_n that clamp at level M, with levels
    k_i = min(floor(a_i/s + 0.5), M):
        SSE(s) = sum a^2 - 2 s U + s^2 V,
        U = sum_j sum_{i >= e_j} a_i,   V = sum_j (2j - 1)(n - e_j),
    over j = 1..M, where e_j counts the magnitudes below level j. sum a^2 is
    the same for every candidate, so candidates rank by D = s^2 V - 2 s U.
    The suffix sums add positive terms, so D carries a rounding error below
    (n + M + 16) eps (2 s U + s^2 V), and N times the brute-force mean one
    below 64 eps (sum a^2 + s^2 V). Every candidate whose D lies within both
    candidates' bounds, with a 2x margin, of the lowest D is kept: the
    brute-force winner cannot lie outside.

    A sweep that would cost more per candidate than the N-element brute-force
    pass (2^(bits-1) log2 N >= N) keeps every candidate instead, so no array
    of 2^(bits-1) levels is built at wide bit-widths.
    """
    n = nonzeros.size
    q_max = (1 << (bits - 1)) - 1
    if (q_max + 1) * np.log2(n) >= n:
        return np.arange(len(scales))
    halves = []
    for side, top in ((nonzeros[nonzeros > 0], q_max), (-nonzeros[nonzeros < 0], q_max + 1)):
        if side.size:
            a = np.sort(side)
            suffix = np.append(np.cumsum(a[::-1])[::-1], 0.0)
            halves.append((a, suffix, top, 2.0 * np.arange(1, top + 1) - 1.0))
    sum_sq = float(np.dot(nonzeros, nonzeros))
    rank = np.empty(len(scales))
    slack = np.empty(len(scales))
    for c, s in enumerate(scales):
        two_su = s2v = 0.0
        for a, suffix, top, odd in halves:
            e = _level_starts(a, s, top)
            two_su += 2.0 * s * float(suffix[e].sum())
            s2v += s * s * float(np.dot(odd, a.size - e))
        rank[c] = s2v - two_su
        slack[c] = 2.0 * _EPS * ((n + q_max + 17) * (two_su + s2v) + 64.0 * (sum_sq + s2v))
    best = int(np.argmin(rank))
    return np.flatnonzero(rank <= rank[best] + slack + slack[best])


def grid_search_detail(
    x: np.ndarray,
    bits: int = 8,
    cfg: SearchConfig = SearchConfig(),
) -> GridSearchInfo:
    """Evaluate every candidate threshold and keep the scale with the lowest
    reconstruction MSE, np.mean((x - fake_quant(x))**2); ties go to the
    larger threshold.

    The result is bitwise that of scoring every candidate with that formula.
    `_shortlist` ranks the candidates from sorted suffix sums and keeps each
    one the ranking's rounding bound cannot rule out, almost always one.
    Only those, when more than one is left, are scored with the formula
    itself, over the whole tensor (see `_direct_mse`), so the winner is the
    brute-force one. Cost: a sort of the nonzeros, then per candidate
    min(2^(bits-1) log N, N), plus one scoring pass, in one buffer, per
    scored scale. An all-zero tensor clips at 0.
    """
    x = np.asarray(x, dtype=np.float64)
    t_max = _max_abs(x, "grid_search_detail")
    if t_max == 0.0:
        return GridSearchInfo(QuantParams(clip_scale(0.0, bits), bits), 0.0)

    thresholds = candidate_thresholds(t_max, cfg)
    scales = [clip_scale(t, bits) for t in thresholds]
    best, *rest = _shortlist(x[x != 0.0], scales, bits)
    if rest:  # candidates the ranking cannot tell apart: the formula decides
        best = min(
            (best, *rest),
            key=lambda c: (_direct_mse(x, QuantParams(scales[c], bits)), -thresholds[c]),
        )
    return GridSearchInfo(QuantParams(scales[best], bits), float(thresholds[best]))


# -- per-layer dispatch ---------------------------------------------------------------

METHODS = ("maxmin", "entropy", "maxmin_grid")


class LayerCalibration(NamedTuple):
    w_params: QuantParams
    a_params: QuantParams
    entropy_fallback: bool
    a_mse: float  # pooled-activation MSE of the chosen activation scale
    a_maxmin_mse: float


def calibrate_layer(
    activations: Iterable[np.ndarray],
    weights: np.ndarray,
    method: str = "maxmin",
    bits: int = 8,
    cfg: SearchConfig = SearchConfig(),
    n_bins: int = DEFAULT_BINS,
) -> LayerCalibration:
    """Pick weight and activation QuantParams from pooled calibration batches:
    each method picks a clip threshold per tensor, `clip_scale` its grid.

    maxmin:      max|x| for both tensors.
    entropy:     the KL threshold for activations, max|w| for weights.
    maxmin_grid: the grid search's threshold for both tensors.

    The MSEs are those of the pooled activations at the chosen scale and at
    the max-min one. Two rules hold for every method: a non-finite
    activation or weight raises CalibError, and an all-zero tensor gets
    `EPS_SCALE` (an all-zero activation tensor, MSEs of 0.0).
    """
    if method not in METHODS:
        raise CalibError(f"unknown calibration method {method!r}")
    batches = [np.asarray(b) for b in activations]
    if sum(b.size for b in batches) == 0:
        raise CalibError("empty calibration set")
    pooled = np.concatenate(batches, axis=None, dtype=np.float64)  # in C order, one copy
    weights = np.asarray(weights)
    a_max = _max_abs(pooled, "calibrate_layer activations")
    t_w = _max_abs(weights, "calibrate_layer weights")
    t_a, fallback = a_max, method == "entropy"  # an all-zero tensor has no KL scan

    if method == "maxmin_grid":
        t_w = grid_search_detail(weights, bits, cfg).threshold
        t_a = grid_search_detail(pooled, bits, cfg).threshold
    elif method == "entropy" and a_max > 0.0:
        # Exact zeros are representable under every symmetric scale, so they
        # say nothing about where to clip; with sparse BEV maps they would
        # otherwise swamp bin 0 and drag the threshold to the smallest
        # candidate.
        nonzeros = np.concatenate([b[b != 0.0] for b in batches])
        t_a, fallback = entropy_threshold(build_histogram(nonzeros, n_bins), bits)
    w_params, a_params = (QuantParams(clip_scale(t, bits), bits) for t in (t_w, t_a))

    if a_max == 0.0:
        return LayerCalibration(w_params, a_params, fallback, 0.0, 0.0)
    a_mse = _direct_mse(pooled, a_params)
    mm = QuantParams(clip_scale(a_max, bits), bits)
    a_maxmin_mse = a_mse if mm == a_params else _direct_mse(pooled, mm)
    return LayerCalibration(w_params, a_params, fallback, a_mse, a_maxmin_mse)
