"""The bound-and-rescore entropy scan against the plain scan it replaced,
kept here verbatim as `ref_entropy_threshold`, except that it returns the
threshold alone, as `EntropyResult` now holds it, not the symmetric range
too. Results are compared bitwise: the same threshold float and fallback
flag."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarptq import calib
from pillarptq.calib import (
    CalibError,
    EntropyResult,
    Histogram,
    _candidate_distributions,
    _kl_lower_bounds,
    entropy_threshold,
    kl_divergence,
)
from pillarptq.pipeline import run_baseline_calibration

# -- the replaced code, verbatim --------------------------------------------------------


def ref_entropy_threshold(h: Histogram, bits: int = 8) -> EntropyResult:
    """Scan clipping points and keep the one whose quantized distribution
    stays closest (in KL) to the reference; returns its clip threshold.

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
        t = (int(nonzero[0]) + 1) * h.bin_width
        return EntropyResult(t, fallback=True)

    counts = h.bin_counts
    best_i, best_kl = -1, np.inf
    for i in range(levels, h.n_bins):
        ref, cand = _candidate_distributions(counts, i, levels)
        kl = kl_divergence(ref, cand)
        if kl < best_kl:
            best_kl, best_i = kl, i
    t = (best_i + 0.5) * h.bin_width
    return EntropyResult(t, fallback=False)


# -- histograms -------------------------------------------------------------------------

SHAPES = ("dense", "sparse", "spikes", "zero_runs", "geometric", "beyond_levels")


def _counts(shape: str, n: int, levels: int, rng: np.random.Generator) -> np.ndarray:
    if shape == "dense":
        c = rng.integers(1, 10 ** int(rng.integers(1, 7)), n)
    elif shape == "sparse":  # at most 10% of the bins hold mass
        c = np.zeros(n, dtype=np.int64)
        hot = rng.choice(n, int(rng.integers(1, max(1, n // 10) + 1)), replace=False)
        c[hot] = rng.integers(1, 10**6, hot.size)
    elif shape == "spikes":
        c = rng.integers(0, 4, n)
        c[rng.integers(0, n, int(rng.integers(1, 5)))] += rng.integers(10**4, 10**8)
    elif shape == "zero_runs":
        c = rng.integers(0, 1000, n)
        for _ in range(int(rng.integers(1, 4))):
            start = int(rng.integers(0, n))
            c[start : start + int(rng.integers(n // 4, n // 2 + 1))] = 0
    elif shape == "geometric":
        c = np.floor(10 ** rng.uniform(2, 8) * rng.uniform(0.9, 0.999) ** np.arange(n))
    else:  # beyond_levels: no mass in the first `levels` bins
        c = rng.integers(0, 100, n)
        c[:levels] = 0
    c = np.asarray(c, dtype=np.int64)
    if c.sum() == 0:
        c[-1] = 1
    return c


@st.composite
def histograms(draw):
    """(counts, bits) over the shapes above, bits in {2, 3, 4, 5, 8} and
    levels + 1 .. 512 bins."""
    bits = draw(st.sampled_from([2, 3, 4, 5, 8]))
    levels = 1 << (bits - 1)
    n = draw(st.integers(levels + 1, 512))
    shape = draw(st.sampled_from(SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _counts(shape, n, levels, rng), bits


# -- tests ------------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(histograms())
def test_property_scan_equals_reference_scan(case):
    counts, bits = case
    h = Histogram(counts, bin_width=0.037)
    got = entropy_threshold(h, bits)
    want = ref_entropy_threshold(h, bits)
    assert got == want
    assert got.threshold.hex() == want.threshold.hex()


@settings(max_examples=100, deadline=None)
@given(histograms())
def test_property_bounds_never_exceed_the_scored_kl(case):
    counts, bits = case
    levels = 1 << (bits - 1)
    bounds = _kl_lower_bounds(counts, levels)
    assert bounds.shape == (counts.size - levels,)
    assert not np.isnan(bounds).any() and (bounds < np.inf).all()
    for c, i in enumerate(range(levels, counts.size)):
        kl = kl_divergence(*_candidate_distributions(counts, i, levels))
        assert bounds[c] <= kl, (i, bounds[c], kl)


def test_scan_memory_stays_small():
    # The bounds are computed in blocks of candidates; all 1920 candidates of
    # a 2048-bin histogram at once would take some 28 MiB of scratch arrays.
    rng = np.random.default_rng(3)
    x = np.abs(rng.standard_t(3, size=200_000))
    h = calib.build_histogram(x, n_bins=calib.DEFAULT_BINS)
    tracemalloc.start()
    try:
        entropy_threshold(h, bits=8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("bits", [8, 4])
def test_entropy_arm_equals_reference_scan(tiny_net, tiny_calib_feats, monkeypatch, bits):
    keys = ("a_scale", "post_mse", "pre_mse", "entropy_fallback")
    _, log = run_baseline_calibration(tiny_net, tiny_calib_feats, "entropy", bits=bits)
    monkeypatch.setattr(calib, "entropy_threshold", ref_entropy_threshold)
    _, want = run_baseline_calibration(tiny_net, tiny_calib_feats, "entropy", bits=bits)
    assert log.layer_stats and list(log.layer_stats) == list(want.layer_stats)
    for got_row, want_row in zip(log.layer_stats.values(), want.layer_stats.values()):
        assert [repr(got_row[k]) for k in keys] == [repr(want_row[k]) for k in keys]
