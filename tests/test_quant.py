"""Unit tests for the symmetric integer quantization primitives."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pillarptq import autodiff as ad
from pillarptq.network import LayerSpec, freeze
from pillarptq.quant import (
    EPS_SCALE,
    QuantError,
    QuantParams,
    clip_scale,
    fake_quant,
    level,
    round_half_away,
)


def scalar_round_trip(x: float, scale: float, bits: int) -> float:
    """Independent scalar reference: clamp(round-half-away(x/s)) * s."""
    q_min = -(2 ** (bits - 1))
    q_max = 2 ** (bits - 1) - 1
    r = x / scale
    q = math.floor(abs(r) + 0.5) * (1 if r >= 0 else -1)
    q = min(max(q, q_min), q_max)
    return q * scale


# -- params ------------------------------------------------------------------------


class TestQuantParams:
    def test_integer_range_int8(self):
        p = QuantParams(scale=0.1, bits=8)
        assert (p.q_min, p.q_max) == (-128, 127)

    def test_integer_range_int4(self):
        p = QuantParams(scale=0.1, bits=4)
        assert (p.q_min, p.q_max) == (-8, 7)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bad_scale(self, bad):
        with pytest.raises(QuantError):
            QuantParams(scale=bad)

    def test_rejects_one_bit(self):
        with pytest.raises(QuantError):
            QuantParams(scale=0.1, bits=1)


# -- rounding ----------------------------------------------------------------------


class TestRoundHalfAway:
    def test_half_values_go_away_from_zero(self):
        x = np.array([0.5, 1.5, 2.5, -0.5, -1.5, -2.5])
        np.testing.assert_array_equal(round_half_away(x), [1, 2, 3, -1, -2, -3])

    def test_disagrees_with_bankers_rounding_on_odd_halves(self):
        # np.round sends 2.5 -> 2; this tie rule must send it to 3
        assert round_half_away(np.array(2.5)) == 3.0
        assert np.round(2.5) == 2.0

    def test_non_ties_match_plain_rounding(self):
        x = np.array([0.49, 0.51, -1.2, 3.7])
        np.testing.assert_array_equal(round_half_away(x), [0, 1, -1, 4])


# -- levels: quantize to codes, dequantize as codes * scale ---------------------------


class TestQuantizeDequantize:
    def test_pinned_values_power_of_two_scale(self):
        p = QuantParams(scale=0.25, bits=8)
        x = np.array([0.875, -0.875, 0.625, 0.0])
        # 3.5 -> 4, -3.5 -> -4, 2.5 -> 3 under the away-from-zero tie rule
        np.testing.assert_array_equal(level(x, p), [4, -4, 3, 0])

    def test_clamps_to_integer_range(self):
        p = QuantParams(scale=1.0, bits=4)
        np.testing.assert_array_equal(level(np.array([100.0, -100.0]), p), [7, -8])

    def test_matches_scalar_reference(self, rng):
        x = rng.normal(0, 3, size=500)
        for bits in (4, 8):
            p = QuantParams(scale=0.07, bits=bits)
            got = level(x, p) * p.scale
            want = [scalar_round_trip(v, 0.07, bits) for v in x]
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_rejects_non_finite_input(self):
        p = QuantParams(scale=1.0, bits=8)
        with pytest.raises(QuantError):
            fake_quant(np.array([1.0, np.nan]), p)
        with pytest.raises(QuantError):
            fake_quant(np.array([np.inf]), p)


# -- scale derivation ----------------------------------------------------------------


class TestScaleFromRange:
    """`clip_scale`: the scale of the symmetric range [-t, t]."""

    def test_symmetric_range_int8(self):
        # (t - (-t)) / (2^8 - 1)
        assert clip_scale(1.0, 8) == pytest.approx(2.0 / 255.0)

    @settings(max_examples=300, deadline=None)
    @given(
        t=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        bits=st.integers(2, 32),
    )
    def test_property_is_the_width_of_the_range_over_its_steps_bitwise(self, t, bits):
        assert clip_scale(t, bits) == (t - (-t)) / (2**bits - 1)

    def test_zero_threshold_gets_eps_scale(self):
        assert clip_scale(0.0, 8) == EPS_SCALE

    def test_rejects_empty_range(self):
        # a negative threshold clips to an empty range; an infinite or NaN one to none
        for t in (-1.0, math.inf, math.nan):
            with pytest.raises(QuantError):
                clip_scale(t, 8)

    def test_widest_representable_value_is_covered(self):
        t = 3.7
        p = QuantParams(scale=clip_scale(t, 8), bits=8)
        # t itself must survive the round trip within half a step
        assert abs(fake_quant(np.array(t), p) - t) <= p.scale / 2 + 1e-12


# -- fake quantization ----------------------------------------------------------------


class TestFakeQuant:
    def test_equals_quantize_then_dequantize(self, rng):
        x = rng.normal(0, 2, size=1000)
        p = QuantParams(scale=0.05, bits=8)
        np.testing.assert_array_equal(fake_quant(x, p), level(x, p) * p.scale)

    def test_error_bound_half_step_in_range(self, rng):
        p = QuantParams(scale=0.1, bits=8)
        x = rng.uniform(-12.0, 12.0, size=2000)  # inside +-12.7 representable span
        assert np.max(np.abs(x - fake_quant(x, p))) <= 0.05 + 1e-15

    def test_preserves_float32_dtype(self):
        p = QuantParams(scale=0.1, bits=8)
        out = fake_quant(np.ones(3, np.float32), p)
        assert out.dtype == np.float32

    def test_empty_input(self):
        p = QuantParams(scale=0.1, bits=8)
        assert fake_quant(np.array([]), p).shape == (0,)


# -- rounding offsets -----------------------------------------------------------------
# Offsets are optimizer state: `level` steers by them, and `network.freeze`
# clips them into [0, scale] before it steers the codes it keeps.


def offset_round_trip(x, scale, theta, bits=8):
    """The values the codes `freeze` leaves for x with these offsets stand for."""
    x = np.asarray(x, dtype=np.float64)
    layer = LayerSpec("w", x.reshape(1, 1, 1, -1), np.zeros(1))
    with ad.using_dtype(np.float64):
        freeze(layer, QuantParams(scale, bits), QuantParams(1.0), np.reshape(theta, (1, 1, 1, -1)))
    return layer.weight.reshape(x.shape) * layer.w_quant.scale


class TestRoundingOffsets:
    def test_zero_offsets_reproduce_nearest_rounding(self, rng):
        x = rng.normal(0, 1, size=(16, 3, 3))
        p = QuantParams(0.02, 16)  # no level clamps
        np.testing.assert_array_equal(level(x, p, np.zeros_like(x)), round_half_away(x / 0.02))

    def test_offset_can_push_weight_up_one_level(self):
        x = np.array([0.30])  # nearest level is 1 (0.25)
        np.testing.assert_array_equal(level(x, QuantParams(0.25), np.array([0.20])), [2.0])

    def test_raw_offsets_clip_into_zero_scale_box(self):
        x = np.array([0.30])
        # effective offset saturates at the scale: at most one extra level
        assert offset_round_trip(x, 0.25, np.array([1e9]))[0] == pytest.approx(0.50)
        np.testing.assert_array_equal(
            offset_round_trip(x, 0.25, np.array([-5.0])), fake_quant(x, QuantParams(0.25))
        )

    def test_offset_moves_one_level_where_float_error_or_a_tie_would_give_two(self):
        # (0.15 + 0.1) / 0.1 rounds to 3 in float; -0.05 / 0.1 is a negative
        # half tie, so round-half-away puts it at -1 while -0.05 + 0.1 goes to +1
        x, p = np.array([0.15, -0.05]), QuantParams(0.1)
        np.testing.assert_array_equal(level(x, p), [1.0, -1.0])
        np.testing.assert_array_equal(level(x, p, np.array([0.1, 0.1])), [2.0, 0.0])

    def test_effective_is_monotone_in_raw_theta(self):
        x = np.full(5, 0.33)
        raw = offset_round_trip(x, 0.2, np.array([-1.0, 0.0, 0.1, 0.2, 5.0]))
        clipped = offset_round_trip(x, 0.2, np.array([0.0, 0.0, 0.1, 0.2, 0.2]))
        np.testing.assert_array_equal(raw, clipped)
        assert (np.diff(raw) >= 0).all()

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            offset_round_trip(np.zeros(4), 0.1, np.zeros(5))


# -- properties -----------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-50, 50, allow_nan=False),
    scale=st.floats(1e-3, 10.0),
    bits=st.sampled_from([2, 4, 8]),
)
def test_property_output_lies_on_integer_grid(x, scale, bits):
    p = QuantParams(scale=scale, bits=bits)
    out = float(fake_quant(np.array(x), p))
    level = out / scale
    assert abs(level - round(level)) < 1e-6
    assert p.q_min <= round(level) <= p.q_max


@settings(max_examples=200, deadline=None)
@given(
    x=st.floats(-50, 50, allow_nan=False),
    scale=st.floats(1e-3, 10.0),
)
def test_property_fake_quant_is_idempotent(x, scale):
    p = QuantParams(scale=scale, bits=8)
    once = fake_quant(np.array(x), p)
    np.testing.assert_array_equal(fake_quant(once, p), once)


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=32),
    theta=st.floats(-1.0, 1.0),
)
def test_property_offset_never_moves_more_than_one_level(x, theta):
    p = QuantParams(scale=0.1, bits=8)
    arr = np.array(x)
    offsets = np.full(arr.shape, theta)
    base = level(arr, p)
    steered_level = level(arr, p, np.clip(offsets, 0.0, p.scale))
    assert np.all((steered_level >= base) & (steered_level <= base + 1))
    steered = offset_round_trip(arr, p.scale, offsets)
    diff = np.abs(steered / p.scale - base)
    assert np.all(diff <= 1 + 1e-6)


def reference_level(x: float, scale: float, bits: int, offset=None) -> float:
    """The level rule one Python float at a time: round half away from zero,
    steered by the offset at most one level up, clamped to the range."""

    def nearest(r):
        return math.copysign(math.floor(abs(r) + 0.5), r)

    k = nearest(x / scale)
    if offset is not None:
        k = min(max(nearest((x + offset) / scale), k), k + 1)
    top = 1 << (bits - 1)
    return min(max(k, -top), top - 1)


@st.composite
def level_cases(draw):
    """Values with exact (positive and negative) half ties, values past the
    clamp, and offsets anywhere in [0, scale]."""
    bits = draw(st.integers(2, 8))
    scale = draw(st.one_of(st.sampled_from([2.0**e for e in range(-6, 3)]), st.floats(1e-3, 4.0)))
    n = draw(st.integers(1, 16))
    top = 1 << (bits - 1)
    halves = st.integers(-2 * top - 6, 2 * top + 6).map(lambda h: h * 0.5 * scale)
    values = st.floats(-(top + 3) * scale, (top + 3) * scale, allow_nan=False)
    xs = draw(st.lists(st.one_of(halves, values), min_size=n, max_size=n))
    offsets = None
    if draw(st.booleans()):
        fracs = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        offsets = [f * scale for f in draw(st.lists(fracs, min_size=n, max_size=n))]
    return xs, scale, bits, offsets


@settings(max_examples=300, deadline=None)
@given(case=level_cases())
@example(case=([0.15], 0.1, 8, [0.1]))  # level 2: (0.15 + 0.1)/0.1 rounds to 3 in float
@example(case=([0.5, 1.5, 2.5], 1.0, 8, None))  # halves go up
@example(case=([-0.5, -1.5, -2.5, -0.05], 1.0, 8, [0.5, 0.0, 1.0, 1.0]))  # negative halves
@example(case=([100.0, -100.0, 7.6, -8.6], 1.0, 4, [1.0, 0.0, 0.0, 1.0]))  # the clamp
def test_property_level_is_the_per_element_rule(case):
    xs, scale, bits, offsets = case
    p = QuantParams(scale, bits)
    got = level(np.array(xs), p, None if offsets is None else np.array(offsets))
    want = [
        reference_level(x, scale, bits, None if offsets is None else offsets[i])
        for i, x in enumerate(xs)
    ]
    assert got.tolist() == want


def test_eps_scale_is_tiny_positive():
    assert 0 < EPS_SCALE < 1e-6
