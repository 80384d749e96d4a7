"""Unit tests for the symmetric integer quantization primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarptq.quant import (
    EPS_SCALE,
    QuantError,
    QuantParams,
    RoundingOffsets,
    dequantize,
    fake_quant,
    quantize,
    round_half_away,
    round_trip_error_bound,
    scale_from_range,
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

    def test_rejects_nonzero_zero_point(self):
        with pytest.raises(QuantError):
            QuantParams(scale=0.1, zero_point=3)

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


# -- quantize / dequantize ----------------------------------------------------------


class TestQuantizeDequantize:
    def test_pinned_values_power_of_two_scale(self):
        p = QuantParams(scale=0.25, bits=8)
        x = np.array([0.875, -0.875, 0.625, 0.0])
        # 3.5 -> 4, -3.5 -> -4, 2.5 -> 3 under the away-from-zero tie rule
        np.testing.assert_array_equal(quantize(x, p), [4, -4, 3, 0])

    def test_clamps_to_integer_range(self):
        p = QuantParams(scale=1.0, bits=4)
        np.testing.assert_array_equal(
            quantize(np.array([100.0, -100.0]), p), [7, -8]
        )

    def test_matches_scalar_reference(self, rng):
        x = rng.normal(0, 3, size=500)
        for bits in (4, 8):
            p = QuantParams(scale=0.07, bits=bits)
            got = dequantize(quantize(x, p), p)
            want = [scalar_round_trip(v, 0.07, bits) for v in x]
            np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)

    def test_dequantize_rejects_out_of_range_integers(self):
        p = QuantParams(scale=1.0, bits=8)
        with pytest.raises(QuantError):
            dequantize(np.array([128]), p)
        with pytest.raises(QuantError):
            dequantize(np.array([-129]), p)

    def test_rejects_non_finite_input(self):
        p = QuantParams(scale=1.0, bits=8)
        with pytest.raises(QuantError):
            quantize(np.array([1.0, np.nan]), p)
        with pytest.raises(QuantError):
            fake_quant(np.array([np.inf]), p)


# -- scale derivation ----------------------------------------------------------------


class TestScaleFromRange:
    def test_symmetric_range_int8(self):
        # (t - (-t)) / (2^8 - 1)
        assert scale_from_range(-1.0, 1.0, 8) == pytest.approx(2.0 / 255.0)

    def test_rejects_empty_range(self):
        with pytest.raises(QuantError):
            scale_from_range(1.0, 1.0, 8)

    def test_widest_representable_value_is_covered(self):
        t = 3.7
        p = QuantParams(scale=scale_from_range(-t, t, 8), bits=8)
        # t itself must survive the round trip within half a step
        assert abs(fake_quant(np.array(t), p) - t) <= p.scale / 2 + 1e-12


# -- fake quantization ----------------------------------------------------------------


class TestFakeQuant:
    def test_equals_quantize_then_dequantize(self, rng):
        x = rng.normal(0, 2, size=1000)
        p = QuantParams(scale=0.05, bits=8)
        np.testing.assert_array_equal(fake_quant(x, p), dequantize(quantize(x, p), p))

    def test_error_bound_half_step_in_range(self, rng):
        p = QuantParams(scale=0.1, bits=8)
        x = rng.uniform(-12.0, 12.0, size=2000)  # inside +-12.7 representable span
        assert round_trip_error_bound(x, p) <= 0.05 + 1e-15

    def test_preserves_float32_dtype(self):
        p = QuantParams(scale=0.1, bits=8)
        out = fake_quant(np.ones(3, np.float32), p)
        assert out.dtype == np.float32

    def test_empty_input(self):
        p = QuantParams(scale=0.1, bits=8)
        assert round_trip_error_bound(np.array([]), p) == 0.0


# -- rounding offsets -----------------------------------------------------------------


class TestRoundingOffsets:
    def test_zero_offsets_reproduce_nearest_rounding(self, rng):
        x = rng.normal(0, 1, size=(16, 3, 3))
        p = QuantParams(scale=0.02, bits=8)
        theta = RoundingOffsets(np.zeros_like(x))
        np.testing.assert_array_equal(fake_quant(x, p, theta), fake_quant(x, p))

    def test_offset_can_push_weight_up_one_level(self):
        p = QuantParams(scale=0.25, bits=8)
        x = np.array([0.30])  # nearest level is 0.25
        up = RoundingOffsets(np.array([0.20]))
        assert fake_quant(x, p, up)[0] == pytest.approx(0.50)

    def test_raw_offsets_clip_into_zero_scale_box(self):
        p = QuantParams(scale=0.25, bits=8)
        x = np.array([0.30])
        # effective offset saturates at the scale: at most one extra level
        huge = RoundingOffsets(np.array([1e9]))
        assert fake_quant(x, p, huge)[0] == pytest.approx(0.50)
        negative = RoundingOffsets(np.array([-5.0]))
        np.testing.assert_array_equal(fake_quant(x, p, negative), fake_quant(x, p))

    def test_offset_moves_one_level_where_float_error_or_a_tie_would_give_two(self):
        # (0.15 + 0.1) / 0.1 rounds to 3 in float; -0.05 / 0.1 is a negative
        # half tie, so round-half-away puts it at -1 while -0.05 + 0.1 goes to +1
        p = QuantParams(scale=0.1, bits=8)
        x = np.array([0.15, -0.05])
        np.testing.assert_array_equal(fake_quant(x, p), [0.1, -0.1])
        steered = fake_quant(x, p, RoundingOffsets(np.array([1.0, 0.1])))
        np.testing.assert_allclose(steered, [0.2, 0.0], atol=1e-15)

    def test_effective_is_monotone_in_raw_theta(self):
        offs = RoundingOffsets(np.array([-1.0, 0.0, 0.1, 0.2, 5.0]))
        eff = offs.effective(scale=0.2)
        np.testing.assert_allclose(eff, [0.0, 0.0, 0.1, 0.2, 0.2])

    def test_shape_mismatch_raises(self):
        p = QuantParams(scale=0.1, bits=8)
        with pytest.raises(QuantError):
            fake_quant(np.zeros(4), p, RoundingOffsets(np.zeros(5)))

    def test_offsets_are_read_only(self):
        offs = RoundingOffsets(np.zeros(3))
        with pytest.raises(ValueError):
            offs.theta[0] = 1.0


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
    base = quantize(arr, p)
    steered = fake_quant(arr, p, RoundingOffsets(np.full(arr.shape, theta)))
    diff = np.abs(steered / p.scale - base)
    assert np.all(diff <= 1 + 1e-6)


def test_eps_scale_is_tiny_positive():
    assert 0 < EPS_SCALE < 1e-6
