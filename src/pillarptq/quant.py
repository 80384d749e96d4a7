"""Simulated (fake) quantization math: uniform signed symmetric, per-tensor.

All functions are pure and operate on numpy arrays; the quantize/dequantize
pair simulates integer arithmetic in float so the rest of the toolkit can
measure and optimize quantization error without integer kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# Scale assigned to tensors that are identically zero; keeps downstream
# arithmetic finite while making the degenerate path explicit.
EPS_SCALE = 1e-8


class QuantError(ValueError):
    """Invalid quantization parameters or out-of-contract input."""


@dataclass(frozen=True)
class QuantParams:
    """Scale / zero-point / bit-width for one tensor.

    The scheme is signed symmetric: zero_point is pinned to 0 and the
    integer range is [-2^(bits-1), 2^(bits-1) - 1].
    """

    scale: float
    bits: int = 8
    zero_point: int = 0

    def __post_init__(self):
        if not np.isfinite(self.scale) or self.scale <= 0.0:
            raise QuantError(f"scale must be finite and > 0, got {self.scale!r}")
        if int(self.bits) < 2:
            raise QuantError(f"bits must be >= 2, got {self.bits!r}")
        if int(self.zero_point) != 0:
            raise QuantError("symmetric scheme requires zero_point == 0")

    @property
    def q_min(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def q_max(self) -> int:
        return (1 << (self.bits - 1)) - 1


@dataclass(frozen=True)
class RoundingOffsets:
    """Per-weight additive offsets steering round-up vs round-down.

    Values are stored raw; the effective offset is clipped into [0, scale]
    at read time, so offset/scale always lands in [0, 1].
    """

    theta: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.theta)
        arr.setflags(write=False)
        object.__setattr__(self, "theta", arr)

    def effective(self, scale: float) -> np.ndarray:
        return np.clip(self.theta, 0.0, scale)


def round_half_away(x: np.ndarray) -> np.ndarray:
    """Round to nearest with halves away from zero (deterministic tie rule)."""
    x = np.asarray(x)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def steered_level(x: np.ndarray, scale: float, offset: Optional[np.ndarray] = None) -> np.ndarray:
    """Integer level of x/scale before the range clamp, optionally steered up
    by an effective offset in [0, scale].

    round((x + offset)/scale) can land two levels above round(x/scale) through
    float error (x=0.15, offset=0.1, scale=0.1 gives 3, not 2) or a negative
    half tie; an offset only chooses between rounding down and up, so the
    steered level is clamped to [round(x/scale), round(x/scale) + 1].
    """
    level = round_half_away(x / scale)
    if offset is None:
        return level
    return np.clip(round_half_away((x + offset) / scale), level, level + 1)


def _check_finite(x: np.ndarray) -> None:
    bad = ~np.isfinite(x)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise QuantError(f"non-finite input element at index {idx}")


def quantize(x: np.ndarray, p: QuantParams) -> np.ndarray:
    """Map float values onto the clamped integer grid.

    out[i] = clamp(round(x[i]/scale) + zero_point, q_min, q_max)
    """
    x = np.asarray(x, dtype=np.float64)
    _check_finite(x)
    q = round_half_away(x / p.scale) + p.zero_point
    return np.clip(q, p.q_min, p.q_max).astype(np.int64)


def dequantize(x_int: np.ndarray, p: QuantParams) -> np.ndarray:
    """Map integers back to float: (x_int - zero_point) * scale."""
    x_int = np.asarray(x_int)
    if x_int.size and (x_int.min() < p.q_min or x_int.max() > p.q_max):
        raise QuantError(
            f"integer input outside [{p.q_min}, {p.q_max}]: "
            f"min={x_int.min()}, max={x_int.max()}"
        )
    return (x_int.astype(np.float64) - p.zero_point) * p.scale


def scale_from_range(x_min: float, x_max: float, bits: int) -> float:
    """Derive the scale from a quantization range: (x_max - x_min) / (2^bits - 1)."""
    if not (x_max > x_min):
        raise QuantError(f"need x_max > x_min, got [{x_min}, {x_max}]")
    return (float(x_max) - float(x_min)) / (2 ** int(bits) - 1)


def fake_quant(
    x: np.ndarray,
    p: QuantParams,
    theta: Optional[RoundingOffsets] = None,
) -> np.ndarray:
    """Quantize-then-dequantize in float (round trip through the integer grid).

    With `theta`, the offsets are added to x before scaling so each weight can
    be nudged across its rounding boundary, by at most one level; theta == 0
    reproduces the plain round trip exactly.
    """
    arr = np.asarray(x)
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    arr = arr.astype(np.float64, copy=False)
    _check_finite(arr)
    offset = None
    if theta is not None:
        if theta.theta.shape != arr.shape:
            raise QuantError(
                f"offset shape {theta.theta.shape} != tensor shape {arr.shape}"
            )
        offset = theta.effective(p.scale)
    q = np.clip(steered_level(arr, p.scale, offset), p.q_min, p.q_max)
    return (q * p.scale).astype(dtype)


def round_trip_error_bound(x: np.ndarray, p: QuantParams) -> float:
    """Max |x - fake_quant(x)| over the tensor; <= scale/2 for in-range x."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(x - fake_quant(x, p))))
