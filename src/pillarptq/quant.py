"""Simulated (fake) quantization math: uniform signed symmetric, per-tensor.

The scheme has no zero point: a scale and a bit-width define the grid, the
integer range is [-2^(bits-1), 2^(bits-1) - 1] and level 0 is the value 0.

All functions are pure and operate on numpy arrays. `fake_quant` simulates
integer arithmetic in float so the rest of the toolkit can measure and
optimize quantization error without integer kernels. The `quantize` /
`dequantize` pair is the weight codec of the model file: `modelio` writes an
int8 layer's weight as `quantize` codes and rebuilds it with `dequantize`.

Rounding offsets are optimizer state: `steered_level` is the level rule that
`autodiff.fake_quant_op` applies while they are learned, and
`network.freeze` folds them into the weight, so no offsets are kept on a
layer, passed to `fake_quant` or written to a model file.
"""

from __future__ import annotations

import math
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
    """Scale and bit-width of one tensor's symmetric grid."""

    scale: float
    bits: int = 8

    def __post_init__(self):
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise QuantError(f"scale must be finite and > 0, got {self.scale!r}")
        if int(self.bits) < 2:
            raise QuantError(f"bits must be >= 2, got {self.bits!r}")

    @property
    def q_min(self) -> int:
        return -(1 << (self.bits - 1))

    @property
    def q_max(self) -> int:
        return (1 << (self.bits - 1)) - 1


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

    out[i] = clamp(round(x[i]/scale), q_min, q_max)
    """
    x = np.asarray(x, dtype=np.float64)
    _check_finite(x)
    q = round_half_away(x / p.scale)
    return np.clip(q, p.q_min, p.q_max).astype(np.int64)


def dequantize(x_int: np.ndarray, p: QuantParams) -> np.ndarray:
    """Map integers back to float: x_int * scale."""
    x_int = np.asarray(x_int)
    if x_int.size and (x_int.min() < p.q_min or x_int.max() > p.q_max):
        raise QuantError(
            f"integer input outside [{p.q_min}, {p.q_max}]: "
            f"min={x_int.min()}, max={x_int.max()}"
        )
    return x_int.astype(np.float64) * p.scale


def scale_from_range(x_min: float, x_max: float, bits: int) -> float:
    """Derive the scale from a quantization range: (x_max - x_min) / (2^bits - 1)."""
    if not (x_max > x_min):
        raise QuantError(f"need x_max > x_min, got [{x_min}, {x_max}]")
    return (float(x_max) - float(x_min)) / (2 ** int(bits) - 1)


def fake_quant(x: np.ndarray, p: QuantParams) -> np.ndarray:
    """Quantize-then-dequantize in float (round trip through the integer grid)."""
    arr = np.asarray(x)
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    arr = arr.astype(np.float64, copy=False)
    _check_finite(arr)
    q = np.clip(round_half_away(arr / p.scale), p.q_min, p.q_max)
    return (q * p.scale).astype(dtype)
