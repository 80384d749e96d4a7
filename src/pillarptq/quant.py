"""Symmetric integer quantization: uniform, signed, per-tensor.

The scheme has no zero point: a scale and a bit-width define the grid, the
integer range is [-2^(bits-1), 2^(bits-1) - 1] and level 0 is the value 0.

`clip_scale` is the one clip rule: a grid that clips at +-t has the scale
2t / (2^bits - 1). Every calibrator in `calib` picks a threshold t (max|x|,
the KL scan's clip, the grid search's best candidate) and this turns it into
a scale; an all-zero tensor (t = 0) gets `EPS_SCALE`.

`level` is the one level rule: round half away from zero, optionally steered
up by a rounding offset, then clamp to the range. Every code in the toolkit
comes from it: `fake_quant` and `calib._direct_mse` (numpy round trips, the
latter in place), `autodiff.fake_quant_op` (the tape node scale optimization
differentiates), `network.freeze` (the integer weight codes an int8 layer
holds and the model file stores) and the int8 forward (its input codes).

Rounding offsets are optimizer state: `network.freeze` folds them into the
weight codes, so no offsets are kept on a layer or written to a model file.

Int8 means 8 bits: `QuantParams` is a grid of 2 bits or more (the grid
search builds wider ones internally), but a quantized layer holds grids of 2
to `MAX_BITS` = 8 bits, its codes one `np.int8` each, and `network.check_int8`
keeps its code GEMM exact in float32. `PipelineConfig` refuses other widths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Scale assigned to tensors that are identically zero; keeps downstream
# arithmetic finite while making the degenerate path explicit.
EPS_SCALE = 1e-8

MAX_BITS = 8


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


def level(x: np.ndarray, p: QuantParams, offset: Optional[np.ndarray] = None, *, in_range=False):
    """Integer level of x on the grid p, in x/scale's float dtype:
    clamp(round_half_away(x/scale), q_min, q_max).

    An effective offset in [0, scale] can steer the level up by one before
    the clamp. round((x + offset)/scale) can land two levels above
    round(x/scale) through float error (x=0.15, offset=0.1, scale=0.1 gives
    3, not 2) or a negative half tie; an offset only chooses between rounding
    down and up, so the steered level is kept within one level above.

    With `in_range`, also returns the mask of the entries the clamp left as
    they were: the straight-through mask of `autodiff.fake_quant_op`.
    """
    # round_half_away(x / scale), in place in one buffer: x / scale has x's sign
    k = np.asarray(np.divide(x, p.scale))
    np.copysign(np.floor(np.add(np.abs(k, out=k), 0.5, out=k), out=k), x, out=k)
    if offset is not None:
        k = np.clip(round_half_away((x + offset) / p.scale), k, k + 1)
    clamped = np.clip(k, p.q_min, p.q_max, out=None if in_range else k)
    return (clamped, clamped == k) if in_range else clamped


def _check_finite(x: np.ndarray) -> None:
    bad = ~np.isfinite(x)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise QuantError(f"non-finite input element at index {idx}")


def clip_scale(t: float, bits: int) -> float:
    """The scale of the symmetric grid that clips at +-t: 2t / (2^bits - 1),
    and `EPS_SCALE` at t = 0. Every calibrator picks a threshold t; this is
    the one place it becomes a scale."""
    if not 0.0 <= t < math.inf:
        raise QuantError(f"need a finite clip threshold >= 0, got {t!r}")
    return 2.0 * float(t) / (2 ** int(bits) - 1) if t > 0.0 else EPS_SCALE


def fake_quant(x: np.ndarray, p: QuantParams) -> np.ndarray:
    """Quantize-then-dequantize in float (round trip through the integer grid)."""
    arr = np.asarray(x)
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    arr = arr.astype(np.float64, copy=False)
    _check_finite(arr)
    return (level(arr, p) * p.scale).astype(dtype)
