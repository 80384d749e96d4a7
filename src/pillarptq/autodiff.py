"""Reverse-mode tape over numpy arrays.

Covers exactly the ops the detector and the quantization losses need:
elementwise arithmetic, relu/sigmoid/log/abs/clip, a sum reduction, 2-D
convolution (im2col + BLAS matmul), and a fake-quantization node with
straight-through gradients for the input, the scale, and the per-weight
rounding offsets.

A vjp may return None for a parent that needs no gradient (`requires_grad`
False); `Tensor.backward` skips it. `conv2d` and `mul` do so, so a constant
weight, bias or mask costs no gradient GEMM or product.

Convolution builds its patch matrix in one copy: the strided windows are
viewed as (C, kh, kw, B, Ho, Wo) and reshaped straight into the (C*kh*kw,
B*Ho*Wo) GEMM operand. Its adjoint scatter-adds w.T @ g into a (C, B, Hp, Wp)
buffer and returns the cropped buffer as a (B, C, H, W) view. Outputs and
gradients are bitwise those of a per-sample (B, C*kh*kw, Ho*Wo) im2col (the
reference in tests/test_autodiff.py): the GEMMs read the same operands in the
same layout, and every input cell receives its patch gradients in the same
(i, j) order. The exception is a 1x1 output map, where the per-sample patch
matrix is a column-major view and BLAS may sum in another order; the two agree
to rounding there, and the detector has no such layer.

Engine math runs in `current_dtype()` (float32 by default; tests switch to
float64 via `using_dtype`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np

from .quant import steered_level

_DTYPE = np.float32


def current_dtype():
    return _DTYPE


def set_dtype(dtype) -> None:
    global _DTYPE
    if dtype not in (np.float32, np.float64):
        raise ValueError("engine dtype must be float32 or float64")
    _DTYPE = dtype


@contextlib.contextmanager
def using_dtype(dtype):
    prev = _DTYPE
    set_dtype(dtype)
    try:
        yield
    finally:
        set_dtype(prev)


class Tensor:
    """A numpy array plus (optionally) a vjp closure linking it to its parents."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: Sequence[Tensor] = ()
        self._vjp: Optional[Callable[[np.ndarray], tuple]] = None
        self.name = name

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, vjp) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
        return out

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff --------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor into every parent."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
                continue
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._vjp is None or node.grad is None:
                continue
            handed_out = [node.grad]
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None or not parent.requires_grad:
                    continue
                # A vjp's own array (not the incoming gradient, which `add`
                # passes on, nor one handed to another parent) becomes the first
                # gradient buffer if laid out as zeros_like(parent.data) would be,
                # so later sums over parent.grad run in the same order.
                own = not any(np.may_share_memory(g, h) for h in handed_out)
                if parent.grad is not None:
                    parent.grad += g
                elif own and _zeros_like_layout(g, parent.data):
                    parent.grad = g
                else:
                    parent.grad = np.zeros_like(parent.data)
                    parent.grad += g
                handed_out.append(g)

    # -- operators ---------------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, k):
        return pow_const(self, k)

    def __truediv__(self, k):
        if isinstance(k, Tensor):
            raise TypeError("division by a Tensor is not supported; use mul + reciprocal constants")
        return mul(self, 1.0 / float(k))


def _zeros_like_layout(g: np.ndarray, d: np.ndarray) -> bool:
    """True when g is laid out as np.zeros_like(d) would be: d's shape, dtype
    and strides, where those strides tile memory without gaps, overlaps or
    negative steps (the case in which zeros_like keeps d's element order)."""
    if (g.shape, g.strides, g.dtype) != (d.shape, d.strides, d.dtype):
        return False
    step = d.itemsize
    for stride, n in sorted((s, n) for s, n in zip(d.strides, d.shape) if n > 1):
        if stride != step:
            return False
        step *= n
    return True


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (the adjoint of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise ops --------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)

    return Tensor._from_op(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return Tensor._from_op(out, (a, b), vjp)


def pow_const(a, k) -> Tensor:
    a = as_tensor(a)
    k = float(k)
    out = a.data**k

    def vjp(g):
        return (g * k * a.data ** (k - 1.0),)

    return Tensor._from_op(out, (a,), vjp)


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return Tensor._from_op(out, (a,), vjp)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out = np.abs(a.data)

    def vjp(g):
        return (g * np.sign(a.data),)

    return Tensor._from_op(out, (a,), vjp)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return Tensor._from_op(a.data * mask, (a,), vjp)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # split by sign so exp never sees a positive argument (no overflow)
    pos = a.data >= 0
    ez = np.exp(np.where(pos, -a.data, a.data))
    out = np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (a,), vjp)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where the clamp is inactive."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def vjp(g):
        return (g * mask,)

    return Tensor._from_op(out, (a,), vjp)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    out = np.asarray(a.data.sum())

    def vjp(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor._from_op(out, (a,), vjp)


# -- convolution -------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(B, C, H, W) -> (C*kh*kw, B*Ho*Wo) patch matrix, in one copy.

    The windows are an `as_strided` view already ordered (C, kh, kw, B, Ho,
    Wo), so the one reshape lays them out as the GEMM operand.
    """
    b, c, h, w = x.shape
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(c, kh, kw, b, ho, wo),
        strides=(s1, s2, s3, s0, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows.reshape(c * kh * kw, b * ho * wo), ho, wo


def _col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int, pad: int):
    """Adjoint of _im2col: scatter-add the (C*kh*kw, B*Ho*Wo) patch gradient
    back onto the input, returned as a (B, C, H, W) view of a (C, B, ...) buffer."""
    b, c, h, w = x_shape
    hp, wp = h + 2 * pad, w + 2 * pad
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    out = np.zeros((c, b, hp, wp), dtype=cols.dtype)
    cols = cols.reshape(c, kh, kw, b, ho, wo)
    for i in range(kh):
        for j in range(kw):
            out[:, :, i : i + ho * stride : stride, j : j + wo * stride : stride] += cols[:, i, j]
    return out[:, :, pad : hp - pad, pad : wp - pad].transpose(1, 0, 2, 3)


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 2-D cross-correlation: (B,Cin,H,W) x (Cout,Cin,kh,kw) -> (B,Cout,Ho,Wo).

    One BLAS call, (Cout, K) @ (K, B*P) with K = Cin*kh*kw and P = Ho*Wo, on
    the patch matrix `_im2col` builds in its single copy. The vjp returns None
    for each of x, weight and bias that needs no gradient, and the patch
    matrix is kept for the backward pass only when the weight needs one.
    Outputs and gradients are bitwise the per-sample im2col's: the same GEMM
    operands and the same scatter-add order (see the module docstring).
    """
    x, weight = as_tensor(x), as_tensor(weight)
    if bias is not None:
        bias = as_tensor(bias)
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ValueError(
            f"conv2d expects 4-D input and weight, got {x.data.shape} and {weight.data.shape}"
        )
    if x.data.shape[1] != weight.data.shape[1]:
        raise ValueError(
            f"channel mismatch: input {x.data.shape} vs weight {weight.data.shape}"
        )
    cout, cin, kh, kw = weight.data.shape
    flat, ho, wo = _im2col(x.data, kh, kw, stride, padding)
    w2 = weight.data.reshape(cout, cin * kh * kw)
    bsz = x.data.shape[0]
    out = (w2 @ flat).reshape(cout, bsz, ho * wo).transpose(1, 0, 2)
    out = out.reshape(bsz, cout, ho, wo)
    if bias is not None:
        out = out + bias.data.reshape(1, cout, 1, 1)
    # The patch matrix is needed again only for the weight gradient.
    patches = flat if weight.requires_grad else None

    def vjp(g):
        gflat = g.reshape(bsz, cout, ho * wo)
        gout = gflat.transpose(1, 0, 2).reshape(cout, bsz * ho * wo)
        gx = gw = gb = None
        if x.requires_grad:
            gx = _col2im(w2.T @ gout, x.data.shape, kh, kw, stride, padding)
        if patches is not None:
            gw = (gout @ patches.T).reshape(weight.data.shape)
        if bias is not None and bias.requires_grad:
            gb = gflat.sum(axis=(0, 2))
        return (gx, gw) if bias is None else (gx, gw, gb)

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._from_op(out, parents, vjp)


# -- fake quantization with straight-through gradients ------------------------------


def fake_quant_op(
    x,
    scale,
    bits: int,
    theta=None,
) -> Tensor:
    """Fake-quantize `x` with learnable scale (and optional rounding offsets).

    Forward is the hard round trip: s * clamp(k, qmin, qmax), with k the
    level `quant.steered_level` picks for x and the offset clip(theta, 0, s).
    Gradients:
      x:     pass-through where the pre-clamp integer is in range, else 0
      theta: same mask, additionally zero where the [0, s] clip is active
      scale: the clamped integer itself (integer held fixed inside the range;
             the clamp bound at saturated entries)
    """
    x, scale = as_tensor(x), as_tensor(scale)
    if scale.data.size != 1:
        raise ValueError("per-tensor quantization: scale must be scalar")
    if theta is not None:
        theta = as_tensor(theta)
        if theta.data.shape != x.data.shape:
            raise ValueError(
                f"offset shape {theta.data.shape} != tensor shape {x.data.shape}"
            )
    q_min = -(1 << (bits - 1))
    q_max = (1 << (bits - 1)) - 1
    s = float(scale.data)
    if not (s > 0.0):
        raise ValueError(f"scale must be > 0, got {s}")

    if theta is not None:
        k = steered_level(x.data, s, np.clip(theta.data, 0.0, s))
        theta_pass = (theta.data >= 0.0) & (theta.data <= s)
    else:
        k = steered_level(x.data, s)
        theta_pass = None
    in_range = (k >= q_min) & (k <= q_max)
    k_clamped = np.clip(k, q_min, q_max)
    out = k_clamped * s

    def vjp(g):
        gx = g * in_range
        gs = np.asarray((g * k_clamped).sum(), dtype=g.dtype).reshape(scale.data.shape)
        grads = [gx, gs]
        if theta is not None:
            grads.append(g * (in_range & theta_pass))
        return tuple(grads)

    parents = (x, scale) if theta is None else (x, scale, theta)
    return Tensor._from_op(out, parents, vjp)
