"""Reverse-mode tape over numpy arrays.

Covers exactly the ops the detector and the quantization losses need:
elementwise arithmetic, relu/sigmoid/log/abs/clip, a sum reduction, a
quadratic form over a Gram matrix (`quad_form`), 2-D convolution (im2col +
BLAS matmul), and a fake-quantization node with straight-through gradients
for the input, the scale, and the per-weight rounding offsets.

A vjp may return None for a parent that needs no gradient (`requires_grad`
False); `Tensor.backward` skips it. `conv2d`, `mul`, `add` and
`fake_quant_op` do so, so a constant weight, bias, mask, target or quantized
input costs no gradient GEMM, product or sum.

`Tensor.backward` copies a parent's first gradient only when it must: an
array handed to no other parent (a vjp's own, or the incoming gradient `add`
passes on) becomes the parent's buffer if it is laid out as
zeros_like(parent.data) would be, or in any dense layout where the parent's
own vjp is `_any_layout`: it multiplies its gradient elementwise, or reads it
only through a C-order copy, so no later sum changes order. Leaves keep their
own layout.

A tape is single-use: once every gradient is in, `Tensor.backward` unlinks
the nodes it walked, freeing interior tensors and their vjps' arrays. A conv
keeps no patch matrix on the tape at all (below).

Convolution trades a rebuild for memory (Chen et al., arXiv 1604.06174). Its
forward builds one frame's (C*kh*kw, Ho*Wo) patch matrix at a time, and that
frame's GEMM writes its columns of the channel-major (Cout, B, Ho*Wo) output;
the bias is added in place. Only the weight gradient holds the whole-batch
(C*kh*kw, B*Ho*Wo) patch matrix, rebuilt from the input the tape keeps
anyway, in one copy: the strided windows are viewed as (C, kh, kw, B, Ho, Wo)
and reshaped straight into the GEMM operand. The vjp frees it before the
input gradient's GEMM. The adjoint adds w.T @ g tap by tap into zeros laid
out as the input is, (C, B, H, W) for the channel-major conv outputs, with no
padded buffer or crop copy (w.T @ g is that buffer for a 1x1 stride-1 conv);
`Tensor.backward` adopts it. Outputs and gradients are bitwise those of a
per-sample (B, C*kh*kw, Ho*Wo) im2col (the reference in
tests/test_autodiff.py): the GEMMs read the same operands in the same layout,
and every input cell receives its patch gradients in the same (i, j) order.
At every detector conv the per-frame GEMMs also give the whole-batch GEMM's
columns bitwise (pinned for B = 1, 2, 4 and 8); a one-row GEMM need not, as
BLAS hands it to GEMV. The weight gradient is (patches @ gout.T).T, the
reference's gout @ flat.T with the operands swapped: the same sums over the
same B*Ho*Wo axis, in 0.6-0.8x the time at the detector's shapes, and bitwise
equal under OpenBLAS on 1 or 2 threads at every detector conv and B = 1 to
16. The reference keeps gout @ flat.T, so the detector-shape and per-sample
conv tests fail on a BLAS that sums the two in another order. The exception
is a 1x1 output map, where the reference's whole-batch patch matrix is a
column-major view and BLAS may sum in another order; the gradients agree to
rounding there, and the detector has no such layer.

Engine math runs in `current_dtype()` (float32 by default; tests switch to
float64 via `using_dtype`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Optional, Sequence

import numpy as np

from .quant import QuantParams, level

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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp", "_any_layout")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: Sequence[Tensor] = ()
        self._vjp: Optional[Callable[[np.ndarray], tuple]] = None
        self._any_layout = False

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _from_op(data, parents, vjp, any_layout: bool = False) -> "Tensor":
        """`any_layout`: the vjp's results are bitwise the same in any memory
        layout of its incoming gradient (see the module docstring)."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._vjp = vjp
            out._any_layout = any_layout
        return out

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    # -- autodiff --------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate gradients of this (scalar) tensor into every parent,
        then unlink the tape (see the module docstring): it is single-use."""
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
            grads = [
                (parent, g)
                for parent, g in zip(node._parents, node._vjp(node.grad))
                if g is not None and parent.requires_grad
            ]
            for i, (parent, g) in enumerate(grads):
                # adopted only if no other parent is handed the same memory
                others = (h for j, (_, h) in enumerate(grads) if j != i)
                if parent.grad is not None:
                    parent.grad += g
                elif _adoptable(g, parent) and not any(np.may_share_memory(g, h) for h in others):
                    parent.grad = g
                else:
                    parent.grad = np.zeros_like(parent.data)
                    parent.grad += g
        for node in topo:
            node._vjp, node._parents = None, ()

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


def _adoptable(g: np.ndarray, parent: Tensor) -> bool:
    """True when g may become parent's gradient buffer: parent's shape and
    dtype, strides that tile memory without gaps, overlaps or negative steps
    (as zeros_like's do), and parent.data's strides unless parent is
    `_any_layout`. A leaf never is, so its gradient keeps its layout."""
    d = parent.data
    if (g.shape, g.dtype) != (d.shape, d.dtype):
        return False
    if not parent._any_layout and g.strides != d.strides:
        return False
    step = g.itemsize
    for stride, n in sorted((s, n) for s, n in zip(g.strides, g.shape) if n > 1):
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


def _no_sum(out: np.ndarray, *parents: Tensor) -> bool:
    """True when no parent needing a gradient is broadcast, so the vjp sums
    nothing: it acts elementwise on any layout of its incoming gradient."""
    return all(p.data.shape == out.shape for p in parents if p.requires_grad)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return Tensor._from_op(out, (a, b), vjp, _no_sum(out, a, b))


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return Tensor._from_op(out, (a, b), vjp, _no_sum(out, a, b))


def log(a) -> Tensor:
    a = as_tensor(a)
    out = np.log(a.data)

    def vjp(g):
        return (g / a.data,)

    return Tensor._from_op(out, (a,), vjp, any_layout=True)


def absolute(a) -> Tensor:
    a = as_tensor(a)
    out = np.abs(a.data)

    def vjp(g):
        return (g * np.sign(a.data),)

    return Tensor._from_op(out, (a,), vjp, any_layout=True)


def relu(a) -> Tensor:
    a = as_tensor(a)
    mask = a.data > 0

    def vjp(g):
        return (g * mask,)

    return Tensor._from_op(a.data * mask, (a,), vjp, any_layout=True)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    # split by sign so exp never sees a positive argument (no overflow)
    pos = a.data >= 0
    ez = np.exp(np.where(pos, -a.data, a.data))
    out = np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))

    def vjp(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (a,), vjp, any_layout=True)


def clip(a, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where the clamp is inactive."""
    a = as_tensor(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def vjp(g):
        return (g * mask,)

    return Tensor._from_op(out, (a,), vjp, any_layout=True)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    out = np.asarray(a.data.sum())

    def vjp(g):
        return (np.broadcast_to(g, a.data.shape).copy(),)

    return Tensor._from_op(out, (a,), vjp)


def quad_form(d, gram: np.ndarray) -> Tensor:
    """sum_c d_c' G d_c in float64, d_c the rows of d as (Cout, K): for G = P P'
    of a conv's patch matrix, the squared norm of the conv of d. The vjp,
    2g (d @ G) in d's shape and dtype, is the gradient only for a symmetric G."""
    d = as_tensor(d)
    dg = d.data.reshape(len(d.data), -1) @ gram.astype(np.float64, copy=False)
    out = np.asarray((dg * d.data.reshape(dg.shape)).sum())

    def vjp(g):
        return ((dg * (2.0 * float(g))).astype(d.data.dtype).reshape(d.data.shape),)

    return Tensor._from_op(out, (d,), vjp)


# -- convolution -------------------------------------------------------------------


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """(B, C, H, W) -> (C*kh*kw, B*Ho*Wo) patch matrix, in one copy.

    The windows are an `as_strided` view already ordered (C, kh, kw, B, Ho,
    Wo), so the one reshape lays them out as the GEMM operand. Padding goes
    into a zeroed (C, B, Hp, Wp) buffer, not np.pad's C-order copy.
    """
    b, c, h, w = x.shape
    if pad:
        padded = np.zeros((c, b, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
        padded[:, :, pad : pad + h, pad : pad + w] = x.transpose(1, 0, 2, 3)
        x = padded.transpose(1, 0, 2, 3)
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


def _tap(k: int, pad: int, stride: int, size: int, n_out: int):
    """Slices: the outputs whose tap k lands in the unpadded input, and where."""
    lo = max(0, -((k - pad) // stride))
    n = max(0, min(n_out, (size - 1 + pad - k) // stride + 1) - lo)
    start = k + lo * stride - pad
    return slice(lo, lo + n), slice(start, start + n * stride, stride)


def _col2im(cols: np.ndarray, x: np.ndarray, kh: int, kw: int, stride: int, pad: int):
    """Adjoint of _im2col: adds the patch gradient tap by tap, in (i, j) order,
    into zeros laid out as x is (for a channel-major x, a (C, B, H, W) buffer)."""
    b, c, h, w = x.shape
    if (kh, kw, stride, pad) == (1, 1, 1, 0):
        return cols.reshape(c, b, h, w).transpose(1, 0, 2, 3)
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    gx = np.zeros_like(x, dtype=cols.dtype)
    out, cols = gx.transpose(1, 0, 2, 3), cols.reshape(c, kh, kw, b, ho, wo)
    for i in range(kh):
        rows, at_rows = _tap(i, pad, stride, h, ho)
        for j in range(kw):
            cols_j, at_cols = _tap(j, pad, stride, w, wo)
            out[:, :, at_rows, at_cols] += cols[:, i, j, :, rows, cols_j]
    return gx


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """Batched 2-D cross-correlation: (B,Cin,H,W) x (Cout,Cin,kh,kw) -> (B,Cout,Ho,Wo).

    One BLAS call per frame, (Cout, K) @ (K, P) with K = Cin*kh*kw and P =
    Ho*Wo, on that frame's `_im2col` patch matrix, into its columns of the
    channel-major output, plus the bias in place. The tape keeps no patch
    matrix. The vjp returns None for each of x, weight and bias that needs no
    gradient; for the weight's it rebuilds the whole-batch patch matrix from
    x, takes (patches @ gout.T).T in C order and frees the matrix, and it
    needs no padded buffer or crop copy for the input's. Outputs and
    gradients are bitwise the per-sample im2col's (see the module docstring).
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
    w2 = weight.data.reshape(cout, cin * kh * kw)
    bsz, _, h, w = x.data.shape
    ho, wo = (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1
    out = np.empty((cout, bsz, ho * wo), np.result_type(w2, x.data))
    for f in range(bsz):  # one frame's patch matrix at a time, into its columns
        np.matmul(w2, _im2col(x.data[f : f + 1], kh, kw, stride, padding)[0], out=out[:, f])
    out = out.transpose(1, 0, 2).reshape(bsz, cout, ho, wo)
    if bias is not None:
        out += bias.data.reshape(1, cout, 1, 1)

    def vjp(g):
        gflat = g.reshape(bsz, cout, ho * wo)
        gout = gflat.transpose(1, 0, 2).reshape(cout, bsz * ho * wo)
        gx = gw = gb = None
        if weight.requires_grad:  # the rebuilt patches are freed before w2.T @ gout
            gw = _im2col(x.data, kh, kw, stride, padding)[0] @ gout.T
            gw = np.ascontiguousarray(gw.T).reshape(weight.data.shape)
        if x.requires_grad:
            gx = _col2im(w2.T @ gout, x.data, kh, kw, stride, padding)
        if bias is not None and bias.requires_grad:
            gb = gflat.sum(axis=(0, 2))
        return (gx, gw) if bias is None else (gx, gw, gb)

    parents = (x, weight) if bias is None else (x, weight, bias)
    # Without a bias gradient the vjp reads g only through the C-order gout.
    any_layout = bias is None or not bias.requires_grad
    return Tensor._from_op(out, parents, vjp, any_layout)


# -- fake quantization with straight-through gradients ------------------------------


def fake_quant_op(
    x,
    scale,
    bits: int,
    theta=None,
) -> Tensor:
    """Fake-quantize `x` with learnable scale (and optional rounding offsets).

    Forward is the hard round trip s * k on the grid `QuantParams(s, bits)`,
    which raises QuantError unless s is finite and > 0 and bits >= 2; k is
    the level `quant.level` gives x and the offset theta. The caller keeps
    theta in [0, s]: `pipeline.run_lidar_ptq` projects it there after every
    step, and `network.freeze` clips the offsets it folds.
    Gradients:
      x, theta: pass-through where the clamp left the level as it was, else 0
      scale:    the clamped integer itself (integer held fixed inside the
                range; the clamp bound at saturated entries)
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
    grid = QuantParams(float(scale.data), bits)

    k, in_range = level(x.data, grid, None if theta is None else theta.data, in_range=True)
    out = k * grid.scale

    def vjp(g):
        gx = None  # one pass-through array serves x and theta, if either needs it
        if x.requires_grad or (theta is not None and theta.requires_grad):
            gx = g * in_range
        gs = None
        if scale.requires_grad:
            gs = np.asarray((g * k).sum(), dtype=g.dtype).reshape(scale.data.shape)
        grads = [gx, gs]
        if theta is not None:
            grads.append(gx)
        return tuple(grads)

    parents = (x, scale) if theta is None else (x, scale, theta)
    return Tensor._from_op(out, parents, vjp)
