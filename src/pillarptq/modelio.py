"""PTQF binary model format: a fixed-order, byte-exact serialization of
the layer stack with its quantization state.

The format is deliberately dumb: explicit little-endian records. Identical
networks serialize to identical bytes, which is what the determinism guarantee
rests on.

A file is b"PTQF", a `<HHHHH` header (version, input C, H, W, record count)
and one record per layer: the trunk in order, then the heatmap and regression
heads. A version 2 record is

    <H name length, the utf-8 name
    <BBBBBB role, activation, stride, padding, precision, flags
    <diB scale, zero point, bits of the weight quantizer (flag 1)
    <diB scale, zero point, bits of the activation quantizer (flag 2)
    <B ndim, <I per dimension, the weight
    <I bias length, float32 bias

The scheme is symmetric, so the zero point slot is always 0; the reader
refuses any other value, and any other flag. An int8 record has flags 3,
both quantizers, and a float record flags 0. The `<d` scale is the one the
layer holds, rounded to the engine dtype, float32, by `network.freeze`
(`network.engine_grid`).

An int8 layer's weight is the integer codes the layer holds, one signed
byte each; the reader keeps them as codes and refuses a record the int8 rule
(`network.check_int8`: grids of 8 bits or fewer) refuses. Every other
layer's weight is a float32 blob.

Older files may state float64 scales that float32 cannot hold; the reader
rounds every scale it reads with `network.engine_grid`, which is the grid
their codes count, so such a file loads exactly, and re-saving it changes
its scale bytes. Version 1 files, which held every weight as a float32 blob,
are refused.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .network import LayerSpec, Network, NetworkError, check_int8, engine_grid
from .quant import QuantError, QuantParams

MAGIC = b"PTQF"
VERSION = 2

_ROLE_TRUNK = 0
_HEAD_ROLES = {"heatmap": 1, "regression": 2}
_ROLE_HEADS = {v: k for k, v in _HEAD_ROLES.items()}
_ACT = {"none": 0, "relu": 1}
_ACT_INV = {v: k for k, v in _ACT.items()}
_PREC = {"fp": 0, "int8": 1}
_PREC_INV = {v: k for k, v in _PREC.items()}

_FLAG_WQ, _FLAG_AQ = 1, 2
_FLAGS = (_FLAG_WQ, _FLAG_AQ)
_INT8_FLAGS = _FLAG_WQ | _FLAG_AQ  # an int8 layer holds both quantizers


class ModelIOError(IOError):
    pass


def _pack_layer(layer: LayerSpec, role: int) -> bytes:
    name = layer.name.encode("utf-8")
    flags = 0 if layer.w_quant is None else _INT8_FLAGS
    out = [
        struct.pack("<H", len(name)),
        name,
        struct.pack(
            "<BBBBBB",
            role,
            _ACT[layer.activation],
            layer.stride,
            layer.padding,
            _PREC[layer.precision],
            flags,
        ),
    ]
    for q in (layer.w_quant, layer.a_quant):
        if q is not None:
            out.append(struct.pack("<diB", q.scale, 0, q.bits))
    w = np.ascontiguousarray(layer.weight, dtype="<f4" if flags == 0 else np.int8)
    out.append(struct.pack("<B", w.ndim))
    out.append(struct.pack(f"<{w.ndim}I", *w.shape))
    out.append(w.tobytes())
    b = np.ascontiguousarray(layer.bias, dtype="<f4")
    out.append(struct.pack("<I", b.size))
    out.append(b.tobytes())
    return b"".join(out)


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.at = 0

    def take(self, n: int) -> bytes:
        if self.at + n > len(self.buf):
            raise ModelIOError("truncated model file")
        chunk = self.buf[self.at : self.at + n]
        self.at += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def done(self) -> bool:
        return self.at == len(self.buf)


def _read_quantizer(r: _Reader, name: str) -> QuantParams:
    scale, zero_point, bits = r.unpack("<diB")
    if zero_point != 0:
        raise ModelIOError(f"{name}: zero point {zero_point} in a symmetric scheme")
    return engine_grid(QuantParams(scale, bits))


def _read_layer(r: _Reader):
    (name_len,) = r.unpack("<H")
    name = r.take(name_len).decode("utf-8")
    role, act, stride, padding, prec, flags = r.unpack("<BBBBBB")
    if act not in _ACT_INV:
        raise ModelIOError(f"{name}: unknown activation code {act}")
    if prec not in _PREC_INV:
        raise ModelIOError(f"{name}: unknown precision code {prec}")
    if stride < 1:
        raise ModelIOError(f"{name}: stride {stride} < 1")
    if flags & ~sum(_FLAGS):
        raise ModelIOError(f"{name}: unknown quantizer flags {flags}")
    if flags != (_INT8_FLAGS if _PREC_INV[prec] == "int8" else 0):
        raise ModelIOError(f"{name}: precision code {prec} with quantizer flags {flags}")
    w_quant, a_quant = [_read_quantizer(r, name) if flags & f else None for f in _FLAGS]
    (ndim,) = r.unpack("<B")
    shape = r.unpack(f"<{ndim}I")
    if w_quant is not None:  # before reading its codes a byte each
        check_int8(name, math.prod(shape[1:]), w_quant, a_quant)
    dtype = np.dtype("<f4" if w_quant is None else np.int8)
    w = np.frombuffer(r.take(dtype.itemsize * math.prod(shape)), dtype=dtype)
    w = w.astype(w.dtype.newbyteorder("=")).reshape(shape)
    (blen,) = r.unpack("<I")
    bias = np.frombuffer(r.take(4 * blen), dtype="<f4").copy()
    layer = LayerSpec(
        name=name,
        weight=w,
        bias=bias,
        stride=stride,
        padding=padding,
        activation=_ACT_INV[act],
        w_quant=w_quant,
        a_quant=a_quant,
    )
    return layer, role


def save_model(path, net: Network) -> None:
    """Write `net` as a PTQF file; a head other than heatmap or regression is refused."""
    other = sorted(set(net.heads) - set(_HEAD_ROLES))
    if other:
        raise ModelIOError(f"head {other[0]!r} has no PTQF role; heads are {tuple(_HEAD_ROLES)}")
    records = [_pack_layer(l, _ROLE_TRUNK) for l in net.layers]
    records += [_pack_layer(net.heads[k], r) for k, r in _HEAD_ROLES.items() if k in net.heads]
    c, h, w = net.input_spec
    header = MAGIC + struct.pack("<HHHHH", VERSION, c, h, w, len(records))
    with open(path, "wb") as f:
        f.write(header)
        for rec in records:
            f.write(rec)


def load_model(path) -> Network:
    buf = Path(path).read_bytes()
    if buf[:4] != MAGIC:
        raise ModelIOError(f"{path}: not a PTQF file")
    r = _Reader(buf[4:])
    version, c, h, w, count = r.unpack("<HHHHH")
    if version != VERSION:
        raise ModelIOError(f"{path}: unsupported version {version}")
    layers, heads = [], {}
    for i in range(count):
        try:
            layer, role = _read_layer(r)
        except (QuantError, NetworkError, UnicodeDecodeError) as e:
            raise ModelIOError(f"{path}: record {i}: {e}") from e
        if role == _ROLE_TRUNK:
            layers.append(layer)
        elif role in _ROLE_HEADS:
            heads[_ROLE_HEADS[role]] = layer
        else:
            raise ModelIOError(f"{path}: unknown layer role {role}")
    if not r.done():
        raise ModelIOError(f"{path}: {len(r.buf) - r.at} trailing bytes")
    return Network(layers=layers, heads=heads, input_spec=(c, h, w))
