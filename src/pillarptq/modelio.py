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
refuses any other value. An int8 record has flag 1 and a float record no
quantizer flag. The `<d` scale is the one the layer holds, rounded to the
engine dtype, float32, by `network.freeze` (`network.engine_grid`).

An int8 layer's weight is written as its integer codes, `quant.quantize` of
the weight, little-endian signed: 1 byte a code when bits <= 8, 2 bytes when
bits <= 16, 4 bytes up to 32 bits. The codes count steps of the stated
weight scale, the grid `network.freeze` puts the weight on, so the reader's
`quant.dequantize` rebuilds the frozen weight bit for bit. Every other
layer's weight is a float32 blob.

Older files may state float64 scales that float32 cannot hold; the reader
rounds every scale it reads with `network.engine_grid`, which is the grid
their codes count, so such a file loads exactly, and re-saving it changes
its scale bytes. Version 1 files still load. Their records hold every weight
as a float32 blob and put the quantizer records after the bias; flag 4
appends a float32 rounding offsets record after them. The reader freezes
each v1 int8 layer with `network.freeze`: offsets are folded in, and an
unfolded weight is put on its grid, as the int8 forward used to do on every
call. Saving always writes version 2, which has no flag 4.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .network import LayerSpec, Network, NetworkError, engine_grid, freeze
from .quant import QuantError, QuantParams, dequantize, quantize

MAGIC = b"PTQF"
VERSION = 2

_ROLE_TRUNK, _ROLE_HEATMAP, _ROLE_REG = 0, 1, 2
_ACT = {"none": 0, "relu": 1}
_ACT_INV = {v: k for k, v in _ACT.items()}
_PREC = {"fp": 0, "int8": 1}
_PREC_INV = {v: k for k, v in _PREC.items()}

_FLAG_WQ, _FLAG_AQ, _FLAG_THETA = 1, 2, 4


class ModelIOError(IOError):
    pass


def _code_dtype(bits: int) -> str:
    """The little-endian signed integer type of a `bits`-wide weight code."""
    if bits > 32:
        raise ModelIOError(f"no integer code holds {bits}-bit weights")
    return "<i1" if bits <= 8 else "<i2" if bits <= 16 else "<i4"


def _pack_layer(layer: LayerSpec, role: int) -> bytes:
    name = layer.name.encode("utf-8")
    flags = 0
    if layer.w_quant is not None:
        flags |= _FLAG_WQ
    if layer.a_quant is not None:
        flags |= _FLAG_AQ
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
    if layer.w_quant is not None:
        w = quantize(layer.weight, layer.w_quant).astype(_code_dtype(layer.w_quant.bits))
    else:
        w = np.ascontiguousarray(layer.weight, dtype="<f4")
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


def _read_layer(r: _Reader, version: int):
    (name_len,) = r.unpack("<H")
    name = r.take(name_len).decode("utf-8")
    role, act, stride, padding, prec, flags = r.unpack("<BBBBBB")
    if act not in _ACT_INV:
        raise ModelIOError(f"{name}: unknown activation code {act}")
    if prec not in _PREC_INV:
        raise ModelIOError(f"{name}: unknown precision code {prec}")
    if stride < 1:
        raise ModelIOError(f"{name}: stride {stride} < 1")
    int8 = _PREC_INV[prec] == "int8"
    if int8 != bool(flags & _FLAG_WQ):
        raise ModelIOError(f"{name}: precision code {prec} with quantizer flags {flags}")

    def quantizers():
        out = []
        for flag in (_FLAG_WQ, _FLAG_AQ):
            q = None
            if flags & flag:
                scale, zero_point, bits = r.unpack("<diB")
                if zero_point != 0:
                    raise ModelIOError(f"{name}: zero point {zero_point} in a symmetric scheme")
                q = engine_grid(QuantParams(scale, bits))
            out.append(q)
        return out

    if version > 1:
        if flags & _FLAG_THETA:
            raise ModelIOError(f"{name}: rounding offsets in a version {version} file")
        w_quant, a_quant = quantizers()
    (ndim,) = r.unpack("<B")
    shape = r.unpack(f"<{ndim}I")
    size = math.prod(shape)
    if version > 1 and int8:
        dtype = np.dtype(_code_dtype(w_quant.bits))
        codes = np.frombuffer(r.take(dtype.itemsize * size), dtype=dtype)
        w = dequantize(codes, w_quant).astype(np.float32).reshape(shape)
    else:
        w = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(shape).copy()
    (blen,) = r.unpack("<I")
    bias = np.frombuffer(r.take(4 * blen), dtype="<f4").copy()
    if version == 1:
        w_quant, a_quant = quantizers()
        if flags & _FLAG_THETA and not int8:
            raise ModelIOError(f"{name}: rounding offsets on a layer that is not int8")
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
    if version == 1 and int8:
        offsets = None
        if flags & _FLAG_THETA:
            offsets = np.frombuffer(r.take(4 * size), dtype="<f4").reshape(shape)
        freeze(layer, w_quant, a_quant, offsets)
    return layer, role


def save_model(path, net: Network) -> None:
    records = [_pack_layer(l, _ROLE_TRUNK) for l in net.layers]
    if "heatmap" in net.heads:
        records.append(_pack_layer(net.heads["heatmap"], _ROLE_HEATMAP))
    if "regression" in net.heads:
        records.append(_pack_layer(net.heads["regression"], _ROLE_REG))
    c, h, w = net.input_spec
    header = MAGIC + struct.pack("<HHHHH", VERSION, c, h, w, len(records))
    with open(path, "wb") as f:
        f.write(header)
        for rec in records:
            f.write(rec)


def load_model(path) -> Network:
    buf = open(path, "rb").read()
    if buf[:4] != MAGIC:
        raise ModelIOError(f"{path}: not a PTQF file")
    r = _Reader(buf[4:])
    version, c, h, w, count = r.unpack("<HHHHH")
    if version not in (1, VERSION):
        raise ModelIOError(f"{path}: unsupported version {version}")
    layers, heads = [], {}
    for i in range(count):
        try:
            layer, role = _read_layer(r, version)
        except (QuantError, NetworkError, UnicodeDecodeError) as e:
            raise ModelIOError(f"{path}: record {i}: {e}") from e
        if role == _ROLE_TRUNK:
            layers.append(layer)
        elif role == _ROLE_HEATMAP:
            heads["heatmap"] = layer
        elif role == _ROLE_REG:
            heads["regression"] = layer
        else:
            raise ModelIOError(f"{path}: unknown layer role {role}")
    if not r.done():
        raise ModelIOError(f"{path}: {len(r.buf) - r.at} trailing bytes")
    return Network(layers=layers, heads=heads, input_spec=(c, h, w))
