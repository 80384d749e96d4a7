"""PTQF v1 binary model format: a fixed-order, byte-exact serialization of
the layer stack with its quantization state.

The format is deliberately dumb: explicit little-endian records, float32
weight blobs, float64 scales. Identical networks serialize to identical
bytes, which is what the determinism guarantee rests on.

An int8 layer's weight blob is the weight its forward convolves with:
rounding offsets are folded in when a layer is frozen and never written.
Files from older writers may still carry an offsets record after the
quantizers (flag 4); the reader folds it into the weight with
`network.freeze`, so such a layer predicts as it did when it was saved.
"""

from __future__ import annotations

import struct

import numpy as np

from .network import LayerSpec, Network, freeze
from .quant import QuantParams

MAGIC = b"PTQF"
VERSION = 1

_ROLE_TRUNK, _ROLE_HEATMAP, _ROLE_REG = 0, 1, 2
_ACT = {"none": 0, "relu": 1}
_ACT_INV = {v: k for k, v in _ACT.items()}
_PREC = {"fp": 0, "int8": 1}
_PREC_INV = {v: k for k, v in _PREC.items()}

_FLAG_WQ, _FLAG_AQ, _FLAG_THETA = 1, 2, 4


class ModelIOError(IOError):
    pass


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
    w = np.ascontiguousarray(layer.weight, dtype="<f4")
    out.append(struct.pack("<B", w.ndim))
    out.append(struct.pack(f"<{w.ndim}I", *w.shape))
    out.append(w.tobytes())
    b = np.ascontiguousarray(layer.bias, dtype="<f4")
    out.append(struct.pack("<I", b.size))
    out.append(b.tobytes())
    for q in (layer.w_quant, layer.a_quant):
        if q is not None:
            out.append(struct.pack("<diB", q.scale, q.zero_point, q.bits))
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


def _read_layer(r: _Reader):
    (name_len,) = r.unpack("<H")
    name = r.take(name_len).decode("utf-8")
    role, act, stride, padding, prec, flags = r.unpack("<BBBBBB")
    (ndim,) = r.unpack("<B")
    shape = r.unpack(f"<{ndim}I")
    w = np.frombuffer(r.take(4 * int(np.prod(shape))), dtype="<f4").reshape(shape).copy()
    (blen,) = r.unpack("<I")
    bias = np.frombuffer(r.take(4 * blen), dtype="<f4").copy()
    w_quant = a_quant = None
    if flags & _FLAG_WQ:
        scale, zp, bits = r.unpack("<diB")
        w_quant = QuantParams(scale, bits, zp)
    if flags & _FLAG_AQ:
        scale, zp, bits = r.unpack("<diB")
        a_quant = QuantParams(scale, bits, zp)
    layer = LayerSpec(
        name=name,
        weight=w,
        bias=bias,
        stride=stride,
        padding=padding,
        activation=_ACT_INV[act],
        w_quant=w_quant,
        a_quant=a_quant,
        precision=_PREC_INV[prec],
    )
    if flags & _FLAG_THETA:
        if layer.precision != "int8" or w_quant is None:
            raise ModelIOError(f"{name}: rounding offsets on a layer that is not int8")
        offsets = np.frombuffer(r.take(4 * w.size), dtype="<f4").reshape(shape)
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
    if version != VERSION:
        raise ModelIOError(f"{path}: unsupported version {version}")
    layers, heads = [], {}
    for _ in range(count):
        layer, role = _read_layer(r)
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
