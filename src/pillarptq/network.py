"""Conv layers with their quantization state, and `run`, the one forward
over an ordered layer stack.

A layer is "int8" exactly when it holds its weight and activation
quantizers, and "fp" when it holds neither; `precision` reads that, it is
not set. `freeze` is the one place that makes a layer int8: it replaces the
float weight by its integer codes, any learned rounding offsets folded in,
and holds `engine_grid` quantizers, the scales rounded to the engine dtype.
The codes and scales are what the model file stores. Offsets are optimizer
state and never outlive the freeze.

The int8 forward is integer arithmetic plus one rescale (Jacob et al.): the
input's levels k_x, no tape and no masks; acc = conv(k_x, k_w), a float32
sum that `check_int8` keeps exact; out = acc * (s_a * s_w) + bias.

`run` serves every caller: float training (live weights and biases), layer
input capture (one trunk layer at a time), the task loss of scale
optimization (from the layer being quantized, its live fake-quantized weight
passed in, through the float tail to the heads) and detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .quant import MAX_BITS, QuantParams, level


class NetworkError(ValueError):
    """Structural problem in a layer stack or a forward call."""


@dataclass
class LayerSpec:
    """One conv layer plus its per-layer quantization state.

    An int8 layer holds both `engine_grid` quantizers, which pass
    `check_int8`, and, as its weight, integer codes inside the `w_quant`
    range; `freeze` and the model reader are what set them. A float layer
    holds neither quantizer.
    """

    name: str
    weight: np.ndarray  # (out_ch, in_ch, kh, kw)
    bias: np.ndarray  # (out_ch,)
    stride: int = 1
    padding: int = 0
    activation: str = "relu"  # "relu" | "none"
    w_quant: Optional[QuantParams] = None
    a_quant: Optional[QuantParams] = None

    def __post_init__(self):
        self.weight = np.asarray(self.weight)
        self.bias = np.asarray(self.bias)
        if self.weight.ndim != 4:
            raise NetworkError(f"{self.name}: weight must be 4-D, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise NetworkError(
                f"{self.name}: bias shape {self.bias.shape} != out_ch {self.weight.shape[0]}"
            )
        if self.activation not in ("relu", "none"):
            raise NetworkError(f"{self.name}: unknown activation {self.activation!r}")
        if (self.a_quant is None) != (self.w_quant is None):
            raise NetworkError(f"{self.name}: a layer holds both quantizers or neither")
        q, w = self.w_quant, self.weight
        if q is None:
            return
        check_int8(self.name, w[0].size, q, self.a_quant)
        if not (np.issubdtype(w.dtype, np.integer) and np.all((q.q_min <= w) & (w <= q.q_max))):
            raise NetworkError(
                f"{self.name}: an int8 layer's weight must be integer codes, none "
                f"outside [{q.q_min}, {q.q_max}]; got {w.dtype} in [{w.min()}, {w.max()}]"
            )

    @property
    def precision(self) -> str:
        return "fp" if self.w_quant is None else "int8"

    @property
    def out_ch(self) -> int:
        return self.weight.shape[0]

    @property
    def in_ch(self) -> int:
        return self.weight.shape[1]

    def copy(self) -> "LayerSpec":
        return replace(self, weight=self.weight.copy(), bias=self.bias.copy())


@dataclass
class Network:
    """Ordered trunk of LayerSpecs with named head layers attached at the end."""

    layers: list
    heads: Dict[str, LayerSpec] = field(default_factory=dict)
    input_spec: tuple = ()  # (channels, H, W)

    def __post_init__(self):
        for prev, cur in zip(self.layers, self.layers[1:]):
            if cur.in_ch != prev.out_ch:
                raise NetworkError(
                    f"channel mismatch {prev.name}({prev.out_ch}) -> {cur.name}({cur.in_ch})"
                )
        if self.layers:
            tail_ch = self.layers[-1].out_ch
            for head in self.heads.values():
                if head.in_ch != tail_ch:
                    raise NetworkError(
                        f"head {head.name} expects {head.in_ch} channels, trunk emits {tail_ch}"
                    )

    def layer(self, name: str) -> LayerSpec:
        for l in self.layers:
            if l.name == name:
                return l
        if name in self.heads:
            return self.heads[name]
        raise NetworkError(f"unknown layer {name!r}")

    def layer_index(self, name: str) -> int:
        for i, l in enumerate(self.layers):
            if l.name == name:
                return i
        raise NetworkError(f"unknown trunk layer {name!r}")

    def copy(self) -> "Network":
        return Network(
            layers=[l.copy() for l in self.layers],
            heads={k: v.copy() for k, v in self.heads.items()},
            input_spec=tuple(self.input_spec),
        )


def check_int8(name: str, k: int, w_quant: QuantParams, a_quant: QuantParams) -> None:
    """The int8 rule for a layer whose outputs each sum k products: grids of at
    most `MAX_BITS` bits, and k * 2^(bits_w + bits_a - 2) <= 2^24, so float32
    sums the code GEMM exactly (k <= 1024 at W8A8)."""
    bits = f"W{w_quant.bits}A{a_quant.bits}"
    if max(w_quant.bits, a_quant.bits) > MAX_BITS:
        raise NetworkError(f"{name}: an int8 layer holds at most {MAX_BITS}-bit grids, got {bits}")
    if k << (w_quant.bits + a_quant.bits - 2) > 1 << 24:
        raise NetworkError(f"{name}: {k} products at {bits} can sum past 2^24, inexact in float32")


# -- forward ------------------------------------------------------------------------


def engine_grid(q: QuantParams) -> QuantParams:
    """`q` with its scale rounded to the engine dtype: the quantizer a frozen
    layer holds and the step its integer codes count."""
    return QuantParams(float(np.asarray(q.scale, dtype=ad.current_dtype())), q.bits)


def freeze(
    layer: LayerSpec,
    w_quant: QuantParams,
    a_quant: QuantParams,
    offsets: Optional[np.ndarray] = None,
) -> None:
    """Put `layer` in int8 mode: it holds `engine_grid` of these quantizers,
    and its weight is replaced by its integer codes on the held `w_quant`
    grid, the level `quant.level` gives each weight in the engine dtype.

    `offsets` are per-weight rounding offsets, as `autodiff.fake_quant_op`
    takes them; they are clipped into [0, scale] and steer the codes.
    A layer the int8 rule (`check_int8`) refuses is left as it was.
    """
    if layer.precision == "int8":
        raise NetworkError(f"{layer.name}: already int8; its weight is integer codes")
    if offsets is not None and np.shape(offsets) != layer.weight.shape:
        raise NetworkError(
            f"{layer.name}: offset shape {np.shape(offsets)} != weight shape {layer.weight.shape}"
        )
    check_int8(layer.name, layer.weight[0].size, w_quant, a_quant)
    grid = engine_grid(w_quant)
    dtype = ad.current_dtype()
    theta = None
    if offsets is not None:
        # clipped in the engine dtype, in which the bound is exact
        theta = np.clip(np.asarray(offsets, dtype), 0.0, grid.scale)
    codes = level(np.asarray(layer.weight, dtype), grid, theta)
    layer.weight = codes.astype(np.int8)
    layer.w_quant = grid
    layer.a_quant = engine_grid(a_quant)


def _int8_conv(x: Tensor, layer: LayerSpec) -> Tensor:
    """The int8 forward, off the tape: conv(k_x, k_w) * (s_a * s_w) + bias,
    the codes' GEMM exact in the engine dtype (`check_int8`)."""
    w_q, a_q = layer.w_quant, layer.a_quant
    k_x = level(x.data, a_q)
    acc = ad.conv2d(k_x, layer.weight, None, layer.stride, layer.padding).data
    acc *= a_q.scale * w_q.scale  # in place: the conv's output array is this call's own
    acc += layer.bias.reshape(1, -1, 1, 1)
    return Tensor(acc)


def conv2d(x: Tensor, layer: LayerSpec, weights: Optional[dict] = None) -> Tensor:
    """Layer convolution (plus bias), honoring the layer's precision.

    A live weight in `weights` (see `run`) is convolved as given, with no
    quantizer; otherwise an int8 layer runs `_int8_conv`.
    """
    x = ad.as_tensor(x)
    if x.data.ndim != 4:
        raise NetworkError(f"{layer.name}: input must be (B,C,H,W), got {x.data.shape}")
    if x.data.shape[1] != layer.in_ch:
        raise NetworkError(
            f"{layer.name}: input shape {x.data.shape} incompatible with "
            f"weight shape {layer.weight.shape}"
        )
    weights = weights or {}
    w = weights.get(f"{layer.name}.w")
    if w is None and layer.w_quant is not None:
        return _int8_conv(x, layer)
    if w is None:
        w = Tensor(layer.weight)
    b = weights.get(f"{layer.name}.b", Tensor(layer.bias))
    return ad.conv2d(x, w, b, layer.stride, layer.padding)


def layer_forward(x: Tensor, layer: LayerSpec, weights: Optional[dict] = None) -> Tensor:
    out = conv2d(x, layer, weights)
    if layer.activation == "relu":
        out = ad.relu(out)
    return out


def run(
    net: Network,
    x,
    start: int = 0,
    stop: Optional[int] = None,
    heads: bool = False,
    weights: Optional[Dict[str, Tensor]] = None,
):
    """Trunk layers start..stop-1 on a batched (B, C, H, W) input; with
    `heads`, the (post-sigmoid heatmap, regression) pair of the trunk's end.

    `weights` maps "<layer>.w" / "<layer>.b" to live Tensors, which replace
    that layer's weight or bias and are convolved as given, with no quantizer.
    """
    t = ad.as_tensor(x)
    for layer in net.layers[start:stop]:
        t = layer_forward(t, layer, weights)
    if not heads:
        return t
    hm = ad.sigmoid(layer_forward(t, net.heads["heatmap"], weights))
    return hm, layer_forward(t, net.heads["regression"], weights)


def backward(loss: Tensor, params: Dict[str, Tensor]) -> Dict[str, np.ndarray]:
    """Reverse-mode gradients of a scalar loss for the designated parameters.
    This consumes the tape: a second call on the same loss raises NetworkError."""
    on_trace = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in on_trace:
            continue
        on_trace.add(id(node))
        stack.extend(node._parents)
    for name, p in params.items():
        if id(p) not in on_trace:
            raise NetworkError(f"parameter {name!r} is not on the computation trace")
    for p in params.values():
        p.zero_grad()
    loss.backward()
    return {name: p.grad for name, p in params.items()}
