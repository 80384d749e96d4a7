"""Layer/network container tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pillarptq.autodiff as ad
from pillarptq.autodiff import Tensor
from pillarptq.network import (
    LayerSpec,
    Network,
    NetworkError,
    backward,
    engine_grid,
    freeze,
    layer_forward,
    run,
)
from pillarptq.network import conv2d as layer_conv2d
from pillarptq.losses import pow2
from pillarptq.quant import QuantParams, level


def make_layer(name="c0", out_ch=4, in_ch=3, k=3, seed=0, **kw):
    r = np.random.default_rng(seed)
    return LayerSpec(
        name=name,
        weight=r.normal(0, 0.2, (out_ch, in_ch, k, k)).astype(np.float32),
        bias=r.normal(0, 0.1, out_ch).astype(np.float32),
        padding=k // 2,
        **kw,
    )


def frozen_layer(w_quant=QuantParams(0.01), a_quant=QuantParams(0.05), **kw):
    """`make_layer(**kw)` frozen at these quantizers."""
    layer = make_layer(**kw)
    freeze(layer, w_quant, a_quant)
    return layer


def assert_untouched(layer):
    """`layer` is still the float layer `make_layer` built with its arguments."""
    fresh = make_layer(in_ch=layer.in_ch, k=layer.weight.shape[-1])
    assert layer.precision == "fp" and (layer.w_quant, layer.a_quant) == (None, None)
    assert layer.weight.dtype == np.float32 and layer.weight.tobytes() == fresh.weight.tobytes()


def int_conv(x, w, stride, pad):
    """Integer cross-correlation, accumulated in int64 over the kernel window."""
    b, _, h, wd = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    ho, wo = (h + 2 * pad - kh) // stride + 1, (wd + 2 * pad - kw) // stride + 1
    out = np.zeros((b, cout, ho, wo), dtype=np.int64)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, :, i : i + stride * ho : stride, j : j + stride * wo : stride]
            out += np.einsum("bchw,oc->bohw", patch, w[:, :, i, j])
    return out


# -- layer spec -------------------------------------------------------------------------


class TestLayerSpec:
    def test_rejects_non_4d_weight(self):
        with pytest.raises(NetworkError):
            LayerSpec("bad", np.zeros((2, 3, 3)), np.zeros(2))

    def test_rejects_bias_mismatch(self):
        with pytest.raises(NetworkError):
            LayerSpec("bad", np.zeros((2, 3, 3, 3)), np.zeros(3))

    def test_rejects_unknown_activation_and_precision(self):
        with pytest.raises(NetworkError):
            make_layer(activation="gelu")
        # precision is read from the weight quantizer, never set
        with pytest.raises(TypeError):
            make_layer(precision="int8")
        layer = make_layer()
        with pytest.raises(AttributeError):
            layer.precision = "int8"
        assert layer.precision == "fp"
        assert frozen_layer().precision == "int8"

    def test_int8_weight_must_be_codes_in_range(self):
        # an int8 layer holds integer codes on its weight grid, nothing else
        codes = np.array([-128, 0, 127], np.int8).reshape(3, 1, 1, 1)
        bias, q, a = np.zeros(3, np.float32), QuantParams(0.01), QuantParams(0.05)
        assert LayerSpec("c", codes, bias, w_quant=q, a_quant=a).precision == "int8"
        with pytest.raises(NetworkError, match="must be integer codes"):
            LayerSpec("c", codes.astype(np.float32), bias, w_quant=q, a_quant=a)
        with pytest.raises(NetworkError, match=r"outside \[-8, 7\]"):
            LayerSpec("c", codes, bias, w_quant=QuantParams(0.01, 4), a_quant=a)
        with pytest.raises(NetworkError, match=r"outside \[-128, 127\]"):
            LayerSpec("c", codes.astype(np.int16) + 1, bias, w_quant=q, a_quant=a)
        # float codes stay legal on a float layer, and a frozen copy re-checks
        assert LayerSpec("c", codes.astype(np.float32), bias).precision == "fp"
        dup = frozen_layer()
        dup.weight = dup.weight.astype(np.float32)
        with pytest.raises(NetworkError):
            dup.copy()

    def test_offsets_shape_checked(self):
        # freeze refuses offsets that do not match the weight, and a refused
        # freeze leaves the layer as it was
        layer = make_layer()
        w = layer.weight.copy()
        with pytest.raises(ValueError):
            freeze(layer, QuantParams(0.01), QuantParams(0.05), np.zeros((1, 1, 1, 1)))
        np.testing.assert_array_equal(layer.weight, w)
        assert layer.precision == "fp" and layer.w_quant is None

    def test_copy_is_deep(self):
        layer = frozen_layer()
        dup = layer.copy()
        dup.weight[0, 0, 0, 0] = 99.0
        dup.bias[0] = 99.0
        assert layer.weight[0, 0, 0, 0] != 99.0
        assert layer.bias[0] != 99.0


class TestNetwork:
    def build(self):
        c0 = make_layer("c0", out_ch=4, in_ch=3)
        c1 = make_layer("c1", out_ch=5, in_ch=4, seed=1)
        head = make_layer("hm", out_ch=2, in_ch=5, k=1, seed=2, activation="none")
        return Network(layers=[c0, c1], heads={"hm": head}, input_spec=(3, 8, 8))

    def test_trunk_channel_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            Network(layers=[make_layer("a", out_ch=4), make_layer("b", in_ch=5, out_ch=2)])

    def test_head_channel_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            Network(
                layers=[make_layer("a", out_ch=4)],
                heads={"h": make_layer("h", in_ch=3, out_ch=1, k=1)},
            )

    def test_layer_lookup_covers_heads(self):
        net = self.build()
        assert net.layer("c1").name == "c1"
        assert net.layer("hm").name == "hm"
        with pytest.raises(NetworkError):
            net.layer("nope")
        assert net.layer_index("c1") == 1
        with pytest.raises(NetworkError):
            net.layer_index("hm")  # heads are not trunk layers

    def test_copy_isolates_weights(self):
        net = self.build()
        dup = net.copy()
        dup.layers[0].weight[...] = 0.0
        assert np.abs(net.layers[0].weight).sum() > 0


# -- quantized forward --------------------------------------------------------------------


class TestQuantizedForward:
    def test_fp_layer_ignores_quantizers(self, rng):
        # a float layer holds none and convolves its weight
        layer = make_layer()
        x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        want = ad.conv2d(Tensor(x), Tensor(layer.weight), Tensor(layer.bias), 1, 1).data
        assert layer.precision == "fp" and (layer.w_quant, layer.a_quant) == (None, None)
        assert layer_conv2d(Tensor(x), layer).data.tobytes() == want.tobytes()

    def test_int8_layer_quantizes_both_tensors(self, rng):
        # freeze quantizes the weight once, the forward the input on each
        # call; the conv of the two codes is integer arithmetic, rescaled once
        layer = make_layer()
        x = rng.normal(size=(1, 3, 6, 6))
        with ad.using_dtype(np.float64):
            freeze(layer, QuantParams(0.01), QuantParams(0.05))
            got = layer_conv2d(Tensor(x), layer)
            w_q, a_q = layer.w_quant, layer.a_quant
        w_fp = make_layer().weight.astype(np.float64)
        assert layer.weight.dtype == np.int8
        np.testing.assert_array_equal(layer.weight, level(w_fp, w_q))
        acc = int_conv(level(x, a_q).astype(np.int64), layer.weight.astype(np.int64), 1, 1)
        want = acc * (a_q.scale * w_q.scale) + layer.bias.reshape(1, -1, 1, 1)
        assert got.data.dtype == np.float64 and got.data.tobytes() == want.tobytes()
        assert got._parents == () and not got.requires_grad

    def test_int8_forward_is_exact_in_float32_at_the_widest_sum(self, rng):
        # K = 1024 products of 8-bit codes: every partial sum stays within
        # K * 2^14 = 2^24, so the float32 GEMM is the int64 accumulation
        layer = make_layer(in_ch=1024, k=1)
        layer.weight = np.sign(rng.normal(size=layer.weight.shape)).astype(np.float32)
        layer.weight[0] = 1.0  # a sum near the bound: -1024 * 127 * 128 at x = -1
        freeze(layer, QuantParams(1 / 127), QuantParams(1 / 128))
        assert np.abs(layer.weight).min() == 127
        x = np.where(rng.random((1, 1024, 2, 2)) < 0.9, -1.0, 1.0).astype(np.float32)
        got = layer_conv2d(Tensor(x), layer).data
        w_q, a_q = layer.w_quant, layer.a_quant
        acc = int_conv(level(x, a_q).astype(np.int64), layer.weight.astype(np.int64), 1, 0)
        assert np.abs(acc).max() > 1 << 23
        want = acc.astype(np.float32) * (a_q.scale * w_q.scale) + layer.bias.reshape(1, -1, 1, 1)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bits_w,bits_a", [(9, 8), (8, 9), (32, 32)])
    def test_freeze_refuses_grids_past_8_bits(self, bits_w, bits_a):
        layer = make_layer()
        with pytest.raises(NetworkError, match=f"at most 8-bit grids, got W{bits_w}A{bits_a}"):
            freeze(layer, QuantParams(1e-3, bits_w), QuantParams(1e-3, bits_a))
        assert_untouched(layer)
        # nor can such a layer be built from codes
        codes = np.zeros((1, 1, 1, 1), np.int8)
        with pytest.raises(NetworkError, match="at most 8-bit grids"):
            LayerSpec("c", codes, np.zeros(1), w_quant=QuantParams(1e-3, bits_w),
                      a_quant=QuantParams(1e-3, bits_a))

    def test_freeze_refuses_a_sum_past_float32(self):
        # K * 2^(bits_w + bits_a - 2) <= 2^24: at W8A8 a 1x1 conv over 1024
        # input channels is the widest, at W4A4 the same K is far inside
        freeze(make_layer(in_ch=1024, k=1), QuantParams(0.01), QuantParams(0.05))
        layer = make_layer(in_ch=1025, k=1)
        with pytest.raises(NetworkError, match=r"1025 products at W8A8 can sum past 2\^24"):
            freeze(layer, QuantParams(0.01), QuantParams(0.05), np.zeros(layer.weight.shape))
        assert_untouched(layer)
        freeze(layer, QuantParams(0.01, 4), QuantParams(0.05, 4))
        assert layer.precision == "int8" and layer.weight.dtype == np.int8

    def test_int8_without_weight_quantizer_raises(self):
        # a layer holds both quantizers or neither: one alone cannot be built
        with pytest.raises(NetworkError, match="both quantizers or neither"):
            make_layer(a_quant=QuantParams(0.05))
        codes = np.zeros((1, 1, 1, 1), np.int8)
        with pytest.raises(NetworkError, match="both quantizers or neither"):
            LayerSpec("c", codes, np.zeros(1), w_quant=QuantParams(0.01))

    def test_quantized_weight_honors_offsets(self):
        w_quant = QuantParams(0.01)
        base, steered = make_layer(), make_layer()
        freeze(base, w_quant, QuantParams(0.05))
        want = ad.fake_quant_op(Tensor(make_layer().weight), Tensor(w_quant.scale), 8)
        np.testing.assert_array_equal(base.weight * np.float32(base.w_quant.scale), want.data)
        # the layer holds the float32 scales it computes with
        assert base.precision == "int8"
        assert base.w_quant == QuantParams(float(np.float32(0.01)))
        assert base.a_quant == QuantParams(float(np.float32(0.05)))
        freeze(steered, w_quant, QuantParams(0.05), np.full(steered.weight.shape, 1.0))
        assert (steered.weight >= base.weight).all() and (steered.weight > base.weight).any()

    def test_live_weight_carries_gradients_to_the_scales(self, rng):
        # the task path of scale optimization: the input quantized by a live
        # scale, the float layer's weight by another, both reached through `run`
        layer = make_layer()
        net = Network(layers=[layer])
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w_s = Tensor(0.01, requires_grad=True)
        a_s = Tensor(0.05, requires_grad=True)
        x_hat = ad.fake_quant_op(x, a_s, 8)
        w_hat = ad.fake_quant_op(Tensor(layer.weight), w_s, 8)
        out = run(net, x_hat, weights={"c0.w": w_hat})
        grads = backward(ad.tsum(pow2(out)), {"w": w_s, "a": a_s})
        assert np.isfinite(grads["w"]).all() and np.abs(grads["w"]).sum() > 0
        assert np.isfinite(grads["a"]).all() and np.abs(grads["a"]).sum() > 0

    def test_input_shape_validation(self):
        layer = make_layer()
        with pytest.raises(NetworkError):
            layer_conv2d(Tensor(np.zeros((1, 3, 4))), layer)
        with pytest.raises(NetworkError):
            layer_conv2d(Tensor(np.zeros((1, 2, 4, 4))), layer)


# -- trunk forward -------------------------------------------------------------------------


class TestForward:
    def build(self):
        return Network(
            layers=[make_layer("c0", out_ch=4), make_layer("c1", in_ch=4, out_ch=4, seed=3)]
        )

    def with_heads(self, frozen=None):
        """Three trunk layers and both detector heads; `frozen` names a trunk
        layer put in int8 mode."""
        net = Network(
            layers=[
                make_layer("c0", out_ch=4),
                make_layer("c1", in_ch=4, out_ch=5, seed=1),
                make_layer("c2", in_ch=5, out_ch=4, seed=2),
            ],
            heads={
                "heatmap": make_layer("hm", in_ch=4, out_ch=2, k=1, seed=3, activation="none"),
                "regression": make_layer("reg", in_ch=4, out_ch=3, k=1, seed=4, activation="none"),
            },
            input_spec=(3, 6, 6),
        )
        if frozen is not None:
            freeze(net.layer(frozen), QuantParams(0.01), QuantParams(0.05))
        return net

    def test_relu_applied_between_layers(self, rng):
        net = self.build()
        x = rng.normal(size=(1, 3, 6, 6)).astype(np.float32)
        out = run(net, x)
        assert (out.data >= 0).all()

    @pytest.mark.parametrize("frozen", [None, "c1"])
    def test_run_matches_layer_by_layer(self, rng, frozen):
        net = self.with_heads(frozen)
        n = len(net.layers)
        for start in range(n + 1):
            in_ch = net.layers[start].in_ch if start < n else net.layers[-1].out_ch
            x = rng.normal(size=(2, in_ch, 6, 6)).astype(np.float32)
            for stop in [*range(start, n + 1), None]:
                t = Tensor(x)
                for layer in net.layers[start:stop]:
                    t = layer_forward(t, layer)
                assert run(net, x, start, stop).data.tobytes() == t.data.tobytes()
                if stop in (n, None):
                    hm = ad.sigmoid(layer_forward(t, net.heads["heatmap"]))
                    reg = layer_forward(t, net.heads["regression"])
                    got = [g.data.tobytes() for g in run(net, x, start, stop, heads=True)]
                    assert got == [hm.data.tobytes(), reg.data.tobytes()]

    def test_heads_need_the_trunk_end(self, rng):
        net = self.with_heads()
        with pytest.raises(NetworkError):
            run(net, rng.normal(size=(1, 3, 6, 6)), 0, 2, heads=True)

    def test_own_arrays_as_weights_change_nothing(self, rng):
        net = self.with_heads("c1")
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        fp = [l for l in [*net.layers, *net.heads.values()] if l.precision == "fp"]
        own = {f"{l.name}.w": Tensor(l.weight) for l in fp}
        own.update({f"{l.name}.b": Tensor(l.bias) for l in fp})
        want = run(net, x, heads=True)
        got = run(net, x, heads=True, weights=own)
        assert [g.data.tobytes() for g in got] == [w.data.tobytes() for w in want]

    def test_backward_rejects_off_trace_params(self, rng):
        net = self.build()
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(net.layers[0].weight, requires_grad=True)
        loss = ad.tsum(ad.conv2d(x, w, None, 1, 1))
        stray = Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(NetworkError):
            backward(loss, {"w": w, "stray": stray})
        grads = backward(loss, {"w": w})
        assert grads["w"].shape == w.data.shape

    def test_backward_consumes_its_tape(self, rng):
        net = self.build()
        x = Tensor(rng.normal(size=(1, 3, 4, 4)))
        w = Tensor(net.layers[0].weight, requires_grad=True)
        loss = ad.tsum(ad.conv2d(x, w, None, 1, 1))
        grads = backward(loss, {"w": w})
        with pytest.raises(NetworkError):
            backward(loss, {"w": w})
        assert w.grad is grads["w"]


# -- freezing ------------------------------------------------------------------------------


@st.composite
def fold_cases(draw):
    """A weight, a scale and offsets, with exact half ties, clamped levels and
    offsets on both sides of [0, scale]."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    bits = draw(st.integers(2, 8))
    # a power-of-two scale makes (k + 1/2) * scale exact: a drawn tie is a tie
    scale = draw(
        st.one_of(st.sampled_from([2.0**e for e in range(-8, 3)]), st.floats(1e-3, 4.0))
    )
    kernel = draw(st.sampled_from([(1, 1), (3, 3)]))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)), *kernel)
    n = int(np.prod(shape))
    top = 1 << (bits - 1)
    levels = draw(st.lists(st.integers(-top - 2, top + 1), min_size=n, max_size=n))
    ties = st.sampled_from([0.0, 0.5, -0.5])
    fracs = draw(st.lists(st.one_of(ties, st.floats(-0.5, 0.5)), min_size=n, max_size=n))
    offsets = draw(
        st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-2.0, 3.0)), min_size=n, max_size=n
        )
    )
    w = ((np.asarray(levels) + np.asarray(fracs)) * scale).reshape(shape).astype(dtype)
    theta = (np.asarray(offsets) * scale).reshape(shape).astype(dtype)
    return dtype, bits, scale, w, theta


@settings(max_examples=300, deadline=None)
@given(case=fold_cases())
def test_property_freeze_folds_offsets_exactly(case):
    dtype, bits, scale, w, theta = case
    w_quant = QuantParams(scale, bits)
    with ad.using_dtype(dtype):
        # freeze clips the offsets into [0, s], s the scale at engine precision
        s = engine_grid(w_quant).scale
        boxed = Tensor(np.clip(Tensor(theta).data, 0.0, s))
        steered = ad.fake_quant_op(Tensor(w), Tensor(s), bits, theta=boxed).data
        layer = LayerSpec("c", w, np.zeros(w.shape[0], dtype))
        freeze(layer, w_quant, QuantParams(1.0), theta)
        assert layer.w_quant == engine_grid(w_quant)
        # the layer holds the levels the tape steers to, as integer codes
        assert layer.weight.dtype == np.int8
        assert np.array_equal(layer.weight.astype(dtype) * s, steered)
        # codes are no float weight: a second freeze is refused
        with pytest.raises(NetworkError, match="already int8"):
            freeze(layer, w_quant, QuantParams(1.0))
