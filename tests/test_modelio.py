"""Binary model format: round trips, byte determinism, corruption handling."""

import struct

import numpy as np
import pytest

from pillarptq import autodiff as ad
from pillarptq import modelio
from pillarptq.autodiff import Tensor
from pillarptq.detector import GridConfig, build_detector
from pillarptq.modelio import ModelIOError, load_model, save_model
from pillarptq.network import freeze, run
from pillarptq.quant import QuantParams

QUANTIZED = ("conv1", "conv2")


def some_offsets(layer):
    return np.random.default_rng(3).uniform(-0.002, 0.013, layer.weight.shape).astype(np.float32)


def quantize_some_layers(net):
    for name in QUANTIZED:
        layer = net.layer(name)
        freeze(layer, QuantParams(0.011, 8), QuantParams(0.07, 8), some_offsets(layer))
    return net


def assert_nets_equal(a, b):
    assert [l.name for l in a.layers] == [l.name for l in b.layers]
    assert a.input_spec == b.input_spec
    for la, lb in zip(
        list(a.layers) + list(a.heads.values()), list(b.layers) + list(b.heads.values())
    ):
        np.testing.assert_array_equal(la.weight, lb.weight)
        np.testing.assert_array_equal(la.bias, lb.bias)
        assert (la.stride, la.padding, la.activation, la.precision) == (
            lb.stride, lb.padding, lb.activation, lb.precision,
        )
        assert la.w_quant == lb.w_quant
        assert la.a_quant == lb.a_quant


class TestRoundTrip:
    def test_plain_float_network(self, tmp_path, grid_cfg):
        net = build_detector(grid_cfg, seed=1)
        p = tmp_path / "fp.ptqf"
        save_model(p, net)
        assert_nets_equal(net, load_model(p))

    def test_quantized_network_with_offsets(self, tmp_path, grid_cfg):
        # the offsets are folded at freeze time: the file holds the frozen
        # weights and no offsets record, and reads back as it was
        net = quantize_some_layers(build_detector(grid_cfg, seed=1))
        p = tmp_path / "q.ptqf"
        save_model(p, net)
        plain = build_detector(grid_cfg, seed=1)
        for name in QUANTIZED:
            plain.layer(name).w_quant = QuantParams(0.011, 8)
            plain.layer(name).a_quant = QuantParams(0.07, 8)
            plain.layer(name).precision = "int8"
        save_model(tmp_path / "plain.ptqf", plain)
        assert p.stat().st_size == (tmp_path / "plain.ptqf").stat().st_size
        got = load_model(p)
        assert_nets_equal(net, got)
        assert got.layer("conv1").precision == "int8"
        assert got.layer("conv1").w_quant.scale == 0.011
        assert got.layer("conv0").w_quant is None

    def test_weights_survive_exactly_in_float32(self, tmp_path, grid_cfg):
        net = build_detector(grid_cfg, seed=2)
        net.layers[0].weight[0, 0, 0, 0] = np.float32(1.0) / np.float32(3.0)
        p = tmp_path / "w.ptqf"
        save_model(p, net)
        assert load_model(p).layers[0].weight[0, 0, 0, 0] == net.layers[0].weight[0, 0, 0, 0]


class TestByteDeterminism:
    def test_identical_networks_identical_bytes(self, tmp_path, grid_cfg):
        a, b = tmp_path / "a.ptqf", tmp_path / "b.ptqf"
        save_model(a, quantize_some_layers(build_detector(grid_cfg, seed=4)))
        save_model(b, quantize_some_layers(build_detector(grid_cfg, seed=4)))
        assert a.read_bytes() == b.read_bytes()

    def test_different_scale_changes_bytes(self, tmp_path, grid_cfg):
        n1 = quantize_some_layers(build_detector(grid_cfg, seed=4))
        n2 = quantize_some_layers(build_detector(grid_cfg, seed=4))
        n2.layer("conv1").w_quant = QuantParams(0.012, 8)
        a, b = tmp_path / "a.ptqf", tmp_path / "b.ptqf"
        save_model(a, n1)
        save_model(b, n2)
        assert a.read_bytes() != b.read_bytes()


class TestCorruption:
    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "x.ptqf"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ModelIOError):
            load_model(p)

    def test_unsupported_version(self, tmp_path, grid_cfg):
        p = tmp_path / "v.ptqf"
        save_model(p, build_detector(grid_cfg))
        raw = bytearray(p.read_bytes())
        raw[4] = 99
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError):
            load_model(p)

    def test_truncated_payload(self, tmp_path, grid_cfg):
        p = tmp_path / "t.ptqf"
        save_model(p, build_detector(grid_cfg))
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(ModelIOError):
            load_model(p)

    def test_trailing_garbage(self, tmp_path, grid_cfg):
        p = tmp_path / "g.ptqf"
        save_model(p, build_detector(grid_cfg))
        p.write_bytes(p.read_bytes() + b"\x00\x01")
        with pytest.raises(ModelIOError):
            load_model(p)


class TestBehaviorPreservation:
    def test_loaded_net_predicts_identically(self, tmp_path, grid_cfg, rng):
        from pillarptq.detector import PointCloud, detector_forward, pillarize

        net = quantize_some_layers(build_detector(grid_cfg, seed=7))
        p = tmp_path / "same.ptqf"
        save_model(p, net)
        got = load_model(p)
        grid = pillarize(
            PointCloud(rng.uniform(-20, 20, (200, 4)).astype(np.float32)), grid_cfg
        )
        a = detector_forward(net, grid)
        b = detector_forward(got, grid)
        np.testing.assert_array_equal(a.heatmap, b.heatmap)
        np.testing.assert_array_equal(a.regression, b.regression)


# -- files that carry rounding offsets ---------------------------------------------------


def legacy_bytes(net, offsets):
    """PTQF bytes as older writers saved them: each layer in `offsets` keeps
    its unfolded weight, sets flag 4 and appends its float32 offsets record.
    Without offsets this is exactly what save_model writes."""
    roles = [(l, modelio._ROLE_TRUNK) for l in net.layers] + [
        (net.heads["heatmap"], modelio._ROLE_HEATMAP),
        (net.heads["regression"], modelio._ROLE_REG),
    ]
    out = modelio.MAGIC + struct.pack("<HHHHH", modelio.VERSION, *net.input_spec, len(roles))
    for layer, role in roles:
        rec = bytearray(modelio._pack_layer(layer, role))
        if layer.name in offsets:
            rec[2 + len(layer.name) + 5] |= 4
            rec += np.ascontiguousarray(offsets[layer.name], dtype="<f4").tobytes()
        out += rec
    return bytes(out)


def old_forward(net, offsets, x):
    """The forward of a net whose int8 layers steer their weights by offsets
    on every call, as models with offsets used to run."""

    def run(layer, t):
        if layer.precision == "int8":
            t = ad.fake_quant_op(t, Tensor(layer.a_quant.scale), layer.a_quant.bits)
            theta = offsets.get(layer.name)
            w = ad.fake_quant_op(
                Tensor(layer.weight),
                Tensor(layer.w_quant.scale),
                layer.w_quant.bits,
                theta=None if theta is None else Tensor(theta),
            )
        else:
            w = Tensor(layer.weight)
        t = ad.conv2d(t, w, Tensor(layer.bias), layer.stride, layer.padding)
        return ad.relu(t) if layer.activation == "relu" else t

    t = Tensor(x)
    for layer in net.layers:
        t = run(layer, t)
    return ad.sigmoid(run(net.heads["heatmap"], t)).data, run(net.heads["regression"], t).data


class TestLegacyOffsets:
    def unfolded(self, grid_cfg):
        net = build_detector(grid_cfg, seed=5)
        offsets = {}
        for name in QUANTIZED:
            layer = net.layer(name)
            layer.w_quant = QuantParams(0.011, 8)
            layer.a_quant = QuantParams(0.07, 8)
            layer.precision = "int8"
            offsets[name] = some_offsets(layer)
        return net, offsets

    def test_writer_layout_matches_save_model(self, tmp_path, grid_cfg):
        net, _ = self.unfolded(grid_cfg)
        p = tmp_path / "now.ptqf"
        save_model(p, net)
        assert legacy_bytes(net, {}) == p.read_bytes()

    def test_offsets_record_loads_folded_and_predicts_as_before(self, tmp_path, grid_cfg, rng):
        net, offsets = self.unfolded(grid_cfg)
        p = tmp_path / "old.ptqf"
        p.write_bytes(legacy_bytes(net, offsets))
        got = load_model(p)
        for name in QUANTIZED:
            layer = got.layer(name)
            steered = ad.fake_quant_op(
                Tensor(net.layer(name).weight), Tensor(0.011), 8, theta=Tensor(offsets[name])
            )
            assert layer.precision == "int8" and layer.w_quant == QuantParams(0.011, 8)
            assert layer.weight.tobytes() == steered.data.tobytes()
        x = np.abs(rng.normal(size=(2, *net.input_spec))).astype(np.float32)
        hm, reg = old_forward(net, offsets, x)
        hm_got, reg_got = run(got, x, heads=True)
        assert hm_got.data.tobytes() == hm.tobytes()
        assert reg_got.data.tobytes() == reg.tobytes()
        # re-saving writes the folded weights and no offsets record
        save_model(tmp_path / "again.ptqf", got)
        assert load_model(tmp_path / "again.ptqf").layer("conv1").weight.tobytes() == (
            got.layer("conv1").weight.tobytes()
        )
        assert (tmp_path / "again.ptqf").stat().st_size == len(legacy_bytes(net, {}))

    def test_offsets_record_on_a_float_layer_is_refused(self, tmp_path, grid_cfg):
        net, _ = self.unfolded(grid_cfg)
        p = tmp_path / "odd.ptqf"
        p.write_bytes(legacy_bytes(net, {"conv0": np.zeros_like(net.layer("conv0").weight)}))
        with pytest.raises(ModelIOError, match="not int8"):
            load_model(p)
