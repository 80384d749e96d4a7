"""Binary model format: round trips, byte determinism, integer weight codes
and corruption handling."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest

from pillarptq.autodiff import Tensor
from pillarptq.cli import main
from pillarptq.config import PipelineConfig
from pillarptq.detector import build_detector
from pillarptq.modelio import ModelIOError, load_model, save_model
from pillarptq.network import Network
from pillarptq.network import conv2d as layer_conv2d
from pillarptq.network import freeze, run
from pillarptq.pipeline import run_baseline_calibration, run_lidar_ptq
from pillarptq.quant import QuantParams, level, round_half_away

QUANTIZED = ("conv1", "conv2")
W_QUANT, A_QUANT = QuantParams(0.011, 8), QuantParams(0.07, 8)


def some_offsets(layer):
    return np.random.default_rng(3).uniform(-0.002, 0.013, layer.weight.shape).astype(np.float32)


def quantize_some_layers(net, w_quant=W_QUANT):
    for name in QUANTIZED:
        layer = net.layer(name)
        freeze(layer, w_quant, A_QUANT, some_offsets(layer))
    return net


def in_file_order(net):
    return [*net.layers, net.heads["heatmap"], net.heads["regression"]]


def assert_nets_equal(a, b):
    assert [l.name for l in a.layers] == [l.name for l in b.layers]
    assert a.input_spec == b.input_spec
    for la, lb in zip(in_file_order(a), in_file_order(b)):
        assert la.weight.dtype == lb.weight.dtype
        assert la.weight.tobytes() == lb.weight.tobytes()
        assert la.bias.tobytes() == lb.bias.tobytes()
        assert (la.stride, la.padding, la.activation, la.precision) == (
            lb.stride, lb.padding, lb.activation, lb.precision,
        )
        assert la.w_quant == lb.w_quant
        assert la.a_quant == lb.a_quant


def saved(path, net):
    save_model(path, net)
    return path.read_bytes()


def v2_records(raw):
    """The records of a version 2 file, walked as the modelio docstring lays
    them out: each one's name, the offset of its six header bytes, its
    quantizers as (offset, scale, bits), the offset of its ndim byte and its
    weight as (offset, array), the array holding the codes of an int8 layer."""
    magic, version, _, _, _, count = struct.unpack_from("<4sHHHHH", raw)
    assert (magic, version) == (b"PTQF", 2)
    at, records = 14, []
    for _ in range(count):
        (n,) = struct.unpack_from("<H", raw, at)
        rec = SimpleNamespace(name=bytes(raw[at + 2 : at + 2 + n]).decode(), head=at + 2 + n)
        prec, flags = raw[rec.head + 4], raw[rec.head + 5]
        at = rec.head + 6
        rec.quants = []
        for flag in (1, 2):
            if flags & flag:
                scale, _, bits = struct.unpack_from("<diB", raw, at)
                rec.quants.append((at, scale, bits))
                at += 13
        rec.ndim_at = at
        shape = struct.unpack_from(f"<{raw[at]}I", raw, at + 1)
        at += 1 + 4 * len(shape)
        dtype = np.dtype("<i1" if prec == 1 else "<f4")
        size = int(np.prod(shape))
        rec.weight = (at, np.frombuffer(raw, dtype, size, at).reshape(shape))
        at += dtype.itemsize * size
        (blen,) = struct.unpack_from("<I", raw, at)
        at += 4 + 4 * blen
        records.append(rec)
    assert at == len(raw)
    return records


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
            freeze(plain.layer(name), W_QUANT, A_QUANT)
        save_model(tmp_path / "plain.ptqf", plain)
        assert p.stat().st_size == (tmp_path / "plain.ptqf").stat().st_size
        got = load_model(p)
        assert_nets_equal(net, got)
        assert got.layer("conv1").precision == "int8"
        assert got.layer("conv1").w_quant.scale == float(np.float32(0.011))
        assert got.layer("conv0").w_quant is None

    @pytest.mark.parametrize("heads", [("hm",), ("heatmap", "regression", "aux")])
    def test_a_head_without_a_role_is_refused(self, tmp_path, grid_cfg, heads):
        net = build_detector(grid_cfg, seed=1)
        net = Network(net.layers, {k: net.heads["heatmap"] for k in heads}, net.input_spec)
        with pytest.raises(ModelIOError, match=f"head {heads[-1]!r} has no PTQF role"):
            save_model(tmp_path / "h.ptqf", net)
        assert not (tmp_path / "h.ptqf").exists()

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
        n2 = quantize_some_layers(build_detector(grid_cfg, seed=4), QuantParams(0.012, 8))
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

    def test_version_1_file_is_refused(self, tmp_path, grid_cfg, tiny_dataset, capsys):
        # version 1 held every weight as a float32 blob; its reader is gone
        p = tmp_path / "v1.ptqf"
        raw = bytearray(saved(p, build_detector(grid_cfg)))
        struct.pack_into("<H", raw, 4, 1)
        p.write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="unsupported version 1"):
            load_model(p)
        argv = ["compare", "--data", str(tiny_dataset.root), "--models", f"v1={p}"]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        assert "unsupported version 1" in capsys.readouterr().err

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


    @pytest.mark.parametrize(
        "field,value,match",
        [(1, 7, "activation code 7"), (4, 9, "precision code 9"), (2, 0, "stride 0")],
    )
    def test_corrupt_layer_header(self, tmp_path, grid_cfg, field, value, match):
        raw = bytearray(saved(tmp_path / "h.ptqf", quantize_some_layers(build_detector(grid_cfg))))
        raw[v2_records(raw)[1].head + field] = value
        (tmp_path / "h.ptqf").write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match=match):
            load_model(tmp_path / "h.ptqf")

    def test_weight_that_is_not_4d(self, tmp_path, grid_cfg):
        raw = saved(tmp_path / "d.ptqf", build_detector(grid_cfg))
        rec = v2_records(raw)[0]
        at, w = rec.weight
        cout, cin, kh, kw = w.shape
        flat = struct.pack("<B3I", 3, cout, cin, kh * kw)
        (tmp_path / "d.ptqf").write_bytes(raw[: rec.ndim_at] + flat + raw[at:])
        with pytest.raises(ModelIOError, match="4-D"):
            load_model(tmp_path / "d.ptqf")

    def test_codes_outside_the_bit_width(self, tmp_path, grid_cfg):
        # 8-bit codes under a 4-bit quantizer
        raw = bytearray(saved(tmp_path / "c.ptqf", quantize_some_layers(build_detector(grid_cfg))))
        at, _, _ = v2_records(raw)[1].quants[0]
        raw[at + 12] = 4
        (tmp_path / "c.ptqf").write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match=r"outside \[-8, 7\]"):
            load_model(tmp_path / "c.ptqf")

    def test_nonzero_zero_point_is_refused(self, tmp_path, grid_cfg):
        raw = bytearray(saved(tmp_path / "z.ptqf", quantize_some_layers(build_detector(grid_cfg))))
        at, _, _ = v2_records(raw)[1].quants[0]
        struct.pack_into("<i", raw, at + 8, 3)
        (tmp_path / "z.ptqf").write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="zero point 3"):
            load_model(tmp_path / "z.ptqf")

    @pytest.mark.parametrize(
        "field,change",
        [(4, lambda prec: 0), (5, lambda flags: flags & ~1)],
        ids=["float record with quantizer flags", "int8 record without the weight flag"],
    )
    def test_precision_that_disagrees_with_the_quantizer_flags(
        self, tmp_path, grid_cfg, field, change
    ):
        raw = bytearray(saved(tmp_path / "f.ptqf", quantize_some_layers(build_detector(grid_cfg))))
        at = v2_records(raw)[1].head + field
        raw[at] = change(raw[at])
        (tmp_path / "f.ptqf").write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="with quantizer flags"):
            load_model(tmp_path / "f.ptqf")

    def test_int8_record_with_the_weight_quantizer_alone(self, tmp_path, grid_cfg):
        # an int8 record holds both quantizers (flags 3); a record that holds
        # the weight's alone (flag 1) is refused
        raw = saved(tmp_path / "w.ptqf", quantize_some_layers(build_detector(grid_cfg)))
        rec = v2_records(raw)[1]
        at, _, _ = rec.quants[1]
        raw = bytearray(raw[:at] + raw[at + 13 :])
        raw[rec.head + 5] = 1
        (tmp_path / "w.ptqf").write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="precision code 1 with quantizer flags 1"):
            load_model(tmp_path / "w.ptqf")

    def test_offsets_flag_in_a_version_2_file(self, tmp_path, grid_cfg):
        # flag 4 marked a version 1 offsets record; version 2 knows flags 1 and 2
        raw = bytearray(saved(tmp_path / "o.ptqf", quantize_some_layers(build_detector(grid_cfg))))
        raw[v2_records(raw)[1].head + 5] |= 4
        (tmp_path / "o.ptqf").write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="unknown quantizer flags 7"):
            load_model(tmp_path / "o.ptqf")


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


# -- integer weight codes ----------------------------------------------------------------


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


class TestIntegerCodes:
    def test_int8_weights_are_stored_as_codes(self, tmp_path, grid_cfg):
        net = quantize_some_layers(build_detector(grid_cfg, seed=1))
        raw = saved(tmp_path / "q.ptqf", net)
        fp = saved(tmp_path / "fp.ptqf", build_detector(grid_cfg, seed=1))
        # a byte a weight in place of four; two 13-byte quantizer records a layer
        codes = sum(net.layer(name).weight.size for name in QUANTIZED)
        assert len(raw) == len(fp) - 3 * codes + 26 * len(QUANTIZED)
        for rec, layer in zip(v2_records(raw), in_file_order(net)):
            assert rec.name == layer.name
            _, w = rec.weight
            if layer.precision == "int8":
                assert w.dtype == np.int8 and layer.weight.dtype == np.int8
                assert w.tobytes() == layer.weight.tobytes()
            else:
                assert w.tobytes() == layer.weight.astype("<f4").tobytes()

    @pytest.mark.parametrize("bits,width", [(4, 1), (8, 1)])
    def test_code_width_follows_the_bit_width(self, tmp_path, grid_cfg, bits, width):
        net = build_detector(grid_cfg, seed=2)
        layer = net.layer("conv1")
        step = float(np.abs(layer.weight).max()) / ((1 << (bits - 1)) - 1)
        freeze(layer, QuantParams(step, bits), A_QUANT)
        raw = saved(tmp_path / "b.ptqf", net)
        _, w = v2_records(raw)[1].weight
        assert w.dtype.itemsize == width and np.abs(w).max() == (1 << (bits - 1)) - 1
        assert_nets_equal(net, load_model(tmp_path / "b.ptqf"))

    @pytest.mark.parametrize("which", [0, 1], ids=["weight", "activation"])
    def test_reader_refuses_a_record_with_9_bit_quantizers(self, tmp_path, grid_cfg, which):
        raw = bytearray(saved(tmp_path / "n.ptqf", quantize_some_layers(build_detector(grid_cfg))))
        at, _, _ = v2_records(raw)[1].quants[which]
        raw[at + 12] = 9
        (tmp_path / "n.ptqf").write_bytes(bytes(raw))
        want = "W9A8" if which == 0 else "W8A9"
        with pytest.raises(ModelIOError, match=f"record 1: conv1: .*8-bit grids, got {want}"):
            load_model(tmp_path / "n.ptqf")

    def test_file_of_wide_codes_is_refused(self, tmp_path, grid_cfg):
        # earlier writers stored 12-bit codes two bytes each; the reader
        # refuses the record before it reads them
        raw = bytearray(saved(tmp_path / "w.ptqf", quantize_some_layers(build_detector(grid_cfg))))
        rec = v2_records(raw)[1]
        (at, _, _), (w_at, codes) = rec.quants[0], rec.weight
        raw[at + 12] = 12
        wide = raw[:w_at] + codes.astype("<i2").tobytes() + raw[w_at + codes.size :]
        (tmp_path / "w.ptqf").write_bytes(bytes(wide))
        with pytest.raises(ModelIOError, match="record 1: conv1: .*8-bit grids, got W12A8"):
            load_model(tmp_path / "w.ptqf")

    @pytest.mark.parametrize("method", ["maxmin", "entropy", "maxmin_grid", "lidar-ptq"])
    def test_file_states_the_scale_its_codes_count(
        self, tiny_net, tiny_calib_feats, grid_cfg, tmp_path, method
    ):
        # calibration picks float64 scales; the file states the float32 ones
        # the frozen layers hold, and its codes count steps of those: the
        # float weight's levels on that grid, steered at most one level up
        # by lidar-ptq's offsets
        if method == "lidar-ptq":
            cfg = PipelineConfig(
                calib_frames=8, iters_T=4, search_T=10, batch=4, snapshot_every=2, score_frames=4
            )
            qnet, _ = run_lidar_ptq(tiny_net, tiny_calib_feats, cfg, grid_cfg)
        else:
            qnet, _ = run_baseline_calibration(tiny_net, tiny_calib_feats, method)
        raw = saved(tmp_path / "q.ptqf", qnet)
        got = load_model(tmp_path / "q.ptqf")
        decoded = []
        for rec, layer in zip(v2_records(raw), in_file_order(got)):
            for _, scale, _ in rec.quants:
                assert float(np.float32(scale)) == scale
            if layer.precision == "int8":
                (_, s_w, bits_w), _ = rec.quants
                codes = rec.weight[1]
                assert codes.tobytes() == layer.weight.tobytes()
                base = level(tiny_net.layer(layer.name).weight, QuantParams(s_w, bits_w))
                steer = codes - base
                assert steer.min() >= 0 and steer.max() <= (method == "lidar-ptq")
                decoded.append(layer.name)
        assert decoded == [l.name for l in qnet.layers if l.precision == "int8"] != []

    def test_float64_scale_of_an_older_file_loads_rounded(self, tmp_path, grid_cfg):
        # older version 2 writers stated the calibration scale, 0.011, while
        # the codes counted steps of its float32 rounding; such a file loads
        # as the frozen net, and re-saving it states the rounded scale
        net = quantize_some_layers(build_detector(grid_cfg, seed=6))
        raw = bytearray(saved(tmp_path / "new.ptqf", net))
        for rec in v2_records(raw):
            for (at, _, _), q in zip(rec.quants, (W_QUANT, A_QUANT)):
                struct.pack_into("<d", raw, at, q.scale)
        (tmp_path / "old.ptqf").write_bytes(bytes(raw))
        assert bytes(raw) != (tmp_path / "new.ptqf").read_bytes()
        got = load_model(tmp_path / "old.ptqf")
        assert_nets_equal(net, got)
        assert saved(tmp_path / "again.ptqf", got) == (tmp_path / "new.ptqf").read_bytes()

    def test_file_holds_what_integer_arithmetic_computes(self, tiny_net, tiny_calib_feats, tmp_path):
        # An int8 layer's output is bitwise the int64 accumulation of its
        # input codes and the file's weight codes, times s_a * s_w, plus the
        # bias: every partial sum stays within K * 2^(bits_w + bits_a - 2)
        # <= 2^24, so the forward's float32 sum is exact.
        feats = np.stack(tiny_calib_feats[:2])
        for bits in (8, 4):
            qnet, _ = run_baseline_calibration(tiny_net, tiny_calib_feats, "maxmin", bits=bits)
            raw = saved(tmp_path / f"q{bits}.ptqf", qnet)
            checked = []
            for rec, layer in zip(v2_records(raw), in_file_order(qnet)):
                if layer.precision != "int8":
                    continue
                (_, s_w, _), (_, s_a, bits_a) = rec.quants
                w_codes = rec.weight[1].astype(np.int64)
                x = run(qnet, feats, 0, qnet.layer_index(layer.name)).data
                top = 1 << (bits_a - 1)
                x_codes = np.clip(round_half_away(x / s_a), -top, top - 1).astype(np.int64)
                acc = int_conv(x_codes, w_codes, layer.stride, layer.padding)
                assert bits_a == bits and np.abs(acc).max() <= w_codes[0].size << (2 * bits - 2)
                rescaled = acc.astype(np.float32) * (s_a * s_w) + layer.bias.reshape(1, -1, 1, 1)
                got = layer_conv2d(Tensor(x), layer).data
                assert got.dtype == np.float32 and got.tobytes() == rescaled.tobytes()
                checked.append(layer.name)
            assert checked == [l.name for l in qnet.layers if l.precision == "int8"] != []
