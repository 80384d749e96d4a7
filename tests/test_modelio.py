"""Binary model format: round trips, byte determinism, integer weight codes,
version 1 files and corruption handling."""

import struct
from types import SimpleNamespace

import numpy as np
import pytest

from pillarptq import autodiff as ad
from pillarptq import modelio
from pillarptq.autodiff import Tensor
from pillarptq.config import PipelineConfig
from pillarptq.detector import build_detector
from pillarptq.modelio import ModelIOError, load_model, save_model
from pillarptq.network import conv2d as layer_conv2d
from pillarptq.network import engine_grid, freeze, run
from pillarptq.pipeline import run_baseline_calibration, run_lidar_ptq
from pillarptq.quant import QuantParams, dequantize, round_half_away

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
        dtype = np.dtype("<f4")
        if prec == 1:
            bits = rec.quants[0][2]
            dtype = np.dtype("<i1" if bits <= 8 else "<i2" if bits <= 16 else "<i4")
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

    def test_offsets_flag_in_a_version_2_file(self, tmp_path, grid_cfg):
        raw = bytearray(saved(tmp_path / "o.ptqf", quantize_some_layers(build_detector(grid_cfg))))
        raw[v2_records(raw)[1].head + 5] |= 4
        (tmp_path / "o.ptqf").write_bytes(bytes(raw))
        with pytest.raises(ModelIOError, match="offsets in a version 2 file"):
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
                assert w.dtype == np.int8
                rebuilt = dequantize(w, engine_grid(layer.w_quant)).astype(np.float32)
                assert rebuilt.tobytes() == layer.weight.tobytes()
            else:
                assert w.tobytes() == layer.weight.astype("<f4").tobytes()

    @pytest.mark.parametrize("bits,width", [(4, 1), (8, 1), (12, 2), (16, 2), (24, 4)])
    def test_code_width_follows_the_bit_width(self, tmp_path, grid_cfg, bits, width):
        net = build_detector(grid_cfg, seed=2)
        layer = net.layer("conv1")
        step = float(np.abs(layer.weight).max()) / ((1 << (bits - 1)) - 1)
        freeze(layer, QuantParams(step, bits), A_QUANT)
        raw = saved(tmp_path / "b.ptqf", net)
        _, w = v2_records(raw)[1].weight
        assert w.dtype.itemsize == width and np.abs(w).max() == (1 << (bits - 1)) - 1
        assert_nets_equal(net, load_model(tmp_path / "b.ptqf"))

    def test_no_code_wider_than_32_bits(self, tmp_path, grid_cfg):
        net = build_detector(grid_cfg)
        freeze(net.layer("conv1"), QuantParams(1e-9, 33), A_QUANT)
        with pytest.raises(ModelIOError, match="33-bit"):
            save_model(tmp_path / "w.ptqf", net)

    @pytest.mark.parametrize("method", ["maxmin", "entropy", "maxmin_grid", "lidar-ptq"])
    def test_file_states_the_scale_its_codes_count(
        self, tiny_net, tiny_calib_feats, grid_cfg, tmp_path, method
    ):
        # calibration picks float64 scales; the file states the float32 ones
        # the frozen layers hold, and those rebuild every weight from its codes
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
                rebuilt = dequantize(rec.weight[1], QuantParams(s_w, bits_w)).astype(np.float32)
                assert rebuilt.tobytes() == layer.weight.tobytes()
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
        qnet, _ = run_baseline_calibration(tiny_net, tiny_calib_feats, "maxmin")
        feats = np.stack(tiny_calib_feats[:2])
        u = 2.0**-24
        checked = []
        for rec, layer in zip(v2_records(saved(tmp_path / "q.ptqf", qnet)), in_file_order(qnet)):
            if layer.precision != "int8":
                continue
            (_, s_w, _), (_, s_a, bits_a) = rec.quants
            w_codes = rec.weight[1].astype(np.int64)
            x = run(qnet, feats, 0, qnet.layer_index(layer.name)).data
            top = 1 << (bits_a - 1)
            x_codes = np.clip(round_half_away(x / s_a), -top, top - 1).astype(np.int64)
            acc = int_conv(x_codes, w_codes, layer.stride, layer.padding)
            # a float32 GEMM of the codes is exact: every partial sum stays
            # below K * 128 * 128 <= 288 * 2**14 < 2**24
            k = w_codes[0].size
            assert k <= 288
            gemm = ad.conv2d(
                Tensor(x_codes.astype(np.float32)),
                Tensor(w_codes.astype(np.float32)),
                None,
                layer.stride,
                layer.padding,
            ).data
            assert gemm.dtype == np.float32 and np.array_equal(gemm, acc)
            # the fake-quant forward computes s_a * s_w * acc + bias, up to the
            # float32 GEMM's error on the K products (plus the rounding of x-hat
            # and w-hat) and the bias add
            want = layer_conv2d(Tensor(x), layer).data.astype(np.float64)
            got = acc * (s_a * s_w) + layer.bias.reshape(1, -1, 1, 1)
            mass = int_conv(np.abs(x_codes), np.abs(w_codes), layer.stride, layer.padding)
            bound = (k + 2) * u * mass * (s_a * s_w) + u * np.abs(want)
            assert (np.abs(want - got) <= bound).all()
            checked.append(layer.name)
        assert checked == [l.name for l in qnet.layers if l.precision == "int8"] != []


# -- version 1 files ---------------------------------------------------------------------


def legacy_bytes(net, int8=(), offsets=None):
    """PTQF version 1 bytes, as older writers saved `net`: every weight as a
    float32 blob and the quantizer records after the bias. The layers named
    in `int8` are written as int8 layers with W_QUANT and A_QUANT around their
    weights as they are, unfolded; each layer in `offsets` sets flag 4 and
    appends its float32 offsets record."""
    offsets = offsets or {}
    roles = [(l, modelio._ROLE_TRUNK) for l in net.layers] + [
        (net.heads["heatmap"], modelio._ROLE_HEATMAP),
        (net.heads["regression"], modelio._ROLE_REG),
    ]
    out = modelio.MAGIC + struct.pack("<HHHHH", 1, *net.input_spec, len(roles))
    for layer, role in roles:
        prec, quants = layer.precision, (layer.w_quant, layer.a_quant)
        if layer.name in int8:
            prec, quants = "int8", (W_QUANT, A_QUANT)
        has = (quants[0] is not None, quants[1] is not None, layer.name in offsets)
        flags = sum(flag for flag, on in zip((1, 2, 4), has) if on)
        name = layer.name.encode("utf-8")
        w = np.ascontiguousarray(layer.weight, dtype="<f4")
        b = np.ascontiguousarray(layer.bias, dtype="<f4")
        out += struct.pack("<H", len(name)) + name
        out += struct.pack(
            "<6B",
            role,
            modelio._ACT[layer.activation],
            layer.stride,
            layer.padding,
            modelio._PREC[prec],
            flags,
        )
        out += struct.pack("<B4I", 4, *w.shape) + w.tobytes()
        out += struct.pack("<I", b.size) + b.tobytes()
        for q in quants:
            if q is not None:
                out += struct.pack("<diB", q.scale, 0, q.bits)
        if layer.name in offsets:
            out += np.ascontiguousarray(offsets[layer.name], dtype="<f4").tobytes()
    return out


def boxed(theta):
    """Offsets as unfolded int8 layers applied them: clipped into [0, s_w]."""
    return None if theta is None else Tensor(np.clip(theta, 0.0, engine_grid(W_QUANT).scale))


def old_forward(net, int8, offsets, x):
    """The forward of a float net whose layers in `int8` quantize their input
    and weight (steered by `offsets`) on every call, as unfolded int8 layers
    used to run."""

    def run(layer, t):
        if layer.name in int8:
            t = ad.fake_quant_op(t, Tensor(A_QUANT.scale), A_QUANT.bits)
            w = ad.fake_quant_op(
                Tensor(layer.weight),
                Tensor(W_QUANT.scale),
                W_QUANT.bits,
                theta=boxed(offsets.get(layer.name)),
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
    def test_writer_layout_matches_save_model(self, tmp_path, grid_cfg):
        # a v1 file of a frozen net loads as that net, and saves as it does
        net = quantize_some_layers(build_detector(grid_cfg, seed=5))
        p = tmp_path / "v1.ptqf"
        p.write_bytes(legacy_bytes(net))
        got = load_model(p)
        assert_nets_equal(net, got)
        assert saved(tmp_path / "a.ptqf", got) == saved(tmp_path / "b.ptqf", net)

    def check_predicts_as_before(self, tmp_path, grid_cfg, rng, offsets):
        net = build_detector(grid_cfg, seed=5)
        p = tmp_path / "old.ptqf"
        p.write_bytes(legacy_bytes(net, QUANTIZED, offsets))
        got = load_model(p)
        for name in QUANTIZED:
            layer = got.layer(name)
            steered = ad.fake_quant_op(
                Tensor(net.layer(name).weight),
                Tensor(W_QUANT.scale),
                W_QUANT.bits,
                theta=boxed(offsets.get(name)),
            )
            assert layer.precision == "int8"
            assert (layer.w_quant, layer.a_quant) == (engine_grid(W_QUANT), engine_grid(A_QUANT))
            assert layer.weight.tobytes() == (steered.data + 0.0).tobytes()
        x = np.abs(rng.normal(size=(2, *net.input_spec))).astype(np.float32)
        hm, reg = old_forward(net, QUANTIZED, offsets, x)
        hm_got, reg_got = run(got, x, heads=True)
        assert hm_got.data.tobytes() == hm.tobytes()
        assert reg_got.data.tobytes() == reg.tobytes()
        # saving again writes version 2: codes for the folded weights, no
        # offsets record
        raw = saved(tmp_path / "again.ptqf", got)
        assert [r.name for r in v2_records(raw) if r.weight[1].dtype == np.int8] == list(QUANTIZED)
        assert_nets_equal(got, load_model(tmp_path / "again.ptqf"))

    def test_offsets_record_loads_folded_and_predicts_as_before(self, tmp_path, grid_cfg, rng):
        net = build_detector(grid_cfg, seed=5)
        offsets = {name: some_offsets(net.layer(name)) for name in QUANTIZED}
        self.check_predicts_as_before(tmp_path, grid_cfg, rng, offsets)

    def test_unfolded_weight_loads_on_its_grid_and_predicts_as_before(
        self, tmp_path, grid_cfg, rng
    ):
        self.check_predicts_as_before(tmp_path, grid_cfg, rng, {})

    def test_offsets_record_on_a_float_layer_is_refused(self, tmp_path, grid_cfg):
        net = build_detector(grid_cfg, seed=5)
        p = tmp_path / "odd.ptqf"
        p.write_bytes(legacy_bytes(net, QUANTIZED, {"conv0": np.zeros_like(net.layer("conv0").weight)}))
        with pytest.raises(ModelIOError, match="not int8"):
            load_model(p)
