"""Memory guards: float training keeps one autodiff tape alive at a time,
a conv holds one frame's patch matrix at a time and its tape none, and
inference on a frozen model builds none."""

import tracemalloc

import numpy as np

import pytest

from pillarptq import autodiff
from pillarptq.config import TrainConfig
from pillarptq.dataset import generate_dataset
from pillarptq.detector import (
    DetectorOutput,
    GridConfig,
    build_detector,
    detector_forward,
    pillarize,
)
from pillarptq.losses import pseudo_label_loss, render_targets
from pillarptq.network import backward, run
from pillarptq.pipeline import (
    _trainable_params,
    pillar_features,
    run_baseline_calibration,
    train_fp_baseline,
)
from pillarptq.scenegen import SceneSpec


def _detector_convs():
    """Every conv of the detector, with the side of its input and output
    maps (the 1x1 heads keep the trunk's side)."""
    net = build_detector(GridConfig())
    side = net.input_spec[1]
    for layer in [*net.layers, *net.heads.values()]:
        ho = (side + 2 * layer.padding - layer.weight.shape[2]) // layer.stride + 1
        yield layer, side, ho
        side = ho


def test_training_holds_one_tape_at_a_time(tmp_path, grid_cfg):
    # Each step's backward frees its tape, so three training steps peak about
    # as high as one; a tape kept alive into the next step's forward would add
    # its arrays on top.
    peaks = []
    for n_train in (2, 6):
        root = tmp_path / f"ds{n_train}"
        ds = generate_dataset(root, SceneSpec(), n_train=n_train, n_val=1, seed=3)
        tracemalloc.start()
        try:
            train_fp_baseline(ds, TrainConfig(epochs=1, batch=2, ap_floor=0.0), grid_cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks


@pytest.mark.parametrize(
    "layer,side,ho", [pytest.param(*conv, id=conv[0].name) for conv in _detector_convs()]
)
def test_no_grad_conv_holds_one_frames_patch_matrix(layer, side, ho):
    # The frames' patch matrices are built one at a time, so the peak is one
    # frame's (K, Ho*Wo) matrix plus the output: measured 0.34-1.14 of that
    # sum at B=8 (conv0's is its padded frame on top). A whole-batch patch
    # matrix reads 3.3-5.7.
    b = 8
    x = np.random.default_rng(0).normal(size=(b, layer.in_ch, side, side)).astype(np.float32)
    patch_bytes = layer.weight[0].size * ho * ho * x.itemsize
    out_bytes = layer.out_ch * b * ho * ho * x.itemsize
    x, w, bias = autodiff.Tensor(x), autodiff.Tensor(layer.weight), autodiff.Tensor(layer.bias)
    tracemalloc.start()
    try:
        out = autodiff.conv2d(x, w, bias, layer.stride, layer.padding)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (b, layer.out_ch, ho, ho)
    assert peak <= 1.25 * (patch_bytes + out_bytes), (peak, patch_bytes, out_bytes)


def test_training_forward_keeps_no_patch_matrix_on_the_tape(tiny_dataset, grid_cfg):
    # Between forward and backward the tape holds the inputs, not the
    # (K, B*Ho*Wo) patch matrices: the weight gradient rebuilds them. So no
    # array allocated by a B=4 training forward is as large as the smallest
    # trunk conv's patch matrix.
    net = build_detector(grid_cfg)
    params = _trainable_params(net)
    frames = tiny_dataset.frames("train")[:4]
    feats = np.stack(pillar_features(tiny_dataset, frames, grid_cfg))
    labels = [render_targets(tiny_dataset.labels(f), grid_cfg) for f in frames]
    patch_bytes = [
        layer.weight[0].size * len(frames) * ho * ho * feats.itemsize
        for layer, _, ho in _detector_convs()
        if layer.name.startswith("conv")
    ]
    tracemalloc.start()
    try:
        hm, reg = run(net, feats, heads=True, weights=params)
        loss = pseudo_label_loss(DetectorOutput(hm, reg), labels)
        held = max(t.size for t in tracemalloc.take_snapshot().traces)
    finally:
        tracemalloc.stop()
    assert held < min(patch_bytes), (held, patch_bytes)
    grads = backward(loss, params)
    assert all(np.isfinite(g).all() for g in grads.values())


def test_inference_on_a_frozen_model_builds_no_tape(
    tiny_net, tiny_calib_feats, tiny_dataset, grid_cfg, monkeypatch
):
    # An int8 layer's forward is integer arithmetic on levels: no
    # straight-through node, so a detect pass makes no fake_quant_op call,
    # and no output links back to a parent.
    qnet, _ = run_baseline_calibration(tiny_net, tiny_calib_feats, "maxmin")
    assert any(l.precision == "int8" for l in qnet.layers)
    calls = []
    real = autodiff.fake_quant_op
    monkeypatch.setattr(autodiff, "fake_quant_op", lambda *a, **k: calls.append(1) or real(*a, **k))
    for fid in tiny_dataset.frames("val")[:2]:
        out = detector_forward(qnet, pillarize(tiny_dataset.point_cloud(fid), grid_cfg))
        assert np.isfinite(out.heatmap).all()
    heads = run(qnet, np.stack(tiny_calib_feats[:2]), heads=True)
    assert calls == []
    for t in heads:
        assert t._parents == () and t._vjp is None and not t.requires_grad
