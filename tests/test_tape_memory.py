"""Memory guards: float training keeps one autodiff tape alive at a time,
and inference on a frozen model builds none."""

import tracemalloc

import numpy as np

from pillarptq import autodiff
from pillarptq.config import TrainConfig
from pillarptq.dataset import generate_dataset
from pillarptq.detector import detector_forward, pillarize
from pillarptq.network import run
from pillarptq.pipeline import run_baseline_calibration, train_fp_baseline
from pillarptq.scenegen import SceneSpec


def test_training_holds_one_tape_at_a_time(tmp_path, grid_cfg):
    # Each step's backward frees its tape, so three training steps peak about
    # as high as one; a tape kept alive into the next step's forward would add
    # its patch matrices on top (a ratio near 1.6).
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
