"""LiDAR-PTQ and calibration-only passes on the trained tiny detector.

Jobs are kept small (T=4, a 10-point grid, batch 4 over 8 frames) so the
whole module runs in seconds; each check holds at any job size.
"""

import dataclasses
import sys

import numpy as np
import pytest

from pillarptq import autodiff as ad
from pillarptq import network, pipeline
from pillarptq.autodiff import Tensor
from pillarptq.calib import calibrate_layer, grid_search_detail
from pillarptq.config import PipelineConfig
from pillarptq.detector import DetectorOutput, fp_exempt_layers, pillarize, quantizable_layers
from pillarptq.losses import make_pseudo_labels, pseudo_label_loss, render_targets
from pillarptq.modelio import save_model
from pillarptq.optim import Adam
from pillarptq.pipeline import (
    FORWARD_CHUNK,
    PipelineError,
    RunLog,
    _gram,
    _pack,
    _unpack,
    fp_final_outputs,
    _layer_inputs,
    _layer_losses,
    run_baseline_calibration,
    run_lidar_ptq,
)
from pillarptq.quant import EPS_SCALE, QuantParams, level, round_half_away

SMALL = PipelineConfig(
    calib_frames=8, iters_T=4, search_T=10, batch=4, snapshot_every=2, score_frames=4
)


def _run(net, feats, grid_cfg, **changes):
    return run_lidar_ptq(net, feats, dataclasses.replace(SMALL, **changes), grid_cfg)


@pytest.fixture(scope="module")
def small_job(tiny_net, tiny_calib_feats, grid_cfg):
    return _run(tiny_net, tiny_calib_feats, grid_cfg)


def _saved_bytes(net, path):
    save_model(path, net)
    return path.read_bytes()


def _nearest(w_fp, layer):
    """The codes `layer`'s weight quantizer gives w_fp without offsets."""
    return level(w_fp, layer.w_quant).astype(np.int8)


class TestLidarPTQ:
    def test_quantizable_layers_end_int8_and_never_worse(self, small_job, tiny_net):
        qnet, log = small_job
        names = quantizable_layers(tiny_net)
        assert sorted(log.layer_stats) == sorted(names)
        for name in names:
            layer = qnet.layer(name)
            assert layer.precision == "int8"
            # the kept offsets steer the codes: each at most one level above
            # the float weight's nearest level
            q = layer.w_quant
            assert layer.weight.dtype == np.int8
            s_w = float(np.float32(q.scale))
            codes = layer.weight
            base = np.clip(round_half_away(tiny_net.layer(name).weight / s_w), q.q_min, q.q_max)
            assert (codes >= base).all() and (codes <= np.minimum(base + 1, q.q_max)).all()
            s = log.layer_stats[name]
            assert s["post_mse"] <= s["pre_mse"]
            assert layer.w_quant.scale == s["w_scale"]
            assert layer.a_quant.scale == s["a_scale"]

    def test_exempt_layers_stay_float(self, small_job, tiny_net):
        qnet, _ = small_job
        exempt = fp_exempt_layers(tiny_net)
        for layer in list(qnet.layers) + list(qnet.heads.values()):
            if layer.name in exempt:
                assert layer.precision == "fp"
                assert layer.w_quant is None and layer.a_quant is None

    def test_input_network_is_not_modified(self, small_job, tiny_net):
        assert all(l.precision == "fp" for l in tiny_net.layers)

    def test_log_records_every_iteration_per_layer(self, small_job, tiny_net):
        _, log = small_job
        for name in quantizable_layers(tiny_net):
            its = [r["iteration"] for r in log.records if r["layer"] == name]
            assert its == list(range(SMALL.iters_T + 1))

    def test_zero_iterations_keep_the_initialization(self, tiny_net, tiny_calib_feats, grid_cfg):
        qnet, log = _run(tiny_net, tiny_calib_feats, grid_cfg, iters_T=0)
        for name, s in log.layer_stats.items():
            assert s["post_mse"] == s["pre_mse"]
            assert qnet.layer(name).precision == "int8"

    def test_without_offsets_theta_stays_unset(self, tiny_net, tiny_calib_feats, grid_cfg):
        qnet, log = _run(tiny_net, tiny_calib_feats, grid_cfg, optimize_theta=False)
        for name in quantizable_layers(tiny_net):
            layer = qnet.layer(name)
            assert layer.precision == "int8"
            want = _nearest(tiny_net.layer(name).weight, layer)
            assert layer.weight.tobytes() == want.tobytes()
            s = log.layer_stats[name]
            assert s["post_mse"] <= s["pre_mse"]

    def test_same_seed_saves_identical_bytes(
        self, small_job, tiny_net, tiny_calib_feats, grid_cfg, tmp_path
    ):
        qnet, log = small_job
        again, log_again = _run(tiny_net, tiny_calib_feats, grid_cfg)
        assert _saved_bytes(qnet, tmp_path / "a.ptqf") == _saved_bytes(again, tmp_path / "b.ptqf")
        assert log.to_csv() == log_again.to_csv()
        assert log.summary() == log_again.summary()

    def test_batch_larger_than_calibration_set_rejected(self, tiny_net, tiny_calib_feats, grid_cfg):
        with pytest.raises(PipelineError, match="smaller than batch"):
            _run(tiny_net, tiny_calib_feats[:3], grid_cfg)

    def test_rejects_already_quantized_input(self, small_job, tiny_calib_feats, grid_cfg):
        qnet, _ = small_job
        with pytest.raises(PipelineError, match="fully float"):
            run_lidar_ptq(qnet, tiny_calib_feats, SMALL, grid_cfg)


def _batch_gram(grams):
    """A batch's Gram matrix: the float64 sum of its frames' in batch order."""
    return sum(g.astype(np.float64) for g in grams)


def _keep_best_scoring_every_term(fp_net, feats, cfg, grid_cfg):
    """Brute-force keep-best: `run_lidar_ptq`'s initialization and steps (with
    offsets, as SMALL runs), but every snapshot runs the whole `_layer_losses`
    forward (local, task and total) and is kept when local <= the
    initialization's and total < the best so far. Also returns, per snapshot,
    whether its local term admitted it."""
    qnet, log = fp_net.copy(), RunLog()
    rng = np.random.default_rng(cfg.seed)
    fp_outs = fp_final_outputs(fp_net, feats)
    labels = [make_pseudo_labels(DetectorOutput(*o), grid_cfg) for o in fp_outs]
    n, admitted = len(feats), []
    score_idx = np.arange(min(cfg.score_frames, n))
    for layer, inputs in _layer_inputs(qnet, feats):
        grams = [_gram(layer, a) for a in inputs]

        def batch(idx):
            x = Tensor(np.stack([inputs[i] for i in idx]))
            return x, _batch_gram([grams[i] for i in idx]), [labels[i] for i in idx]

        pooled = np.concatenate([a.ravel() for a in inputs], dtype=np.float64)
        params = {
            "s_w": Tensor(grid_search_detail(layer.weight, cfg.bits_w, cfg.search).params.scale),
            "s_a": Tensor(grid_search_detail(pooled, cfg.bits_a, cfg.search).params.scale),
            "theta": Tensor(np.zeros_like(layer.weight)),
        }
        for p in params.values():
            p.requires_grad = True
        opt = Adam(params, lr={k: cfg.lr_theta if k == "theta" else cfg.lr_scale for k in params})

        def score():
            frozen = {k: Tensor(p.data) for k, p in params.items()}
            losses = _layer_losses(qnet, layer, frozen, *batch(score_idx), cfg)
            return [float(v.data) for v in losses]

        init_local, init_task, init_total = score()
        best = {k: p.data.copy() for k, p in params.items()}
        best_local, best_total = init_local, init_total
        log.log(layer.name, 0, init_local, init_task, init_total)
        order, pos = rng.permutation(n), 0
        for it in range(1, cfg.iters_T + 1):
            if pos + cfg.batch > n:
                order, pos = rng.permutation(n), 0
            step = batch(order[pos : pos + cfg.batch])
            pos += cfg.batch
            local, task, total = _layer_losses(qnet, layer, params, *step, cfg)
            log.log(layer.name, it, float(local.data), float(task.data), float(total.data))
            network.backward(total, params)
            opt.step()
            for k in ("s_w", "s_a"):
                params[k].data = np.maximum(params[k].data, EPS_SCALE)
            params["theta"].data = np.clip(params["theta"].data, 0.0, float(params["s_w"].data))
            if it % cfg.snapshot_every == 0 or it == cfg.iters_T:
                local_s, _, total_s = score()
                admitted.append(local_s <= init_local)
                if local_s <= init_local and total_s < best_total:
                    best = {k: p.data.copy() for k, p in params.items()}
                    best_local, best_total = local_s, total_s
        w_q = QuantParams(float(best["s_w"]), cfg.bits_w)
        network.freeze(layer, w_q, QuantParams(float(best["s_a"]), cfg.bits_a), best["theta"])
        log.layer_stats[layer.name] = {
            "pre_mse": init_local,
            "post_mse": best_local,
            "w_scale": layer.w_quant.scale,
            "a_scale": layer.a_quant.scale,
        }
    return qnet, log, admitted


@pytest.mark.parametrize(
    "seed,lambda2,iters_T,snapshot_every",
    [(0, 0.0, 4, 1), (1, 1.0, 3, 2), (2, 100.0, 4, 1), (3, 1.0, 6, 4)],
)
def test_keep_best_agrees_with_scoring_every_term(
    tiny_net, tiny_calib_feats, grid_cfg, tmp_path, seed, lambda2, iters_T, snapshot_every
):
    # Admissibility first skips the task forward of a snapshot whose local
    # term already rules it out; the model, the log and the layer stats are
    # those of the brute force, which scores every term of every snapshot.
    changes = dict(seed=seed, lambda2=lambda2, iters_T=iters_T, snapshot_every=snapshot_every)
    cfg = dataclasses.replace(SMALL, **changes)
    qnet, log = run_lidar_ptq(tiny_net, tiny_calib_feats, cfg, grid_cfg)
    want, want_log, admitted = _keep_best_scoring_every_term(
        tiny_net, tiny_calib_feats, cfg, grid_cfg
    )
    assert True in admitted and False in admitted  # both branches ran
    assert _saved_bytes(qnet, tmp_path / "a.ptqf") == _saved_bytes(want, tmp_path / "b.ptqf")
    assert log.to_csv() == want_log.to_csv()
    assert log.layer_stats == want_log.layer_stats


@pytest.mark.parametrize(
    "changes",
    [dict(seed=2, lambda2=100.0), dict(lr_scale=0.0, lr_theta=0.0)],
    ids=["some_rejected", "all_tied"],
)
def test_a_snapshot_rejected_by_its_local_term_runs_no_task_loss(
    tiny_net, tiny_calib_feats, grid_cfg, monkeypatch, changes
):
    # Events in call order: each local term's value, and "task" for each
    # pseudo_label_loss call. Per layer: the initialization's score, then per
    # step the training forward and (every step here) a snapshot, whose task
    # term runs only when its local term is at most the initialization's.
    # With no learning rate every snapshot ties the initialization, and runs it.
    events = []
    local_loss, task_loss = pipeline._local_loss, pipeline.pseudo_label_loss

    def recording_local(*args):
        out = local_loss(*args)
        events.append(float(out.data))
        return out

    monkeypatch.setattr(pipeline, "_local_loss", recording_local)
    monkeypatch.setattr(
        pipeline, "pseudo_label_loss", lambda *a: events.append("task") or task_loss(*a)
    )
    cfg = dataclasses.replace(SMALL, snapshot_every=1, **changes)
    run_lidar_ptq(tiny_net, tiny_calib_feats, cfg, grid_cfg)
    pos, rejected, tied = 0, 0, 0
    for _ in quantizable_layers(tiny_net):
        init = events[pos]
        assert events[pos + 1] == "task"
        pos += 2
        for _ in range(cfg.iters_T):
            assert isinstance(events[pos], float) and events[pos + 1] == "task"
            snapshot = events[pos + 2]
            assert isinstance(snapshot, float)
            runs_task = pos + 3 < len(events) and events[pos + 3] == "task"
            assert runs_task == (snapshot <= init)
            rejected += not runs_task
            tied += snapshot == init
            pos += 3 + runs_task
    assert pos == len(events)
    if cfg.lr_scale:
        assert rejected > 0
    else:
        assert tied == len(quantizable_layers(tiny_net)) * cfg.iters_T


@pytest.mark.parametrize("iters_T", [0, 4])
def test_each_frame_gets_at_most_one_gram_per_layer(
    tiny_net, tiny_calib_feats, grid_cfg, monkeypatch, iters_T
):
    # A frame's Gram is built the first time a batch draws it and kept for the
    # layer; with no steps only the score batch draws frames.
    built = []

    def recording(layer, frame):
        built.append((layer.name, frame.tobytes()))
        return gram(layer, frame)

    gram = pipeline._gram
    monkeypatch.setattr(pipeline, "_gram", recording)
    _run(tiny_net, tiny_calib_feats, grid_cfg, iters_T=iters_T)
    assert len(set(built)) == len(built)
    names = quantizable_layers(tiny_net)
    per_layer = [sum(name == n for name, _ in built) for n in names]
    if iters_T == 0:
        assert per_layer == [SMALL.score_frames] * len(names)
    else:
        assert all(SMALL.score_frames <= k <= len(tiny_calib_feats) for k in per_layer)


def test_no_conv_runs_for_the_local_term(tiny_net, tiny_calib_feats, grid_cfg, monkeypatch):
    # Every conv of a job captures a layer's inputs, runs the task path or
    # computes the float outputs that the pseudo-labels come from.
    callers = []
    conv2d = ad.conv2d

    def recording(*args, **kwargs):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        callers.append(names)
        return conv2d(*args, **kwargs)

    monkeypatch.setattr(ad, "conv2d", recording)
    _run(tiny_net, tiny_calib_feats, grid_cfg)
    roles = {"_layer_inputs", "_task_loss", "fp_final_outputs"}
    assert callers and all(len(names & roles) == 1 for names in callers)
    assert not any("_local_loss" in names for names in callers)
    assert {role for names in callers for role in names & roles} == roles


def test_training_caches_rebuild_features_and_targets_bitwise(tiny_dataset, grid_cfg):
    # train_fp_baseline keeps float16 features at occupied pillars only and
    # the regression target at its mask's cells; the dense arrays it rebuilds
    # each step are those of a dense cache.
    packed_bytes = dense_bytes = 0
    for fid in tiny_dataset.frames("train"):
        grid = pillarize(tiny_dataset.point_cloud(fid), grid_cfg)
        packed = _pack(grid.features, grid.occupancy, np.float16)
        dense = grid.features.astype(np.float16).astype(ad.current_dtype())
        assert _unpack(*packed, ad.current_dtype()).tobytes() == dense.tobytes()
        packed_bytes += packed[0].nbytes
        dense_bytes += grid.features.astype(np.float16).nbytes

        lab = render_targets(tiny_dataset.labels(fid), grid_cfg)
        reg, mask = _pack(lab.reg_target, lab.reg_mask, lab.reg_target.dtype)
        assert _unpack(reg, mask, reg.dtype).tobytes() == lab.reg_target.tobytes()
        assert reg.shape == (lab.reg_target.shape[0], len(lab.boxes))
    assert packed_bytes < 0.25 * dense_bytes


def test_layer_inputs_match_forward_on_a_partly_frozen_net(tiny_net, tiny_calib_feats):
    # Three chunks of frames, the last one short; the first quantizable layer
    # is frozen at int8 once its inputs are seen, so later layers see its
    # int8 output, as in run_lidar_ptq.
    net = tiny_net.copy()
    feats = list(tiny_calib_feats) * 5
    seen = []
    for layer, inputs in _layer_inputs(net, feats):
        idx = net.layer_index(layer.name)
        want = []
        for i in range(0, len(feats), FORWARD_CHUNK):
            xb = np.stack(feats[i : i + FORWARD_CHUNK]).astype(ad.current_dtype())
            want.extend(network.run(net, xb, 0, idx).data)
        assert [a.tobytes() for a in inputs] == [w.tobytes() for w in want]
        if not seen:
            cal = calibrate_layer(inputs, layer.weight, method="maxmin")
            network.freeze(layer, cal.w_params, cal.a_params)
        seen.append(layer.name)
    assert seen == quantizable_layers(net)


def test_task_loss_is_the_deployed_layers_loss(tiny_net, tiny_calib_feats, grid_cfg):
    # Without offsets, the task path that scale optimization differentiates
    # computes what the layer frozen at those scales computes at detect time.
    qnet = tiny_net.copy()
    fp_outs = fp_final_outputs(tiny_net, tiny_calib_feats[:4])
    labels = [make_pseudo_labels(DetectorOutput(*o), grid_cfg) for o in fp_outs]
    for layer, inputs in _layer_inputs(qnet, tiny_calib_feats):
        cal = calibrate_layer(inputs, layer.weight, method="maxmin")
        s_w, s_a = cal.w_params.scale, cal.a_params.scale
        x = Tensor(np.stack(inputs[:4]))
        gram = _batch_gram([_gram(layer, a) for a in inputs[:4]])
        params = {"s_w": Tensor(s_w), "s_a": Tensor(s_a)}
        _, task, _ = _layer_losses(qnet, layer, params, x, gram, labels, SMALL)
        network.freeze(layer, QuantParams(s_w, SMALL.bits_w), QuantParams(s_a, SMALL.bits_a))
        out = network.run(qnet, x, qnet.layer_index(layer.name), heads=True)
        deployed = pseudo_label_loss(DetectorOutput(*out), labels)
        assert task.data.tobytes() == deployed.data.tobytes()


class TestBaselineCalibration:
    @pytest.mark.parametrize("method", ["maxmin", "entropy", "maxmin_grid"])
    def test_every_quantizable_layer_calibrated(self, tiny_net, tiny_calib_feats, method):
        qnet, log = run_baseline_calibration(
            tiny_net, tiny_calib_feats, method, bits=8, search=SMALL.search
        )
        names = quantizable_layers(tiny_net)
        assert list(log.layer_stats) == names
        assert log.meta["method"] == method
        assert log.records == []
        for name, s in log.layer_stats.items():
            layer = qnet.layer(name)
            assert layer.precision == "int8"
            assert layer.w_quant.scale == s["w_scale"]
            assert layer.a_quant.scale == s["a_scale"]
            assert set(s) == {"w_scale", "a_scale", "pre_mse", "post_mse", "entropy_fallback"}
            want = _nearest(tiny_net.layer(name).weight, layer)
            assert layer.weight.tobytes() == want.tobytes()
        for name in fp_exempt_layers(tiny_net) & {l.name for l in qnet.layers}:
            assert qnet.layer(name).precision == "fp"

    def test_maxmin_grid_is_lidar_ptq_without_iterations(
        self, tiny_net, tiny_calib_feats, grid_cfg, tmp_path
    ):
        # The CLI names lidar-ptq iters_T=0 as maxmin_grid at separate widths,
        # and the benchmark times the arm that way.
        qnet, _ = run_baseline_calibration(
            tiny_net, tiny_calib_feats, "maxmin_grid", bits=8, search=SMALL.search
        )
        ref, _ = _run(tiny_net, tiny_calib_feats, grid_cfg, iters_T=0)
        assert _saved_bytes(qnet, tmp_path / "a.ptqf") == _saved_bytes(ref, tmp_path / "b.ptqf")

    @pytest.mark.parametrize("bits", [9, 32])
    def test_a_width_past_8_bits_is_refused_at_the_first_layer(
        self, tiny_net, tiny_calib_feats, bits
    ):
        # an int8 model holds grids of 8 bits or fewer; the first freeze
        # refuses the grid before it changes the layer, and the float net is
        # never changed
        before = [l.weight.tobytes() for l in tiny_net.layers]
        first = quantizable_layers(tiny_net)[0]
        with pytest.raises(network.NetworkError, match=f"{first}: an int8 layer holds at most 8"):
            run_baseline_calibration(tiny_net, tiny_calib_feats, "maxmin", bits=bits)
        assert [l.weight.tobytes() for l in tiny_net.layers] == before
        assert all(l.precision == "fp" for l in tiny_net.layers)

    def test_empty_calibration_set_rejected(self, tiny_net):
        with pytest.raises(PipelineError, match="empty"):
            run_baseline_calibration(tiny_net, [], "maxmin")
