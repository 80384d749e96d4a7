"""End-to-end quantization passes over the detector.

Provides the float baseline trainer (so the repo is self-contained), the
calibration-only arms, and the full pipeline: cached float-model outputs
turned into pseudo-labels, then for each quantizable layer in turn a
grid-search initialization and an optimization of its activation/weight
scales and rounding offsets, with a keep-best-iterate rule that guarantees
the layer's reconstruction error never ends above its initialization value.

Every arm ends a layer with `network.freeze`. The offsets exist only while
they are optimized: the freeze folds the kept ones into the layer's weight,
so a quantized model holds the weights it convolves with and no offsets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from . import network
from .autodiff import Tensor
from .calib import SearchConfig, calibrate_layer, grid_search_detail
from .config import PipelineConfig, TrainConfig
from .detector import (
    DetectorOutput,
    GridConfig,
    build_detector,
    fp_exempt_layers,
    head_forward,
    pillarize,
    quantizable_layers,
)
from .evalharness import evaluate_model
from .losses import LossWeights, PseudoLabels, make_pseudo_labels, pseudo_label_loss, pow2
from .network import LayerSpec, Network, layer_forward
from .optim import Adam
from .quant import EPS_SCALE, QuantParams

FORWARD_CHUNK = 16


class PipelineError(RuntimeError):
    pass


@dataclass
class RunLog:
    """Append-only record of the optimization; wall time lives only here,
    never in the serialized artifacts (those must be byte-reproducible)."""

    records: List[dict] = field(default_factory=list)
    layer_stats: Dict[str, dict] = field(default_factory=dict)
    wall_time: float = 0.0
    meta: dict = field(default_factory=dict)
    _last_iter: Dict[str, int] = field(default_factory=dict, repr=False)

    def log(self, layer: str, iteration: int, local: float, task: float, total: float):
        last = self._last_iter.get(layer, -1)
        if iteration <= last:
            raise PipelineError(
                f"non-monotone iteration index {iteration} after {last} for {layer}"
            )
        self._last_iter[layer] = iteration
        self.records.append(
            {
                "layer": layer,
                "iteration": iteration,
                "local": float(local),
                "task": float(task),
                "total": float(total),
            }
        )

    def to_csv(self) -> str:
        lines = ["layer,iteration,local,task,total"]
        for r in self.records:
            lines.append(
                f"{r['layer']},{r['iteration']},{r['local']:.10g},"
                f"{r['task']:.10g},{r['total']:.10g}"
            )
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {"layers": self.layer_stats, "meta": self.meta}


# -- shared forward helpers -----------------------------------------------------------


def pillar_features(dataset, frames: Sequence[str], cfg: GridConfig) -> List[np.ndarray]:
    return [pillarize(dataset.point_cloud(f), cfg).features for f in frames]


def _layer_inputs(net: Network, feats: Sequence[np.ndarray]) -> Iterator[Tuple[LayerSpec, list]]:
    """Yield each quantizable trunk layer of `net` in order, with the
    per-frame activations entering it; one forward per trunk layer in all.

    A layer runs on its inputs only once the caller resumes the generator, so
    a layer the caller froze meanwhile passes on its int8 output. Frames are
    batched FORWARD_CHUNK at a time, as for `network.forward`, so each input
    is bitwise what `network.forward(net, chunk, stop_after=<previous layer>)`
    returns in the net's state at that point.
    """
    names = quantizable_layers(net)
    if not names:
        return
    last = net.layer_index(names[-1])
    chunks = [
        np.stack(feats[i : i + FORWARD_CHUNK]).astype(ad.current_dtype())
        for i in range(0, len(feats), FORWARD_CHUNK)
    ]
    for idx, layer in enumerate(net.layers[: last + 1]):
        if layer.name in names:
            yield layer, [np.ascontiguousarray(c[j]) for c in chunks for j in range(c.shape[0])]
        if idx < last:
            chunks = [layer_forward(Tensor(c), layer).data for c in chunks]


def _engine_scale(scale: float) -> float:
    """`scale` rounded to the engine dtype, as run_lidar_ptq's scale Tensors
    hold it when a layer is frozen."""
    return float(np.asarray(scale, dtype=ad.current_dtype()))


def _fp_final_outputs(net: Network, feats: Sequence[np.ndarray]):
    outs = []
    for i in range(0, len(feats), FORWARD_CHUNK):
        xb = np.stack(feats[i : i + FORWARD_CHUNK]).astype(ad.current_dtype())
        hm, reg = head_forward(net, xb)
        outs.extend(zip(hm.data, reg.data))
    return outs


# -- float baseline training -----------------------------------------------------------


def _trainable_params(net: Network) -> Dict[str, Tensor]:
    params: Dict[str, Tensor] = {}
    for layer in list(net.layers) + [net.heads["heatmap"], net.heads["regression"]]:
        params[f"{layer.name}.w"] = Tensor(layer.weight, requires_grad=True)
        params[f"{layer.name}.b"] = Tensor(layer.bias, requires_grad=True)
    return params


def _train_forward(net: Network, params: Dict[str, Tensor], feats: np.ndarray):
    t = Tensor(feats)
    for layer in net.layers:
        t = ad.conv2d(
            t, params[f"{layer.name}.w"], params[f"{layer.name}.b"],
            layer.stride, layer.padding,
        )
        if layer.activation == "relu":
            t = ad.relu(t)
    hm_l = net.heads["heatmap"]
    reg_l = net.heads["regression"]
    hm = ad.sigmoid(
        ad.conv2d(t, params[f"{hm_l.name}.w"], params[f"{hm_l.name}.b"], hm_l.stride, hm_l.padding)
    )
    reg = ad.conv2d(
        t, params[f"{reg_l.name}.w"], params[f"{reg_l.name}.b"], reg_l.stride, reg_l.padding
    )
    return hm, reg


def train_fp_baseline(
    dataset,
    cfg: TrainConfig,
    grid_cfg: GridConfig = GridConfig(),
) -> Tuple[Network, dict]:
    """Train the float detector on ground truth until the val AP floor holds."""
    from .losses import render_targets

    net = build_detector(grid_cfg, seed=cfg.seed)
    params = _trainable_params(net)
    opt = Adam(params, lr=cfg.lr)
    weights = LossWeights(alpha_reg=cfg.alpha_reg)
    rng = np.random.default_rng(cfg.seed)
    frames = dataset.frames("train")
    if not frames:
        raise PipelineError("dataset has no training frames")
    target_cache: Dict[str, PseudoLabels] = {}
    feat_cache: Dict[str, np.ndarray] = {}
    losses: List[float] = []

    def frame_feats(fid: str) -> np.ndarray:
        f = feat_cache.get(fid)
        if f is None:
            f = pillarize(dataset.point_cloud(fid), grid_cfg).features.astype(np.float16)
            feat_cache[fid] = f
        return f.astype(ad.current_dtype())

    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(frames))
        for at in range(0, len(order) - cfg.batch + 1, cfg.batch):
            idx = order[at : at + cfg.batch]
            batch = [frames[i] for i in idx]
            feats = np.stack([frame_feats(f) for f in batch])
            labels = []
            for fid in batch:
                lab = target_cache.get(fid)
                if lab is None:
                    lab = render_targets(dataset.labels(fid), grid_cfg)
                    target_cache[fid] = lab
                labels.append(lab)
            hm, reg = _train_forward(net, params, feats)
            loss = pseudo_label_loss(DetectorOutput(hm, reg), labels, weights)
            if not np.isfinite(loss.data):
                raise PipelineError(f"non-finite training loss at step {len(losses)}")
            losses.append(float(loss.data))
            network.backward(loss, params)
            opt.step()

    for layer in list(net.layers) + [net.heads["heatmap"], net.heads["regression"]]:
        layer.weight = params[f"{layer.name}.w"].data.astype(np.float32)
        layer.bias = params[f"{layer.name}.b"].data.astype(np.float32)

    report = evaluate_model(
        net, dataset, grid_cfg, split="val", iou_thresh=cfg.eval_iou, score_floor=cfg.score_floor
    )
    if report.mean_ap < cfg.ap_floor:
        raise PipelineError(
            f"float baseline did not converge: final AP={report.mean_ap:.4f} "
            f"< floor {cfg.ap_floor} after {cfg.epochs} epochs"
        )
    info = {
        "final_ap": report.mean_ap,
        "ap_per_class": report.ap_per_class,
        "losses": losses,
        "epochs": cfg.epochs,
    }
    return net, info


def sample_calibration_set(dataset, n: int, seed: int) -> List[str]:
    """Uniform label-free frame sample; order is part of the seed's contract."""
    frames = dataset.frames("train")
    if n > len(frames):
        raise PipelineError(f"requested {n} calibration frames, dataset has {len(frames)}")
    rng = np.random.default_rng(seed)
    picked = rng.choice(len(frames), size=n, replace=False)
    return [frames[i] for i in picked]


# -- calibration-only arms --------------------------------------------------------------


def run_baseline_calibration(
    fp_net: Network,
    calib_feats: Sequence[np.ndarray],
    method: str,
    bits: int = 8,
    search=None,
) -> Tuple[Network, List[dict]]:
    """Apply one calibrator to every quantizable layer; no optimization.

    The arms capture their inputs two ways, on purpose. maxmin and entropy are
    TensorRT-style baselines: every layer calibrates on the float net's
    activations. maxmin_grid is run_lidar_ptq's initialization alone, so like
    LiDAR-PTQ each layer sees the output of the int8 layers before it, and it
    holds its scales at engine precision, as the `quantize` verb's model does."""
    if bits == 32:
        return fp_net.copy(), []
    if not calib_feats:
        raise PipelineError("empty calibration set")

    search = search or SearchConfig()
    qnet = fp_net.copy()
    grid = method == "maxmin_grid"
    rows = []
    for src, acts in _layer_inputs(qnet if grid else fp_net, calib_feats):
        layer = qnet.layer(src.name)
        cal = calibrate_layer(acts, layer.weight, method=method, bits=bits, cfg=search)
        w_params, a_params = cal.w_params, cal.a_params
        if grid:
            w_params = QuantParams(_engine_scale(w_params.scale), bits)
            a_params = QuantParams(_engine_scale(a_params.scale), bits)
        network.freeze(layer, w_params, a_params)
        rows.append(
            {
                "layer": layer.name,
                "method": method,
                "w_scale": w_params.scale,
                "a_scale": a_params.scale,
                "a_mse": cal.a_mse,
                "a_maxmin_mse": cal.a_maxmin_mse,
                "entropy_fallback": cal.entropy_fallback,
            }
        )
    return qnet, rows


# -- the full pipeline -------------------------------------------------------------------


def _conv_refs(layer, inputs: List[np.ndarray]) -> List[np.ndarray]:
    """Float conv responses (no bias, no activation) of the recorded inputs."""
    refs = []
    w = Tensor(layer.weight)
    for i in range(0, len(inputs), FORWARD_CHUNK):
        xb = np.stack(inputs[i : i + FORWARD_CHUNK])
        out = ad.conv2d(Tensor(xb), w, None, layer.stride, layer.padding).data
        refs.extend(np.ascontiguousarray(out[j]) for j in range(out.shape[0]))
    return refs


def _layer_losses(
    qnet: Network,
    layer,
    params: Dict[str, Tensor],
    x: Tensor,
    ref: np.ndarray,
    labels: List[PseudoLabels],
    cfg: PipelineConfig,
):
    """Tape forward for one batch: the layer's conv reconstruction term plus
    the task loss through the float tail."""

    def w_hat():
        return ad.fake_quant_op(
            Tensor(layer.weight), params["s_w"], cfg.bits_w, theta=params.get("theta")
        )

    q = ad.conv2d(x, w_hat(), None, layer.stride, layer.padding)
    local = ad.tsum(pow2(q - ref)) * (1.0 / ref.shape[0])

    # Each path quantizes the weight in a node of its own: one shared node
    # would add the two paths' weight gradients before the scale's vjp, which
    # rounds differently.
    ov = {"a_scale": params["s_a"], "a_bits": cfg.bits_a, "weight": w_hat()}
    t = layer_forward(x, layer, ov)
    for later in qnet.layers[qnet.layer_index(layer.name) + 1 :]:
        t = layer_forward(t, later)
    hm = ad.sigmoid(layer_forward(t, qnet.heads["heatmap"]))
    reg = layer_forward(t, qnet.heads["regression"])
    weights = cfg.loss_weights
    task = pseudo_label_loss(DetectorOutput(hm, reg), labels, weights)
    total = local * weights.lambda1 + task * weights.lambda2
    return local, task, total


def run_lidar_ptq(
    fp_net: Network,
    calib_feats: Sequence[np.ndarray],
    cfg: PipelineConfig,
    grid_cfg: GridConfig = GridConfig(),
    out_dir=None,
) -> Tuple[Network, RunLog]:
    """Pseudo-labels from the cached float outputs, then for each quantizable
    layer in order: grid-search initialization, scale/offset optimization with
    keep-best admissibility, and a freeze at int8 before the next layer."""
    t_start = time.monotonic()
    if any(l.precision != "fp" for l in fp_net.layers):
        raise PipelineError("run_lidar_ptq expects a fully float network")
    exempt = fp_exempt_layers(fp_net)  # raises if the structure can't mark them
    if not exempt:
        raise PipelineError("no full-precision-exempt layers marked")
    if len(calib_feats) < cfg.batch:
        raise PipelineError(
            f"calibration set ({len(calib_feats)}) smaller than batch ({cfg.batch})"
        )

    qnet = fp_net.copy()
    log = RunLog()
    rng = np.random.default_rng(cfg.seed)

    # Cache float final outputs once; render pseudo-labels once.
    fp_outs = _fp_final_outputs(fp_net, calib_feats)
    if out_dir is not None:
        from pathlib import Path

        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savez(
            out_dir / "fp_outputs.npz",
            heatmap=np.stack([o[0] for o in fp_outs]),
            regression=np.stack([o[1] for o in fp_outs]),
        )
    labels = [
        make_pseudo_labels(
            DetectorOutput(hm, reg),
            grid_cfg,
            score_floor=cfg.score_floor,
            top_k=cfg.top_k,
            nms_iou=cfg.nms_iou,
        )
        for hm, reg in fp_outs
    ]

    n = len(calib_feats)
    score_idx = np.arange(min(cfg.score_frames, n))

    for layer, inputs in _layer_inputs(qnet, calib_feats):
        name = layer.name
        refs = _conv_refs(layer, inputs)

        def batch(idx):
            x = Tensor(np.stack([inputs[i] for i in idx]))
            return x, np.stack([refs[i] for i in idx]), [labels[i] for i in idx]

        w_init = grid_search_detail(layer.weight, cfg.bits_w, cfg.search).params.scale
        pooled = np.concatenate([a.ravel() for a in inputs])
        a_init = grid_search_detail(pooled, cfg.bits_a, cfg.search).params.scale
        params = {
            "s_w": Tensor(np.asarray(w_init), requires_grad=True),
            "s_a": Tensor(np.asarray(a_init), requires_grad=True),
        }
        if cfg.optimize_theta:
            params["theta"] = Tensor(np.zeros_like(layer.weight), requires_grad=True)
        opt = Adam(
            params, lr={k: cfg.lr_theta if k == "theta" else cfg.lr_scale for k in params}
        )

        score_batch = batch(score_idx)

        def score():
            frozen = {k: Tensor(p.data) for k, p in params.items()}
            return tuple(
                float(v.data) for v in _layer_losses(qnet, layer, frozen, *score_batch, cfg)
            )

        init_local, init_task, init_total = score()
        best_params = {k: p.data.copy() for k, p in params.items()}
        best_local, best_total = init_local, init_total
        log.log(name, 0, init_local, init_task, init_total)

        order = rng.permutation(n)
        pos = 0
        for it in range(1, cfg.iters_T + 1):
            if pos + cfg.batch > n:
                order = rng.permutation(n)
                pos = 0
            batch_idx = order[pos : pos + cfg.batch]
            pos += cfg.batch
            local, task, total = _layer_losses(qnet, layer, params, *batch(batch_idx), cfg)
            vals = (float(local.data), float(task.data), float(total.data))
            if not all(np.isfinite(v) for v in vals):
                raise PipelineError(
                    f"non-finite loss (local={vals[0]}, task={vals[1]}) "
                    f"at layer {name}, iteration {it}"
                )
            log.log(name, it, *vals)
            network.backward(total, params)
            opt.step()
            # Project after every step: the offsets' box [0, s_w] moves with s_w.
            for k in ("s_w", "s_a"):
                params[k].data = np.maximum(params[k].data, EPS_SCALE)
            if "theta" in params:
                params["theta"].data = np.clip(
                    params["theta"].data, 0.0, float(params["s_w"].data)
                )
            if it % cfg.snapshot_every == 0 or it == cfg.iters_T:
                local_s, _, total_s = score()
                if local_s <= init_local and total_s < best_total:
                    best_params = {k: p.data.copy() for k, p in params.items()}
                    best_local, best_total = local_s, total_s

        s_w = float(best_params["s_w"])
        s_a = float(best_params["s_a"])
        network.freeze(
            layer,
            QuantParams(s_w, cfg.bits_w),
            QuantParams(s_a, cfg.bits_a),
            best_params.get("theta"),
        )
        log.layer_stats[name] = {
            "pre_mse": init_local,
            "post_mse": best_local,
            "w_scale": s_w,
            "a_scale": s_a,
            "z_w": 0,
            "z_a": 0,
        }

    log.wall_time = time.monotonic() - t_start
    log.meta["method"] = cfg.method
    log.meta["iters_T"] = cfg.iters_T
    log.meta["seed"] = cfg.seed
    return qnet, log
