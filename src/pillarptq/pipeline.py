"""End-to-end quantization passes over the detector.

Provides the float baseline trainer (so the repo is self-contained), the
calibration-only arms, and the full pipeline: cached float-model outputs
turned into pseudo-labels, then for each quantizable layer in turn a
grid-search initialization and an optimization of its activation/weight
scales and rounding offsets, with a keep-best-iterate rule that guarantees
the layer's reconstruction error never ends above its initialization value.
Keep-best tests admissibility first: a snapshot's task term runs through the
float tail and heads only once its local term admits it. That term, AdaRound's
weight-only ||conv(x, w_hat) - conv(x, w)||^2 = ||conv(x, d)||^2, d = w_hat - w,
runs no conv: it is sum_c d_c' G d_c, G the batch's input-patch Gram matrix
(GPTQ's layer Hessian), the float64 sum of per-frame P_f P_f', each built once
per layer when a batch first draws the frame.

Every arm ends a layer with `network.freeze`, which replaces its float
weight by integer codes. The offsets exist only while they are optimized:
the freeze steers the codes by the kept ones, so a quantized model holds its
codes and scales and no offsets. The library writes no files; the CLI saves
what these passes return.
"""

from __future__ import annotations

import functools
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
    pillarize,
    quantizable_layers,
)
from .evalharness import evaluate_model
from .losses import PseudoLabels, make_pseudo_labels, pseudo_label_loss, render_targets
from .network import LayerSpec, Network
from .optim import Adam
from .quant import EPS_SCALE, QuantParams

FORWARD_CHUNK = 16


class PipelineError(RuntimeError):
    pass


@dataclass
class RunLog:
    """Append-only record of the optimization: per-step losses, per-layer
    stats and run metadata, all reproducible from the seed."""

    records: List[dict] = field(default_factory=list)
    layer_stats: Dict[str, dict] = field(default_factory=dict)
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


def _chunked(fn, frames: Sequence[np.ndarray]) -> List[np.ndarray]:
    """`fn` of `frames` stacked FORWARD_CHUNK at a time; the (B, ...) array it
    returns, split back into one view per frame in the layout `fn` left it
    (channel-major for a conv). The consumer's own stack or concatenate is
    the one copy, and reads each frame in C order as a copy would hold it."""
    out: List[np.ndarray] = []
    for i in range(0, len(frames), FORWARD_CHUNK):
        out.extend(fn(np.stack(frames[i : i + FORWARD_CHUNK])))
    return out


def _layer_inputs(net: Network, feats: Sequence[np.ndarray]) -> Iterator[Tuple[LayerSpec, list]]:
    """Yield each quantizable trunk layer of `net` in order, with the
    per-frame activations entering it; one forward per trunk layer in all.

    A layer runs on its inputs only once the caller resumes the generator, so
    a layer the caller froze meanwhile passes on its int8 output. Each layer
    runs as `network.run(net, chunk, idx, idx + 1)` on FORWARD_CHUNK frames at
    a time, so each input is bitwise what `network.run(net, chunk, 0, idx)`
    returns in the net's state at that point.
    """
    names = quantizable_layers(net)
    if not names:
        return
    last = net.layer_index(names[-1])
    acts = feats  # the first trunk layer is never quantizable
    for idx, layer in enumerate(net.layers[: last + 1]):
        if layer.name in names:
            yield layer, acts
        if idx < last:
            acts = _chunked(lambda c: network.run(net, c, idx, idx + 1).data, acts)


def fp_final_outputs(net: Network, feats: Sequence[np.ndarray]):
    """The float net's (heatmap, regression) pair on each frame."""

    def heads(c):
        return np.concatenate([t.data for t in network.run(net, c, heads=True)], axis=1)

    split = net.heads["heatmap"].out_ch
    return [(o[:split], o[split:]) for o in _chunked(heads, feats)]


# -- float baseline training -----------------------------------------------------------


def _trainable_params(net: Network) -> Dict[str, Tensor]:
    params: Dict[str, Tensor] = {}
    for layer in list(net.layers) + [net.heads["heatmap"], net.heads["regression"]]:
        params[f"{layer.name}.w"] = Tensor(layer.weight, requires_grad=True)
        params[f"{layer.name}.b"] = Tensor(layer.bias, requires_grad=True)
    return params


def _pack(dense: np.ndarray, mask: np.ndarray, dtype) -> Tuple[np.ndarray, np.ndarray]:
    """A (C, H, W) array that is zero off the (H, W) mask, kept as its (C, n)
    values at the mask's cells, in `dtype`, and the mask."""
    return dense[:, mask].astype(dtype), mask


def _unpack(values: np.ndarray, mask: np.ndarray, dtype) -> np.ndarray:
    """The dense (C, H, W) array `_pack` kept, in `dtype`: zeros off the mask."""
    dense = np.zeros((len(values),) + mask.shape, dtype=dtype)
    dense[:, mask] = values
    return dense


def train_fp_baseline(
    dataset,
    cfg: TrainConfig,
    grid_cfg: GridConfig = GridConfig(),
) -> Tuple[Network, dict]:
    """Train the float detector on ground truth until the val AP floor holds.

    Each frame's pillar features and targets are rendered once and cached
    compactly: the features as float16 at the occupied pillars, the
    regression target at its mask's cells; every step rebuilds the dense
    arrays from them."""
    net = build_detector(grid_cfg, seed=cfg.seed)
    params = _trainable_params(net)
    opt = Adam(params, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    frames = dataset.frames("train")
    if not frames:
        raise PipelineError("dataset has no training frames")
    feat_cache: Dict[str, tuple] = {}
    target_cache: Dict[str, tuple] = {}
    losses: List[float] = []

    def frame_feats(fid: str) -> np.ndarray:
        packed = feat_cache.get(fid)
        if packed is None:
            grid = pillarize(dataset.point_cloud(fid), grid_cfg)
            packed = feat_cache[fid] = _pack(grid.features, grid.occupancy, np.float16)
        return _unpack(*packed, ad.current_dtype())

    def frame_labels(fid: str) -> PseudoLabels:
        packed = target_cache.get(fid)
        if packed is None:
            lab = render_targets(dataset.labels(fid), grid_cfg)
            reg = _pack(lab.reg_target, lab.reg_mask, lab.reg_target.dtype)
            packed = target_cache[fid] = (lab.boxes, lab.heatmap_target, reg)
        boxes, heatmap, (reg, mask) = packed
        return PseudoLabels(boxes, heatmap, _unpack(reg, mask, reg.dtype), mask)

    for _epoch in range(cfg.epochs):
        order = rng.permutation(len(frames))
        for at in range(0, len(order) - cfg.batch + 1, cfg.batch):
            batch = [frames[i] for i in order[at : at + cfg.batch]]
            feats = np.stack([frame_feats(f) for f in batch])
            labels = [frame_labels(f) for f in batch]
            hm, reg = network.run(net, feats, heads=True, weights=params)
            loss = pseudo_label_loss(DetectorOutput(hm, reg), labels)
            if not np.isfinite(loss.data):
                raise PipelineError(f"non-finite training loss at step {len(losses)}")
            losses.append(float(loss.data))
            network.backward(loss, params)
            opt.step()

    for layer in list(net.layers) + [net.heads["heatmap"], net.heads["regression"]]:
        layer.weight = params[f"{layer.name}.w"].data.astype(np.float32)
        layer.bias = params[f"{layer.name}.b"].data.astype(np.float32)

    report = evaluate_model(net, dataset, grid_cfg, split="val")
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
) -> Tuple[Network, RunLog]:
    """Apply one calibrator to every quantizable layer; no optimization.

    The arms capture their inputs two ways, on purpose. maxmin and entropy are
    TensorRT-style baselines: every layer calibrates on the float net's
    activations. maxmin_grid is run_lidar_ptq's initialization alone, so like
    LiDAR-PTQ each layer sees the output of the int8 layers before it.

    The RunLog has no records, since nothing is optimized; `meta["method"]`
    names the method. `layer_stats[name]` holds the frozen layer's `w_scale`
    and `a_scale` as its model file states them, the activation MSE at the
    max-min scale (`pre_mse`) and at the chosen one (`post_mse`), and
    `entropy_fallback`. `bits` is 2 to 8: `network.freeze` refuses a wider
    grid at the first layer, before it changes it."""
    log = RunLog(meta={"method": method})
    if not calib_feats:
        raise PipelineError("empty calibration set")

    search = search or SearchConfig()
    qnet = fp_net.copy()
    for src, acts in _layer_inputs(qnet if method == "maxmin_grid" else fp_net, calib_feats):
        layer = qnet.layer(src.name)
        cal = calibrate_layer(acts, layer.weight, method=method, bits=bits, cfg=search)
        network.freeze(layer, cal.w_params, cal.a_params)
        log.layer_stats[layer.name] = {
            "w_scale": layer.w_quant.scale,
            "a_scale": layer.a_quant.scale,
            "pre_mse": cal.a_maxmin_mse,
            "post_mse": cal.a_mse,
            "entropy_fallback": cal.entropy_fallback,
        }
    return qnet, log


# -- the full pipeline -------------------------------------------------------------------


def _gram(layer, frame: np.ndarray) -> np.ndarray:
    """P P' of one (C, H, W) input frame's (K, Ho*Wo) `_im2col` patch matrix
    for the layer: K x K, in the frame's (the engine) dtype, and symmetric."""
    kh, kw = layer.weight.shape[2:]
    patches, _, _ = ad._im2col(frame[None], kh, kw, layer.stride, layer.padding)
    return patches @ patches.T


def _w_hat(layer, params: Dict[str, Tensor], cfg: PipelineConfig) -> Tensor:
    """The layer's weight fake-quantized at the live scale and offsets."""
    return ad.fake_quant_op(
        Tensor(layer.weight), params["s_w"], cfg.bits_w, theta=params.get("theta")
    )


def _local_loss(layer, params: Dict[str, Tensor], gram: np.ndarray, n: int, cfg) -> Tensor:
    """The squared error of the layer's conv with the fake-quantized weight
    w_hat against the float conv, per frame of a batch of n: with `gram` the
    float64 sum of the frames' `_gram`s, it is quad_form(w_hat - w, gram) / n."""
    return ad.quad_form(_w_hat(layer, params, cfg) - layer.weight, gram) * (1.0 / n)


def _task_loss(qnet: Network, layer, params, x: Tensor, labels, cfg) -> Tensor:
    """The task loss of the layer as freezing it at these scales would make it
    (input and weight fake-quantized) through the float tail and heads. The
    weight is quantized in a node of its own: one node shared with the local
    term would add the two paths' weight gradients before the scale's vjp,
    which rounds differently."""
    x_hat = ad.fake_quant_op(x, params["s_a"], cfg.bits_a)
    live = {f"{layer.name}.w": _w_hat(layer, params, cfg)}
    out = network.run(qnet, x_hat, qnet.layer_index(layer.name), heads=True, weights=live)
    return pseudo_label_loss(DetectorOutput(*out), labels)


def _layer_losses(
    qnet: Network,
    layer,
    params: Dict[str, Tensor],
    x: Tensor,
    gram: np.ndarray,
    labels: List[PseudoLabels],
    cfg: PipelineConfig,
):
    """Tape forward for one batch (frames `x`, their summed `gram`): the local
    term plus `cfg.lambda2` times the task term. The local term has no weight
    of its own: Adam's step is invariant to a positive rescaling of the loss,
    so (w, lambda2) would run (1, lambda2/w)."""
    local = _local_loss(layer, params, gram, len(x.data), cfg)
    task = _task_loss(qnet, layer, params, x, labels, cfg)
    return local, task, local + task * cfg.lambda2


def run_lidar_ptq(
    fp_net: Network,
    calib_feats: Sequence[np.ndarray],
    cfg: PipelineConfig,
    grid_cfg: GridConfig = GridConfig(),
    fp_outs=None,
) -> Tuple[Network, RunLog]:
    """Pseudo-labels from the cached float outputs, then for each quantizable
    layer in order: grid-search initialization, scale/offset optimization with
    keep-best admissibility, and a freeze at int8 before the next layer.
    `fp_outs`, when given, is `fp_final_outputs(fp_net, calib_feats)`.

    The initialization's score and every step compute and log all three
    losses. A snapshot (every `snapshot_every` steps and the last) is kept
    when its local term is at most the initialization's and its total is below
    the best so far; its task term runs only once the local term admits it, so
    a rejected snapshot's task and total, never logged, are never computed."""
    if any(l.precision != "fp" for l in fp_net.layers):
        raise PipelineError("run_lidar_ptq expects a fully float network")
    fp_exempt_layers(fp_net)  # raises if the structure can't mark them
    if len(calib_feats) < cfg.batch:
        raise PipelineError(
            f"calibration set ({len(calib_feats)}) smaller than batch ({cfg.batch})"
        )

    qnet = fp_net.copy()
    log = RunLog()
    rng = np.random.default_rng(cfg.seed)

    # Cache float final outputs once, unless given; render pseudo-labels once.
    fp_outs = fp_outs or fp_final_outputs(fp_net, calib_feats)
    labels = [make_pseudo_labels(DetectorOutput(hm, reg), grid_cfg) for hm, reg in fp_outs]

    n = len(calib_feats)
    score_idx = np.arange(min(cfg.score_frames, n))

    for layer, inputs in _layer_inputs(qnet, calib_feats):
        name = layer.name
        frame_gram = functools.cache(lambda i: _gram(layer, inputs[i]))

        def batch(idx):
            gram = sum(frame_gram(i).astype(np.float64) for i in idx)
            return Tensor(np.stack([inputs[i] for i in idx])), gram, [labels[i] for i in idx]

        w_init = grid_search_detail(layer.weight, cfg.bits_w, cfg.search).params.scale
        a_init = grid_search_detail(  # the pooled float64 copy dies with the call
            np.concatenate(inputs, axis=None, dtype=np.float64), cfg.bits_a, cfg.search
        ).params.scale
        params = {
            "s_w": Tensor(np.asarray(w_init), requires_grad=True),
            "s_a": Tensor(np.asarray(a_init), requires_grad=True),
        }
        if cfg.optimize_theta:
            params["theta"] = Tensor(np.zeros_like(layer.weight), requires_grad=True)
        opt = Adam(
            params, lr={k: cfg.lr_theta if k == "theta" else cfg.lr_scale for k in params}
        )

        x_s, gram_s, labels_s = batch(score_idx)

        def frozen():
            return {k: Tensor(p.data) for k, p in params.items()}

        init_local, init_task, init_total = (
            float(v.data) for v in _layer_losses(qnet, layer, frozen(), x_s, gram_s, labels_s, cfg)
        )
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
                # Admissibility first: no task forward for a rejected snapshot.
                snap = frozen()
                local = _local_loss(layer, snap, gram_s, len(score_idx), cfg)
                if float(local.data) <= init_local:
                    task = _task_loss(qnet, layer, snap, x_s, labels_s, cfg)
                    total_s = float((local + task * cfg.lambda2).data)
                    if total_s < best_total:
                        best_params = {k: p.data.copy() for k, p in params.items()}
                        best_local, best_total = float(local.data), total_s

        network.freeze(
            layer,
            QuantParams(float(best_params["s_w"]), cfg.bits_w),
            QuantParams(float(best_params["s_a"]), cfg.bits_a),
            best_params.get("theta"),
        )
        frame_gram.cache_clear()  # before the generator builds the next layer's inputs
        log.layer_stats[name] = {
            "pre_mse": init_local,
            "post_mse": best_local,
            "w_scale": layer.w_quant.scale,
            "a_scale": layer.a_quant.scale,
        }

    log.meta["method"] = cfg.method
    log.meta["iters_T"] = cfg.iters_T
    log.meta["seed"] = cfg.seed
    return qnet, log
