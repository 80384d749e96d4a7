"""Loss stack for scale fine-tuning: pseudo-labels rendered from the float
model's detections, penalty-reduced focal loss on the center heatmap and masked
L1 on box regression at one weight. The float baseline trains on this task
loss, and `pipeline._layer_losses` adds it to the local reconstruction term.

No ground-truth label ever enters this module's pipeline path; the float
model's own detections at `detector`'s detection policy, the one the
evaluation scores, are the only supervision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .detector import (
    REG_CHANNELS,
    Box3D,
    DetectorOutput,
    GridConfig,
    decode_boxes,
    nms_bev,
)

HEATMAP_CLAMP = 1e-4
MIN_RADIUS = 1
REG_WEIGHT = 0.25  # regression term's weight inside the task loss


@dataclass
class PseudoLabels:
    boxes: List[Box3D]
    heatmap_target: np.ndarray  # (classes, H, W) in [0, 1]
    reg_target: np.ndarray  # (REG_CHANNELS, H, W)
    reg_mask: np.ndarray  # (H, W) bool


def gaussian_radius(height: float, width: float, min_overlap: float = 0.3) -> float:
    """Largest center displacement (in cells) keeping IoU >= min_overlap.

    Standard corner-heatmap heuristic: the tightest of three quadratic
    bounds (both corners inside, both outside, one in one out).
    """
    a1 = 1.0
    b1 = height + width
    c1 = width * height * (1 - min_overlap) / (1 + min_overlap)
    r1 = (b1 - math.sqrt(max(b1**2 - 4 * a1 * c1, 0.0))) / (2 * a1)

    a2 = 4.0
    b2 = 2 * (height + width)
    c2 = (1 - min_overlap) * width * height
    r2 = (b2 - math.sqrt(max(b2**2 - 4 * a2 * c2, 0.0))) / (2 * a2)

    a3 = 4.0 * min_overlap
    b3 = -2 * min_overlap * (height + width)
    c3 = (min_overlap - 1) * width * height
    r3 = (b3 + math.sqrt(max(b3**2 - 4 * a3 * c3, 0.0))) / (2 * a3)
    return max(min(r1, r2, r3), 0.0)


def draw_gaussian(heatmap: np.ndarray, cx: int, cy: int, radius: int) -> None:
    """Element-wise max a peak-1 Gaussian of the given cell radius into the map."""
    sigma = (2 * radius + 1) / 6.0
    y, x = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    g = np.exp(-(x * x + y * y) / (2 * sigma * sigma))
    h, w = heatmap.shape
    x0, x1 = max(0, cx - radius), min(w, cx + radius + 1)
    y0, y1 = max(0, cy - radius), min(h, cy + radius + 1)
    if x0 >= x1 or y0 >= y1:
        return
    patch = g[y0 - (cy - radius) : y1 - (cy - radius), x0 - (cx - radius) : x1 - (cx - radius)]
    np.maximum(heatmap[y0:y1, x0:x1], patch, out=heatmap[y0:y1, x0:x1])


def render_targets(
    boxes: Sequence[Box3D], cfg: GridConfig, out_stride: int = 2
) -> PseudoLabels:
    """Gaussian center-peak heatmaps plus per-center regression targets.

    Boxes landing on an already-claimed center cell only max-merge their
    Gaussian; the first (highest-score) box keeps the regression slot.
    """
    h = cfg.h_bev // out_stride
    w = cfg.w_bev // out_stride
    cell = cfg.voxel_size * out_stride
    hm = np.zeros((cfg.num_classes, h, w), dtype=np.float32)
    reg = np.zeros((REG_CHANNELS, h, w), dtype=np.float32)
    mask = np.zeros((h, w), dtype=bool)
    kept: List[Box3D] = []
    for b in sorted(boxes, key=lambda b: -b.score):
        ix = int(np.floor((b.x - cfg.x_min) / cell))
        iy = int(np.floor((b.y - cfg.y_min) / cell))
        if not (0 <= ix < w and 0 <= iy < h) or not (0 <= b.cls < cfg.num_classes):
            continue
        radius = max(MIN_RADIUS, int(gaussian_radius(b.w / cell, b.l / cell)))
        draw_gaussian(hm[b.cls], ix, iy, radius)
        hm[b.cls, iy, ix] = 1.0
        if mask[iy, ix]:
            continue
        mask[iy, ix] = True
        cx = cfg.x_min + (ix + 0.5) * cell
        cy = cfg.y_min + (iy + 0.5) * cell
        reg[:, iy, ix] = (
            (b.x - cx) / cell,
            (b.y - cy) / cell,
            b.z,
            math.log(b.h),
            math.log(b.w),
            math.log(b.l),
            math.sin(b.yaw),
            math.cos(b.yaw),
        )
        kept.append(b)
    return PseudoLabels(kept, hm, reg, mask)


def make_pseudo_labels(fp_out: DetectorOutput, cfg: GridConfig) -> PseudoLabels:
    """The float model's detections, decoded and suppressed as the evaluation
    scores them, rendered as soft targets."""
    out_stride = cfg.h_bev // np.shape(fp_out.heatmap)[1]
    return render_targets(nms_bev(decode_boxes(fp_out, cfg)), cfg, out_stride)


# -- losses (tape-aware; targets are constants) ----------------------------------


def _check_shapes(pred, target, what: str):
    shape = pred.data.shape if isinstance(pred, Tensor) else np.shape(pred)
    if tuple(shape) != tuple(np.shape(target)):
        raise ValueError(f"{what}: prediction shape {shape} != target shape {np.shape(target)}")


def focal_loss(pred_heatmap, target: np.ndarray) -> Tensor:
    """Penalty-reduced focal loss over a heatmap of probabilities.

    target==1 cells: -(1-p)^2 log p; everywhere else: -(1-t)^4 p^2 log(1-p);
    sum normalized by max(1, #positives).
    """
    pred = ad.as_tensor(pred_heatmap)
    target = np.asarray(target, dtype=pred.data.dtype)
    _check_shapes(pred, target, "focal_loss")
    pos = (target == 1.0).astype(pred.data.dtype)
    neg_w = ((1.0 - target) ** 4) * (1.0 - pos)
    n_pos = max(1.0, float(pos.sum()))

    p = ad.clip(pred, HEATMAP_CLAMP, 1.0 - HEATMAP_CLAMP)
    one_m_p = 1.0 - p
    pos_term = ad.tsum(ad.mul(ad.mul(pow2(one_m_p), ad.log(p)), pos))
    neg_term = ad.tsum(ad.mul(ad.mul(pow2(p), ad.log(one_m_p)), neg_w))
    return (pos_term + neg_term) * (-1.0 / n_pos)


def pow2(t: Tensor) -> Tensor:
    return ad.mul(t, t)


def l1_reg_loss(pred_reg, target_reg: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean absolute error over positive cells and all regression channels.

    Accepts (R, H, W) maps with an (H, W) mask or batched (B, R, H, W) maps
    with a (B, H, W) mask; empty masks give exactly zero.
    """
    pred = ad.as_tensor(pred_reg)
    target = np.asarray(target_reg, dtype=pred.data.dtype)
    _check_shapes(pred, target, "l1_reg_loss")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != pred.data.shape[:-3] + pred.data.shape[-2:]:
        raise ValueError(f"mask shape {mask.shape} does not match maps {pred.data.shape}")
    n = float(mask.sum())
    if n == 0:
        return Tensor(np.zeros(()))
    m = np.expand_dims(mask, -3).astype(pred.data.dtype)
    channels = pred.data.shape[-3]
    diff = ad.absolute(pred - target)
    return ad.tsum(ad.mul(diff, m)) * (1.0 / (n * channels))


def pseudo_label_loss(q_out: DetectorOutput, labels: Sequence[PseudoLabels]) -> Tensor:
    """Task loss against rendered targets: focal + REG_WEIGHT * L1.

    `labels` holds one PseudoLabels per frame of q_out's (B, C, H, W) maps.
    """
    hm_t = np.stack([l.heatmap_target for l in labels])
    reg_t = np.stack([l.reg_target for l in labels])
    mask = np.stack([l.reg_mask for l in labels])
    cls = focal_loss(q_out.heatmap, hm_t)
    reg_l = l1_reg_loss(q_out.regression, reg_t, mask)
    return cls + reg_l * REG_WEIGHT
