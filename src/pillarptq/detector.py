"""Miniature pillar-based BEV detector: pillarization, a small conv backbone
with center-heatmap and box-regression heads, peak decoding, and BEV NMS.

Pillarization, decoding and NMS are array code; Python touches a box only to
build or read its Box3D. They return bit for bit what the per-point and
per-box code they replaced did (tests/test_stream_reference.py keeps it as the
reference), since `Box3D ==` is how the benchmark compares streamed boxes.

The pillar encoder is hand-crafted and stays full precision. Channels 0-1
carry absolute x/y means, so activation magnitude grows with distance from
the sensor; far objects therefore stress the quantization range exactly the
way large outdoor scenes do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .network import LayerSpec, Network, NetworkError, layer_forward

# Saturating cap for the pillar point-count feature.
COUNT_NORM = 16.0

REG_CHANNELS = 8  # dx, dy, z, log h, log w, log l, sin yaw, cos yaw


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]. Python's float `%` is `np.mod`'s
    fmod-and-adjust, so this equals the numpy form bit for bit."""
    r = (float(a) + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if r == -math.pi else r


@dataclass
class PointCloud:
    """(N, 4) float32 array of x, y, z [m], reflectance in [0, 1]."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float32)
        if pts.size == 0:
            pts = pts.reshape(0, 4)
        if pts.ndim != 2 or pts.shape[1] != 4:
            raise ValueError(f"points must be (N, 4), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("point cloud contains non-finite values")
        self.points = pts

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class Box3D:
    x: float
    y: float
    z: float
    h: float
    w: float
    l: float
    yaw: float
    cls: int
    score: float = 1.0

    def __post_init__(self):
        if not (self.h > 0 and self.w > 0 and self.l > 0):
            raise ValueError(f"box sizes must be positive, got {(self.h, self.w, self.l)}")
        self.yaw = wrap_angle(self.yaw)

    def footprint(self) -> Tuple[float, float, float, float]:
        """Axis-aligned BEV extent (x0, y0, x1, y1); yaw is ignored."""
        return (
            self.x - self.l / 2.0,
            self.y - self.w / 2.0,
            self.x + self.l / 2.0,
            self.y + self.w / 2.0,
        )

    def range_from_origin(self) -> float:
        return math.hypot(self.x, self.y)


@dataclass(frozen=True)
class GridConfig:
    voxel_size: float = 0.5
    x_min: float = -32.0
    x_max: float = 32.0
    y_min: float = -32.0
    y_max: float = 32.0
    num_classes: int = 2

    def __post_init__(self):
        if not self.voxel_size > 0:
            raise ValueError("voxel_size must be > 0")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("empty grid range")

    @property
    def w_bev(self) -> int:
        return int(round((self.x_max - self.x_min) / self.voxel_size))

    @property
    def h_bev(self) -> int:
        return int(round((self.y_max - self.y_min) / self.voxel_size))


@dataclass
class PillarGrid:
    features: np.ndarray  # (6, H, W) float32
    occupancy: np.ndarray  # (H, W) bool
    voxel_size: float
    range: Tuple[float, float, float, float]  # x_min, x_max, y_min, y_max


@dataclass
class DetectorOutput:
    heatmap: object  # (classes, H, W) in [0, 1], or Tensor during training
    regression: object  # (REG_CHANNELS, H, W)


PILLAR_CHANNELS = 6


def pillarize(pc: PointCloud, cfg: GridConfig) -> PillarGrid:
    """Scatter points into BEV pillars with a fixed 6-channel mean encoder:
    (mean x, mean y, mean z, mean r, saturating count, mean |x|+|y|).

    `bincount` sums its weights in float64 in point order, so only x and y
    are widened up front (for |x|+|y|); the other columns go in as float32."""
    h, w = cfg.h_bev, cfg.w_bev
    feats = np.zeros((PILLAR_CHANNELS, h, w), dtype=np.float32)
    occ = np.zeros((h, w), dtype=bool)
    pts = pc.points
    if pts.shape[0]:
        ix = np.floor((pts[:, 0] - cfg.x_min) / cfg.voxel_size).astype(np.int64)
        iy = np.floor((pts[:, 1] - cfg.y_min) / cfg.voxel_size).astype(np.int64)
        keep = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        if not keep.all():
            ix, iy = np.compress(keep, ix), np.compress(keep, iy)
            pts = np.compress(keep, pts, axis=0)
    if pts.shape[0]:
        flat = iy * w + ix
        counts = np.bincount(flat, minlength=h * w).astype(np.float64)
        denom = np.maximum(counts, 1.0)
        x, y = pts[:, 0].astype(np.float64), pts[:, 1].astype(np.float64)
        cols = {0: x, 1: y, 2: pts[:, 2], 3: pts[:, 3], 5: np.abs(x) + np.abs(y)}
        for c, vals in cols.items():
            acc = np.bincount(flat, weights=vals, minlength=h * w)
            feats[c] = (acc / denom).reshape(h, w)
        feats[4] = np.minimum(counts / COUNT_NORM, 1.0).reshape(h, w)
        occ = (counts > 0).reshape(h, w)
    return PillarGrid(feats, occ, cfg.voxel_size, (cfg.x_min, cfg.x_max, cfg.y_min, cfg.y_max))


# -- architecture -----------------------------------------------------------------


def _he_init(rng: np.random.Generator, out_ch: int, in_ch: int, k: int) -> np.ndarray:
    std = math.sqrt(2.0 / (in_ch * k * k))
    return (rng.standard_normal((out_ch, in_ch, k, k)) * std).astype(np.float32)


def build_detector(cfg: GridConfig, seed: int = 0) -> Network:
    """Four-conv backbone (first conv stride 2) and two 1x1 heads.

    conv0 and both heads are the full-precision-exempt first/last layers; the
    quantization pipeline only ever touches conv1..conv3.
    """
    rng = np.random.default_rng(seed)
    widths = [(PILLAR_CHANNELS, 16, 2), (16, 24, 1), (24, 32, 1), (32, 32, 1)]
    layers = []
    for i, (cin, cout, stride) in enumerate(widths):
        weight = _he_init(rng, cout, cin, 3)
        if i == 0:
            # Absolute-coordinate channels (0, 1, 5) are ~30x larger than the
            # shape channels; shrink their initial weights so early gradients
            # are not dominated by position. Training re-scales them freely.
            weight[:, (0, 1, 5), :, :] /= 8.0
        layers.append(
            LayerSpec(
                name=f"conv{i}",
                weight=weight,
                bias=np.zeros(cout, dtype=np.float32),
                stride=stride,
                padding=1,
                activation="relu",
            )
        )
    tail = widths[-1][1]
    # Heatmap bias starts at the focal-loss prior so early training is stable.
    hm_bias = np.full(cfg.num_classes, -math.log((1.0 - 0.01) / 0.01), dtype=np.float32)
    heads = {
        "heatmap": LayerSpec(
            name="head_hm",
            weight=_he_init(rng, cfg.num_classes, tail, 1),
            bias=hm_bias,
            activation="none",
        ),
        "regression": LayerSpec(
            name="head_reg",
            weight=_he_init(rng, REG_CHANNELS, tail, 1),
            bias=np.zeros(REG_CHANNELS, dtype=np.float32),
            activation="none",
        ),
    }
    return Network(layers=layers, heads=heads, input_spec=(PILLAR_CHANNELS, cfg.h_bev, cfg.w_bev))


def fp_exempt_layers(net: Network) -> set:
    """First trunk conv plus every head stays full precision."""
    if not net.layers or not net.heads:
        raise NetworkError("detector needs a trunk and heads to mark exemptions")
    names = {net.layers[0].name}
    names.update(h.name for h in net.heads.values())
    return names


def quantizable_layers(net: Network) -> List[str]:
    exempt = fp_exempt_layers(net)
    return [l.name for l in net.layers if l.name not in exempt]


def head_forward(net: Network, feats: Tensor) -> Tuple[Tensor, Tensor]:
    """Trunk + heads on a batched (B, 6, H, W) tensor; heatmap is post-sigmoid."""
    t = ad.as_tensor(feats)
    for layer in net.layers:
        t = layer_forward(t, layer)
    hm = ad.sigmoid(layer_forward(t, net.heads["heatmap"]))
    reg = layer_forward(t, net.heads["regression"])
    return hm, reg


def detector_forward(net: Network, grid: PillarGrid) -> DetectorOutput:
    if grid.features.shape[0] != net.input_spec[0]:
        raise NetworkError(
            f"grid has {grid.features.shape[0]} channels, net expects {net.input_spec[0]}"
        )
    hm, reg = head_forward(net, grid.features[None])
    return DetectorOutput(heatmap=hm.data[0], regression=reg.data[0])


# -- decoding ---------------------------------------------------------------------


def _local_peaks(hm: np.ndarray) -> np.ndarray:
    """Cells that are >= all 8 neighbors (a separable 3x3 max-pool equality test)."""
    h, w = hm.shape[1:]
    pad = np.pad(hm, ((0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    rows = np.maximum(np.maximum(pad[:, :, :w], pad[:, :, 1 : w + 1]), pad[:, :, 2:])
    neigh = np.maximum(np.maximum(rows[:, :h], rows[:, 1 : h + 1]), rows[:, 2:])
    return hm >= neigh


def decode_boxes(
    out: DetectorOutput,
    cfg: GridConfig,
    score_floor: float = 0.1,
    max_boxes: int = 500,
) -> List[Box3D]:
    """Heatmap peaks above the floor, best-first, turned into boxes."""
    hm, reg = np.asarray(out.heatmap), np.asarray(out.regression)
    if hm.ndim != 3 or reg.shape[0] != REG_CHANNELS or hm.shape[1:] != reg.shape[1:]:
        raise ValueError(f"bad output shapes {hm.shape} / {reg.shape}")
    cell = cfg.voxel_size * (cfg.h_bev // hm.shape[1])
    # Peak test in the head's dtype (max and >= are exact); the floor and
    # everything after it in float64.
    cls_idx, iy, ix = np.nonzero(_local_peaks(hm))
    scores = hm[cls_idx, iy, ix].astype(np.float64)
    above = scores >= score_floor
    cls_idx, iy, ix, scores = cls_idx[above], iy[above], ix[above], scores[above]
    if cls_idx.size == 0:
        return []
    cx, cy = cfg.x_min + (ix + 0.5) * cell, cfg.y_min + (iy + 0.5) * cell
    order = np.lexsort((cy, cx, -scores))[:max_boxes]
    r = reg[:, iy[order], ix[order]].astype(np.float64)
    x, y = cx[order] + r[0] * cell, cy[order] + r[1] * cell
    h, w, l = np.exp(np.clip(r[3:6], -8, 8))
    yaw = np.arctan2(r[6], r[7])
    cols = (x, y, r[2], h, w, l, yaw, cls_idx[order], scores[order])
    return [Box3D(*row) for row in zip(*(c.tolist() for c in cols))]


def _footprints(boxes: Sequence[Box3D]) -> np.ndarray:
    """(N, 4) BEV extents x0, y0, x1, y1 from `Box3D.footprint`."""
    return np.array([b.footprint() for b in boxes], dtype=np.float64).reshape(-1, 4)


def iou_matrix(a: Sequence[Box3D], b: Sequence[Box3D]) -> np.ndarray:
    """(len(a), len(b)) axis-aligned BEV IoU of footprints; yaw is ignored."""
    fa = _footprints(a)
    fb = fa if b is a else _footprints(b)
    ax0, ay0, ax1, ay1 = (c[:, None] for c in fa.T)
    bx0, by0, bx1, by1 = fb.T
    iw = np.clip(np.minimum(ax1, bx1) - np.maximum(ax0, bx0), 0.0, None)
    ih = np.clip(np.minimum(ay1, by1) - np.maximum(ay0, by0), 0.0, None)
    inter = iw * ih
    return inter / ((ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter)


def score_order(boxes: Sequence[Box3D]) -> List[int]:
    """Indices by (score desc, x asc, y asc), ties kept in input order."""
    keys = np.array([(b.score, b.x, b.y) for b in boxes], dtype=np.float64).reshape(-1, 3)
    return np.lexsort((keys[:, 2], keys[:, 1], -keys[:, 0])).tolist()


def nms_bev(boxes: List[Box3D], iou_threshold: float = 0.2) -> List[Box3D]:
    """Greedy suppression by (score desc, x asc, y asc) at axis-aligned IoU."""
    ranked = [boxes[i] for i in score_order(boxes)]
    # Row i holds the boxes that kept box i would suppress: ranked after it
    # and at or above the threshold.
    spared = ~np.triu(iou_matrix(ranked, ranked) >= iou_threshold, 1)
    alive = np.ones(len(ranked), dtype=bool)
    kept: List[Box3D] = []
    for i, box in enumerate(ranked):
        if alive[i]:
            kept.append(box)
            alive &= spared[i]
    return kept
