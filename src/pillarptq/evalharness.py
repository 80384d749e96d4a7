"""BEV detection metrics: greedy IoU matching, 101-point interpolated AP and
range-bucketed AP, at one scoring policy: `detector`'s detection policy, which
LiDAR-PTQ's pseudo-labels follow too, then match IoU 0.3 and DEFAULT_BUCKETS.
`evaluate_model` takes no knob to change it.

Matching builds one pred x GT IoU matrix per scene (detector.iou_matrix, the
helper NMS uses) and matches exactly as the per-pair loop it replaced did.

Yaw is not folded into AP (no heading weighting); its mean absolute error
over true positives is reported as a separate field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .detector import (
    NMS_IOU,
    SCORE_FLOOR,
    TOP_K,
    Box3D,
    GridConfig,
    decode_boxes,
    detector_forward,
    iou_matrix,
    nms_bev,
    pillarize,
    score_order,
    wrap_angle,
)
from .network import Network

DEFAULT_BUCKETS: Tuple[Tuple[float, float], ...] = ((0.0, 10.0), (10.0, 20.0), (20.0, math.inf))


def bucket_name(lo: float, hi: float) -> str:
    return f"{lo:g}-{'inf' if math.isinf(hi) else f'{hi:g}'}"


@dataclass
class EvalReport:
    ap_per_class: Dict[int, float]
    mean_ap: float
    bucket_ap: Dict[str, float]
    tp: int
    fp: int
    fn: int
    n_gt: int
    yaw_mae: float

    def as_dict(self) -> dict:
        """The report as a JSON-ready dict; NaN marks an undefined value."""
        return {
            "mean_ap": self.mean_ap,
            "ap_per_class": {str(k): v for k, v in sorted(self.ap_per_class.items())},
            "bucket_ap": {k: self.bucket_ap[k] for k in sorted(self.bucket_ap)},
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "n_gt": self.n_gt,
            "yaw_mae": self.yaw_mae,
        }


def _bucket_of(dist: float, buckets) -> int:
    for i, (lo, hi) in enumerate(buckets):
        if lo <= dist < hi or (math.isinf(hi) and dist >= lo):
            return i
    return len(buckets) - 1


@dataclass
class _Match:
    cls: int
    score: float
    tp: bool
    bucket: int
    yaw_err: float = 0.0


def _match_scene(
    preds: Sequence[Box3D], gts: Sequence[Box3D], iou_thresh: float, buckets
) -> Tuple[List[_Match], np.ndarray]:
    """Greedy score-ordered one-to-one matching; returns per-pred records and
    a matched flag per GT. Each pred takes the free same-class GT of highest
    IoU at or above the threshold (and above 0), the first such GT on ties."""
    matched = np.zeros(len(gts), dtype=bool)
    records: List[_Match] = []
    ranked = [preds[i] for i in score_order(preds)]
    ious = iou_matrix(ranked, gts)
    same_cls = np.array([p.cls for p in ranked])[:, None] == np.array([g.cls for g in gts])
    eligible = same_cls & (ious >= iou_thresh) & (ious > 0.0)
    has_candidate = eligible.any(axis=1).tolist()
    for k, p in enumerate(ranked):
        g = None
        if has_candidate[k] and (free := eligible[k] & ~matched).any():
            j = int(np.argmax(np.where(free, ious[k], -np.inf)))
            matched[j] = True
            g = gts[j]
        records.append(
            _Match(
                cls=p.cls,
                score=p.score,
                tp=g is not None,
                bucket=_bucket_of((p if g is None else g).range_from_origin(), buckets),
                yaw_err=0.0 if g is None else abs(wrap_angle(p.yaw - g.yaw)),
            )
        )
    return records, matched


def _ap_101(scores: np.ndarray, tps: np.ndarray, n_gt: int) -> float:
    """101-point interpolated average precision."""
    if n_gt == 0:
        return float("nan")
    if scores.size == 0:
        return 0.0
    order = np.argsort(-scores, kind="stable")
    tp = tps[order].astype(np.float64)
    ctp = np.cumsum(tp)
    cfp = np.cumsum(1.0 - tp)
    recall = ctp / n_gt
    precision = ctp / np.maximum(ctp + cfp, 1e-12)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    grid = np.linspace(0.0, 1.0, 101)
    idx = np.searchsorted(recall, grid, side="left")
    vals = np.where(idx < recall.size, envelope[np.minimum(idx, recall.size - 1)], 0.0)
    return float(vals.mean())


def evaluate(
    preds_per_scene: Sequence[Sequence[Box3D]],
    gts_per_scene: Sequence[Sequence[Box3D]],
    iou_thresh: float = 0.3,
) -> EvalReport:
    if len(preds_per_scene) != len(gts_per_scene):
        raise ValueError(
            f"scene count mismatch: {len(preds_per_scene)} preds vs {len(gts_per_scene)} gts"
        )
    records: List[_Match] = []
    gt_cls: List[int] = []
    gt_bucket: List[int] = []
    fn = 0
    for preds, gts in zip(preds_per_scene, gts_per_scene):
        recs, matched = _match_scene(preds, gts, iou_thresh, DEFAULT_BUCKETS)
        records.extend(recs)
        fn += int((~matched).sum())
        gt_cls.extend(g.cls for g in gts)
        gt_bucket.extend(_bucket_of(g.range_from_origin(), DEFAULT_BUCKETS) for g in gts)

    cls, bucket, score, tps = (
        np.array([getattr(r, k) for r in records]) for k in ("cls", "bucket", "score", "tp")
    )
    gt_cls_arr, gt_bucket_arr = np.array(gt_cls), np.array(gt_bucket)
    classes = sorted(set(gt_cls))
    ap_per_class = {
        c: _ap_101(score[cls == c], tps[cls == c], int((gt_cls_arr == c).sum())) for c in classes
    }
    mean_ap = float(np.mean([ap_per_class[c] for c in classes])) if classes else 0.0

    bucket_ap = {}
    for bi, (lo, hi) in enumerate(DEFAULT_BUCKETS):
        aps = []
        for c in classes:
            n_gt = int(((gt_cls_arr == c) & (gt_bucket_arr == bi)).sum())
            if n_gt:
                sel = (cls == c) & (bucket == bi)
                aps.append(_ap_101(score[sel], tps[sel], n_gt))
        bucket_ap[bucket_name(lo, hi)] = float(np.mean(aps)) if aps else float("nan")

    tp = int(tps.sum())
    fp = len(records) - tp
    yaw_errs = [r.yaw_err for r in records if r.tp]
    return EvalReport(
        ap_per_class=ap_per_class,
        mean_ap=mean_ap,
        bucket_ap=bucket_ap,
        tp=tp,
        fp=fp,
        fn=fn,
        n_gt=len(gt_cls),
        yaw_mae=float(np.mean(yaw_errs)) if yaw_errs else float("nan"),
    )


# -- model-level helpers ---------------------------------------------------------------


def model_predictions(
    net: Network,
    dataset,
    frames: Sequence[str],
    cfg: GridConfig,
    score_floor: float = SCORE_FLOOR,
    top_k: int = TOP_K,
    nms_iou: float = NMS_IOU,
) -> List[List[Box3D]]:
    preds = []
    for fid in frames:
        grid = pillarize(dataset.point_cloud(fid), cfg)
        out = detector_forward(net, grid)
        boxes = decode_boxes(out, cfg, score_floor=score_floor, max_boxes=top_k)
        preds.append(nms_bev(boxes, nms_iou))
    return preds


def evaluate_model(net: Network, dataset, cfg: GridConfig, split: str = "val") -> EvalReport:
    frames = dataset.frames(split)
    preds = model_predictions(net, dataset, frames, cfg)
    return evaluate(preds, [dataset.labels(f) for f in frames])
