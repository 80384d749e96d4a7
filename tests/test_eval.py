"""Detection-metric tests.

The 101-point AP is checked against a brute-force reference that rescans the
whole prediction list for every recall grid point, and the greedy matcher is
exercised on hand-built scenes where the correct assignment is unambiguous.
"""

import json
import math

import numpy as np
import pytest

from pillarptq.detector import Box3D
from pillarptq.evalharness import (
    _ap_101,
    bucket_name,
    evaluate,
    evaluate_model,
    model_predictions,
)


def box(x, y, cls=0, l=2.0, w=2.0, yaw=0.0, score=1.0):
    return Box3D(x=x, y=y, z=0.0, h=1.5, w=w, l=l, yaw=yaw, cls=cls, score=score)


def brute_force_ap(scores, tps, n_gt: int) -> float:
    """Max-precision-at-recall>=r averaged over the 101-point grid, computed
    by rescanning the full curve for every grid point."""
    if n_gt == 0:
        return float("nan")
    if len(scores) == 0:
        return 0.0
    order = sorted(range(len(scores)), key=lambda i: -scores[i])  # stable, like argsort
    total = 0.0
    for r in np.linspace(0.0, 1.0, 101):
        best = 0.0
        tp_cum = 0
        fp_cum = 0
        for i in order:
            tp_cum += int(tps[i])
            fp_cum += 1 - int(tps[i])
            if tp_cum / n_gt >= r:
                best = max(best, tp_cum / (tp_cum + fp_cum))
        total += best
    return total / 101.0


class TestAp101:
    def test_single_perfect_prediction(self):
        assert _ap_101(np.array([0.9]), np.array([True]), 1) == 1.0

    def test_fp_ranked_above_tp_halves_precision(self):
        # precision is 0.5 at every achieved recall level
        ap = _ap_101(np.array([0.9, 0.8]), np.array([False, True]), 1)
        assert ap == pytest.approx(0.5)

    def test_fp_ranked_below_tp_is_free(self):
        ap = _ap_101(np.array([0.9, 0.8]), np.array([True, False]), 1)
        assert ap == pytest.approx(1.0)

    def test_partial_recall_truncates_grid(self):
        # recall tops out at 0.5: grid points 0.00..0.50 see precision 1, rest 0
        ap = _ap_101(np.array([0.9]), np.array([True]), 2)
        assert ap == pytest.approx(51.0 / 101.0)

    def test_no_predictions_scores_zero(self):
        assert _ap_101(np.array([]), np.array([]), 3) == 0.0

    def test_no_ground_truth_is_nan(self):
        assert math.isnan(_ap_101(np.array([0.5]), np.array([True]), 0))

    def test_matches_brute_force(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 40))
            # one-decimal scores force plenty of ties through the sort
            scores = np.round(rng.random(n), 1)
            tps = rng.random(n) < 0.5
            n_gt = int(tps.sum() + rng.integers(0, 5))
            if n_gt == 0:
                continue
            got = _ap_101(scores, tps, n_gt)
            want = brute_force_ap(scores.tolist(), tps.tolist(), n_gt)
            assert got == pytest.approx(want, abs=1e-12)


class TestMatching:
    def test_identical_boxes_all_match(self):
        gts = [box(0.0, 0.0), box(8.0, 3.0, cls=1)]
        rep = evaluate([gts], [gts])
        assert (rep.tp, rep.fp, rep.fn) == (2, 0, 0)
        assert rep.mean_ap == 1.0
        assert rep.yaw_mae == 0.0

    def test_wrong_class_never_matches(self):
        rep = evaluate([[box(0.0, 0.0, cls=1)]], [[box(0.0, 0.0, cls=0)]])
        assert (rep.tp, rep.fp, rep.fn) == (0, 1, 1)
        assert rep.mean_ap == 0.0

    def test_second_prediction_on_same_gt_is_fp(self):
        preds = [box(0.0, 0.0, score=0.9), box(0.1, 0.0, score=0.8)]
        rep = evaluate([preds], [[box(0.0, 0.0)]])
        assert (rep.tp, rep.fp, rep.fn) == (1, 1, 0)

    def test_iou_threshold_boundary(self):
        # 2x2 squares: dx=0.9 gives IoU 2.2/5.8 (match), dx=1.2 gives 1.6/6.4 (no match)
        hit = evaluate([[box(0.9, 0.0)]], [[box(0.0, 0.0)]], iou_thresh=0.3)
        miss = evaluate([[box(1.2, 0.0)]], [[box(0.0, 0.0)]], iou_thresh=0.3)
        assert (hit.tp, hit.fn) == (1, 0)
        assert (miss.tp, miss.fp, miss.fn) == (0, 1, 1)

    def test_higher_score_claims_contested_gt(self):
        # the lower-scored pred overlaps better but arrives second
        preds = [box(0.5, 0.0, yaw=0.25, score=0.9), box(0.1, 0.0, score=0.8)]
        rep = evaluate([preds], [[box(0.0, 0.0)]])
        assert (rep.tp, rep.fp) == (1, 1)
        assert rep.yaw_mae == pytest.approx(0.25)

    def test_prediction_takes_best_iou_gt(self):
        gts = [box(0.0, 0.0, yaw=0.3), box(1.0, 0.0)]
        rep = evaluate([[box(0.2, 0.0, yaw=0.3)]], [gts])
        assert (rep.tp, rep.fn) == (1, 1)
        assert rep.yaw_mae == pytest.approx(0.0, abs=1e-12)

    def test_yaw_error_wraps(self):
        rep = evaluate(
            [[box(0.0, 0.0, yaw=-math.pi + 0.1)]],
            [[box(0.0, 0.0, yaw=math.pi - 0.1)]],
        )
        assert rep.yaw_mae == pytest.approx(0.2)


class TestEvaluateAggregation:
    def test_scene_count_mismatch_raises(self):
        with pytest.raises(ValueError, match="scene count"):
            evaluate([[]], [[], []])

    def test_counts_accumulate_across_scenes(self):
        s1_preds, s1_gts = [box(0.0, 0.0)], [box(0.0, 0.0)]
        s2_preds, s2_gts = [box(30.0, 0.0)], [box(5.0, 5.0)]
        rep = evaluate([s1_preds, s2_preds], [s1_gts, s2_gts])
        assert (rep.tp, rep.fp, rep.fn, rep.n_gt) == (1, 1, 1, 2)

    def test_mean_ap_averages_classes(self):
        gts = [box(0.0, 0.0, cls=0), box(10.0, 0.0, cls=1)]
        preds = [box(0.0, 0.0, cls=0), box(-20.0, 0.0, cls=1)]
        rep = evaluate([preds], [gts])
        assert rep.ap_per_class[0] == 1.0
        assert rep.ap_per_class[1] == 0.0
        assert rep.mean_ap == pytest.approx(0.5)

    def test_range_buckets_partition_gts(self):
        gts = [box(5.0, 0.0), box(15.0, 0.0), box(25.0, 0.0)]
        preds = [box(5.0, 0.0, score=0.9), box(15.0, 0.0, score=0.8)]
        rep = evaluate([preds], [gts])
        assert rep.bucket_ap["0-10"] == 1.0
        assert rep.bucket_ap["10-20"] == 1.0
        assert rep.bucket_ap["20-inf"] == 0.0
        assert rep.mean_ap == pytest.approx(67.0 / 101.0)

    def test_false_positive_bucketed_by_its_own_range(self):
        # stray far pred should only poison the far bucket
        gts = [box(5.0, 0.0), box(25.0, 0.0)]
        preds = [box(5.0, 0.0, score=0.9), box(25.0, 8.0, score=0.8)]
        rep = evaluate([preds], [gts])
        assert rep.bucket_ap["0-10"] == 1.0
        assert rep.bucket_ap["20-inf"] == 0.0

    def test_empty_bucket_is_nan(self):
        rep = evaluate([[box(5.0, 0.0)]], [[box(5.0, 0.0)]])
        assert math.isnan(rep.bucket_ap["20-inf"])

    def test_yaw_mae_nan_without_tps(self):
        rep = evaluate([[]], [[box(0.0, 0.0)]])
        assert math.isnan(rep.yaw_mae)

    def test_bucket_name_formatting(self):
        assert bucket_name(0.0, 10.0) == "0-10"
        assert bucket_name(20.0, math.inf) == "20-inf"
        assert bucket_name(2.5, 7.5) == "2.5-7.5"

    def test_report_json_round_trip(self):
        gts = [box(0.0, 0.0), box(15.0, 0.0), box(25.0, 0.0)]
        rep = evaluate([gts], [gts])
        payload = json.loads(json.dumps(rep.as_dict()))
        assert list(payload) == [
            "mean_ap", "ap_per_class", "bucket_ap", "tp", "fp", "fn", "n_gt", "yaw_mae",
        ]
        assert payload["mean_ap"] == rep.mean_ap
        assert payload["ap_per_class"] == {"0": 1.0}
        assert payload["n_gt"] == 3


class TestModelEvaluation:
    def test_model_predictions_deterministic(self, tiny_net, tiny_dataset, grid_cfg):
        frames = tiny_dataset.frames("val")[:2]
        a = model_predictions(tiny_net, tiny_dataset, frames, grid_cfg)
        b = model_predictions(tiny_net, tiny_dataset, frames, grid_cfg)
        assert len(a) == len(b) == 2
        for boxes_a, boxes_b in zip(a, b):
            assert len(boxes_a) == len(boxes_b)
            for p, q in zip(boxes_a, boxes_b):
                assert (p.x, p.y, p.yaw, p.cls, p.score) == (q.x, q.y, q.yaw, q.cls, q.score)

    def test_evaluate_model_counts_are_consistent(self, tiny_net, tiny_dataset, grid_cfg):
        rep = evaluate_model(tiny_net, tiny_dataset, grid_cfg, split="val")
        assert rep.tp + rep.fn == rep.n_gt
        assert rep.n_gt > 0
        assert 0.0 <= rep.mean_ap <= 1.0
