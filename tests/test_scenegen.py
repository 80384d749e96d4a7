"""Synthetic scene generator tests: determinism, geometry invariants, density falloff."""

import numpy as np
import pytest

from pillarptq.detector import iou_matrix
from pillarptq.scenegen import DEFAULT_SIZES, SceneSpec, generate_scene


class TestSceneSpec:
    def test_defaults_are_valid(self):
        SceneSpec()

    @pytest.mark.parametrize(
        "kw",
        [
            {"n_objects_min": 5, "n_objects_max": 2},
            {"falloff": -1.0},
            {"base_points": 0},
            {"n_clusters_min": 4, "n_clusters_max": 1},
            {"cluster_range_min": 99.0},
            {"sizes": {0: ((0.0, 1.0, 1.0), (0.1, 0.1, 0.1))}},
            # objects and raised clutter are placed out to 0.95 x sensor_range,
            # ground clutter from 1 m
            {"min_range": -5.0},
            {"min_range": 31.0},
            {"min_range": float("nan")},
            {"cluster_range_min": 31.0},
            {"ref_range": 0.0},
            {"sensor_range": 0.5},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SceneSpec(**kw)

    def test_small_class_is_grid_resolvable(self):
        mean, _ = DEFAULT_SIZES[1]
        assert min(mean[1:]) >= 1.0  # footprint >= 2 cells at 0.5 m voxels


class TestGenerateScene:
    def test_deterministic_per_seed(self):
        spec = SceneSpec()
        pc1, boxes1 = generate_scene(spec, seed=42)
        pc2, boxes2 = generate_scene(spec, seed=42)
        np.testing.assert_array_equal(pc1.points, pc2.points)
        assert [(b.x, b.y, b.cls) for b in boxes1] == [(b.x, b.y, b.cls) for b in boxes2]
        pc3, _ = generate_scene(spec, seed=43)
        assert pc3.points.shape != pc1.points.shape or (pc3.points != pc1.points).any()

    def test_object_count_within_spec(self):
        spec = SceneSpec()
        for seed in range(10):
            _, boxes = generate_scene(spec, seed)
            assert spec.n_objects_min <= len(boxes) <= spec.n_objects_max

    def test_boxes_disjoint_and_in_range(self):
        spec = SceneSpec()
        for seed in range(10):
            _, boxes = generate_scene(spec, seed)
            for i, a in enumerate(boxes):
                assert spec.min_range <= a.range_from_origin() <= spec.sensor_range
                assert a.cls in (0, 1)
                for b in boxes[i + 1 :]:
                    assert iou_matrix([a], [b])[0, 0] == 0.0

    def test_every_box_collects_points(self, grid_cfg):
        # each labeled object must have at least one return inside its footprint
        spec = SceneSpec()
        for seed in range(5):
            pc, boxes = generate_scene(spec, seed)
            pts = pc.points
            for b in boxes:
                x0, y0, x1, y1 = b.footprint()
                slack = 0.3  # yawed faces can stick out of the axis-aligned footprint
                hit = (
                    (pts[:, 0] >= x0 - slack)
                    & (pts[:, 0] <= x1 + slack)
                    & (pts[:, 1] >= y0 - slack)
                    & (pts[:, 1] <= y1 + slack)
                    & (pts[:, 2] > 0.1)
                )
                assert hit.any()

    def test_far_objects_get_fewer_points(self):
        spec = SceneSpec(clutter_points=0, n_clusters_min=0, n_clusters_max=0)
        counts = {"near": [], "far": []}
        for seed in range(40):
            pc, boxes = generate_scene(spec, seed)
            pts = pc.points
            for b in boxes:
                x0, y0, x1, y1 = b.footprint()
                n = int(
                    (
                        (pts[:, 0] >= x0 - 0.3)
                        & (pts[:, 0] <= x1 + 0.3)
                        & (pts[:, 1] >= y0 - 0.3)
                        & (pts[:, 1] <= y1 + 0.3)
                    ).sum()
                )
                d = b.range_from_origin()
                if d < 10 and b.cls == 0:
                    counts["near"].append(n)
                elif d > 20 and b.cls == 0:
                    counts["far"].append(n)
        assert np.median(counts["near"]) > 3 * np.median(counts["far"])

    def test_raised_clutter_respects_keep_out_radius(self):
        spec = SceneSpec()
        for seed in range(8):
            pc, _ = generate_scene(spec, seed)
            pts = pc.points
            raised = pts[pts[:, 2] > 0.15]
            # raised returns inside the keep-out ring must belong to objects,
            # whose reflectance band starts higher than ground clutter's
            near = raised[np.hypot(raised[:, 0], raised[:, 1]) < spec.cluster_range_min - 2.5]
            if near.size:
                assert near[:, 3].mean() > 0.2

    def test_ground_clutter_hugs_the_ground(self):
        spec = SceneSpec(n_objects_min=0, n_objects_max=0, n_clusters_min=0, n_clusters_max=0)
        pc, boxes = generate_scene(spec, 0)
        assert boxes == []
        assert len(pc) == spec.clutter_points
        assert np.abs(pc.points[:, 2]).max() < 0.5

    def test_empty_spec_yields_empty_cloud(self):
        spec = SceneSpec(
            n_objects_min=0,
            n_objects_max=0,
            clutter_points=0,
            n_clusters_min=0,
            n_clusters_max=0,
        )
        pc, boxes = generate_scene(spec, 1)
        assert len(pc) == 0 and boxes == []
        assert pc.points.shape == (0, 4)
