"""Pillar encoding, detector construction, box decoding, and BEV NMS tests."""

import math

import numpy as np
import pytest

from pillarptq.detector import (
    COUNT_NORM,
    PILLAR_CHANNELS,
    REG_CHANNELS,
    Box3D,
    DetectorOutput,
    GridConfig,
    PointCloud,
    build_detector,
    decode_boxes,
    detector_forward,
    fp_exempt_layers,
    iou_matrix,
    nms_bev,
    pillarize,
    quantizable_layers,
    wrap_angle,
)
from pillarptq.network import NetworkError


# -- primitives --------------------------------------------------------------------


class TestPointCloud:
    def test_empty_cloud_normalizes_shape(self):
        pc = PointCloud(np.zeros((0,)))
        assert pc.points.shape == (0, 4)
        assert len(pc) == 0

    def test_rejects_wrong_width_and_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((5, 3)))
        with pytest.raises(ValueError):
            PointCloud(np.full((2, 4), np.nan))


class TestBox3D:
    def test_rejects_non_positive_sizes(self):
        with pytest.raises(ValueError):
            Box3D(0, 0, 0, h=0.0, w=1, l=1, yaw=0, cls=0)

    def test_yaw_wraps_into_pi_interval(self):
        b = Box3D(0, 0, 0, 1, 1, 1, yaw=3 * math.pi, cls=0)
        assert b.yaw == pytest.approx(math.pi)
        assert abs(wrap_angle(-7.0)) <= math.pi

    def test_footprint_is_axis_aligned(self):
        b = Box3D(1.0, 2.0, 0, h=1, w=2.0, l=4.0, yaw=1.3, cls=0)
        assert b.footprint() == (-1.0, 1.0, 3.0, 3.0)

    def test_range_from_origin(self):
        assert Box3D(3, 4, 0, 1, 1, 1, 0, 0).range_from_origin() == pytest.approx(5.0)


class TestGridConfig:
    def test_default_grid_is_128_square(self, grid_cfg):
        assert (grid_cfg.h_bev, grid_cfg.w_bev) == (128, 128)
        assert grid_cfg.num_classes == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            GridConfig(voxel_size=0.0)
        with pytest.raises(ValueError):
            GridConfig(x_min=1.0, x_max=-1.0)


# -- pillar encoder ----------------------------------------------------------------


class TestPillarize:
    def test_two_points_one_cell_hand_computed(self, grid_cfg):
        pts = np.array(
            [
                [0.1, 0.2, -0.5, 0.3],
                [0.3, 0.4, 0.5, 0.7],
            ],
            dtype=np.float32,
        )
        grid = pillarize(PointCloud(pts), grid_cfg)
        cell = grid.features[:, 64, 64]
        np.testing.assert_allclose(
            cell,
            [0.2, 0.3, 0.0, 0.5, 2.0 / COUNT_NORM, 0.5],
            atol=1e-6,
        )
        assert grid.occupancy[64, 64]
        assert grid.occupancy.sum() == 1

    def test_count_channel_saturates(self, grid_cfg):
        pts = np.tile(np.array([[5.2, -3.1, 0.0, 1.0]], dtype=np.float32), (40, 1))
        grid = pillarize(PointCloud(pts), grid_cfg)
        iy, ix = np.argwhere(grid.occupancy)[0]
        assert grid.features[4, iy, ix] == 1.0  # 40 points >> normalizer

    def test_out_of_range_points_dropped(self, grid_cfg):
        pts = np.array([[100.0, 0.0, 0.0, 0.5], [0.0, -100.0, 0.0, 0.5]], np.float32)
        grid = pillarize(PointCloud(pts), grid_cfg)
        assert not grid.occupancy.any()
        assert np.abs(grid.features).sum() == 0

    def test_empty_cloud(self, grid_cfg):
        grid = pillarize(PointCloud(np.zeros((0, 4))), grid_cfg)
        assert grid.features.shape == (PILLAR_CHANNELS, 128, 128)
        assert not grid.occupancy.any()

    def test_coordinate_carrier_channel_grows_with_range(self, grid_cfg):
        near = np.array([[1.0, 1.0, 0.0, 0.5]], np.float32)
        far = np.array([[25.0, 20.0, 0.0, 0.5]], np.float32)
        g_near = pillarize(PointCloud(near), grid_cfg)
        g_far = pillarize(PointCloud(far), grid_cfg)
        assert g_far.features[5].max() > 10 * g_near.features[5].max()


# -- architecture ------------------------------------------------------------------


class TestBuildDetector:
    def test_trunk_and_heads_shape(self, grid_cfg):
        net = build_detector(grid_cfg, seed=0)
        assert [l.name for l in net.layers] == ["conv0", "conv1", "conv2", "conv3"]
        assert net.layers[0].stride == 2
        assert all(l.stride == 1 for l in net.layers[1:])
        assert net.input_spec == (PILLAR_CHANNELS, 128, 128)
        assert set(net.heads) == {"heatmap", "regression"}
        assert net.heads["heatmap"].weight.shape[:2] == (2, net.layers[-1].out_ch)
        assert net.heads["regression"].weight.shape[0] == REG_CHANNELS

    def test_heatmap_bias_starts_at_rare_prior(self, grid_cfg):
        net = build_detector(grid_cfg)
        want = -math.log(0.99 / 0.01)
        np.testing.assert_allclose(net.heads["heatmap"].bias, want, rtol=1e-6)

    def test_first_and_last_layers_are_exempt(self, grid_cfg):
        net = build_detector(grid_cfg)
        assert fp_exempt_layers(net) == {"conv0", "head_hm", "head_reg"}
        assert quantizable_layers(net) == ["conv1", "conv2", "conv3"]

    def test_seed_determinism(self, grid_cfg):
        a = build_detector(grid_cfg, seed=5)
        b = build_detector(grid_cfg, seed=5)
        c = build_detector(grid_cfg, seed=6)
        np.testing.assert_array_equal(a.layers[1].weight, b.layers[1].weight)
        assert np.abs(a.layers[1].weight - c.layers[1].weight).sum() > 0

    def test_forward_output_contract(self, grid_cfg, rng):
        net = build_detector(grid_cfg)
        grid = pillarize(
            PointCloud(rng.uniform(-20, 20, (50, 4)).astype(np.float32)), grid_cfg
        )
        out = detector_forward(net, grid)
        assert out.heatmap.shape == (2, 64, 64)  # stride-2 trunk
        assert out.regression.shape == (REG_CHANNELS, 64, 64)
        assert (out.heatmap >= 0).all() and (out.heatmap <= 1).all()

    def test_forward_rejects_channel_mismatch(self, grid_cfg):
        net = build_detector(grid_cfg)
        from pillarptq.detector import PillarGrid

        bad = PillarGrid(
            np.zeros((3, 128, 128), np.float32),
            np.zeros((128, 128), bool),
            0.5,
            (-32, 32, -32, 32),
        )
        with pytest.raises(NetworkError):
            detector_forward(net, bad)


# -- decoding ----------------------------------------------------------------------


class TestDecodeBoxes:
    def make_output(self):
        hm = np.zeros((1, 8, 8))
        reg = np.zeros((REG_CHANNELS, 8, 8))
        hm[0, 2, 3] = 0.9
        reg[:, 2, 3] = [0.25, -0.5, 1.2, math.log(2), math.log(1.5), math.log(3), 1.0, 0.0]
        return DetectorOutput(hm, reg)

    def test_hand_computed_box(self, grid_cfg):
        # 8x8 map over a 128-cell grid: decode stride 16, cell size 8 m
        boxes = decode_boxes(self.make_output(), grid_cfg)
        assert len(boxes) == 1
        b = boxes[0]
        assert b.x == pytest.approx(-32 + 3.5 * 8 + 0.25 * 8)
        assert b.y == pytest.approx(-32 + 2.5 * 8 - 0.5 * 8)
        assert (b.z, b.h, b.w, b.l) == pytest.approx((1.2, 2.0, 1.5, 3.0))
        assert b.yaw == pytest.approx(math.pi / 2)
        assert b.cls == 0 and b.score == pytest.approx(0.9)

    def test_score_floor_filters(self, grid_cfg):
        out = self.make_output()
        assert decode_boxes(out, grid_cfg, score_floor=0.95) == []

    def test_non_peak_cells_ignored(self, grid_cfg):
        out = self.make_output()
        out.heatmap[0, 2, 4] = 0.5  # adjacent, lower: not a local peak
        boxes = decode_boxes(out, grid_cfg)
        assert len(boxes) == 1 and boxes[0].score == pytest.approx(0.9)

    def test_max_boxes_keeps_best_scores(self, grid_cfg):
        hm = np.zeros((1, 8, 8))
        hm[0, ::2, ::2] = np.linspace(0.2, 0.9, 16).reshape(4, 4)
        out = DetectorOutput(hm, np.zeros((REG_CHANNELS, 8, 8)))
        boxes = decode_boxes(out, grid_cfg, max_boxes=5)
        assert len(boxes) == 5
        assert min(b.score for b in boxes) >= 0.7

    def test_shape_validation(self, grid_cfg):
        with pytest.raises(ValueError):
            decode_boxes(DetectorOutput(np.zeros((8, 8)), np.zeros((8, 8, 8))), grid_cfg)


# -- overlap + suppression ------------------------------------------------------------


class TestIoUAndNMS:
    def box(self, x, y, w=2.0, l=4.0, score=1.0, cls=0):
        return Box3D(x, y, 0.0, 1.0, w, l, 0.0, cls, score)

    def test_identical_boxes(self):
        assert iou_matrix([self.box(0, 0)], [self.box(0, 0)])[0, 0] == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        assert iou_matrix([self.box(0, 0)], [self.box(10, 0)])[0, 0] == 0.0

    def test_hand_computed_overlap(self):
        # [-2,2]x[-1,1] vs [-1.5,2.5]x[-1,1]: inter 7, union 9
        got = iou_matrix([self.box(0, 0)], [self.box(0.5, 0)])[0, 0]
        assert got == pytest.approx(7.0 / 9.0)

    def test_yaw_is_ignored(self):
        a = Box3D(0, 0, 0, 1, 2, 4, 0.0, 0)
        b = Box3D(0, 0, 0, 1, 2, 4, 1.2, 0)
        assert iou_matrix([a], [b])[0, 0] == pytest.approx(1.0)

    def test_nms_suppresses_overlaps_keeps_best(self):
        boxes = [
            self.box(0, 0, score=0.9),
            self.box(0.5, 0, score=0.8),
            self.box(10, 10, score=0.7),
        ]
        kept = nms_bev(boxes, iou_threshold=0.2)
        assert [b.score for b in kept] == [0.9, 0.7]

    def test_nms_threshold_boundary(self):
        boxes = [self.box(0, 0, score=0.9), self.box(0.5, 0, score=0.8)]
        kept = nms_bev(boxes, iou_threshold=0.9)  # overlap 7/9 < 0.9 survives
        assert len(kept) == 2

    def test_nms_empty(self):
        assert nms_bev([]) == []

    def test_nms_deterministic_on_score_ties(self):
        boxes = [self.box(1.0, 0, score=0.5), self.box(0.0, 0, score=0.5)]
        kept = nms_bev(boxes, iou_threshold=0.99)
        assert [b.x for b in kept] == [0.0, 1.0]  # x breaks the tie
