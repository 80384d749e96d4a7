"""Loss-function tests: focal/L1 against plain-numpy references, target rendering,
and the per-layer objective of LiDAR-PTQ (`pipeline._layer_losses`): the local
reconstruction term plus lambda2 times the task loss. The local term, computed
from Gram matrices, is checked against the conv form it replaces."""

import math

import numpy as np
import pytest

import pillarptq.autodiff as ad
from pillarptq.autodiff import Tensor
from pillarptq.config import PipelineConfig
from pillarptq.detector import Box3D, DetectorOutput, GridConfig, REG_CHANNELS
from pillarptq.losses import (
    HEATMAP_CLAMP,
    draw_gaussian,
    focal_loss,
    gaussian_radius,
    l1_reg_loss,
    make_pseudo_labels,
    pow2,
    pseudo_label_loss,
    render_targets,
)
from pillarptq.network import LayerSpec
from pillarptq.pipeline import _gram, _layer_inputs, _layer_losses, _local_loss, _w_hat


def numpy_focal(pred: np.ndarray, target: np.ndarray) -> float:
    """Independent focal-loss reference."""
    p = np.clip(pred, HEATMAP_CLAMP, 1 - HEATMAP_CLAMP)
    pos = target == 1.0
    n_pos = max(1.0, float(pos.sum()))
    pos_term = ((1 - p[pos]) ** 2 * np.log(p[pos])).sum()
    neg = ~pos
    neg_term = ((1 - target[neg]) ** 4 * p[neg] ** 2 * np.log(1 - p[neg])).sum()
    return -(pos_term + neg_term) / n_pos


class TestGaussianRadius:
    @pytest.mark.parametrize("d", [4.0, 8.0, 40.0])
    @pytest.mark.parametrize("overlap", [0.3, 0.5, 0.7])
    def test_diagonal_shift_by_radius_keeps_overlap(self, d, overlap):
        r = gaussian_radius(d, d, overlap)
        inter = (d - r) ** 2
        iou = inter / (2 * d * d - inter)
        assert iou >= overlap

    def test_monotone_in_overlap_and_scale(self):
        assert gaussian_radius(10, 10, 0.7) < gaussian_radius(10, 10, 0.3)
        assert gaussian_radius(20, 20, 0.3) == pytest.approx(
            2 * gaussian_radius(10, 10, 0.3), rel=1e-9
        )

    def test_never_negative(self):
        assert gaussian_radius(0.5, 0.5, 0.99) >= 0.0


class TestDrawGaussian:
    def test_peak_and_symmetry(self):
        hm = np.zeros((11, 11), np.float32)
        draw_gaussian(hm, 5, 5, radius=3)
        assert hm[5, 5] == pytest.approx(1.0)
        np.testing.assert_allclose(hm, hm[::-1, :], atol=1e-7)
        np.testing.assert_allclose(hm, hm[:, ::-1], atol=1e-7)
        assert hm[5, 1] == 0.0  # outside the radius window

    def test_max_merge_not_sum(self):
        hm = np.zeros((11, 11), np.float32)
        draw_gaussian(hm, 5, 5, radius=2)
        before = hm.copy()
        draw_gaussian(hm, 5, 5, radius=2)
        np.testing.assert_array_equal(hm, before)

    def test_clips_at_borders(self):
        hm = np.zeros((8, 8), np.float32)
        draw_gaussian(hm, 0, 0, radius=3)
        assert hm[0, 0] == pytest.approx(1.0)
        draw_gaussian(hm, -10, -10, radius=2)  # entirely off-map: no-op


class TestRenderTargets:
    def test_single_box_hand_computed(self, grid_cfg):
        b = Box3D(x=1.3, y=-2.2, z=0.4, h=1.5, w=2.0, l=4.0, yaw=0.3, cls=1)
        lab = render_targets([b], grid_cfg, out_stride=2)
        assert lab.heatmap_target.shape == (2, 64, 64)
        ix = int((1.3 + 32) // 1.0)
        iy = int((-2.2 + 32) // 1.0)
        assert lab.heatmap_target[1, iy, ix] == 1.0
        assert lab.heatmap_target[0].max() == 0.0  # other class untouched
        assert lab.reg_mask[iy, ix]
        cx, cy = -32 + (ix + 0.5), -32 + (iy + 0.5)
        want = [
            1.3 - cx, -2.2 - cy, 0.4,
            math.log(1.5), math.log(2.0), math.log(4.0),
            math.sin(0.3), math.cos(0.3),
        ]
        np.testing.assert_allclose(lab.reg_target[:, iy, ix], want, rtol=1e-6)
        assert lab.boxes == [b]

    def test_off_grid_and_bad_class_skipped(self, grid_cfg):
        far = Box3D(500.0, 0, 0, 1, 1, 1, 0, 0)
        badc = Box3D(0, 0, 0, 1, 1, 1, 0, cls=7)
        lab = render_targets([far, badc], grid_cfg)
        assert not lab.reg_mask.any() and lab.boxes == []

    def test_cell_collision_keeps_higher_score(self, grid_cfg):
        hi = Box3D(0.2, 0.2, 0, 1, 1, 1.0, 0, 0, score=0.9)
        lo = Box3D(0.3, 0.3, 0, 1, 1, 3.0, 0, 0, score=0.5)
        lab = render_targets([lo, hi], grid_cfg)
        assert lab.boxes == [hi]
        iy, ix = np.argwhere(lab.reg_mask)[0]
        assert lab.reg_target[5, iy, ix] == pytest.approx(0.0)  # log l of the winner


class TestFocalLoss:
    def test_matches_numpy_reference(self, rng):
        pred = rng.uniform(0.01, 0.99, (2, 16, 16)).astype(np.float32)
        target = np.zeros((2, 16, 16), np.float32)
        target[0, 3, 4] = 1.0
        target[1, 8, 8] = 1.0
        target[0, 3, 5] = 0.6  # soft neighborhood
        got = float(focal_loss(Tensor(pred), target).data)
        assert got == pytest.approx(numpy_focal(pred, target), rel=1e-5)

    def test_perfect_prediction_is_near_zero(self):
        target = np.zeros((1, 8, 8), np.float32)
        target[0, 2, 2] = 1.0
        pred = np.where(target == 1.0, 1.0 - HEATMAP_CLAMP, HEATMAP_CLAMP)
        assert float(focal_loss(Tensor(pred), target).data) < 1e-5

    def test_gradient_pushes_positives_up(self):
        target = np.zeros((1, 4, 4), np.float32)
        target[0, 1, 1] = 1.0
        p = Tensor(np.full((1, 4, 4), 0.3, np.float32), requires_grad=True)
        focal_loss(p, target).backward()
        assert p.grad[0, 1, 1] < 0  # raising p at the positive lowers the loss
        assert p.grad[0, 0, 0] > 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            focal_loss(Tensor(np.zeros((1, 4, 4))), np.zeros((1, 5, 5)))


class TestL1RegLoss:
    def test_hand_computed(self):
        pred = np.zeros((2, 2, 2), np.float32)
        pred[:, 0, 0] = [1.0, -2.0]
        target = np.zeros((2, 2, 2), np.float32)
        target[:, 0, 0] = [0.5, 0.0]
        mask = np.zeros((2, 2), bool)
        mask[0, 0] = True
        got = float(l1_reg_loss(Tensor(pred), target, mask).data)
        assert got == pytest.approx((0.5 + 2.0) / (1 * 2))  # sum / (n_pos * channels)

    def test_empty_mask_is_exact_zero(self, rng):
        pred = Tensor(rng.normal(size=(8, 4, 4)).astype(np.float32))
        out = l1_reg_loss(pred, np.zeros((8, 4, 4), np.float32), np.zeros((4, 4), bool))
        assert float(out.data) == 0.0

    def test_batched_matches_mean_of_singles(self, rng):
        pred = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        target = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        mask = rng.random((2, 4, 4)) < 0.4
        batched = float(l1_reg_loss(Tensor(pred), target, mask).data)
        total_abs = sum(
            np.abs(pred[i] - target[i])[:, mask[i]].sum() for i in range(2)
        )
        assert batched == pytest.approx(total_abs / (mask.sum() * 3), rel=1e-5)

    def test_mask_shape_validated(self):
        with pytest.raises(ValueError):
            l1_reg_loss(
                Tensor(np.zeros((2, 4, 4))), np.zeros((2, 4, 4)), np.zeros((5, 5), bool)
            )


class TestCompositeLosses:
    def test_pseudo_label_loss_combines_terms(self, grid_cfg, rng):
        hm = rng.uniform(0.05, 0.95, (1, 2, 64, 64)).astype(np.float32)
        reg = rng.normal(size=(1, REG_CHANNELS, 64, 64)).astype(np.float32)
        lab = render_targets([Box3D(1, 1, 0, 1, 2, 4, 0.2, 0)], grid_cfg)
        got = float(pseudo_label_loss(DetectorOutput(Tensor(hm), Tensor(reg)), [lab]).data)
        want = float(focal_loss(Tensor(hm[0]), lab.heatmap_target).data) + 0.25 * float(
            l1_reg_loss(Tensor(reg[0]), lab.reg_target, lab.reg_mask).data
        )
        assert got == pytest.approx(want, rel=1e-6)

    def test_pseudo_label_loss_accepts_batches(self, grid_cfg, rng):
        lab = render_targets([Box3D(1, 1, 0, 1, 2, 4, 0.2, 0)], grid_cfg)
        hm = rng.uniform(0.05, 0.95, (1, 2, 64, 64)).astype(np.float32)
        reg = rng.normal(size=(1, REG_CHANNELS, 64, 64)).astype(np.float32)
        batched = DetectorOutput(Tensor(hm), Tensor(reg))
        twice = DetectorOutput(Tensor(np.concatenate([hm, hm])), Tensor(np.concatenate([reg, reg])))
        a = float(pseudo_label_loss(batched, [lab]).data)
        b = float(pseudo_label_loss(twice, [lab, lab]).data)
        # both terms are normalized over the batch: a repeated frame changes nothing
        assert a == pytest.approx(b, rel=1e-6)

    def test_total_loss_weighting(self, first_layer):
        net, layer, inputs = first_layer
        cfg = PipelineConfig(lambda2=0.5)
        _, (local, task, total) = layer_losses(net, layer, inputs, cfg)
        want = float(local.data) + 0.5 * float(task.data)
        assert float(total.data) == pytest.approx(want, rel=1e-6)
        # lambda2=0 leaves the local term alone: the ablation without TGPL
        _, (local, _, total) = layer_losses(net, layer, inputs, PipelineConfig(lambda2=0.0))
        assert float(total.data) == float(local.data)


@pytest.fixture()
def first_layer(tiny_net, tiny_calib_feats):
    """A copy of the tiny detector, its first quantizable layer and two of
    that layer's calibration inputs."""
    net = tiny_net.copy()
    layer, inputs = next(_layer_inputs(net, tiny_calib_feats))
    return net, layer, inputs[:2]


def maxmin_scale(w):
    return float(np.abs(w).max()) / 127.5


def layer_losses(net, layer, inputs, cfg=PipelineConfig(), s_w=None):
    """(params, (local, task, total)) of one taped step on `inputs`, at weight
    scale `s_w` (default: max-min), against empty pseudo-labels."""
    s_w = maxmin_scale(layer.weight) if s_w is None else s_w
    params = {"s_w": Tensor(s_w, requires_grad=True), "s_a": Tensor(0.05, requires_grad=True)}
    x = Tensor(np.stack(inputs))
    gram = batch_gram(layer, inputs)
    labels = [render_targets([], GridConfig()) for _ in inputs]
    return params, _layer_losses(net, layer, params, x, gram, labels, cfg)


def batch_gram(layer, inputs):
    """The batch form of the local term's input: the float64 sum of its
    frames' Gram matrices."""
    return sum(_gram(layer, a).astype(np.float64) for a in inputs)


def conv_local_loss(layer, params, x, cfg):
    """The brute-force local term: the fake-quantized weight's conv against
    the float conv, squared and summed, per frame."""
    ref = ad.conv2d(x, Tensor(layer.weight), None, layer.stride, layer.padding).data
    q = ad.conv2d(x, _w_hat(layer, params, cfg), None, layer.stride, layer.padding)
    return ad.tsum(pow2(q - ref)) * (1.0 / len(x.data))


class TestLocalReconLoss:
    def test_zero_when_weights_identical(self, first_layer):
        # a weight already on the grid quantizes to itself
        net, layer, inputs = first_layer
        s_w = maxmin_scale(layer.weight)
        layer.weight = ad.fake_quant_op(Tensor(layer.weight), Tensor(s_w), 8).data
        _, (local, _, _) = layer_losses(net, layer, inputs, s_w=s_w)
        assert float(local.data) == 0.0

    def test_matches_direct_frobenius_gap(self, first_layer):
        net, layer, inputs = first_layer
        params, (local, _, _) = layer_losses(net, layer, inputs)
        x = Tensor(np.stack(inputs))
        w_hat = ad.fake_quant_op(Tensor(layer.weight), params["s_w"], 8)
        a = ad.conv2d(x, Tensor(layer.weight), None, layer.stride, layer.padding).data
        b = ad.conv2d(x, w_hat, None, layer.stride, layer.padding).data
        want = ((a.astype(np.float64) - b) ** 2).sum() / len(inputs)
        assert float(local.data) > 0.0
        assert float(local.data) == pytest.approx(want, rel=1e-4)

    def test_gradient_reaches_quantized_weight_only(self, first_layer):
        # the local term compares float and quantized convs of the same
        # float input: only the weight scale is on its trace
        net, layer, inputs = first_layer
        params, (local, _, _) = layer_losses(net, layer, inputs)
        local.backward()
        assert params["s_w"].grad is not None and np.abs(params["s_w"].grad).sum() > 0
        assert params["s_a"].grad is None

    def test_shape_validation(self, first_layer):
        net, layer, inputs = first_layer
        wrong = [np.zeros((layer.in_ch + 1, *inputs[0].shape[1:]), np.float32)] * 2
        with pytest.raises(ValueError):
            layer_losses(net, layer, wrong)


class TestLocalTermAgainstConvForm:
    """`_local_loss` from the batch's Gram matrix against `conv_local_loss`."""

    @staticmethod
    def params(rng, layer, grad=True):
        s_w = maxmin_scale(layer.weight)
        theta = rng.uniform(0.0, s_w, size=layer.weight.shape)
        values = {"s_w": s_w, "s_a": 0.05, "theta": theta}
        return {k: Tensor(v, requires_grad=grad) for k, v in values.items()}

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize(
        "batch,cin", [(1, 1), (2, 2), (3, 3), (4, 4), (1, 5), (2, 6), (3, 7), (4, 8)]
    )
    def test_loss_and_gradients_match_in_float64(self, rng, stride, padding, batch, cin):
        weight = rng.normal(size=(3, cin, 3, 3))
        layer = LayerSpec("conv", weight, np.zeros(3), stride=stride, padding=padding)
        frames = list(rng.normal(size=(batch, cin, 9, 8)))
        cfg = PipelineConfig()
        with ad.using_dtype(np.float64):
            results = []
            for form in ("gram", "conv"):
                params = self.params(np.random.default_rng(batch), layer)
                if form == "gram":
                    loss = _local_loss(layer, params, batch_gram(layer, frames), batch, cfg)
                else:
                    loss = conv_local_loss(layer, params, Tensor(np.stack(frames)), cfg)
                loss.backward()
                results.append((loss.data, params["s_w"].grad, params["theta"].grad))
        (got, got_sw, got_theta), (want, want_sw, want_theta) = results
        assert float(got) > 0.0
        np.testing.assert_allclose(got, want, rtol=1e-10)
        np.testing.assert_allclose(got_sw, want_sw, rtol=1e-10)
        # an offset's gradient is a sum with cancellation; its rounding is
        # relative to the largest entry
        scale = np.abs(want_theta).max()
        np.testing.assert_allclose(got_theta, want_theta, rtol=1e-10, atol=1e-10 * scale)

    def test_frame_grams_are_exactly_symmetric(self, tiny_net, tiny_calib_feats):
        # quad_form's vjp is the gradient only for a symmetric G; numpy's
        # P @ P.T (BLAS syrk) makes it so bitwise
        for layer, inputs in _layer_inputs(tiny_net.copy(), tiny_calib_feats):
            for frame in inputs[:2]:
                g = _gram(layer, frame)
                assert g.dtype == np.float32
                assert g.tobytes() == np.ascontiguousarray(g.T).tobytes()

    def test_loss_matches_in_float32_at_every_quantizable_layer(self, tiny_net, tiny_calib_feats):
        net, rng, seen = tiny_net.copy(), np.random.default_rng(0), 0
        for layer, inputs in _layer_inputs(net, tiny_calib_feats):
            params = self.params(rng, layer, grad=False)
            got = _local_loss(layer, params, batch_gram(layer, inputs[:4]), 4, PipelineConfig())
            want = conv_local_loss(layer, params, Tensor(np.stack(inputs[:4])), PipelineConfig())
            assert got.data.dtype == want.data.dtype == np.float32
            assert float(got.data) == pytest.approx(float(want.data), rel=1e-5)
            seen += 1
        assert seen == 3


def test_layer_loss_backward_copies_only_a_gradient_two_parents_share(first_layer):
    # Every node takes a gradient array some vjp handed it as its buffer,
    # except the total's two parents, which `add` hands the same array.
    net, layer, inputs = first_layer
    _, (_, _, total) = layer_losses(net, layer, inputs, PipelineConfig(lambda2=1.0))
    nodes, stack, handed = {}, [total], []
    while stack:
        node = stack.pop()
        if id(node) not in nodes and node.requires_grad:
            nodes[id(node)] = node
            stack.extend(node._parents)

    def recording(vjp):
        def wrapped(g):
            grads = vjp(g)
            handed.extend(grads)
            return grads

        return wrapped

    for node in nodes.values():
        if node._vjp is not None:
            node._vjp = recording(node._vjp)
    shared = total._parents
    total.backward()
    copied = [n for n in nodes.values() if n is not total and not any(n.grad is h for h in handed)]
    assert len(nodes) > 20
    assert {id(n) for n in copied} == {id(n) for n in shared}


class TestMakePseudoLabels:
    def test_detections_become_soft_targets(self, grid_cfg):
        hm = np.zeros((2, 64, 64))
        reg = np.zeros((REG_CHANNELS, 64, 64))
        hm[0, 10, 12] = 0.8
        reg[3:6, 10, 12] = math.log(2.0)
        lab = make_pseudo_labels(DetectorOutput(hm, reg), grid_cfg)
        assert len(lab.boxes) == 1
        assert lab.heatmap_target[0].max() == 1.0
        assert lab.reg_mask.sum() == 1

    def test_score_floor_empties_targets(self, grid_cfg):
        hm = np.full((2, 64, 64), 0.05)
        lab = make_pseudo_labels(DetectorOutput(hm, np.zeros((REG_CHANNELS, 64, 64))), grid_cfg)
        assert lab.boxes == [] and not lab.reg_mask.any()
