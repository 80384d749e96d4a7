"""The benchmark in perfbench/ traces library functions by module attribute
and builds its LiDAR-PTQ job from a dict of config fields; a rename on either
side fails here instead of at benchmark time."""

import inspect
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from pillarptq import autodiff, calib, modelio, pipeline  # noqa: E402
from pillarptq.config import PipelineConfig  # noqa: E402


def test_every_traced_span_resolves():
    for span, (owner, attr, *_) in layers.SPANS.items():
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_ptq_job_config_builds():
    cfg = PipelineConfig(seed=1, **workloads.PTQ)
    for key, value in workloads.PTQ.items():
        assert getattr(cfg, key) == value


def test_grid_search_calls_reach_the_traced_span():
    # layers.py wraps grid_search_detail where pipeline looks it up, and its
    # counter reads the tensor and the search config from these positions.
    params = list(inspect.signature(calib.grid_search_detail).parameters)
    assert params[:3] == ["x", "bits", "cfg"]
    assert pipeline.grid_search_detail is calib.grid_search_detail


def test_conv_weight_is_where_the_gmac_counter_reads_it():
    # layers._conv_gmac reads the weight as the second positional argument.
    params = list(inspect.signature(autodiff.conv2d).parameters)
    assert params[:5] == ["x", "weight", "bias", "stride", "padding"]


def test_frozen_model_survives_the_save_load_round_trip(
    tiny_net, tiny_calib_feats, grid_cfg, tmp_path
):
    # workloads.job_failures counts a job as failed when model_round_trip
    # returns None; a frozen LiDAR-PTQ model must save, load and save again
    # to the same bytes, and hold no offsets record.
    cfg = PipelineConfig(
        calib_frames=8, iters_T=4, search_T=10, batch=4, snapshot_every=2, score_frames=4
    )
    qnet, _ = pipeline.run_lidar_ptq(tiny_net, tiny_calib_feats, cfg, grid_cfg)
    blob = workloads.model_round_trip(qnet, tmp_path)
    assert blob is not None
    plain = qnet.copy()
    for layer in plain.layers:
        layer.weight = tiny_net.layer(layer.name).weight
    modelio.save_model(tmp_path / "unfolded.ptqf", plain)
    assert len(blob) == (tmp_path / "unfolded.ptqf").stat().st_size


def test_traced_detect_pass_fills_the_stream_counters(tiny_net, tiny_dataset):
    # A refactor of the detect stream must keep its per-layer counters live:
    # every stage reports work, and each decoded box is one NMS candidate.
    frames = tiny_dataset.frames("val")
    gts = [tiny_dataset.labels(f) for f in frames]
    net = tiny_net.copy()
    net.heads["heatmap"].bias[:] = 2.0  # enough peaks to decode on every frame
    tracer = Tracer()
    with tracer:
        layers.instrument(tracer)
        workloads.detect_pass(net, tiny_dataset, frames, gts, tracer)
    agg = tracer.aggregate()
    for span, counter in [
        ("detector.pillarize", "points"),
        ("detector.decode_boxes", "peaks"),
        ("detector.nms_bev", "candidates"),
        ("evalharness.evaluate", "iou_pairs"),
        ("dataset.point_cloud", "bytes"),
    ]:
        assert agg[span][counter] > 0, f"{span}.{counter} is zero"
    assert agg["detector.decode_boxes"]["peaks"] == agg["detector.nms_bev"]["candidates"]
    assert agg["detector.pillarize"]["calls"] == len(frames)
