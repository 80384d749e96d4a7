import dataclasses

import pytest

from pillarptq.dataset import generate_dataset
from pillarptq.detector import build_detector
from pillarptq.scenegen import SceneSpec

import workloads
from metrics import Tally


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    ds = generate_dataset(root, SceneSpec(), n_train=0, n_val=3, seed=11)
    net = build_detector(workloads.GRID, seed=0)
    # A large positive heatmap bias makes the untrained net emit peaks to decode.
    net.heads["heatmap"].bias[:] = 2.0
    frames = ds.frames("val")
    return ds, net, frames, [ds.labels(f) for f in frames]


def test_streamed_detections_equal_model_predictions(tiny):
    ds, net, frames, gts = tiny
    p = workloads.detect_pass(net, ds, frames, gts)
    ref = workloads.reference_predictions(net, ds, frames)
    assert any(ref), "the check is vacuous without detections"
    assert len(p.latencies) == len(frames)
    assert workloads.mismatched_frames(p.preds, ref) == []


def test_mismatch_is_found_and_counted_as_failed_frames(tiny):
    ds, net, frames, gts = tiny
    p = workloads.detect_pass(net, ds, frames, gts)
    ref = workloads.reference_predictions(net, ds, frames)
    i = next(k for k, boxes in enumerate(ref) if boxes)
    moved = [list(b) for b in p.preds]
    moved[i][0] = dataclasses.replace(moved[i][0], x=moved[i][0].x + 1e-3)
    bad = workloads.Pass(p.latencies, p.wall, moved)
    assert workloads.mismatched_frames(bad.preds, ref) == [i]

    tally = Tally()
    workloads._score_passes([p, bad], ref, tally)
    assert tally.attempted == 2 * len(frames)
    assert tally.failed == 1
    assert tally.failed_frac == 1 / (2 * len(frames))


def test_frame_count_mismatch_raises(tiny):
    ds, net, frames, gts = tiny
    ref = workloads.reference_predictions(net, ds, frames)
    with pytest.raises(ValueError):
        workloads.mismatched_frames(ref[:-1], ref)
