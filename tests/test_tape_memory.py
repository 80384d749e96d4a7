"""Memory guard: float training keeps one autodiff tape alive at a time."""

import tracemalloc

from pillarptq.config import TrainConfig
from pillarptq.dataset import generate_dataset
from pillarptq.pipeline import train_fp_baseline
from pillarptq.scenegen import SceneSpec


def test_training_holds_one_tape_at_a_time(tmp_path, grid_cfg):
    # Each step's backward frees its tape, so three training steps peak about
    # as high as one; a tape kept alive into the next step's forward would add
    # its patch matrices on top (a ratio near 1.6).
    peaks = []
    for n_train in (2, 6):
        root = tmp_path / f"ds{n_train}"
        ds = generate_dataset(root, SceneSpec(), n_train=n_train, n_val=1, seed=3)
        tracemalloc.start()
        try:
            train_fp_baseline(ds, TrainConfig(epochs=1, batch=2, ap_floor=0.0), grid_cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks
