"""The benchmark in perfbench/ traces library functions by module attribute
and builds its LiDAR-PTQ job from a dict of config fields; a rename on either
side fails here instead of at benchmark time."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import workloads  # noqa: E402

from pillarptq.config import PipelineConfig  # noqa: E402


def test_every_traced_span_resolves():
    for span, (owner, attr, *_) in layers.SPANS.items():
        assert callable(getattr(owner, attr, None)), f"{span}: {owner.__name__}.{attr} is gone"


def test_ptq_job_config_builds():
    cfg = PipelineConfig(seed=1, **workloads.PTQ)
    for key, value in workloads.PTQ.items():
        assert getattr(cfg, key) == value
