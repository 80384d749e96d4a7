"""Post-training INT8 quantization toolkit for a miniature pillar-based BEV
detector: calibration (max-min / entropy / grid search), scale fine-tuning
against float-model pseudo-labels, and adaptive weight rounding."""

from .quant import (
    EPS_SCALE,
    QuantError,
    QuantParams,
    clip_scale,
    fake_quant,
    level,
    round_half_away,
)
from .calib import (
    CalibError,
    Histogram,
    SearchConfig,
    build_histogram,
    calibrate_layer,
    entropy_threshold,
    grid_search_detail,
    kl_divergence,
)
from .network import LayerSpec, Network, NetworkError
from .detector import (
    Box3D,
    DetectorOutput,
    GridConfig,
    PillarGrid,
    PointCloud,
    build_detector,
    decode_boxes,
    detector_forward,
    nms_bev,
    pillarize,
)
from .losses import (
    PseudoLabels,
    focal_loss,
    l1_reg_loss,
    make_pseudo_labels,
    pseudo_label_loss,
    render_targets,
)
from .scenegen import SceneSpec, generate_scene
from .dataset import Dataset, FileAudit, generate_dataset, load_point_cloud, save_point_cloud
from .modelio import load_model, save_model
from .evalharness import EvalReport, evaluate, evaluate_model
from .config import ConfigError, GenConfig, PipelineConfig, TrainConfig
from .pipeline import (
    PipelineError,
    RunLog,
    run_baseline_calibration,
    run_lidar_ptq,
    sample_calibration_set,
    train_fp_baseline,
)

__version__ = "0.1.0"
