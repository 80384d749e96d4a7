"""Flat key=value configuration files mapped onto typed dataclasses.

Unknown keys are a hard error: a silently ignored typo in an experiment
config would invalidate the run's provenance.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, get_type_hints

from .calib import METHODS, SearchConfig
from .quant import MAX_BITS
from .scenegen import SceneSpec


class ConfigError(ValueError):
    pass


QUANT_METHODS = ("lidar-ptq", *METHODS)


def _check_nonnegative(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value >= 0):
            raise ConfigError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class PipelineConfig:
    """One quantization job; it makes an int8 model (`bits_w`, `bits_a`: 2..8)."""

    bits_w: int = 8
    bits_a: int = 8
    calib_frames: int = 256
    iters_T: int = 200
    lr_scale: float = 5e-5  # activation/weight scale factors
    lr_theta: float = 5e-3  # rounding offsets
    batch: int = 4
    seed: int = 0
    method: str = "lidar-ptq"
    # task term's weight against the local reconstruction term (0 = local only)
    lambda2: float = 1.0
    # grid-search candidates, over SearchConfig's span
    search_T: int = 100
    # optimizer switches
    optimize_theta: bool = True
    snapshot_every: int = 20
    score_frames: int = 16

    def __post_init__(self):
        if self.batch < 1:
            raise ConfigError("batch must be >= 1")
        if self.calib_frames < self.batch:
            raise ConfigError(
                f"calib_frames ({self.calib_frames}) must be >= batch ({self.batch})"
            )
        if self.iters_T < 0:
            raise ConfigError("iters_T must be >= 0 (0 = calibration only)")
        if self.method not in QUANT_METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {QUANT_METHODS}")
        if not (2 <= self.bits_w <= MAX_BITS and 2 <= self.bits_a <= MAX_BITS):
            raise ConfigError(f"bit-widths must be 2..{MAX_BITS}, got W{self.bits_w}A{self.bits_a}")
        if self.snapshot_every < 1 or self.score_frames < 1:
            raise ConfigError("snapshot_every and score_frames must be >= 1")
        _check_nonnegative(lr_scale=self.lr_scale, lr_theta=self.lr_theta, lambda2=self.lambda2)
        self.search = SearchConfig(self.search_T)


@dataclass
class TrainConfig:
    epochs: int = 6
    lr: float = 2e-3
    batch: int = 8
    ap_floor: float = 0.6
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError("epochs and batch must be >= 1")
        if not (0.0 <= self.ap_floor <= 1.0):
            raise ConfigError("ap_floor must be in [0, 1]")
        _check_nonnegative(lr=self.lr)


@dataclass
class GenConfig:
    n_train: int = 2000
    n_val: int = 200
    seed: int = 0
    n_objects_min: int = SceneSpec.n_objects_min
    n_objects_max: int = SceneSpec.n_objects_max
    falloff: float = SceneSpec.falloff
    base_points: int = SceneSpec.base_points
    ref_range: float = SceneSpec.ref_range
    clutter_points: int = SceneSpec.clutter_points
    sensor_range: float = SceneSpec.sensor_range
    min_range: float = SceneSpec.min_range

    def __post_init__(self):
        if self.n_train < 1 or self.n_val < 1:
            raise ConfigError("need at least one frame per split")
        self.scene_spec()  # SceneSpec refuses a bad scene value here, not mid-run

    def scene_spec(self) -> SceneSpec:
        """The scene fields as a SceneSpec; the rest keep SceneSpec's defaults."""
        split = ("n_train", "n_val", "seed")
        return SceneSpec(**{k: v for k, v in vars(self).items() if k not in split})


def parse_kv_text(text: str, where: str = "<config>") -> Dict[str, str]:
    out: Dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{where}:{ln}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{where}:{ln}: empty key")
        if key in out:
            raise ConfigError(f"{where}:{ln}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_kv_file(path) -> Dict[str, str]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_kv_text(p.read_text(), str(p))


def _coerce_value(raw: str, target_type, key: str):
    if target_type is bool:
        low = raw.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {raw!r}")
    try:
        if target_type is int:
            return int(raw)
        if target_type is float:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {target_type.__name__}") from None
    return raw


def build_config(cls, mapping: Dict[str, str]):
    """Instantiate a config dataclass from string key=value pairs.

    Unknown keys raise; missing keys keep dataclass defaults.
    """
    hints = get_type_hints(cls)
    names = {f.name: hints[f.name] for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, raw in mapping.items():
        if key not in names:
            raise ConfigError(f"unknown config key {key!r} for {cls.__name__}")
        kwargs[key] = _coerce_value(raw, names[key], key)
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(str(e)) from None
