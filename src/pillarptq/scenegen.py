"""Synthetic LiDAR-like scenes: boxes on a ground plane with surface point
samples whose density falls off with range, plus uniform ground clutter.

Tuned so pillar occupancy lands near 10% and far objects carry only a
handful of points; both properties are what make the quantization
experiments on top of this data meaningful.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .detector import Box3D, PointCloud, iou_matrix


class SceneGenError(RuntimeError):
    pass


# Per-class (h, w, l) means and spreads, loosely vehicle- and pedestrian-like.
# The small class footprint stays >= 2 grid cells so it is resolvable at the
# detection head's output resolution.
DEFAULT_SIZES: Dict[int, Tuple[Tuple[float, float, float], Tuple[float, float, float]]] = {
    0: ((1.6, 1.9, 4.4), (0.15, 0.12, 0.35)),
    1: ((1.7, 1.0, 1.0), (0.12, 0.08, 0.08)),
}


@dataclass(frozen=True)
class SceneSpec:
    n_objects_min: int = 3
    n_objects_max: int = 8
    class_mix: Tuple[float, ...] = (0.65, 0.35)
    sizes: Dict[int, Tuple] = field(default_factory=lambda: dict(DEFAULT_SIZES))
    falloff: float = 1.8  # point density ~ 1/d^falloff
    base_points: int = 900  # per-object sample budget at reference range
    ref_range: float = 8.0
    clutter_points: int = 1400
    sensor_range: float = 32.0
    min_range: float = 3.0
    max_points_per_box: int = 1200
    # Vegetation-like raised clutter clusters; they share the objects' height
    # band so the detector has to discriminate by shape, not by z alone.
    n_clusters_min: int = 6
    n_clusters_max: int = 12
    cluster_points: int = 80
    cluster_range_min: float = 12.0  # clutter lives at mid/far range, like treelines off the road

    def __post_init__(self):
        if self.n_objects_min < 0 or self.n_objects_max < self.n_objects_min:
            raise ValueError("bad object-count range")
        if self.falloff < 0 or self.base_points < 1 or self.clutter_points < 0:
            raise ValueError("densities must be non-negative")
        if self.n_clusters_min < 0 or self.n_clusters_max < self.n_clusters_min:
            raise ValueError("bad cluster-count range")
        if not 0 <= self.cluster_range_min <= self.sensor_range:
            raise ValueError("cluster_range_min outside sensor range")
        for mean, _ in self.sizes.values():
            if min(mean) <= 0:
                raise ValueError("object sizes must be positive")


def _sample_box(rng: np.random.Generator, spec: SceneSpec) -> Box3D:
    cls = int(rng.choice(len(spec.class_mix), p=np.asarray(spec.class_mix) / sum(spec.class_mix)))
    mean, std = spec.sizes[cls]
    h, w, l = (max(0.3, rng.normal(m, s)) for m, s in zip(mean, std))
    # Uniform over the annulus area so far ranges are well represented.
    r = math.sqrt(rng.uniform(spec.min_range**2, (spec.sensor_range * 0.95) ** 2))
    phi = rng.uniform(-math.pi, math.pi)
    yaw = rng.choice([0.0, math.pi / 2]) + rng.normal(0.0, 0.08)
    return Box3D(
        x=r * math.cos(phi),
        y=r * math.sin(phi),
        z=h / 2.0,
        h=h,
        w=w,
        l=l,
        yaw=yaw,
        cls=cls,
        score=1.0,
    )


def _box_surface_points(
    rng: np.random.Generator, box: Box3D, n: int, refl: float
) -> np.ndarray:
    """Sample points on the four vertical faces and the top, area-weighted."""
    hx, hy, hz = box.l / 2.0, box.w / 2.0, box.h / 2.0
    areas = np.asarray(
        [
            box.w * box.h,  # x = +hx face
            box.w * box.h,  # x = -hx
            box.l * box.h,  # y = +hy
            box.l * box.h,  # y = -hy
            box.l * box.w,  # top
        ]
    )
    face = rng.choice(5, size=n, p=areas / areas.sum())
    u = rng.uniform(-1.0, 1.0, size=n)
    v = rng.uniform(-1.0, 1.0, size=n)
    # Faces 0/1 span (y, z), 2/3 span (x, z), the top spans (x, y).
    x = np.where(face == 0, hx, np.where(face == 1, -hx, u * hx))
    y = np.where(face <= 1, u * hy, np.where(face == 2, hy, np.where(face == 3, -hy, v * hy)))
    z = np.where(face == 4, hz, v * hz)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    px = box.x + c * x - s * y
    py = box.y + s * x + c * y
    pz = box.z + z
    pr = np.clip(rng.normal(refl, 0.05, size=n), 0.0, 1.0)
    return np.stack([px, py, pz, pr], axis=1).astype(np.float32)


def generate_scene(spec: SceneSpec, seed: int) -> Tuple[PointCloud, List[Box3D]]:
    """One deterministic scene: non-overlapping boxes, range-attenuated
    surface points (>= 1 per box), and ground clutter."""
    rng = np.random.default_rng(seed)
    n_obj = int(rng.integers(spec.n_objects_min, spec.n_objects_max + 1))
    boxes: List[Box3D] = []
    for _ in range(n_obj):
        placed = False
        for _ in range(200):
            cand = _sample_box(rng, spec)
            if not iou_matrix([cand], boxes).any():
                boxes.append(cand)
                placed = True
                break
        if not placed:
            raise SceneGenError(f"could not place {n_obj} objects without overlap")

    clouds = []
    for b in boxes:
        d = max(b.range_from_origin(), 1.0)
        n = int(round(spec.base_points * (spec.ref_range / d) ** spec.falloff))
        n = int(np.clip(n, 1, spec.max_points_per_box))
        refl = rng.uniform(0.3, 0.9)
        clouds.append(_box_surface_points(rng, b, n, refl))

    if spec.clutter_points:
        n = spec.clutter_points
        r = np.sqrt(rng.uniform(1.0, spec.sensor_range**2, size=n))
        phi = rng.uniform(-math.pi, math.pi, size=n)
        gx = r * np.cos(phi)
        gy = r * np.sin(phi)
        gz = rng.normal(0.0, 0.03, size=n)
        gr = rng.uniform(0.05, 0.4, size=n)
        clouds.append(np.stack([gx, gy, gz, gr], axis=1).astype(np.float32))

    n_clu = int(rng.integers(spec.n_clusters_min, spec.n_clusters_max + 1))
    lo2 = max(spec.cluster_range_min, spec.min_range) ** 2
    for _ in range(n_clu):
        d = math.sqrt(rng.uniform(lo2, (spec.sensor_range * 0.95) ** 2))
        phi = rng.uniform(-math.pi, math.pi)
        cx, cy = d * math.cos(phi), d * math.sin(phi)
        if any(math.hypot(cx - b.x, cy - b.y) < 2.0 + b.l / 2.0 for b in boxes):
            continue  # keep raised clutter off the labeled objects
        extent = rng.uniform(0.5, 2.0)
        height = rng.uniform(0.6, 1.8)
        n = int(round(spec.cluster_points * (spec.ref_range / max(d, 1.0)) ** spec.falloff))
        n = max(4, min(n, spec.max_points_per_box))
        kx = cx + rng.normal(0.0, extent / 2.0, size=n)
        ky = cy + rng.normal(0.0, extent / 2.0, size=n)
        kz = rng.uniform(0.0, height, size=n)
        kr = np.clip(rng.normal(rng.uniform(0.2, 0.8), 0.08, size=n), 0.0, 1.0)
        clouds.append(np.stack([kx, ky, kz, kr], axis=1).astype(np.float32))

    pts = np.concatenate(clouds, axis=0) if clouds else np.zeros((0, 4), dtype=np.float32)
    return PointCloud(pts), boxes
