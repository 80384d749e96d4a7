"""On-disk dataset: PCL1 point-cloud files, text label files, a manifest, and
a file-access audit.

Every read goes through the owning Dataset's FileAudit, which is how the
pipeline later proves that calibration and quantization never touched a
label file.
"""

from __future__ import annotations

import os
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from .detector import Box3D, PointCloud
from .scenegen import SceneSpec, generate_scene

PCL_MAGIC = b"PCL1"
MANIFEST_NAME = "manifest.txt"


class DatasetError(IOError):
    pass


@dataclass
class FileAudit:
    """Count of file reads by kind: point-cloud files and label files."""

    pcl_reads: int = 0
    label_reads: int = 0

    def summary(self) -> Dict[str, int]:
        return asdict(self)


# -- point-cloud binary format -------------------------------------------------------


def save_point_cloud(path, pc: PointCloud) -> None:
    pts = np.ascontiguousarray(pc.points, dtype="<f4")
    with open(path, "wb") as f:
        f.write(PCL_MAGIC)
        f.write(struct.pack("<I", pts.shape[0]))
        f.write(pts.tobytes())


def load_point_cloud(path, audit: Optional[FileAudit] = None) -> PointCloud:
    """Read a PCL1 file; a short file or bytes after the last point raise
    DatasetError. The size is checked before the point buffer is allocated."""
    with open(path, "rb") as f:
        header = f.read(8)
        if header[:4] != PCL_MAGIC or len(header) != 8:
            raise DatasetError(f"{path}: bad magic or short header {header!r}")
        (count,) = struct.unpack("<I", header[4:])
        size = os.fstat(f.fileno()).st_size - 8
        if size < count * 16:
            raise DatasetError(f"{path}: truncated (expected {count} points)")
        if size > count * 16:
            raise DatasetError(f"{path}: bytes after the last of {count} points")
        raw = bytearray(size)
        if f.readinto(raw) != size:
            raise DatasetError(f"{path}: truncated (expected {count} points)")
    if audit is not None:
        audit.pcl_reads += 1
    return PointCloud(np.frombuffer(raw, dtype="<f4").reshape(count, 4))


# -- label text format ----------------------------------------------------------------


def save_labels(path, boxes: Sequence[Box3D]) -> None:
    lines = [
        f"{b.x:.6f},{b.y:.6f},{b.z:.6f},{b.h:.6f},{b.w:.6f},{b.l:.6f},{b.yaw:.6f},{b.cls}"
        for b in boxes
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def load_labels(path, audit: Optional[FileAudit] = None) -> List[Box3D]:
    boxes = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise DatasetError(f"{path}:{ln}: expected 8 fields, got {len(parts)}")
        x, y, z, h, w, l, yaw = (float(v) for v in parts[:7])
        boxes.append(Box3D(x, y, z, h, w, l, yaw, cls=int(parts[7]), score=1.0))
    if audit is not None:
        audit.label_reads += 1
    return boxes


# -- manifest + dataset ----------------------------------------------------------------


@dataclass(frozen=True)
class FrameEntry:
    frame_id: str
    split: str  # "train" | "val"
    pcl_path: str
    label_path: str


class Dataset:
    """Manifest-backed frame collection rooted at a directory."""

    def __init__(self, root, audit: Optional[FileAudit] = None):
        self.root = Path(root)
        self.audit = audit if audit is not None else FileAudit()
        manifest = self.root / MANIFEST_NAME
        if not manifest.is_file():
            raise DatasetError(f"no {MANIFEST_NAME} in {self.root}")
        self.entries: Dict[str, FrameEntry] = {}
        for ln, line in enumerate(manifest.read_text().splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DatasetError(f"{manifest}:{ln}: expected 4 fields")
            entry = FrameEntry(*parts)
            if entry.split not in ("train", "val"):
                raise DatasetError(f"{manifest}:{ln}: unknown split {entry.split!r}")
            self.entries[entry.frame_id] = entry

    def frames(self, split: Optional[str] = None) -> List[str]:
        ids = [
            fid
            for fid, e in self.entries.items()
            if split is None or e.split == split
        ]
        return sorted(ids)

    def _entry(self, frame_id: str) -> FrameEntry:
        try:
            return self.entries[frame_id]
        except KeyError:
            raise DatasetError(f"unknown frame {frame_id!r}") from None

    def point_cloud(self, frame_id: str) -> PointCloud:
        e = self._entry(frame_id)
        return load_point_cloud(self.root / e.pcl_path, self.audit)

    def labels(self, frame_id: str) -> List[Box3D]:
        e = self._entry(frame_id)
        return load_labels(self.root / e.label_path, self.audit)

    def __len__(self) -> int:
        return len(self.entries)


def generate_dataset(
    root,
    spec: SceneSpec,
    n_train: int = 2000,
    n_val: int = 200,
    seed: int = 0,
) -> Dataset:
    """Write n_train + n_val generated scenes under `root` with a manifest."""
    root = Path(root)
    (root / "pcl").mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(parents=True, exist_ok=True)
    lines = []
    for i in range(n_train + n_val):
        split = "train" if i < n_train else "val"
        fid = f"{split}_{i:05d}"
        pc, boxes = generate_scene(spec, seed + i)
        pcl_rel = f"pcl/{fid}.pcl"
        lab_rel = f"labels/{fid}.txt"
        save_point_cloud(root / pcl_rel, pc)
        save_labels(root / lab_rel, boxes)
        lines.append(f"{fid},{split},{pcl_rel},{lab_rel}")
    (root / MANIFEST_NAME).write_text("\n".join(lines) + "\n")
    return Dataset(root)
