"""On-disk formats: point-cloud binary round trips, label text, manifest, read audit."""

import numpy as np
import pytest

from pillarptq.dataset import (
    MANIFEST_NAME,
    Dataset,
    DatasetError,
    FileAudit,
    generate_dataset,
    load_labels,
    load_point_cloud,
    save_labels,
    save_point_cloud,
)
from pillarptq.detector import Box3D, PointCloud
from pillarptq.scenegen import SceneSpec


class TestPointCloudFormat:
    def test_round_trip_bitwise(self, tmp_path, rng):
        pts = rng.normal(size=(100, 4)).astype(np.float32)
        p = tmp_path / "a.pcl"
        save_point_cloud(p, PointCloud(pts))
        np.testing.assert_array_equal(load_point_cloud(p).points, pts)

    def test_empty_cloud_round_trip(self, tmp_path):
        p = tmp_path / "e.pcl"
        save_point_cloud(p, PointCloud(np.zeros((0, 4), np.float32)))
        assert len(load_point_cloud(p)) == 0

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "bad.pcl"
        p.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(DatasetError):
            load_point_cloud(p)

    def test_truncated_file_rejected(self, tmp_path, rng):
        p = tmp_path / "t.pcl"
        save_point_cloud(p, PointCloud(rng.normal(size=(10, 4)).astype(np.float32)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(DatasetError):
            load_point_cloud(p)


    def test_bytes_after_the_last_point_rejected(self, tmp_path):
        # A hand-made file: header for 2 points, then 3 points' worth of data.
        p = tmp_path / "long.pcl"
        p.write_bytes(b"PCL1" + (2).to_bytes(4, "little") + np.ones(12, "<f4").tobytes())
        with pytest.raises(DatasetError, match="after the last"):
            load_point_cloud(p)

    def test_huge_point_count_rejected_before_allocating(self, tmp_path):
        # A header that claims 2**32 - 1 points over a 16-byte body.
        p = tmp_path / "huge.pcl"
        p.write_bytes(b"PCL1" + (2**32 - 1).to_bytes(4, "little") + bytes(16))
        with pytest.raises(DatasetError, match="truncated"):
            load_point_cloud(p)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "short.pcl"
        p.write_bytes(b"PCL1" + b"\x02\x00")
        with pytest.raises(DatasetError):
            load_point_cloud(p)

    def test_loaded_points_are_writable_float32(self, tmp_path, rng):
        p = tmp_path / "w.pcl"
        save_point_cloud(p, PointCloud(rng.normal(size=(5, 4)).astype(np.float32)))
        pts = load_point_cloud(p).points
        assert pts.dtype == np.float32 and pts.flags.writeable


class TestLabelFormat:
    def test_round_trip(self, tmp_path):
        boxes = [
            Box3D(1.5, -2.0, 0.8, 1.6, 1.9, 4.4, 0.3, 0),
            Box3D(-8.0, 4.0, 0.5, 1.7, 1.0, 1.0, -1.2, 1),
        ]
        p = tmp_path / "l.txt"
        save_labels(p, boxes)
        got = load_labels(p)
        assert len(got) == 2
        for a, b in zip(got, boxes):
            assert (a.x, a.y, a.cls) == pytest.approx((b.x, b.y, b.cls))
            assert a.yaw == pytest.approx(b.yaw, abs=1e-5)

    def test_empty_label_file(self, tmp_path):
        p = tmp_path / "empty.txt"
        save_labels(p, [])
        assert load_labels(p) == []

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1,2,3\n")
        with pytest.raises(DatasetError):
            load_labels(p)


class TestFileAudit:
    def test_counts_by_kind(self, tmp_path, rng):
        audit = FileAudit()
        pcl = tmp_path / "x.pcl"
        lab = tmp_path / "x.txt"
        save_point_cloud(pcl, PointCloud(rng.normal(size=(5, 4)).astype(np.float32)))
        save_labels(lab, [Box3D(0, 0, 0, 1, 1, 1, 0, 0)])
        load_point_cloud(pcl, audit)
        load_point_cloud(pcl, audit)
        load_labels(lab, audit)
        assert audit.summary() == {"pcl_reads": 2, "label_reads": 1}

    def test_silent_without_audit(self, tmp_path, rng):
        pcl = tmp_path / "y.pcl"
        save_point_cloud(pcl, PointCloud(rng.normal(size=(5, 4)).astype(np.float32)))
        load_point_cloud(pcl)  # no audit argument: nothing to record


class TestDataset:
    def test_generate_writes_manifest_and_splits(self, tiny_dataset):
        assert len(tiny_dataset) == 32
        assert len(tiny_dataset.frames("train")) == 24
        assert len(tiny_dataset.frames("val")) == 8
        assert tiny_dataset.frames() == sorted(tiny_dataset.frames())

    def test_frames_and_labels_accessible(self, tiny_dataset):
        fid = tiny_dataset.frames("train")[0]
        pc = tiny_dataset.point_cloud(fid)
        boxes = tiny_dataset.labels(fid)
        assert len(pc) > 0
        assert all(b.cls in (0, 1) for b in boxes)

    def test_dataset_reads_hit_the_audit(self, tmp_path):
        ds = generate_dataset(tmp_path / "ds", SceneSpec(), n_train=2, n_val=1, seed=0)
        audited = Dataset(ds.root, audit=FileAudit())
        fid = audited.frames("train")[0]
        audited.point_cloud(fid)
        audited.labels(fid)
        assert audited.audit.summary() == {"pcl_reads": 1, "label_reads": 1}

    def test_unknown_frame_rejected(self, tiny_dataset):
        with pytest.raises(DatasetError):
            tiny_dataset.point_cloud("nope")

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(DatasetError):
            Dataset(tmp_path)

    def test_malformed_manifest_line_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("only,three,fields\n")
        with pytest.raises(DatasetError):
            Dataset(tmp_path)

    def test_unknown_split_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("f0,test,a.pcl,a.txt\n")
        with pytest.raises(DatasetError):
            Dataset(tmp_path)

    def test_generation_is_seed_deterministic(self, tmp_path):
        a = generate_dataset(tmp_path / "a", SceneSpec(), n_train=3, n_val=1, seed=9)
        b = generate_dataset(tmp_path / "b", SceneSpec(), n_train=3, n_val=1, seed=9)
        fid = a.frames("train")[1]
        np.testing.assert_array_equal(a.point_cloud(fid).points, b.point_cloud(fid).points)
        assert (a.root / MANIFEST_NAME).read_text() == (b.root / MANIFEST_NAME).read_text()
