"""The array-form detect stream against the per-point / per-box code it
replaced, kept here verbatim as `ref_*`. Every comparison is bitwise: pillar
features by bytes, boxes and match records field by field on value, sign and
type, because the benchmark's correctness check compares `Box3D ==`."""

import dataclasses
import math
from typing import List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pillarptq.detector import (
    COUNT_NORM,
    PILLAR_CHANNELS,
    Box3D,
    DetectorOutput,
    GridConfig,
    PillarGrid,
    PointCloud,
    decode_boxes,
    iou_matrix,
    nms_bev,
    pillarize,
    wrap_angle,
)
from pillarptq.evalharness import DEFAULT_BUCKETS, _bucket_of, _Match, _match_scene

# -- the replaced code, verbatim --------------------------------------------------------


def ref_wrap_angle(a):
    """Normalize angles to (-pi, pi]."""
    r = np.mod(np.asarray(a, dtype=np.float64) + np.pi, 2.0 * np.pi) - np.pi
    r = np.where(r == -np.pi, np.pi, r)
    return float(r) if np.isscalar(a) or np.ndim(a) == 0 else r


def ref_iou_bev(a: Box3D, b: Box3D) -> float:
    ax0, ay0, ax1, ay1 = a.footprint()
    bx0, by0, bx1, by1 = b.footprint()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union


def ref_pillarize(pc: PointCloud, cfg: GridConfig) -> PillarGrid:
    h, w = cfg.h_bev, cfg.w_bev
    feats = np.zeros((PILLAR_CHANNELS, h, w), dtype=np.float32)
    occ = np.zeros((h, w), dtype=bool)
    pts = pc.points
    if pts.shape[0]:
        ix = np.floor((pts[:, 0] - cfg.x_min) / cfg.voxel_size).astype(np.int64)
        iy = np.floor((pts[:, 1] - cfg.y_min) / cfg.voxel_size).astype(np.int64)
        keep = (ix >= 0) & (ix < w) & (iy >= 0) & (iy < h)
        if keep.any():
            ix, iy = ix[keep], iy[keep]
            kept = pts[keep].astype(np.float64)
            flat = iy * w + ix
            counts = np.bincount(flat, minlength=h * w).astype(np.float64)
            occ_flat = counts > 0
            denom = np.maximum(counts, 1.0)
            cols = [
                kept[:, 0],
                kept[:, 1],
                kept[:, 2],
                kept[:, 3],
                None,  # count channel, filled below
                np.abs(kept[:, 0]) + np.abs(kept[:, 1]),
            ]
            for c, vals in enumerate(cols):
                if vals is None:
                    continue
                acc = np.bincount(flat, weights=vals, minlength=h * w)
                feats[c] = (acc / denom).reshape(h, w).astype(np.float32)
            feats[4] = np.minimum(counts / COUNT_NORM, 1.0).reshape(h, w).astype(np.float32)
            occ = occ_flat.reshape(h, w)
    return PillarGrid(feats, occ, cfg.voxel_size, (cfg.x_min, cfg.x_max, cfg.y_min, cfg.y_max))


def ref_local_peaks(hm: np.ndarray) -> np.ndarray:
    pad = np.pad(hm, ((0, 0), (1, 1), (1, 1)), constant_values=-np.inf)
    neigh = np.stack(
        [
            pad[:, i : i + hm.shape[1], j : j + hm.shape[2]]
            for i in range(3)
            for j in range(3)
        ]
    ).max(axis=0)
    return hm >= neigh


def ref_decode_boxes(out, cfg, score_floor=0.1, max_boxes=500) -> List[Box3D]:
    hm = np.asarray(out.heatmap, dtype=np.float64)
    reg = np.asarray(out.regression, dtype=np.float64)
    stride = cfg.h_bev // hm.shape[1]
    cell = cfg.voxel_size * stride
    peaks = ref_local_peaks(hm) & (hm >= score_floor)
    cls_idx, iy, ix = np.nonzero(peaks)
    if cls_idx.size == 0:
        return []
    scores = hm[cls_idx, iy, ix]
    cx = cfg.x_min + (ix + 0.5) * cell
    cy = cfg.y_min + (iy + 0.5) * cell
    order = np.lexsort((cy, cx, -scores))[:max_boxes]
    boxes = []
    for i in order:
        r = reg[:, iy[i], ix[i]]
        boxes.append(
            Box3D(
                x=float(cx[i] + r[0] * cell),
                y=float(cy[i] + r[1] * cell),
                z=float(r[2]),
                h=float(np.exp(np.clip(r[3], -8, 8))),
                w=float(np.exp(np.clip(r[4], -8, 8))),
                l=float(np.exp(np.clip(r[5], -8, 8))),
                yaw=float(np.arctan2(r[6], r[7])),
                cls=int(cls_idx[i]),
                score=float(scores[i]),
            )
        )
    return boxes


def ref_nms_bev(boxes, iou_threshold=0.2):
    if not boxes:
        return []
    order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, boxes[i].x, boxes[i].y))
    fp = np.asarray([boxes[i].footprint() for i in order], dtype=np.float64)
    x0, y0, x1, y1 = fp.T
    area = (x1 - x0) * (y1 - y0)
    idx = np.arange(len(order))
    alive = np.ones(len(order), dtype=bool)
    kept = []
    for i in idx:
        if not alive[i]:
            continue
        kept.append(boxes[order[i]])
        iw = np.clip(np.minimum(x1[i], x1) - np.maximum(x0[i], x0), 0.0, None)
        ih = np.clip(np.minimum(y1[i], y1) - np.maximum(y0[i], y0), 0.0, None)
        inter = iw * ih
        iou = inter / (area[i] + area - inter)
        alive &= ~((iou >= iou_threshold) & (idx > i))
    return kept


def ref_match_scene(preds, gts, iou_thresh, buckets):
    matched = np.zeros(len(gts), dtype=bool)
    records = []
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, preds[i].x, preds[i].y))
    for pi in order:
        p = preds[pi]
        best_iou, best_j = 0.0, -1
        for j, g in enumerate(gts):
            if matched[j] or g.cls != p.cls:
                continue
            iou = ref_iou_bev(p, g)
            if iou >= iou_thresh and iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0:
            matched[best_j] = True
            g = gts[best_j]
            records.append(
                _Match(
                    cls=p.cls,
                    score=p.score,
                    tp=True,
                    bucket=_bucket_of(g.range_from_origin(), buckets),
                    yaw_err=abs(ref_wrap_angle(p.yaw - g.yaw)),
                )
            )
        else:
            records.append(
                _Match(
                    cls=p.cls,
                    score=p.score,
                    tp=False,
                    bucket=_bucket_of(p.range_from_origin(), buckets),
                )
            )
    return records, matched


# -- exact comparison helpers -------------------------------------------------------------


def bits(value):
    """Value, sign and type of a scalar: floats by their hex form, so -0.0 != 0.0."""
    return (type(value), value.hex() if isinstance(value, float) else value)


def record_bits(items):
    return [tuple(bits(v) for v in dataclasses.astuple(x)) for x in items]


def assert_same_grid(got: PillarGrid, want: PillarGrid):
    assert got.features.dtype == want.features.dtype == np.float32
    assert got.features.tobytes() == want.features.tobytes()
    np.testing.assert_array_equal(got.occupancy, want.occupancy)
    assert (got.voxel_size, got.range) == (want.voxel_size, want.range)


SMALL = GridConfig(voxel_size=0.5, x_min=-4.0, x_max=4.0, y_min=-4.0, y_max=4.0)
ODD = GridConfig(voxel_size=0.3, x_min=-3.0, x_max=2.4, y_min=-1.5, y_max=3.0)
GRIDS = [GridConfig(), SMALL, ODD]

F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)

# -- pillarize ---------------------------------------------------------------------------


def _edges(cfg: GridConfig, axis: str) -> List[float]:
    lo, hi = (cfg.x_min, cfg.x_max) if axis == "x" else (cfg.y_min, cfg.y_max)
    n = cfg.w_bev if axis == "x" else cfg.h_bev
    edges = [lo + k * cfg.voxel_size for k in range(0, n + 1, max(1, n // 4))]
    return edges + [lo, hi, float(np.nextafter(np.float32(hi), np.float32(0)))]


@st.composite
def clouds(draw):
    cfg = draw(st.sampled_from(GRIDS))
    span = max(cfg.x_max - cfg.x_min, cfg.y_max - cfg.y_min)
    inside = draw(st.booleans())

    def coord(axis):
        lo, hi = (cfg.x_min, cfg.x_max) if axis == "x" else (cfg.y_min, cfg.y_max)
        free = st.floats(lo, hi, exclude_max=True) if inside else st.floats(lo - span, hi + span)
        return st.one_of(free, st.sampled_from(_edges(cfg, axis)))

    extreme = st.one_of(
        st.floats(width=32, allow_nan=False, allow_infinity=False),
        st.sampled_from([F32_MAX, -F32_MAX, F32_TINY, -F32_TINY, 0.0, -0.0]),
    )
    pts = draw(st.lists(st.tuples(coord("x"), coord("y"), extreme, extreme), max_size=40))
    if draw(st.booleans()) and pts:
        # Pile points onto one cell so bincount sums several of them.
        pts = pts + [pts[0]] * draw(st.integers(1, 5))
    arr = np.asarray(pts, dtype=np.float32).reshape(-1, 4)
    if inside:
        # Float32 rounding can push a point just past the far edge; drop it
        # from the "all in range" case, as the generator asked.
        arr = arr[(arr[:, 0] < cfg.x_max) & (arr[:, 1] < cfg.y_max)]
    return cfg, arr


@settings(max_examples=300, deadline=None)
@given(case=clouds())
def test_pillarize_matches_the_reference_bitwise(case):
    cfg, pts = case
    pc = PointCloud(pts)
    assert_same_grid(pillarize(pc, cfg), ref_pillarize(pc, cfg))


def test_pillarize_edge_cases_match_the_reference():
    cfg = SMALL
    cases = [
        np.zeros((0, 4), np.float32),
        np.array([[100.0, 0.0, 1.0, 0.5], [-4.5, 0.0, 0.0, 0.0]], np.float32),  # all out
        np.array([[4.0, 4.0, 1.0, 1.0], [-4.0, -4.0, 2.0, 1.0]], np.float32),  # far edge out
        np.array([[0.5, 1.0, F32_MAX, F32_MAX], [0.5, 1.0, F32_MAX, -F32_TINY]], np.float32),
    ]
    for pts in cases:
        pc = PointCloud(pts)
        assert_same_grid(pillarize(pc, cfg), ref_pillarize(pc, cfg))


def test_dense_in_range_cloud_matches_the_reference(rng):
    cfg = GridConfig()
    pts = np.column_stack(
        [
            rng.uniform(-32.0, 31.9, 20_000),
            rng.uniform(-32.0, 31.9, 20_000),
            rng.normal(size=20_000),
            rng.uniform(0.0, 1.0, 20_000),
        ]
    ).astype(np.float32)
    pc = PointCloud(pts)
    assert_same_grid(pillarize(pc, cfg), ref_pillarize(pc, cfg))


# -- decode_boxes -----------------------------------------------------------------------

# Heat values on and around the floors, with repeats so that ties and plateaus
# of equal neighbours are common. float32(0.7) lies below 0.7, so a float32
# head holds a score that only a float64 floor test drops.
F32_POINT_7 = float(np.float32(0.7))
HEAT = [0.0, 0.05, float(np.float32(0.1)), 0.1, 0.0999999, 0.3, 0.5, 0.5, F32_POINT_7, 1.0]


@st.composite
def head_outputs(draw):
    cfg = SMALL
    stride = draw(st.sampled_from([1, 2]))
    h = w = cfg.h_bev // stride
    classes = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    hm = rng.choice(HEAT, size=(classes, h, w))
    if draw(st.booleans()):
        hm = rng.uniform(0.0, 1.0, size=(classes, h, w))
    reg = rng.normal(scale=draw(st.sampled_from([0.5, 5.0, 20.0])), size=(8, h, w))
    out = DetectorOutput(heatmap=hm.astype(dtype), regression=reg.astype(dtype))
    floor = draw(st.sampled_from([0.1, 0.0999999, 0.3, 0.7, 0.0, 1.0]))
    max_boxes = draw(st.sampled_from([0, 1, 3, 7, 500, 500]))
    return out, cfg, floor, max_boxes


@settings(max_examples=300, deadline=None)
@given(case=head_outputs())
def test_decode_boxes_matches_the_reference_bitwise(case):
    out, cfg, floor, max_boxes = case
    got = decode_boxes(out, cfg, score_floor=floor, max_boxes=max_boxes)
    want = ref_decode_boxes(out, cfg, score_floor=floor, max_boxes=max_boxes)
    assert record_bits(got) == record_bits(want)


def test_decode_floor_is_tested_in_float64():
    # A float32 head's float32(0.7) lies below a 0.7 floor; so does its twin
    # in a float64 head. Each heatmap holds one peak per class.
    for dtype in (np.float32, np.float64):
        hm = np.zeros((2, 8, 8), dtype)
        hm[0, 3, 3], hm[1, 5, 2] = F32_POINT_7, 0.7
        out = DetectorOutput(heatmap=hm, regression=np.zeros((8, 8, 8), dtype))
        got, want = decode_boxes(out, SMALL, score_floor=0.7), ref_decode_boxes(out, SMALL, 0.7)
        assert record_bits(got) == record_bits(want)
        assert [b.cls for b in got] == ([1] if dtype == np.float64 else [])


# -- nms_bev and _match_scene ------------------------------------------------------------

# A half-metre lattice with sizes 1, 2 and 4 m puts IoUs exactly on 1/3, 1/2
# and 0.2 often; scores repeat so that order ties are common.
THRESHOLDS = [0.0, 0.2, 1.0 / 3.0, 0.5, 1.0]


@st.composite
def lattice_boxes(draw, max_size=12, with_score=True):
    coords = st.integers(-8, 8).map(lambda k: k * 0.5)
    size = st.sampled_from([1.0, 2.0, 4.0])
    box = st.builds(
        Box3D,
        x=coords,
        y=coords,
        z=st.just(0.0),
        h=st.just(1.5),
        w=size,
        l=size,
        yaw=st.sampled_from([0.0, 0.5, -3.0, math.pi]),
        cls=st.integers(0, 1),
        score=st.sampled_from([0.2, 0.5, 0.5, 0.9]) if with_score else st.just(1.0),
    )
    boxes = draw(st.lists(box, max_size=max_size))
    if boxes and draw(st.booleans()):
        boxes.append(dataclasses.replace(boxes[0]))  # an identical box
    return boxes


@settings(max_examples=300, deadline=None)
@given(boxes=lattice_boxes(), thresh=st.sampled_from(THRESHOLDS))
def test_nms_matches_the_reference(boxes, thresh):
    got, want = nms_bev(boxes, thresh), ref_nms_bev(boxes, thresh)
    assert [id(b) for b in got] == [id(b) for b in want]


@settings(max_examples=300, deadline=None)
@given(
    preds=lattice_boxes(),
    gts=lattice_boxes(with_score=False),
    thresh=st.sampled_from(THRESHOLDS),
)
def test_match_scene_matches_the_reference(preds, gts, thresh):
    got, got_matched = _match_scene(preds, gts, thresh, DEFAULT_BUCKETS)
    want, want_matched = ref_match_scene(preds, gts, thresh, DEFAULT_BUCKETS)
    assert record_bits(got) == record_bits(want)
    np.testing.assert_array_equal(got_matched, want_matched)


def test_match_scene_breaks_iou_ties_toward_the_first_gt():
    # One prediction exactly between two same-class GTs of equal IoU.
    pred = Box3D(0.5, 0.0, 0.0, 1.5, 2.0, 2.0, 0.0, 0, score=0.9)
    gts = [Box3D(0.0, 0.0, 0.0, 1.5, 2.0, 2.0, 0.3, 0), Box3D(1.0, 0.0, 0.0, 1.5, 2.0, 2.0, 0.1, 0)]
    for thresh in (1.0 / 3.0, 0.34):
        got = _match_scene([pred], gts, thresh, DEFAULT_BUCKETS)
        want = ref_match_scene([pred], gts, thresh, DEFAULT_BUCKETS)
        assert record_bits(got[0]) == record_bits(want[0])
        np.testing.assert_array_equal(got[1], want[1])
    assert _match_scene([pred], gts, 1.0 / 3.0, DEFAULT_BUCKETS)[1].tolist() == [True, False]


@settings(max_examples=200, deadline=None)
@given(a=lattice_boxes(max_size=6), b=lattice_boxes(max_size=6))
def test_iou_matrix_equals_the_scalar_iou_elementwise(a, b):
    got = iou_matrix(a, b)
    assert got.shape == (len(a), len(b))
    for i, p in enumerate(a):
        for j, g in enumerate(b):
            assert bits(float(got[i, j])) == bits(ref_iou_bev(p, g))


# -- scalar wrap_angle --------------------------------------------------------------------

ANGLES = [math.pi, -math.pi, 0.0, -0.0, 1e300, -1e300, 5e-324, 2.0 * math.pi, -2.0 * math.pi] + [
    k * math.pi for k in range(-15, 16, 2)
]


@settings(max_examples=500, deadline=None)
@given(
    a=st.one_of(
        st.sampled_from(ANGLES),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-20.0, 20.0),
        st.integers(-(2**53), 2**53),
        st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
        st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    )
)
def test_scalar_wrap_angle_matches_the_reference(a):
    got, want = wrap_angle(a), ref_wrap_angle(a)
    assert type(got) is float
    assert bits(got) == bits(want)

