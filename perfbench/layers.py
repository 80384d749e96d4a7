"""Which library functions the traced run wraps, the counters each span
carries, and how spans become the per-layer metrics.

Functions are wrapped at every module attribute of `pillarptq` that holds
them, because callers look them up there (`pipeline` imported
`grid_search_detail` by name; `network` calls `ad.conv2d` through the
module). Methods are wrapped on their class.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Iterable, List

import numpy as np

from pillarptq import autodiff, calib, dataset, detector, evalharness, losses, modelio
from pillarptq import network, optim, pipeline, quant

from spans import Tracer


def _arg(args, kwargs, i: int, name: str, default):
    if len(args) > i:
        return args[i]
    return kwargs.get(name, default)


def _size(x) -> int:
    return int(np.size(getattr(x, "data", x)))


def _grid_candidates(args, kwargs, out) -> dict:
    cfg = _arg(args, kwargs, 2, "cfg", calib.SearchConfig())
    sweep = _arg(args, kwargs, 3, "sweep", "linear")
    # The linear sweep appends the max-min threshold to its T points.
    candidates = cfg.T + 1 if sweep == "linear" else cfg.T
    return {"elem_candidates": _size(args[0]) * candidates}


def _entropy_bins(args, kwargs, out) -> dict:
    hist = args[0]
    bits = _arg(args, kwargs, 1, "bits", 8)
    return {"bins_scanned": 0 if out.fallback else hist.n_bins - (1 << (bits - 1))}


def _conv_gmac(args, kwargs, out) -> dict:
    weight = _arg(args, kwargs, 1, "weight", None)
    _, cin, kh, kw = np.shape(getattr(weight, "data", weight))
    return {"gmac": out.data.size * cin * kh * kw / 1e9}


def _eval_pairs(args, kwargs, out) -> dict:
    preds, gts = args[0], args[1]
    return {"iou_pairs": sum(len(p) * len(g) for p, g in zip(preds, gts))}


def _nms_counts(args, kwargs, out) -> dict:
    return {"candidates": len(args[0]), "kept": len(out)}


# Every traced operation runs inside one span of this name; its self time is
# the untraced remainder, the operation's time outside every layer span.
ROOT_SPAN = "trace.op"

# span name -> (owner, attribute, counter callback, counters reported). A
# module owner means: wrap the function at every pillarptq module attribute
# that holds it. A class owner means: wrap the method on the class.
SPANS = {
    "calib.grid_search": (calib, "grid_search_detail", _grid_candidates, ("elem_candidates",)),
    "calib.calibrate_layer": (calib, "calibrate_layer", None, ()),
    "calib.entropy": (calib, "entropy_threshold", _entropy_bins, ("bins_scanned",)),
    "quant.fake_quant": (quant, "fake_quant", lambda a, k, o: {"elems": _size(a[0])}, ("elems",)),
    "autodiff.conv2d": (autodiff, "conv2d", _conv_gmac, ("gmac",)),
    "autodiff.fake_quant_op": (
        autodiff,
        "fake_quant_op",
        lambda a, k, o: {"elems": _size(a[0])},
        ("elems",),
    ),
    "network.backward": (network, "backward", None, ()),
    "losses.make_pseudo_labels": (losses, "make_pseudo_labels", None, ()),
    "losses.pseudo_label_loss": (losses, "pseudo_label_loss", None, ()),
    "optim.adam": (optim.Adam, "step", None, ()),
    "pipeline.run_lidar_ptq": (pipeline, "run_lidar_ptq", None, ()),
    "dataset.point_cloud": (
        dataset.Dataset,
        "point_cloud",
        lambda a, k, o: {"bytes": o.points.nbytes},
        ("bytes",),
    ),
    "detector.pillarize": (detector, "pillarize", lambda a, k, o: {"points": len(a[0])}, ("points",)),
    "detector.detector_forward": (detector, "detector_forward", None, ()),
    "detector.decode_boxes": (detector, "decode_boxes", lambda a, k, o: {"peaks": len(o)}, ("peaks",)),
    "detector.nms_bev": (detector, "nms_bev", _nms_counts, ("candidates", "kept_ratio")),
    "evalharness.evaluate": (evalharness, "evaluate", _eval_pairs, ("iou_pairs",)),
    "modelio.save_model": (
        modelio,
        "save_model",
        lambda a, k, o: {"bytes": os.path.getsize(a[0])},
        ("bytes",),
    ),
    "modelio.load_model": (modelio, "load_model", None, ()),
}


def _bindings(func) -> Iterable[tuple]:
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "pillarptq" or name.startswith("pillarptq.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is func:
                yield mod, attr


def instrument(tracer: Tracer) -> None:
    """Wrap every span's function or method; `tracer.restore()` undoes it."""
    for span, (owner, attr, count, _) in SPANS.items():
        if isinstance(owner, type):
            tracer.wrap(owner, attr, span, count)
            continue
        for mod, bound in list(_bindings(getattr(owner, attr))):
            tracer.wrap(mod, bound, span, count)


def _fields(span: str, reported: tuple) -> tuple:
    return ("steps" if span == "optim.adam" else "calls", "busy_s", "self_s") + reported


_UNITS = {
    "calls": "count",
    "steps": "count",
    "busy_s": "s",
    "self_s": "s",
    "elem_candidates": "count",
    "bins_scanned": "count",
    "elems": "count",
    "gmac": "GMAC",
    "bytes": "B",
    "points": "count",
    "peaks": "count",
    "candidates": "count",
    "kept_ratio": "ratio",
    "iou_pairs": "count",
}
EXTRA = {
    "pipeline.iterations": "count",
    "pipeline.units_improved_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_remainder_s": "s",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name, as BENCHMARK.json lists them, with its unit."""
    units = {
        f"{span}.{f}": _UNITS[f]
        for span, (*_, reported) in SPANS.items()
        for f in _fields(span, reported)
    }
    units.update(EXTRA)
    return units


def layer_metrics(tracer: Tracer, logs: List, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """Per-layer values from the traced phase's spans and the RunLogs of the
    LiDAR-PTQ jobs it ran. A layer that did no work reports zeros."""
    agg = tracer.aggregate()
    values: Dict[str, float] = {}
    for span, (*_, reported) in SPANS.items():
        a = agg.get(span, {})
        for f in _fields(span, reported):
            if f == "steps":
                v = a.get("calls", 0)
            elif f == "kept_ratio":
                v = a["kept"] / a["candidates"] if a.get("candidates") else 0.0
            else:
                v = a.get(f, 0)
            values[f"{span}.{f}"] = v
    iterations = sum(1 for log in logs for r in log.records if r["iteration"] > 0)
    stats = [s for log in logs for s in log.layer_stats.values()]
    improved = sum(1 for s in stats if s["post_mse"] < s["pre_mse"])
    values["pipeline.iterations"] = iterations
    values["pipeline.units_improved_ratio"] = improved / len(stats) if stats else 0.0
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_remainder_s"] = agg.get(ROOT_SPAN, {}).get("self_s", 0.0)
    return values
