"""Command-line surface: four verbs, one per experiment step.

`gen-data` makes a synthetic dataset, `train-fp` the float baseline,
`quantize` an int8 model and `compare` an AP table. The first three build a
config from `--config FILE` and `key=value` arguments (`config.py`; the
arguments win over the file, and a key given twice in either is an error);
`compare` reads no config and takes neither.

`quantize` takes one route per quantization method. The calibration arms
(`calib.METHODS`; one bit-width for weights and activations) run through
`pipeline.run_baseline_calibration`, and lidar-ptq through
`pipeline.run_lidar_ptq`. Both return the RunLog written to runlog.csv and
summary.json, whose `layers` hold each layer's scales and MSEs.

`compare` scores one or more models, each with its AP drops against the
first model named. JSON output is strict: NaN is written null.

Exit codes: 0 success, 2 configuration problem (bad flags, unknown config
keys, missing inputs, refusing to overwrite), 3 runtime failure. Errors go
to stderr prefixed with "error[config]:" or "error[runtime]:".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

from . import calib
from .config import (
    ConfigError,
    GenConfig,
    PipelineConfig,
    TrainConfig,
    build_config,
    parse_kv_file,
    parse_kv_text,
)
from .dataset import Dataset, DatasetError, generate_dataset
from .detector import GridConfig, pillarize
from .evalharness import evaluate_model
from .modelio import ModelIOError, load_model, save_model
from .pipeline import (
    PipelineError,
    fp_final_outputs,
    pillar_features,
    run_baseline_calibration,
    run_lidar_ptq,
    sample_calibration_set,
    train_fp_baseline,
)
from .quant import QuantError

GRID = GridConfig()


def _load_cfg(cls, args):
    """`cls` from `--config`'s file, then the key=value tokens (which win), each
    read as one line of such a file: a blank token or a '#' comment is refused."""
    mapping: Dict[str, str] = {}
    if args.config:
        mapping.update(parse_kv_file(args.config))
    for tok in args.overrides:
        if not tok.strip() or "#" in tok or "\n" in tok:
            raise ConfigError(f"override {tok!r} is not one key=value line")
    mapping.update(parse_kv_text("\n".join(args.overrides), "<command line>"))
    return build_config(cls, mapping)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _guard(path: Path, force: bool) -> Path:
    if path.exists() and not force:
        raise ConfigError(f"refusing to overwrite {path} (pass --force)")
    return path


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _open_dataset(args) -> Dataset:
    root = Path(args.data)
    if not root.is_dir():
        raise ConfigError(f"dataset directory not found: {root}")
    return Dataset(root)


def _json_ready(value):
    """`value` with every non-finite float, at any depth, replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_ready(payload), indent=2, allow_nan=False) + "\n")


# -- verbs ------------------------------------------------------------------------


def cmd_gen_data(args) -> None:
    cfg = _load_cfg(GenConfig, args)
    out = _out_dir(args)
    _guard(out / "manifest.txt", args.force)
    ds = generate_dataset(out, cfg.scene_spec(), cfg.n_train, cfg.n_val, cfg.seed)
    sample = ds.frames("train")[:50]
    occ = float(
        np.mean([pillarize(ds.point_cloud(f), GRID).occupancy.mean() for f in sample])
    )
    _write_json(
        out / "summary.json",
        {
            "n_train": cfg.n_train,
            "n_val": cfg.n_val,
            "seed": cfg.seed,
            "mean_occupancy": occ,
        },
    )
    print(f"dataset: {cfg.n_train} train / {cfg.n_val} val frames, occupancy {occ:.3f}")


def cmd_train_fp(args) -> None:
    cfg = _load_cfg(TrainConfig, args)
    ds = _open_dataset(args)
    out = _out_dir(args)
    model_path = _guard(out / "fp.ptqf", args.force)
    net, info = train_fp_baseline(ds, cfg, GRID)
    save_model(model_path, net)
    _write_json(
        out / "train_report.json",
        {
            "final_ap": info["final_ap"],
            "ap_per_class": {str(k): v for k, v in sorted(info["ap_per_class"].items())},
            "epochs": info["epochs"],
            "first_loss": info["losses"][0],
            "last_loss": info["losses"][-1],
            "steps": len(info["losses"]),
        },
    )
    print(f"float baseline AP {info['final_ap']:.4f} -> {model_path}")


def _require_shared_bits(cfg: PipelineConfig) -> None:
    """The calibration arms quantize weights and activations at one width,
    which `PipelineConfig` holds to 2..8 bits."""
    if cfg.bits_w != cfg.bits_a:
        hint = "; method=lidar-ptq iters_T=0 runs the same grid search at these widths"
        raise ConfigError(
            f"method {cfg.method} uses one bit-width for weights and activations, "
            f"got bits_w={cfg.bits_w} and bits_a={cfg.bits_a}"
            + (hint if cfg.method == "maxmin_grid" else "")
        )


def cmd_quantize(args) -> None:
    """Run the config's method on the calibration frames and write the
    quantized model, its run log and summary; fail if a label file was read.
    lidar-ptq also writes the float net's outputs on those frames, computed
    once and passed to `run_lidar_ptq` for its pseudo-labels, to
    fp_outputs.npz, guarded with the others and written after the audit."""
    cfg = _load_cfg(PipelineConfig, args)
    lidar_ptq = cfg.method == "lidar-ptq"
    if not lidar_ptq:
        _require_shared_bits(cfg)
    ds = _open_dataset(args)
    net = load_model(_require_file(args.model, "model"))
    ids = sample_calibration_set(ds, cfg.calib_frames, cfg.seed)
    feats = pillar_features(ds, ids, GRID)
    out = _out_dir(args)
    outputs = ["quantized.ptqf", "runlog.csv", "summary.json"]
    if lidar_ptq:
        outputs.append("fp_outputs.npz")
    model_path, csv_path, summary_path, *fp_path = (_guard(out / n, args.force) for n in outputs)
    if lidar_ptq:
        fp_outs = fp_final_outputs(net, feats)
        qnet, log = run_lidar_ptq(net, feats, cfg, GRID, fp_outs)
    else:
        qnet, log = run_baseline_calibration(net, feats, cfg.method, cfg.bits_a, cfg.search)
    if ds.audit.label_reads:
        raise PipelineError(f"label files were read during quantize: {ds.audit.summary()}")
    if lidar_ptq:
        heatmap, regression = zip(*fp_outs)
        np.savez(fp_path[0], heatmap=np.stack(heatmap), regression=np.stack(regression))
    log.meta.update(
        {
            "bits_w": cfg.bits_w,
            "bits_a": cfg.bits_a,
            "calib_frames": len(ids),
            "seed": cfg.seed,
            "audit": ds.audit.summary(),
        }
    )
    save_model(model_path, qnet)
    csv_path.write_text(log.to_csv())
    _write_json(summary_path, log.summary())
    print(f"quantized model -> {model_path} (label reads: {log.meta['audit']['label_reads']})")


# every config key and `split`: a --models token so named, with no such
# file, is a stray setting, not a missing model
_SETTINGS = {"split"} | {
    f.name for cls in (GenConfig, TrainConfig, PipelineConfig) for f in dataclasses.fields(cls)
}


def _parse_models(pairs: List[str]) -> Dict[str, Path]:
    models: Dict[str, Path] = {}
    for tok in pairs:
        if "=" not in tok:
            raise ConfigError(f"--models entries are name=path, got {tok!r}")
        name, path = tok.split("=", 1)
        if not name:
            raise ConfigError(f"--models entry {tok!r} has an empty name")
        if name in models:
            raise ConfigError(f"--models names {name!r} twice")
        if name in _SETTINGS and not Path(path).is_file():
            raise ConfigError(f"compare reads no setting such as {tok!r}; --models takes name=path")
        models[name] = _require_file(path, f"model {name!r}")
    return models


def _rel_drop(base: float, value: float) -> float:
    return (base - value) / base if base > 0 else math.nan


def cmd_compare(args) -> None:
    """Score every --models entry; drops are relative to the first one (a
    lone model's are against itself)."""
    ds = _open_dataset(args)
    models = _parse_models(args.models)
    out = _out_dir(args)
    path = _guard(out / "compare.json", args.force)
    reports = {
        name: evaluate_model(load_model(mpath), ds, GRID, split=args.split)
        for name, mpath in models.items()
    }
    baseline, base = next(iter(reports.items()))
    rows = []
    for name, rep in reports.items():
        row = {"model": name, **rep.as_dict()}
        row["mean_ap_rel_drop"] = _rel_drop(base.mean_ap, rep.mean_ap)
        row["bucket_rel_drop"] = {
            k: _rel_drop(base.bucket_ap[k], v) for k, v in row["bucket_ap"].items()
        }
        rows.append(row)
    rows.sort(key=lambda r: -r["mean_ap"])
    _write_json(path, {"baseline": baseline, "rows": rows})
    buckets = list(rows[0]["bucket_ap"])
    width = max(len("model"), *(len(r["model"]) for r in rows))
    print(f"{'model'.ljust(width)}  {'mean_ap':>8}" + "".join(f"{b:>9}" for b in buckets))
    for r in rows:
        cells = "".join(f"{r['bucket_ap'][b]:9.4f}" for b in buckets)
        print(f"{r['model'].ljust(width)}  {r['mean_ap']:8.4f}{cells}")


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pillarptq",
        description="Post-training quantization experiments on a miniature BEV detector.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, text, config=True, data=True):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--force", action="store_true", help="overwrite existing outputs")
        if data:
            sp.add_argument("--data", required=True, help="dataset directory")
        if config:
            sp.add_argument("--config", default=None, help="flat key=value config file")
            sp.add_argument("overrides", nargs="*", metavar="key=value")
        return sp

    verb("gen-data", "generate a synthetic dataset", data=False)
    verb("train-fp", "train the float baseline")
    quantize = verb("quantize", "produce a quantized model")
    quantize.add_argument("--model", required=True, help="PTQF model path")
    compare = verb(
        "compare", "AP and range-bucket AP table, drops vs the first model", config=False
    )
    compare.add_argument("--models", nargs="+", required=True, metavar="NAME=PATH")
    compare.add_argument("--split", default="val", choices=["train", "val"])
    return p


HANDLERS = {
    "gen-data": cmd_gen_data,
    "train-fp": cmd_train_fp,
    "quantize": cmd_quantize,
    "compare": cmd_compare,
}

_CONFIG_ERRORS = (ConfigError,)
_RUNTIME_ERRORS = (
    PipelineError,
    DatasetError,
    ModelIOError,
    calib.CalibError,
    QuantError,
    ValueError,
    OSError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        if e.code in (0, None):
            return 0
        print("error[config]: invalid arguments", file=sys.stderr)
        return 2
    try:
        HANDLERS[args.verb](args)
        return 0
    except _CONFIG_ERRORS as e:
        print(f"error[config]: {e}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as e:
        print(f"error[runtime]: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
