"""Command-line surface: one verb per experiment step.

Exit codes: 0 success, 2 configuration problem (bad flags, unknown config
keys, missing inputs, refusing to overwrite), 3 runtime failure. Errors go
to stderr prefixed with "error[config]:" or "error[runtime]:".
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

from .calib import CalibError
from .config import (
    ConfigError,
    GenConfig,
    PipelineConfig,
    TrainConfig,
    build_config,
    parse_kv_file,
)
from .dataset import Dataset, DatasetError, generate_dataset
from .detector import GridConfig, pillarize
from .evalharness import evaluate_model, range_ablation
from .modelio import ModelIOError, load_model, save_model
from .pipeline import (
    PipelineError,
    RunLog,
    pillar_features,
    run_baseline_calibration,
    run_lidar_ptq,
    sample_calibration_set,
    train_fp_baseline,
)
from .quant import QuantError

GRID = GridConfig()


def _parse_overrides(pairs: List[str]) -> Dict[str, str]:
    out: Dict[str, str] = {}
    for tok in pairs or []:
        if "=" not in tok:
            raise ConfigError(f"override {tok!r} is not key=value")
        k, v = tok.split("=", 1)
        out[k.strip()] = v.strip()
    return out


def _load_cfg(cls, args):
    mapping: Dict[str, str] = {}
    if args.config:
        mapping.update(parse_kv_file(args.config))
    mapping.update(_parse_overrides(args.overrides))
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


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


def _calibration_inputs(args, cfg: PipelineConfig):
    ds = _open_dataset(args)
    net = load_model(_require_file(args.model, "model"))
    ids = sample_calibration_set(ds, cfg.calib_frames, cfg.seed)
    feats = pillar_features(ds, ids, GRID)
    return ds, net, ids, feats


def _require_shared_bits(cfg: PipelineConfig) -> None:
    """The calibration-only arms quantize weights and activations at one width."""
    if cfg.bits_w != cfg.bits_a:
        raise ConfigError(
            f"method {cfg.method} uses one bit-width for weights and activations, "
            f"got bits_w={cfg.bits_w} and bits_a={cfg.bits_a}"
        )


def cmd_calibrate(args) -> None:
    cfg = _load_cfg(PipelineConfig, args)
    if cfg.method == "lidar-ptq":
        raise ConfigError("calibrate expects method in {maxmin, entropy, maxmin_grid}")
    _require_shared_bits(cfg)
    ds, net, ids, feats = _calibration_inputs(args, cfg)
    out = _out_dir(args)
    report_path = _guard(out / "calibration_report.txt", args.force)
    _, rows = run_baseline_calibration(
        net, feats, method=cfg.method, bits=cfg.bits_a, search=cfg.search
    )
    report_path.write_text(
        "\n".join(
            f"layer={r['layer']} method={r['method']} w_scale={r['w_scale']:.10g} "
            f"a_scale={r['a_scale']:.10g} pre_mse={r['a_maxmin_mse']:.10g} "
            f"post_mse={r['a_mse']:.10g} entropy_fallback={r['entropy_fallback']}"
            for r in rows
        )
        + "\n"
    )
    if ds.audit.label_reads:
        raise PipelineError(f"label files were read during calibration: {ds.audit.summary()}")
    print(f"calibration report -> {report_path} (label reads: {ds.audit.label_reads})")


def cmd_quantize(args) -> None:
    cfg = _load_cfg(PipelineConfig, args)
    if cfg.method in ("maxmin", "entropy"):
        _require_shared_bits(cfg)
    ds, net, ids, feats = _calibration_inputs(args, cfg)
    out = _out_dir(args)
    model_path = _guard(out / "quantized.ptqf", args.force)
    csv_path = _guard(out / "runlog.csv", args.force)
    summary_path = _guard(out / "summary.json", args.force)

    if cfg.method in ("maxmin", "entropy"):
        qnet, rows = run_baseline_calibration(
            net, feats, method=cfg.method, bits=cfg.bits_a, search=cfg.search
        )
        log = RunLog()
        for r in rows:
            log.layer_stats[r["layer"]] = {
                "w_scale": r["w_scale"],
                "a_scale": r["a_scale"],
                "pre_mse": r["a_maxmin_mse"],
                "post_mse": r["a_mse"],
                "entropy_fallback": r["entropy_fallback"],
                "z_w": 0,
                "z_a": 0,
            }
    else:
        run_cfg = cfg
        if cfg.method == "maxmin_grid" and cfg.iters_T != 0:
            import dataclasses

            run_cfg = dataclasses.replace(cfg, iters_T=0)
        qnet, log = run_lidar_ptq(net, feats, run_cfg, GRID, out_dir=out)

    if ds.audit.label_reads:
        raise PipelineError(f"label files were read during quantize: {ds.audit.summary()}")
    save_model(model_path, qnet)
    csv_path.write_text(log.to_csv())
    summary = log.summary()
    summary["meta"].update(
        {
            "method": cfg.method,
            "bits_w": cfg.bits_w,
            "bits_a": cfg.bits_a,
            "calib_frames": len(ids),
            "seed": cfg.seed,
            "audit": ds.audit.summary(),
        }
    )
    _write_json(summary_path, summary)
    print(f"quantized model -> {model_path} (label reads: {ds.audit.label_reads})")


def cmd_evaluate(args) -> None:
    ds = _open_dataset(args)
    net = load_model(_require_file(args.model, "model"))
    out = _out_dir(args)
    path = _guard(out / "eval_report.json", args.force)
    report = evaluate_model(net, ds, GRID, split=args.split)
    path.write_text(report.to_json() + "\n")
    print(f"mean AP {report.mean_ap:.4f} -> {path}")


def _parse_models(pairs: List[str]) -> Dict[str, Path]:
    models: Dict[str, Path] = {}
    for tok in pairs:
        if "=" not in tok:
            raise ConfigError(f"--models entries are name=path, got {tok!r}")
        name, path = tok.split("=", 1)
        models[name] = _require_file(path, f"model {name!r}")
    if len(models) < 2:
        raise ConfigError("need at least 2 models to compare")
    return models


def cmd_compare(args) -> None:
    ds = _open_dataset(args)
    models = _parse_models(args.models)
    out = _out_dir(args)
    path = _guard(out / "compare.json", args.force)
    rows = []
    for name, mpath in models.items():
        rep = evaluate_model(load_model(mpath), ds, GRID, split=args.split)
        rows.append(
            {
                "model": name,
                "mean_ap": rep.mean_ap,
                "ap_per_class": {str(k): v for k, v in sorted(rep.ap_per_class.items())},
                "tp": rep.tp,
                "fp": rep.fp,
                "fn": rep.fn,
            }
        )
    rows.sort(key=lambda r: -r["mean_ap"])
    _write_json(path, {"rows": rows})
    width = max(len(r["model"]) for r in rows)
    print(f"{'model'.ljust(width)}  mean_ap")
    for r in rows:
        print(f"{r['model'].ljust(width)}  {r['mean_ap']:.4f}")


def cmd_ablate_range(args) -> None:
    ds = _open_dataset(args)
    models = _parse_models(args.models)
    out = _out_dir(args)
    path = _guard(out / "range_table.json", args.force)
    variants = {name: load_model(p) for name, p in models.items()}
    table = range_ablation(variants, ds, GRID, split=args.split, baseline=args.baseline)
    _write_json(path, table)
    buckets = next(iter(table.values()))["bucket_ap"].keys()
    header = "variant".ljust(12) + "".join(b.rjust(12) for b in buckets)
    print(header)
    for name, row in table.items():
        cells = "".join(f"{row['bucket_ap'][b]:12.4f}" for b in buckets)
        print(name.ljust(12) + cells)


# -- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pillarptq",
        description="Post-training quantization experiments on a miniature BEV detector.",
    )
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, data=False, model=False, models=False, split=False):
        sp.add_argument("--config", default=None, help="flat key=value config file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--force", action="store_true", help="overwrite existing outputs")
        if data:
            sp.add_argument("--data", required=True, help="dataset directory")
        if model:
            sp.add_argument("--model", required=True, help="PTQF model path")
        if models:
            sp.add_argument("--models", nargs="+", required=True, metavar="NAME=PATH")
        if split:
            sp.add_argument("--split", default="val", choices=["train", "val"])
        sp.add_argument("overrides", nargs="*", metavar="key=value")

    common(sub.add_parser("gen-data", help="generate a synthetic dataset"))
    common(sub.add_parser("train-fp", help="train the float baseline"), data=True)
    common(sub.add_parser("calibrate", help="emit a calibration report"), data=True, model=True)
    common(sub.add_parser("quantize", help="produce a quantized model"), data=True, model=True)
    common(
        sub.add_parser("evaluate", help="evaluate one model"),
        data=True,
        model=True,
        split=True,
    )
    common(
        sub.add_parser("compare", help="side-by-side AP table"),
        data=True,
        models=True,
        split=True,
    )
    ablate = sub.add_parser("ablate-range", help="range-bucket ablation table")
    common(ablate, data=True, models=True, split=True)
    ablate.add_argument("--baseline", default="fp", help="variant treated as reference")
    return p


HANDLERS = {
    "gen-data": cmd_gen_data,
    "train-fp": cmd_train_fp,
    "calibrate": cmd_calibrate,
    "quantize": cmd_quantize,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "ablate-range": cmd_ablate_range,
}

_CONFIG_ERRORS = (ConfigError,)
_RUNTIME_ERRORS = (
    PipelineError,
    DatasetError,
    ModelIOError,
    CalibError,
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
