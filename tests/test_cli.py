"""The CLI verbs end to end on the tiny dataset."""

import argparse
import io
import json
import math
import struct
import zipfile

import numpy as np
import pytest

from pillarptq import calib, cli, pipeline
from pillarptq.cli import GRID, _rel_drop, _write_json, main
from pillarptq.config import PipelineConfig
from pillarptq.detector import Box3D, quantizable_layers
from pillarptq.evalharness import EvalReport, evaluate, evaluate_model
from pillarptq.modelio import load_model, save_model

SMALL = [
    "calib_frames=8", "search_T=10", "batch=4", "iters_T=4", "snapshot_every=2", "score_frames=4",
]


@pytest.fixture(scope="module")
def model_path(tiny_net, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_model") / "fp.ptqf"
    save_model(path, tiny_net)
    return path


def _run(verb, tiny_dataset, model_path, out, *overrides):
    argv = [verb, "--data", str(tiny_dataset.root), "--model", str(model_path)]
    return main(argv + ["--out", str(out), *SMALL, *overrides])


@pytest.mark.parametrize("method", ["maxmin", "entropy", "maxmin_grid"])
def test_calibrate_writes_one_row_per_layer(
    tiny_dataset, tiny_net, model_path, tmp_path, capsys, method
):
    # each calibration arm's summary holds one row per layer, in the net's order
    assert _run("quantize", tiny_dataset, model_path, tmp_path, f"method={method}") == 0
    assert "(label reads: 0)" in capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["meta"]["method"] == method
    assert list(summary["layers"]) == quantizable_layers(tiny_net)
    assert all(s["post_mse"] >= 0.0 for s in summary["layers"].values())


@pytest.mark.parametrize("method", ["maxmin", "entropy", "maxmin_grid", "lidar-ptq"])
def test_quantize_each_method(tiny_dataset, tiny_net, model_path, tmp_path, method):
    assert _run("quantize", tiny_dataset, model_path, tmp_path, f"method={method}") == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["meta"]["audit"]["label_reads"] == 0
    assert summary["meta"]["method"] == method
    assert sorted(summary["layers"]) == sorted(quantizable_layers(tiny_net))
    qnet = load_model(tmp_path / "quantized.ptqf")
    assert all(qnet.layer(n).precision == "int8" for n in quantizable_layers(tiny_net))
    assert (tmp_path / "runlog.csv").read_text().startswith("layer,iteration,")
    assert (tmp_path / "fp_outputs.npz").exists() == (method == "lidar-ptq")


def test_quantize_keeps_an_existing_fp_outputs_file(tiny_dataset, model_path, tmp_path, capsys):
    # fp_outputs.npz is one of lidar-ptq's outputs, guarded like the others
    placeholder = tmp_path / "fp_outputs.npz"
    placeholder.write_bytes(b"placeholder")
    assert _run("quantize", tiny_dataset, model_path, tmp_path, "method=lidar-ptq") == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert placeholder.read_bytes() == b"placeholder"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fp_outputs.npz"]
    assert _run("quantize", tiny_dataset, model_path, tmp_path, "method=lidar-ptq", "--force") == 0
    with np.load(placeholder) as fp:
        assert fp["heatmap"].shape[0] == fp["regression"].shape[0] == 8


def test_lidar_ptq_runs_the_float_forward_once(
    tiny_dataset, model_path, tmp_path, monkeypatch
):
    calls, forward = [], pipeline.fp_final_outputs

    def counting(net, feats):
        calls.append(len(feats))
        return forward(net, feats)

    monkeypatch.setattr(cli, "fp_final_outputs", counting)
    monkeypatch.setattr(pipeline, "fp_final_outputs", counting)
    assert _run("quantize", tiny_dataset, model_path, tmp_path, "method=lidar-ptq") == 0
    assert calls == [8]
    # each member is the .npy the float outputs' stacks serialize to
    ids = pipeline.sample_calibration_set(tiny_dataset, 8, PipelineConfig().seed)
    feats = pipeline.pillar_features(tiny_dataset, ids, GRID)
    heatmap, regression = zip(*forward(load_model(model_path), feats))
    with zipfile.ZipFile(tmp_path / "fp_outputs.npz") as z:
        assert z.namelist() == ["heatmap.npy", "regression.npy"]
        for name, arrays in (("heatmap", heatmap), ("regression", regression)):
            want = io.BytesIO()
            np.save(want, np.stack(arrays))
            assert z.read(f"{name}.npy") == want.getvalue()


@pytest.mark.parametrize(
    "key", ["granularity=layer", "search_sweep=linear", "freeze_w_scale=false"]
)
def test_removed_config_keys_are_unknown(tiny_dataset, model_path, tmp_path, capsys, key):
    assert _run("quantize", tiny_dataset, model_path, tmp_path, key) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("verb,method", [
    ("quantize", "maxmin"),
    ("quantize", "entropy"),
    ("quantize", "maxmin_grid"),
])
def test_calibration_arms_reject_mixed_bit_widths(
    tiny_dataset, model_path, tmp_path, capsys, verb, method
):
    code = _run(verb, tiny_dataset, model_path, tmp_path, f"method={method}", "bits_w=4")
    assert code == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    assert ("method=lidar-ptq iters_T=0" in err) == (method == "maxmin_grid")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("verb,method", [
    ("quantize", "maxmin"),
    ("quantize", "entropy"),
    ("quantize", "maxmin_grid"),
    ("quantize", "lidar-ptq"),
])
def test_bit_widths_outside_2_to_8_fail_before_any_output(
    tiny_dataset, model_path, tmp_path, capsys, verb, method
):
    # an int8 model: the config refuses any other width, before the verb
    # reads its inputs or creates --out
    for bits in (1, 9, 32):
        for key in ("bits_w", "bits_a"):
            out = tmp_path / f"{key}={bits}"
            code = _run(verb, tiny_dataset, model_path, out, f"method={method}", f"{key}={bits}")
            assert code == 2, (key, bits)
            assert "error[config]: bit-widths must be 2..8, got W" in capsys.readouterr().err
            assert not out.exists()


@pytest.mark.parametrize("verb,method", [("quantize", "maxmin"), ("quantize", "lidar-ptq")])
@pytest.mark.parametrize("key", ["search_alpha", "search_beta"])
def test_grid_span_is_not_a_config_key(
    tiny_dataset, model_path, tmp_path, capsys, verb, method, key
):
    out = tmp_path / "out"
    assert _run(verb, tiny_dataset, model_path, out, f"method={method}", f"{key}=0.5") == 2
    assert f"unknown config key {key!r} for PipelineConfig" in capsys.readouterr().err
    assert not out.exists()


def test_maxmin_grid_report_shows_the_quantized_scales(
    tiny_dataset, tiny_net, model_path, tmp_path
):
    # For each calibration arm, quantize's summary states the scales of the
    # model it saves, with each layer's pre- and post-MSE and entropy fallback.
    for method in calib.METHODS:
        out = tmp_path / method
        assert _run("quantize", tiny_dataset, model_path, out, f"method={method}") == 0
        qnet = load_model(out / "quantized.ptqf")
        stats = json.loads((out / "summary.json").read_text())["layers"]
        assert list(stats) == quantizable_layers(tiny_net)
        for name, s in stats.items():
            layer = qnet.layer(name)
            assert s["w_scale"] == layer.w_quant.scale, method
            assert s["a_scale"] == layer.a_quant.scale, method
            assert s["pre_mse"] >= 0.0 and s["post_mse"] >= 0.0, method
            assert isinstance(s["entropy_fallback"], bool), method


def test_point_cloud_with_trailing_bytes_exits_3(tiny_dataset, model_path, tmp_path, capsys):
    # A val frame with bytes after its last point must fail the run, not load
    # with points missing.
    import shutil

    from pillarptq.dataset import Dataset

    root = tmp_path / "ds"
    shutil.copytree(tiny_dataset.root, root)
    ds = Dataset(root)
    pcl = root / ds.entries[ds.frames("val")[0]].pcl_path
    pcl.write_bytes(pcl.read_bytes() + b"\x00" * 16)
    argv = ["compare", "--data", str(root), "--models", f"fp={model_path}"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert "after the last" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [(1, 7), (4, 9), (2, 0)])
def test_corrupt_layer_record_exits_3(tiny_dataset, model_path, tmp_path, capsys, field, value):
    # activation 7, precision 9 and stride 0 in the first layer's header
    raw = bytearray(model_path.read_bytes())
    (name_len,) = struct.unpack_from("<H", raw, 14)
    raw[16 + name_len + field] = value
    bad = tmp_path / "bad.ptqf"
    bad.write_bytes(bytes(raw))
    argv = ["compare", "--data", str(tiny_dataset.root), "--models", f"bad={bad}"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert "error[runtime]" in capsys.readouterr().err


def _strict_json(path):
    def refuse(name):
        raise AssertionError(f"{path.name} holds {name}, which is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def _compare(tiny_dataset, out, *models):
    argv = ["compare", "--data", str(tiny_dataset.root), "--out", str(out), "--models"]
    return main(argv + list(models))


def _eval_report(tiny_dataset, path, tmp_path):
    """`evaluate_model`'s report on the model at `path`, as JSON holds it."""
    report = evaluate_model(load_model(path), tiny_dataset, GRID)
    _write_json(tmp_path / "report.json", report.as_dict())
    return _strict_json(tmp_path / "report.json")


def test_compare_rows_are_eval_reports_with_drops_against_the_first_model(
    tiny_dataset, model_path, tmp_path
):
    report = _eval_report(tiny_dataset, model_path, tmp_path)
    # "b" is named first, so it is the reference although "a" sorts first
    assert _compare(tiny_dataset, tmp_path / "cmp", f"b={model_path}", f"a={model_path}") == 0
    table = _strict_json(tmp_path / "cmp" / "compare.json")
    assert table["baseline"] == "b"
    assert [r["model"] for r in table["rows"]] == ["b", "a"]
    for row in table["rows"]:
        assert list(row) == ["model", *report, "mean_ap_rel_drop", "bucket_rel_drop"]
        assert {k: row[k] for k in report} == report
        # two copies of one model: every drop is 0.0, or null where the
        # reference AP is 0 or undefined
        assert row["mean_ap_rel_drop"] in (0.0, None)
        assert list(row["bucket_rel_drop"]) == list(report["bucket_ap"])
        assert all(d in (0.0, None) for d in row["bucket_rel_drop"].values())


def test_rel_drop_is_relative_to_a_positive_reference():
    assert _rel_drop(0.8, 0.6) == (0.8 - 0.6) / 0.8
    assert _rel_drop(0.5, 0.5) == 0.0
    assert _rel_drop(0.5, 0.75) == -0.5  # better than the reference
    assert _rel_drop(0.5, 0.0) == 1.0
    assert math.isnan(_rel_drop(0.0, 0.3)) and math.isnan(_rel_drop(math.nan, 0.3))


def test_compare_drops_against_a_reference_with_positive_ap(
    tiny_dataset, model_path, tmp_path, monkeypatch
):
    def report(mean_ap, buckets):
        return EvalReport({0: mean_ap, 1: mean_ap}, mean_ap, buckets, 3, 1, 2, 5, 0.1)

    # evaluated in --models order: the reference "ref" first
    reports = iter([
        report(0.8, {"0-10": 0.9, "10-20": 0.5, "20-inf": math.nan}),
        report(0.6, {"0-10": 0.45, "10-20": 0.6, "20-inf": 0.2}),
    ])
    monkeypatch.setattr(cli, "evaluate_model", lambda *args, **kw: next(reports))
    models = f"ref={model_path}", f"q={model_path}"
    assert _compare(tiny_dataset, tmp_path / "cmp", *models) == 0
    table = _strict_json(tmp_path / "cmp" / "compare.json")
    assert table["baseline"] == "ref"
    ref, q = table["rows"]
    assert (ref["model"], q["model"]) == ("ref", "q")
    assert ref["mean_ap_rel_drop"] == 0.0
    assert q["mean_ap_rel_drop"] == (0.8 - 0.6) / 0.8
    assert q["bucket_rel_drop"] == {"0-10": 0.5, "10-20": (0.5 - 0.6) / 0.5, "20-inf": None}


@pytest.mark.parametrize("names,message", [
    (["a", "a", "b"], "--models names 'a' twice"),
    (["a", "", "b"], "has an empty name"),
], ids=["duplicate", "empty"])
def test_compare_rejects_bad_model_names(
    tiny_dataset, model_path, tmp_path, capsys, names, message
):
    out = tmp_path / "out"
    assert _compare(tiny_dataset, out, *(f"{n}={model_path}" for n in names)) == 2
    err = capsys.readouterr().err
    assert "error[config]" in err and message in err
    assert not out.exists()


def test_compare_scores_one_model(tiny_dataset, model_path, tmp_path):
    # a lone model is its own reference: its row is evaluate_model's report,
    # and as tiny_net scores AP 0.0 every drop is null
    report = _eval_report(tiny_dataset, model_path, tmp_path)
    assert report["mean_ap"] == 0.0
    assert _compare(tiny_dataset, tmp_path / "cmp", f"fp={model_path}") == 0
    table = _strict_json(tmp_path / "cmp" / "compare.json")
    assert table["baseline"] == "fp"
    (row,) = table["rows"]
    assert list(row) == ["model", *report, "mean_ap_rel_drop", "bucket_rel_drop"]
    assert row["model"] == "fp" and {k: row[k] for k in report} == report
    assert row["mean_ap_rel_drop"] is None
    assert row["bucket_rel_drop"] == {k: None for k in report["bucket_ap"]}


def test_ablate_range_is_gone(tiny_dataset, model_path, tmp_path, capsys):
    argv = ["ablate-range", "--data", str(tiny_dataset.root), "--out", str(tmp_path / "out")]
    assert main(argv + ["--models", f"fp={model_path}", f"q={model_path}"]) == 2
    assert "error[config]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# The detection policy and the task loss's regression weight are constants of
# the library: no verb takes a key for them, and LiDAR-PTQ has no weight on
# its local term.
POLICY_KEYS = ["score_floor=0.1", "top_k=500", "nms_iou=0.2", "alpha_reg=0.25", "lambda1=1"]


@pytest.mark.parametrize("verb,key", [
    pytest.param("train-fp", "eval_iou=0.3", id="eval_iou=0.3"),
    pytest.param("train-fp", "score_floor=0.1", id="score_floor=0.1"),
    *(pytest.param("train-fp", k, id=f"train-fp-{k}") for k in POLICY_KEYS[1:]),
    *(pytest.param("quantize", k, id=f"quantize-{k}") for k in POLICY_KEYS),
])
def test_train_fp_takes_no_scoring_keys(tiny_dataset, model_path, tmp_path, capsys, verb, key):
    out = tmp_path / "out"
    if verb == "train-fp":
        code = main(["train-fp", "--data", str(tiny_dataset.root), "--out", str(out), key])
    else:
        code = _run(verb, tiny_dataset, model_path, out, "method=maxmin", key)
    assert code == 2
    assert "unknown config key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb,overrides", [
    ("gen-data", ["falloff=-1"]),
    ("gen-data", ["n_objects_min=5", "n_objects_max=2"]),
    ("quantize", ["search_T=0"]),
    ("quantize", ["iters_T=-1"]),
    ("quantize", ["method=maxmin", "search_T=0"]),
    ("quantize", ["method=entropy", "calib_frames=2"]),
    ("quantize", ["lambda2=-1"]),
    ("quantize", ["lr_scale=-1"]),
    ("quantize", ["lr_theta=-1"]),
    ("quantize", ["lr_scale=nan"]),
    ("train-fp", ["lr=-1", "epochs=1", "batch=2", "ap_floor=0"]),
    ("gen-data", ["min_range=-5"]),
    ("gen-data", ["min_range=31"]),
    ("gen-data", ["ref_range=0"]),
    ("gen-data", ["sensor_range=0.5"]),
])
def test_bad_values_fail_before_any_output(
    tiny_dataset, model_path, tmp_path, capsys, verb, overrides
):
    # a value the config refuses is a config error (exit 2), raised before
    # the verb reads its inputs or creates --out
    out = tmp_path / "out"
    if verb == "gen-data":
        code = main(["gen-data", "--out", str(out), "n_train=2", "n_val=1", *overrides])
    elif verb == "train-fp":
        code = main(["train-fp", "--data", str(tiny_dataset.root), "--out", str(out), *overrides])
    else:
        code = _run(verb, tiny_dataset, model_path, out, *overrides)
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not out.exists()


def test_undefined_values_are_written_null(tmp_path):
    # no true positive: yaw_mae is NaN, and so is the AP of a bucket without GT
    report = evaluate([[]], [[Box3D(0.0, 0.0, 0.0, 1.5, 2.0, 2.0, 0.0, 0, 1.0)]])
    _write_json(tmp_path / "r.json", {"report": report.as_dict(), "inf": [math.inf]})
    payload = _strict_json(tmp_path / "r.json")
    assert payload["report"]["yaw_mae"] is None
    assert payload["report"]["bucket_ap"] == {"0-10": 0.0, "10-20": None, "20-inf": None}
    assert payload["inf"] == [None]


def test_every_verb_writes_strict_json(tiny_dataset, model_path, tmp_path):
    ds, fp = tmp_path / "ds", tmp_path / "train" / "fp.ptqf"
    assert main(["gen-data", "--out", str(ds), "n_train=4", "n_val=2", "seed=3"]) == 0
    argv = ["train-fp", "--data", str(ds), "--out", str(fp.parent)]
    assert main(argv + ["epochs=1", "batch=2", "ap_floor=0"]) == 0
    assert _run("quantize", tiny_dataset, model_path, tmp_path / "q", "method=maxmin") == 0
    argv = ["compare", "--data", str(ds), "--models", f"new={fp}", "--out", str(tmp_path / "one")]
    assert main(argv) == 0
    assert _compare(tiny_dataset, tmp_path / "cmp", f"fp={model_path}", f"new={fp}") == 0
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json"))
    assert written == [
        "cmp/compare.json", "ds/summary.json", "one/compare.json", "q/summary.json",
        "train/train_report.json",
    ]
    for name in written:
        _strict_json(tmp_path / name)


# -- the argument surface -----------------------------------------------------------


def test_parser_verbs_are_the_handlers_and_only_config_loaders_take_a_config():
    # a verb takes --config and key=value exactly when its handler builds a
    # config from them, so no verb accepts a config and then ignores it
    (verbs,) = (a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    assert list(verbs.choices) == list(cli.HANDLERS)
    assert list(cli.HANDLERS) == ["gen-data", "train-fp", "quantize", "compare"]
    loaders = {v for v, handler in cli.HANDLERS.items() if "_load_cfg" in handler.__code__.co_names}
    assert loaders == {"gen-data", "train-fp", "quantize"}
    for verb, sp in verbs.choices.items():
        dests = {a.dest for a in sp._actions}
        assert ("config" in dests) == ("overrides" in dests) == (verb in loaders), verb


@pytest.mark.parametrize("argv", [
    ["calibrate", "--model", "{model}", "method=maxmin"],
    ["evaluate", "--model", "{model}", "--config", "does_not_exist.cfg", "--seed", "7", "bitz=9"],
    ["quantize", "--model", "{model}", "--seed", "3"],
    ["train-fp", "--seed", "3"],
    ["compare", "--config", "nope.cfg", "typo_key=1", "--models", "fp={model}", "q={model}"],
    ["compare", "typo_key=1", "--models", "fp={model}", "q={model}"],
    ["compare", "--models", "fp={model}", "q={model}", "seed=7"],
    ["compare", "--models", "fp={model}", "q={model}", "split=train"],
    ["compare", "--seed", "7", "--models", "fp={model}", "q={model}"],
], ids=[
    "calibrate", "evaluate", "quantize-seed", "train-fp-seed", "compare-config",
    "compare-key-first", "compare-key-last", "compare-split-last", "compare-seed",
])
def test_retired_verbs_and_unread_arguments_exit_2(
    tiny_dataset, model_path, tmp_path, capsys, argv
):
    # a verb that is gone, --seed (seed=N sets the field), and a config or
    # key=value given to compare, which reads no config, are all refused
    out = tmp_path / "out"
    argv = [a.format(model=model_path) for a in argv]
    code = main(argv + ["--data", str(tiny_dataset.root), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[config]" in err
    if argv[-1] in ("seed=7", "split=train"):
        # a setting's name after --models is reported as a setting, not a model
        assert f"compare reads no setting such as {argv[-1]!r}" in err
    assert not out.exists()


def test_a_key_given_twice_on_the_command_line_is_refused(tmp_path, capsys):
    # the command line is parsed as a config file is
    out = tmp_path / "out"
    assert main(["gen-data", "--out", str(out), "n_val=1", "n_train=2", "n_train=3"]) == 2
    assert "<command line>:3: duplicate key 'n_train'" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("n_train=2\nn_train=3\n")
    assert main(["gen-data", "--out", str(out), "--config", str(cfg)]) == 2
    assert "dup.cfg:2: duplicate key 'n_train'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("token", ["n_train=2#9", "#n_val=5", "", " ", "n_train=2\nn_val=1"])
def test_a_token_that_is_not_one_key_value_line_is_refused(tmp_path, capsys, token):
    # read as a config file's line, these would lose a '#' comment or a whole token
    out = tmp_path / "out"
    assert main(["gen-data", "--out", str(out), "n_val=1", token]) == 2
    assert "is not one key=value line" in capsys.readouterr().err
    assert not out.exists()
