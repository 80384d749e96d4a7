"""The `calibrate` and `quantize` verbs end to end on the tiny dataset."""

import json

import pytest

from pillarptq.cli import main
from pillarptq.detector import quantizable_layers
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
    assert _run("calibrate", tiny_dataset, model_path, tmp_path, f"method={method}") == 0
    assert "(label reads: 0)" in capsys.readouterr().out
    rows = (tmp_path / "calibration_report.txt").read_text().splitlines()
    assert [r.split()[0] for r in rows] == [f"layer={n}" for n in quantizable_layers(tiny_net)]
    for r in rows:
        fields = dict(kv.split("=", 1) for kv in r.split())
        assert fields["method"] == method
        assert float(fields["post_mse"]) >= 0.0


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


@pytest.mark.parametrize(
    "key", ["granularity=layer", "search_sweep=linear", "freeze_w_scale=false"]
)
def test_removed_config_keys_are_unknown(tiny_dataset, model_path, tmp_path, capsys, key):
    assert _run("quantize", tiny_dataset, model_path, tmp_path, key) == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("verb,method", [
    ("calibrate", "maxmin"),
    ("calibrate", "maxmin_grid"),
    ("quantize", "maxmin"),
    ("quantize", "entropy"),
])
def test_calibration_arms_reject_mixed_bit_widths(
    tiny_dataset, model_path, tmp_path, capsys, verb, method
):
    code = _run(verb, tiny_dataset, model_path, tmp_path, f"method={method}", "bits_w=4")
    assert code == 2
    assert "error[config]" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_calibrate_rejects_the_float_width(tiny_dataset, model_path, tmp_path, capsys):
    # calibrate and the calibration-only quantize arms share one rule
    for verb, method in [("calibrate", "maxmin"), ("quantize", "maxmin"), ("quantize", "entropy")]:
        out = tmp_path / f"{verb}-{method}"
        code = _run(
            verb, tiny_dataset, model_path, out, f"method={method}", "bits_w=32", "bits_a=32"
        )
        assert code == 2, (verb, method)
        err = capsys.readouterr().err
        assert f"error[config]: method {method} needs an integer bit-width" in err
        assert not out.exists()


def test_maxmin_grid_report_shows_the_quantized_scales(
    tiny_dataset, tiny_net, model_path, tmp_path
):
    report, quantized = tmp_path / "calibrate", tmp_path / "quantize"
    assert _run("calibrate", tiny_dataset, model_path, report, "method=maxmin_grid") == 0
    assert _run("quantize", tiny_dataset, model_path, quantized, "method=maxmin_grid") == 0
    qnet = load_model(quantized / "quantized.ptqf")
    rows = (report / "calibration_report.txt").read_text().splitlines()
    assert len(rows) == len(quantizable_layers(tiny_net))
    for r in rows:
        fields = dict(kv.split("=", 1) for kv in r.split())
        layer = qnet.layer(fields["layer"])
        assert fields["w_scale"] == f"{layer.w_quant.scale:.10g}"
        assert fields["a_scale"] == f"{layer.a_quant.scale:.10g}"


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
    argv = ["evaluate", "--data", str(root), "--model", str(model_path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    assert "after the last" in capsys.readouterr().err
