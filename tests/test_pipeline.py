"""LiDAR-PTQ and calibration-only passes on the trained tiny detector.

Jobs are kept small (T=4, a 10-point grid, batch 4 over 8 frames) so the
whole module runs in seconds; each check holds at any job size.
"""

import dataclasses

import pytest

from pillarptq.config import PipelineConfig
from pillarptq.detector import fp_exempt_layers, quantizable_layers
from pillarptq.modelio import save_model
from pillarptq.pipeline import PipelineError, run_baseline_calibration, run_lidar_ptq

SMALL = PipelineConfig(
    calib_frames=8, iters_T=4, search_T=10, batch=4, snapshot_every=2, score_frames=4
)


def _run(net, feats, grid_cfg, **changes):
    return run_lidar_ptq(net, feats, dataclasses.replace(SMALL, **changes), grid_cfg)


@pytest.fixture(scope="module")
def small_job(tiny_net, tiny_calib_feats, grid_cfg):
    return _run(tiny_net, tiny_calib_feats, grid_cfg)


def _saved_bytes(net, path):
    save_model(path, net)
    return path.read_bytes()


class TestLidarPTQ:
    def test_quantizable_layers_end_int8_and_never_worse(self, small_job, tiny_net):
        qnet, log = small_job
        names = quantizable_layers(tiny_net)
        assert sorted(log.layer_stats) == sorted(names)
        for name in names:
            layer = qnet.layer(name)
            assert layer.precision == "int8"
            theta = layer.theta.theta
            assert (theta >= 0.0).all() and (theta <= layer.w_quant.scale).all()
            s = log.layer_stats[name]
            assert s["post_mse"] <= s["pre_mse"]
            assert layer.w_quant.scale == s["w_scale"]
            assert layer.a_quant.scale == s["a_scale"]

    def test_exempt_layers_stay_float(self, small_job, tiny_net):
        qnet, _ = small_job
        exempt = fp_exempt_layers(tiny_net)
        for layer in list(qnet.layers) + list(qnet.heads.values()):
            if layer.name in exempt:
                assert layer.precision == "fp"
                assert layer.w_quant is None and layer.a_quant is None

    def test_input_network_is_not_modified(self, small_job, tiny_net):
        assert all(l.precision == "fp" for l in tiny_net.layers)

    def test_log_records_every_iteration_per_layer(self, small_job, tiny_net):
        _, log = small_job
        for name in quantizable_layers(tiny_net):
            its = [r["iteration"] for r in log.records if r["layer"] == name]
            assert its == list(range(SMALL.iters_T + 1))

    def test_zero_iterations_keep_the_initialization(self, tiny_net, tiny_calib_feats, grid_cfg):
        qnet, log = _run(tiny_net, tiny_calib_feats, grid_cfg, iters_T=0)
        for name, s in log.layer_stats.items():
            assert s["post_mse"] == s["pre_mse"]
            assert qnet.layer(name).precision == "int8"

    def test_without_offsets_theta_stays_unset(self, tiny_net, tiny_calib_feats, grid_cfg):
        qnet, log = _run(tiny_net, tiny_calib_feats, grid_cfg, optimize_theta=False)
        for name in quantizable_layers(tiny_net):
            assert qnet.layer(name).precision == "int8"
            assert qnet.layer(name).theta is None
            s = log.layer_stats[name]
            assert s["post_mse"] <= s["pre_mse"]

    def test_same_seed_saves_identical_bytes(
        self, small_job, tiny_net, tiny_calib_feats, grid_cfg, tmp_path
    ):
        qnet, log = small_job
        again, log_again = _run(tiny_net, tiny_calib_feats, grid_cfg)
        assert _saved_bytes(qnet, tmp_path / "a.ptqf") == _saved_bytes(again, tmp_path / "b.ptqf")
        assert log.to_csv() == log_again.to_csv()
        assert log.summary() == log_again.summary()

    def test_batch_larger_than_calibration_set_rejected(self, tiny_net, tiny_calib_feats, grid_cfg):
        with pytest.raises(PipelineError, match="smaller than batch"):
            _run(tiny_net, tiny_calib_feats[:3], grid_cfg)

    def test_rejects_already_quantized_input(self, small_job, tiny_calib_feats, grid_cfg):
        qnet, _ = small_job
        with pytest.raises(PipelineError, match="fully float"):
            run_lidar_ptq(qnet, tiny_calib_feats, SMALL, grid_cfg)


class TestBaselineCalibration:
    @pytest.mark.parametrize("method", ["maxmin", "entropy", "maxmin_grid"])
    def test_every_quantizable_layer_calibrated(self, tiny_net, tiny_calib_feats, method):
        qnet, rows = run_baseline_calibration(
            tiny_net, tiny_calib_feats, method, bits=8, search=SMALL.search
        )
        names = quantizable_layers(tiny_net)
        assert [r["layer"] for r in rows] == names
        for r in rows:
            layer = qnet.layer(r["layer"])
            assert layer.precision == "int8"
            assert layer.w_quant.scale == r["w_scale"]
            assert layer.a_quant.scale == r["a_scale"]
        for name in fp_exempt_layers(tiny_net) & {l.name for l in qnet.layers}:
            assert qnet.layer(name).precision == "fp"

    def test_float_width_returns_an_untouched_copy(self, tiny_net, tiny_calib_feats):
        qnet, rows = run_baseline_calibration(tiny_net, tiny_calib_feats, "maxmin", bits=32)
        assert rows == []
        assert qnet is not tiny_net
        assert all(l.precision == "fp" for l in qnet.layers)

    def test_empty_calibration_set_rejected(self, tiny_net):
        with pytest.raises(PipelineError, match="empty"):
            run_baseline_calibration(tiny_net, [], "maxmin")
