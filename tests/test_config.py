"""Config parsing and validation: key=value text, type coercion, unknown-key
rejection, and the pinned defaults the rest of the suite relies on."""

import pytest

from pillarptq.config import (
    ConfigError,
    GenConfig,
    PipelineConfig,
    QUANT_METHODS,
    TrainConfig,
    build_config,
    load_config,
    parse_kv_file,
    parse_kv_text,
)


class TestKvParsing:
    def test_basic_pairs(self):
        assert parse_kv_text("a=1\nb = two\n") == {"a": "1", "b": "two"}

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\na=1  # trailing note\n   \nb=2\n"
        assert parse_kv_text(text) == {"a": "1", "b": "2"}

    def test_value_may_contain_equals(self):
        assert parse_kv_text("expr=a=b") == {"expr": "a=b"}

    def test_missing_equals_reports_location(self):
        with pytest.raises(ConfigError, match="run.cfg:2"):
            parse_kv_text("a=1\nnot a pair\n", where="run.cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv_text("=5")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_kv_text("a=1\na=2")

    def test_file_round_trip(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("bits_w=4\nmethod=entropy\n")
        assert parse_kv_file(p) == {"bits_w": "4", "method": "entropy"}

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_kv_file(tmp_path / "absent.cfg")


class TestBuildConfig:
    def test_coercion_int_float_bool_str(self):
        cfg = build_config(
            PipelineConfig,
            {"bits_w": "4", "lr_scale": "1e-4", "optimize_theta": "no", "method": "maxmin"},
        )
        assert cfg.bits_w == 4
        assert cfg.lr_scale == 1e-4
        assert cfg.optimize_theta is False
        assert cfg.method == "maxmin"

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("1", True), ("YES", True),
        ("false", False), ("0", False), ("No", False),
    ])
    def test_bool_spellings(self, raw, expected):
        assert build_config(PipelineConfig, {"optimize_theta": raw}).optimize_theta is expected

    def test_bad_bool_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            build_config(PipelineConfig, {"optimize_theta": "maybe"})

    def test_bad_int_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            build_config(PipelineConfig, {"bits_w": "eight"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'bitz'"):
            build_config(PipelineConfig, {"bitz": "8"})

    def test_missing_keys_keep_defaults(self):
        cfg = build_config(PipelineConfig, {"seed": "3"})
        assert cfg.seed == 3
        assert cfg.bits_w == PipelineConfig().bits_w

    def test_load_config_overrides_beat_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("iters_T=50\nbatch=2\n")
        cfg = load_config(PipelineConfig, p, overrides={"iters_T": "9"})
        assert cfg.iters_T == 9
        assert cfg.batch == 2

    def test_load_config_without_file(self):
        cfg = load_config(TrainConfig, overrides={"epochs": "3"})
        assert cfg.epochs == 3


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert (cfg.bits_w, cfg.bits_a) == (8, 8)
        assert cfg.calib_frames == 256
        assert cfg.iters_T == 200
        assert cfg.lr_scale == 5e-5
        assert cfg.lr_theta == 5e-3
        assert cfg.batch == 4
        assert cfg.method == "lidar-ptq"
        assert (cfg.alpha_reg, cfg.lambda1, cfg.lambda2) == (0.25, 1.0, 1.0)
        assert (cfg.search_T, cfg.search_alpha, cfg.search_beta) == (100, 0.01, 1.2)
        assert cfg.optimize_theta is True

    def test_method_catalog(self):
        assert QUANT_METHODS == ("lidar-ptq", "maxmin", "entropy", "maxmin_grid")
        for m in QUANT_METHODS:
            assert PipelineConfig(method=m).method == m

    @pytest.mark.parametrize("kwargs,pattern", [
        (dict(calib_frames=2, batch=4), "calib_frames"),
        (dict(iters_T=-1), "iters_T"),
        (dict(batch=0, calib_frames=0), "batch"),
        (dict(method="minmax"), "unknown method"),
        (dict(bits_w=1), "bit-widths"),
        (dict(bits_a=0), "bit-widths"),
        (dict(snapshot_every=0), "snapshot_every"),
        (dict(score_frames=0), "snapshot_every"),
    ])
    def test_validation(self, kwargs, pattern):
        with pytest.raises(ConfigError, match=pattern):
            PipelineConfig(**kwargs)

    def test_derived_loss_weights(self):
        cfg = PipelineConfig(alpha_reg=0.5, lambda1=2.0, lambda2=0.25)
        lw = cfg.loss_weights
        assert (lw.alpha_reg, lw.lambda1, lw.lambda2) == (0.5, 2.0, 0.25)

    def test_derived_search_config(self):
        sc = PipelineConfig(search_T=7, search_alpha=0.2, search_beta=0.9).search
        assert (sc.T, sc.alpha, sc.beta) == (7, 0.2, 0.9)


class TestTrainAndGenConfig:
    def test_train_defaults(self):
        cfg = TrainConfig()
        assert (cfg.epochs, cfg.lr, cfg.batch, cfg.ap_floor) == (6, 2e-3, 8, 0.6)

    @pytest.mark.parametrize("kwargs", [dict(epochs=0), dict(batch=0), dict(ap_floor=1.5)])
    def test_train_validation(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_gen_needs_frames(self):
        with pytest.raises(ConfigError):
            GenConfig(n_train=0)

    def test_gen_scene_spec_mapping(self):
        spec = GenConfig(falloff=2.0, base_points=500, n_objects_max=5).scene_spec()
        assert spec.falloff == 2.0
        assert spec.base_points == 500
        assert spec.n_objects_max == 5
        # fields GenConfig does not expose stay at scene defaults
        from pillarptq.scenegen import SceneSpec

        assert spec.cluster_points == SceneSpec().cluster_points
