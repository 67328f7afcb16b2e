"""Run-configuration parsing, defaults, validation, round-trip stability."""

from pathlib import Path

import pytest

from evhybrid.config import RunConfig, config_hash, dump_config, load_config, save_config
from evhybrid.errors import ConfigError

DEFAULT_DUMP = """\
[architecture]
snn_layers = 64c3p1s2, 128c3p1s2, 256c3p1s2, 256c3p1s1
bridge_kernel = 5
bridge_heads = 1
ann_layers = 256c3p1s1, 256c3p1s2, 256c3p1s1, 256c3p1s2
lstm_positions = 2, 4

[simulation]
sensor_width = 240
sensor_height = 304
T = 10
window_ms = 50

[quantization]
bits = 8

[training]
lr = 0.002
steps = 2000
batch = 2
seed = 0
clip_norm = 2.0
scenes = 48
eval_scenes = 10
scene_duration_ms = 300
shape_size_min = 7.0
shape_size_max = 10.0
speed_min = 150.0
speed_max = 250.0
contrast = 0.06
noise_rate = 0.0

[io]
out_dir = runs

"""


class TestDefaults:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        cfg = load_config(path)
        ref = RunConfig().validate()
        assert dump_config(cfg) == dump_config(ref)

    def test_default_architecture(self):
        cfg = RunConfig().validate()
        assert cfg.architecture.snn_layers == ["64c3p1s2", "128c3p1s2", "256c3p1s2", "256c3p1s1"]
        assert cfg.architecture.lstm_positions == [2, 4]

    def test_default_dump_is_pinned(self):
        # every key and default, in order: a new key or a changed default
        # must show up as an edit of this text
        assert dump_config(RunConfig()) == DEFAULT_DUMP
        assert sum(" = " in line for line in DEFAULT_DUMP.splitlines()) == 25


class TestRoundTrip:
    def test_write_read_write_identical(self, tmp_path):
        cfg = RunConfig()
        cfg.simulation.T = 10
        cfg.training.lr = 0.0035
        cfg.architecture.lstm_positions = []
        cfg.validate()
        p1, p2 = tmp_path / "a.ini", tmp_path / "b.ini"
        save_config(cfg, p1)
        again = load_config(p1)
        save_config(again, p2)
        assert p1.read_text() == p2.read_text()
        assert config_hash(cfg) == config_hash(again)

    def test_t_key_round_trips(self, tmp_path):
        path = tmp_path / "t.ini"
        path.write_text("[simulation]\nT = 5\nwindow_ms = 50\n")
        cfg = load_config(path)
        assert cfg.simulation.T == 5
        assert "T = 5" in dump_config(cfg)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.ini"))


class TestShippedConfigs:
    def test_configs_found(self):
        assert {p.name for p in CONFIGS} >= {"ablation.ini", "gen1.ini", "toy.ini"}

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
    def test_loads_and_round_trips(self, path, tmp_path):
        cfg = load_config(path)  # load_config validates
        copy = tmp_path / path.name
        save_config(cfg, copy)
        assert dump_config(load_config(copy)) == dump_config(cfg) == copy.read_text()

    def test_ablation_config_is_the_sweep_config(self):
        # the values of the retired ablation sweep script, at seed 0
        cfg = RunConfig()
        cfg.simulation.sensor_width = 32
        cfg.simulation.sensor_height = 32
        cfg.architecture.snn_layers = ["8c3p1s2", "16c3p1s2"]
        cfg.architecture.ann_layers = ["24c3p1s1"]
        cfg.architecture.lstm_positions = []
        cfg.architecture.bridge_kernel = 3
        cfg.training.seed = 0
        cfg.training.steps = 450
        cfg.training.batch = 3
        cfg.training.lr = 2.5e-3
        cfg.training.scenes = 48
        cfg.training.eval_scenes = 15
        cfg.training.scene_duration_ms = 100
        cfg.training.speed_min = 170.0
        cfg.training.speed_max = 260.0
        assert dump_config(load_config(CONFIG_DIR / "ablation.ini")) == dump_config(cfg.validate())


class TestValidation:
    @pytest.mark.parametrize(
        "section,line",
        [("training", "learning_rate = 1"),
         # keys of earlier releases: a config written for them fails by name
         ("architecture", "norm = batch"), ("architecture", "head = true"),
         ("architecture", "bridge_scale_scores = false"), ("simulation", "bin_ms = 5")],
        ids=lambda v: v.split(" = ")[0],
    )
    def test_unknown_key_named(self, tmp_path, section, line):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{line}\n")
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}' in \\[{section}\\]"):
            load_config(path)

    def test_unknown_section_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[optimizer]\nlr = 1\n")
        with pytest.raises(ConfigError, match="optimizer"):
            load_config(path)

    def test_malformed_layer_string_positioned(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[architecture]\nsnn_layers = 64x3\n")
        with pytest.raises(ConfigError, match="position"):
            load_config(path)

    def test_window_need_not_be_a_multiple_of_t(self, tmp_path):
        path = tmp_path / "t7.ini"
        path.write_text("[simulation]\nT = 7\nwindow_ms = 50\n")
        assert load_config(path).simulation.T == 7

    def test_bits_restricted(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[quantization]\nbits = 5\n")
        with pytest.raises(ConfigError, match="bits"):
            load_config(path)

    def test_heads_must_divide_steps(self):
        cfg = RunConfig()
        cfg.architecture.bridge_heads = 3
        with pytest.raises(ConfigError, match="bridge_heads"):
            cfg.validate()

    def test_lstm_position_bounds(self):
        cfg = RunConfig()
        cfg.architecture.lstm_positions = [9]
        with pytest.raises(ConfigError, match="lstm"):
            cfg.validate()

    @pytest.mark.parametrize(
        "section,key",
        [("simulation", k) for k in ("T", "window_ms", "sensor_width", "sensor_height")]
        + [("training", k) for k in ("scenes", "eval_scenes", "steps", "batch")],
    )
    def test_size_must_be_positive(self, tmp_path, section, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = 0\n")
        with pytest.raises(ConfigError, match=f"{key} must be at least 1"):
            load_config(path)

    def test_negative_binning_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[simulation]\nT = -10\nwindow_ms = 50\n")
        with pytest.raises(ConfigError, match="T must be at least 1"):
            load_config(path)

    @pytest.mark.parametrize("key", ["snn_layers", "ann_layers"])
    def test_stride_checked_at_load(self, tmp_path, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[architecture]\n{key} = 64c3p1s3\nlstm_positions = 1\n")
        with pytest.raises(ConfigError, match="stride must be 1 or 2"):
            load_config(path)

    @pytest.mark.parametrize("kernel", [0, -1, 4])
    def test_bridge_kernel_odd_and_positive(self, kernel):
        cfg = RunConfig()
        cfg.architecture.bridge_kernel = kernel
        with pytest.raises(ConfigError, match="bridge_kernel"):
            cfg.validate()

    def test_negative_lr_rejected(self):
        cfg = RunConfig()
        cfg.training.lr = -0.1
        with pytest.raises(ConfigError, match="lr"):
            cfg.validate()

    @pytest.mark.parametrize("raw", ["nan", "inf"])
    @pytest.mark.parametrize(
        "key",
        ["lr", "clip_norm", "shape_size_min", "shape_size_max", "speed_min", "speed_max", "contrast", "noise_rate"],
    )
    def test_float_keys_must_be_finite(self, tmp_path, key, raw):
        path = tmp_path / "bad.ini"
        path.write_text(f"[training]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            load_config(path)

    @pytest.mark.parametrize("key", ["clip_norm", "noise_rate"])
    def test_rate_keys_non_negative(self, key):
        cfg = RunConfig()
        setattr(cfg.training, key, -1.0)
        with pytest.raises(ConfigError, match=f"{key} must be at least 0"):
            cfg.validate()

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_contrast_positive(self, value):
        cfg = RunConfig()
        cfg.training.contrast = value
        with pytest.raises(ConfigError, match="contrast must be above 0"):
            cfg.validate()

    @pytest.mark.parametrize("lo,hi", [(12.0, 10.0), (0.0, 10.0), (-1.0, 10.0)])
    def test_shape_size_range(self, lo, hi):
        cfg = RunConfig()
        cfg.training.shape_size_min, cfg.training.shape_size_max = lo, hi
        with pytest.raises(ConfigError, match="shape_size_min <= shape_size_max"):
            cfg.validate()

    @pytest.mark.parametrize("lo,hi", [(300.0, 250.0), (-1.0, 250.0)])
    def test_speed_range(self, lo, hi):
        cfg = RunConfig()
        cfg.training.speed_min, cfg.training.speed_max = lo, hi
        with pytest.raises(ConfigError, match="speed_min <= speed_max"):
            cfg.validate()

    def test_equal_range_bounds_load(self):
        cfg = RunConfig()
        cfg.training.shape_size_min = cfg.training.shape_size_max = 8.0
        cfg.training.speed_min = cfg.training.speed_max = 0.0
        cfg.training.scene_duration_ms = cfg.simulation.window_ms
        cfg.validate()

    @pytest.mark.parametrize("ms", [20, 0])
    def test_scene_holds_a_window(self, ms):
        cfg = RunConfig()
        cfg.training.scene_duration_ms = ms
        with pytest.raises(ConfigError, match="scene_duration_ms"):
            cfg.validate()


class TestParsing:
    def test_values_take_their_annotated_types(self, tmp_path):
        path = tmp_path / "typed.ini"
        path.write_text(
            "[architecture]\nlstm_positions = 1, 2\nsnn_layers = 8c3p1s2 , 16c3p1s1\n"
            "[training]\nlr = 1\nsteps = 3\n[io]\nout_dir = out\n"
        )
        cfg = load_config(path)
        assert cfg.architecture.lstm_positions == [1, 2]
        assert cfg.architecture.snn_layers == ["8c3p1s2", "16c3p1s1"]
        assert type(cfg.training.lr) is float and cfg.training.lr == 1.0
        assert type(cfg.training.steps) is int and cfg.training.steps == 3
        assert cfg.io.out_dir == "out"

    @pytest.mark.parametrize(
        "section,key,raw",
        [("architecture", "lstm_positions", "1, x"), ("training", "steps", "2.5"), ("training", "lr", "fast")],
    )
    def test_unparsable_value_named(self, tmp_path, section, key, raw):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"{key}: cannot parse"):
            load_config(path)
