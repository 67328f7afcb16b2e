"""Run-configuration parsing, defaults, validation, round-trip stability."""

from pathlib import Path

import pytest

from evhybrid.config import RunConfig, config_hash, dump_config, load_config, save_config
from evhybrid.errors import ConfigError


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
        assert cfg.simulation.bin_ms * cfg.simulation.T == cfg.simulation.window_ms
        assert cfg.architecture.bridge_position == 5  # right after the spiking stack


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
        path.write_text("[simulation]\nT = 5\nbin_ms = 10\nwindow_ms = 50\n")
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
    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[training]\nlearning_rate = 1\n")
        with pytest.raises(ConfigError, match="learning_rate"):
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

    def test_window_consistency_enforced(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[simulation]\nbin_ms = 5\nT = 10\nwindow_ms = 60\n")
        with pytest.raises(ConfigError, match="window_ms"):
            load_config(path)

    def test_bits_restricted(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[quantization]\nbits = 5\n")
        with pytest.raises(ConfigError, match="bits"):
            load_config(path)

    def test_bridge_position_consistency(self):
        cfg = RunConfig()
        cfg.architecture.bridge_position = 3
        with pytest.raises(ConfigError, match="bridge_position"):
            cfg.validate()

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
        [("simulation", k) for k in ("T", "bin_ms", "window_ms", "sensor_width", "sensor_height")]
        + [("training", k) for k in ("scenes", "eval_scenes", "steps", "batch")],
    )
    def test_size_must_be_positive(self, tmp_path, section, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = 0\n")
        with pytest.raises(ConfigError, match=f"{key} must be at least 1"):
            load_config(path)

    def test_negative_binning_rejected(self, tmp_path):
        # bin_ms * T still equals window_ms
        path = tmp_path / "bad.ini"
        path.write_text("[simulation]\nbin_ms = -5\nT = -10\nwindow_ms = 50\n")
        with pytest.raises(ConfigError, match="T must be at least 1"):
            load_config(path)

    @pytest.mark.parametrize("key", ["snn_layers", "ann_layers"])
    def test_stride_checked_at_load(self, tmp_path, key):
        path = tmp_path / "bad.ini"
        path.write_text(f"[architecture]\n{key} = 64c3p1s3\nlstm_positions = 1\n")
        with pytest.raises(ConfigError, match="stride must be 1 or 2"):
            load_config(path)

    def test_norm_checked_without_dense_layers(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[architecture]\nann_layers =\nlstm_positions =\nnorm = group\n")
        with pytest.raises(ConfigError, match="norm must be one of"):
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


class TestParsing:
    def test_values_take_their_annotated_types(self, tmp_path):
        path = tmp_path / "typed.ini"
        path.write_text(
            "[architecture]\nlstm_positions = 1, 2\nsnn_layers = 8c3p1s2 , 16c3p1s1\nhead = off\n"
            "[training]\nlr = 1\nsteps = 3\n[io]\nout_dir = out\n"
        )
        cfg = load_config(path)
        assert cfg.architecture.lstm_positions == [1, 2]
        assert cfg.architecture.snn_layers == ["8c3p1s2", "16c3p1s1"]
        assert cfg.architecture.head is False
        assert type(cfg.training.lr) is float and cfg.training.lr == 1.0
        assert type(cfg.training.steps) is int and cfg.training.steps == 3
        assert cfg.io.out_dir == "out"

    @pytest.mark.parametrize(
        "section,key,raw",
        [("architecture", "lstm_positions", "1, x"), ("architecture", "head", "maybe"),
         ("training", "steps", "2.5"), ("training", "lr", "fast")],
    )
    def test_unparsable_value_named(self, tmp_path, section, key, raw):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {raw}\n")
        with pytest.raises(ConfigError, match=f"{key}: cannot parse"):
            load_config(path)
