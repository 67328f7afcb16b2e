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
