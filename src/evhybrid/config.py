"""Run configuration: one flat INI file with sections
[architecture] [simulation] [quantization] [training] [io].

Every key has a documented default (an empty file is a valid config); unknown
sections or keys are rejected by name. ``save_config`` emits a canonical form
whose write -> read -> write round trip is byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .snn import parse_layer_string


@dataclass
class ArchitectureConfig:
    snn_layers: list[str] = field(
        default_factory=lambda: ["64c3p1s2", "128c3p1s2", "256c3p1s2", "256c3p1s1"]
    )
    bridge_position: int = 0  # 0 = auto: right after the spiking stack
    bridge_kernel: int = 5
    bridge_heads: int = 1
    bridge_scale_scores: bool = False
    ann_layers: list[str] = field(
        default_factory=lambda: ["256c3p1s1", "256c3p1s2", "256c3p1s1", "256c3p1s2"]
    )
    lstm_positions: list[int] = field(default_factory=lambda: [2, 4])
    norm: str = "batch"
    head: bool = True


@dataclass
class SimulationConfig:
    sensor_width: int = 240
    sensor_height: int = 304
    bin_ms: int = 5
    T: int = 10
    window_ms: int = 50


@dataclass
class QuantizationConfig:
    bits: int = 8


@dataclass
class TrainingConfig:
    lr: float = 0.002
    steps: int = 2000
    batch: int = 2
    seed: int = 0
    clip_norm: float = 2.0  # global gradient-norm clip; 0 disables
    # synthetic-scene knobs for the toy task
    scenes: int = 48
    eval_scenes: int = 10
    scene_duration_ms: int = 300
    shape_size_min: float = 7.0
    shape_size_max: float = 10.0
    speed_min: float = 150.0
    speed_max: float = 250.0
    contrast: float = 0.06
    noise_rate: float = 0.0


@dataclass
class IOConfig:
    out_dir: str = "runs"


@dataclass
class RunConfig:
    architecture: ArchitectureConfig = field(default_factory=ArchitectureConfig)
    simulation: SimulationConfig = field(default_factory=SimulationConfig)
    quantization: QuantizationConfig = field(default_factory=QuantizationConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    io: IOConfig = field(default_factory=IOConfig)
    deterministic: bool = False  # runtime flag, not serialized

    def validate(self) -> "RunConfig":
        arch, sim = self.architecture, self.simulation
        for s in arch.snn_layers + arch.ann_layers:
            parse_layer_string(s)
        if not arch.snn_layers:
            raise ConfigError("need at least one spiking layer")
        if arch.bridge_kernel < 1 or arch.bridge_kernel % 2 == 0:
            raise ConfigError(f"bridge_kernel must be odd and positive, got {arch.bridge_kernel}")
        if arch.bridge_heads < 1 or sim.T % arch.bridge_heads != 0:
            raise ConfigError(f"bridge_heads ({arch.bridge_heads}) must divide T ({sim.T})")
        auto_pos = len(arch.snn_layers) + 1
        if arch.bridge_position == 0:
            arch.bridge_position = auto_pos
        elif arch.bridge_position != auto_pos:
            raise ConfigError(
                f"bridge_position {arch.bridge_position} inconsistent with "
                f"{len(arch.snn_layers)} spiking layers (expected {auto_pos})"
            )
        for p in arch.lstm_positions:
            if p < 1 or p > len(arch.ann_layers):
                raise ConfigError(f"lstm position {p} outside 1..{len(arch.ann_layers)}")
        if arch.norm not in ("batch", "layer"):
            raise ConfigError(f"norm must be 'batch' or 'layer', got {arch.norm!r}")
        if sim.bin_ms * sim.T != sim.window_ms:
            raise ConfigError(
                f"window_ms ({sim.window_ms}) must equal bin_ms*T ({sim.bin_ms}*{sim.T})"
            )
        if self.quantization.bits not in (2, 4, 6, 8):
            raise ConfigError(f"bits must be one of 2, 4, 6, 8, got {self.quantization.bits}")
        t = self.training
        if t.steps < 1 or t.batch < 1 or t.lr < 0:
            raise ConfigError("training needs steps >= 1, batch >= 1, lr >= 0")
        return self


_SECTIONS = {
    "architecture": ArchitectureConfig,
    "simulation": SimulationConfig,
    "quantization": QuantizationConfig,
    "training": TrainingConfig,
    "io": IOConfig,
}


def _parse_value(section: str, key: str, raw: str, kind):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind == list[str]:
            return [v.strip() for v in raw.split(",") if v.strip()]
        if kind == list[int]:
            return [int(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None
    raise ConfigError(f"[{section}] {key}: unsupported type {kind}")


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, list):
        return ", ".join(str(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def load_config(path) -> RunConfig:
    """Read an INI config; missing keys take defaults, unknown keys error."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (e.g. T)
    text = Path(path).read_text(encoding="utf-8")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config(parser, origin=str(path))


def parse_config(parser: configparser.ConfigParser, origin: str = "<config>") -> RunConfig:
    cfg = RunConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"{origin}: unknown section [{section}]")
        target = getattr(cfg, section)
        known = {f.name: f.type for f in fields(_SECTIONS[section])}
        # dataclass field types come back as strings under future annotations;
        # resolve from the default instances instead
        defaults = _SECTIONS[section]()
        for key, raw in parser.items(section):
            if key not in known:
                raise ConfigError(f"{origin}: unknown key {key!r} in [{section}]")
            default = getattr(defaults, key)
            if isinstance(default, bool):
                kind = bool
            elif isinstance(default, int):
                kind = int
            elif isinstance(default, float):
                kind = float
            elif isinstance(default, str):
                kind = str
            elif isinstance(default, list):
                kind = list[int] if key == "lstm_positions" else list[str]
            else:
                raise ConfigError(f"{origin}: unsupported key {key!r}")
            setattr(target, key, _parse_value(section, key, raw, kind))
    return cfg.validate()


def _dump_section(inst) -> str:
    return "".join(f"{f.name} = {_format_value(getattr(inst, f.name))}\n" for f in fields(inst))


def dump_config(cfg: RunConfig) -> str:
    """Canonical serialization: all keys, declaration order."""
    return "".join(f"[{section}]\n{_dump_section(getattr(cfg, section))}\n" for section in _SECTIONS)


def save_config(cfg: RunConfig, path) -> None:
    Path(path).write_text(dump_config(cfg), encoding="utf-8")


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode("utf-8")).hexdigest()


def architecture_hash(cfg: RunConfig) -> str:
    """Hash of what trained weights are built for: the [architecture] section
    and the time binning (T, bin_ms, window_ms). The sensor size and the
    training knobs are left out: every layer is convolutional, so weights run
    at any sensor size."""
    sim = cfg.simulation
    text = _dump_section(cfg.architecture) + f"T = {sim.T}\nbin_ms = {sim.bin_ms}\nwindow_ms = {sim.window_ms}\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
