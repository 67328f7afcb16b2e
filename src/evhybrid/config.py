"""Run configuration: one flat INI file with sections
[architecture] [simulation] [quantization] [training] [io].

Every key has a documented default (an empty file is a valid config); unknown
sections or keys are rejected by name. ``save_config`` emits a canonical form
whose write -> read -> write round trip is byte-identical.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

from .bridge import check_bridge_geometry
from .errors import ConfigError
from .snn import ConvSpec

QUANT_BITS = (2, 4, 6, 8)  # weight bit widths of the fixed-point path


@dataclass
class ArchitectureConfig:
    snn_layers: list[str] = field(
        default_factory=lambda: ["64c3p1s2", "128c3p1s2", "256c3p1s2", "256c3p1s1"]
    )
    bridge_kernel: int = 5
    bridge_heads: int = 1
    ann_layers: list[str] = field(
        default_factory=lambda: ["256c3p1s1", "256c3p1s2", "256c3p1s1", "256c3p1s2"]
    )
    lstm_positions: list[int] = field(default_factory=lambda: [2, 4])


@dataclass
class SimulationConfig:
    sensor_width: int = 240
    sensor_height: int = 304
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
        arch, sim, t = self.architecture, self.simulation, self.training
        sizes = {k: getattr(sim, k) for k in ("T", "window_ms", "sensor_width", "sensor_height")}
        sizes.update(steps=t.steps, batch=t.batch, scenes=t.scenes, eval_scenes=t.eval_scenes)
        for key, v in sizes.items():
            if v < 1:
                raise ConfigError(f"{key} must be at least 1, got {v}")
        h, w = sim.sensor_height, sim.sensor_width
        for s in arch.snn_layers + arch.ann_layers:
            h, w = ConvSpec.from_string(s).out_size(h, w)
            if h < 1 or w < 1:
                raise ConfigError(f"layer {s!r} leaves no output at the {sim.sensor_height}x{sim.sensor_width} sensor")
        if not arch.snn_layers:
            raise ConfigError("need at least one spiking layer")
        check_bridge_geometry(arch.bridge_kernel, arch.bridge_heads, sim.T)
        for p in arch.lstm_positions:
            if p < 1 or p > len(arch.ann_layers):
                raise ConfigError(f"lstm position {p} outside 1..{len(arch.ann_layers)}")
        if self.quantization.bits not in QUANT_BITS:
            raise ConfigError(f"bits must be one of {QUANT_BITS}, got {self.quantization.bits}")
        for section, kind in _SECTIONS.items():
            for key, hint in typing.get_type_hints(kind).items():
                v = getattr(getattr(self, section), key)
                if hint is float and not math.isfinite(v):
                    raise ConfigError(f"{key} must be finite, got {v}")
        for key in ("lr", "clip_norm", "noise_rate", "seed"):
            if getattr(t, key) < 0:
                raise ConfigError(f"{key} must be at least 0, got {getattr(t, key)}")
        if t.contrast <= 0:
            raise ConfigError(f"contrast must be above 0, got {t.contrast}")
        if not 0 < t.shape_size_min <= t.shape_size_max:
            raise ConfigError(
                f"need 0 < shape_size_min <= shape_size_max, got {t.shape_size_min} and {t.shape_size_max}"
            )
        if not 0 <= t.speed_min <= t.speed_max:
            raise ConfigError(f"need 0 <= speed_min <= speed_max, got {t.speed_min} and {t.speed_max}")
        if t.scene_duration_ms < sim.window_ms:
            raise ConfigError(
                f"scene_duration_ms ({t.scene_duration_ms}) must be at least window_ms ({sim.window_ms})"
            )
        return self


_SECTIONS = {
    "architecture": ArchitectureConfig,
    "simulation": SimulationConfig,
    "quantization": QuantizationConfig,
    "training": TrainingConfig,
    "io": IOConfig,
}


def _parse_value(section: str, key: str, raw: str, kind):
    """``raw`` as the annotated type ``kind``: a list from comma-separated items
    of its item type, else the type's constructor."""
    raw = raw.strip()
    try:
        if typing.get_origin(kind) is list:
            (item,) = typing.get_args(kind)
            return [item(v.strip()) for v in raw.split(",") if v.strip()]
        return kind(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _format_value(v) -> str:
    if isinstance(v, list):
        return ", ".join(str(x) for x in v)
    return str(v)


def load_config(path) -> RunConfig:
    """Read an INI config; missing keys take defaults, unknown keys error."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keep key case (e.g. T)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from None
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
        kinds = typing.get_type_hints(_SECTIONS[section])
        for key, raw in parser.items(section):
            if key not in kinds:
                raise ConfigError(f"{origin}: unknown key {key!r} in [{section}]")
            setattr(target, key, _parse_value(section, key, raw, kinds[key]))
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
    and the time binning (T, window_ms). The sensor size and the
    training knobs are left out: every layer is convolutional, so weights run
    at any sensor size."""
    sim = cfg.simulation
    text = _dump_section(cfg.architecture) + f"T = {sim.T}\nwindow_ms = {sim.window_ms}\n"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
