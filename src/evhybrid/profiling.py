"""Compute-cost accounting: dense multiply-accumulates (MACs), event-driven
accumulates (ACs), parameter counts, sparsity, and a linear energy model.

AC accounting convention: each nonzero input cell of a spiking conv layer is
charged one accumulate per kernel tap it feeds (respecting stride and padding
boundaries) per output channel of its group; bins holding more than one event
still count once per tap. The membrane-update add is not charged separately.

The energy constants are a least-squares fit of E = MACs*e_mac + ACs*e_ac to
published complexity/energy datapoints for event-based detectors (three
dense ANN models and two spiking models); see ``fit_energy_constants``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import RunConfig
from .snn import parse_layer_string

# (name, MACs, ACs, energy in joules)
ENERGY_DATAPOINTS = [
    ("densenet121_ssd", 0.0, 2.3e9, 0.9e-3),
    ("vgg11_ssd", 0.0, 11.1e9, 4.2e-3),
    ("inception_ssd", 11.4e9, 0.0, 19.3e-3),
    ("events_retinanet", 3.2e9, 0.0, 5.4e-3),
    ("rvt_b_wo_lstm", 2.3e9, 0.0, 3.9e-3),
]
HYBRID_REFERENCE_POINT = ("hybrid_backbone", 1.6e9, 1.0e9, 3.1e-3)


@dataclass
class EnergyModel:
    """Joules per operation; defaults are the rounded datapoint fit."""

    e_mac: float = 1.69e-12
    e_ac: float = 0.38e-12

    def __post_init__(self):
        if self.e_mac <= 0 or self.e_ac <= 0:
            raise ValueError("energy constants must be positive")


def fit_energy_constants() -> tuple[float, float]:
    """Least-squares (e_mac, e_ac) from the reference datapoints."""
    a = np.array([[m, c] for _, m, c, _ in ENERGY_DATAPOINTS])
    b = np.array([e for *_, e in ENERGY_DATAPOINTS])
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(coef[0]), float(coef[1])


@dataclass
class LayerCount:
    macs: int = 0
    acs: int = 0
    input_spikes: int = 0
    params: int = 0


@dataclass
class OpCounters:
    per_layer: dict[str, LayerCount] = field(default_factory=dict)

    def layer(self, name: str) -> LayerCount:
        return self.per_layer.setdefault(name, LayerCount())

    @property
    def total_macs(self) -> int:
        return sum(lc.macs for lc in self.per_layer.values())

    @property
    def total_acs(self) -> int:
        return sum(lc.acs for lc in self.per_layer.values())

    @property
    def total_params(self) -> int:
        return sum(lc.params for lc in self.per_layer.values())

    def merge(self, other: "OpCounters") -> "OpCounters":
        out = OpCounters()
        for src in (self, other):
            for name, lc in src.per_layer.items():
                dst = out.layer(name)
                for f in fields(LayerCount):
                    setattr(dst, f.name, getattr(dst, f.name) + getattr(lc, f.name))
        return out


def _conv_out(h: int, w: int, k: int, p: int, s: int) -> tuple[int, int]:
    return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1


def count_dense_macs(
    cfg: RunConfig, input_hw: tuple[int, int] | None = None, n_steps: int | None = None
) -> OpCounters:
    """Analytic dense-execution MACs (and parameter counts) per layer.

    Spiking convs are charged once per timestep; bridge and dense layers once
    per detection window. Deformable sampling charges one kernel MAC plus
    four interpolation multiplies per tap; attention matmuls and 1x1
    combinations are counted analytically.
    """
    arch, sim = cfg.architecture, cfg.simulation
    h, w = input_hw or (sim.sensor_height, sim.sensor_width)
    t = n_steps or sim.T
    counters = OpCounters()

    c_in = 2
    for i, spec in enumerate(arch.snn_layers, start=1):
        c, k, p, s = parse_layer_string(spec)
        h, w = _conv_out(h, w, k, p, s)
        lc = counters.layer(f"snn{i}")
        lc.macs = k * k * c_in * c * h * w * t
        lc.params = c * c_in * k * k + c + 2 * c + 1  # conv + bias + bn affine + leak
        c_in = c

    kb = arch.bridge_kernel
    j = kb * kb
    lc = counters.layer("bridge")
    per_channel = (
        (kb * kb * t) * (2 * j * t) * h * w  # offset-predicting conv
        + 5 * j * t * h * w  # deformable conv: kernel MAC + 4-point interpolation
        + 3 * t * h * w  # query/key/value gains
        + 2 * t * t * h * w  # score and attended matmuls
        + t * h * w  # temporal 1x1 combination
        + h * w  # event-rate gate multiply
    )
    lc.macs = per_channel * c_in
    lc.params = (
        (2 * j * t) * t * j + 2 * j * t  # offset conv + bias
        + t * j + t  # deformable kernels + bias
        + 6 * arch.bridge_heads  # q/k/v gains and biases
        + t + 1  # temporal combination
    )

    for i, spec in enumerate(arch.ann_layers, start=1):
        c, k, p, s = parse_layer_string(spec)
        h, w = _conv_out(h, w, k, p, s)
        lc = counters.layer(f"ann{i}")
        lc.macs = k * k * c_in * c * h * w
        lc.params = c * c_in * k * k + c + 2 * c
        c_in = c
        if i in arch.lstm_positions:
            lc = counters.layer(f"lstm{i}")
            c2 = 2 * c
            lc.macs = (9 * c2 + c2 * 4 * c) * h * w
            lc.params = c2 * 9 + c2 + 4 * c * c2 + 4 * c

    if arch.head:
        lc = counters.layer("head")
        lc.macs = (9 * c_in * c_in + c_in * 5) * h * w
        lc.params = c_in * c_in * 9 + c_in + 5 * c_in + 5
    return counters


def _tap_counts(extent: int, out_extent: int, k: int, p: int, s: int) -> np.ndarray:
    """taps[i] = number of kernel taps an input cell at coordinate i feeds."""
    taps = np.zeros(extent, dtype=np.int64)
    for i in range(extent):
        n = 0
        for kk in range(k):
            num = i + p - kk
            if num % s == 0 and 0 <= num // s < out_extent:
                n += 1
        taps[i] = n
    return taps


def count_spike_acs(trace: list[dict]) -> OpCounters:
    """Exact event-driven accumulate counts from a recorded forward trace.

    Each trace entry carries the layer's input nonzero mask and conv
    geometry (as recorded by the spiking backbone)."""
    counters = OpCounters()
    for entry in trace:
        mask = entry["nonzero"]
        k, s, p = entry["kernel"], entry["stride"], entry["padding"]
        c_out, g = entry["out_channels"], entry["groups"]
        h, w = mask.shape[-2:]
        h_out, w_out = _conv_out(h, w, k, p, s)
        taps_y = _tap_counts(h, h_out, k, p, s)
        taps_x = _tap_counts(w, w_out, k, p, s)
        cells = mask.reshape(-1, h, w).sum(axis=0)  # nonzero (t, c) per (y, x)
        lc = counters.layer(entry["name"])
        lc.acs = int((cells * np.outer(taps_y, taps_x)).sum()) * (c_out // g)
        lc.input_spikes = int(mask.sum())
    return counters


def energy_estimate(counters: OpCounters, model: EnergyModel | None = None) -> float:
    """E = total MACs * e_mac + total ACs * e_ac, in joules."""
    model = model or EnergyModel()
    return counters.total_macs * model.e_mac + counters.total_acs * model.e_ac


def sparsity_report(spikes) -> float:
    """Fraction of zero cells in a spike (or count) tensor."""
    arr = np.asarray(spikes.data if hasattr(spikes, "data") else spikes)
    return float((arr == 0).mean())


# ---------------------------------------------------------------------------
# report emission


def hybrid_energy(counters: OpCounters, model: EnergyModel | None = None) -> float:
    """Deployment cost: spiking layers run event-driven (ACs), the rest dense
    (MACs). Layers with a recorded AC count contribute ACs only."""
    model = model or EnergyModel()
    e = 0.0
    for lc in counters.per_layer.values():
        if lc.acs > 0:
            e += lc.acs * model.e_ac
        else:
            e += lc.macs * model.e_mac
    return e


def profile_text(counters: OpCounters, model: EnergyModel, sparsity: dict[str, float] | None = None) -> str:
    lines = ["# per-layer compute profile", "# acs counted once per nonzero cell per tap"]
    for name, lc in counters.per_layer.items():
        lines.append(f"layer: {name}")
        lines += [f"  {k}: {v}" for k, v in asdict(lc).items()]
        if sparsity and name in sparsity:
            lines.append(f"  input_sparsity: {sparsity[name]:.6f}")
    lines.append(f"total_macs: {counters.total_macs}")
    lines.append(f"total_acs: {counters.total_acs}")
    lines.append(f"total_params: {counters.total_params}")
    lines.append(f"dense_energy_j: {energy_estimate(counters, model):.6e}")
    lines.append(f"hybrid_energy_j: {hybrid_energy(counters, model):.6e}")
    return "\n".join(lines) + "\n"


def profile_flat_dict(counters: OpCounters, model: EnergyModel, sparsity: dict[str, float] | None = None) -> dict:
    flat: dict[str, float | int] = {}
    for name, lc in counters.per_layer.items():
        flat.update({f"{name}.{k}": v for k, v in asdict(lc).items()})
        if sparsity and name in sparsity:
            flat[f"{name}.input_sparsity"] = sparsity[name]
    flat["total.macs"] = counters.total_macs
    flat["total.acs"] = counters.total_acs
    flat["total.params"] = counters.total_params
    flat["total.dense_energy_j"] = energy_estimate(counters, model)
    flat["total.hybrid_energy_j"] = hybrid_energy(counters, model)
    return flat


def write_profile(counters: OpCounters, out_dir, model: EnergyModel | None = None, sparsity=None) -> None:
    model = model or EnergyModel()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "profile.txt").write_text(profile_text(counters, model, sparsity))
    (out / "profile.json").write_text(
        json.dumps(profile_flat_dict(counters, model, sparsity), indent=2, sort_keys=True)
    )
