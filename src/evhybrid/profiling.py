"""Compute-cost accounting: dense multiply-accumulates (MACs), event-driven
accumulates (ACs), parameter counts, sparsity, and a linear energy model.

AC accounting convention (``ConvSpec.accumulates``): each nonzero input cell
of a spiking conv is charged one accumulate per kernel tap it feeds, per
output channel; a bin of several events counts once, and the membrane-update
add is not charged. ``count_spike_acs`` reports the per-window mean of the
counts the spiking backbone records window by window.

The energy constants ``E_MAC`` and ``E_AC`` are a rounded least-squares fit
of E = MACs*E_MAC + ACs*E_AC to published complexity/energy datapoints for
event-based detectors (three dense ANN models and two spiking models); see
``fit_energy_constants``.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .ann import LSTM_KERNEL
from .config import RunConfig
from .model import HybridModel
from .snn import ConvSpec

# (name, MACs, ACs, energy in joules)
ENERGY_DATAPOINTS = [
    ("densenet121_ssd", 0.0, 2.3e9, 0.9e-3),
    ("vgg11_ssd", 0.0, 11.1e9, 4.2e-3),
    ("inception_ssd", 11.4e9, 0.0, 19.3e-3),
    ("events_retinanet", 3.2e9, 0.0, 5.4e-3),
    ("rvt_b_wo_lstm", 2.3e9, 0.0, 3.9e-3),
]
HYBRID_REFERENCE_POINT = ("hybrid_backbone", 1.6e9, 1.0e9, 3.1e-3)

# joules per dense multiply-accumulate and per accumulate
E_MAC = 1.69e-12
E_AC = 0.38e-12


def fit_energy_constants() -> tuple[float, float]:
    """Least-squares (E_MAC, E_AC) from the reference datapoints."""
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


def count_dense_macs(cfg: RunConfig) -> OpCounters:
    """Analytic dense-execution MACs per layer, at the configured sensor size
    and T, and each layer's parameter count from the model ``cfg`` builds.

    Spiking convs are charged once per timestep; bridge and dense layers once
    per detection window. Deformable sampling charges one kernel MAC plus
    four interpolation multiplies per tap; attention matmuls and 1x1
    combinations are counted analytically.
    """
    arch, sim = cfg.architecture, cfg.simulation
    h, w, t = sim.sensor_height, sim.sensor_width, sim.T
    counters = OpCounters()

    c_in = 2
    for i, spec in enumerate(arch.snn_layers, start=1):
        conv = ConvSpec.from_string(spec)
        c, k = conv.out_channels, conv.kernel
        h, w = conv.out_size(h, w)
        counters.layer(f"snn{i}").macs = k * k * c_in * c * h * w * t
        c_in = c

    kb = arch.bridge_kernel
    j = kb * kb
    per_channel = (
        (kb * kb * t) * (2 * j * t) * h * w  # offset-predicting conv
        + 5 * j * t * h * w  # deformable conv: kernel MAC + 4-point interpolation
        + 3 * t * h * w  # query/key/value gains
        + 2 * t * t * h * w  # score and attended matmuls
        + t * h * w  # temporal 1x1 combination
        + h * w  # event-rate gate multiply
    )
    counters.layer("bridge").macs = per_channel * c_in

    for i, spec in enumerate(arch.ann_layers, start=1):
        conv = ConvSpec.from_string(spec)
        c, k = conv.out_channels, conv.kernel
        h, w = conv.out_size(h, w)
        counters.layer(f"ann{i}").macs = k * k * c_in * c * h * w
        c_in = c
        if i in arch.lstm_positions:
            c2 = 2 * c
            counters.layer(f"lstm{i}").macs = (LSTM_KERNEL * LSTM_KERNEL * c2 + c2 * 4 * c) * h * w

    counters.layer("head").macs = (9 * c_in * c_in + c_in * 5) * h * w

    for name, prm in HybridModel(cfg, seed=0).parameters().items():
        counters.layer(name.split(".")[0]).params += prm.size
    return counters


def count_spike_acs(trace: list[dict]) -> OpCounters:
    """Event-driven accumulates and input spikes per spiking layer from a
    recorded forward trace, whose entries ``snn_backbone_forward`` appends
    one per layer per window: each the per-window mean of the layer's
    entries, rounded to an int. A one-window trace gives its own counts."""
    counters = OpCounters()
    for name, s in _layer_sums(trace).items():
        lc = counters.layer(name)
        lc.acs, lc.input_spikes = round(s["acs"] / s["windows"]), round(s["input_spikes"] / s["windows"])
    return counters


def input_sparsity(trace: list[dict]) -> dict[str, float]:
    """Per spiking layer, the share of its input cells that held no spike,
    over every window of the trace."""
    return {name: (s["cells"] - s["input_spikes"]) / s["cells"] for name, s in _layer_sums(trace).items()}


def _layer_sums(trace: list[dict]) -> dict[str, Counter]:
    """The trace's counts summed per layer name, in first-seen order."""
    sums: dict[str, Counter] = {}
    for e in trace:
        sums.setdefault(e["name"], Counter()).update(
            windows=1, acs=e["acs"], input_spikes=e["input_spikes"], cells=e["cells"]
        )
    return sums


def energy_estimate(counters: OpCounters) -> float:
    """E = total MACs * E_MAC + total ACs * E_AC, in joules."""
    return counters.total_macs * E_MAC + counters.total_acs * E_AC


# ---------------------------------------------------------------------------
# report emission


def hybrid_energy(counters: OpCounters) -> float:
    """Deployment cost: spiking layers run event-driven (ACs), the rest dense
    (MACs). Layers with a recorded AC count contribute ACs only."""
    e = 0.0
    for lc in counters.per_layer.values():
        if lc.acs > 0:
            e += lc.acs * E_AC
        else:
            e += lc.macs * E_MAC
    return e


def profile_text(counters: OpCounters, sparsity: dict[str, float] | None = None) -> str:
    lines = ["# per-layer compute profile", "# acs counted once per nonzero cell per tap"]
    for name, lc in counters.per_layer.items():
        lines.append(f"layer: {name}")
        lines += [f"  {k}: {v}" for k, v in asdict(lc).items()]
        if sparsity and name in sparsity:
            lines.append(f"  input_sparsity: {sparsity[name]:.6f}")
    lines.append(f"total_macs: {counters.total_macs}")
    lines.append(f"total_acs: {counters.total_acs}")
    lines.append(f"total_params: {counters.total_params}")
    lines.append(f"dense_energy_j: {energy_estimate(counters):.6e}")
    lines.append(f"hybrid_energy_j: {hybrid_energy(counters):.6e}")
    return "\n".join(lines) + "\n"


def profile_flat_dict(counters: OpCounters, sparsity: dict[str, float] | None = None) -> dict:
    flat: dict[str, float | int] = {}
    for name, lc in counters.per_layer.items():
        flat.update({f"{name}.{k}": v for k, v in asdict(lc).items()})
        if sparsity and name in sparsity:
            flat[f"{name}.input_sparsity"] = sparsity[name]
    flat["total.macs"] = counters.total_macs
    flat["total.acs"] = counters.total_acs
    flat["total.params"] = counters.total_params
    flat["total.dense_energy_j"] = energy_estimate(counters)
    flat["total.hybrid_energy_j"] = hybrid_energy(counters)
    return flat


def write_profile(counters: OpCounters, out_dir, sparsity=None) -> None:
    """``profile.txt`` and ``profile.json`` in the existing ``out_dir``."""
    out = Path(out_dir)
    (out / "profile.txt").write_text(profile_text(counters, sparsity))
    (out / "profile.json").write_text(json.dumps(profile_flat_dict(counters, sparsity), indent=2, sort_keys=True))
