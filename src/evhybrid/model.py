"""Assembly of the full hybrid backbone from a run configuration, plus
checkpointing and windowed inference over event streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ann, bridge, snn
from .arrayio import CHECKPOINT_MAGIC, read_bundle, write_bundle
from .config import RunConfig, architecture_hash, config_hash
from .errors import DataFormatError
from .events import EventStream, bin_events
from .numerics import NARROW, Tensor
from .snn import ConvBNBlock, snn_backbone_forward

CHECKPOINT_VERSION = 4


class HybridModel:
    """Spiking front-end -> attention bridge -> dense back-end -> toy head."""

    def __init__(self, config: RunConfig, seed: int | None = None, dtype=NARROW):
        config.validate()
        self.config = config
        self.dtype = dtype
        arch = config.architecture
        rng = np.random.default_rng(config.training.seed if seed is None else seed)

        self.snn_blocks: list[snn.SNNBlock] = []
        in_ch = 2
        for spec in arch.snn_layers:
            cfg = snn.ConvSpec.from_string(spec)
            self.snn_blocks.append(snn.SNNBlock(in_ch, cfg, rng, dtype=dtype))
            in_ch = cfg.out_channels

        self.bridge = bridge.BridgeParams.init(
            n_steps=config.simulation.T,
            kernel=arch.bridge_kernel,
            heads=arch.bridge_heads,
            rng=rng,
            dtype=dtype,
        )

        self.ann_blocks: list[ConvBNBlock] = []
        for spec in arch.ann_layers:
            cfg = snn.ConvSpec.from_string(spec)
            self.ann_blocks.append(ConvBNBlock(in_ch, cfg, rng, dtype=dtype))
            in_ch = cfg.out_channels

        self.lstm_units: dict[int, ann.DWConvLSTM] = {}
        for pos in arch.lstm_positions:
            ch = self.ann_blocks[pos - 1].cfg.out_channels
            self.lstm_units[pos] = ann.DWConvLSTM(ch, rng, dtype=dtype)
        self.lstm_states: dict[int, ann.DWConvLSTMState] = {}

        self.head = ann.ToyHead(in_ch, rng, dtype=dtype)
        self.variant = "full"

    # -- parameters ---------------------------------------------------------

    def _named_blocks(self):
        """(name, block) for every block with parameters, in ``parameters()`` order."""
        yield from ((f"snn{i}", blk) for i, blk in enumerate(self.snn_blocks, start=1))
        yield "bridge", self.bridge
        yield from ((f"ann{i}", blk) for i, blk in enumerate(self.ann_blocks, start=1))
        yield from ((f"lstm{pos}", unit) for pos, unit in sorted(self.lstm_units.items()))
        yield "head", self.head

    def parameters(self) -> dict[str, Tensor]:
        return {f"{name}.{k}": v for name, blk in self._named_blocks() for k, v in blk.parameters().items()}

    def running_stats(self) -> dict[str, np.ndarray]:
        """Running averages of the batch-norm blocks, spiking then dense."""
        return {
            f"{name}.{k}": getattr(blk, k)
            for name, blk in self._named_blocks()
            if isinstance(blk, ConvBNBlock)
            for k in ("bn_mean", "bn_var")
        }

    @property
    def total_stride(self) -> int:
        s = 1
        for blk in self.snn_blocks:
            s *= blk.cfg.stride
        for blk in self.ann_blocks:
            s *= blk.cfg.stride
        return s

    def reset_state(self):
        self.lstm_states = {}

    # -- forward ------------------------------------------------------------

    def forward_window(
        self,
        counts: np.ndarray,
        training: bool = False,
        trace: list | None = None,
    ) -> dict:
        """One detection window: [T, 2, H, W] event counts -> features + head.

        Recurrent state (if any) persists across calls; call ``reset_state``
        between independent streams. ``trace`` collects the spiking layers'
        cost counts (ints), as in ``snn_backbone_forward``.
        """
        x = Tensor(counts.astype(self.dtype))
        e_spike = snn_backbone_forward(x, self.snn_blocks, training=training, trace=trace)
        f_out = bridge.asab_forward(e_spike, self.bridge, variant=self.variant)
        feats = ann.ann_backbone_forward(
            f_out, self.ann_blocks, self.lstm_units, self.lstm_states, training=training
        )
        det = ann.toy_head_forward(feats[-1], self.head)
        return {"e_spike": e_spike, "f_out": f_out, "features": feats, "detection": det}

    # -- checkpointing ------------------------------------------------------

    def save_checkpoint(self, path) -> None:
        arrays: dict[str, np.ndarray] = {f"param.{k}": v.data for k, v in self.parameters().items()}
        arrays.update({f"stat.{k}": v for k, v in self.running_stats().items()})
        meta = {
            "format_version": CHECKPOINT_VERSION,
            "config_hash": config_hash(self.config),
            "architecture_hash": architecture_hash(self.config),
            "dtype": np.dtype(self.dtype).name,
        }
        write_bundle(path, CHECKPOINT_MAGIC, meta, arrays)

    def load_checkpoint(self, path) -> dict:
        """Load parameters and running statistics after checking the format
        version, the architecture hash, and that every array is present with
        the model's shape; nothing is assigned unless every check passes."""
        meta, arrays = read_bundle(path, CHECKPOINT_MAGIC)
        if meta.get("format_version") != CHECKPOINT_VERSION:
            raise DataFormatError(f"unsupported checkpoint version {meta.get('format_version')}")
        if meta.get("architecture_hash") != architecture_hash(self.config):
            raise DataFormatError(f"{path}: checkpoint built for another [architecture] or T/window_ms")
        params = self.parameters()
        expected = {f"param.{k}": v.shape for k, v in params.items()}
        expected.update({f"stat.{k}": v.shape for k, v in self.running_stats().items()})
        for key, shape in expected.items():
            if key not in arrays:
                raise DataFormatError(f"checkpoint missing {key}")
            if tuple(arrays[key].shape) != shape:
                raise DataFormatError(f"checkpoint {key} has shape {arrays[key].shape}, model expects {shape}")
        for name, tensor in params.items():
            tensor.data = arrays[f"param.{name}"].astype(self.dtype)
        blocks = dict(self._named_blocks())
        for key in self.running_stats():
            name, stat = key.split(".")
            setattr(blocks[name], stat, arrays[f"stat.{key}"].astype(self.dtype))
        return meta


@dataclass
class Detection:
    window: int
    t_us: int
    score: float
    cx: float
    cy: float
    w: float
    h: float

    def as_dict(self) -> dict:
        return {
            "window": self.window,
            "t_us": self.t_us,
            "score": round(self.score, 6),
            "cx": round(self.cx, 3),
            "cy": round(self.cy, 3),
            "w": round(self.w, 3),
            "h": round(self.h, 3),
        }


def bin_window(stream: EventStream, i: int, n_bins: int, window_ms: int) -> np.ndarray:
    """[T, 2, H, W] counts of window ``i`` of ``stream``. The one window rule:
    window 0 owns [0, w] and window i >= 1 owns (i*w, (i+1)*w], so each event
    has one owner and one at a window's end lands in its last bin, at the
    ground-truth box time. A window past the stream's last event is empty."""
    w = window_ms * 1000
    lo = i * w if i else -1  # timestamps are integers >= 0: (-1, w] is [0, w]
    start, end = np.searchsorted(stream.t, [lo, (i + 1) * w], side="right")
    return bin_events(stream, slice(start, end), i * w, (i + 1) * w, n_bins)


def stream_windows(stream: EventStream, config: RunConfig):
    """Yield (window_index, ``bin_window`` counts) for every window up to the
    stream's last event; a stream whose events all sit at t = 0 gives one."""
    sim = config.simulation
    n_windows = max(1, -(-int(stream.t[-1]) // (sim.window_ms * 1000))) if len(stream) else 0
    for i in range(n_windows):
        yield i, bin_window(stream, i, sim.T, sim.window_ms)


# objectness probability at which a cell becomes a detection
DETECTION_THRESHOLD = 0.5


def decode_detections(det: ann.ToyDetection, window: int, t_us: int, stride: int) -> list[Detection]:
    """Cells with objectness at or above DETECTION_THRESHOLD (always at least
    the argmax cell) decoded back to pixel coordinates."""
    logits = det.objectness.data
    boxes = det.boxes.data
    prob = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
    cells = list(zip(*np.nonzero(prob >= DETECTION_THRESHOLD)))
    if not cells:
        cells = [np.unravel_index(int(np.argmax(prob)), prob.shape)]
    out = []
    for i, j in cells:
        dy, dx, bh, bw = boxes[:, i, j]
        out.append(
            Detection(
                window=window,
                t_us=t_us,
                score=float(prob[i, j]),
                cx=float((j + dx) * stride),
                cy=float((i + dy) * stride),
                w=float(bw * stride),
                h=float(bh * stride),
            )
        )
    out.sort(key=lambda d: -d.score)
    return out


def run_infer(model: HybridModel, stream: EventStream, trace: list | None = None) -> list[Detection]:
    """One detection set per window; empty stream gives no detections.
    ``trace`` collects every window's spiking-layer counts (ints)."""
    model.reset_state()
    sim = model.config.simulation
    if (stream.width, stream.height) != (sim.sensor_width, sim.sensor_height):
        raise DataFormatError(
            f"stream geometry {stream.width}x{stream.height} does not match config "
            f"{sim.sensor_width}x{sim.sensor_height}"
        )
    detections: list[Detection] = []
    for i, counts in stream_windows(stream, model.config):
        out = model.forward_window(counts, training=False, trace=trace)
        t_us = (i + 1) * sim.window_ms * 1000
        detections.extend(decode_detections(out["detection"], i, t_us, model.total_stride))
    return detections
