"""Fixed-point deployment path for the spiking front-end.

Weights are quantized symmetrically per output channel (round half away from
zero) at 8/6/4/2 bits. Batchnorm statistics, the quantization scale, and the
neuron's 1/tau factor fold into per-channel (scale, shift) applied to the
integer conv output:

    scale[c] = q_scale[c] * bn_gamma[c] / (tau * sqrt(bn_var[c] + eps))
    shift[c] = (conv_bias[c] - bn_mean[c]) * bn_gamma[c]
               / (tau * sqrt(bn_var[c] + eps)) + bn_beta[c] / tau

so the fused membrane update V <- (1 - 1/tau) V + (scale*y_int + shift)
+ v_reset/tau reproduces the float conv -> batchnorm -> leaky-integrate
trajectory exactly when the integer weights are exact. Integer convolutions
are computed exactly in float64 by ``ops.conv2d``, under a checked 2**53 bound
on every partial sum, then saturate to the int32 range (saturation events are
counted, never silent); membranes stay in real arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError, NumericError, ShapeError
from .model import HybridModel
from .numerics import WIDE, Tensor, ops
from .snn import snn_block_forward

INT32_MAX = np.int64(2**31 - 1)
QUANT_FORMAT_VERSION = 1


@dataclass
class QuantParams:
    """Per-output-channel symmetric quantization of one weight tensor."""

    bits: int
    q_scale: np.ndarray  # [C_out], > 0
    int_weights: np.ndarray  # int8-stored integers in [-(2^(b-1)-1), 2^(b-1)-1]

    @property
    def qmax(self) -> int:
        return 2 ** (self.bits - 1) - 1

    def dequantize(self) -> np.ndarray:
        shape = (len(self.q_scale),) + (1,) * (self.int_weights.ndim - 1)
        return self.int_weights.astype(np.float64) * self.q_scale.reshape(shape)


def quantize_per_channel(weights: np.ndarray, bits: int) -> QuantParams:
    """Symmetric per-output-channel quantization of [C_out, ...] weights.

    q_scale[c] = max|W[c]| / (2^(bits-1) - 1); all-zero channels get scale 1.
    Rounding is half away from zero; integers are clamped to the symmetric
    range (so int2 uses {-1, 0, 1}).
    """
    if bits not in (2, 4, 6, 8):
        raise ConfigError(f"bits must be one of 2, 4, 6, 8, got {bits}")
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NumericError("cannot quantize non-finite weights")
    qmax = 2 ** (bits - 1) - 1
    flat = w.reshape(w.shape[0], -1)
    peak = np.abs(flat).max(axis=1)
    q_scale = np.where(peak > 0, peak / qmax, 1.0)
    scaled = flat / q_scale[:, None]
    ints = np.sign(scaled) * np.floor(np.abs(scaled) + 0.5)
    ints = np.clip(ints, -qmax, qmax).astype(np.int8).reshape(w.shape)
    return QuantParams(bits=bits, q_scale=q_scale, int_weights=ints)


@dataclass
class FusedLIFParams:
    scale: np.ndarray  # [C]
    shift: np.ndarray  # [C]


def fuse_bn_lif(
    bias_conv: np.ndarray,
    mean_bn: np.ndarray,
    var_bn: np.ndarray,
    weight_bn: np.ndarray,
    bias_bn: np.ndarray,
    eps_bn: float,
    tau: float,
    q_scale: np.ndarray,
) -> FusedLIFParams:
    """Fold batchnorm + quantization scale + 1/tau into per-channel scale/shift."""
    var_bn = np.asarray(var_bn, dtype=np.float64)
    if np.any(var_bn < 0):
        raise NumericError("negative batchnorm variance")
    if np.any(var_bn + eps_bn <= 0):
        raise NumericError("var + eps must be positive")
    if tau < 1.0:
        raise NumericError(f"tau must be >= 1, got {tau}")
    denom = tau * np.sqrt(var_bn + eps_bn)
    weight_bn = np.asarray(weight_bn, dtype=np.float64)
    scale = np.asarray(q_scale, dtype=np.float64) * weight_bn / denom
    shift = (np.asarray(bias_conv, np.float64) - np.asarray(mean_bn, np.float64)) * weight_bn / denom
    shift = shift + np.asarray(bias_bn, np.float64) / tau
    return FusedLIFParams(scale=scale, shift=shift)


def int_conv2d(
    x: np.ndarray, w: np.ndarray, stride: int, padding: int
) -> tuple[np.ndarray, int]:
    """Exact integer conv whose outputs saturate to the int32 range.

    Runs ``ops.conv2d`` on float64 copies of the operands. Every partial sum
    is an integer no larger than max|x| * max_c sum|w[c]|; below 2**53 each is
    exactly representable, so the result is exact in any summation order, and
    a larger bound raises NumericError. Cells beyond the int32 range are
    clamped and counted. Returns (output, saturation count).
    """
    w = w.astype(np.int64)
    x_peak = max(int(x.max(initial=0)), -int(x.min(initial=0)))
    bound = x_peak * int(np.abs(w).reshape(w.shape[0], -1).sum(axis=1).max(initial=0))
    if bound >= 2**53:
        raise NumericError(f"integer conv partial sums may reach {bound}, past float64's exact 2**53")
    y = ops.conv2d(x.astype(WIDE), w.astype(WIDE), stride=stride, padding=padding).data.astype(np.int64)
    over = int(np.count_nonzero(np.abs(y) > INT32_MAX))
    if over:
        y = np.clip(y, -INT32_MAX, INT32_MAX)
    return y, over


@dataclass
class FixedPointBlock:
    name: str
    quant: QuantParams
    fused: FusedLIFParams
    stride: int
    padding: int
    leak: float  # 1 / tau
    v_threshold: float
    v_reset: float


# the fields a manifest layer stores as they are; the weights go to the blob
# and the fused parameters to per-channel lists
_SCALAR_FIELDS = tuple(f.name for f in fields(FixedPointBlock) if f.name not in ("quant", "fused"))


@dataclass
class FixedPointModel:
    bits: int
    blocks: list[FixedPointBlock] = field(default_factory=list)
    overflow_count: int = 0

    @classmethod
    def from_model(cls, model: HybridModel, bits: int) -> "FixedPointModel":
        """Quantize and fuse every spiking block of a trained model."""
        fpm = cls(bits=bits)
        for i, blk in enumerate(model.snn_blocks, start=1):
            quant = quantize_per_channel(blk.conv_w.data, bits)
            leak = 1.0 / blk.plif.tau
            fused = fuse_bn_lif(
                bias_conv=blk.conv_b.data,
                mean_bn=blk.bn_mean,
                var_bn=blk.bn_var,
                weight_bn=blk.bn_gamma.data,
                bias_bn=blk.bn_beta.data,
                eps_bn=blk.bn_eps,
                tau=blk.plif.tau,
                q_scale=quant.q_scale,
            )
            fpm.blocks.append(
                FixedPointBlock(
                    name=f"snn{i}",
                    quant=quant,
                    fused=fused,
                    stride=blk.cfg.stride,
                    padding=blk.cfg.padding,
                    leak=leak,
                    v_threshold=blk.plif.v_threshold,
                    v_reset=blk.plif.v_reset,
                )
            )
        return fpm


def fixed_point_forward(
    counts: np.ndarray, fpm: FixedPointModel, collect_layers: bool = False
) -> np.ndarray | list[np.ndarray]:
    """Integer-arithmetic spiking forward pass.

    ``counts``: [T, 2, H, W] integer event counts. Convolutions are exact in
    integers; per-channel scale/shift and the membrane run in float64.
    Returns the final binary spike tensor, or all per-layer spike tensors
    when ``collect_layers``. Saturation events accumulate on the model.
    """
    x = np.asarray(counts)
    if not np.issubdtype(x.dtype, np.integer):
        raise NumericError("fixed-point input must be integer event counts")
    layers = []
    for blk in fpm.blocks:
        y, over = int_conv2d(x, blk.quant.int_weights, blk.stride, blk.padding)
        fpm.overflow_count += over
        t, c = y.shape[0], y.shape[1]
        u = y.astype(np.float64) * blk.fused.scale.reshape(1, c, 1, 1) + blk.fused.shift.reshape(
            1, c, 1, 1
        )
        v = np.full(y.shape[1:], blk.v_reset, dtype=np.float64)
        spikes = np.zeros(y.shape, dtype=np.int64)
        keep = 1.0 - blk.leak
        base = blk.leak * blk.v_reset
        for step in range(t):
            v = keep * v + u[step] + base
            fired = v >= blk.v_threshold
            spikes[step] = fired
            v = np.where(fired, blk.v_reset, v)
        layers.append(spikes)
        x = spikes
    return layers if collect_layers else layers[-1]


def float_reference_spikes(
    model: HybridModel, counts: np.ndarray, collect_layers: bool = False
) -> np.ndarray | list[np.ndarray]:
    """Wide-float inference of the spiking stack (running batchnorm stats).

    Runs the training math, ``snn_block_forward``, on float64 copies of the
    blocks. The fixed-point path is compared against this trajectory; both
    run their membranes in float64 so differences come only from weight
    rounding.
    """
    x = Tensor(np.asarray(counts, dtype=WIDE))
    layers = []
    for i, blk in enumerate(model.snn_blocks, start=1):
        x = snn_block_forward(x, blk.astype(WIDE), training=False, context=f"snn{i}")
        layers.append(x.data.astype(np.int64))
    return layers if collect_layers else layers[-1]


def _float_conv(x, w, b, stride, padding):
    return ops.conv2d(x, w, b, stride=stride, padding=padding).data, None


# ---------------------------------------------------------------------------
# fidelity


@dataclass
class FidelityReport:
    match_rate: float
    total_cells: int
    per_layer_mismatch: dict[str, int]
    first_divergence_t: int | None

    def as_dict(self) -> dict:
        return asdict(self)


def spike_fidelity(a, b, layer: str = "E_spike") -> FidelityReport:
    """Exact cellwise agreement between two binary spike tensors."""
    a = np.asarray(a.data if hasattr(a, "data") else a)
    b = np.asarray(b.data if hasattr(b, "data") else b)
    if a.shape != b.shape:
        raise ShapeError(f"spike tensors differ in shape: {a.shape} vs {b.shape}")
    return fidelity_from_layers([a], [b], [layer])


def fidelity_from_layers(
    ref_layers: list[np.ndarray], test_layers: list[np.ndarray], names: list[str]
) -> FidelityReport:
    """Cellwise agreement pooled over layers; the mismatch counts of a
    repeated layer name add up."""
    total = 0
    matched = 0
    per_layer: dict[str, int] = {}
    first_t: int | None = None
    for name, ra, rb in zip(names, ref_layers, test_layers):
        if ra.shape != rb.shape:
            raise ShapeError(f"layer {name}: shape {ra.shape} vs {rb.shape}")
        diff = ra != rb
        wrong = int(diff.sum())
        per_layer[name] = per_layer.get(name, 0) + wrong
        total += ra.size
        matched += ra.size - wrong
        if wrong:
            t = int(np.nonzero(diff.reshape(diff.shape[0], -1).any(axis=1))[0][0])
            first_t = t if first_t is None else min(first_t, t)
    return FidelityReport(
        match_rate=matched / total if total else 1.0,
        total_cells=total,
        per_layer_mismatch=per_layer,
        first_divergence_t=first_t,
    )


# ---------------------------------------------------------------------------
# on-disk format: human-readable manifest + raw little-endian weight blob


def save_quantized(fpm: FixedPointModel, base_path) -> tuple[Path, Path]:
    """Write ``<base>.json`` (manifest) and ``<base>.bin`` (int8 weights, LE)."""
    base = Path(base_path)
    manifest: dict = {"format_version": QUANT_FORMAT_VERSION, "bits": fpm.bits, "layers": []}
    blob = bytearray()
    for blk in fpm.blocks:
        ints = blk.quant.int_weights.astype("<i1")
        raw = ints.tobytes()
        manifest["layers"].append(
            {
                **{k: getattr(blk, k) for k in _SCALAR_FIELDS},
                "shape": list(ints.shape),
                "weights_offset": len(blob),
                "weights_nbytes": len(raw),
                "q_scale": blk.quant.q_scale.tolist(),
                "scale": blk.fused.scale.tolist(),
                "shift": blk.fused.shift.tolist(),
            }
        )
        blob.extend(raw)
    json_path = base.with_suffix(".json")
    bin_path = base.with_suffix(".bin")
    json_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    bin_path.write_bytes(bytes(blob))
    return json_path, bin_path


def load_quantized(base_path) -> FixedPointModel:
    """Read what ``save_quantized`` wrote; a manifest that is not UTF-8 JSON,
    lacks a field, or points past the end of the weight blob raises
    DataFormatError."""
    base = Path(base_path)
    json_path, bin_path = base.with_suffix(".json"), base.with_suffix(".bin")
    try:
        manifest = json.loads(json_path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{json_path}: manifest is not UTF-8 JSON: {exc}") from exc
    blob = bin_path.read_bytes()
    try:
        if manifest["format_version"] != QUANT_FORMAT_VERSION:
            raise DataFormatError(f"unsupported quantized-model version {manifest['format_version']}")
        fpm = FixedPointModel(bits=manifest["bits"])
        for layer in manifest["layers"]:
            start, nbytes = layer["weights_offset"], layer["weights_nbytes"]
            if start + nbytes > len(blob):
                raise DataFormatError(f"{bin_path}: weights of {layer['name']!r} run past the end of the file")
            ints = np.frombuffer(blob[start : start + nbytes], dtype="<i1").reshape(layer["shape"]).copy()
            fpm.blocks.append(
                FixedPointBlock(
                    quant=QuantParams(
                        bits=manifest["bits"],
                        q_scale=np.asarray(layer["q_scale"], dtype=np.float64),
                        int_weights=ints,
                    ),
                    fused=FusedLIFParams(
                        scale=np.asarray(layer["scale"], dtype=np.float64),
                        shift=np.asarray(layer["shift"], dtype=np.float64),
                    ),
                    **{k: layer[k] for k in _SCALAR_FIELDS},
                )
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{json_path}: manifest field missing or mistyped: {exc}") from exc
    return fpm


def run_quantize(
    model: HybridModel,
    bits: int,
    eval_windows: list[np.ndarray],
    out_base=None,
) -> tuple[FixedPointModel, FidelityReport]:
    """Quantize a trained model and measure spike fidelity on held-out
    windows (all spiking layers pooled)."""
    fpm = FixedPointModel.from_model(model, bits)
    refs: list[np.ndarray] = []
    tests: list[np.ndarray] = []
    names: list[str] = []
    for counts in eval_windows:
        refs += float_reference_spikes(model, counts, collect_layers=True)
        tests += fixed_point_forward(counts, fpm, collect_layers=True)
        names += [blk.name for blk in fpm.blocks]
    report = fidelity_from_layers(refs, tests, names)
    if out_base is not None:
        save_quantized(fpm, out_base)
    return fpm, report
