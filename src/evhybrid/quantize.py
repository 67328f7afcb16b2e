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
trajectory exactly when the integer weights are exact.

The forward is event-driven. The integer conv gathers the (t, y, x) sites
that hold input and, tap by tap, adds their rows times the tap's weights to
the output cells they reach (a gather-GEMM-scatter rulebook conv, Graham and
van der Maaten 2017), exactly in int64 under a checked 2**53 bound on every
partial sum, then saturates to the int32 range (saturation events are
counted, never silent). Only the output sites a tap reached carry their own
membranes; every other cell of a channel sees the same input, shift[c], at
every step, so all of them share one quiet trajectory per channel, computed
once. Membranes stay in real arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .arrayio import _entry_dtype
from .config import QUANT_BITS
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

    def dequantize(self) -> np.ndarray:
        shape = (len(self.q_scale),) + (1,) * (self.int_weights.ndim - 1)
        return self.int_weights.astype(np.float64) * self.q_scale.reshape(shape)


def quantize_per_channel(weights: np.ndarray, bits: int) -> QuantParams:
    """Symmetric per-output-channel quantization of [C_out, ...] weights.

    q_scale[c] = max|W[c]| / (2^(bits-1) - 1); all-zero channels get scale 1.
    Rounding is half away from zero; integers are clamped to the symmetric
    range (so int2 uses {-1, 0, 1}).
    """
    if bits not in QUANT_BITS:
        raise ConfigError(f"bits must be one of {QUANT_BITS}, got {bits}")
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


def _event_conv(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Exact integer conv of the sites of ``x`` [N, C_in, H, W] that hold input.

    The active sites are the (t, y, x) positions with any nonzero channel.
    For each tap (ky, kx), the rulebook keeps the sites whose
    (y + padding - ky, x + padding - kx) lands on the stride grid inside the
    output, and adds their rows times ``w[:, :, ky, kx].T`` to those output
    cells in int64. Within one tap no two sites share an output, so the
    fancy-index ``+=`` is exact. Partial sums are bounded by
    max|x| * max_c sum|w[c]|; a bound of 2**53 or more raises NumericError,
    so every partial sum is exact in float64 too. Cells beyond the int32 range
    are clamped and counted. Returns the [N, H', W', C_out] int64 output, the
    flat H'*W' output sites that some tap reached, and the saturation count.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"integer conv takes 4-D input and weights, got {x.ndim}-D and {w.ndim}-D")
    n, c_in, h, wd = x.shape
    c_out, c_w, kh, kw = w.shape
    if stride < 1 or padding < 0:
        raise ShapeError(f"integer conv needs stride >= 1 and padding >= 0, got {stride} and {padding}")
    if c_w != c_in:
        raise ShapeError(f"weight channel axis expects {c_w} input channels, input has {c_in}")
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (wd + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"integer conv output spatial axis empty: ({h_out}, {w_out})")
    t, ys, xs = np.nonzero(x.any(axis=1))
    rows = x[t, :, ys, xs].astype(np.int64)  # [S, C_in]
    w = w.astype(np.int64)
    x_peak = max(int(rows.max(initial=0)), -int(rows.min(initial=0)))
    bound = x_peak * int(np.abs(w).reshape(c_out, -1).sum(axis=1).max(initial=0))
    if bound >= 2**53:
        raise NumericError(f"integer conv partial sums may reach {bound}, past float64's exact 2**53")
    out = np.zeros((n * h_out * w_out, c_out), dtype=np.int64)
    touched = np.zeros(h_out * w_out, dtype=bool)
    oy, ry = np.divmod(ys[None] + padding - np.arange(kh)[:, None], stride)
    ox, rx = np.divmod(xs[None] + padding - np.arange(kw)[:, None], stride)
    in_y = (ry == 0) & (oy >= 0) & (oy < h_out)
    in_x = (rx == 0) & (ox >= 0) & (ox < w_out)
    for ky in range(kh):
        for kx in range(kw):
            ok = np.flatnonzero(in_y[ky] & in_x[kx])
            site = oy[ky, ok] * w_out + ox[kx, ok]
            touched[site] = True
            out[t[ok] * (h_out * w_out) + site] += rows[ok] @ w[:, :, ky, kx].T
    over = 0
    if bound > INT32_MAX:  # otherwise no cell can leave the int32 range
        over = int(np.count_nonzero(np.abs(out) > INT32_MAX))
        out = np.clip(out, -INT32_MAX, INT32_MAX)
    return out.reshape(n, h_out, w_out, c_out), np.flatnonzero(touched), over


def int_conv2d(
    x: np.ndarray, w: np.ndarray, stride: int, padding: int
) -> tuple[np.ndarray, int]:
    """Exact integer conv whose outputs saturate to the int32 range.

    The event-driven rulebook conv of ``_event_conv``: only the sites of
    ``x`` [N, C_in, H, W] that hold input are gathered and multiplied, tap by
    tap. Returns (the [N, C_out, H', W'] int64 output, saturation count).
    """
    y, _, over = _event_conv(x, w, stride, padding)
    return y.transpose(0, 3, 1, 2), over


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


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


# the values load_quantized accepts for each scalar field
_SCALAR_CHECKS = {
    "name": lambda v: isinstance(v, str),
    "stride": lambda v: _is_int(v) and v >= 1,
    "padding": lambda v: _is_int(v) and v >= 0,
    "leak": lambda v: _is_real(v) and 0 < v <= 1,
    "v_threshold": _is_real,
    "v_reset": _is_real,
}


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

    ``counts``: [T, 2, H, W] integer event counts. Each layer runs the
    event-driven rulebook conv over the sites that hold input, exact in
    integers, then the membranes in float64: one per output site the conv
    reached, and one shared quiet trajectory per channel for the rest.
    Returns the final binary spike tensor, or all per-layer spike tensors
    when ``collect_layers``. Saturation events accumulate on the model.
    """
    x = np.asarray(counts)
    if not np.issubdtype(x.dtype, np.integer):
        raise NumericError("fixed-point input must be integer event counts")
    layers = []
    for blk in fpm.blocks:
        y, live, over = _event_conv(x, blk.quant.int_weights, blk.stride, blk.padding)
        fpm.overflow_count += over
        x = _membrane(y, live, blk)
        layers.append(x.astype(np.int64))
    return layers if collect_layers else layers[-1]


def _membrane(y: np.ndarray, live: np.ndarray, blk: FixedPointBlock) -> np.ndarray:
    """Fused leaky integrate-and-fire over a [T, H, W, C] conv output.

    Only the ``live`` flat sites, which the conv reached at some step, carry
    their own membranes. Every other cell of a channel sees u = 0*scale +
    shift at every step, so all of them follow one quiet trajectory per
    channel, carried by a zero row after the live ones. Returns the
    [T, C, H, W] boolean spikes.
    """
    t, h, w, c = y.shape
    y = np.concatenate([y.reshape(t, h * w, c)[:, live], np.zeros((t, 1, c), dtype=np.int64)], axis=1)
    u = y.astype(np.float64) * blk.fused.scale + blk.fused.shift
    v = np.full(y.shape[1:], blk.v_reset, dtype=np.float64)
    fired = np.empty(y.shape, dtype=bool)
    keep = 1.0 - blk.leak
    base = blk.leak * blk.v_reset
    for step in range(t):
        v = keep * v + u[step] + base
        fired[step] = v >= blk.v_threshold
        v = np.where(fired[step], blk.v_reset, v)
    spikes = np.repeat(fired[:, -1, :, None], h * w, axis=2)
    spikes[:, :, live] = fired[:, :-1].transpose(0, 2, 1)
    return spikes.reshape(t, c, h, w)


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


def _channel_values(json_path, layer: dict, key: str, n: int) -> np.ndarray:
    """A per-channel manifest list as float64, once it holds ``n`` finite numbers."""
    values = layer[key]
    if not (isinstance(values, list) and len(values) == n and all(map(_is_real, values))):
        raise DataFormatError(f"{json_path}: layer field {key!r} needs {n} finite numbers")
    return np.asarray(values, dtype=np.float64)


def load_quantized(base_path) -> FixedPointModel:
    """Read what ``save_quantized`` wrote; a manifest that is not UTF-8 JSON,
    lacks a field, holds a ``bits`` outside ``QUANT_BITS``, a scalar field of
    the wrong type or range (see ``_SCALAR_CHECKS``), a weight entry that does
    not describe its bytes (the check of checkpoint entries) or points past
    the end of the weight blob, or a per-channel list that is not ``C_out``
    finite numbers raises DataFormatError."""
    base = Path(base_path)
    json_path, bin_path = base.with_suffix(".json"), base.with_suffix(".bin")
    try:
        manifest = json.loads(json_path.read_bytes().decode("utf-8"))
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past Python's digit limit
        raise DataFormatError(f"{json_path}: manifest is not UTF-8 JSON: {exc}") from exc
    blob = bin_path.read_bytes()
    try:
        if manifest["format_version"] != QUANT_FORMAT_VERSION:
            raise DataFormatError(f"unsupported quantized-model version {manifest['format_version']}")
        bits = manifest["bits"]
        if not (_is_int(bits) and bits in QUANT_BITS):
            raise DataFormatError(f"{json_path}: bits must be one of {QUANT_BITS}, got {bits!r}")
        fpm = FixedPointModel(bits=bits)
        for layer in manifest["layers"]:
            scalars = {k: layer[k] for k in _SCALAR_FIELDS}
            for k, v in scalars.items():
                if not _SCALAR_CHECKS[k](v):
                    raise DataFormatError(f"{json_path}: layer field {k!r} has the bad value {v!r}")
            name, shape = layer["name"], layer["shape"]
            start, nbytes = layer["weights_offset"], layer["weights_nbytes"]
            dt = _entry_dtype(json_path, name, "|i1", shape, start, nbytes)
            if len(shape) != 4:
                raise DataFormatError(f"{json_path}: weights of {name!r} need 4 dims [C_out, C_in, K, K], got {shape}")
            if start + nbytes > len(blob):
                raise DataFormatError(f"{bin_path}: weights of {name!r} run past the end of the file")
            ints = np.frombuffer(blob[start : start + nbytes], dtype=dt).reshape(shape).copy()
            per_channel = {k: _channel_values(json_path, layer, k, shape[0]) for k in ("q_scale", "scale", "shift")}
            fpm.blocks.append(
                FixedPointBlock(
                    quant=QuantParams(bits=bits, q_scale=per_channel["q_scale"], int_weights=ints),
                    fused=FusedLIFParams(scale=per_channel["scale"], shift=per_channel["shift"]),
                    **scalars,
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
