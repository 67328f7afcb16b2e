"""Fixed-point deployment path for the spiking front-end.

Weights are quantized symmetrically per output channel (round half away from
zero) at 8/6/4/2 bits. Batchnorm statistics, the quantization scale, and the
neuron's 1/tau factor fold into per-channel (scale, shift) applied to the
integer conv output:

    scale[c] = q_scale[c] * bn_gamma[c] / (tau * sqrt(bn_var[c] + eps))
    shift[c] = bn_beta[c] / tau
               - bn_mean[c] * bn_gamma[c] / (tau * sqrt(bn_var[c] + eps))

so the fused membrane update V <- (1 - 1/tau) V + (scale*y_int + shift)
reproduces the float conv -> batchnorm -> leaky-integrate trajectory exactly
when the integer weights are exact. The neuron fires at snn.V_THRESHOLD and
resets to snn.V_RESET = 0, as in training.

The forward is event-driven, on the spiking stack's own inference machinery
(``snn._Rulebook`` and ``snn._live_membranes``). The integer conv gathers
the (t, y, x) sites that hold input and, tap by tap, adds their rows times
the tap's weights to the output cells they reach (a gather-GEMM-scatter
rulebook conv, Graham and van der Maaten 2017). It checks that every
partial sum stays below 2**53, runs the taps as float64 BLAS products,
which are exact for such integers in any summation order, casts the result
back to int64, then saturates to the int32 range (saturation events are
counted, never silent). Its output is compact, as in sparse-conv engines:
one row per live output site (one that some tap reaches), then one all-zero
row. Only the live sites carry their own membranes; every other cell of a
channel sees the same input, shift[c], at every step, so all of them share
one quiet trajectory per channel, computed once on the zero row. Membranes
stay in real arithmetic, and each layer's spikes come out as a boolean
[T, C, H', W'] tensor, the next layer's input.

The float reference that fidelity reports compare against is the spiking
stack's own event-driven inference forward, run on float64 copies of the
blocks: the same rulebook conv, in float64, then the inference neurons
(batchnorm with running statistics and the PLIF update) at the live sites
plus one quiet trajectory per channel. The two paths differ only in the
per-site arithmetic. A rulebook depends on the input alone, so when
``run_quantize`` computes the reference itself it builds each window's
first-layer rulebook once and runs both paths from it (as sparse-conv
engines reuse one kernel map for every conv over the same active set);
each later layer builds its own, since the two paths' spikes differ.
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
from .numerics import WIDE, ops
from .snn import V_RESET, V_THRESHOLD, _event_forward, _event_spikes, _live_membranes, _Rulebook

INT32_MAX = np.int64(2**31 - 1)
QUANT_FORMAT_VERSION = 2


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
    ops.check_bn_statistics(var_bn, eps_bn)
    if tau < 1.0:
        raise NumericError(f"tau must be >= 1, got {tau}")
    denom = tau * np.sqrt(var_bn + eps_bn)
    weight_bn = np.asarray(weight_bn, dtype=np.float64)
    scale = np.asarray(q_scale, dtype=np.float64) * weight_bn / denom
    shift = np.asarray(bias_bn, np.float64) / tau - np.asarray(mean_bn, np.float64) * weight_bn / denom
    return FusedLIFParams(scale=scale, shift=shift)


def int_conv2d(
    x: np.ndarray, w: np.ndarray, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, int], int]:
    """Exact integer conv of the sites of ``x`` [N, C_in, H, W] that hold
    input: the rulebook conv (``snn._Rulebook``) with integer weights ``w``,
    checked and saturated by ``_int_conv``. Returns the [N, L+1, C_out] int64
    output rows at the ``live`` flat H'*W' sites plus one all-zero row
    standing for every other site, ``live``, the output (H', W'), and the
    saturation count.
    """
    book = _Rulebook(x, w.shape[2:], stride, padding)
    out, over = _int_conv(book, w)
    return out, book.live, book.hw, over


def _int_conv(book: _Rulebook, w: np.ndarray) -> tuple[np.ndarray, int]:
    """The integer conv of the input ``book`` was built from, with integer
    weights ``w``, and its saturation count.

    Partial sums are bounded by max|x| * max_c sum|w[c]|; a bound of 2**53 or
    more raises NumericError before any tap runs. Below it every product and
    partial sum is an integer that float64 holds exactly, so the taps run as
    float64 BLAS products, exact in any summation order, and the result is
    cast back to int64. Cells beyond the int32 range are then clamped and
    counted.
    """
    w = w.astype(np.int64)
    x_peak = max(int(book.rows.max(initial=0)), -int(book.rows.min(initial=0)))
    bound = x_peak * int(np.abs(w).reshape(len(w), -1).sum(axis=1).max(initial=0))
    if bound >= 2**53:
        raise NumericError(f"integer conv partial sums may reach {bound}, past float64's exact 2**53")
    out = book.conv(w.astype(np.float64)).astype(np.int64)
    over = 0
    if bound > INT32_MAX:  # otherwise no cell can leave the int32 range
        over = int(np.count_nonzero(np.abs(out) > INT32_MAX))
        out = np.clip(out, -INT32_MAX, INT32_MAX)
    return out, over


@dataclass
class FixedPointBlock:
    name: str
    quant: QuantParams
    fused: FusedLIFParams
    stride: int
    padding: int
    leak: float  # 1 / tau


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
            fused = fuse_bn_lif(
                mean_bn=blk.bn_mean,
                var_bn=blk.bn_var,
                weight_bn=blk.bn_gamma.data,
                bias_bn=blk.bn_beta.data,
                eps_bn=blk.bn_eps,
                tau=blk.tau,
                q_scale=quant.q_scale,
            )
            fpm.blocks.append(
                FixedPointBlock(
                    name=f"snn{i}",
                    quant=quant,
                    fused=fused,
                    stride=blk.cfg.stride,
                    padding=blk.cfg.padding,
                    leak=1.0 / blk.tau,
                )
            )
        return fpm


def fixed_point_forward(
    counts: np.ndarray, fpm: FixedPointModel, collect_layers: bool = False
) -> np.ndarray | list[np.ndarray]:
    """Integer-arithmetic spiking forward pass.

    ``counts``: [T, 2, H, W] integer event counts. Each layer runs the
    event-driven rulebook conv over the sites that hold input, exact in
    integers, then the fused membranes in float64 (``_live_membranes``).
    Returns the final boolean spike tensor, or all per-layer boolean spike
    tensors when ``collect_layers``. Saturation events accumulate on the
    model.
    """
    layers = _fixed_point_layers(_rulebook(_integer_counts(counts), fpm.blocks[0]), fpm)
    return layers if collect_layers else layers[-1]


def _integer_counts(counts: np.ndarray) -> np.ndarray:
    x = np.asarray(counts)
    if not np.issubdtype(x.dtype, np.integer):
        raise NumericError("fixed-point input must be integer event counts")
    return x


def _fixed_point_layers(book: _Rulebook, fpm: FixedPointModel) -> list[np.ndarray]:
    """Every layer's spikes of the fixed-point forward, from the rulebook
    ``book`` of its first layer's input; each later layer builds its own."""
    layers = []
    for blk in fpm.blocks:
        if layers:
            book = _rulebook(layers[-1], blk)
        y, over = _int_conv(book, blk.quant.int_weights)
        fpm.overflow_count += over
        layers.append(_live_membranes(_fused_lif(y, blk), book.live, book.hw))
    return layers


def _rulebook(x: np.ndarray, blk: FixedPointBlock) -> _Rulebook:
    return _Rulebook(x, blk.quant.int_weights.shape[2:], blk.stride, blk.padding)


def float_reference_spikes(
    model: HybridModel, counts: np.ndarray, collect_layers: bool = False
) -> np.ndarray | list[np.ndarray]:
    """Wide-float inference of the spiking stack (running batchnorm stats):
    the model's own event-driven inference forward, run on float64 copies of
    its blocks.

    ``counts``: [T, 2, H, W] event counts; any other shape raises
    ShapeError, and a non-finite weight or batchnorm statistic raises
    NumericError naming the layer. Each layer runs the rulebook conv in
    float64, then the inference neurons at the live sites and on one quiet
    trajectory per channel (``snn._event_spikes``). The fixed-point path is
    compared against this trajectory; both run their membranes in float64
    so differences come only from weight rounding. Returns boolean spike
    tensors, as the fixed-point forward does. The conv adds its taps per
    output cell in rulebook order, so a membrane can differ from a dense
    float64 conv's by a few ulps.
    """
    blk = model.snn_blocks[0]
    book = _Rulebook(np.asarray(counts), blk.conv_w.shape[2:], blk.cfg.stride, blk.cfg.padding)
    layers = _float_layers(book, model)
    return layers if collect_layers else layers[-1]


def _float_layers(book: _Rulebook, model: HybridModel) -> list[np.ndarray]:
    """Every layer's spikes of the float reference, from the rulebook
    ``book`` of its first layer's input; each later layer builds its own."""
    layers = [_event_spikes(book, model.snn_blocks[0].astype(WIDE), "snn1")]
    for i, blk in enumerate(model.snn_blocks[1:], start=2):
        layers.append(_event_forward(layers[-1], blk.astype(WIDE), f"snn{i}"))
    return layers


def _fused_lif(y: np.ndarray, blk: FixedPointBlock) -> np.ndarray:
    """Fused leaky integrate-and-fire over integer conv outputs [T, S, C]:
    V <- (1 - leak) V + (scale*y + shift), firing at V_THRESHOLD. Runs on a
    float64 [T, C, S] copy, so each channel's scale and shift broadcast
    along its rows, and returns the spikes in that layout."""
    u = y.transpose(0, 2, 1).astype(np.float64, order="C")
    u *= blk.fused.scale[:, None]
    u += blk.fused.shift[:, None]
    v = np.full(u.shape[1:], V_RESET, dtype=np.float64)
    fired = np.empty(u.shape, dtype=bool)
    keep = 1.0 - blk.leak
    for step in range(len(u)):
        v *= keep
        v += u[step]
        np.greater_equal(v, V_THRESHOLD, out=fired[step])
        v[fired[step]] = V_RESET
    return fired


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
        wrong = int(np.count_nonzero(diff))
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
    has another ``format_version`` (version 1 stored a threshold and a reset
    per layer), lacks a field, holds a ``bits`` outside ``QUANT_BITS``, a
    scalar field of the wrong type or range (see ``_SCALAR_CHECKS``), a
    weight entry that does not describe its bytes (the check of checkpoint
    entries) or points past the end of the weight blob, or a per-channel list
    that is not ``C_out`` finite numbers raises DataFormatError."""
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


def reference_layers(model: HybridModel, eval_windows: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Each window's float reference spikes, one array per spiking layer: what
    :func:`run_quantize` compares every bit width against."""
    return [float_reference_spikes(model, counts, collect_layers=True) for counts in eval_windows]


def run_quantize(
    model: HybridModel,
    bits: int,
    eval_windows: list[np.ndarray],
    ref_layers: list[list[np.ndarray]] | None = None,
) -> tuple[FixedPointModel, FidelityReport]:
    """Quantize a trained model and measure spike fidelity on held-out
    windows (all spiking layers pooled). The float reference does not depend
    on the width, so a sweep passes its :func:`reference_layers` as
    ``ref_layers``; without them it is computed here, and each window's
    first-layer rulebook serves both the reference and the fixed-point
    forward."""
    fpm = FixedPointModel.from_model(model, bits)
    refs: list[np.ndarray] = []
    tests: list[np.ndarray] = []
    names: list[str] = []
    if ref_layers is None:
        ref_layers = [None] * len(eval_windows)
    for counts, layers in zip(eval_windows, ref_layers, strict=True):
        book = _rulebook(_integer_counts(counts), fpm.blocks[0])
        refs += _float_layers(book, model) if layers is None else layers
        tests += _fixed_point_layers(book, fpm)
        names += [blk.name for blk in fpm.blocks]
    return fpm, fidelity_from_layers(refs, tests, names)
