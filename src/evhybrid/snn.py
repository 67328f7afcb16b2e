"""Spiking front-end: conv -> batchnorm -> leaky integrate-and-fire blocks.

Each block maps a [T, C, H, W] sequence to a strictly binary spike sequence.
The neuron's leak is trainable through an unconstrained parameter w with
1/tau = sigmoid(w), so tau >= 1 for every representable w. Training uses an
arctan surrogate derivative for the threshold; a smooth mode replaces the
hard threshold by the surrogate's primitive so whole networks can be checked
against finite differences.

Layer strings follow the grammar ``<C>c<K>p<P>s<S>`` (out-channels, kernel,
padding, stride), e.g. ``64c3p1s2``. The conv -> batchnorm layer here
(``ConvSpec``, ``ConvBNBlock``, ``conv_bn``) is shared with the dense blocks.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, NumericError
from .numerics import NARROW, Tensor, ops

_LAYER_RE = re.compile(r"(\d+)c(\d+)p(\d+)s(\d+)")


def parse_layer_string(spec: str) -> tuple[int, int, int, int]:
    """Parse ``<C>c<K>p<P>s<S>`` into (out_channels, kernel, padding, stride)."""
    s = spec.strip()
    m = _LAYER_RE.fullmatch(s)
    if not m:
        prefix = _LAYER_RE.match(s)
        pos = prefix.end() if prefix else 0
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        raise ConfigError(f"malformed layer string {s!r}: parse error at position {pos}")
    return tuple(int(g) for g in m.groups())  # type: ignore[return-value]


@dataclass
class ConvSpec:
    """Geometry of one conv layer, written ``<C>c<K>p<P>s<S>``."""

    out_channels: int
    kernel: int = 3
    padding: int = 1
    stride: int = 1

    def __post_init__(self):
        if self.stride not in (1, 2):
            raise ConfigError(f"block stride must be 1 or 2, got {self.stride}")

    @classmethod
    def from_string(cls, spec: str, **extra):
        c, k, p, s = parse_layer_string(spec)
        return cls(out_channels=c, kernel=k, padding=p, stride=s, **extra)

    def to_string(self) -> str:
        return f"{self.out_channels}c{self.kernel}p{self.padding}s{self.stride}"


class ConvBNBlock:
    """Conv weights, batchnorm affine parameters and running statistics of one
    conv -> batchnorm layer; the spiking and dense blocks add their activation."""

    batch_norm = True  # normalizes with batch and running statistics

    def __init__(self, in_channels: int, cfg: ConvSpec, rng: np.random.Generator, dtype=NARROW):
        self.cfg = cfg
        self.in_channels = in_channels
        k, c = cfg.kernel, cfg.out_channels
        bound = 1.0 / np.sqrt(in_channels * k * k)
        self.conv_w = Tensor(rng.uniform(-bound, bound, (c, in_channels, k, k)).astype(dtype), requires_grad=True)
        self.conv_b = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        self.bn_gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        self.bn_beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        self.bn_mean = np.zeros(c, dtype=dtype)
        self.bn_var = np.ones(c, dtype=dtype)
        self.bn_eps = 1e-5
        self.bn_momentum = 0.9  # keep 0.9 of the running stat per update

    def parameters(self):
        return {"conv_w": self.conv_w, "conv_b": self.conv_b, "bn_gamma": self.bn_gamma, "bn_beta": self.bn_beta}


def conv_bn(x: Tensor, block: ConvBNBlock, training: bool, update_stats: bool = True) -> Tensor:
    """conv -> batchnorm on [..., C_in, H, W].

    In training, batch statistics pool over every axis except C (time, H and
    W for a [T, C, H, W] sequence) and, when ``update_stats``, fold into the
    running averages with the block's momentum; inference normalizes with
    the running averages.
    """
    cfg = block.cfg
    y = ops.conv2d(x, block.conv_w, block.conv_b, stride=cfg.stride, padding=cfg.padding)
    if not training:
        return ops.batchnorm2d(y, block.bn_mean, block.bn_var, block.bn_gamma, block.bn_beta, block.bn_eps)
    axes = tuple(i for i in range(y.ndim) if i != y.ndim - 3)
    mu = ops.mean(y, axis=axes)
    var = ops.mean((y - ops.reshape(mu, (1,) * (y.ndim - 3) + (-1, 1, 1))) ** 2.0, axis=axes)
    if update_stats:
        m = block.bn_momentum
        block.bn_mean = m * block.bn_mean + (1 - m) * mu.data.astype(block.bn_mean.dtype)
        block.bn_var = m * block.bn_var + (1 - m) * var.data.astype(block.bn_var.dtype)
    return ops.batchnorm2d(y, mu, var, block.bn_gamma, block.bn_beta, block.bn_eps)


@dataclass
class PLIFParams:
    """Trainable leak parameter plus threshold/reset constants.

    tau = 1 / sigmoid(w); defaults fire at 1.0 and hard-reset to 0.0.
    """

    w: Tensor
    v_threshold: float = 1.0
    v_reset: float = 0.0

    @classmethod
    def init(cls, dtype=NARROW, v_threshold: float = 1.0, v_reset: float = 0.0) -> "PLIFParams":
        # w = 0 gives sigmoid(w) = 0.5, i.e. tau = 2
        return cls(Tensor(np.zeros((), dtype=dtype), requires_grad=True), v_threshold, v_reset)

    @property
    def tau(self) -> float:
        return float(1.0 / _sigmoid_scalar(float(self.w.data)))


def _sigmoid_scalar(x: float) -> float:
    return 1.0 / (1.0 + np.exp(-x)) if x >= 0 else np.exp(x) / (1.0 + np.exp(x))


@dataclass
class PLIFState:
    """Per-sequence membrane potential; reset before every new sequence."""

    v: Tensor | None = None


@dataclass
class SNNBlockConfig(ConvSpec):
    v_threshold: float = 1.0
    v_reset: float = 0.0


def surrogate_heaviside(u: Tensor, smooth: bool = False, alpha: float = 2.0) -> Tensor:
    """Spike nonlinearity: hard Heaviside forward, arctan surrogate backward.

    The surrogate derivative is alpha / (2 * (1 + (pi/2 * alpha * u)^2)); at
    u = 0 it equals alpha / 2. ``smooth=True`` swaps in the surrogate's
    primitive as the forward value for finite-difference checking.
    """
    return ops.spike(u, smooth=smooth, alpha=alpha)


def plif_step(
    state: PLIFState,
    x_t: Tensor,
    params: PLIFParams,
    smooth: bool = False,
    context: str = "plif",
    t: int | None = None,
) -> tuple[Tensor, Tensor]:
    """One membrane update: V <- V + sigmoid(w) * (X - (V - v_reset)).

    Fires where the candidate membrane reaches v_threshold, hard-resetting
    those cells to v_reset. In hard mode the reset factor is detached from
    the gradient; in smooth mode everything stays differentiable.
    Returns (new membrane, spikes) and stores the membrane in ``state``.
    """
    leak = ops.sigmoid(params.w)
    if state.v is None:
        state.v = Tensor(np.full(x_t.shape, params.v_reset, dtype=x_t.data.dtype))
    v = state.v
    v_pre = v + leak * (x_t - (v - params.v_reset))
    if not np.all(np.isfinite(v_pre.data)):
        where = f" at t={t}" if t is not None else ""
        raise NumericError(f"non-finite membrane in {context}{where}")
    spikes = surrogate_heaviside(v_pre - params.v_threshold, smooth=smooth)
    gate = spikes if smooth else spikes.detach()
    v_new = v_pre - gate * (v_pre - params.v_reset)
    state.v = v_new
    return v_new, spikes


def plif_sequence(
    x: Tensor, params: PLIFParams, smooth: bool = False, context: str = "plif"
) -> Tensor:
    """Run ``plif_step`` over the leading time axis of [T, ...]."""
    state = PLIFState()
    outs = []
    for t in range(x.shape[0]):
        _, s = plif_step(state, x[t], params, smooth=smooth, context=context, t=t)
        outs.append(s)
    return ops.stack(outs, axis=0)


class SNNBlock(ConvBNBlock):
    """Parameters of one conv -> batchnorm -> spiking-neuron block."""

    def __init__(self, in_channels: int, cfg: SNNBlockConfig, rng: np.random.Generator, dtype=NARROW):
        super().__init__(in_channels, cfg, rng, dtype=dtype)
        self.plif = PLIFParams.init(dtype=dtype, v_threshold=cfg.v_threshold, v_reset=cfg.v_reset)

    def astype(self, dtype) -> "SNNBlock":
        """Copy of the block with every Tensor and array attribute (weights and
        running statistics) and the neuron's leak parameter cast to ``dtype``."""
        out = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, (Tensor, np.ndarray)):
                setattr(out, name, value.astype(dtype))
        out.plif = replace(self.plif, w=self.plif.w.astype(dtype))
        return out

    def parameters(self):
        return {**super().parameters(), "plif_w": self.plif.w}


def snn_block_forward(
    x: Tensor,
    block: SNNBlock,
    training: bool = False,
    smooth: bool = False,
    context: str = "snn",
) -> Tensor:
    """[T, C_in, H, W] -> binary [T, C_out, H', W'].

    The conv treats time as the batch axis; see ``conv_bn`` for the
    batchnorm. smooth=True also bypasses running-stat updates.
    """
    y = conv_bn(x, block, training, update_stats=not smooth)
    return plif_sequence(y, block.plif, smooth=smooth, context=context)


def snn_backbone_forward(
    x: Tensor,
    blocks: list[SNNBlock],
    training: bool = False,
    smooth: bool = False,
    trace: list | None = None,
) -> Tensor:
    """Sequential spiking stack; ``x`` is the [T, 2, H, W] count tensor as
    floats. When ``trace`` is a list, per-layer input nonzero masks are
    appended for the event-driven cost counter."""
    if not blocks:
        raise ConfigError("spiking backbone needs at least one block")
    out = x
    for i, block in enumerate(blocks):
        if trace is not None:
            trace.append(
                {
                    "name": f"snn{i + 1}",
                    "nonzero": out.data != 0,
                    "kernel": block.cfg.kernel,
                    "stride": block.cfg.stride,
                    "padding": block.cfg.padding,
                    "out_channels": block.cfg.out_channels,
                    "groups": 1,
                }
            )
        out = snn_block_forward(out, block, training=training, smooth=smooth, context=f"snn{i + 1}")
    return out
