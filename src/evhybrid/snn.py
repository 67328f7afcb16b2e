"""Spiking front-end: conv -> batchnorm -> leaky integrate-and-fire blocks.

Each block maps a [T, C, H, W] sequence to a strictly binary spike sequence.
The neuron is PLIF (Fang et al. 2021): it fires at V_THRESHOLD = 1 and
hard-resets to V_RESET = 0, and its one trained value is the leak, through an
unconstrained parameter w with 1/tau = sigmoid(w), so tau >= 1 for every
representable w. Training uses an arctan surrogate derivative for the
threshold; a smooth mode replaces the hard threshold by the surrogate's
primitive so whole networks can be checked against finite differences.

A block's time loop is one op, ``ops.plif_scan``: a numpy loop over T in the
forward and a hand-written backpropagation-through-time pullback, one tape
node per block call. ``plif_step`` is the one-step update written op by op;
the tests loop it over T as the oracle for ``plif_scan``.

Layer strings follow the grammar ``<C>c<K>p<P>s<S>`` (out-channels, kernel,
padding, stride), e.g. ``64c3p1s2``. The conv -> batchnorm layer here
(``ConvSpec``, ``ConvBNBlock``, ``conv_bn``) is shared with the dense blocks;
its conv has no bias, so batchnorm's ``bn_beta`` is the layer's one offset.
"""

from __future__ import annotations

import copy
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericError
from .numerics import NARROW, Tensor, ops

_LAYER_RE = re.compile(r"(\d+)c(\d+)p(\d+)s(\d+)")

# ops.plif_scan has both values written in; it, plif_step and
# quantize._fused_lif drop the reset term, which needs V_RESET = 0
V_THRESHOLD = 1.0
V_RESET = 0.0


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
        for key in ("out_channels", "kernel"):
            if getattr(self, key) < 1:
                raise ConfigError(f"layer {key} must be at least 1, got {getattr(self, key)}")
        if self.stride not in (1, 2):
            raise ConfigError(f"block stride must be 1 or 2, got {self.stride}")

    @classmethod
    def from_string(cls, spec: str) -> "ConvSpec":
        c, k, p, s = parse_layer_string(spec)
        return cls(out_channels=c, kernel=k, padding=p, stride=s)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        """Output (height, width) of the conv on an [h, w] input; an extent
        below 1 means the layer leaves no output."""
        k, p, s = self.kernel, self.padding, self.stride
        return (h + 2 * p - k) // s + 1, (w + 2 * p - k) // s + 1


class ConvBNBlock:
    """Conv weights, batchnorm affine parameters and running statistics of one
    conv -> batchnorm layer; the spiking and dense blocks add their activation.
    The conv has no bias: batchnorm subtracts the mean of its output, so a
    per-channel bias would cancel, and ``bn_beta`` is the layer's offset."""

    def __init__(self, in_channels: int, cfg: ConvSpec, rng: np.random.Generator, dtype=NARROW):
        self.cfg = cfg
        self.in_channels = in_channels
        k, c = cfg.kernel, cfg.out_channels
        bound = 1.0 / np.sqrt(in_channels * k * k)
        self.conv_w = Tensor(rng.uniform(-bound, bound, (c, in_channels, k, k)).astype(dtype), requires_grad=True)
        self.bn_gamma = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        self.bn_beta = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        self.bn_mean = np.zeros(c, dtype=dtype)
        self.bn_var = np.ones(c, dtype=dtype)
        self.bn_eps = 1e-5
        self.bn_momentum = 0.9  # keep 0.9 of the running stat per update

    def parameters(self):
        return {"conv_w": self.conv_w, "bn_gamma": self.bn_gamma, "bn_beta": self.bn_beta}


def conv_bn(x: Tensor, block: ConvBNBlock, training: bool, update_stats: bool = True) -> Tensor:
    """conv -> batchnorm on [..., C_in, H, W].

    In training, batch statistics pool over every axis except C (time, H and
    W for a [T, C, H, W] sequence) and, when ``update_stats``, fold into the
    running averages with the block's momentum; inference normalizes with
    the running averages.
    """
    cfg = block.cfg
    y = ops.conv2d(x, block.conv_w, stride=cfg.stride, padding=cfg.padding)
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


def plif_step(
    v: Tensor | None,
    x_t: Tensor,
    w: Tensor,
    smooth: bool = False,
    context: str = "plif",
    t: int | None = None,
) -> tuple[Tensor, Tensor]:
    """One membrane update: V <- V + sigmoid(w) * (X - V), from rest when
    ``v`` is None.

    Fires where the candidate membrane reaches V_THRESHOLD, hard-resetting
    those cells to V_RESET = 0, so the reset is V <- V - spike * V. In hard
    mode the reset factor is detached from the gradient; in smooth mode
    everything stays differentiable. Returns (new membrane, spikes).
    """
    leak = ops.sigmoid(w)
    if v is None:
        v = Tensor(np.full(x_t.shape, V_RESET, dtype=x_t.data.dtype))
    v_pre = v + leak * (x_t - v)
    if not np.all(np.isfinite(v_pre.data)):
        where = f" at t={t}" if t is not None else ""
        raise NumericError(f"non-finite membrane in {context}{where}")
    spikes = ops.spike(v_pre - V_THRESHOLD, smooth=smooth)
    gate = spikes if smooth else spikes.detach()
    return v_pre - gate * v_pre, spikes


class SNNBlock(ConvBNBlock):
    """Parameters of one conv -> batchnorm -> spiking-neuron block. The
    neuron's one parameter is ``plif_w``, with 1/tau = sigmoid(plif_w)."""

    def __init__(self, in_channels: int, cfg: ConvSpec, rng: np.random.Generator, dtype=NARROW):
        super().__init__(in_channels, cfg, rng, dtype=dtype)
        # w = 0 gives sigmoid(w) = 0.5, i.e. tau = 2
        self.plif_w = Tensor(np.zeros((), dtype=dtype), requires_grad=True)

    @property
    def tau(self) -> float:
        """The membrane time constant 1 / sigmoid(plif_w), in float64."""
        return float(1.0 / ops.sigmoid(Tensor(self.plif_w.data.astype(np.float64))).data)

    def astype(self, dtype) -> "SNNBlock":
        """Copy of the block with every Tensor and array attribute (weights,
        running statistics and the leak parameter) cast to ``dtype``."""
        out = copy.copy(self)
        for name, value in vars(self).items():
            if isinstance(value, (Tensor, np.ndarray)):
                setattr(out, name, value.astype(dtype))
        return out

    def parameters(self):
        return {**super().parameters(), "plif_w": self.plif_w}


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
    return ops.plif_scan(y, block.plif_w, smooth=smooth, context=context)


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
