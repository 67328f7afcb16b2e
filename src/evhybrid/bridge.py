"""Attention bridge from binary spike sequences to dense feature maps.

Pipeline per feature channel (weights shared across channels, activations
per-channel):

1. channel/time transpose so each channel's temporal evolution forms a
   [T, H, W] group;
2. offset-predicting conv plus time-separable deformable convolution: one
   deformable kernel per timestep (groups = T) samples K^2 positions at
   grid + learned offset via bilinear interpolation, so timesteps never mix;
3. temporal self-attention: each of the heads takes G = T/heads consecutive
   planes, with one scalar query/key/value gain and bias per head, row-softmax
   scores [G, G] and a score-weighted sum of its value planes; a learned 1x1
   combination then collapses T -> 1;
4. a spatial gate: sigmoid of the time-summed spike rate multiplies the
   attended map elementwise.

Offset layout: the offset conv emits 2*K^2*T channels, ordered per timestep
block of 2*K^2 channels, tap-major pairs (dy, dx).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import NARROW, Tensor, ops


def check_bridge_geometry(kernel: int, heads: int, n_steps: int) -> None:
    """Raise ConfigError unless the kernel is odd and at least 1, and there
    is at least one head and the heads divide the ``n_steps`` timesteps."""
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigError(f"bridge_kernel must be odd and at least 1, got {kernel}")
    if heads < 1 or n_steps % heads != 0:
        raise ConfigError(f"bridge_heads ({heads}) must be at least 1 and divide T ({n_steps})")


@dataclass
class BridgeParams:
    """Shared weights of the bridge for a fixed number of timesteps T."""

    n_steps: int
    kernel: int
    heads: int
    offset_w: Tensor
    offset_b: Tensor
    tsdc_w: Tensor
    tsdc_b: Tensor
    q_gain: Tensor
    q_bias: Tensor
    k_gain: Tensor
    k_bias: Tensor
    v_gain: Tensor
    v_bias: Tensor
    comb_w: Tensor
    comb_b: Tensor
    scale_scores: bool = False

    @classmethod
    def init(
        cls,
        n_steps: int,
        kernel: int = 5,
        heads: int = 1,
        rng: np.random.Generator | None = None,
        dtype=NARROW,
        scale_scores: bool = False,
    ) -> "BridgeParams":
        check_bridge_geometry(kernel, heads, n_steps)
        rng = rng or np.random.default_rng(0)
        t, k = n_steps, kernel
        n_off = 2 * k * k * t
        bound = 1.0 / np.sqrt(t * k * k)

        def param(arr):
            return Tensor(np.asarray(arr, dtype=dtype), requires_grad=True)

        return cls(
            n_steps=t,
            kernel=k,
            heads=heads,
            # zero init: training starts from the regular sampling grid
            offset_w=param(np.zeros((n_off, t, k, k))),
            offset_b=param(np.zeros(n_off)),
            tsdc_w=param(rng.uniform(-bound, bound, (t, 1, k, k))),
            tsdc_b=param(np.zeros(t)),
            # modest query/key gains keep the initial score softmax flat on
            # binary planes, where unit gains would saturate it
            q_gain=param(np.full(heads, 0.5)),
            q_bias=param(np.zeros(heads)),
            k_gain=param(np.full(heads, 0.5)),
            k_bias=param(np.zeros(heads)),
            v_gain=param(np.ones(heads)),
            v_bias=param(np.zeros(heads)),
            comb_w=param(np.full((1, t, 1, 1), 1.0 / t)),
            comb_b=param(np.zeros(1)),
            scale_scores=scale_scores,
        )

    def parameters(self):
        """The trainable Tensors, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if isinstance(getattr(self, f.name), Tensor)}


def temporal_grouping(e_spike: Tensor) -> Tensor:
    """[T, C, H, W] -> [C, T, H, W]: pure transpose, values untouched."""
    return ops.transpose(e_spike, (1, 0, 2, 3))


def predict_offsets(a_c: Tensor, params: BridgeParams) -> Tensor:
    """[T, H, W] -> per-timestep per-tap (dy, dx) fields, [2*K^2*T, H, W]; a
    leading channel axis, [C, T, H, W] -> [C, 2*K^2*T, H, W], is kept."""
    k = params.kernel
    return ops.conv2d(a_c, params.offset_w, params.offset_b, stride=1, padding=(k - 1) // 2)


def tsdc(a_c: Tensor, offsets: Tensor, params: BridgeParams) -> Tensor:
    """Time-separable deformable convolution of one channel group.

    ``a_c``: [T, H, W]; ``offsets``: [2*K^2*T, H, W]. Each timestep is
    convolved only with its own plane (independent groups), sampling at
    grid + offset with zero padding outside the plane.
    """
    a = ops.reshape(a_c, (1,) + tuple(a_c.shape))
    off = ops.reshape(offsets, (1,) + tuple(offsets.shape))
    return _tsdc_batched(a, off, params)[0]


def _tsdc_batched(a: Tensor, offsets: Tensor, params: BridgeParams) -> Tensor:
    t = params.n_steps
    return ops.deform_conv(a, offsets, params.tsdc_w) + ops.reshape(params.tsdc_b, (1, t, 1, 1))


def _deformable_branch(a: Tensor, params: BridgeParams) -> Tensor:
    """Offsets and deformable conv of [C, T, H, W] planes, one channel chunk
    at a time, so the [C, 2*K^2*T, H, W] offset field never exists whole."""
    c, t, h, w = a.shape
    step = ops.deform_chunk(t, params.kernel, h, w, a.dtype)
    chunks = [a] if step >= c else [a[c0 : c0 + step] for c0 in range(0, c, step)]
    outs = [_tsdc_batched(a_k, predict_offsets(a_k, params), params) for a_k in chunks]
    return outs[0] if len(outs) == 1 else ops.concat(outs, axis=0)


def temporal_attention(a_sc: Tensor, params: BridgeParams) -> Tensor:
    """Self-attention over the T planes of [T, H, W], collapsed to [H, W]."""
    out = _temporal_attention_batched(ops.reshape(a_sc, (1,) + tuple(a_sc.shape)), params)
    return out[0]


def attention_parts(a_sc: Tensor, params: BridgeParams) -> tuple[Tensor, Tensor]:
    """(scores [T, T], attended planes [T, H, W]) before the 1x1 combination.

    Only defined for a single head; used by the equivariance checks.
    """
    if params.heads != 1:
        raise ConfigError("attention_parts is single-head only")
    a = ops.reshape(a_sc, (1,) + tuple(a_sc.shape))
    scores, attended = _attention_scores_batched(a, params)
    t, h, w = a_sc.shape
    return ops.reshape(scores, (t, t)), ops.reshape(attended, (t, h, w))


def _attention_scores_batched(a: Tensor, params: BridgeParams) -> tuple[Tensor, Tensor]:
    """Scores [C, heads, G, G] and the attended planes [C, T, H, W], where
    head ``hd`` attends over its own G = T/heads consecutive planes."""
    c, t, h, w = a.shape
    heads = params.heads
    g = t // heads
    a_m = ops.reshape(a, (c, heads, g, h * w))
    vec = lambda p: ops.reshape(p, (1, heads, 1, 1))  # noqa: E731
    q = a_m * vec(params.q_gain) + vec(params.q_bias)
    key = a_m * vec(params.k_gain) + vec(params.k_bias)
    val = a_m * vec(params.v_gain) + vec(params.v_bias)
    logits = ops.matmul(q, ops.transpose(key, (0, 1, 3, 2)))
    if params.scale_scores:
        # a Python float keeps float32 logits in float32
        logits = logits * (1.0 / math.sqrt(h * w))
    scores = ops.reshape(ops.softmax_rows(ops.reshape(logits, (c * t, g))), (c, heads, g, g))
    attended = ops.reshape(ops.matmul(scores, val), (c, t, h, w))
    return scores, attended


def _temporal_attention_batched(a: Tensor, params: BridgeParams) -> Tensor:
    c, t, h, w = a.shape
    _, attended = _attention_scores_batched(a, params)
    out = ops.conv2d(attended, params.comb_w, params.comb_b)
    return ops.reshape(out, (c, h, w))


def ers_gate(e_spike: Tensor, a_out: Tensor) -> Tensor:
    """Gate features by event activity: sigmoid(sum_t spikes) (.) a_out."""
    if e_spike.shape[1:] != a_out.shape:
        raise ShapeError(
            f"gate shape mismatch: spikes {e_spike.shape} vs features {a_out.shape}"
        )
    s_rate = ops.sum(e_spike, axis=0)
    return ops.sigmoid(s_rate) * a_out


# the ablation wirings of ``asab_forward``, in the order ablations run them
VARIANTS = ("full", "no-ta", "no-deform", "no-ers", "no-asab")


def asab_forward(e_spike: Tensor, params: BridgeParams, variant: str = "full") -> Tensor:
    """Full bridge: [T, C, H, W] spikes -> dense [C, H, W] features.

    ``variant`` selects the ablation wiring (one of ``VARIANTS``):
      full       grouping -> offsets -> deformable conv -> attention -> gate
      no-ta      attention replaced by the 1x1 temporal combination alone
      no-deform  deformable conv replaced by the regular-grid conv
      no-ers     the event-rate gate is skipped
      no-asab    the whole bridge replaced by a plain sum over time
    """
    if variant not in VARIANTS:
        raise ConfigError(f"unknown bridge variant {variant!r}")
    if variant == "no-asab":
        return ops.sum(e_spike, axis=0)
    a_in = temporal_grouping(e_spike)
    if variant == "no-deform":
        k = params.kernel
        a_sc = ops.conv2d(
            a_in, params.tsdc_w, params.tsdc_b, stride=1, padding=(k - 1) // 2,
            groups=params.n_steps,
        )
    else:
        a_sc = _deformable_branch(a_in, params)
    if variant == "no-ta":
        c, t, h, w = a_sc.shape
        a_out = ops.reshape(ops.conv2d(a_sc, params.comb_w, params.comb_b), (c, h, w))
    else:
        a_out = _temporal_attention_batched(a_sc, params)
    if variant == "no-ers":
        return a_out
    return ers_gate(e_spike, a_out)
