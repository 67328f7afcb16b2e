"""Attention bridge from binary spike sequences to dense feature maps.

Pipeline per feature channel (weights shared across channels, activations
per-channel):

1. channel/time transpose so each channel's temporal evolution forms a
   [T, H, W] group;
2. offset-predicting conv plus time-separable deformable convolution: one
   deformable kernel per timestep (groups = T) samples K^2 positions at
   grid + learned offset via bilinear interpolation, so timesteps never mix;
3. temporal self-attention across the T planes: per-plane scalar query/key/
   value gains, row-softmax scores [T, T], score-weighted sum of value
   planes, then a learned 1x1 combination collapsing T -> 1;
4. a spatial gate: sigmoid of the time-summed spike rate multiplies the
   attended map elementwise.

Offset layout: the offset conv emits 2*K^2*T channels, ordered per timestep
block of 2*K^2 channels, tap-major pairs (dy, dx).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import NARROW, Tensor, ops


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
        if kernel % 2 != 1:
            raise ConfigError(f"bridge kernel must be odd, got {kernel}")
        if n_steps % heads != 0:
            raise ConfigError(f"heads ({heads}) must divide the {n_steps} timesteps")
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
    """[T, H, W] -> per-timestep per-tap (dy, dx) fields, [2*K^2*T, H, W]."""
    return _predict_offsets_batched(ops.reshape(a_c, (1,) + tuple(a_c.shape)), params)[0]


def _predict_offsets_batched(a: Tensor, params: BridgeParams) -> Tensor:
    k = params.kernel
    return ops.conv2d(a, params.offset_w, params.offset_b, stride=1, padding=(k - 1) // 2)


def _base_grid(k: int, h: int, w: int) -> tuple[np.ndarray, np.ndarray]:
    """Regular sampling positions per output pixel: [K^2, H, W] y and x."""
    pad = (k - 1) // 2
    taps = np.arange(k) - pad
    ky = np.repeat(taps, k)
    kx = np.tile(taps, k)
    yy = np.arange(h)[None, :, None] + ky[:, None, None]
    xx = np.arange(w)[None, None, :] + kx[:, None, None]
    return (
        np.broadcast_to(yy, (k * k, h, w)).astype(np.float64),
        np.broadcast_to(xx, (k * k, h, w)).astype(np.float64),
    )


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
    c, t, h, w = a.shape
    k = params.kernel
    j = k * k
    if offsets.shape != (c, 2 * j * t, h, w):
        raise ShapeError(
            f"offset channel axis expects {2 * j * t} fields, got shape {offsets.shape}"
        )
    off = ops.reshape(offsets, (c, t, j, 2, h, w))
    base_y, base_x = _base_grid(k, h, w)
    dtype = a.data.dtype
    ys = off[:, :, :, 0] + base_y.astype(dtype)
    xs = off[:, :, :, 1] + base_x.astype(dtype)
    planes = ops.reshape(a, (c * t, h, w))
    samples = ops.deform_sample(
        planes,
        ops.reshape(ys, (c * t, j, h, w)),
        ops.reshape(xs, (c * t, j, h, w)),
    )
    samples = ops.reshape(samples, (c, t, j, h, w))
    weighted = samples * ops.reshape(params.tsdc_w, (1, t, j, 1, 1))
    out = ops.sum(weighted, axis=2) + ops.reshape(params.tsdc_b, (1, t, 1, 1))
    return out


def _head_expander(t: int, heads: int, dtype) -> np.ndarray:
    """Constant [T, heads] matrix mapping per-head params to per-plane ones."""
    e = np.zeros((t, heads), dtype=dtype)
    group = t // heads
    for hd in range(heads):
        e[hd * group : (hd + 1) * group, hd] = 1.0
    return e


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


def _attention_scores_batched(a: Tensor, params: BridgeParams):
    """Scores [C, T, T] (block-diagonal over heads stitched per head) and the
    attended planes [C, T, H, W]."""
    c, t, h, w = a.shape
    hw = h * w
    expand = _head_expander(t, params.heads, a.data.dtype)
    vec = lambda p: ops.reshape(  # noqa: E731
        ops.matmul(expand, ops.reshape(p, (params.heads, 1))), (1, t, 1, 1)
    )
    q = a * vec(params.q_gain) + vec(params.q_bias)
    key = a * vec(params.k_gain) + vec(params.k_bias)
    val = a * vec(params.v_gain) + vec(params.v_bias)
    q_m = ops.reshape(q, (c, t, hw))
    k_m = ops.transpose(ops.reshape(key, (c, t, hw)), (0, 2, 1))
    v_m = ops.reshape(val, (c, t, hw))
    group = t // params.heads
    score_blocks = []
    attended_blocks = []
    for hd in range(params.heads):
        sl = slice(hd * group, (hd + 1) * group)
        logits = ops.matmul(q_m[:, sl, :], k_m[:, :, sl])
        if params.scale_scores:
            logits = logits * (1.0 / np.sqrt(hw))
        scores = ops.reshape(
            ops.softmax_rows(ops.reshape(logits, (c * group, group))), (c, group, group)
        )
        score_blocks.append(scores)
        attended_blocks.append(ops.matmul(scores, v_m[:, sl, :]))
    attended = ops.reshape(ops.concat(attended_blocks, axis=1), (c, t, h, w))
    if params.heads == 1:
        return score_blocks[0], attended
    return score_blocks, attended


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
        offsets = _predict_offsets_batched(a_in, params)
        a_sc = _tsdc_batched(a_in, offsets, params)
    if variant == "no-ta":
        c, t, h, w = a_sc.shape
        a_out = ops.reshape(ops.conv2d(a_sc, params.comb_w, params.comb_b), (c, h, w))
    else:
        a_out = _temporal_attention_batched(a_sc, params)
    if variant == "no-ers":
        return a_out
    return ers_gate(e_spike, a_out)
