"""Attention bridge from binary spike sequences to dense feature maps.

Pipeline per feature channel (weights shared across channels, activations
per-channel):

1. channel/time transpose so each channel's temporal evolution forms a
   [T, H, W] group;
2. offset-predicting conv plus time-separable deformable convolution: one
   deformable kernel per timestep (groups = T) samples K^2 positions at
   grid + learned offset via bilinear interpolation, so timesteps never mix;
3. temporal self-attention: each of the heads takes G = T/heads consecutive
   planes, with one scalar query/key/value gain and query/value bias per head
   (no key bias: it shifts a whole score row, which the softmax cancels),
   row-softmax scores [G, G] of the unscaled logits and a score-weighted sum
   of its value planes; a learned 1x1 combination then collapses T -> 1;
4. a spatial gate: sigmoid of the time-summed spike rate multiplies the
   attended map elementwise.

Offset layout: the offset conv emits 2*K^2*T channels, ordered per timestep
block of 2*K^2 channels, tap-major pairs (dy, dx).

Step 2 runs one channel chunk at a time on one of two paths. Under a tape
that needs the planes' or a bridge parameter's gradients (training, gradient
checks), each chunk runs the offset conv and the differentiable
``ops.deform_conv``. Otherwise nothing will be differentiated and each chunk
runs event-driven, so its cost follows the spikes: a channel without spikes
costs nothing; for the others the offset conv runs dense, and the bilinear
samples are computed only at the cells that can read a nonzero plane cell,
with the per-cell arithmetic of ``ops.deform_conv`` (its helpers
``_deform_samples`` and ``_tap_sum``). Every other cell reads only zeros and
gets the value the dense op gives it, the tap sum of zero samples plus
``tsdc_b``, so both paths give the same output. Attention, the 1x1
combination and the gate always run dense.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, NumericError, ShapeError
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
    v_gain: Tensor
    v_bias: Tensor
    comb_w: Tensor
    comb_b: Tensor

    @classmethod
    def init(
        cls,
        n_steps: int,
        kernel: int = 5,
        heads: int = 1,
        rng: np.random.Generator | None = None,
        dtype=NARROW,
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
            v_gain=param(np.ones(heads)),
            v_bias=param(np.zeros(heads)),
            comb_w=param(np.full((1, t, 1, 1), 1.0 / t)),
            comb_b=param(np.zeros(1)),
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


def tsdc(a: Tensor, offsets: Tensor, params: BridgeParams) -> Tensor:
    """Time-separable deformable convolution of [C, T, H, W] channel groups.

    ``offsets``: [C, 2*K^2*T, H, W]. Each timestep is convolved only with its
    own plane (independent groups), sampling at grid + offset with zero
    padding outside the plane.
    """
    t = params.n_steps
    return ops.deform_conv(a, offsets, params.tsdc_w) + ops.reshape(params.tsdc_b, (1, t, 1, 1))


def _deformable_branch(a: Tensor, params: BridgeParams) -> Tensor:
    """Offsets and deformable conv of [C, T, H, W] planes, one channel chunk
    at a time, so the [C, 2*K^2*T, H, W] offset field never exists whole.

    Under a tape that needs the planes' or a bridge parameter's gradients,
    each chunk runs ``tsdc`` on ``predict_offsets``; otherwise nothing will
    be differentiated and each chunk runs event-driven (``_event_chunk``)."""
    c, t, h, w = a.shape
    step = ops.deform_chunk(t, params.kernel, h, w, a.dtype)
    chunks = range(0, c, step)
    if not ops.recording(a, *params.parameters().values()):
        ow, ob = params.offset_w.data, params.offset_b.data
        # a non-finite offset weight spoils every coordinate of the dense op,
        # which raises so even on a silent window, where no chunk meets it
        if not (np.isfinite(ow).all() and np.isfinite(ob).all()):
            raise NumericError("deform_conv: non-finite sampling coordinate")
        pd = a.data
        w_tap = params.tsdc_w.data.reshape(t, -1).T  # [K^2, T]
        # the output at step t of a cell whose corners all read 0
        quiet = ops._tap_sum(np.zeros(w_tap.shape, np.result_type(pd, ow)), w_tap) + params.tsdc_b.data
        out = np.empty((c, t, h, w), quiet.dtype)
        out[:] = quiet[:, None, None]
        for c0 in chunks:
            _event_chunk(pd[c0 : c0 + step], params, w_tap, out[c0 : c0 + step])
        return Tensor(out)
    outs = [tsdc(a[c0 : c0 + step], predict_offsets(a[c0 : c0 + step], params), params) for c0 in chunks]
    return outs[0] if len(outs) == 1 else ops.concat(outs, axis=0)


# sampled taps per block of the event-driven branch: bounds its sampling
# temporaries (about 60 B per tap in float32) at any input size
_BLOCK_TAPS = 1 << 16


def _event_chunk(pd: np.ndarray, params: BridgeParams, w_tap: np.ndarray, out: np.ndarray) -> None:
    """Write the deformable branch's output cells of the [C, T, H, W]
    planes ``pd`` that can differ from the quiet value ``out`` holds.

    A channel without input keeps the quiet value everywhere. For the others
    the offsets come from the dense offset conv, whose products by the
    weights are all zero at a site its K x K box does not reach: there the
    offsets are exactly ``offset_b``. The cells computed are all T cells of
    each live site (one that the box reaches), and the cells of the other
    sites where some tap's 2x2 corner block at grid + ``offset_b`` can touch
    a nonzero cell of its own plane, and none of a plane without one. As
    ``floor(b + n)`` of an integer n is ``floor(b) + n`` or one more, the
    rows floor(b_y) + dy .. floor(b_y) + dy + 2 of a tap (dy, dx) hold its
    corner rows; the box of these rows and the like columns over all taps
    and steps, dilating the nonzero cells, marks the cells to compute. Every
    other cell's corners read 0. Computed cells run ``ops._deform_samples``
    and ``ops._tap_sum`` on [K^2, M] arrays, the arithmetic of
    ``ops.deform_conv``, then add ``tsdc_b``, so the output equals the dense
    branch's (up to the sign of a zero).
    """
    act = pd != 0
    busy = np.flatnonzero(act.reshape(len(pd), -1).any(axis=1))
    if not len(busy):
        return
    if len(busy) < len(pd):
        pd, act = pd[busy], act[busy]
    c, t, h, w = pd.shape
    k = params.kernel
    j, pad, hw = k * k, (k - 1) // 2, h * w
    od = predict_offsets(pd, params).data.ravel()  # [C, T, K^2, 2, H, W]
    live = _box_any(act.any(axis=1), (-pad, pad), (-pad, pad))
    # the box of corner rows and columns a quiet site's taps can read,
    # relative to the site, over all steps; floors far outside the plane
    # are clipped to ones that are still outside it
    taps = np.arange(k) - pad
    fb = np.floor(params.offset_b.data.reshape(t, j, 2))
    dy = np.clip(fb[:, :, 0], -h - k - 2, h + k + 2).astype(np.intp) + np.repeat(taps, k)
    dx = np.clip(fb[:, :, 1], -w - k - 2, w + k + 2).astype(np.intp) + np.tile(taps, k)
    reach = _box_any(act, (dy.min(), dy.max() + 2), (dx.min(), dx.max() + 2))
    reach |= live[:, None] & act.any(axis=(2, 3), keepdims=True)  # a silent plane samples 0
    cells = np.flatnonzero(reach)  # (c * T + t) * H * W + site
    # the plane of ``out`` that each busy plane writes
    out_plane = (busy[:, None] * t + np.arange(t)).ravel()
    corners, out = ops._corner_planes(pd), out.reshape(-1)
    tap_y = np.repeat(taps, k).astype(pd.dtype)[:, None]
    tap_x = np.tile(taps, k).astype(pd.dtype)[:, None]
    tap_at = np.arange(0, 2 * j * hw, 2 * hw)[:, None]
    size = max(1, _BLOCK_TAPS // j)
    for lo in range(0, len(cells), size):
        plane, site = np.divmod(cells[lo : lo + size], hw)
        at = plane * (2 * j * hw) + site + tap_at  # [K^2, M]: each tap's dy field
        y, x = np.divmod(site, w)
        step = plane % t
        samples, _ = ops._deform_samples(
            corners, (h, w), od.take(at), od.take(at + hw),
            y.astype(pd.dtype) + tap_y, x.astype(pd.dtype) + tap_x, plane,
        )
        out[out_plane[plane] * hw + site] = ops._tap_sum(samples, w_tap[:, step]) + params.tsdc_b.data[step]


def _box_any(mask: np.ndarray, rows: tuple[int, int], cols: tuple[int, int]) -> np.ndarray:
    """Whether ``mask`` [..., H, W] holds a True in the box of rows y + rows[0]
    .. y + rows[1] and columns x + cols[0] .. x + cols[1] of each cell (y, x),
    both ends included; cells outside the plane hold False.

    The planes sit in a zero border as wide as the largest shift, flat, so
    that every shift is one contiguous OR: columns first, then rows."""
    h, w = mask.shape[-2:]
    (r0, r1), (c0, c1) = np.clip(rows, -h, h), np.clip(cols, -w, w)
    p = int(max(abs(r0), abs(r1), abs(c0), abs(c1)))
    grid = np.zeros(mask.shape[:-2] + (h + 2 * p, w + 2 * p), dtype=bool)
    grid[..., p : p + h, p : p + w] = mask
    flat = grid.reshape(-1)
    for lo, hi, stride in ((c0, c1, 1), (r0, r1, w + 2 * p)):
        out = np.zeros_like(flat)
        for d in range(lo * stride, hi * stride + 1, stride):
            if d >= 0:
                out[: len(flat) - d] |= flat[d:]
            else:
                out[-d:] |= flat[:d]
        flat = out
    return flat.reshape(grid.shape)[..., p : p + h, p : p + w]


def attention_parts(a: Tensor, params: BridgeParams) -> tuple[Tensor, Tensor]:
    """Scores [C, heads, G, G] and the attended planes [C, T, H, W] of
    [C, T, H, W] planes, before the 1x1 combination; head ``hd`` attends over
    its own G = T/heads consecutive planes."""
    c, t, h, w = a.shape
    heads = params.heads
    g = t // heads
    a_m = ops.reshape(a, (c, heads, g, h * w))
    vec = lambda p: ops.reshape(p, (1, heads, 1, 1))  # noqa: E731
    q = a_m * vec(params.q_gain) + vec(params.q_bias)
    key = a_m * vec(params.k_gain)
    val = a_m * vec(params.v_gain) + vec(params.v_bias)
    logits = ops.matmul(q, ops.transpose(key, (0, 1, 3, 2)))
    scores = ops.reshape(ops.softmax_rows(ops.reshape(logits, (c * t, g))), (c, heads, g, g))
    attended = ops.reshape(ops.matmul(scores, val), (c, t, h, w))
    return scores, attended


def temporal_attention(a: Tensor, params: BridgeParams) -> Tensor:
    """Self-attention over the T planes of [C, T, H, W], collapsed to [C, H, W]."""
    c, t, h, w = a.shape
    _, attended = attention_parts(a, params)
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
        a_out = temporal_attention(a_sc, params)
    if variant == "no-ers":
        return a_out
    return ers_gate(e_spike, a_out)
