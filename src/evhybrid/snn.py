"""Spiking front-end: conv -> batchnorm -> leaky integrate-and-fire blocks.

Each block maps a [T, C, H, W] sequence to a strictly binary spike sequence.
The neuron is PLIF (Fang et al. 2021): it fires at V_THRESHOLD = 1 and
hard-resets to V_RESET = 0, and its one trained value is the leak, through an
unconstrained parameter w with 1/tau = sigmoid(w), so tau >= 1 for every
representable w. Training uses an arctan surrogate derivative for the
threshold; a smooth mode replaces the hard threshold by the surrogate's
primitive so whole networks can be checked against finite differences.

Blocks run only as a stack, ``snn_backbone_forward``, which picks one of
two paths for all of them. In training, in smooth mode, and whenever an
active tape needs their gradients, they run dense and differentiable: an
im2col conv, batchnorm, and the time loop as one op, ``ops.plif_scan``: a
numpy loop over T in the forward and a hand-written
backpropagation-through-time pullback, one tape node per block.
``plif_step`` is the one-step update written op by op; the tests loop it
over T as the oracle for ``plif_scan``.

In inference they run event-driven, so their cost follows the input events.
The conv is a gather-GEMM-scatter rulebook conv (Graham and van der Maaten
2017), built, then applied. ``_Rulebook`` is built from the input and the
conv geometry alone: it gathers the (t, y, x) sites that hold input and
finds the output cell each tap of each site reaches. ``_Rulebook.conv``
then, tap by tap, adds the rows times the tap's weights to those cells,
which it stores compactly as one row per live output site (one that some
tap reaches) plus one all-zero row; one rulebook serves any weights of its
geometry. Only the live sites carry their own membranes; every other cell
of a channel sees a conv output of 0 at every step, so all of them share
one quiet trajectory per channel (``_live_membranes``). The neurons
(``_float_lif``) are plain numpy with, cell for cell, the arithmetic of
``ops.batchnorm2d`` on the running statistics and of ``ops.plif_scan``. The
conv adds a cell's taps in rulebook order, so a membrane can differ from
the dense path's by float rounding. The fixed-point path (``quantize``) and
its float reference run on the same rulebooks and membranes.

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

from .errors import ConfigError, NumericError, ShapeError
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

    def accumulates(self, nonzero: np.ndarray) -> int:
        """Accumulates of the conv run event-driven on an input whose nonzero
        cells are ``nonzero`` [..., H, W]: one per nonzero cell, per kernel
        tap it feeds within the output (respecting stride and padding), per
        output channel. A cell holding several events counts once."""
        h, w = nonzero.shape[-2:]
        h_out, w_out = self.out_size(h, w)
        k, p, s = self.kernel, self.padding, self.stride
        taps = np.outer(_tap_counts(h, h_out, k, p, s), _tap_counts(w, w_out, k, p, s))
        cells = nonzero.reshape(-1, h, w).sum(axis=0)  # nonzero cells per (y, x)
        return int((cells * taps).sum()) * self.out_channels


def _tap_counts(extent: int, out_extent: int, k: int, p: int, s: int) -> np.ndarray:
    """taps[i] = number of kernel taps an input cell at coordinate i feeds."""
    num = np.arange(extent)[:, None] + p - np.arange(k)  # [extent, k]: stride x output row per tap
    return ((num % s == 0) & (0 <= num // s) & (num // s < out_extent)).sum(axis=1, dtype=np.int64)


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


class _Rulebook:
    """The gather/scatter plan of a conv over the sites of ``x`` [N, C_in,
    H, W] that hold input, for a ``kernel`` (KH, KW), ``stride`` and
    ``padding``; ``conv`` applies it to any weights of that geometry.

    The active sites are the (t, y, x) positions with any nonzero channel.
    The ``live`` output sites are the sorted flat H'*W' sites (``hw`` is
    (H', W')) that some in-bounds tap of an active site reaches at some
    step; they are found from the tap geometry first. Tap (ky, kx) of a site
    lands on the stride grid only when (y + padding) % stride == ky %
    stride, and likewise in x, so the sites are grouped by that phase, their
    input ``rows`` [S, C_in] gathered in the input's dtype, and each tap
    reads one group's rows as a slice. Each tap keeps the output row of
    every site in its group; a tap that leaves the output lands on its
    step's trash row, which the output leaves out.
    """

    def __init__(self, x: np.ndarray, kernel: tuple[int, ...], stride: int, padding: int):
        if x.ndim != 4 or len(kernel) != 2:
            raise ShapeError(f"rulebook conv takes 4-D input and a (KH, KW) kernel, got {x.ndim}-D and {kernel}")
        if stride < 1 or padding < 0:
            raise ShapeError(f"rulebook conv needs stride >= 1 and padding >= 0, got {stride} and {padding}")
        n, self.c_in, h, wd = x.shape
        kh, kw = self.kernel = tuple(kernel)
        h_out = (h + 2 * padding - kh) // stride + 1
        w_out = (wd + 2 * padding - kw) // stride + 1
        if h_out < 1 or w_out < 1:
            raise ShapeError(f"rulebook conv output spatial axis empty: ({h_out}, {w_out})")
        active = x.any(axis=1)
        ever = np.zeros((h + 2 * padding, wd + 2 * padding), dtype=bool)  # the sites active at any step
        ever[padding : padding + h, padding : padding + wd] = active.any(axis=0)
        across = np.zeros((h + 2 * padding, w_out), dtype=bool)
        for kx in range(kw):
            across |= ever[:, kx : kx + stride * w_out : stride]
        reached = np.zeros((h_out, w_out), dtype=bool)
        for ky in range(kh):
            reached |= across[ky : ky + stride * h_out : stride]
        self.live, self.hw = np.flatnonzero(reached), (h_out, w_out)
        self.n_steps, self.n_rows = n, len(self.live) + 1
        t, site = np.divmod(np.flatnonzero(active), h * wd)
        ys, xs = np.divmod(site, wd)
        phase = (ys + padding) % stride * stride + (xs + padding) % stride
        order = np.argsort(phase, kind="stable")
        t, ys, xs = t[order], ys[order], xs[order]
        bounds = np.searchsorted(phase[order], np.arange(stride * stride + 1)).tolist()
        self.rows = x[t, :, ys, xs]  # [S, C_in]
        # the output row of every tap's (y, x) in a grid with a border wide
        # enough for the taps that leave the output; each step has its own rows
        # and, after them, a trash row that the border and the non-live sites map to
        top, left = max(0, -((padding - kh + 1) // stride)), max(0, -((padding - kw + 1) // stride))
        hp = max(h_out, (h - 1 + padding) // stride + 1) + top
        wp = max(w_out, (wd - 1 + padding) // stride + 1) + left
        row_of = np.full(hp * wp, self.n_rows, dtype=np.intp)
        live_y, live_x = np.divmod(self.live, w_out)
        row_of[(live_y + top) * wp + live_x + left] = np.arange(len(self.live))
        at_y = ((ys[None] + padding - np.arange(kh)[:, None]) // stride + top) * wp  # [K, S]
        at_x = (xs[None] + padding - np.arange(kw)[:, None]) // stride + left
        step_row = t * (self.n_rows + 1)
        self.taps = []  # (ky, kx, the group's rows as a slice, their output rows), in (ky, kx) order
        for ky in range(kh):
            cells = step_row + row_of.take(at_y[ky] + at_x)  # [K, S]: each site's row at tap (ky, kx)
            for kx in range(kw):
                group = ky % stride * stride + kx % stride
                a, b = bounds[group], bounds[group + 1]
                if a < b:
                    self.taps.append((ky, kx, slice(a, b), cells[kx, a:b]))

    def conv(self, w: np.ndarray) -> np.ndarray:
        """The conv with weights ``w`` [C_out, C_in, KH, KW], computed in
        their dtype, as [N, L+1, C_out] rows: one per live site, then an
        all-zero row for every other site. Each tap multiplies its rows by
        ``w[:, :, ky, kx].T``, adds the rows of the output cells they reach
        and puts the sums back. Within one tap no two sites share an output
        cell, so each cell is written once per tap, and every cell starts at
        0 and sums its taps in (ky, kx) order."""
        if w.ndim != 4:
            raise ShapeError(f"rulebook conv takes 4-D weights, got {w.ndim}-D")
        c_out, c_w = w.shape[:2]
        if c_w != self.c_in:
            raise ShapeError(f"weight channel axis expects {c_w} input channels, input has {self.c_in}")
        if w.shape[2:] != self.kernel:
            raise ShapeError(f"weights have a {w.shape[2:]} kernel, the rulebook was built for {self.kernel}")
        rows = self.rows.astype(w.dtype, copy=False)
        buf = np.zeros((self.n_steps, self.n_rows + 1, c_out), dtype=w.dtype)
        flat = buf.reshape(-1, c_out)
        whole_rows = flat.view(np.dtype((np.void, c_out * buf.itemsize)))  # a row as one item, for put
        for ky, kx, group, cells in self.taps:
            acc = rows[group] @ w[:, :, ky, kx].T
            acc += flat.take(cells, axis=0)
            whole_rows.put(cells, acc.view(whole_rows.dtype))
        return buf[:, : self.n_rows]


def _event_forward(x: np.ndarray, block: SNNBlock, context: str) -> np.ndarray:
    """Boolean spikes [T, C_out, H', W'] of ``block`` in inference on ``x``
    [T, C_in, H, W]: the rulebook of ``x`` for the block's conv, then
    ``_event_spikes``."""
    book = _Rulebook(x, block.conv_w.shape[2:], block.cfg.stride, block.cfg.padding)
    return _event_spikes(book, block, context)


def _event_spikes(book: _Rulebook, block: SNNBlock, context: str) -> np.ndarray:
    """Boolean spikes of ``block`` on the input that ``book`` was built
    from: the rulebook conv in the weights' dtype, then the inference
    neurons (``_float_lif``) at the live sites and on one quiet trajectory
    per channel. A non-finite weight raises NumericError naming ``context``
    even on a silent window, which never meets the weights."""
    w = block.conv_w.data
    if not np.isfinite(w).all():
        raise NumericError(f"non-finite conv weights in {context}")
    with np.errstate(invalid="ignore"):  # a non-finite input's membrane raises, naming its step
        return _live_membranes(_float_lif(book.conv(w), block, context), book.live, book.hw)


def _live_membranes(fired: np.ndarray, live: np.ndarray, hw: tuple[int, int]) -> np.ndarray:
    """Boolean spikes [T, C, H, W] from the spikes ``fired`` [T, C, L+1] of
    the neurons fed by the rulebook conv's output rows: one per ``live``
    flat H*W site (``hw`` is (H, W)), then the one for the all-zero row.

    Only the live sites, which the conv reached at some step, carry their own
    membranes. Every other cell of a channel sees a conv output of 0 at
    every step, so all of them follow one quiet trajectory per channel,
    carried by the zero row; its spikes are written out first, then those
    of the live sites.
    """
    t, c, _ = fired.shape
    spikes = np.repeat(fired[:, :, -1:], hw[0] * hw[1], axis=2)
    spikes[:, :, live] = fired[:, :, :-1]
    return spikes.reshape(t, c, *hw)


def _float_lif(y: np.ndarray, blk: SNNBlock, context: str) -> np.ndarray:
    """The block's inference neurons over its conv output rows ``y``
    [T, S, C]: batchnorm with the running statistics, then the PLIF scan,
    as boolean spikes [T, C, S].

    Per cell this is the arithmetic of ``ops.batchnorm2d`` (its statistic
    checks, then ``(y - mean) * (gamma * (1 / sqrt(var + eps))) + beta``)
    and of ``ops.plif_scan`` (``v_pre = (u - v) * leak + v``, firing at
    V_THRESHOLD and resetting to V_RESET), on a [T, C, S] copy, so that
    each channel's values broadcast along its rows. Inputs within a quarter
    of the dtype's range keep every membrane finite; any others (non-finite
    ones included) go through ``ops.plif_scan`` itself, whose error names
    ``context`` and the first non-finite step.
    """
    var = blk.bn_var
    ops.check_bn_statistics(var, blk.bn_eps)
    u = y.transpose(0, 2, 1).copy()
    per_channel = (-1, 1)
    u -= blk.bn_mean.reshape(per_channel)
    u *= (blk.bn_gamma.data * (1.0 / np.sqrt(var + blk.bn_eps))).reshape(per_channel)
    u += blk.bn_beta.data.reshape(per_channel)
    leak = ops._logistic(np.asarray(blk.plif_w.data))
    u = u.astype(np.result_type(u, leak), copy=False)
    lim = np.finfo(u.dtype).max / 4
    if not (-lim < u.min() and u.max() < lim):  # NaN fails both
        return ops.plif_scan(u, blk.plif_w.data, context=context).data > 0
    fired = np.empty(u.shape, dtype=bool)
    v = np.zeros(u.shape[1:], u.dtype)
    for t in range(len(u)):
        vp = u[t]  # each step's membrane is computed in its input's row
        vp -= v
        vp *= leak
        vp += v
        np.greater_equal(vp, V_THRESHOLD, out=fired[t])
        vp[fired[t]] = V_RESET
        v = vp
    return fired


def snn_backbone_forward(
    x: Tensor,
    blocks: list[SNNBlock],
    training: bool = False,
    smooth: bool = False,
    trace: list | None = None,
) -> Tensor:
    """Sequential spiking stack: [T, 2, H, W] counts as floats -> binary
    [T, C_out, H', W'] spikes of the last block; layer i is named ``snn<i>``.

    The stack runs dense and differentiable (``conv_bn``, which treats time
    as the batch axis, then ``ops.plif_scan``) in training, in smooth mode
    (which also leaves the running statistics alone), and under an active
    tape that needs the gradients of ``x`` or of a block's parameters.
    Otherwise nothing will be differentiated and every block runs
    event-driven (``_event_forward``): the blocks pass their boolean spikes
    straight on, and only the last layer's become a Tensor in its block's
    dtype. When ``trace`` is a list, each layer appends its ``name``, its
    input's ``ConvSpec.accumulates`` (``acs``), nonzero ``input_spikes``
    and ``cells``, all ints, for the event-driven cost counter.
    """
    if not blocks:
        raise ConfigError("spiking backbone needs at least one block")
    params = (p for block in blocks for p in block.parameters().values())
    event = not (training or smooth or ops.recording(x, *params))
    out = x.data if event else x
    for i, block in enumerate(blocks):
        context = f"snn{i + 1}"
        if trace is not None:
            nonzero = (out if event else out.data) != 0
            acs, spikes = block.cfg.accumulates(nonzero), int(np.count_nonzero(nonzero))
            trace.append({"name": context, "acs": acs, "input_spikes": spikes, "cells": nonzero.size})
        if event:
            out = _event_forward(out, block, context)
        else:
            y = conv_bn(out, block, training, update_stats=not smooth)
            out = ops.plif_scan(y, block.plif_w, smooth=smooth, context=context)
    return Tensor(out, dtype=blocks[-1].conv_w.dtype) if event else out
