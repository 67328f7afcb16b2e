"""Kernel set for the tape engine.

Every public function accepts :class:`Tensor` operands (plain numbers and
ndarrays participate as non-differentiated constants) and records a pullback
on the active tape when any input requires gradients.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import NumericError, ShapeError
from .tensor import Tensor, active_tape


def _data(x):
    return x.data if isinstance(x, Tensor) else x


def _needs_grad(*xs) -> bool:
    return any(isinstance(x, Tensor) and x.requires_grad for x in xs)


def recording(*xs) -> bool:
    """Whether an active tape needs the gradient of one of ``xs``."""
    return active_tape() is not None and _needs_grad(*xs)


def _emit(name, out_data, inputs, pullback) -> Tensor:
    out = Tensor(out_data, requires_grad=recording(*inputs))
    if out.requires_grad:
        active_tape().record(name, out, tuple(inputs), pullback)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    ad, bd = _data(a), _data(b)

    def pull(g):
        return (
            _unbroadcast(g, np.shape(ad)) if isinstance(a, Tensor) else None,
            _unbroadcast(g, np.shape(bd)) if isinstance(b, Tensor) else None,
        )

    return _emit("add", ad + bd, (a, b), pull)


def sub(a, b):
    ad, bd = _data(a), _data(b)

    def pull(g):
        return (
            _unbroadcast(g, np.shape(ad)) if isinstance(a, Tensor) else None,
            _unbroadcast(-g, np.shape(bd)) if isinstance(b, Tensor) else None,
        )

    return _emit("sub", ad - bd, (a, b), pull)


def mul(a, b):
    ad, bd = _data(a), _data(b)

    def pull(g):
        return (
            _unbroadcast(g * bd, np.shape(ad)) if isinstance(a, Tensor) else None,
            _unbroadcast(g * ad, np.shape(bd)) if isinstance(b, Tensor) else None,
        )

    return _emit("mul", ad * bd, (a, b), pull)


def div(a, b):
    ad, bd = _data(a), _data(b)

    def pull(g):
        return (
            _unbroadcast(g / bd, np.shape(ad)) if isinstance(a, Tensor) else None,
            _unbroadcast(-g * ad / (bd * bd), np.shape(bd)) if isinstance(b, Tensor) else None,
        )

    return _emit("div", ad / bd, (a, b), pull)


def neg(a):
    return _emit("neg", -_data(a), (a,), lambda g: (-g,))


def power(a, p: float):
    ad = _data(a)
    return _emit("power", ad**p, (a,), lambda g: (g * p * ad ** (p - 1),))


def log(a):
    ad = _data(a)
    return _emit("log", np.log(ad), (a,), lambda g: (g / ad,))


def sqrt(a):
    out = np.sqrt(_data(a))
    return _emit("sqrt", out, (a,), lambda g: (g / (2.0 * out),))


def _logistic(ad):
    """1 / (1 + exp(-ad)) without overflow: exp only of non-positive values."""
    out = np.empty_like(ad)
    pos = ad >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-ad[pos]))
    ea = np.exp(ad[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


def sigmoid(a):
    out = _logistic(_data(a))
    return _emit("sigmoid", out, (a,), lambda g: (g * out * (1.0 - out),))


def tanh(a):
    out = np.tanh(_data(a))
    return _emit("tanh", out, (a,), lambda g: (g * (1.0 - out * out),))


def relu(a):
    ad = _data(a)
    mask = ad > 0
    return _emit("relu", ad * mask, (a,), lambda g: (g * mask,))


def softplus(a):
    """log(1 + exp(a)), numerically stable."""
    ad = _data(a)
    out = np.logaddexp(0.0, ad)
    return _emit("softplus", out, (a,), lambda g: (g * _logistic(ad),))


# ---------------------------------------------------------------------------
# reductions and reshapes


def sum(a, axis=None, keepdims: bool = False):  # noqa: A001 - mirrors np.sum
    ad = _data(a)
    out = np.sum(ad, axis=axis, keepdims=keepdims)

    def pull(g):
        gg = g
        if not keepdims and axis is not None:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(_norm_axes(axes, ad.ndim)):
                gg = np.expand_dims(gg, ax)
        return (np.broadcast_to(gg, ad.shape).copy(),)

    return _emit("sum", out, (a,), pull)


def _norm_axes(axes, ndim):
    return tuple(ax % ndim for ax in axes)


def mean(a, axis=None, keepdims: bool = False):
    ad = _data(a)
    out = np.mean(ad, axis=axis, keepdims=keepdims)
    if axis is None:
        n = ad.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        n = int(np.prod([ad.shape[ax] for ax in _norm_axes(axes, ad.ndim)]))

    def pull(g):
        gg = g
        if not keepdims and axis is not None:
            axes = axis if isinstance(axis, tuple) else (axis,)
            for ax in sorted(_norm_axes(axes, ad.ndim)):
                gg = np.expand_dims(gg, ax)
        return (np.broadcast_to(gg, ad.shape) / n,)

    return _emit("mean", out, (a,), pull)


def reshape(a, shape):
    ad = _data(a)
    return _emit("reshape", ad.reshape(shape), (a,), lambda g: (g.reshape(ad.shape),))


def transpose(a, axes):
    ad = _data(a)
    inv = np.argsort(axes)
    return _emit("transpose", np.transpose(ad, axes), (a,), lambda g: (np.transpose(g, inv),))


def getitem(a, idx):
    """Basic (slice/int) indexing with scatter-add pullback."""
    ad = _data(a)

    def pull(g):
        ga = np.zeros_like(ad)
        ga[idx] += g
        return (ga,)

    return _emit("getitem", ad[idx], (a,), pull)


def concat(tensors, axis: int = 0):
    datas = [_data(t) for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    splits = np.cumsum(sizes)[:-1]

    def pull(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", out, tuple(tensors), pull)


def stack(tensors, axis: int = 0):
    datas = [_data(t) for t in tensors]
    out = np.stack(datas, axis=axis)
    ax = axis % out.ndim

    def pull(g):
        return tuple(np.moveaxis(g, ax, 0)[i] for i in range(len(datas)))

    return _emit("stack", out, tuple(tensors), pull)


def matmul(a, b):
    """Matrix product with numpy batch broadcasting; operands must be >= 2-D."""
    ad, bd = _data(a), _data(b)
    if np.ndim(ad) < 2 or np.ndim(bd) < 2:
        raise ShapeError("matmul operands must be at least 2-D; reshape vectors first")
    out = np.matmul(ad, bd)

    def pull(g):
        ga = gb = None
        if isinstance(a, Tensor):
            ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
        if isinstance(b, Tensor):
            gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape)
        return (ga, gb)

    return _emit("matmul", out, (a, b), pull)


# ---------------------------------------------------------------------------
# convolution


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0, groups: int = 1):
    """Grouped 2-D cross-correlation.

    ``x``: [C_in, H, W] or [N, C_in, H, W]; ``weight``: [C_out, C_in/groups,
    KH, KW]; ``bias``: [C_out] or None. Output spatial size follows
    floor((H + 2*padding - K)/stride) + 1.
    """
    xd, wd = _data(x), _data(weight)
    squeeze = xd.ndim == 3
    if squeeze:
        xd = xd[None]
    if xd.ndim != 4:
        raise ShapeError(f"conv2d input must be 3-D or 4-D, got {xd.ndim}-D")
    if wd.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D, got {wd.ndim}-D")
    n, c_in, h, w = xd.shape
    c_out, c_in_g, kh, kw = wd.shape
    if padding < 0:
        raise ShapeError("conv2d padding must be >= 0")
    if stride < 1:
        raise ShapeError("conv2d stride must be >= 1")
    if c_in % groups != 0:
        raise ShapeError(f"input channel axis ({c_in}) not divisible by groups ({groups})")
    if c_out % groups != 0:
        raise ShapeError(f"output channel axis ({c_out}) not divisible by groups ({groups})")
    if c_in_g * groups != c_in:
        raise ShapeError(
            f"weight channel axis expects {c_in_g * groups} input channels, input has {c_in}"
        )
    h_out = (h + 2 * padding - kh) // stride + 1
    w_out = (w + 2 * padding - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d output spatial axis empty: ({h_out}, {w_out})")

    xp = np.pad(xd, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else xd
    cols = np.empty((n, c_in, kh, kw, h_out, w_out), dtype=xd.dtype)
    for ky in range(kh):
        for kx in range(kw):
            cols[:, :, ky, kx] = xp[
                :, :, ky : ky + stride * h_out : stride, kx : kx + stride * w_out : stride
            ]
    lsz = c_in_g * kh * kw
    cols_m = cols.reshape(n, groups, lsz, h_out * w_out)
    w_m = wd.reshape(groups, c_out // groups, lsz)
    out = np.matmul(w_m, cols_m)  # [n, groups, c_out/g, h_out*w_out]
    out = out.reshape(n, c_out, h_out, w_out)
    bd = _data(bias) if bias is not None else None
    if bd is not None:
        out += bd.reshape(1, c_out, 1, 1)
    if squeeze:
        out = out[0]

    def pull(g):
        gm = (g[None] if squeeze else g).reshape(n, groups, c_out // groups, h_out * w_out)
        g_w = np.matmul(gm, cols_m.transpose(0, 1, 3, 2)).sum(axis=0).reshape(wd.shape)
        gx = None
        if _needs_grad(x):  # e.g. the count tensor into the first spiking conv needs none
            g_cols = np.matmul(w_m.transpose(0, 2, 1)[None], gm)
            g_cols = g_cols.reshape(n, c_in, kh, kw, h_out, w_out)
            gxp = np.zeros(
                (n, c_in, h + 2 * padding, w + 2 * padding), dtype=g.dtype
            )
            for ky in range(kh):
                for kx in range(kw):
                    gxp[
                        :, :, ky : ky + stride * h_out : stride, kx : kx + stride * w_out : stride
                    ] += g_cols[:, :, ky, kx]
            gx = gxp[:, :, padding : padding + h, padding : padding + w] if padding else gxp
            if squeeze:
                gx = gx[0]
        g_b = None
        if bias is not None and isinstance(bias, Tensor):
            g_b = (g[None] if squeeze else g).sum(axis=(0, 2, 3))
        return (gx, g_w if isinstance(weight, Tensor) else None, g_b)

    return _emit("conv2d", out, (x, weight, bias), pull)


# ---------------------------------------------------------------------------
# normalization / attention / sampling


def check_bn_statistics(var: np.ndarray, eps: float) -> None:
    """Raise NumericError unless every variance is >= 0, eps >= 0 and every
    var + eps > 0, so that batchnorm's 1 / sqrt(var + eps) is defined; a
    non-finite statistic passes and is caught downstream."""
    if np.any(var < 0):
        raise NumericError("batchnorm2d: negative variance")
    if eps < 0 or np.any(var + eps <= 0):
        raise NumericError("batchnorm2d: var + eps must be positive")


def batchnorm2d(x, mean_c, var_c, weight_c, bias_c, eps: float):
    """Per-channel affine normalization of [..., C, H, W].

    Statistics and affine parameters are length-C vectors (Tensor or ndarray;
    gradients flow into whichever are Tensors); see ``check_bn_statistics``.
    """
    check_bn_statistics(_data(var_c), eps)
    shape = (_data(x).shape[-3], 1, 1)
    scale = mul(weight_c, div(1.0, sqrt(add(var_c, eps))))
    return add(mul(sub(x, reshape(mean_c, shape)), reshape(scale, shape)), reshape(bias_c, shape))


def softmax_rows(m):
    """Row-wise softmax of a 2-D matrix, with max-subtraction for stability."""
    md = _data(m)
    if md.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D matrix, got {md.ndim}-D")
    if np.isnan(md).any():
        raise NumericError("softmax_rows: NaN input")
    shifted = md - md.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=1, keepdims=True)

    def pull(g):
        return (out * (g - (g * out).sum(axis=1, keepdims=True)),)

    return _emit("softmax_rows", out, (m,), pull)


def bilinear_sample(map_, x, y):
    """Bilinear interpolation of a [H, W] map at real coordinates (x, y).

    x indexes columns, y rows. Samples fully outside [0, H-1] x [0, W-1]
    return 0; partial overlap uses zero-padded neighbors. Differentiable in
    the map values and in both coordinates.
    """
    md = np.asarray(_data(map_))
    xv = float(_data(x))
    yv = float(_data(y))
    h, w = md.shape
    x0, y0 = math.floor(xv), math.floor(yv)
    fx, fy = xv - x0, yv - y0
    corners = [
        (y0, x0, (1 - fy) * (1 - fx)),
        (y0, x0 + 1, (1 - fy) * fx),
        (y0 + 1, x0, fy * (1 - fx)),
        (y0 + 1, x0 + 1, fy * fx),
    ]
    vals = []
    for yy, xx, _ in corners:
        inside = 0 <= yy < h and 0 <= xx < w
        vals.append(md[yy, xx] if inside else 0.0)
    out = np.asarray(
        vals[0] * corners[0][2] + vals[1] * corners[1][2] + vals[2] * corners[2][2] + vals[3] * corners[3][2],
        dtype=md.dtype,
    )

    def pull(g):
        g_map = None
        if isinstance(map_, Tensor):
            g_map = np.zeros_like(md)
            for (yy, xx, wgt), v in zip(corners, vals):
                if 0 <= yy < h and 0 <= xx < w:
                    g_map[yy, xx] += g * wgt
        # d/dfx and d/dfy of the blend, holding corner values fixed
        dfx = (1 - fy) * (vals[1] - vals[0]) + fy * (vals[3] - vals[2])
        dfy = (1 - fx) * (vals[2] - vals[0]) + fx * (vals[3] - vals[1])
        g_x = np.asarray(g * dfx) if isinstance(x, Tensor) else None
        g_y = np.asarray(g * dfy) if isinstance(y, Tensor) else None
        if g_x is not None:
            g_x = g_x.reshape(np.shape(_data(x)))
        if g_y is not None:
            g_y = g_y.reshape(np.shape(_data(y)))
        return (g_map, g_x, g_y)

    return _emit("bilinear_sample", out, (map_, x, y), pull)


# Working set of one deform_conv call on a channel chunk, in bytes. A module
# constant, not a config knob: it bounds memory, and of the results only the
# rounding of the weight gradient, summed over chunks, depends on it.
DEFORM_CHUNK_BYTES = 64 << 20
# bytes one sampled tap (one element of a call's [C*T, K^2, H, W])
# holds at the untaped forward's peak, in itemsizes of the planes' dtype: the
# coordinates, the intp index and the corner values (measured: 12 for
# float32). 20 is the figure of the former stacked corner weights, kept so
# that the chunking, and with it the weight gradient's rounding, stays put.
_DEFORM_TAP_ITEMS = 20


def deform_chunk(t: int, k: int, h: int, w: int, dtype) -> int:
    """Channels per :func:`deform_conv` call when a caller splits its planes
    into chunks: as many as fit ``DEFORM_CHUNK_BYTES`` (at least one), and few
    enough that the chunk's zero-bordered planes take an int32 flat index."""
    hp, wp = h + 4, w + 4
    index_room = np.iinfo(np.int32).max // (t * hp * wp)
    if index_room < 1:
        raise ShapeError(f"deform_conv: {t} padded {hp}x{wp} planes overflow an int32 index")
    per_channel = _DEFORM_TAP_ITEMS * t * k * k * h * w * np.dtype(dtype).itemsize
    return min(index_room, max(1, DEFORM_CHUNK_BYTES // per_channel))


def _deform_grid(k: int, h: int, w: int, dtype) -> np.ndarray:
    """Regular sampling positions per output pixel: [2, K^2, H, W] (y, x)."""
    pad = (k - 1) // 2
    taps = np.arange(k) - pad
    yy = np.arange(h)[None, :, None] + np.repeat(taps, k)[:, None, None]
    xx = np.arange(w)[None, None, :] + np.tile(taps, k)[:, None, None]
    return np.stack(np.broadcast_arrays(yy, xx)).astype(dtype)


def deform_conv(planes, offsets, weight):
    """Time-separable deformable convolution, without bias.

    ``planes``: [C, T, H, W]; ``offsets``: [C, 2*K^2*T, H, W], one block of
    2*K^2 fields per time plane, tap-major (dy, dx) pairs; ``weight``:
    [T, 1, K, K]. Plane (c, t) is sampled at the regular K x K grid plus its
    offsets, with the zero padding of :func:`bilinear_sample`, and its K^2
    samples are weighted by ``weight[t]`` and summed: out[c, t] is [H, W].
    Differentiable in all three inputs; computed in the inputs' dtype.

    One call samples every channel it is given; channels are independent, so
    a caller that bounds memory splits its planes into chunks of
    :func:`deform_chunk` channels, as the bridge does. The planes are copied
    into a zero-bordered stack [C*T, H+4, W+4]; floor(y) is clipped to [-2, H]
    and floor(x) to [-2, W], which moves a 2x2 corner block only when all
    four true corners lie outside the plane, and then wholly into the border.
    One intp flat index of each block's top-left corner reaches the others
    at +1, +W+4 and +W+5. The forward gathers all four corners at once,
    corner-major, from the four shifted views of the bordered planes, and
    weighs corner (a, b) by wy[a] * wx[b] one corner at a time. The pullback
    scatters corner 0 with a float64 bincount and corners 1-3 with three
    ordered ``np.add.at`` passes, so each cell's sum runs in corner order.
    The four corners are added left to right and the taps in order
    0..K^2-1. The pullback keeps the index, the two wy and the two wx
    planes, the corner values and the samples, and recomputes the corner
    weights. A call's padded planes must fit an int32 flat index, the bound
    :func:`deform_chunk` sizes chunks by.

    The per-cell arithmetic lives in layout-free helpers: ``_corner_planes``
    (the bordered planes as four corner views), ``_deform_samples`` (grid +
    offsets, floor and clip, the flat index, the corner gather and the
    left-to-right corner sum) and ``_tap_sum`` (the taps in order). This op
    runs them on every cell and is the bridge's path whenever a tape needs
    gradients. Without one, the bridge's event-driven branch runs the same
    helpers on [K^2, M] arrays of only the cells that can read a nonzero
    plane cell, so that its output equals this op's.
    """
    pd, od, wd = _data(planes), _data(offsets), _data(weight)
    if pd.ndim != 4:
        raise ShapeError(f"deform_conv planes must be [C, T, H, W], got {pd.ndim}-D")
    c, t, h, w = pd.shape
    if wd.ndim != 4 or wd.shape[:2] != (t, 1) or wd.shape[2] != wd.shape[3]:
        raise ShapeError(f"deform_conv weight must be [{t}, 1, K, K], got shape {wd.shape}")
    k = wd.shape[2]
    j = k * k
    if od.shape != (c, 2 * j * t, h, w):
        raise ShapeError(f"offset channel axis expects {2 * j * t} fields, got shape {od.shape}")
    if c * t * (h + 4) * (w + 4) > np.iinfo(np.int32).max:
        raise ShapeError(f"deform_conv: {c}x{t} padded {h + 4}x{w + 4} planes overflow an int32 index")
    w5 = wd.reshape(1, t, j, 1, 1)
    out, state = _deform_forward(pd, od, w5, _deform_grid(k, h, w, pd.dtype))

    def pull(g):
        g_planes, g_off, g_w = _deform_pullback(state, g, w5)
        return (
            g_planes.reshape(pd.shape) if isinstance(planes, Tensor) else None,
            g_off.reshape(od.shape) if isinstance(offsets, Tensor) else None,
            g_w.reshape(wd.shape) if isinstance(weight, Tensor) else None,
        )

    return _emit("deform_conv", out, (planes, offsets, weight), pull)


def _deform_forward(pd, od, w5, grid):
    """([C, T, H, W] output, pullback state) of :func:`deform_conv`."""
    c, t, h, w = pd.shape
    j = w5.shape[2]
    g_count = c * t
    off = od.reshape(g_count, j, 2, h, w)
    plane = np.arange(g_count, dtype=np.intp).reshape(g_count, 1, 1, 1)
    samples, (idx, wy, wx, v) = _deform_samples(
        _corner_planes(pd), (h, w), off[:, :, 0], off[:, :, 1], grid[0], grid[1], plane
    )
    samples = samples.reshape(c, t, j, h, w)
    out = _tap_sum(np.moveaxis(samples, 2, 0), np.moveaxis(w5, 2, 0))
    return out, (idx, wy, wx, v, samples)


def _corner_planes(planes):
    """The planes [..., H, W] in a zero-bordered stack [G, H+4, W+4], flat,
    as the four views that start at corners 00, 01, 10 and 11 of a 2x2
    block, copied into one [4, n] array: ``_deform_samples`` gathers a
    corner block's values from its top-left corner's flat index."""
    h, w = planes.shape[-2:]
    wp = w + 4
    padded = np.zeros((planes.size // (h * w), h + 4, wp), dtype=planes.dtype)
    padded[:, 2:-2, 2:-2] = planes.reshape(-1, h, w)
    flat = padded.ravel()
    n = flat.size - wp - 1
    return np.stack((flat[:n], flat[1 : n + 1], flat[wp : wp + n], flat[wp + 1 :]))


def _deform_samples(corners, hw, off_y, off_x, grid_y, grid_x, plane):
    """Bilinear samples of :func:`deform_conv`, cell by cell, in any layout.

    ``corners`` is ``_corner_planes`` of G planes of size ``hw`` (H, W). The
    offsets, the grid positions and ``plane`` (each cell's intp index into
    the G planes) broadcast to one shape S. A cell samples its plane at
    ``grid + offsets`` with the zero border and the corner order of
    :func:`deform_conv`. Returns the samples [S] and the pullback state: the
    intp flat index of each 2x2 corner block's top-left corner in the
    bordered planes, the (wy, wx) corner weight pairs and the [4, S] corner
    values. Raises NumericError on a non-finite coordinate.
    """
    h, w = hw
    hp, wp = h + 4, w + 4
    ys, xs = off_y + grid_y, off_x + grid_x
    if not (np.isfinite(ys).all() and np.isfinite(xs).all()):
        raise NumericError("deform_conv: non-finite sampling coordinate")
    y0, x0 = np.floor(ys), np.floor(xs)
    fy, fx = np.subtract(ys, y0, out=ys), np.subtract(xs, x0, out=xs)
    # plane base + border + clipped floors; floor(x) is added through float64,
    # exact below the int32 bound, which spares an intp temporary
    idx = np.clip(y0, -2, h, out=y0).astype(np.intp)
    idx *= wp
    idx += plane * (hp * wp) + 2 * wp + 2
    np.add(idx, np.clip(x0, -2, w, out=x0), out=idx, casting="unsafe")
    v = corners.take(idx, axis=1)  # [4, S], corners in the order 00, 01, 10, 11
    del corners  # freed here when the caller passed a temporary
    # corner q = 2a + b weighs wy[a] * wx[b]; the four terms are added left to right
    wy, wx = (np.subtract(1, fy, out=y0), fy), (np.subtract(1, fx, out=x0), fx)
    samples = np.multiply(wy[0], wx[0], out=np.empty(idx.shape, np.result_type(wy[0], v)))
    samples *= v[0]
    term = np.empty_like(samples)
    for q in (1, 2, 3):
        np.multiply(wy[q >> 1], wx[q & 1], out=term)
        term *= v[q]
        samples += term
    return samples, (idx, wy, wx, v)


def _tap_sum(samples, weight):
    """Sum over the leading (tap) axis of ``samples * weight``, the taps
    added one at a time in order 0..K^2-1, whatever the trailing layout."""
    out = samples[0] * weight[0]
    for q in range(1, len(samples)):
        out += samples[q] * weight[q]
    return out


def _deform_pullback(state, g, w5):
    """(planes, offsets, weight) adjoints of :func:`deform_conv` from its
    output adjoint ``g`` [C, T, H, W]."""
    idx, wy, wx, v, samples = state
    c, t, j, h, w = samples.shape
    g_count, hp, wp = c * t, h + 4, w + 4
    g5 = np.broadcast_to(g[:, :, None], samples.shape)
    g_w = np.sum(g5 * samples, axis=(0, 3, 4))
    gs = (g5 * w5).reshape(g_count, j, h, w)
    wgt = np.empty(gs.shape, np.result_type(gs, wy[0]))
    vals = np.empty(gs.shape, np.float64)

    def corner_adjoint(q):
        np.multiply(wy[q >> 1], wx[q & 1], out=wgt)
        return np.multiply(gs, wgt, out=vals).ravel()  # computed in wgt's dtype

    # float64 scatter in corner order, corner q at idx + (0, 1, W+4, W+5)[q]:
    # add.at adds in sequence, so every padded cell gets the same sum in the
    # same order as one bincount over the four corners' indices. add.at takes
    # its fast path only for a 1-D index and values of the target's dtype.
    flat = idx.ravel()
    acc = np.bincount(flat, corner_adjoint(0), minlength=g_count * hp * wp)
    for q, shift in ((1, 1), (2, wp), (3, wp + 1)):
        np.add.at(acc[shift:], flat, corner_adjoint(q))
    del wgt, vals
    g_planes = acc.reshape(g_count, hp, wp)[:, 2:-2, 2:-2].astype(v.dtype, copy=False)
    g_off = np.empty((g_count, j, 2, h, w), np.result_type(gs, wx[0], v))
    np.multiply(gs, wx[0] * (v[2] - v[0]) + wx[1] * (v[3] - v[1]), out=g_off[:, :, 0])
    np.multiply(gs, wy[0] * (v[1] - v[0]) + wy[1] * (v[3] - v[2]), out=g_off[:, :, 1])
    return g_planes, g_off, g_w


# sharpness of the arctan surrogate: its slope at the threshold is alpha / 2
SURROGATE_ALPHA = 2.0


def spike(u, smooth: bool = False):
    """Threshold nonlinearity for spiking neurons.

    Hard mode: exact Heaviside(u >= 0) forward with an arctan surrogate
    derivative alpha / (2 * (1 + (pi/2 * alpha * u)^2)), alpha =
    SURROGATE_ALPHA. Smooth mode replaces the forward by the surrogate's
    primitive arctan(pi*alpha*u/2)/pi + 1/2, making the whole network
    finite-difference checkable.
    """
    ud = _data(u)
    return _emit("spike", _spike_value(ud, smooth), (u,), lambda g: (g * _spike_slope(ud),))


def _spike_value(ud, smooth: bool):
    if smooth:
        return np.arctan(math.pi * SURROGATE_ALPHA * ud / 2.0) / math.pi + 0.5
    return (ud >= 0).astype(ud.dtype)


def _spike_slope(ud):
    return SURROGATE_ALPHA / (2.0 * (1.0 + (math.pi / 2.0 * SURROGATE_ALPHA * ud) ** 2))


def plif_scan(x, w, smooth: bool = False, context: str = "plif"):
    """Spikes [T, ...] of a PLIF neuron layer driven by ``x`` [T, ...]: the
    whole time loop as one tape node.

    From rest (membrane 0), each step t computes, with leak = sigmoid(w),
    ``v_pre = v + leak * (x[t] - v)``, the spikes ``spike(v_pre - 1)`` of
    :func:`spike` (threshold 1) and the hard reset to 0,
    ``v = v_pre - s * v_pre``. The pullback is backpropagation through time
    written out by hand: the arctan surrogate at the threshold, a reset gate
    detached in hard mode and differentiated in smooth mode, and the ``w``
    adjoint summed over steps, latest first. It adds every term in the order
    the tape adds the same arithmetic recorded op by op, so the spikes, the
    ``x`` adjoint and one call's ``w`` adjoint are those of ``snn.plif_step``
    looped over T. The pullback keeps the membranes before reset.

    A non-finite membrane stays non-finite, so one check of the last one
    finds any; the error names ``context`` and the first bad step.
    """
    xd = _data(x)
    leak = _logistic(np.asarray(_data(w)))
    spikes, v_pre = _plif_forward(xd, leak, smooth)
    if not np.isfinite(v_pre[-1]).all():
        bad = ~np.isfinite(v_pre.reshape(len(v_pre), -1)).all(axis=1)
        raise NumericError(f"non-finite membrane in {context} at t={int(np.argmax(bad))}")

    def pull(g):
        return _plif_pullback(g, xd, leak, spikes, v_pre, smooth)

    return _emit("plif_scan", spikes, (x, w), pull)


def _plif_forward(xd, leak, smooth):
    """(spikes, membranes before reset [T, ...]) of :func:`plif_scan`."""
    dtype = np.result_type(xd, leak)
    spikes = np.empty(xd.shape, dtype)
    v_pre = np.empty(xd.shape, dtype)
    v = np.zeros(xd.shape[1:], dtype)
    # a non-finite membrane makes inf - inf at the reset; plif_scan reports it
    with np.errstate(invalid="ignore"):
        for t in range(len(xd)):
            vp = np.subtract(xd[t], v, out=v_pre[t])
            vp *= leak
            vp += v
            spikes[t] = _spike_value(vp - 1.0, smooth)
            v = vp - spikes[t] * vp
    return spikes, v_pre


def _plif_pullback(g, xd, leak, spikes, v_pre, smooth):
    """(x, w) adjoints of :func:`plif_scan` from its spikes' adjoint ``g``."""
    g_x = np.empty(xd.shape, g.dtype)
    g_w = g_v = None
    for t in range(len(xd) - 1, -1, -1):
        vp, s = v_pre[t], spikes[t]
        g_s = g[t]
        if smooth and g_v is not None:
            g_s = g_s + (-g_v) * vp  # the reset gate is the spikes themselves
        g_vp = g_s * _spike_slope(vp - 1.0)
        if g_v is not None:
            g_vp = (g_v + (-g_v) * s) + g_vp
        d = xd[t] - (v_pre[t - 1] - spikes[t - 1] * v_pre[t - 1]) if t else xd[t]
        term = _unbroadcast(g_vp * d, leak.shape) * leak * (1.0 - leak)
        g_w = term if g_w is None else g_w + term
        g_x[t] = g_d = g_vp * leak
        g_v = g_vp + (-g_d)
    return g_x, g_w


# ---------------------------------------------------------------------------
# operator sugar on Tensor

Tensor.__add__ = lambda self, other: add(self, other)
Tensor.__radd__ = lambda self, other: add(other, self)
Tensor.__sub__ = lambda self, other: sub(self, other)
Tensor.__rsub__ = lambda self, other: sub(other, self)
Tensor.__mul__ = lambda self, other: mul(self, other)
Tensor.__rmul__ = lambda self, other: mul(other, self)
Tensor.__truediv__ = lambda self, other: div(self, other)
Tensor.__rtruediv__ = lambda self, other: div(other, self)
Tensor.__neg__ = lambda self: neg(self)
Tensor.__pow__ = lambda self, p: power(self, p)
Tensor.__matmul__ = lambda self, other: matmul(self, other)
Tensor.__getitem__ = lambda self, idx: getitem(self, idx)
