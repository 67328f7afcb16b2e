"""Kernel-level tests: hand-derived values, invariants, gradient checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.bridge import BridgeParams, _deformable_branch
from evhybrid.errors import NumericError, ShapeError
from evhybrid.numerics import WIDE, GradTape, Tensor, grad_check, ops


def wide(arr, grad=False):
    return Tensor(np.asarray(arr), dtype=WIDE, requires_grad=grad)


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = wide(rng.standard_normal((1, 6, 5)))
        w = wide(np.ones((1, 1, 1, 1)))
        out = ops.conv2d(x, w)
        np.testing.assert_allclose(out.data, x.data)

    def test_hand_evaluated_2x2(self):
        x = wide([[[1.0, 2.0], [3.0, 4.0]]])
        w = wide(np.ones((1, 1, 2, 2)))
        out = ops.conv2d(x, w, stride=1, padding=0)
        np.testing.assert_allclose(out.data, [[[10.0]]])

    def test_zero_input_zero_bias(self):
        x = wide(np.zeros((3, 4, 4)))
        w = wide(np.random.default_rng(1).standard_normal((2, 3, 3, 3)))
        out = ops.conv2d(x, w, bias=wide(np.zeros(2)), padding=1)
        assert not np.any(out.data)

    def test_output_shape_arithmetic(self):
        x = wide(np.zeros((2, 11, 9)))
        w = wide(np.zeros((4, 2, 3, 3)))
        out = ops.conv2d(x, w, stride=2, padding=1)
        assert out.shape == (4, 6, 5)

    def test_channel_mismatch_names_axis(self):
        x = wide(np.zeros((3, 4, 4)))
        w = wide(np.zeros((2, 2, 3, 3)))
        with pytest.raises(ShapeError, match="channel"):
            ops.conv2d(x, w)

    def test_groups_divisibility_error(self):
        x = wide(np.zeros((3, 4, 4)))
        w = wide(np.zeros((2, 1, 3, 3)))
        with pytest.raises(ShapeError, match="divisible"):
            ops.conv2d(x, w, groups=2)

    @given(
        groups=st.sampled_from([1, 2, 4]),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_grouped_equals_independent_convs(self, groups, stride, padding, seed):
        rng = np.random.default_rng(seed)
        c_in, c_out, k, h, w = 4, 8, 3, 6, 7
        x = rng.standard_normal((c_in, h, w))
        wt = rng.standard_normal((c_out, c_in // groups, k, k))
        b = rng.standard_normal(c_out)
        full = ops.conv2d(wide(x), wide(wt), wide(b), stride=stride, padding=padding, groups=groups)
        per_group = []
        cg_in, cg_out = c_in // groups, c_out // groups
        for g in range(groups):
            xs = wide(x[g * cg_in : (g + 1) * cg_in])
            ws = wide(wt[g * cg_out : (g + 1) * cg_out])
            bs = wide(b[g * cg_out : (g + 1) * cg_out])
            per_group.append(ops.conv2d(xs, ws, bs, stride=stride, padding=padding).data)
        np.testing.assert_allclose(full.data, np.concatenate(per_group, axis=0), atol=1e-6)

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 2, 5, 5))
        wt = wide(rng.standard_normal((4, 2, 3, 3)))
        batched = ops.conv2d(wide(x), wt, padding=1).data
        singles = np.stack([ops.conv2d(wide(x[i]), wt, padding=1).data for i in range(3)])
        np.testing.assert_allclose(batched, singles)


class TestBatchNorm:
    def test_identity_configuration(self):
        x = wide(np.random.default_rng(0).standard_normal((2, 3, 3)))
        out = ops.batchnorm2d(x, np.zeros(2), np.ones(2), np.ones(2), np.zeros(2), eps=0.0)
        np.testing.assert_allclose(out.data, x.data)

    def test_hand_evaluated(self):
        x = wide(np.full((1, 1, 1), 2.0))
        out = ops.batchnorm2d(x, np.array([1.0]), np.array([3.0]), np.array([2.0]), np.array([4.0]), eps=1.0)
        np.testing.assert_allclose(out.data, [[[5.0]]])

    def test_negative_variance_rejected(self):
        x = wide(np.zeros((1, 2, 2)))
        with pytest.raises(NumericError, match="variance"):
            ops.batchnorm2d(x, np.zeros(1), np.array([-1.0]), np.ones(1), np.zeros(1), eps=0.1)

    def test_constant_input_batch_stats_gives_bias(self):
        # zero batch variance is kept finite by eps; output collapses to beta
        x = wide(np.full((4, 3, 3), 7.0))
        mu = ops.mean(x, axis=(1, 2))
        var = ops.mean((x - ops.reshape(mu, (-1, 1, 1))) ** 2.0, axis=(1, 2))
        out = ops.batchnorm2d(x, mu, var, np.ones(4), np.full(4, 1.5), eps=1e-5)
        np.testing.assert_allclose(out.data, 1.5, atol=1e-6)


class TestSoftmaxRows:
    def test_equal_values_uniform(self):
        out = ops.softmax_rows(wide(np.full((3, 5), 2.5)))
        np.testing.assert_allclose(out.data, 0.2)

    def test_closed_form(self):
        out = ops.softmax_rows(wide([[0.0, np.log(3.0)]]))
        np.testing.assert_allclose(out.data, [[0.25, 0.75]], atol=1e-12)

    def test_single_column_all_ones(self):
        out = ops.softmax_rows(wide([[3.0], [-1.0]]))
        np.testing.assert_allclose(out.data, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(NumericError, match="NaN"):
            ops.softmax_rows(wide([[np.nan, 0.0]]))

    @given(seed=st.integers(0, 2**31 - 1), shift=st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_and_shift_invariance(self, seed, shift):
        m = np.random.default_rng(seed).standard_normal((4, 6))
        out = ops.softmax_rows(wide(m))
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out.data >= 0)
        shifted = ops.softmax_rows(wide(m + shift))
        np.testing.assert_allclose(out.data, shifted.data, atol=1e-6)


class TestBilinearSample:
    def test_integer_coordinates_exact(self):
        m = np.arange(12.0).reshape(3, 4)
        for y in range(3):
            for x in range(4):
                out = ops.bilinear_sample(wide(m), float(x), float(y))
                assert out.data == m[y, x]

    def test_midpoint(self):
        m = wide([[0.0, 1.0], [2.0, 3.0]])
        assert ops.bilinear_sample(m, 0.5, 0.5).data == pytest.approx(1.5)

    def test_far_outside_is_zero(self):
        m = wide(np.ones((4, 4)))
        assert ops.bilinear_sample(m, -5.0, -5.0).data == 0.0

    def test_partial_overlap_zero_padded(self):
        m = wide(np.ones((4, 4)))
        assert ops.bilinear_sample(m, -0.5, 0.0).data == pytest.approx(0.5)

    @given(
        seed=st.integers(0, 2**31 - 1),
        x=st.floats(-2, 5),
        y=st.floats(-2, 5),
        delta=st.floats(1e-4, 0.2),
    )
    @settings(max_examples=60, deadline=None)
    def test_lipschitz_continuity(self, seed, x, y, delta):
        m = np.random.default_rng(seed).standard_normal((4, 4))
        lip = 2.0 * np.abs(m).max()
        a = ops.bilinear_sample(wide(m), x, y).data
        b = ops.bilinear_sample(wide(m), x + delta, y).data
        assert abs(b - a) <= lip * delta + 1e-9


@st.composite
def _coordinate(draw, size):
    """A real coordinate in [-8, size+8], often an exact integer or a border."""
    return draw(
        st.one_of(
            st.floats(-8, size + 8),
            st.integers(-8, size + 8).map(float),
            st.sampled_from([-2.0, -1.0, 0.0, size - 1.0, float(size)]),
        )
    )


def _grid(k, h, w):
    """The regular K x K sampling grid, [2, K^2, H, W] (y, x)."""
    taps = np.arange(k) - (k - 1) // 2
    yy = np.arange(h)[None, :, None] + np.repeat(taps, k)[:, None, None]
    xx = np.arange(w)[None, None, :] + np.tile(taps, k)[:, None, None]
    return np.stack(np.broadcast_arrays(yy, xx)).astype(float)


@st.composite
def _deform_case(draw):
    """(seed, planes shape [C, T, H, W], K, offsets [C, 2*K^2*T, H, W]) whose
    sampling coordinates grid + offset are drawn by ``_coordinate``."""
    c, t, h, w = (draw(st.integers(1, hi)) for hi in (2, 2, 4, 4))
    k = draw(st.sampled_from([1, 3]))
    j = k * k
    ys = np.array([draw(_coordinate(h)) for _ in range(c * t * j * h * w)]).reshape(c, t, j, h, w)
    xs = np.array([draw(_coordinate(w)) for _ in range(c * t * j * h * w)]).reshape(c, t, j, h, w)
    grid = _grid(k, h, w)
    offsets = np.stack((ys - grid[0], xs - grid[1]), axis=3).reshape(c, 2 * j * t, h, w)
    return draw(st.integers(0, 2**31 - 1)), (c, t, h, w), k, offsets


def _deform_sample_chain(planes, ys, xs):
    """The bridge's former gather op, kept as the oracle of ``deform_conv``:
    ``out[g, ...] = planes[g]`` bilinearly sampled at (ys, xs)."""
    pd, yd, xd = planes.data, ys.data, xs.data
    g_count, h, w = pd.shape
    hp, wp = h + 4, w + 4
    y0 = np.floor(yd).astype(np.int64)
    x0 = np.floor(xd).astype(np.int64)
    fy = yd - y0
    fx = xd - x0
    idx = np.arange(g_count, dtype=np.int32).reshape((g_count,) + (1,) * (yd.ndim - 1))
    idx = idx * (hp * wp) + (np.clip(y0, -2, h).astype(np.int32) + 2) * wp
    idx += np.clip(x0, -2, w).astype(np.int32) + 2
    step = np.array([0, 1, wp, wp + 1], dtype=np.int32).reshape((4,) + (1,) * yd.ndim)
    padded = np.zeros((g_count, hp, wp), dtype=pd.dtype)
    padded[:, 2:-2, 2:-2] = pd
    v = padded.ravel().take(idx + step)
    wy = np.stack((1 - fy, fy))
    wx = np.stack((1 - fx, fx))
    wgt = (wy[:, None] * wx).reshape(v.shape)
    terms = wgt * v
    out = terms[0] + terms[1] + terms[2] + terms[3]

    def pull(g):
        acc = np.bincount((idx + step).ravel(), (g * wgt).ravel(), minlength=g_count * hp * wp)
        g_planes = acc.reshape(g_count, hp, wp)[:, 2:-2, 2:-2].astype(pd.dtype, copy=False)
        g_y = g * (wx[0] * (v[2] - v[0]) + wx[1] * (v[3] - v[1]))
        g_x = g * (wy[0] * (v[1] - v[0]) + wy[1] * (v[3] - v[2]))
        return (g_planes, g_y, g_x)

    return ops._emit("deform_sample", out, (planes, ys, xs), pull)


def _deform_conv_chain(planes, offsets, weight):
    """``deform_conv`` as the bridge computed it before the op was fused:
    grid + offset coordinates, the gather, a multiply by the tap weights and
    a sum over the taps, each its own tape node."""
    c, t, h, w = planes.shape
    k = weight.shape[2]
    j = k * k
    off = ops.reshape(offsets, (c, t, j, 2, h, w))
    grid = _grid(k, h, w).astype(planes.dtype)
    ys = off[:, :, :, 0] + grid[0]
    xs = off[:, :, :, 1] + grid[1]
    samples = _deform_sample_chain(
        ops.reshape(planes, (c * t, h, w)),
        ops.reshape(ys, (c * t, j, h, w)),
        ops.reshape(xs, (c * t, j, h, w)),
    )
    weighted = ops.reshape(samples, (c, t, j, h, w)) * ops.reshape(weight, (1, t, j, 1, 1))
    return ops.sum(weighted, axis=2)


def _deform_conv_stacked(planes, offsets, weight):
    """``deform_conv`` as it was before it stopped stacking its corner
    weights, kept as the op's float32 oracle: an int32 index, a row gather of
    [n, 4] corner blocks, [4, ...] weight stacks, and a pullback that scatters
    all four corners in one float64 bincount."""
    pd, od, wd = planes.data, offsets.data, weight.data
    c, t, h, w = pd.shape
    k = wd.shape[2]
    j = k * k
    w5 = wd.reshape(1, t, j, 1, 1)
    grid = _grid(k, h, w).astype(pd.dtype)
    g_count, hp, wp = c * t, h + 4, w + 4
    off = od.reshape(c, t, j, 2, h, w)
    ys = (off[:, :, :, 0] + grid[0]).reshape(g_count, j, h, w)
    xs = (off[:, :, :, 1] + grid[1]).reshape(g_count, j, h, w)
    y0, x0 = np.floor(ys), np.floor(xs)
    fy, fx = ys - y0, xs - x0
    idx = np.arange(g_count, dtype=np.int32).reshape(g_count, 1, 1, 1) * (hp * wp)
    idx = idx + (np.clip(y0, -2, h).astype(np.int32) + 2) * wp
    idx += np.clip(x0, -2, w).astype(np.int32) + 2
    wy = np.stack((1 - fy, fy))
    wx = np.stack((1 - fx, fx))
    wgt = (wy[:, None] * wx).reshape((4,) + idx.shape)
    padded = np.zeros((g_count, hp, wp), dtype=pd.dtype)
    padded.reshape(c, t, hp, wp)[:, :, 2:-2, 2:-2] = pd
    flat = padded.ravel()
    n = flat.size - wp - 1
    blocks = np.stack((flat[:n], flat[1 : n + 1], flat[wp : wp + n], flat[wp + 1 :]), axis=1)
    v = np.moveaxis(blocks.take(idx.astype(np.intp), axis=0), -1, 0)
    terms = wgt * v
    samples = terms[0] + terms[1]
    samples += terms[2]
    samples += terms[3]
    samples = samples.reshape(c, t, j, h, w)

    def pull(g):
        g5 = np.broadcast_to(g[:, :, None], samples.shape)
        g_w = np.sum(g5 * samples, axis=(0, 3, 4))
        gs = (g5 * w5).reshape(g_count, j, h, w)
        corners = idx.astype(np.intp) + np.array([0, 1, wp, wp + 1]).reshape(4, 1, 1, 1, 1)
        acc = np.bincount(corners.ravel(), (gs * wgt).ravel(), minlength=g_count * hp * wp)
        g_planes = acc.reshape(g_count, hp, wp)[:, 2:-2, 2:-2].astype(v.dtype, copy=False)
        g_y = gs * (wx[0] * (v[2] - v[0]) + wx[1] * (v[3] - v[1]))
        g_x = gs * (wy[0] * (v[1] - v[0]) + wy[1] * (v[3] - v[2]))
        g_off = np.stack((g_y, g_x), axis=2)
        return g_planes.reshape(pd.shape), g_off.reshape(od.shape), g_w.reshape(wd.shape)

    return ops._emit("deform_conv", np.sum(samples * w5, axis=2), (planes, offsets, weight), pull)


def _deform_run(fn, planes, offsets, weight, g_out):
    """(output, [planes, offsets, weight] adjoints) of ``fn`` seeded by g_out."""
    inputs = [Tensor(a, requires_grad=True) for a in (planes, offsets, weight)]
    with GradTape() as tape:
        out = fn(*inputs)
        grads = tape.gradients(out, inputs, seed=g_out)
    return out.data, grads


def _deform_inputs(seed, c, t, h, w, k, dtype=np.float64, spread=3.0):
    rng = np.random.default_rng(seed)
    return (
        rng.standard_normal((c, t, h, w)).astype(dtype),
        (spread * rng.standard_normal((c, 2 * k * k * t, h, w))).astype(dtype),
        rng.standard_normal((t, 1, k, k)).astype(dtype),
        rng.standard_normal((c, t, h, w)).astype(dtype),
    )


class TestDeformSample:
    """``ops.deform_conv``: deformable sampling, tap weights and tap sum."""

    @given(case=_deform_case())
    @settings(max_examples=40, deadline=None)
    def test_matches_scalar_bilinear_sample(self, case):
        seed, (c, t, h, w), k, offsets = case
        rng = np.random.default_rng(seed)
        planes = rng.standard_normal((c, t, h, w))
        weight = rng.standard_normal((t, 1, k, k))
        g_out = rng.standard_normal((c, t, h, w))
        out, (g_p, g_o, g_w) = _deform_run(ops.deform_conv, planes, offsets, weight, g_out)
        j = k * k
        off = offsets.reshape(c, t, j, 2, h, w)
        grid = _grid(k, h, w)
        ref = np.zeros_like(planes)
        ref_p, ref_o, ref_w = np.zeros_like(planes), np.zeros_like(off), np.zeros((t, j))
        for ci, ti, y, x in np.ndindex(c, t, h, w):
            for tap in range(j):
                m = wide(planes[ci, ti], grad=True)
                yy = wide(off[ci, ti, tap, 0, y, x] + grid[0, tap, y, x], grad=True)
                xx = wide(off[ci, ti, tap, 1, y, x] + grid[1, tap, y, x], grad=True)
                wt = weight[ti, 0].ravel()[tap]
                with GradTape() as tape:
                    b = ops.bilinear_sample(m, xx, yy)
                    gm, gx, gy = tape.gradients(b, [m, xx, yy], seed=np.asarray(g_out[ci, ti, y, x] * wt))
                ref[ci, ti, y, x] += wt * b.data
                ref_p[ci, ti] += gm
                ref_o[ci, ti, tap, :, y, x] = gy, gx
                ref_w[ti, tap] += g_out[ci, ti, y, x] * b.data
        ref_o = ref_o.reshape(offsets.shape)
        for got, want in ((out, ref), (g_p, ref_p), (g_o, ref_o), (g_w, ref_w.reshape(weight.shape))):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("c, t, h, w, k", [(1, 1, 1, 1, 1), (3, 4, 6, 5, 3), (2, 3, 7, 7, 5)])
    def test_float64_bit_identical_to_sample_mul_sum_chain(self, c, t, h, w, k):
        inputs = _deform_inputs(c * t + k, c, t, h, w, k)
        out, grads = _deform_run(ops.deform_conv, *inputs)
        want, want_grads = _deform_run(_deform_conv_chain, *inputs)
        np.testing.assert_array_equal(out, want)
        for got, ref in zip(grads, want_grads):
            np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize(
        "c, t, h, w, k, spread",
        [(16, 10, 10, 10, 3, 0.3), (16, 10, 10, 10, 3, 3.0), (2, 10, 38, 30, 5, 1.0)],
        ids=["toy", "toy-border", "gen1-chunk"],
    )
    def test_float32_bit_identical_to_stacked_oracle(self, c, t, h, w, k, spread):
        # the float32 path training runs; _deform_conv_chain computes in float64
        planes, offsets, weight, g_out = _deform_inputs(k + c, c, t, h, w, k, np.float32, spread)
        untaped = ops.deform_conv(planes, offsets, weight).data
        out, grads = _deform_run(ops.deform_conv, planes, offsets, weight, g_out)
        want, want_grads = _deform_run(_deform_conv_stacked, planes, offsets, weight, g_out)
        np.testing.assert_array_equal(out, want)
        np.testing.assert_array_equal(untaped, want)
        for got, ref in zip(grads, want_grads):
            assert got.dtype == ref.dtype == np.float32
            np.testing.assert_array_equal(got, ref)

    def test_taped_peak_memory_per_tap(self):
        # forward plus pullback under a tape at the toy bridge's shape; the
        # [4, ...] weight stacks and the int64 corner index took 143 B/tap
        c, t, h, w, k = 16, 10, 10, 10, 3
        planes, offsets, weight, g_out = _deform_inputs(5, c, t, h, w, k, np.float32, 0.3)
        tracemalloc.start()
        try:
            _deform_run(ops.deform_conv, planes, offsets, weight, g_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (c * t * k * k * h * w) < 100

    def test_float32_stays_float32(self):
        inputs = _deform_inputs(6, 2, 3, 5, 5, 3, dtype=np.float32)
        out, grads = _deform_run(ops.deform_conv, *inputs)
        assert out.dtype == np.float32
        assert [g.dtype for g in grads] == [np.float32] * 3

    def test_inference_peak_memory_is_bounded_by_the_chunk(self, monkeypatch):
        # the bridge runs offsets plus deform_conv one channel chunk at a time
        budget = 1 << 20
        monkeypatch.setattr(ops, "DEFORM_CHUNK_BYTES", budget)
        c, t, h, w, k = 16, 4, 12, 12, 3
        assert c // ops.deform_chunk(t, k, h, w, np.float64) >= 8
        planes = _deform_inputs(7, c, t, h, w, k)[0]
        params = BridgeParams.init(t, kernel=k, rng=np.random.default_rng(7), dtype=WIDE)
        params.offset_w.data = 0.1 * np.random.default_rng(8).standard_normal(params.offset_w.shape)
        bound = 2 * budget + planes.nbytes

        def peak():
            tracemalloc.start()
            try:
                _deformable_branch(Tensor(planes), params)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak() < bound
        # one chunk of all channels holds whole [4, C*T, K^2, H, W] stacks at once
        monkeypatch.setattr(ops, "DEFORM_CHUNK_BYTES", 1 << 40)
        assert peak() > bound

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_coordinates_rejected(self, bad):
        planes = wide(np.ones((1, 1, 3, 3)))
        weight = wide(np.ones((1, 1, 1, 1)))
        for field in (0, 1):  # dy, then dx
            spoiled = np.zeros((1, 2, 3, 3))
            spoiled[0, field, 1, 2] = bad
            with pytest.raises(NumericError, match="non-finite"):
                ops.deform_conv(planes, wide(spoiled), weight)

    def test_int32_index_overflow_is_shape_error(self):
        # zero-stride views: the shapes are huge, nothing is allocated
        t = 60_000
        planes = np.broadcast_to(np.float32(0), (1, t, 200, 200))
        offsets = np.broadcast_to(np.float32(0), (1, 2 * t, 200, 200))
        weight = np.broadcast_to(np.float32(0), (t, 1, 1, 1))
        with pytest.raises(ShapeError, match="int32"):
            ops.deform_conv(planes, offsets, weight)

    def test_int32_index_overflow_over_channels_is_shape_error(self):
        # one channel fits an int32 index, all of them together do not; the
        # op does not chunk, so the caller must (as the bridge does)
        c = 60_000
        planes = np.broadcast_to(np.float32(0), (c, 1, 200, 200))
        offsets = np.broadcast_to(np.float32(0), (c, 2, 200, 200))
        weight = np.broadcast_to(np.float32(0), (1, 1, 1, 1))
        assert ops.deform_chunk(1, 1, 200, 200, np.float32) < c
        with pytest.raises(ShapeError, match="int32"):
            ops.deform_conv(planes, offsets, weight)

    @pytest.mark.parametrize(
        "planes, offsets, weight",
        [((2, 3, 4), (2, 6, 3, 4), (3, 1, 1, 1)), ((2, 3, 4, 4), (2, 5, 4, 4), (3, 1, 1, 1)),
         ((2, 3, 4, 4), (2, 6, 4, 4), (2, 1, 1, 1))],
        ids=["planes-3d", "offset-fields", "weight-steps"],
    )
    def test_shape_mismatch_is_shape_error(self, planes, offsets, weight):
        with pytest.raises(ShapeError):
            ops.deform_conv(np.zeros(planes), np.zeros(offsets), np.zeros(weight))


class TestGradients:
    # full coordinate-wise finite differences on tiny shapes
    def test_conv2d_linear_in_inputs(self):
        rng = np.random.default_rng(7)
        x = wide(rng.standard_normal((2, 5, 5)), grad=True)
        w = wide(rng.standard_normal((4, 1, 3, 3)), grad=True)
        b = wide(rng.standard_normal(4), grad=True)
        rep = grad_check(
            lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1, groups=2),
            [x, w, b],
            rng=rng,
        )
        assert rep.passed and rep.max_rel_error < 1e-6

    def test_softmax_rows_gradient(self):
        rng = np.random.default_rng(8)
        m = wide(rng.standard_normal((4, 4)), grad=True)
        assert grad_check(ops.softmax_rows, [m], rng=rng).passed

    def test_bilinear_sample_gradient_coords_and_map(self):
        rng = np.random.default_rng(9)
        m = wide(rng.standard_normal((5, 5)), grad=True)
        x = wide(np.asarray(1.3), grad=True)
        y = wide(np.asarray(2.7), grad=True)
        assert grad_check(ops.bilinear_sample, [m, x, y], rng=rng).passed

    def test_nonfinite_gradient_reported(self):
        x = wide(np.asarray([0.0, 1.0]), grad=True)
        rep = grad_check(lambda t: ops.log(t), [x])
        assert not rep.passed
        assert rep.failure is not None and "log" in rep.failure

    def test_narrow_floats_rejected(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(NumericError, match="wide"):
            grad_check(lambda t: t * 2.0, [x])


class TestTape:
    def test_no_tape_records_nothing(self):
        x = wide(np.ones(3), grad=True)
        y = x * 2.0
        # outside a tape the op neither records nor marks its output
        assert y.grad is None and not y.requires_grad
        with GradTape() as tape:
            z = x * 2.0
        assert z.requires_grad and len(tape) == 1

    def test_backward_accumulates_into_leaves(self):
        x = wide(np.asarray([1.0, 2.0]), grad=True)
        with GradTape() as tape:
            y = ops.sum(x * x)
            tape.backward(y)
        np.testing.assert_allclose(x.grad, [2.0, 4.0])

    def test_gradients_reuse_across_branches(self):
        x = wide(np.asarray(3.0), grad=True)
        with GradTape() as tape:
            y = x * x + x * 2.0
            (g,) = tape.gradients(y, [x])
        assert g == pytest.approx(8.0)

    def test_detach_blocks_gradient(self):
        x = wide(np.asarray(3.0), grad=True)
        with GradTape() as tape:
            y = x.detach() * x
            (g,) = tape.gradients(y, [x])
        assert g == pytest.approx(3.0)

    def test_zero_extent_rejected(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((0, 3)))


class TestSpike:
    def test_hard_forward_binary(self):
        u = wide([-1.0, 0.0, 2.0])
        out = ops.spike(u)
        np.testing.assert_array_equal(out.data, [0.0, 1.0, 1.0])

    def test_surrogate_derivative_at_zero(self):
        u = wide(np.asarray(0.0), grad=True)
        with GradTape() as tape:
            s = ops.spike(u)
            (g,) = tape.gradients(s, [u])
        assert g == pytest.approx(1.0)  # alpha/2 with alpha = 2

    def test_surrogate_derivative_vanishes_at_infinity(self):
        u = wide(np.asarray([-1e6, 1e6]), grad=True)
        with GradTape() as tape:
            s = ops.sum(ops.spike(u))
            (g,) = tape.gradients(s, [u])
        np.testing.assert_allclose(g, 0.0, atol=1e-9)

    def test_smooth_mode_gradcheck(self):
        rng = np.random.default_rng(11)
        u = wide(rng.standard_normal((3, 3)), grad=True)
        assert grad_check(lambda u: ops.spike(u, smooth=True), [u], rng=rng).passed
