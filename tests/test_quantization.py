"""Per-channel quantization, batchnorm/neuron fusion, fixed-point execution,
and spike-fidelity reporting."""

import json
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_conv_output
from evhybrid.config import RunConfig
from evhybrid.errors import ConfigError, DataFormatError, NumericError, ShapeError
from evhybrid.model import HybridModel
from evhybrid.numerics import WIDE, GradTape, Tensor, ops
from evhybrid import quantize, snn
from evhybrid.quantize import (
    FixedPointBlock,
    FixedPointModel,
    FusedLIFParams,
    QuantParams,
    fidelity_from_layers,
    fixed_point_forward,
    float_reference_spikes,
    fuse_bn_lif,
    int_conv2d,
    load_quantized,
    quantize_per_channel,
    reference_layers,
    run_quantize,
    save_quantized,
)
from evhybrid.snn import conv_bn, snn_backbone_forward


class TestQuantizePerChannel:
    def test_closed_form_int8(self):
        w = np.zeros((1, 4))
        w[0] = (1.27, 0.5, -0.5, 0.0)
        q = quantize_per_channel(w, 8)
        assert q.q_scale[0] == pytest.approx(0.01)
        assert q.int_weights[0, 1] == 50
        assert q.int_weights[0, 2] == -50

    def test_all_zero_channel_scale_one(self):
        q = quantize_per_channel(np.zeros((2, 3, 3)), 8)
        np.testing.assert_array_equal(q.q_scale, 1.0)
        assert not np.any(q.int_weights)

    def test_int2_range_and_rounding(self):
        w = np.array([[1.0, 0.9, 0.4, -1.0]])
        q = quantize_per_channel(w, 2)
        assert set(np.unique(q.int_weights)) <= {-1, 0, 1}
        assert q.int_weights[0, 1] == 1  # 0.9/1.0 rounds to 1

    def test_round_half_away_from_zero(self):
        w = np.array([[1.27, 0.635]])  # scale 0.01; 63.5 rounds away to 64
        q = quantize_per_channel(w, 8)
        assert q.int_weights[0, 1] == 64

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            quantize_per_channel(np.array([[np.inf]]), 8)

    def test_bad_bits_rejected(self):
        with pytest.raises(ConfigError):
            quantize_per_channel(np.ones((1, 1)), 3)

    @given(seed=st.integers(0, 2**31 - 1), bits=st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=30, deadline=None)
    def test_dequantize_error_bound_and_idempotence(self, seed, bits):
        w = np.random.default_rng(seed).standard_normal((3, 2, 3, 3))
        q = quantize_per_channel(w, bits)
        deq = q.dequantize()
        bound = q.q_scale.reshape(-1, 1, 1, 1) / 2 + 1e-12
        assert np.all(np.abs(deq - w) <= bound)
        q2 = quantize_per_channel(deq, bits)
        np.testing.assert_array_equal(q.int_weights, q2.int_weights)
        np.testing.assert_allclose(q.q_scale, q2.q_scale, rtol=1e-12)


class TestFuseBnLif:
    def test_identity_configuration(self):
        fused = fuse_bn_lif(
            mean_bn=np.zeros(1), var_bn=np.ones(1),
            weight_bn=np.ones(1), bias_bn=np.zeros(1), eps_bn=0.0, tau=1.0,
            q_scale=np.ones(1),
        )
        assert fused.scale[0] == pytest.approx(1.0)
        assert fused.shift[0] == pytest.approx(0.0)

    def test_worked_example(self):
        fused = fuse_bn_lif(
            mean_bn=np.ones(1), var_bn=np.full(1, 3.0),
            weight_bn=np.full(1, 2.0), bias_bn=np.full(1, 4.0), eps_bn=1.0, tau=2.0,
            q_scale=np.ones(1),
        )
        assert fused.scale[0] == pytest.approx(0.5)
        assert fused.shift[0] == pytest.approx(1.5)

    def test_preconditions(self):
        with pytest.raises(NumericError):
            fuse_bn_lif(np.zeros(1), np.full(1, -1.0), np.ones(1),
                        np.zeros(1), 0.1, 2.0, np.ones(1))
        with pytest.raises(NumericError):
            fuse_bn_lif(np.zeros(1), np.ones(1), np.ones(1),
                        np.zeros(1), 0.1, 0.5, np.ones(1))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fused_preactivation_matches_float_pipeline(self, seed):
        """scale*conv_int(x) + shift == (1/tau) * BN(conv_float(x)) with
        dequantized weights, on random integer inputs."""
        rng = np.random.default_rng(seed)
        c_in, c_out, k = 2, 3, 3
        w = rng.standard_normal((c_out, c_in, k, k))
        mean = rng.standard_normal(c_out)
        var = rng.uniform(0.1, 2.0, c_out)
        gamma = rng.uniform(0.5, 1.5, c_out)
        beta = rng.standard_normal(c_out)
        eps = 1e-5
        tau = float(rng.uniform(1.0, 4.0))
        q = quantize_per_channel(w, 8)
        fused = fuse_bn_lif(mean, var, gamma, beta, eps, tau, q.q_scale)

        x = rng.integers(0, 4, (1, c_in, 6, 6))
        rows, live, hw, over = int_conv2d(x, q.int_weights, stride=1, padding=1)
        y_int = dense_conv_output(rows, live, hw).transpose(0, 3, 1, 2)
        assert over == 0
        fused_pre = y_int * fused.scale.reshape(1, -1, 1, 1) + fused.shift.reshape(1, -1, 1, 1)

        y_f = ops.conv2d(x.astype(np.float64), q.dequantize(), stride=1, padding=1).data
        bn = (y_f - mean.reshape(1, -1, 1, 1)) / np.sqrt(var + eps).reshape(1, -1, 1, 1)
        bn = bn * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(fused_pre, bn / tau, atol=1e-5)


class TestIntConv:
    def test_exact_against_brute_force(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 3, (2, 2, 6, 6))
        w = rng.integers(-127, 128, (4, 2, 3, 3))
        rows, live, hw, over = int_conv2d(x, w, stride=2, padding=1)
        y = dense_conv_output(rows, live, hw).transpose(0, 3, 1, 2)
        assert over == 0
        assert y.shape == (2, 4, 3, 3)
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for n in range(2):
            for co in range(4):
                for oy in range(3):
                    for ox in range(3):
                        patch = xp[n, :, oy * 2 : oy * 2 + 3, ox * 2 : ox * 2 + 3]
                        assert y[n, co, oy, ox] == np.sum(patch * w[co])

    @given(
        seed=st.integers(0, 2**31 - 1),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1, 2]),
        h=st.integers(3, 8),
        w=st.integers(3, 8),
        x_bits=st.integers(0, 20),
        w_bits=st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_int64_oracle(self, seed, stride, padding, h, w, x_bits, w_bits):
        rng = np.random.default_rng(seed)
        x = rng.integers(-(2**x_bits), 2**x_bits + 1, (2, 2, h, w))
        wt = rng.integers(-(2**w_bits), 2**w_bits + 1, (3, 2, 3, 3))
        rows, live, hw, over = int_conv2d(x, wt, stride=stride, padding=padding)
        y = dense_conv_output(rows, live, hw).transpose(0, 3, 1, 2)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        h_out = (h + 2 * padding - 3) // stride + 1
        w_out = (w + 2 * padding - 3) // stride + 1
        want = np.zeros((2, 3, h_out, w_out), dtype=np.int64)
        for n in range(2):
            for co in range(3):
                for oy in range(h_out):
                    for ox in range(w_out):
                        patch = xp[n, :, oy * stride : oy * stride + 3, ox * stride : ox * stride + 3]
                        want[n, co, oy, ox] = np.sum(patch * wt[co])
        limit = 2**31 - 1
        assert over == np.count_nonzero(np.abs(want) > limit)
        assert y.dtype == np.int64
        np.testing.assert_array_equal(y, np.clip(want, -limit, limit))

    @given(
        seed=st.integers(0, 2**31 - 1),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1, 2]),
        h=st.integers(3, 9),
        w=st.integers(3, 9),
        steps=st.integers(1, 3),
        kind=st.sampled_from(["random", "border", "empty"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_compact_layout(self, seed, stride, padding, h, w, steps, kind):
        """``live`` is the sorted set of output sites that some in-bounds tap
        of an active input site reaches, found here by brute force; the
        trailing row stands for every other site and stays zero."""
        rng = np.random.default_rng(seed)
        x = np.zeros((steps, 2, h, w), dtype=np.int64)
        if kind == "random":
            x[:] = rng.binomial(2, 0.1, x.shape)
        elif kind == "border":
            for border in (np.s_[..., 0, :], np.s_[..., -1, :], np.s_[..., :, 0], np.s_[..., :, -1]):
                x[border] = rng.binomial(1, 0.3, x[border].shape)
        wt = rng.integers(-127, 128, (4, 2, 3, 3))
        rows, live, hw, over = int_conv2d(x, wt, stride=stride, padding=padding)
        h_out = (h + 2 * padding - 3) // stride + 1
        w_out = (w + 2 * padding - 3) // stride + 1
        reached = set()
        for oy in range(h_out):
            for ox in range(w_out):
                for ky in range(3):
                    for kx in range(3):
                        iy, ix = oy * stride - padding + ky, ox * stride - padding + kx
                        if 0 <= iy < h and 0 <= ix < w and x[:, :, iy, ix].any():
                            reached.add(oy * w_out + ox)
        assert hw == (h_out, w_out) and over == 0
        assert np.all(np.diff(live) > 0) and set(live.tolist()) == reached
        assert rows.shape == (steps, len(live) + 1, 4) and rows.dtype == np.int64
        assert not rows[:, -1].any()
        if kind == "empty":
            assert len(live) == 0

    def test_inexact_float64_bound_rejected(self):
        x = np.full((1, 1, 3, 3), 2**45, dtype=np.int64)
        w = np.full((1, 1, 3, 3), 127, dtype=np.int8)
        with pytest.raises(NumericError, match="2\\*\\*53"):
            int_conv2d(x, w, stride=1, padding=1)

    @given(
        seed=st.integers(0, 2**31 - 1),
        stride=st.sampled_from([1, 2]),
        padding=st.sampled_from([0, 1]),
        h=st.integers(3, 7),
        w=st.integers(3, 7),
        margin=st.integers(0, 3),
        sparse=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_float64_products_exact_just_below_2_53(self, seed, stride, padding, h, w, margin, sparse):
        # the taps run as float64 products, exact while x_peak * max_c sum|w|
        # stays below 2**53; every channel's weights sum to 0, so a cell whose
        # taps all read input near the peak cancels terms near 2**53 to a
        # small value, which a rounded product or sum would move
        rng = np.random.default_rng(seed)
        wt = rng.integers(-127, 128, (3, 2, 3, 3))
        wt[:, 0, 0, 0] -= wt.reshape(3, -1).sum(axis=1)
        w_sum = int(np.abs(wt).reshape(3, -1).sum(axis=1).max())
        peak = (2**53 - 1) // w_sum - margin
        assert 2**53 - (margin + 1) * w_sum <= peak * w_sum < 2**53
        x = peak - rng.integers(0, 4, (2, 2, h, w))
        if sparse:
            x *= rng.random((2, 1, h, w)) < 0.5
        x[0, 0, 0, 0] = peak
        rows, live, hw, over = int_conv2d(x, wt, stride=stride, padding=padding)
        xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))[:, :, ::stride, ::stride]
        want = np.einsum("nchwij,ocij->nhwo", win, wt)  # int64, exact below 2**63
        limit = 2**31 - 1
        assert over == np.count_nonzero(np.abs(want) > limit)
        np.testing.assert_array_equal(dense_conv_output(rows, live, hw), np.clip(want, -limit, limit))

    def test_bound_of_exactly_2_53_rejected(self):
        w = np.zeros((1, 1, 3, 3), dtype=np.int64)
        w[0, 0, 1, 1] = 8
        x = np.zeros((1, 1, 3, 3), dtype=np.int64)
        x[0, 0, 1, 1] = 2**50 - 1  # bound 2**53 - 8: runs, and saturates
        rows, live, hw, over = int_conv2d(x, w, stride=1, padding=1)
        assert over == 1 and dense_conv_output(rows, live, hw)[0, 1, 1, 0] == 2**31 - 1
        x[0, 0, 1, 1] = 2**50
        with pytest.raises(NumericError, match="2\\*\\*53"):
            int_conv2d(x, w, stride=1, padding=1)

    def test_saturation_counted(self):
        x = np.full((1, 1, 3, 3), 2**28, dtype=np.int64)
        w = np.full((1, 1, 3, 3), 100, dtype=np.int64)
        rows, live, hw, over = int_conv2d(x, w, stride=1, padding=0)
        y = dense_conv_output(rows, live, hw)
        assert over == 1
        assert y.max() == 2**31 - 1


class TestFidelity:
    def test_identical_tensors(self):
        a = np.random.default_rng(0).integers(0, 2, (4, 2, 3, 3))
        rep = fidelity_from_layers([a], [a.copy()], ["spikes"])
        assert rep.match_rate == 1.0
        assert rep.first_divergence_t is None

    def test_one_flipped_cell_in_hundred(self):
        a = np.zeros((4, 1, 5, 5), dtype=np.int64)
        b = a.copy()
        b[2, 0, 1, 1] = 1
        rep = fidelity_from_layers([a], [b], ["spikes"])
        assert rep.match_rate == pytest.approx(0.99)
        assert rep.first_divergence_t == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            fidelity_from_layers([np.zeros((2, 1, 2, 2))], [np.zeros((3, 1, 2, 2))], ["spikes"])

    def test_multi_layer_merge(self):
        a = [np.zeros((2, 1, 2, 2), dtype=int), np.zeros((2, 1, 2, 2), dtype=int)]
        b = [x.copy() for x in a]
        b[1][0, 0, 0, 0] = 1
        rep = fidelity_from_layers(a, b, ["snn1", "snn2"])
        assert rep.per_layer_mismatch == {"snn1": 0, "snn2": 1}
        assert rep.first_divergence_t == 0
        assert rep.match_rate == pytest.approx(15 / 16)

    def test_repeated_layer_names_add_up(self):
        a = [np.zeros((2, 1, 2, 2), dtype=int) for _ in range(4)]
        b = [x.copy() for x in a]
        b[0][1, 0, 0, 0] = 1
        b[2][0, 0, 1, 1] = 1
        b[2][1, 0, 1, 0] = 1
        b[3][1, 0, 0, 1] = 1
        rep = fidelity_from_layers(a, b, ["snn1", "snn2", "snn1", "snn2"])
        assert rep.per_layer_mismatch == {"snn1": 3, "snn2": 1}
        assert list(rep.per_layer_mismatch) == ["snn1", "snn2"]
        assert rep.first_divergence_t == 0
        assert rep.match_rate == pytest.approx(28 / 32)


def tiny_model(seed=0, snn_layers=("4c3p1s2", "6c3p1s1"), height=16, width=16):
    cfg = RunConfig()
    cfg.simulation.sensor_width = width
    cfg.simulation.sensor_height = height
    cfg.architecture.snn_layers = list(snn_layers)
    cfg.architecture.ann_layers = ["8c3p1s1"]
    cfg.architecture.lstm_positions = []
    cfg.architecture.bridge_kernel = 3
    cfg.validate()
    return HybridModel(cfg, seed=seed)


class TestFixedPointPipeline:
    def test_zero_events_zero_spikes_with_zero_shift(self):
        model = tiny_model()
        fpm = FixedPointModel.from_model(model, 8)
        for blk in fpm.blocks:
            blk.fused.shift[:] = 0.0
        counts = np.zeros((10, 2, 16, 16), dtype=np.int64)
        spikes = fixed_point_forward(counts, fpm)
        assert not np.any(spikes)

    def test_int8_matches_float_reference_on_random_model(self):
        rng = np.random.default_rng(1)
        model = tiny_model(seed=1)
        # give batchnorm plausible running statistics
        for blk in model.snn_blocks:
            blk.bn_mean = rng.uniform(-0.1, 0.1, blk.bn_mean.shape).astype(np.float32)
            blk.bn_var = rng.uniform(0.5, 1.5, blk.bn_var.shape).astype(np.float32)
        counts = rng.poisson(0.3, (10, 2, 16, 16)).astype(np.int64)
        ref = float_reference_spikes(model, counts)
        test = fixed_point_forward(counts, FixedPointModel.from_model(model, 8))
        rep = fidelity_from_layers([ref], [test], ["snn2"])
        assert rep.match_rate >= 0.98

    def test_fixed_point_requires_integer_input(self):
        model = tiny_model()
        fpm = FixedPointModel.from_model(model, 8)
        with pytest.raises(NumericError):
            fixed_point_forward(np.zeros((10, 2, 16, 16), dtype=np.float32), fpm)

    def test_quantized_model_roundtrip(self, tmp_path):
        model = tiny_model(seed=2)
        counts = np.random.default_rng(2).poisson(0.3, (10, 2, 16, 16)).astype(np.int64)
        fpm, report = run_quantize(model, 8, [counts])
        save_quantized(fpm, tmp_path / "q")
        again = load_quantized(tmp_path / "q")
        assert again.bits == fpm.bits
        assert [f.name for f in fields(FixedPointBlock)] == [
            "name", "quant", "fused", "stride", "padding", "leak"
        ]
        assert len(again.blocks) == len(fpm.blocks)
        for a, b in zip(fpm.blocks, again.blocks):
            assert (a.name, a.stride, a.padding) == (b.name, b.stride, b.padding)
            assert a.leak == b.leak
            assert a.quant.bits == b.quant.bits
            for x, y in [(a.quant.q_scale, b.quant.q_scale), (a.quant.int_weights, b.quant.int_weights),
                         (a.fused.scale, b.fused.scale), (a.fused.shift, b.fused.shift)]:
                assert x.dtype == y.dtype
                np.testing.assert_array_equal(x, y)
        out_a = fixed_point_forward(counts, fpm)
        out_b = fixed_point_forward(counts, again)
        np.testing.assert_array_equal(out_a, out_b)

    def test_save_is_deterministic(self, tmp_path):
        model = tiny_model(seed=3)
        fpm = FixedPointModel.from_model(model, 6)
        save_quantized(fpm, tmp_path / "a")
        save_quantized(fpm, tmp_path / "b")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


def _dense_fixed_point(counts, fpm):
    """The dense fixed-point forward, the oracle of the event-driven one: an
    int64 im2col conv over every (t, y, x) site with int32 saturation, then
    the fused membrane update of every cell, firing at 1 and resetting to 0.
    Returns (layers, saturations)."""
    limit = 2**31 - 1
    x = np.asarray(counts, dtype=np.int64)
    layers, over = [], 0
    for blk in fpm.blocks:
        w = blk.quant.int_weights.astype(np.int64)
        k, s, p = w.shape[-1], blk.stride, blk.padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        y = np.einsum("tchwij,ocij->tohw", win, w)
        over += int(np.count_nonzero(np.abs(y) > limit))
        y = np.clip(y, -limit, limit)
        c = y.shape[1]
        u = y.astype(np.float64) * blk.fused.scale.reshape(1, c, 1, 1) + blk.fused.shift.reshape(1, c, 1, 1)
        v = np.zeros(y.shape[1:], dtype=np.float64)
        spikes = np.zeros(y.shape, dtype=np.int64)
        for t in range(y.shape[0]):
            v = (1.0 - blk.leak) * v + u[t]
            spikes[t] = v >= 1.0
            v = np.where(spikes[t] == 1, 0.0, v)
        layers.append(spikes)
        x = spikes
    return layers, over


def _random_fpm(rng, bits, geometry):
    """A fixed-point model of 3x3 blocks (c_out, stride, padding) whose
    membranes fire on a few events; a quiet cell may fire too (its fixed point
    shift/leak can pass the threshold of 1)."""
    qmax = 2 ** (bits - 1) - 1
    fpm, c_in = FixedPointModel(bits=bits), 2
    for i, (c_out, stride, padding) in enumerate(geometry, start=1):
        ints = rng.integers(-qmax, qmax + 1, (c_out, c_in, 3, 3)).astype(np.int8)
        fpm.blocks.append(
            FixedPointBlock(
                name=f"snn{i}",
                quant=QuantParams(bits=bits, q_scale=np.ones(c_out), int_weights=ints),
                fused=FusedLIFParams(
                    scale=rng.uniform(-0.5, 1.0, c_out) / qmax, shift=rng.uniform(-0.3, 0.3, c_out)
                ),
                stride=stride,
                padding=padding,
                leak=float(rng.uniform(0.2, 1.0)),
            )
        )
        c_in = c_out
    return fpm


def _assert_matches_dense(counts, fpm):
    want, want_over = _dense_fixed_point(counts, fpm)
    got = fixed_point_forward(counts, fpm, collect_layers=True)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.bool_ and g.shape == w.shape
        np.testing.assert_array_equal(g, w)
    assert fpm.overflow_count == want_over
    np.testing.assert_array_equal(fixed_point_forward(counts, fpm), want[-1])
    return want


class TestEventDrivenForward:
    @given(
        seed=st.integers(0, 2**31 - 1),
        geometry=st.lists(
            st.tuples(st.integers(1, 5), st.sampled_from([1, 2]), st.integers(0, 2)), min_size=1, max_size=3
        ),
        bits=st.integers(2, 8),
        steps=st.integers(1, 5),
        h=st.integers(16, 20),
        w=st.integers(16, 20),
        density=st.sampled_from([0.003, 0.02, 0.1]),
        peak=st.sampled_from([1, 2**24]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_forward(self, seed, geometry, bits, steps, h, w, density, peak):
        rng = np.random.default_rng(seed)
        fpm = _random_fpm(rng, bits, geometry)
        counts = rng.binomial(3, density, (steps, 2, h, w)).astype(np.int64) * peak
        _assert_matches_dense(counts, fpm)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_window(self, seed):
        fpm = _random_fpm(np.random.default_rng(seed), 8, [(4, 2, 1), (6, 1, 1)])
        for blk in fpm.blocks:
            blk.fused.shift[:] = np.minimum(blk.fused.shift, 0.0)
        want = _assert_matches_dense(np.zeros((6, 2, 16, 16), dtype=np.int64), fpm)
        assert not any(layer.any() for layer in want)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_zero_window_with_firing_quiet_trajectory(self, seed):
        fpm = _random_fpm(np.random.default_rng(seed), 8, [(4, 2, 1), (6, 1, 1)])
        first = fpm.blocks[0]
        first.fused.shift[:2] = -0.1, first.leak * 1.5
        want = _assert_matches_dense(np.zeros((6, 2, 16, 16), dtype=np.int64), fpm)
        assert want[0][:, 1].any() and not want[0][:, 0].any()

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_events_on_the_border(self, stride, padding):
        rng = np.random.default_rng(10 * stride + padding)
        fpm = _random_fpm(rng, 8, [(4, stride, padding), (3, stride, padding)])
        counts = np.zeros((4, 2, 17, 19), dtype=np.int64)
        for border in (np.s_[:, :, 0, :], np.s_[:, :, -1, :], np.s_[:, :, :, 0], np.s_[:, :, :, -1]):
            counts[border] = rng.binomial(2, 0.5, counts[border].shape)
        want = _assert_matches_dense(counts, fpm)
        assert want[0].any()


class TestQuantizedFormat:
    @pytest.fixture
    def base(self, tmp_path):
        save_quantized(FixedPointModel.from_model(tiny_model(seed=4), 8), tmp_path / "q")
        return tmp_path / "q"

    @pytest.mark.parametrize(
        "manifest", [b"\xff" * 8, b"{not json", b'{"bits": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "not-json", "huge-int"],
    )
    def test_corrupt_manifest_is_data_error(self, base, manifest):
        base.with_suffix(".json").write_bytes(manifest)
        with pytest.raises(DataFormatError, match="manifest"):
            load_quantized(base)

    @pytest.mark.parametrize(
        "missing",
        ["format_version", "bits", "layers", "name", "shape", "weights_offset", "weights_nbytes",
         "q_scale", "scale", "shift", "stride", "padding", "leak"],
    )
    def test_manifest_missing_field_is_data_error(self, base, missing):
        path = base.with_suffix(".json")
        manifest = json.loads(path.read_text())
        for entry in [manifest, *manifest["layers"]]:
            entry.pop(missing, None)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match=missing):
            load_quantized(base)

    def test_layer_keys(self, base):
        manifest = json.loads(base.with_suffix(".json").read_text())
        assert set(manifest) == {"format_version", "bits", "layers"}
        for layer in manifest["layers"]:
            assert set(layer) == {
                "name", "shape", "weights_offset", "weights_nbytes", "q_scale", "scale", "shift",
                "stride", "padding", "leak",
            }

    @staticmethod
    def _set_field(base, key, value):
        path = base.with_suffix(".json")
        manifest = json.loads(path.read_text())
        manifest["layers"][-1][key] = value
        path.write_text(json.dumps(manifest))

    @pytest.mark.parametrize(
        "key,value",
        [
            ("name", 3), ("name", None),
            ("stride", "2"), ("stride", 0), ("stride", 1.0), ("stride", True),
            ("padding", "1"), ("padding", -1), ("padding", False),
            ("leak", None), ("leak", "0.5"), ("leak", 0.0), ("leak", 1.5), ("leak", float("nan")),
        ],
    )
    def test_bad_scalar_field_is_data_error(self, base, key, value):
        self._set_field(base, key, value)
        with pytest.raises(DataFormatError, match=key):
            load_quantized(base)

    @pytest.mark.parametrize(
        "key,value", [("stride", 1), ("padding", 0), ("leak", 1), ("leak", 1e-9)]
    )
    def test_edge_scalar_field_loads(self, base, key, value):
        self._set_field(base, key, value)
        assert getattr(load_quantized(base).blocks[-1], key) == value

    def test_bad_scalar_field_exits_data_error(self, base, monkeypatch, capsys):
        """No command reads quantized.json, so a stand-in command loads one
        through the CLI's error handling."""
        from evhybrid import cli

        self._set_field(base, "stride", "2")
        monkeypatch.setitem(cli._COMMANDS, "quantize", lambda args, cfg: load_quantized(base))
        assert cli.main(["quantize", "--checkpoint", str(base)]) == 3
        assert "error[data]" in capsys.readouterr().err

    def test_weights_past_end_of_blob_is_data_error(self, base):
        path = base.with_suffix(".bin")
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(DataFormatError, match="past the end"):
            load_quantized(base)

    @pytest.mark.parametrize("key", ["q_scale", "scale", "shift"])
    def test_short_per_channel_list_is_data_error(self, base, key):
        layer = json.loads(base.with_suffix(".json").read_text())["layers"][-1]
        self._set_field(base, key, layer[key][:-1])
        with pytest.raises(DataFormatError, match=f"'{key}' needs"):
            load_quantized(base)

    @pytest.mark.parametrize("key,bad", [("q_scale", "1"), ("scale", None), ("shift", float("nan"))])
    def test_non_finite_per_channel_entry_is_data_error(self, base, key, bad):
        layer = json.loads(base.with_suffix(".json").read_text())["layers"][-1]
        self._set_field(base, key, [bad] + layer[key][1:])
        with pytest.raises(DataFormatError, match=f"'{key}' needs"):
            load_quantized(base)

    def test_negative_weights_offset_is_data_error(self, base):
        # counted from the end of the blob, this offset slices a full set of
        # bytes that overlaps the previous layer's weights
        layer = json.loads(base.with_suffix(".json").read_text())["layers"][-1]
        self._set_field(base, "weights_offset", -layer["weights_nbytes"] - 1)
        with pytest.raises(DataFormatError, match="needs integer offset"):
            load_quantized(base)

    def test_weights_nbytes_disagreeing_with_shape_is_data_error(self, base):
        layer = json.loads(base.with_suffix(".json").read_text())["layers"][-1]
        self._set_field(base, "weights_nbytes", layer["weights_nbytes"] - 1)
        with pytest.raises(DataFormatError, match=r"holds \d+ bytes"):
            load_quantized(base)

    def test_weights_not_4d_is_data_error(self, base):
        layer = json.loads(base.with_suffix(".json").read_text())["layers"][-1]
        self._set_field(base, "shape", [layer["weights_nbytes"]])
        with pytest.raises(DataFormatError, match="4 dims"):
            load_quantized(base)

    @pytest.mark.parametrize("bits", [3, 16, 8.0, True, "8"])
    def test_bad_bits_is_data_error(self, base, bits):
        path = base.with_suffix(".json")
        manifest = json.loads(path.read_text())
        manifest["bits"] = bits
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match="bits must be one of"):
            load_quantized(base)

    def test_version_1_manifest_is_data_error(self, base):
        """Format 1 stored a threshold and a reset per layer; format 2 fires at
        1 and resets to 0, so a format-1 file is refused by its version."""
        path = base.with_suffix(".json")
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 1
        for layer in manifest["layers"]:
            layer.update(v_threshold=1.0, v_reset=0.0)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataFormatError, match="version 1"):
            load_quantized(base)


def _oracle_spikes(model, counts):
    """float64 conv, running-stat batchnorm and V <- V + (X - V)/tau, firing at
    1 with a hard reset to 0, written out in numpy independently of the package."""
    x = counts.astype(np.float64)
    layers = []
    for blk in model.snn_blocks:
        w = blk.conv_w.data.astype(np.float64)
        k, s, p = blk.cfg.kernel, blk.cfg.stride, blk.cfg.padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        y = np.einsum("tchwij,ocij->tohw", win, w)
        var = blk.bn_var.astype(np.float64)[:, None, None]
        y = (y - blk.bn_mean.astype(np.float64)[:, None, None]) / np.sqrt(var + blk.bn_eps)
        y = y * blk.bn_gamma.data.astype(np.float64)[:, None, None]
        y = y + blk.bn_beta.data.astype(np.float64)[:, None, None]
        tau = 1.0 + np.exp(-float(blk.plif_w.data))
        v = np.zeros(y.shape[1:])
        spikes = np.zeros(y.shape, dtype=np.int64)
        for t in range(y.shape[0]):
            v = v + (y[t] - v) / tau
            spikes[t] = v >= 1.0
            v[spikes[t] == 1] = 0.0
        layers.append(spikes)
        x = spikes.astype(np.float64)
    return layers


class TestFloatReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("snn_layers", [("4c3p1s2", "6c3p1s1"), ("4c3p1s1", "6c3p1s2")])
    def test_matches_numpy_oracle(self, seed, snn_layers):
        rng = np.random.default_rng(seed)
        model = tiny_model(seed=seed, snn_layers=snn_layers)
        for blk in model.snn_blocks:
            c = blk.cfg.out_channels
            blk.conv_w.data = (blk.conv_w.data * 3).astype(np.float32)
            blk.bn_gamma.data = rng.uniform(0.5, 1.5, c).astype(np.float32)
            blk.bn_beta.data = rng.uniform(0.0, 0.6, c).astype(np.float32)
            blk.bn_mean = rng.uniform(-0.1, 0.1, c).astype(np.float32)
            blk.bn_var = rng.uniform(0.5, 1.5, c).astype(np.float32)
            blk.plif_w.data = np.asarray(rng.uniform(-1.0, 1.0), dtype=np.float32)
        counts = rng.poisson(0.5, (10, 2, 16, 16)).astype(np.int64)
        got = float_reference_spikes(model, counts, collect_layers=True)
        want = _oracle_spikes(model, counts)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert w.any()
            np.testing.assert_array_equal(g, w)


def _dense_float_reference(model, counts):
    """The dense float reference the event-driven one replaced, kept as its
    oracle: im2col ``conv2d`` over every site with running-stat batchnorm
    (``conv_bn`` in inference) and ``ops.plif_scan`` over every cell, on
    float64 copies of the blocks."""
    x = Tensor(np.asarray(counts, dtype=WIDE))
    layers = []
    for i, blk in enumerate(model.snn_blocks, start=1):
        blk = blk.astype(WIDE)
        x = ops.plif_scan(conv_bn(x, blk, training=False), blk.plif_w, context=f"snn{i}")
        layers.append(x.data.astype(np.int64))
    return layers


def _firing_model(rng, snn_layers, height=16, width=16, quiet_fires=True):
    """A tiny model whose spiking layers fire on a few events; with
    ``quiet_fires``, the first channel's quiet trajectory (no input at all)
    fires too, so the next layer reads input at every site."""
    model = tiny_model(seed=int(rng.integers(2**31)), snn_layers=snn_layers, height=height, width=width)
    for blk in model.snn_blocks:
        c = blk.cfg.out_channels
        blk.conv_w.data = (blk.conv_w.data * 4).astype(np.float32)
        blk.bn_gamma.data = rng.uniform(0.5, 1.5, c).astype(np.float32)
        blk.bn_beta.data = rng.uniform(-0.3, 0.6, c).astype(np.float32)
        blk.bn_mean = rng.uniform(-0.1, 0.1, c).astype(np.float32)
        blk.bn_var = rng.uniform(0.5, 1.5, c).astype(np.float32)
        blk.plif_w.data = np.asarray(rng.uniform(-1.0, 1.0), dtype=np.float32)
    if quiet_fires:
        model.snn_blocks[0].bn_beta.data[0] = 1.5
    return model


def _assert_matches_dense_reference(model, counts):
    want = _dense_float_reference(model, counts)
    got = float_reference_spikes(model, counts, collect_layers=True)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.bool_ and g.shape == w.shape
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(float_reference_spikes(model, counts), want[-1])
    return want


def _window(rng, kind, shape):
    if kind == "zero":
        return np.zeros(shape, dtype=np.int64)
    if kind == "ones":
        return np.ones(shape, dtype=np.int64)
    counts = rng.binomial(3, 0.05, shape).astype(np.int64)
    counts[shape[0] // 2 :] = 0  # "silent-tail": the later steps hold no event
    return counts


def _sensor_like_window(rng):
    """A [10, 2, 240, 304] window shaped like the deployment workload's:
    uniform noise on about 0.25% of the (t, y, x) sites, plus the 2-px
    outlines of four 20-px squares moving up to 2 px per step, so that about
    1% of the sites hold an event and about a quarter of the stride-2 output
    sites ever receive one."""
    counts = rng.binomial(1, 0.00125, (10, 2, 240, 304)).astype(np.int64)
    ring = np.ones((20, 20), dtype=bool)
    ring[2:-2, 2:-2] = False
    for _ in range(4):
        y0, x0 = rng.integers(30, 190), rng.integers(30, 254)
        vy, vx = rng.integers(-2, 3, 2)
        for t in range(10):
            y, x = y0 + vy * t, x0 + vx * t
            counts[t, t % 2, y : y + 20, x : x + 20] += ring
    return counts


class TestEventDrivenFloatReference:
    """The event-driven float reference against the dense one: spike-equal
    layers. Its conv sums taps in another order, so membranes may move by
    ulps; on random weights no spike sits that close to the threshold."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        geometry=st.lists(
            st.tuples(st.integers(1, 5), st.sampled_from([1, 2]), st.sampled_from([0, 1])), min_size=1, max_size=3
        ),
        steps=st.integers(1, 5),
        h=st.integers(16, 20),
        w=st.integers(16, 20),
        density=st.sampled_from([0.003, 0.02, 0.1]),
        silent_from=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_reference(self, seed, geometry, steps, h, w, density, silent_from):
        rng = np.random.default_rng(seed)
        model = _firing_model(rng, [f"{c}c3p{p}s{s}" for c, s, p in geometry], h, w)
        counts = rng.binomial(3, density, (steps, 2, h, w)).astype(np.int64)
        counts[silent_from:] = 0
        _assert_matches_dense_reference(model, counts)

    @pytest.mark.parametrize("kind", ["zero", "ones", "silent-tail"])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_window_kinds(self, kind, stride, padding):
        rng = np.random.default_rng(100 * stride + 10 * padding + len(kind))
        model = _firing_model(rng, [f"4c3p{padding}s{stride}", f"3c3p{padding}s{stride}"])
        want = _assert_matches_dense_reference(model, _window(rng, kind, (6, 2, 16, 16)))
        assert want[0][:, 0].any()  # the first channel fires even where no input reaches it

    def test_sparse_sensor_window(self):
        rng = np.random.default_rng(10)
        model = _firing_model(rng, ["8c3p1s2", "16c3p1s2"], height=240, width=304, quiet_fires=False)
        want = _assert_matches_dense_reference(model, _sensor_like_window(rng))
        assert all(layer.any() for layer in want)

    def test_peak_memory_below_dense_im2col(self):
        # the dense path's layer-1 float64 im2col alone is T * C_in * K*K *
        # H' * W' * 8 bytes (26 MB here); on a window as sparse as the
        # deployment workload's, the event-driven pass stays below it
        rng = np.random.default_rng(8)
        model = _firing_model(rng, ["8c3p1s2", "16c3p1s2"], height=240, width=304, quiet_fires=False)
        counts = _sensor_like_window(rng)
        sites = counts.any(axis=1)
        reach = np.lib.stride_tricks.sliding_window_view(np.pad(sites.any(axis=0), 1), (3, 3))[::2, ::2]
        assert 0.008 <= sites.mean() <= 0.011 and reach.any(axis=(2, 3)).mean() <= 0.3
        im2col = 10 * 2 * 3 * 3 * 120 * 152 * 8
        tracemalloc.start()
        try:
            float_reference_spikes(model, counts, collect_layers=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < im2col

    @pytest.mark.parametrize("path", ["fixed-point", "reference"])
    def test_peak_memory_below_dense_conv_output(self, path):
        # layer 1's dense float64 conv output alone is T * H' * W' * C_out * 8
        # bytes (11.7 MB here); both forwards store conv rows only at the live
        # output sites, about a quarter of them on this window
        rng = np.random.default_rng(8)
        model = _firing_model(rng, ["8c3p1s2", "16c3p1s2"], height=240, width=304, quiet_fires=False)
        counts = _sensor_like_window(rng)
        fpm = FixedPointModel.from_model(model, 8)
        dense_output = 10 * 120 * 152 * 8 * 8
        tracemalloc.start()
        try:
            if path == "fixed-point":
                fixed_point_forward(counts, fpm, collect_layers=True)
            else:
                float_reference_spikes(model, counts, collect_layers=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < dense_output

    @pytest.mark.parametrize("shape", [(2, 16, 16), (1, 6, 2, 16, 16), (6, 3, 16, 16), (6, 1, 16, 16)])
    def test_counts_not_t_2_h_w_is_shape_error(self, shape):
        model = tiny_model()
        with pytest.raises(ShapeError):
            float_reference_spikes(model, np.ones(shape, dtype=np.int64))

    @pytest.mark.parametrize("kind", ["zero", "silent-tail"])
    @pytest.mark.parametrize("layer, stat", [(0, "bn_var"), (1, "bn_mean"), (1, "bn_var")])
    def test_non_finite_batchnorm_statistic_names_the_layer(self, kind, layer, stat):
        rng = np.random.default_rng(9)
        model = _firing_model(rng, ["4c3p1s2", "6c3p1s1"])
        blk = model.snn_blocks[layer]
        getattr(blk, stat)[-1] = np.nan if stat == "bn_var" else np.inf
        with pytest.raises(NumericError, match=f"snn{layer + 1}"):
            float_reference_spikes(model, _window(rng, kind, (6, 2, 16, 16)))

    @pytest.mark.parametrize("kind", ["zero", "silent-tail"])
    @pytest.mark.parametrize("layer", [0, 1])
    def test_non_finite_conv_weight_names_the_layer(self, kind, layer):
        # a dense conv multiplies every weight by the input, zeros included;
        # the rulebook conv never touches the weights on a silent window
        rng = np.random.default_rng(10)
        model = _firing_model(rng, ["4c3p1s2", "6c3p1s1"])
        model.snn_blocks[layer].conv_w.data[-1, 0, 1, 1] = np.nan
        with pytest.raises(NumericError, match=f"snn{layer + 1}"):
            float_reference_spikes(model, _window(rng, kind, (6, 2, 16, 16)))


class TestEventDrivenInference:
    """``snn_backbone_forward`` in inference runs the rulebook conv and the
    live-site membranes; taped or training calls keep the dense path."""

    @given(
        seed=st.integers(0, 2**31 - 1),
        geometry=st.lists(
            st.tuples(st.integers(1, 5), st.sampled_from([1, 2]), st.sampled_from([0, 1])), min_size=1, max_size=3
        ),
        kind=st.sampled_from(["zero", "sparse", "ones"]),
        steps=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_dense_composition(self, seed, geometry, kind, steps):
        # float64 blocks: every layer, read from chained one-block calls, and
        # the last from the whole stack, equals conv_bn + plif_scan spike for spike
        rng = np.random.default_rng(seed)
        model = _firing_model(rng, [f"{c}c3p{p}s{s}" for c, s, p in geometry])
        shape = (steps, 2, 16, 16)
        counts = rng.binomial(3, 0.03, shape).astype(np.int64) if kind == "sparse" else _window(rng, kind, shape)
        want = _dense_float_reference(model, counts)
        blocks = [blk.astype(WIDE) for blk in model.snn_blocks]
        got, x = [], Tensor(counts.astype(WIDE))
        for blk in blocks[:-1]:
            x = snn_backbone_forward(x, [blk])
            got.append(x.data)
        out = snn_backbone_forward(Tensor(counts.astype(WIDE)), blocks)
        assert out.dtype == WIDE and not out.requires_grad
        got.append(out.data)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_taped_inference_keeps_the_dense_op(self):
        rng = np.random.default_rng(3)
        model = _firing_model(rng, ["4c3p1s2"])
        block = model.snn_blocks[0]
        x = Tensor(rng.binomial(3, 0.05, (4, 2, 16, 16)).astype(np.float32))
        untaped = snn_backbone_forward(x, [block])
        with GradTape() as tape:
            taped = snn_backbone_forward(x, [block])
        assert len(tape) > 0 and taped.requires_grad and not untaped.requires_grad
        np.testing.assert_array_equal(taped.data, untaped.data)

    @pytest.mark.parametrize("layer", [0, 1])
    def test_non_finite_weight_on_a_silent_window_raises(self, layer):
        # a dense conv meets every weight even on a silent window; the event
        # path meets none, so it checks the weights itself
        model = tiny_model(seed=4)
        model.snn_blocks[layer].conv_w.data[0, 0, 1, 1] = np.nan
        counts = np.zeros((model.config.simulation.T, 2, 16, 16), dtype=np.int64)
        with pytest.raises(NumericError, match=f"snn{layer + 1}"):
            model.forward_window(counts, training=False)

    def test_peak_memory_below_dense_conv_output(self):
        # on a window as sparse as the deployment workload's, the float32
        # inference pass stays below layer 1's dense float64 conv output
        # (11.7 MB), the bound of the float reference above; the dense
        # path's float32 im2col alone is 13.1 MB
        rng = np.random.default_rng(8)
        model = _firing_model(rng, ["8c3p1s2", "16c3p1s2"], height=240, width=304, quiet_fires=False)
        x = Tensor(_sensor_like_window(rng).astype(np.float32))
        dense_output = 10 * 120 * 152 * 8 * 8
        tracemalloc.start()
        try:
            out = snn_backbone_forward(x, model.snn_blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.data.any() and peak < dense_output


def _quantize_windows(rng):
    """A sparse window, a silent one, and one whose layer-1 conv leaves the
    int32 range at every width."""
    sparse = rng.binomial(3, 0.05, (6, 2, 16, 16)).astype(np.int64)
    loud = np.zeros((6, 2, 16, 16), dtype=np.int64)
    loud[2, :, 5:8, 5:8] = 2**31
    return [sparse, np.zeros_like(sparse), loud]


class TestSharedRulebook:
    """``run_quantize`` without ``ref_layers`` builds each window's layer-1
    rulebook once, for the float reference and the fixed-point forward."""

    @pytest.mark.parametrize("bits", [8, 6, 4, 2])
    def test_shared_and_separate_paths_agree(self, bits, monkeypatch):
        rng = np.random.default_rng(bits)
        model = _firing_model(rng, ["4c3p1s2", "6c3p1s1"])
        windows = _quantize_windows(rng)
        fpm_sep, rep_sep = run_quantize(model, bits, windows, ref_layers=reference_layers(model, windows))
        collected = []
        compare = quantize.fidelity_from_layers

        def collect(refs, tests, names):
            collected.append((refs, tests))
            return compare(refs, tests, names)

        monkeypatch.setattr(quantize, "fidelity_from_layers", collect)
        fpm, rep = run_quantize(model, bits, windows)
        assert rep == rep_sep and rep.match_rate < 1.0
        assert fpm.overflow_count == fpm_sep.overflow_count > 0
        (refs, tests), = collected
        alone = FixedPointModel.from_model(model, bits)
        want_refs = [layer for counts in windows for layer in float_reference_spikes(model, counts, True)]
        want_tests = [layer for counts in windows for layer in fixed_point_forward(counts, alone, True)]
        assert len(refs) == len(want_refs) == len(tests) == len(want_tests) == 6
        for got, want in zip(refs + tests, want_refs + want_tests):
            np.testing.assert_array_equal(got, want)
        assert alone.overflow_count == fpm.overflow_count

    def test_one_rulebook_build_per_window_and_layer(self, monkeypatch):
        model = _firing_model(np.random.default_rng(5), ["4c3p1s2", "6c3p1s1"])
        window = [_quantize_windows(np.random.default_rng(5))[0]]
        refs = reference_layers(model, window)
        builds = []
        build = snn._Rulebook.__init__

        def counted(self, *args):
            builds.append(args[0].shape)
            build(self, *args)

        monkeypatch.setattr(snn._Rulebook, "__init__", counted)
        run_quantize(model, 8, window)
        assert len(builds) == 3  # layer 1 once, layer 2 once per path
        builds.clear()
        run_quantize(model, 8, window, ref_layers=refs)
        assert len(builds) == 2
