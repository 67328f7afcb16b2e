"""Spiking front-end: neuron dynamics, block shapes, BPTT through the stack."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.errors import ConfigError, NumericError
from evhybrid.numerics import WIDE, GradTape, Tensor, grad_check, ops
from evhybrid.snn import (
    ConvBNBlock,
    ConvSpec,
    SNNBlock,
    conv_bn,
    parse_layer_string,
    plif_step,
    snn_backbone_forward,
)


def plif(w_value=0.0):
    return Tensor(np.asarray(w_value, dtype=WIDE), requires_grad=True)


class TestLayerGrammar:
    def test_parse(self):
        assert parse_layer_string("64c3p1s2") == (64, 3, 1, 2)

    def test_from_string_fields(self):
        assert ConvSpec.from_string("128c5p2s1") == ConvSpec(out_channels=128, kernel=5, padding=2, stride=1)

    def test_malformed_reports_position(self):
        with pytest.raises(ConfigError, match="position 2"):
            parse_layer_string("64x3")

    def test_bad_stride_rejected(self):
        with pytest.raises(ConfigError, match="stride"):
            ConvSpec.from_string("8c3p1s3")


class TestPLIF:
    def test_rest_stays_at_rest(self):
        v, s = plif_step(None, Tensor(np.zeros((1, 2, 2))), plif())
        assert not np.any(v.data) and not np.any(s.data)

    def test_subthreshold_integration(self):
        # sigmoid(0) = 0.5 so tau = 2; V = 0 + 0.5*(1 - 0) = 0.5, no spike
        v, s = plif_step(None, Tensor(np.ones((1, 1, 1))), plif())
        assert v.data.item() == pytest.approx(0.5)
        assert s.data.item() == 0.0

    def test_spike_and_hard_reset(self):
        # V_pre = 0.9 + 0.5*(2 - 0.9) = 1.45 >= 1 -> spike, reset to 0
        v, s = plif_step(Tensor(np.full((1, 1, 1), 0.9)), Tensor(np.full((1, 1, 1), 2.0)), plif())
        assert s.data.item() == 1.0
        assert v.data.item() == 0.0

    def test_tau_at_least_one(self):
        block = make_block(2, "4c3p1s1")
        for w in (-20.0, -1.0, 0.0, 5.0, 20.0):
            block.plif_w.data = np.asarray(w, dtype=WIDE)
            assert block.tau >= 1.0

    def test_convex_combination_bound(self):
        # non-negative input below the threshold of 1: no cell fires, and
        # min(V,X) <= V_pre <= max(V,X)
        rng = np.random.default_rng(0)
        v0 = rng.uniform(0, 0.9, (3, 3))
        x = rng.uniform(0, 0.99, (3, 3))
        v, s = plif_step(Tensor(v0.copy()), Tensor(x), plif(w_value=rng.uniform(-3, 3)))
        assert not s.data.any()
        lo, hi = np.minimum(v0, x), np.maximum(v0, x)
        assert np.all(v.data >= lo - 1e-12) and np.all(v.data <= hi + 1e-12)

    def test_sequence_equals_successive_steps(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((5, 2, 3, 3)))
        w = plif(0.3)
        np.testing.assert_array_equal(ops.plif_scan(x, w).data, step_loop(x, w).data)

    @given(
        seed=st.integers(0, 2**31 - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
        smooth=st.booleans(),
        shape=st.lists(st.integers(1, 5), min_size=2, max_size=4),
    )
    @settings(max_examples=40, deadline=None)
    def test_sequence_gradients_equal_step_loop(self, seed, dtype, smooth, shape):
        # plif_scan's hand-written pullback against plif_step looped over T
        # on the tape; in hard mode it adds the same terms in the same order
        rng = np.random.default_rng(seed)
        xd = (1.5 * rng.standard_normal(shape) + 0.5).astype(dtype)
        wd = np.asarray(rng.uniform(-3.0, 3.0), dtype=dtype)
        g = rng.standard_normal(shape).astype(dtype)
        results = []
        for fn in (ops.plif_scan, step_loop):
            x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
            with GradTape() as tape:
                out = fn(x, w, smooth=smooth)
                results.append([out.data, *tape.gradients(out, [x, w], seed=g)])
        for got, want in zip(*results):
            if smooth:
                np.testing.assert_allclose(got, want, rtol=1e-5 if dtype == np.float32 else 1e-12)
            else:
                np.testing.assert_array_equal(got, want)

    def test_nonfinite_membrane_named(self):
        bad = Tensor(np.full((1, 1, 1), np.inf))
        with pytest.raises(NumericError, match="snn2.*t=4"):
            plif_step(None, bad, plif(), context="snn2", t=4)


def step_loop(x, w, smooth=False):
    """``plif_step`` looped over T op by op: the oracle for ``ops.plif_scan``."""
    v, outs = None, []
    for t in range(x.shape[0]):
        v, s = plif_step(v, x[t], w, smooth=smooth)
        outs.append(s)
    return ops.stack(outs, axis=0)


def make_block(in_ch, spec, seed=0, dtype=WIDE):
    return SNNBlock(in_ch, ConvSpec.from_string(spec), np.random.default_rng(seed), dtype=dtype)


class TestConvBN:
    @pytest.mark.parametrize("shape", [(4, 2, 5, 6), (2, 5, 6)], ids=["TCHW", "CHW"])
    def test_matches_numpy_oracle(self, shape):
        # a 1x1 conv is a channel mix, so the oracle is numpy throughout:
        # batch statistics over every axis but C, running averages after two
        # updates with momentum 0.9, then inference on those averages
        rng = np.random.default_rng(11)
        block = ConvBNBlock(2, ConvSpec(3, kernel=1, padding=0), rng, dtype=WIDE)
        block.bn_gamma.data = rng.uniform(0.5, 2.0, 3)
        block.bn_beta.data = rng.standard_normal(3)
        col = (slice(None), None, None)
        gamma, beta = block.bn_gamma.data[col], block.bn_beta.data[col]
        axes = tuple(i for i in range(len(shape)) if i != len(shape) - 3)

        def conv(x):
            return np.einsum("ci,...ihw->...chw", block.conv_w.data[:, :, 0, 0], x)

        mean, var = np.zeros(3), np.ones(3)
        for _ in range(2):
            x = rng.standard_normal(shape)
            y = conv(x)
            mu, v = y.mean(axis=axes), y.var(axis=axes)
            expect = (y - mu[col]) / np.sqrt(v[col] + 1e-5) * gamma + beta
            np.testing.assert_allclose(conv_bn(Tensor(x), block, training=True).data, expect, rtol=1e-10, atol=1e-12)
            mean, var = 0.9 * mean + 0.1 * mu, 0.9 * var + 0.1 * v
        np.testing.assert_allclose(block.bn_mean, mean, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(block.bn_var, var, rtol=1e-12)
        x, running = rng.standard_normal(shape), block.bn_mean.copy()
        expect = (conv(x) - mean[col]) / np.sqrt(var[col] + 1e-5) * gamma + beta
        np.testing.assert_allclose(conv_bn(Tensor(x), block, training=False).data, expect, rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(block.bn_mean, running)


class TestBlocks:
    def test_zero_input_identity_bn_no_spikes(self):
        block = make_block(2, "4c3p1s1")
        x = Tensor(np.zeros((3, 2, 6, 6)))
        out = snn_backbone_forward(x, [block])
        assert not np.any(out.data)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_output_strictly_binary(self, seed):
        rng = np.random.default_rng(seed)
        block = make_block(2, "4c3p1s2", seed=seed)
        x = Tensor(rng.poisson(0.5, (4, 2, 8, 8)).astype(WIDE))
        out = snn_backbone_forward(x, [block], training=True)
        assert set(np.unique(out.data)) <= {0.0, 1.0}

    def test_stack_shape_arithmetic_small(self):
        # strides 2,2,2,1 take 32x20 down to 4x3 (mirrors the full-size stack)
        blocks = [
            make_block(2, "4c3p1s2"),
            make_block(4, "6c3p1s2", seed=1),
            make_block(6, "8c3p1s2", seed=2),
            make_block(8, "8c3p1s1", seed=3),
        ]
        x = Tensor(np.random.default_rng(0).poisson(0.2, (5, 2, 32, 20)).astype(WIDE))
        out = snn_backbone_forward(x, blocks)
        assert out.shape == (5, 8, 4, 3)

    @pytest.mark.parametrize("taped", [False, True], ids=["inference", "tape"])
    def test_nonfinite_input_named_with_its_step(self, taped):
        # running statistics keep the other steps finite, so the first
        # non-finite membrane is at t = 4
        block = make_block(2, "4c3p1s1", seed=3)
        x = np.random.default_rng(3).poisson(0.5, (6, 2, 5, 5)).astype(WIDE)
        x[4, 0, 2, 2] = np.inf
        with GradTape() if taped else nullcontext(), pytest.raises(NumericError, match="snn1.*t=4"):
            snn_backbone_forward(Tensor(x), [block])

    def test_finite_input_whose_membrane_overflows_named_with_its_step(self):
        # a finite conv output that swings from near -max to near +max of
        # float32 between steps overflows the membrane at t = 1; inference
        # hands input that large to plif_scan, so both paths name the step
        block = make_block(2, "2c3p1s1", dtype=np.float32)
        big = np.finfo(np.float32).max * 0.9
        block.conv_w.data[:] = 0
        block.conv_w.data[:, 0, 1, 1] = -big
        block.conv_w.data[:, 1, 1, 1] = big
        x = np.zeros((3, 2, 5, 5), dtype=np.float32)
        x[0, 0, 2, 2] = x[1, 1, 2, 2] = 1
        messages = []
        for tape in (nullcontext(), GradTape()):
            with tape, np.errstate(over="ignore"), pytest.raises(NumericError) as err:
                snn_backbone_forward(Tensor(x), [block])
            messages.append(str(err.value))
        assert messages == ["non-finite membrane in snn1 at t=1"] * 2

    def test_tape_size_independent_of_time_steps(self):
        # the T loop is one tape node, so T = 10 records what T = 2 does
        block = make_block(2, "4c3p1s2")
        sizes = []
        for t in (2, 10):
            x = Tensor(np.random.default_rng(t).poisson(0.5, (t, 2, 8, 8)).astype(WIDE))
            with GradTape() as tape:
                snn_backbone_forward(x, [block], training=True)
            sizes.append(len(tape))
        assert sizes[0] == sizes[1]

    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigError):
            snn_backbone_forward(Tensor(np.ones((2, 2, 4, 4))), [])

    def test_trace_records_input_counts(self):
        rng = np.random.default_rng(5)
        blocks = [make_block(2, "4c3p1s2", seed=5), make_block(4, "4c3p1s1", seed=6)]
        x = rng.poisson(0.3, (3, 2, 8, 8)).astype(WIDE)
        trace = []
        snn_backbone_forward(Tensor(x), blocks, trace=trace)
        assert [e["name"] for e in trace] == ["snn1", "snn2"]
        assert trace[0] == {
            "name": "snn1", "acs": blocks[0].cfg.accumulates(x != 0),
            "input_spikes": int(np.count_nonzero(x)), "cells": x.size,
        }
        assert all(type(v) is int for e in trace for k, v in e.items() if k != "name")

    def test_astype_casts_every_array_and_leaves_the_block(self):
        block = make_block(2, "4c3p1s1", seed=8, dtype=np.float32)
        wide = block.astype(WIDE)
        arrays = [v for v in vars(wide).values() if isinstance(v, (Tensor, np.ndarray))]
        assert len(arrays) == 6  # conv_w, bn_gamma, bn_beta, bn_mean, bn_var, plif_w
        for a in arrays:
            assert a.dtype == WIDE
        np.testing.assert_array_equal(wide.conv_w.data, block.conv_w.data)
        assert block.conv_w.dtype == block.bn_var.dtype == block.plif_w.dtype == np.float32

    def test_bn_running_stats_move_in_training(self):
        block = make_block(2, "4c3p1s1", seed=7)
        x = Tensor(np.random.default_rng(7).poisson(1.0, (4, 2, 6, 6)).astype(WIDE))
        before = block.bn_mean.copy()
        snn_backbone_forward(x, [block], training=True)
        assert np.any(block.bn_mean != before)

    def test_smooth_mode_leaves_running_stats(self):
        block = make_block(2, "4c3p1s1", seed=9)
        x = Tensor(np.random.default_rng(9).poisson(1.0, (4, 2, 6, 6)).astype(WIDE))
        mean, var = block.bn_mean.copy(), block.bn_var.copy()
        snn_backbone_forward(x, [block], training=True, smooth=True)
        np.testing.assert_array_equal(block.bn_mean, mean)
        np.testing.assert_array_equal(block.bn_var, var)

    def test_bptt_matches_finite_differences_two_block_stack(self):
        # smooth-surrogate network, sequence length 4
        rng = np.random.default_rng(8)
        blocks = [make_block(2, "3c3p1s2", seed=8), make_block(3, "3c3p1s1", seed=9)]
        x = Tensor(rng.uniform(0, 1, (4, 2, 6, 6)), dtype=WIDE, requires_grad=True)
        params = [x]
        for b in blocks:
            params.extend(b.parameters().values())

        def run(*args):
            return ops.sum(snn_backbone_forward(args[0], blocks, training=True, smooth=True))

        rep = grad_check(run, params, rng=rng, max_coords=12)
        assert rep.passed, rep
