"""Per-channel quantization, batchnorm/neuron fusion, fixed-point execution,
and spike-fidelity reporting."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.config import RunConfig
from evhybrid.errors import ConfigError, DataFormatError, NumericError, ShapeError
from evhybrid.model import HybridModel
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
    run_quantize,
    save_quantized,
    spike_fidelity,
)


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
            bias_conv=np.zeros(1), mean_bn=np.zeros(1), var_bn=np.ones(1),
            weight_bn=np.ones(1), bias_bn=np.zeros(1), eps_bn=0.0, tau=1.0,
            q_scale=np.ones(1),
        )
        assert fused.scale[0] == pytest.approx(1.0)
        assert fused.shift[0] == pytest.approx(0.0)

    def test_worked_example(self):
        fused = fuse_bn_lif(
            bias_conv=np.zeros(1), mean_bn=np.ones(1), var_bn=np.full(1, 3.0),
            weight_bn=np.full(1, 2.0), bias_bn=np.full(1, 4.0), eps_bn=1.0, tau=2.0,
            q_scale=np.ones(1),
        )
        assert fused.scale[0] == pytest.approx(0.5)
        assert fused.shift[0] == pytest.approx(1.5)

    def test_preconditions(self):
        with pytest.raises(NumericError):
            fuse_bn_lif(np.zeros(1), np.zeros(1), np.full(1, -1.0), np.ones(1),
                        np.zeros(1), 0.1, 2.0, np.ones(1))
        with pytest.raises(NumericError):
            fuse_bn_lif(np.zeros(1), np.zeros(1), np.ones(1), np.ones(1),
                        np.zeros(1), 0.1, 0.5, np.ones(1))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_fused_preactivation_matches_float_pipeline(self, seed):
        """scale*conv_int(x) + shift == (1/tau) * BN(conv_float(x)) with
        dequantized weights, on random integer inputs."""
        rng = np.random.default_rng(seed)
        c_in, c_out, k = 2, 3, 3
        w = rng.standard_normal((c_out, c_in, k, k))
        bias = rng.standard_normal(c_out)
        mean = rng.standard_normal(c_out)
        var = rng.uniform(0.1, 2.0, c_out)
        gamma = rng.uniform(0.5, 1.5, c_out)
        beta = rng.standard_normal(c_out)
        eps = 1e-5
        tau = float(rng.uniform(1.0, 4.0))
        q = quantize_per_channel(w, 8)
        fused = fuse_bn_lif(bias, mean, var, gamma, beta, eps, tau, q.q_scale)

        x = rng.integers(0, 4, (1, c_in, 6, 6))
        y_int, over = int_conv2d(x, q.int_weights, stride=1, padding=1)
        assert over == 0
        fused_pre = y_int * fused.scale.reshape(1, -1, 1, 1) + fused.shift.reshape(1, -1, 1, 1)

        w_deq = q.dequantize()
        y_f = np.zeros_like(fused_pre)
        from evhybrid.quantize import _float_conv

        y_f, _ = _float_conv(x.astype(np.float64), w_deq, bias, 1, 1)
        bn = (y_f - mean.reshape(1, -1, 1, 1)) / np.sqrt(var + eps).reshape(1, -1, 1, 1)
        bn = bn * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)
        np.testing.assert_allclose(fused_pre, bn / tau, atol=1e-5)


class TestIntConv:
    def test_exact_against_brute_force(self):
        rng = np.random.default_rng(0)
        x = rng.integers(0, 3, (2, 2, 6, 6))
        w = rng.integers(-127, 128, (4, 2, 3, 3))
        y, over = int_conv2d(x, w, stride=2, padding=1)
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
        y, over = int_conv2d(x, wt, stride=stride, padding=padding)
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

    def test_inexact_float64_bound_rejected(self):
        x = np.full((1, 1, 3, 3), 2**45, dtype=np.int64)
        w = np.full((1, 1, 3, 3), 127, dtype=np.int8)
        with pytest.raises(NumericError, match="2\\*\\*53"):
            int_conv2d(x, w, stride=1, padding=1)

    def test_saturation_counted(self):
        x = np.full((1, 1, 3, 3), 2**28, dtype=np.int64)
        w = np.full((1, 1, 3, 3), 100, dtype=np.int64)
        y, over = int_conv2d(x, w, stride=1, padding=0)
        assert over == 1
        assert y.max() == 2**31 - 1


class TestFidelity:
    def test_identical_tensors(self):
        a = np.random.default_rng(0).integers(0, 2, (4, 2, 3, 3))
        rep = spike_fidelity(a, a.copy())
        assert rep.match_rate == 1.0
        assert rep.first_divergence_t is None

    def test_one_flipped_cell_in_hundred(self):
        a = np.zeros((4, 1, 5, 5), dtype=np.int64)
        b = a.copy()
        b[2, 0, 1, 1] = 1
        rep = spike_fidelity(a, b)
        assert rep.match_rate == pytest.approx(0.99)
        assert rep.first_divergence_t == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            spike_fidelity(np.zeros((2, 1, 2, 2)), np.zeros((3, 1, 2, 2)))

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


def tiny_model(seed=0, snn_layers=("4c3p1s2", "6c3p1s1")):
    cfg = RunConfig()
    cfg.simulation.sensor_width = 16
    cfg.simulation.sensor_height = 16
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
        rep = spike_fidelity(ref, test)
        assert rep.match_rate >= 0.98

    def test_fixed_point_requires_integer_input(self):
        model = tiny_model()
        fpm = FixedPointModel.from_model(model, 8)
        with pytest.raises(NumericError):
            fixed_point_forward(np.zeros((10, 2, 16, 16), dtype=np.float32), fpm)

    def test_quantized_model_roundtrip(self, tmp_path):
        model = tiny_model(seed=2)
        counts = np.random.default_rng(2).poisson(0.3, (10, 2, 16, 16)).astype(np.int64)
        fpm, report = run_quantize(model, 8, [counts], out_base=tmp_path / "q")
        again = load_quantized(tmp_path / "q")
        assert again.bits == fpm.bits
        assert [f.name for f in fields(FixedPointBlock)] == [
            "name", "quant", "fused", "stride", "padding", "leak", "v_threshold", "v_reset"
        ]
        assert len(again.blocks) == len(fpm.blocks)
        for a, b in zip(fpm.blocks, again.blocks):
            assert (a.name, a.stride, a.padding) == (b.name, b.stride, b.padding)
            assert (a.leak, a.v_threshold, a.v_reset) == (b.leak, b.v_threshold, b.v_reset)
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
    the fused membrane update of every cell. Returns (layers, saturations)."""
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
        v = np.full(y.shape[1:], blk.v_reset, dtype=np.float64)
        spikes = np.zeros(y.shape, dtype=np.int64)
        for t in range(y.shape[0]):
            v = (1.0 - blk.leak) * v + u[t] + blk.leak * blk.v_reset
            spikes[t] = v >= blk.v_threshold
            v = np.where(spikes[t] == 1, blk.v_reset, v)
        layers.append(spikes)
        x = spikes
    return layers, over


def _random_fpm(rng, bits, geometry):
    """A fixed-point model of 3x3 blocks (c_out, stride, padding) whose
    membranes fire on a few events; a quiet cell may fire too (its fixed point
    shift/leak + v_reset can pass the threshold)."""
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
                v_threshold=1.0,
                v_reset=float(rng.uniform(-0.3, 0.3)),
            )
        )
        c_in = c_out
    return fpm


def _assert_matches_dense(counts, fpm):
    want, want_over = _dense_fixed_point(counts, fpm)
    got = fixed_point_forward(counts, fpm, collect_layers=True)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and g.shape == w.shape
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
        first.fused.shift[:2] = -0.1, first.leak * (first.v_threshold - first.v_reset) * 1.5
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
         "q_scale", "scale", "shift", "stride", "padding", "leak", "v_threshold", "v_reset"],
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
                "stride", "padding", "leak", "v_threshold", "v_reset",
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
            ("v_threshold", None), ("v_threshold", "1"), ("v_threshold", float("inf")), ("v_threshold", True),
            ("v_reset", None), ("v_reset", float("-inf")), ("v_reset", float("nan")),
        ],
    )
    def test_bad_scalar_field_is_data_error(self, base, key, value):
        self._set_field(base, key, value)
        with pytest.raises(DataFormatError, match=key):
            load_quantized(base)

    @pytest.mark.parametrize(
        "key,value", [("stride", 1), ("padding", 0), ("leak", 1), ("leak", 1e-9), ("v_reset", -2), ("v_threshold", 0)]
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


def _oracle_spikes(model, counts):
    """float64 conv, running-stat batchnorm and V <- V + (X - (V - v_reset))/tau
    with hard reset, written out in numpy independently of the package."""
    x = counts.astype(np.float64)
    layers = []
    for blk in model.snn_blocks:
        w = blk.conv_w.data.astype(np.float64)
        k, s, p = blk.cfg.kernel, blk.cfg.stride, blk.cfg.padding
        xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        win = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        y = np.einsum("tchwij,ocij->tohw", win, w) + blk.conv_b.data.astype(np.float64)[:, None, None]
        var = blk.bn_var.astype(np.float64)[:, None, None]
        y = (y - blk.bn_mean.astype(np.float64)[:, None, None]) / np.sqrt(var + blk.bn_eps)
        y = y * blk.bn_gamma.data.astype(np.float64)[:, None, None]
        y = y + blk.bn_beta.data.astype(np.float64)[:, None, None]
        tau = 1.0 + np.exp(-float(blk.plif.w.data))
        v_th, v_reset = blk.plif.v_threshold, blk.plif.v_reset
        v = np.full(y.shape[1:], v_reset)
        spikes = np.zeros(y.shape, dtype=np.int64)
        for t in range(y.shape[0]):
            v = v + (y[t] - (v - v_reset)) / tau
            spikes[t] = v >= v_th
            v[spikes[t] == 1] = v_reset
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
            blk.conv_b.data = rng.uniform(-0.2, 0.2, c).astype(np.float32)
            blk.bn_gamma.data = rng.uniform(0.5, 1.5, c).astype(np.float32)
            blk.bn_beta.data = rng.uniform(0.0, 0.6, c).astype(np.float32)
            blk.bn_mean = rng.uniform(-0.1, 0.1, c).astype(np.float32)
            blk.bn_var = rng.uniform(0.5, 1.5, c).astype(np.float32)
            blk.plif.w.data = np.asarray(rng.uniform(-1.0, 1.0), dtype=np.float32)
        counts = rng.poisson(0.5, (10, 2, 16, 16)).astype(np.int64)
        got = float_reference_spikes(model, counts, collect_layers=True)
        want = _oracle_spikes(model, counts)
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert w.any()
            np.testing.assert_array_equal(g, w)
