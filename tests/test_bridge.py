"""Bridge module: grouping, deformable conv oracles, attention invariants,
the event-rate gate, and end-to-end differentiability."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.bridge import (
    BridgeParams,
    asab_forward,
    attention_parts,
    ers_gate,
    predict_offsets,
    temporal_attention,
    temporal_grouping,
    tsdc,
)
from evhybrid.errors import ConfigError
from evhybrid.numerics import NARROW, WIDE, GradTape, Tensor, grad_check, ops


def params_for(t, kernel=3, heads=1, seed=0, dtype=WIDE):
    return BridgeParams.init(t, kernel=kernel, heads=heads, rng=np.random.default_rng(seed), dtype=dtype)


def rand_spikes(rng, t, c, h, w, rate=0.3, dtype=WIDE):
    return Tensor((rng.random((t, c, h, w)) < rate).astype(dtype))


def bridge_gradcheck(p, rng, c, h, w):
    """grad_check of sum(asab_forward) over [T, c, h, w] inputs, in the input
    and every bridge parameter."""
    # keep sampling coordinates clearly fractional: bilinear interpolation
    # is piecewise linear in the coordinates, and finite differences
    # straddle the kink when a sample sits on an integer grid line
    p.offset_w.data = 0.01 * rng.standard_normal(p.offset_w.shape)
    p.offset_b.data = rng.uniform(0.2, 0.4, p.offset_b.shape) * rng.choice(
        [-1.0, 1.0], p.offset_b.shape
    )
    x = Tensor(rng.uniform(0.0, 1.0, (p.n_steps, c, h, w)), dtype=WIDE, requires_grad=True)
    tensors = [x] + list(p.parameters().values())

    def run(*args):
        return ops.sum(asab_forward(args[0], p))

    return grad_check(run, tensors, rng=rng, max_coords=10, tolerance=1e-4)


class TestGrouping:
    def test_involution_when_square(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((4, 4, 3, 3)))
        twice = temporal_grouping(temporal_grouping(x))
        np.testing.assert_array_equal(twice.data, x.data)

    def test_entry_mapping(self):
        x = np.zeros((2, 3, 2, 2))
        x[1, 2, 0, 1] = 7.0
        out = temporal_grouping(Tensor(x))
        assert out.data[2, 1, 0, 1] == 7.0

    def test_mass_preserved(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.random((3, 5, 4, 4)))
        assert temporal_grouping(x).data.sum() == pytest.approx(x.data.sum())


class TestOffsets:
    def test_zero_init_gives_zero_offsets(self):
        p = params_for(t=4)
        a_c = Tensor(np.random.default_rng(0).standard_normal((4, 6, 6)))
        off = predict_offsets(a_c, p)
        assert off.shape == (2 * 9 * 4, 6, 6)
        assert not np.any(off.data)

    def test_spatial_dims_preserved(self):
        p = params_for(t=3, kernel=5)
        a_c = Tensor(np.random.default_rng(1).standard_normal((3, 7, 9)))
        assert predict_offsets(a_c, p).shape == (2 * 25 * 3, 7, 9)

    def test_offsets_vary_with_input_on_random_weights(self):
        p = params_for(t=3)
        p.offset_w.data = np.random.default_rng(2).standard_normal(p.offset_w.shape)
        rng = np.random.default_rng(3)
        outs = [
            predict_offsets(Tensor(rng.standard_normal((3, 5, 5))), p).data for _ in range(4)
        ]
        spread = np.std([o.mean() for o in outs])
        assert spread > 0


def grouped_conv_reference(a_c, p):
    """Standard grouped conv with groups = T (the zero-offset oracle)."""
    return ops.conv2d(
        a_c, p.tsdc_w, p.tsdc_b, stride=1, padding=(p.kernel - 1) // 2, groups=p.n_steps
    )


class TestTSDC:
    @given(
        seed=st.integers(0, 2**31 - 1),
        t=st.sampled_from([1, 2, 3, 5]),
        kernel=st.sampled_from([1, 3, 5]),
        h=st.integers(4, 9),
        w=st.integers(4, 9),
    )
    @settings(max_examples=50, deadline=None)
    def test_zero_offsets_equal_grouped_conv(self, seed, t, kernel, h, w):
        rng = np.random.default_rng(seed)
        p = params_for(t=t, kernel=kernel, seed=seed)
        a_c = Tensor(rng.standard_normal((t, h, w)))
        zero_off = Tensor(np.zeros((2 * kernel * kernel * t, h, w)))
        out = tsdc(a_c, zero_off, p)
        ref = grouped_conv_reference(a_c, p)
        assert np.abs(out.data - ref.data).max() < 1e-6

    def test_constant_unit_x_offset_shifts_left(self):
        rng = np.random.default_rng(4)
        t, k, h, w = 3, 3, 6, 6
        p = params_for(t=t, kernel=k, seed=4)
        a = rng.standard_normal((t, h, w))
        # the sampler reads the true input through the left conv-padding band,
        # where a pre-shifted array would read zero fill; blank that band so
        # the shift identity is exact everywhere
        a[:, :, 0] = 0.0
        off = np.zeros((t, k * k, 2, h, w))
        off[:, :, 1] = 1.0  # dx = +1 everywhere
        out = tsdc(Tensor(a), Tensor(off.reshape(2 * k * k * t, h, w)), p)
        shifted = np.zeros_like(a)
        shifted[:, :, :-1] = a[:, :, 1:]  # shift left, zero fill on the right
        ref = grouped_conv_reference(Tensor(shifted), p)
        np.testing.assert_allclose(out.data, ref.data, atol=1e-6)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_time_separability_exact(self, seed):
        # with the offset fields held fixed, the per-timestep groups are
        # fully independent: exact zeros off the perturbed step
        rng = np.random.default_rng(seed)
        t, k, h, w = 4, 3, 5, 5
        p = params_for(t=t, kernel=k, seed=seed)
        offsets = Tensor(rng.uniform(-1.5, 1.5, (2 * k * k * t, h, w)))
        a = rng.standard_normal((t, h, w))
        base = tsdc(Tensor(a), offsets, p).data
        for step in range(t):
            bumped = a.copy()
            bumped[step] += rng.standard_normal((h, w))
            out = tsdc(Tensor(bumped), offsets, p).data
            others = [s for s in range(t) if s != step]
            np.testing.assert_array_equal(out[others], base[others])
            assert np.any(out[step] != base[step])


class TestTemporalAttention:
    def test_single_step_degenerates_to_value_plane(self):
        p = params_for(t=1)
        a = Tensor(np.random.default_rng(5).standard_normal((1, 4, 4)))
        scores, attended = attention_parts(a, p)
        np.testing.assert_allclose(scores.data, [[1.0]])
        value = a.data * float(p.v_gain.data[0]) + float(p.v_bias.data[0])
        np.testing.assert_allclose(attended.data, value[None][0], atol=1e-12)
        out = temporal_attention(a, p)
        expected = value[0] * p.comb_w.data[0, 0, 0, 0] + p.comb_b.data[0]
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_identical_timesteps_give_uniform_scores(self):
        p = params_for(t=5)
        plane = np.random.default_rng(6).standard_normal((4, 4))
        a = Tensor(np.broadcast_to(plane, (5, 4, 4)).copy())
        scores, _ = attention_parts(a, p)
        np.testing.assert_allclose(scores.data, 0.2, atol=1e-6)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        p = params_for(t=4, seed=seed)
        a = Tensor(rng.standard_normal((4, 5, 5)))
        scores, _ = attention_parts(a, p)
        np.testing.assert_allclose(scores.data.sum(axis=1), 1.0, atol=1e-6)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_permutation_equivariance_before_combination(self, seed):
        rng = np.random.default_rng(seed)
        t = 5
        p = params_for(t=t, seed=seed)
        a = rng.standard_normal((t, 4, 4))
        perm = rng.permutation(t)
        scores, attended = attention_parts(Tensor(a), p)
        scores_p, attended_p = attention_parts(Tensor(a[perm]), p)
        np.testing.assert_allclose(scores_p.data, scores.data[np.ix_(perm, perm)], atol=1e-6)
        np.testing.assert_allclose(attended_p.data, attended.data[perm], atol=1e-6)

    def test_multihead_channel_split(self):
        rng = np.random.default_rng(7)
        p = params_for(t=6, heads=2, seed=7)
        a = Tensor(rng.standard_normal((6, 3, 3)))
        out = temporal_attention(a, p)
        assert out.shape == (3, 3)
        with pytest.raises(Exception):
            params_for(t=5, heads=2)


def per_head_oracle(a, p):
    """temporal_attention of [T, H, W] planes built from single-head parts:
    head hd attends over its own G = T/heads planes with its own gains."""
    g = p.n_steps // p.heads
    attended = []
    for hd in range(p.heads):
        single = params_for(t=g)
        for name in ("q_gain", "q_bias", "k_gain", "k_bias", "v_gain", "v_bias"):
            getattr(single, name).data = getattr(p, name).data[hd : hd + 1].copy()
        single.scale_scores = p.scale_scores
        attended.append(attention_parts(Tensor(a[hd * g : (hd + 1) * g]), single)[1].data)
    planes = np.concatenate(attended)
    return np.tensordot(p.comb_w.data[0, :, 0, 0], planes, axes=1) + p.comb_b.data[0]


class TestMultiHead:
    @pytest.mark.parametrize("heads", [2, 5])
    @pytest.mark.parametrize("scale_scores", [False, True])
    def test_matches_per_head_oracle(self, heads, scale_scores):
        rng = np.random.default_rng(heads)
        p = params_for(t=10, heads=heads, seed=heads)
        p.scale_scores = scale_scores
        for prm in p.parameters().values():
            prm.data = prm.data + 0.5 * rng.standard_normal(prm.shape)
        a = rng.standard_normal((10, 4, 5))
        out = temporal_attention(Tensor(a), p)
        np.testing.assert_allclose(out.data, per_head_oracle(a, p), rtol=1e-12, atol=1e-12)

    def test_end_to_end_gradcheck_two_heads(self):
        rng = np.random.default_rng(15)
        p = params_for(t=4, heads=2, seed=15)
        for name in ("q_gain", "q_bias", "k_gain", "k_bias", "v_gain", "v_bias"):
            getattr(p, name).data = getattr(p, name).data + 0.3 * rng.standard_normal(2)
        rep = bridge_gradcheck(p, rng, c=2, h=5, w=5)
        assert rep.passed, rep


class TestERSGate:
    def test_zero_spikes_half_gate(self):
        rng = np.random.default_rng(8)
        spikes = Tensor(np.zeros((10, 3, 4, 4)))
        a_out = Tensor(rng.standard_normal((3, 4, 4)))
        out = ers_gate(spikes, a_out)
        np.testing.assert_allclose(out.data, 0.5 * a_out.data, atol=1e-12)

    def test_all_steps_firing_saturates_gate(self):
        spikes = np.zeros((10, 1, 2, 2))
        spikes[:, 0, 0, 0] = 1.0
        a_out = Tensor(np.ones((1, 2, 2)))
        out = ers_gate(Tensor(spikes), a_out)
        assert out.data[0, 0, 0] == pytest.approx(1.0 / (1.0 + np.exp(-10.0)))

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_gate_monotone_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        spikes = (rng.random((6, 2, 3, 3)) < 0.4).astype(float)
        a_out = Tensor(rng.standard_normal((2, 3, 3)))
        out = ers_gate(Tensor(spikes), a_out).data
        assert np.all(np.abs(out) <= np.abs(a_out.data) + 1e-12)
        cell = (0, 1, 1)
        more = spikes.copy()
        more[:, cell[0], cell[1], cell[2]] = 1.0
        out2 = ers_gate(Tensor(more), a_out).data
        assert abs(out2[cell]) >= abs(out[cell]) - 1e-12


class TestFullBridge:
    def test_output_shape(self):
        rng = np.random.default_rng(9)
        p = params_for(t=4)
        spikes = rand_spikes(rng, 4, 5, 6, 6)
        out = asab_forward(spikes, p)
        assert out.shape == (5, 6, 6)

    def test_zero_spikes_bias_path_halved(self):
        rng = np.random.default_rng(13)
        p = params_for(t=4, seed=13)
        p.tsdc_b.data = rng.standard_normal(4)
        p.comb_b.data = rng.standard_normal(1)
        spikes = Tensor(np.zeros((4, 3, 5, 5)))
        out = asab_forward(spikes, p)
        # zero input: the deformable conv emits its bias planes, attention
        # mixes them (same for every channel), gate is sigmoid(0) = 0.5
        bias_planes = Tensor(np.zeros((4, 5, 5))) + ops.reshape(p.tsdc_b, (4, 1, 1))
        a_out = temporal_attention(bias_planes, p)
        expected = 0.5 * np.broadcast_to(a_out.data, (3, 5, 5))
        np.testing.assert_allclose(out.data, expected, atol=1e-9)

    def test_time_sum_variant_differs_from_full(self):
        rng = np.random.default_rng(10)
        p = params_for(t=4, seed=10)
        spikes = rand_spikes(rng, 4, 3, 6, 6)
        full = asab_forward(spikes, p, variant="full")
        plain = asab_forward(spikes, p, variant="no-asab")
        assert full.shape == plain.shape
        assert np.abs(full.data - plain.data).max() > 1e-3

    def test_variant_wirings(self):
        rng = np.random.default_rng(11)
        p = params_for(t=3, seed=11)
        spikes = rand_spikes(rng, 3, 2, 5, 5)
        np.testing.assert_array_equal(
            asab_forward(spikes, p, variant="no-asab").data, spikes.data.sum(axis=0)
        )
        for variant in ("no-ta", "no-deform", "no-ers"):
            out = asab_forward(spikes, p, variant=variant)
            assert out.shape == (2, 5, 5)

    def test_channel_chunks_change_no_forward_bit(self, monkeypatch):
        # the offsets and the deformable conv run one channel chunk at a time
        rng = np.random.default_rng(14)
        p = params_for(t=3, seed=14)
        p.offset_w.data = 0.3 * rng.standard_normal(p.offset_w.shape)
        spikes = rand_spikes(rng, 3, 5, 6, 6)

        def run():
            x = Tensor(spikes.data, requires_grad=True)
            with GradTape() as tape:
                out = asab_forward(x, p)
                grads = tape.gradients(out, [x, *p.parameters().values()], seed=np.ones(out.shape))
            return out.data, grads, len(tape)

        out, grads, nodes = run()
        monkeypatch.setattr(ops, "DEFORM_CHUNK_BYTES", 1)  # one channel per chunk
        out_c, grads_c, nodes_c = run()
        assert nodes_c > nodes
        np.testing.assert_array_equal(out_c, out)
        for got, want in zip(grads_c, grads):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_parameter_order(self):
        # fixes the optimizer's and the gradient clip's summation order
        assert list(params_for(t=2).parameters()) == [
            "offset_w", "offset_b", "tsdc_w", "tsdc_b", "q_gain", "q_bias",
            "k_gain", "k_bias", "v_gain", "v_bias", "comb_w", "comb_b",
        ]

    def test_end_to_end_gradcheck_small_instance(self):
        rng = np.random.default_rng(12)
        rep = bridge_gradcheck(params_for(t=3, seed=12), rng, c=2, h=6, w=6)
        assert rep.passed, rep

    def test_scaled_scores_keep_float32(self):
        rng = np.random.default_rng(16)
        p32 = params_for(t=4, seed=16, dtype=NARROW)
        p32.scale_scores = True
        p64 = params_for(t=4, seed=16)
        p64.scale_scores = True
        for name, prm in p32.parameters().items():
            prm.data = (prm.data + 0.3 * rng.standard_normal(prm.shape)).astype(NARROW)
            p64.parameters()[name].data = prm.data.astype(WIDE)
        spikes = rand_spikes(rng, 4, 3, 6, 6, dtype=NARROW)
        out32 = asab_forward(spikes, p32)
        out64 = asab_forward(Tensor(spikes.data.astype(WIDE)), p64)
        assert out32.data.dtype == NARROW
        np.testing.assert_allclose(out32.data, out64.data, rtol=1e-5, atol=1e-5)

    def test_end_to_end_gradcheck_scaled_scores(self):
        rng = np.random.default_rng(17)
        p = params_for(t=4, seed=17)
        p.scale_scores = True
        rep = bridge_gradcheck(p, rng, c=2, h=5, w=5)
        assert rep.passed, rep


class TestGeometry:
    @pytest.mark.parametrize("heads", [0, -2, 3])
    def test_heads_at_least_one_and_dividing_t(self, heads):
        with pytest.raises(ConfigError, match="bridge_heads"):
            params_for(t=4, heads=heads)

    @pytest.mark.parametrize("kernel", [0, -1, 4])
    def test_kernel_odd_and_at_least_one(self, kernel):
        with pytest.raises(ConfigError, match="bridge_kernel"):
            params_for(t=4, kernel=kernel)
