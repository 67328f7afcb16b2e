"""Dense back-end: blocks, the depthwise-separable ConvLSTM, toy head/loss."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.ann import (
    DWConvLSTM,
    DWConvLSTMState,
    ToyHead,
    ann_backbone_forward,
    ann_block_forward,
    dwconvlstm_step,
    toy_head_forward,
    toy_loss,
)
from evhybrid.errors import ConfigError
from evhybrid.numerics import WIDE, Tensor, grad_check, ops
from evhybrid.snn import ConvBNBlock, ConvSpec


def make_block(in_ch, spec, seed=0):
    return ConvBNBlock(in_ch, ConvSpec.from_string(spec), np.random.default_rng(seed), dtype=WIDE)


class TestANNBlocks:
    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_output_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        block = make_block(3, "4c3p1s1", seed=seed)
        out = ann_block_forward(Tensor(rng.standard_normal((3, 6, 6))), block, training=True)
        assert np.all(out.data >= 0)

    def test_identity_norm_identity_kernel_is_relu(self):
        block = make_block(1, "1c1p0s1")
        block.conv_w.data = np.ones((1, 1, 1, 1))
        x = np.random.default_rng(1).standard_normal((1, 5, 5))
        out = ann_block_forward(Tensor(x), block, training=False)  # running stats identity
        np.testing.assert_allclose(out.data, np.maximum(x, 0), atol=1e-5)

    def test_stride_two_halves_even_dims(self):
        block = make_block(2, "4c3p1s2")
        out = ann_block_forward(Tensor(np.random.default_rng(2).standard_normal((2, 8, 12))), block)
        assert out.shape == (4, 4, 6)


class TestDWConvLSTM:
    def test_zero_everything_stays_zero(self):
        unit = DWConvLSTM(2, np.random.default_rng(0), dtype=WIDE)
        for p in unit.parameters().values():
            p.data = np.zeros_like(p.data)
        state = DWConvLSTMState()
        _, h = dwconvlstm_step(state, Tensor(np.zeros((2, 4, 4))), unit)
        assert not np.any(h.data)

    def test_memory_retention_with_saturated_gates(self):
        # f >> 0 and i << 0 keep the cell essentially unchanged
        unit = DWConvLSTM(1, np.random.default_rng(1), dtype=WIDE)
        for p in unit.parameters().values():
            p.data = np.zeros_like(p.data)
        unit.pw_b.data = np.array([-30.0, 30.0, 0.0, 0.0])  # (i, f, g, o)
        c0 = np.random.default_rng(2).standard_normal((1, 3, 3))
        state = DWConvLSTMState(h=Tensor(np.zeros((1, 3, 3))), c=Tensor(c0.copy()))
        dwconvlstm_step(state, Tensor(np.random.default_rng(3).standard_normal((1, 3, 3))), unit)
        np.testing.assert_allclose(state.c.data, c0, atol=1e-8)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_hidden_state_bounded(self, seed):
        rng = np.random.default_rng(seed)
        unit = DWConvLSTM(3, rng, dtype=WIDE)
        state = DWConvLSTMState()
        for _ in range(4):
            _, h = dwconvlstm_step(state, Tensor(10.0 * rng.standard_normal((3, 4, 4))), unit)
        assert np.all(np.abs(h.data) < 1.0)

    def test_state_evolves_across_windows(self):
        rng = np.random.default_rng(4)
        unit = DWConvLSTM(2, rng, dtype=WIDE)
        x = Tensor(rng.standard_normal((2, 4, 4)))
        state = DWConvLSTMState()
        _, h1 = dwconvlstm_step(state, x, unit)
        _, h2 = dwconvlstm_step(state, x, unit)
        assert np.any(h1.data != h2.data)


class TestBackbone:
    def test_feedforward_is_stateless(self):
        rng = np.random.default_rng(5)
        blocks = [make_block(2, "4c3p1s1", seed=5), make_block(4, "4c3p1s2", seed=6)]
        x = Tensor(rng.standard_normal((2, 8, 8)))
        a = ann_backbone_forward(x, blocks)[-1]
        b = ann_backbone_forward(x, blocks)[-1]
        np.testing.assert_array_equal(a.data, b.data)

    def test_lstm_positions_inject_state(self):
        rng = np.random.default_rng(7)
        blocks = [make_block(2, "4c3p1s1", seed=7)]
        lstms = {1: DWConvLSTM(4, rng, dtype=WIDE)}
        states: dict = {}
        x = Tensor(rng.standard_normal((2, 6, 6)))
        a = ann_backbone_forward(x, blocks, lstms, states)[-1]
        b = ann_backbone_forward(x, blocks, lstms, states)[-1]
        assert np.any(a.data != b.data)

    def test_bad_lstm_position_rejected(self):
        blocks = [make_block(2, "4c3p1s1", seed=8)]
        with pytest.raises(ConfigError):
            ann_backbone_forward(
                Tensor(np.ones((2, 4, 4))), blocks, {3: DWConvLSTM(4, np.random.default_rng(0))}, {}
            )

    def test_intermediate_scales_exposed(self):
        rng = np.random.default_rng(9)
        blocks = [make_block(2, "4c3p1s2", seed=9), make_block(4, "6c3p1s2", seed=10)]
        feats = ann_backbone_forward(Tensor(rng.standard_normal((2, 8, 8))), blocks)
        assert [f.shape for f in feats] == [(4, 4, 4), (6, 2, 2)]


class TestToyHead:
    def test_perfect_prediction_loss_floor(self):
        head = ToyHead(2, np.random.default_rng(10), dtype=WIDE)
        raw = np.zeros((5, 4, 4))
        raw[0] = -30.0
        raw[0, 1, 2] = 30.0
        raw[1:, 1, 2] = (0.25, 0.75, 2.0, 2.0)
        from evhybrid.ann import ToyDetection

        pred = ToyDetection(Tensor(raw))
        loss = toy_loss(pred, [(1.25, 2.75, 2.0, 2.0)])
        assert 0.0 <= float(loss.data) < 1e-3

    def test_zero_logits_bce_is_ln2(self):
        from evhybrid.ann import ToyDetection

        raw = np.zeros((5, 3, 3))
        raw[1:, 1, 1] = (0.5, 0.5, 1.0, 1.0)  # exact box targets, no L2 term
        pred = ToyDetection(Tensor(raw))
        loss = toy_loss(pred, [(1.5, 1.5, 1.0, 1.0)])
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-6)

    def test_no_positive_cells_objectness_only(self):
        from evhybrid.ann import ToyDetection

        pred = ToyDetection(Tensor(np.zeros((5, 3, 3))))
        loss = toy_loss(pred, [])
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-6)

    def test_loss_nonnegative_and_finite(self):
        rng = np.random.default_rng(11)
        from evhybrid.ann import ToyDetection

        for _ in range(10):
            pred = ToyDetection(Tensor(rng.standard_normal((5, 4, 4))))
            loss = float(toy_loss(pred, [(2.2, 1.7, 1.5, 2.5)]).data)
            assert np.isfinite(loss) and loss >= 0

    def test_head_plus_loss_gradcheck(self):
        rng = np.random.default_rng(12)
        head = ToyHead(3, rng, dtype=WIDE)
        x = Tensor(rng.standard_normal((3, 5, 5)), dtype=WIDE, requires_grad=True)
        tensors = [x] + list(head.parameters().values())

        def run(*args):
            return toy_loss(toy_head_forward(args[0], head), [(2.3, 3.6, 1.5, 1.5)])

        rep = grad_check(run, tensors, rng=rng, max_coords=20)
        assert rep.passed, rep
