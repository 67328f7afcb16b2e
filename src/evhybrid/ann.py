"""Dense back-end: conv -> batchnorm -> ReLU blocks (``snn.ConvBNBlock``),
optional depthwise-separable convolutional LSTM units between blocks, and a
single-scale toy detection head (objectness + box regression on the final
feature grid), which every model has."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import NARROW, Tensor, ops
from .snn import ConvBNBlock, conv_bn


def ann_block_forward(x: Tensor, block: ConvBNBlock, training: bool = False) -> Tensor:
    """conv -> batchnorm -> ReLU on a [C, H, W] map; output is non-negative."""
    return ops.relu(conv_bn(x, block, training))


@dataclass
class DWConvLSTMState:
    """Hidden/cell maps; reset at sequence start, persists across windows."""

    h: Tensor | None = None
    c: Tensor | None = None


# side of the ConvLSTM's depthwise kernel
LSTM_KERNEL = 3


class DWConvLSTM:
    """Convolutional LSTM with depthwise LSTM_KERNEL x LSTM_KERNEL +
    pointwise 1x1 gate convs."""

    def __init__(self, channels: int, rng: np.random.Generator, dtype=NARROW):
        self.channels = channels
        k = LSTM_KERNEL
        c2 = 2 * channels
        bound_dw = 1.0 / np.sqrt(k * k)
        self.dw_w = Tensor(rng.uniform(-bound_dw, bound_dw, (c2, 1, k, k)).astype(dtype), requires_grad=True)
        self.dw_b = Tensor(np.zeros(c2, dtype=dtype), requires_grad=True)
        bound_pw = 1.0 / np.sqrt(c2)
        self.pw_w = Tensor(rng.uniform(-bound_pw, bound_pw, (4 * channels, c2, 1, 1)).astype(dtype), requires_grad=True)
        self.pw_b = Tensor(np.zeros(4 * channels, dtype=dtype), requires_grad=True)

    def parameters(self):
        return {"dw_w": self.dw_w, "dw_b": self.dw_b, "pw_w": self.pw_w, "pw_b": self.pw_b}


def dwconvlstm_step(state: DWConvLSTMState, x: Tensor, unit: DWConvLSTM) -> tuple[DWConvLSTMState, Tensor]:
    """One recurrent update on a [C, H, W] map.

    [h, x] concat -> depthwise conv -> pointwise conv to 4C gate channels
    (i, f, g, o); c' = sig(f)*c + sig(i)*tanh(g); h' = sig(o)*tanh(c').
    """
    c = unit.channels
    if x.shape[0] != c:
        raise ShapeError(f"lstm expects {c} channels, got {x.shape[0]}")
    if state.h is None:
        zeros = np.zeros(x.shape, dtype=x.data.dtype)
        state.h = Tensor(zeros.copy())
        state.c = Tensor(zeros.copy())
    z = ops.concat([state.h, x], axis=0)
    z = ops.conv2d(z, unit.dw_w, unit.dw_b, padding=LSTM_KERNEL // 2, groups=2 * c)
    z = ops.conv2d(z, unit.pw_w, unit.pw_b)
    i_g = ops.sigmoid(z[0:c])
    f_g = ops.sigmoid(z[c : 2 * c])
    g_g = ops.tanh(z[2 * c : 3 * c])
    o_g = ops.sigmoid(z[3 * c : 4 * c])
    c_new = f_g * state.c + i_g * g_g
    h_new = o_g * ops.tanh(c_new)
    state.c = c_new
    state.h = h_new
    return state, h_new


def ann_backbone_forward(
    x: Tensor,
    blocks: list[ConvBNBlock],
    lstm_units: dict[int, DWConvLSTM] | None = None,
    lstm_states: dict[int, DWConvLSTMState] | None = None,
    training: bool = False,
) -> list[Tensor]:
    """Run the dense stack, returning the feature map after every block.

    ``lstm_units`` maps 1-based block positions to recurrent units applied
    after that block; their states persist across calls (detection windows)
    until explicitly reset.
    """
    lstm_units = lstm_units or {}
    lstm_states = lstm_states if lstm_states is not None else {}
    for pos in lstm_units:
        if pos < 1 or pos > len(blocks):
            raise ConfigError(f"lstm position {pos} outside 1..{len(blocks)}")
    feats = []
    out = x
    for i, block in enumerate(blocks, start=1):
        out = ann_block_forward(out, block, training=training)
        if i in lstm_units:
            state = lstm_states.setdefault(i, DWConvLSTMState())
            _, out = dwconvlstm_step(state, out, lstm_units[i])
        feats.append(out)
    return feats


# ---------------------------------------------------------------------------
# toy detection head


@dataclass
class ToyDetection:
    """Per-cell objectness logits [H, W] and box regression [4, H, W]
    ((dy, dx) of the center within-cell, height and width in cells)."""

    raw: Tensor

    @property
    def objectness(self) -> Tensor:
        return self.raw[0]

    @property
    def boxes(self) -> Tensor:
        return self.raw[1:5]


class ToyHead:
    def __init__(self, channels: int, rng: np.random.Generator, dtype=NARROW):
        self.channels = channels
        bound = 1.0 / np.sqrt(channels * 9)
        self.conv_w = Tensor(rng.uniform(-bound, bound, (channels, channels, 3, 3)).astype(dtype), requires_grad=True)
        self.conv_b = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        bound2 = 1.0 / np.sqrt(channels)
        self.out_w = Tensor(rng.uniform(-bound2, bound2, (5, channels, 1, 1)).astype(dtype), requires_grad=True)
        self.out_b = Tensor(np.zeros(5, dtype=dtype), requires_grad=True)

    def parameters(self):
        return {"conv_w": self.conv_w, "conv_b": self.conv_b, "out_w": self.out_w, "out_b": self.out_b}


def toy_head_forward(feature: Tensor, head: ToyHead) -> ToyDetection:
    """One 3x3 conv + ReLU, then a 1x1 conv to 5 channels per cell."""
    y = ops.relu(ops.conv2d(feature, head.conv_w, head.conv_b, padding=1))
    return ToyDetection(ops.conv2d(y, head.out_w, head.out_b))


def toy_targets(boxes_cells: list[tuple[float, float, float, float]], grid: tuple[int, int]):
    """Build (objectness targets [H,W], box targets [4,H,W], mask [H,W]) from
    ground-truth boxes given as (cy, cx, h, w) in feature-cell units."""
    gh, gw = grid
    obj = np.zeros((gh, gw))
    box = np.zeros((4, gh, gw))
    mask = np.zeros((gh, gw))
    for cy, cx, bh, bw in boxes_cells:
        i = int(np.clip(np.floor(cy), 0, gh - 1))
        j = int(np.clip(np.floor(cx), 0, gw - 1))
        obj[i, j] = 1.0
        box[:, i, j] = (cy - i, cx - j, bh, bw)
        mask[i, j] = 1.0
    return obj, box, mask


def toy_loss(pred: ToyDetection, boxes_cells: list[tuple[float, float, float, float]]) -> Tensor:
    """Binary cross-entropy over all cells plus masked L2 box regression.

    BCE in the smooth stable form softplus(z) - z*y, averaged over cells; the
    L2 term averages squared errors over (positive cells x 4 box components).
    With no positive cells the loss is objectness-only.
    """
    gh, gw = pred.objectness.shape
    obj_t, box_t, mask = toy_targets(boxes_cells, (gh, gw))
    z = pred.objectness
    dtype = z.data.dtype
    y = obj_t.astype(dtype)
    bce_map = ops.softplus(z) - z * y
    loss = ops.mean(bce_map)
    n_pos = float(mask.sum())
    if n_pos > 0:
        diff = pred.boxes - box_t.astype(dtype)
        masked = diff * diff * mask.astype(dtype)[None]
        loss = loss + ops.sum(masked) * (1.0 / (4.0 * n_pos))
    return loss
