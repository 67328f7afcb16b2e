"""Desk-scale training on synthetic moving-shape streams.

Adaptive-moment updates with a one-cycle-shaped schedule (short linear
warmup, then linear decay from the configured maximum). Each training sample
is one detection window of its scene's stream, binned by ``bin_window`` as
in inference each time it is read; ground truth is the shape's box at the
window end, so the net must weight late time bins to localize well. Windows
are treated independently in training (recurrent state reset per sample).
"""

from __future__ import annotations

from itertools import groupby
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .events import EventStream, ShapeSpec, SyntheticScene, synthesize_moving_shapes
from .model import HybridModel, bin_window
from .numerics import GradTape, Tensor
from .ann import toy_loss
from .bridge import VARIANTS as ABLATION_VARIANTS

LOG_EVERY = 50  # training steps between printed losses


# Adam's moment decays and denominator floor (Kingma and Ba 2015 defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# share of the steps that one_cycle_lr spends warming up
WARMUP_FRAC = 0.05


class Adam:
    """Adaptive-moment estimation over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.m = {k: np.zeros_like(p.data, dtype=np.float64) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data, dtype=np.float64) for k, p in params.items()}
        self.t = 0

    def step(self, lr: float):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for k, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad.astype(np.float64)
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            m_hat = self.m[k] / (1 - b1**self.t)
            v_hat = self.v[k] / (1 - b2**self.t)
            p.data = p.data - (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.data.dtype)
            p.grad = None


def one_cycle_lr(step: int, total_steps: int, lr_max: float) -> float:
    """Linear warmup to lr_max over WARMUP_FRAC of the steps, then linear
    decay to 1% of it."""
    warmup = max(1, int(total_steps * WARMUP_FRAC))
    if step < warmup:
        return lr_max * (step + 1) / warmup
    frac = (step - warmup) / max(1, total_steps - warmup)
    return lr_max * (1.0 - 0.99 * frac)


def _clip_gradients(params: dict[str, Tensor], max_norm: float) -> None:
    """Global-norm gradient clipping; a destructive early step can push the
    bridge into a basin it never leaves at desk-scale budgets."""
    if max_norm <= 0:
        return
    total = 0.0
    for p in params.values():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * scale


# ---------------------------------------------------------------------------
# synthetic dataset


@dataclass(frozen=True)
class WindowSample:
    """A labelled window of its scene's stream, which the scene's windows share."""

    stream: EventStream
    window: int
    boxes_cells: list[tuple[float, float, float, float]]
    T: int
    window_ms: int

    @property
    def counts(self) -> np.ndarray:
        """[T, 2, H, W] counts, binned on each read."""
        return bin_window(self.stream, self.window, self.T, self.window_ms)


def _random_scene(cfg: RunConfig, rng: np.random.Generator, seed: int) -> SyntheticScene:
    sim, tr = cfg.simulation, cfg.training
    size = rng.uniform(tr.shape_size_min, tr.shape_size_max)
    speed = rng.uniform(tr.speed_min, tr.speed_max)
    angle = rng.uniform(0, 2 * np.pi)
    vx, vy = speed * np.cos(angle), speed * np.sin(angle)
    dur_s = tr.scene_duration_ms / 1000.0
    margin = size / 2.0 + 0.75
    span_x = sim.sensor_width - 2 * margin
    span_y = sim.sensor_height - 2 * margin
    if span_x <= 0 or span_y <= 0:
        raise ConfigError("shape too large for the sensor")
    # shrink velocities that cannot stay inside for the whole scene
    scale = min(
        1.0,
        span_x / max(abs(vx) * dur_s, 1e-9),
        span_y / max(abs(vy) * dur_s, 1e-9),
    )
    if scale < 1.0:
        vx *= 0.98 * scale
        vy *= 0.98 * scale
    x0 = _feasible_start(rng, sim.sensor_width, margin, vx * dur_s)
    y0 = _feasible_start(rng, sim.sensor_height, margin, vy * dur_s)
    # half the shapes are darker than the background: the time-summed event
    # pattern of a bright shape moving one way matches a dark shape moving
    # the other way, so localizing the window-end position requires temporal
    # order, not just accumulated counts
    intensity = 1.0 if rng.random() < 0.5 else 0.06
    shape = ShapeSpec(kind="square", size=size, intensity=intensity, x0=x0, y0=y0, vx=vx, vy=vy)
    return SyntheticScene(
        width=sim.sensor_width,
        height=sim.sensor_height,
        shapes=[shape],
        contrast=tr.contrast,
        seed=seed,
        background=0.5,
        noise_rate=tr.noise_rate,
    )


def _feasible_start(rng, extent, margin, disp) -> float:
    lo = margin - min(0.0, disp)
    hi = extent - margin - max(0.0, disp)
    if lo > hi:
        raise ConfigError("infeasible scene geometry")
    return float(rng.uniform(lo, hi))


def make_dataset(cfg: RunConfig, n_scenes: int, seed: int, stride: int) -> list[WindowSample]:
    """The windows of each scene that hold a ground-truth box (the emulator
    lists boxes window by window), with the boxes in feature-cell units. Each
    sample keeps its scene's events and bins its window when it is read."""
    sim = cfg.simulation
    rng = np.random.default_rng(seed)
    samples: list[WindowSample] = []
    for s in range(n_scenes):
        scene = _random_scene(cfg, rng, seed=seed * 100003 + s)
        result = synthesize_moving_shapes(scene, cfg.training.scene_duration_ms, sim.window_ms)
        for i, boxes in groupby(result.boxes, key=lambda b: b.window):
            cells = [(b.cy / stride, b.cx / stride, b.h / stride, b.w / stride) for b in boxes]
            samples.append(WindowSample(result.stream, i, cells, sim.T, sim.window_ms))
    return samples


# ---------------------------------------------------------------------------
# training / evaluation


@dataclass
class EvalMetrics:
    mean_loss: float
    mean_center_err: float
    hit_rate: float
    n_windows: int

    def as_dict(self) -> dict:
        return asdict(self)


def evaluate(model: HybridModel, dataset: list[WindowSample]) -> EvalMetrics:
    """Held-out metrics: toy loss, argmax-cell center error (feature cells),
    and the rate of centers within 2 cells of ground truth."""
    losses, errs, hits = [], [], []
    for sample in dataset:
        model.reset_state()
        out = model.forward_window(sample.counts, training=False)
        det = out["detection"]
        losses.append(float(toy_loss(det, sample.boxes_cells).data))
        logits = det.objectness.data
        i, j = np.unravel_index(int(np.argmax(logits)), logits.shape)
        dy, dx = det.boxes.data[0, i, j], det.boxes.data[1, i, j]
        pred = np.array([i + dy, j + dx])
        gt = np.array(sample.boxes_cells[0][:2])
        err = float(np.linalg.norm(pred - gt))
        errs.append(err)
        hits.append(err <= 2.0)
    return EvalMetrics(
        mean_loss=float(np.mean(losses)),
        mean_center_err=float(np.mean(errs)),
        hit_rate=float(np.mean(hits)),
        n_windows=len(dataset),
    )


@dataclass
class TrainResult:
    loss_curve: list[float]
    metrics: EvalMetrics
    model: HybridModel = field(repr=False)

    @property
    def initial_loss(self) -> float:
        return self.loss_curve[0]

    @property
    def final_loss(self) -> float:
        return float(np.mean(self.loss_curve[-20:]))


def run_train_toy(cfg: RunConfig, variant: str = "full", quiet: bool = False) -> TrainResult:
    """Train the toy detector on synthetic squares; deterministic per seed.
    Writes nothing: the caller saves the model, curve and metrics it returns."""
    tr = cfg.training
    model = HybridModel(cfg)
    model.variant = variant
    stride = model.total_stride
    train_ds = make_dataset(cfg, tr.scenes, seed=tr.seed, stride=stride)
    eval_ds = make_dataset(cfg, tr.eval_scenes, seed=tr.seed + 7919, stride=stride)
    params = model.parameters()
    opt = Adam(params)
    rng = np.random.default_rng(tr.seed + 1)
    losses: list[float] = []
    for step in range(tr.steps):
        idx = rng.integers(0, len(train_ds), size=tr.batch)
        with GradTape() as tape:
            total = None
            for i in idx:
                model.reset_state()
                sample = train_ds[int(i)]
                out = model.forward_window(sample.counts, training=True)
                loss = toy_loss(out["detection"], sample.boxes_cells)
                total = loss if total is None else total + loss
            total = total * (1.0 / tr.batch)
            tape.backward(total)
        _clip_gradients(params, tr.clip_norm)
        opt.step(one_cycle_lr(step, tr.steps, tr.lr))
        losses.append(float(total.data))
        if not quiet and (step % LOG_EVERY == 0 or step == tr.steps - 1):
            print(f"step {step:5d}  loss {losses[-1]:.4f}")
    return TrainResult(losses, evaluate(model, eval_ds), model)


def run_ablate(cfg: RunConfig, variants: tuple[str, ...] = ABLATION_VARIANTS) -> dict[str, EvalMetrics]:
    """Train and evaluate the bridge ablations with identical data and seed.
    Every variant name is checked before any training starts."""
    if not variants:
        raise ConfigError("ablation needs at least one variant")
    for variant in variants:
        if variant not in ABLATION_VARIANTS:
            raise ConfigError(f"unknown ablation variant {variant!r}")
    return {variant: run_train_toy(cfg, variant=variant, quiet=True).metrics for variant in variants}
