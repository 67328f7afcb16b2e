"""The benchmark's three closed-loop workloads.

Each workload builds its inputs in ``setup`` from the workload seed alone,
then runs one unit at a time, each sent after the previous one completes: a
training step on ``toy-train``, a detection window on ``toy-stream`` and
``sensor-deploy``. ``run`` makes the calls a user of the package makes;
``run_traced`` makes the same calls one layer at a time, each inside a span,
so that the two can be compared output for output. Why each workload exists
is in NOTES.md.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from evhybrid import ann, bridge
from evhybrid.ann import toy_loss
from evhybrid.config import RunConfig, config_hash, load_config
from evhybrid.events import (
    EventStream,
    ShapeSpec,
    SyntheticScene,
    read_events,
    synthesize_moving_shapes,
    write_events,
)
from evhybrid.model import HybridModel, decode_detections, run_infer, stream_windows
from evhybrid.numerics import GradTape, Tensor
from evhybrid.profiling import count_dense_macs, count_spike_acs, hybrid_energy
from evhybrid.quantize import (
    FixedPointModel,
    fidelity_from_layers,
    fixed_point_forward,
    float_reference_spikes,
    run_quantize,
)
from evhybrid.snn import snn_backbone_forward
from evhybrid.train import Adam, _clip_gradients, make_dataset, one_cycle_lr

from tracer import Tracer

TOY_CONFIG = Path("configs/toy.ini")
SENSOR_CONFIG = Path("configs/gen1.ini")

# Seeded weights leave the spiking stack silent in inference mode; this many
# steps of the toy recipe make it fire (about 3% density in the last layer).
WARMUP_STEPS = 20
WARMUP_SCENES = 8
STREAM_SCENES = 20
STREAM_SCENE_MS = 150
STREAM_NOISE_RATE = 2.0  # sensor noise events / pixel / second
SENSOR_SHAPES = 4
SENSOR_WINDOWS = 3
SENSOR_NOISE_RATE = 0.5
BITS = (8, 6, 4, 2)
INT8_MIN_MATCH = 0.99  # acceptance criterion 6's int8 threshold
GRAD_RTOL = 1e-4  # chaining per-layer gradients reorders float32 sums


@dataclass
class UnitResult:
    ms: float  # the unit's latency
    extra_ms: float = 0.0  # processing outside the latency (stream file reads)
    errors: list[str] = field(default_factory=list)
    digest: str | None = None  # hash of every output, kept for the trace guard
    counts: dict[str, float] = field(default_factory=dict)  # traced units only
    grads: dict[str, np.ndarray] | None = None  # toy-train's first unit only
    cal_ms: float = float("nan")  # calibration kernel time around the unit


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _model_digest(model: HybridModel) -> str:
    arrays = [t.data for t in model.parameters().values()]
    arrays += list(model.running_stats().values())
    return _digest(*arrays)


def _output_arrays(out: dict) -> list[np.ndarray]:
    arrays = [out["e_spike"].data, out["f_out"].data]
    arrays += [f.data for f in out["features"]]
    if out["detection"] is not None:
        arrays.append(out["detection"].raw.data)
    return arrays


def _check_binary(name: str, spikes) -> list[str]:
    a = spikes.data if isinstance(spikes, Tensor) else np.asarray(spikes)
    if np.all((a == 0) | (a == 1)):
        return []
    return [f"{name}: spike tensor is not binary"]


def _check_detections(dets) -> list[str]:
    for d in dets:
        if not all(np.isfinite(v) for v in (d.score, d.cx, d.cy, d.w, d.h)):
            return [f"window {d.window}: non-finite detection {d}"]
    return []


def _load_toy(root: Path) -> RunConfig:
    return load_config(root / TOY_CONFIG)


def _train_step(model, params, opt, dataset, rng, step, cfg, keep=False) -> UnitResult:
    """One step of ``run_train_toy``'s loop, timed whole."""
    tr = cfg.training
    t0 = time.perf_counter()
    idx = rng.integers(0, len(dataset), size=tr.batch)
    outs = []
    with GradTape() as tape:
        total = None
        for i in idx:
            model.reset_state()
            sample = dataset[int(i)]
            out = model.forward_window(sample.counts, training=True)
            loss = toy_loss(out["detection"], sample.boxes_cells)
            total = loss if total is None else total + loss
            outs.append(out)
        total = total * (1.0 / tr.batch)
        tape.backward(total)
    grads = {k: p.grad.copy() for k, p in params.items()} if keep else None
    _clip_gradients(params, tr.clip_norm)
    opt.step(one_cycle_lr(min(step, tr.steps - 1), tr.steps, tr.lr))
    res = UnitResult(ms=(time.perf_counter() - t0) * 1e3, grads=grads)
    if not np.isfinite(total.data).all():
        res.errors.append(f"step {step}: loss {float(total.data)} is not finite")
    for out in outs:
        res.errors += _check_binary(f"step {step} e_spike", out["e_spike"])
    if keep:
        arrays = [a for out in outs for a in _output_arrays(out)]
        arrays += list(model.running_stats().values())
        res.digest = _digest(total.data, *arrays)
        res.counts["tape_nodes"] = len(tape)
    return res


def _warm_up(cfg: RunConfig, seed: int) -> HybridModel:
    """A short run of the toy recipe from seeded weights."""
    model = HybridModel(cfg, seed=seed)
    data = make_dataset(cfg, WARMUP_SCENES, seed=seed, stride=model.total_stride)
    params = model.parameters()
    opt = Adam(params)
    rng = np.random.default_rng(seed + 1)
    for step in range(WARMUP_STEPS):
        res = _train_step(model, params, opt, data, rng, step, cfg)
        if res.errors:
            raise RuntimeError(f"warm-up failed: {res.errors[0]}")
    return model


# ---------------------------------------------------------------------------
# one layer at a time


@dataclass
class LayerCall:
    name: str
    tape: GradTape | None
    x_in: Tensor
    out: Tensor
    params: list[Tensor]


class Composer:
    """``HybridModel.forward_window`` (plus ``toy_loss`` when training) made
    of one call per layer, each inside a span. When training, each layer
    records on its own tape from a detached leaf input, so ``backward`` can
    time each layer's pullbacks by chaining ``GradTape.gradients``."""

    def __init__(self, model: HybridModel, tracer: Tracer, training: bool):
        self.model, self.tracer, self.training = model, tracer, training
        self.calls: list[LayerCall] = []
        self.snn_trace: list[dict] = []
        self.spikes: list[Tensor] = []

    def _call(self, name: str, params, x: Tensor, fn):
        with self.tracer.span(f"{name}.fwd"):
            if self.training:
                x_in = Tensor(x.data, requires_grad=x.requires_grad)
                with GradTape() as tape:
                    out = fn(x_in)
            else:
                tape, x_in, out = None, x, fn(x)
        self.calls.append(LayerCall(name, tape, x_in, out, list(params)))
        return out

    def snn(self, counts: np.ndarray) -> Tensor:
        out = Tensor(counts.astype(self.model.dtype))
        for i, blk in enumerate(self.model.snn_blocks, start=1):
            trace: list[dict] = []
            # a one-block backbone call is exactly that block's forward, and
            # records the block's input mask for the AC counter
            out = self._call(
                f"snn{i}", blk.parameters().values(), out,
                lambda v: snn_backbone_forward(v, [blk], training=self.training, trace=trace),
            )
            trace[0]["name"] = f"snn{i}"
            self.snn_trace += trace
            self.spikes.append(out)
        return out

    def forward(self, counts: np.ndarray, boxes_cells=None) -> dict:
        m, training = self.model, self.training
        e_spike = self.snn(counts)
        f_out = self._call(
            "bridge", m.bridge.parameters().values(), e_spike,
            lambda v: bridge.asab_forward(v, m.bridge, variant=m.variant),
        )
        feats, out = [], f_out
        for i, blk in enumerate(m.ann_blocks, start=1):
            out = self._call(
                f"ann{i}", blk.parameters().values(), out,
                lambda v: ann.ann_block_forward(v, blk, training=training),
            )
            if i in m.lstm_units:
                unit = m.lstm_units[i]
                state = m.lstm_states.setdefault(i, ann.DWConvLSTMState())
                out = self._call(
                    f"lstm{i}", unit.parameters().values(), out,
                    lambda v: ann.dwconvlstm_step(state, v, unit)[1],
                )
            feats.append(out)
        det = []

        def head(v):
            det.append(ann.toy_head_forward(v, m.head))
            return toy_loss(det[0], boxes_cells) if training else det[0].raw

        loss = self._call("head", m.head.parameters().values(), feats[-1], head)
        return {
            "e_spike": e_spike, "f_out": f_out, "features": feats, "detection": det[0],
            "loss": loss if training else None,
        }

    def backward(self, seed: np.ndarray) -> None:
        """Pull ``seed`` back through every layer, accumulating ``.grad``."""
        g = seed
        for call in reversed(self.calls):
            with self.tracer.span(f"{call.name}.bwd"):
                grads = call.tape.gradients(call.out, [call.x_in, *call.params], seed=g)
            g = grads[0]
            for p, gp in zip(call.params, grads[1:]):
                p.grad = gp if p.grad is None else p.grad + gp


def _layer_counts(composer: Composer) -> dict[str, float]:
    """Spikes, cells and event-driven ACs of one window's spiking layers."""
    counts: dict[str, float] = {"windows": 1}
    for i, spikes in enumerate(composer.spikes, start=1):
        counts[f"snn{i}.spikes"] = float(spikes.data.sum())
        counts[f"snn{i}.cells"] = spikes.data.size
    for name, lc in count_spike_acs(composer.snn_trace).per_layer.items():
        counts[f"{name}.acs"] = lc.acs
    return counts


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    windows_per_unit = 1

    def __init__(self, root: Path, seed: int):
        self.root, self.seed = root, seed
        self.cfg = self.config()

    def config(self) -> RunConfig:
        raise NotImplementedError

    def config_hash(self) -> str:
        return config_hash(self.cfg)

    def setup(self):
        """Build the inputs and model; returns the state the units use."""
        raise NotImplementedError

    def fingerprint(self, st) -> str:
        raise NotImplementedError

    def probe_units(self, st) -> int:
        """Units whose counts are reported; fixed for a seed."""
        raise NotImplementedError

    def run(self, st, k: int, keep: bool) -> UnitResult:
        raise NotImplementedError

    def run_traced(self, st, k: int, tracer: Tracer) -> UnitResult:
        raise NotImplementedError

    def final_check(self, st, results: list[UnitResult]) -> list[str]:
        return []

    def guard(self, ref: list[UnitResult], traced: list[UnitResult]) -> list[str]:
        """Differences between the untraced and traced outputs."""
        n = min(len(ref), len(traced))
        return [f"unit {k}: traced outputs differ" for k in range(n) if ref[k].digest != traced[k].digest]

    def cleanup(self, st) -> None:
        pass


@dataclass
class TrainState:
    model: HybridModel
    params: dict
    opt: Adam
    data: list
    rng: np.random.Generator


class ToyTrain(Workload):
    name = "toy-train"

    def config(self):
        return _load_toy(self.root)

    @property
    def windows_per_unit(self):
        return self.cfg.training.batch

    def setup(self):
        model = HybridModel(self.cfg, seed=self.seed)
        data = make_dataset(self.cfg, self.cfg.training.scenes, seed=self.seed, stride=model.total_stride)
        params = model.parameters()
        return TrainState(model, params, Adam(params), data, np.random.default_rng(self.seed + 1))

    def fingerprint(self, st):
        return _digest(_model_digest(st.model).encode(), *[s.counts for s in st.data])

    def probe_units(self, st):
        return 4

    def run(self, st, k, keep):
        return _train_step(st.model, st.params, st.opt, st.data, st.rng, k, self.cfg, keep=keep and k == 0)

    def run_traced(self, st, k, tracer):
        cfg, model = self.cfg, st.model
        composers, losses = [], []
        with tracer.unit(k):
            idx = st.rng.integers(0, len(st.data), size=cfg.training.batch)
            for i in idx:
                model.reset_state()
                sample = st.data[int(i)]
                comp = Composer(model, tracer, training=True)
                out = comp.forward(sample.counts, sample.boxes_cells)
                composers.append((comp, out))
                losses.append(out["loss"])
            with GradTape() as combine:
                leaves = [Tensor(l.data, requires_grad=True) for l in losses]
                total = None
                for leaf in leaves:
                    total = leaf if total is None else total + leaf
                total = total * (1.0 / cfg.training.batch)
            seeds = combine.gradients(total, leaves)
            for (comp, _), seed in reversed(list(zip(composers, seeds))):
                comp.backward(seed)
            grads = {n: p.grad.copy() for n, p in st.params.items()} if k == 0 else None
            with tracer.span("train.optim"):
                _clip_gradients(st.params, cfg.training.clip_norm)
                st.opt.step(one_cycle_lr(min(k, cfg.training.steps - 1), cfg.training.steps, cfg.training.lr))
        res = UnitResult(ms=0.0, grads=grads)
        if not np.isfinite(total.data).all():
            res.errors.append(f"step {k}: loss {float(total.data)} is not finite")
        arrays = []
        for comp, out in composers:
            for i, s in enumerate(comp.spikes, start=1):
                res.errors += _check_binary(f"step {k} snn{i}", s)
            arrays += _output_arrays(out)
        arrays += list(model.running_stats().values())
        res.digest = _digest(total.data, *arrays)
        for comp, _ in composers:
            for key, v in _layer_counts(comp).items():
                res.counts[key] = res.counts.get(key, 0) + v
        res.counts["events"] = float(sum(st.data[int(i)].counts.sum() for i in idx))
        res.counts["tape_nodes"] = len(combine) + sum(
            len(c.tape) for comp, _ in composers for c in comp.calls
        )
        return res

    def guard(self, ref, traced):
        if not ref or not traced:
            return ["no unit to compare"]
        # only the first step is compared: later steps start from weights
        # updated with gradients equal to rounding, not bit for bit
        a, b = ref[0], traced[0]
        errors = []
        if a.digest != b.digest:
            errors.append("step 0: layer-by-layer forward differs from forward_window")
        if a.counts["tape_nodes"] != b.counts["tape_nodes"]:
            errors.append(f"step 0: {b.counts['tape_nodes']} tape nodes, whole tape has {a.counts['tape_nodes']}")
        for name, g in a.grads.items():
            if not np.allclose(b.grads[name], g, rtol=GRAD_RTOL, atol=GRAD_RTOL * float(np.abs(g).max())):
                errors.append(f"step 0: chained gradient of {name} differs from whole-tape backward")
        return errors


@dataclass
class StreamState:
    model: HybridModel
    path: Path
    workdir: Path
    n_windows: int
    stride: int
    geometry: tuple[int, int]
    windows: object = None  # the open replay's stream_windows generator
    detections: list = field(default_factory=list)  # per processed window


def _shape_scene(rng, sim, tr, duration_ms: int, n_shapes: int, noise_rate: float, seed: int, size_scale=1.0):
    """Square shapes that stay inside the sensor for the whole scene."""
    dur_s = duration_ms / 1000.0
    shapes = []
    for _ in range(n_shapes):
        size = rng.uniform(tr.shape_size_min, tr.shape_size_max) * size_scale
        speed = rng.uniform(tr.speed_min, tr.speed_max)
        angle = rng.uniform(0, 2 * np.pi)
        margin = size / 2.0 + 1.0
        room_x, room_y = sim.sensor_width - 2 * margin, sim.sensor_height - 2 * margin
        vx, vy = speed * np.cos(angle), speed * np.sin(angle)
        scale = min(1.0, 0.95 * room_x / (abs(vx) * dur_s + 1e-9), 0.95 * room_y / (abs(vy) * dur_s + 1e-9))
        vx, vy = vx * scale, vy * scale
        x0 = rng.uniform(margin - min(0.0, vx * dur_s), sim.sensor_width - margin - max(0.0, vx * dur_s))
        y0 = rng.uniform(margin - min(0.0, vy * dur_s), sim.sensor_height - margin - max(0.0, vy * dur_s))
        intensity = 1.0 if rng.random() < 0.5 else 0.06
        shapes.append(ShapeSpec("square", size, intensity, x0, y0, vx, vy))
    scene = SyntheticScene(
        sim.sensor_width, sim.sensor_height, shapes, contrast=tr.contrast,
        seed=seed, background=0.5, noise_rate=noise_rate,
    )
    result = synthesize_moving_shapes(scene, duration_ms, duration_ms)
    if result.warnings:
        raise RuntimeError(f"scene generation: {result.warnings[0]}")
    return result.stream


class ToyStream(Workload):
    name = "toy-stream"

    def config(self):
        cfg = _load_toy(self.root)
        cfg.architecture.lstm_positions = [1]
        return cfg.validate()

    def setup(self):
        model = _warm_up(self.cfg, self.seed)
        sim, tr = self.cfg.simulation, self.cfg.training
        rng = np.random.default_rng(self.seed + 2)
        parts = []
        for s in range(STREAM_SCENES):
            scene = _shape_scene(rng, sim, tr, STREAM_SCENE_MS, 1, STREAM_NOISE_RATE, self.seed * 1009 + s)
            parts.append((scene.t + s * STREAM_SCENE_MS * 1000, scene.x, scene.y, scene.p))
        cols = [np.concatenate(c) for c in zip(*parts)]
        stream = EventStream(sim.sensor_width, sim.sensor_height, *cols)
        workdir = Path(tempfile.mkdtemp(prefix="toy-stream-", dir=self.root / ".bench_out"))
        path = workdir / "stream.evs"
        write_events(stream, path)
        n_windows = sum(1 for _ in stream_windows(stream, self.cfg))
        return StreamState(
            model, path, workdir, n_windows, model.total_stride,
            (sim.sensor_width, sim.sensor_height),
        )

    def fingerprint(self, st):
        return _digest(_model_digest(st.model).encode(), np.frombuffer(st.path.read_bytes(), np.uint8))

    def probe_units(self, st):
        return st.n_windows

    def _next_window(self, st):
        i, counts = next(st.windows)
        if i == st.n_windows - 1:
            st.windows = None
        return i, counts

    def _open(self, st):
        stream = read_events(st.path, geometry=st.geometry)
        st.model.reset_state()
        st.windows = stream_windows(stream, self.cfg)

    def _finish(self, st, res, k, i, out, dets):
        res.errors += _check_binary(f"window {k} e_spike", out["e_spike"])
        res.errors += _check_detections(dets)
        st.detections.append((k, i, dets))

    def run(self, st, k, keep):
        res = UnitResult(ms=0.0)
        if st.windows is None:
            t0 = time.perf_counter()
            self._open(st)
            res.extra_ms = (time.perf_counter() - t0) * 1e3
        t0 = time.perf_counter()
        i, counts = self._next_window(st)
        out = st.model.forward_window(counts, training=False)
        t_us = (i + 1) * self.cfg.simulation.window_ms * 1000
        dets = decode_detections(out["detection"], i, t_us, st.stride)
        res.ms = (time.perf_counter() - t0) * 1e3
        self._finish(st, res, k, i, out, dets)
        if keep:
            res.digest = _digest(*_output_arrays(out), np.array([str(dets)]))
        return res

    def run_traced(self, st, k, tracer):
        res = UnitResult(ms=0.0)
        with tracer.unit(k):
            if st.windows is None:
                with tracer.span("events.read"):
                    self._open(st)
            with tracer.span("events.bin"):
                i, counts = self._next_window(st)
            comp = Composer(st.model, tracer, training=False)
            out = comp.forward(counts)
            t_us = (i + 1) * self.cfg.simulation.window_ms * 1000
            with tracer.span("model.decode"):
                dets = decode_detections(out["detection"], i, t_us, st.stride)
        self._finish(st, res, k, i, out, dets)
        for n, s in enumerate(comp.spikes, start=1):
            res.errors += _check_binary(f"window {k} snn{n}", s)
        res.digest = _digest(*_output_arrays(out), np.array([str(dets)]))
        res.counts = _layer_counts(comp)
        res.counts["events"] = float(counts.sum())
        res.counts["detections"] = len(dets)
        return res

    def final_check(self, st, results):
        """Every processed window against ``run_infer`` on the same file."""
        expected = run_infer(st.model, read_events(st.path, geometry=st.geometry))
        by_window: dict[int, list] = {}
        for d in expected:
            by_window.setdefault(d.window, []).append(d)
        failed = []
        for k, i, dets in st.detections:
            if dets != by_window.get(i, []):
                failed.append(k)
                results[k].errors.append(f"window {i}: detections differ from run_infer")
        st.detections.clear()
        return [f"{len(failed)} windows differ from run_infer"] if failed else []

    def cleanup(self, st):
        shutil.rmtree(st.workdir, ignore_errors=True)


@dataclass
class DeployState:
    model: HybridModel
    stream: EventStream
    n_windows: int
    windows: object = None


class SensorDeploy(Workload):
    name = "sensor-deploy"

    def config(self):
        cfg = _load_toy(self.root)
        sensor = load_config(self.root / SENSOR_CONFIG).simulation
        cfg.simulation.sensor_width = sensor.sensor_width
        cfg.simulation.sensor_height = sensor.sensor_height
        return cfg.validate()

    def setup(self):
        # the spiking front-end is fully convolutional: toy-trained weights
        # run unchanged at the sensor size
        model = _warm_up(_load_toy(self.root), self.seed)
        sim, tr = self.cfg.simulation, self.cfg.training
        rng = np.random.default_rng(self.seed + 3)
        duration = SENSOR_WINDOWS * sim.window_ms
        stream = _shape_scene(
            rng, sim, tr, duration, SENSOR_SHAPES, SENSOR_NOISE_RATE, self.seed * 1013, size_scale=2.5
        )
        n_windows = sum(1 for _ in stream_windows(stream, self.cfg))
        return DeployState(model, stream, n_windows)

    def fingerprint(self, st):
        return _digest(_model_digest(st.model).encode(), st.stream.t, st.stream.x, st.stream.y, st.stream.p)

    def probe_units(self, st):
        return st.n_windows

    def _next_window(self, st):
        if st.windows is None:
            st.windows = stream_windows(st.stream, self.cfg)
        i, counts = next(st.windows)
        if i == st.n_windows - 1:
            st.windows = None
        return i, counts

    def _check(self, res, k, reports, overflow, energy):
        if reports[8].match_rate < INT8_MIN_MATCH:
            res.errors.append(f"window {k}: int8 match rate {reports[8].match_rate:.4f}")
        if overflow:
            res.errors.append(f"window {k}: {overflow} accumulator overflows")
        if not np.isfinite(energy):
            res.errors.append(f"window {k}: energy {energy} is not finite")

    def _outputs_digest(self, spikes, reports, overflow, energy):
        text = str([reports[b].as_dict() for b in BITS] + [overflow, energy])
        return _digest(spikes.data, np.array([text]))

    def run(self, st, k, keep):
        res = UnitResult(ms=0.0)
        t0 = time.perf_counter()
        _, counts = self._next_window(st)
        trace: list = []
        spikes = snn_backbone_forward(Tensor(counts.astype(st.model.dtype)), st.model.snn_blocks, trace=trace)
        energy = hybrid_energy(count_dense_macs(self.cfg).merge(count_spike_acs(trace)))
        reports, overflow = {}, 0
        for bits in BITS:
            fpm, reports[bits] = run_quantize(st.model, bits, [counts])
            overflow += fpm.overflow_count
        res.ms = (time.perf_counter() - t0) * 1e3
        res.errors += _check_binary(f"window {k} e_spike", spikes)
        self._check(res, k, reports, overflow, energy)
        if keep:
            res.digest = self._outputs_digest(spikes, reports, overflow, energy)
        return res

    def run_traced(self, st, k, tracer):
        res = UnitResult(ms=0.0)
        model = st.model
        with tracer.unit(k):
            with tracer.span("events.bin"):
                _, counts = self._next_window(st)
            comp = Composer(model, tracer, training=False)
            comp.snn(counts)
            with tracer.span("profiling.acs"):
                acs = count_spike_acs(comp.snn_trace)
                energy = hybrid_energy(count_dense_macs(self.cfg).merge(acs))
            reports, overflow, fxp_layers = {}, 0, {}
            names = [f"snn{i}" for i in range(1, len(model.snn_blocks) + 1)]
            for bits in BITS:
                # run_quantize(model, bits, [counts]) one part at a time
                with tracer.span("quantize.fuse"):
                    fpm = FixedPointModel.from_model(model, bits)
                with tracer.span("quantize.float_ref"):
                    refs = float_reference_spikes(model, counts, collect_layers=True)
                with tracer.span("quantize.fxp_fwd"):
                    tests = fixed_point_forward(counts, fpm, collect_layers=True)
                with tracer.span("quantize.compare"):
                    reports[bits] = fidelity_from_layers(refs, tests, names)
                overflow += fpm.overflow_count
                fxp_layers[bits] = tests
        for i, s in enumerate(comp.spikes, start=1):
            res.errors += _check_binary(f"window {k} snn{i}", s)
        for bits in BITS:
            for i, s in enumerate(fxp_layers[bits], start=1):
                res.errors += _check_binary(f"window {k} int{bits} snn{i}", s)
        self._check(res, k, reports, overflow, energy)
        res.digest = self._outputs_digest(comp.spikes[-1], reports, overflow, energy)
        res.counts = _layer_counts(comp)
        res.counts["events"] = float(counts.sum())
        res.counts["profiling.acs"] = acs.total_acs
        res.counts["overflow"] = overflow
        for bits in BITS:
            rep = reports[bits]
            res.counts[f"int{bits}.cells"] = rep.total_cells
            for name, n in rep.per_layer_mismatch.items():
                res.counts[f"int{bits}.mismatch.{name}"] = n
        return res


WORKLOADS = {w.name: w for w in (ToyTrain, ToyStream, SensorDeploy)}
