"""Acceptance suite: one test per exit criterion, each with its stated
tolerance and runtime bound. A summary line per criterion is printed in the
terminal summary (run ``pytest tests/test_acceptance.py -v``).

The trained toy detector (session fixture) backs the quantization-fidelity
and end-to-end training criteria; the ablation criterion trains its own pair
of models per seed.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import dense_conv_output, record_criterion
from evhybrid.ann import ToyHead, ann_backbone_forward, toy_head_forward, toy_loss
from evhybrid.bridge import BridgeParams, asab_forward, attention_parts, tsdc
from evhybrid.config import RunConfig, save_config
from evhybrid.events import EventStream, bin_events
from evhybrid.model import HybridModel
from evhybrid.numerics import WIDE, Tensor, grad_check, ops
from evhybrid.profiling import (
    ENERGY_DATAPOINTS,
    HYBRID_REFERENCE_POINT,
    OpCounters,
    energy_estimate,
)
from evhybrid.quantize import FixedPointModel, fuse_bn_lif, quantize_per_channel, run_quantize
from evhybrid.snn import ConvBNBlock, ConvSpec, SNNBlock, snn_backbone_forward
from evhybrid.train import make_dataset, run_train_toy


def toy_train_config(seed=0):
    cfg = RunConfig()
    cfg.simulation.sensor_width = 40
    cfg.simulation.sensor_height = 40
    cfg.architecture.snn_layers = ["8c3p1s2", "16c3p1s2"]
    cfg.architecture.ann_layers = ["32c3p1s1"]
    cfg.architecture.lstm_positions = []
    cfg.architecture.bridge_kernel = 3
    cfg.training.seed = seed
    cfg.training.steps = 600
    cfg.training.batch = 3
    cfg.training.lr = 3e-3
    cfg.training.scenes = 60
    cfg.training.eval_scenes = 15
    cfg.training.scene_duration_ms = 120
    return cfg.validate()


def ablation_config(seed=0):
    cfg = RunConfig()
    cfg.simulation.sensor_width = 32
    cfg.simulation.sensor_height = 32
    cfg.architecture.snn_layers = ["8c3p1s2", "16c3p1s2"]
    cfg.architecture.ann_layers = ["24c3p1s1"]
    cfg.architecture.lstm_positions = []
    cfg.architecture.bridge_kernel = 3
    cfg.training.seed = seed
    cfg.training.steps = 450
    cfg.training.batch = 3
    cfg.training.lr = 2.5e-3
    cfg.training.scenes = 48
    cfg.training.eval_scenes = 15
    cfg.training.scene_duration_ms = 100
    cfg.training.speed_min = 170.0
    cfg.training.speed_max = 260.0
    return cfg.validate()


def quant_toy_config(seed=0):
    # three spiking layers: quantization error compounds across layers, so a
    # deeper stack separates the bit widths while int8 stays faithful
    cfg = RunConfig()
    cfg.simulation.sensor_width = 32
    cfg.simulation.sensor_height = 32
    cfg.architecture.snn_layers = ["8c3p1s2", "12c3p1s2", "16c3p1s1"]
    cfg.architecture.ann_layers = ["24c3p1s1"]
    cfg.architecture.lstm_positions = []
    cfg.architecture.bridge_kernel = 3
    cfg.training.seed = seed
    cfg.training.steps = 350
    cfg.training.batch = 3
    cfg.training.lr = 2.5e-3
    cfg.training.scenes = 30
    cfg.training.eval_scenes = 8
    cfg.training.scene_duration_ms = 100
    return cfg.validate()


@pytest.fixture(scope="session")
def trained_toy():
    cfg = toy_train_config()
    t0 = time.monotonic()
    result = run_train_toy(cfg, quiet=True)
    elapsed = time.monotonic() - t0
    return cfg, result, elapsed


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_event_tensor_oracle():
    t0 = time.monotonic()
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = 1000
        stream = EventStream(
            16, 12,
            np.sort(rng.integers(0, 60_000, n)),
            rng.integers(0, 16, n),
            rng.integers(0, 12, n),
            rng.integers(0, 2, n),
        )
        t_a, t_b, bins = 5_000, 55_000, 10
        counts = bin_events(stream, (stream.t >= t_a) & (stream.t <= t_b), t_a, t_b, bins)
        oracle = np.zeros_like(counts)
        for ev in stream:
            if t_a <= ev.t <= t_b:
                b = min((ev.t - t_a) * bins // (t_b - t_a), bins - 1)
                oracle[b, ev.p, ev.y, ev.x] += 1
        ok &= bool(np.array_equal(counts, oracle))
    elapsed = time.monotonic() - t0
    record_criterion(1, ok and elapsed < 5.0, f"event-tensor oracle, 10x1000 events in {elapsed:.2f}s")
    assert ok and elapsed < 5.0


# -- criterion 2 -------------------------------------------------------------


def _wide(rng, shape, lo=-1.0, hi=1.0):
    return Tensor(rng.uniform(lo, hi, shape), dtype=WIDE, requires_grad=True)


def _op_cases(rng):
    """(name, fn, inputs) for every differentiable kernel, kink-free inputs."""
    a34 = lambda: _wide(rng, (3, 4))  # noqa: E731
    cases = [
        ("add", ops.add, [a34(), _wide(rng, (4,))]),
        ("sub", ops.sub, [a34(), a34()]),
        ("mul", ops.mul, [a34(), _wide(rng, (4,))]),
        ("div", ops.div, [a34(), _wide(rng, (3, 4), 0.5, 2.0)]),
        ("neg", ops.neg, [a34()]),
        ("power", lambda t: ops.power(t, 3.0), [a34()]),
        ("log", ops.log, [_wide(rng, (3, 4), 0.5, 3.0)]),
        ("sqrt", ops.sqrt, [_wide(rng, (3, 4), 0.5, 3.0)]),
        ("sigmoid", ops.sigmoid, [a34()]),
        ("tanh", ops.tanh, [a34()]),
        ("relu", ops.relu, [_wide(rng, (3, 4), 0.2, 1.0)]),
        ("softplus", ops.softplus, [a34()]),
        ("sum", lambda t: ops.sum(t, axis=1), [a34()]),
        ("mean", lambda t: ops.mean(t, axis=(0,)), [a34()]),
        ("reshape", lambda t: ops.reshape(t, (4, 3)), [a34()]),
        ("transpose", lambda t: ops.transpose(t, (1, 0)), [a34()]),
        ("getitem", lambda t: t[1:, ::2], [a34()]),
        ("concat", lambda a, b: ops.concat([a, b], axis=1), [a34(), a34()]),
        ("stack", lambda a, b: ops.stack([a, b], axis=0), [a34(), a34()]),
        ("matmul", ops.matmul, [_wide(rng, (3, 4)), _wide(rng, (4, 2))]),
        (
            "conv2d",
            lambda x, w, b: ops.conv2d(x, w, b, stride=2, padding=1, groups=2),
            [_wide(rng, (4, 5, 5)), _wide(rng, (6, 2, 3, 3)), _wide(rng, (6,))],
        ),
        (
            "batchnorm2d",
            lambda x, m, v, g, b: ops.batchnorm2d(x, m, v, g, b, eps=0.1),
            [
                _wide(rng, (2, 3, 3)),
                _wide(rng, (2,)),
                _wide(rng, (2,), 0.5, 2.0),
                _wide(rng, (2,)),
                _wide(rng, (2,)),
            ],
        ),
        ("softmax_rows", ops.softmax_rows, [a34()]),
        (
            "bilinear_sample",
            ops.bilinear_sample,
            [
                _wide(rng, (5, 5)),
                Tensor(np.asarray(rng.uniform(0.2, 3.8) + 0.37), dtype=WIDE, requires_grad=True),
                Tensor(np.asarray(rng.uniform(0.2, 3.8) + 0.21), dtype=WIDE, requires_grad=True),
            ],
        ),
        (
            # every coordinate grid + offset keeps its fractional part in
            # [0.15, 0.85], away from the kinks of bilinear interpolation
            "deform_conv",
            ops.deform_conv,
            [
                _wide(rng, (2, 2, 4, 4)),
                Tensor(
                    rng.integers(-2, 3, (2, 36, 4, 4)) + rng.uniform(0.15, 0.85, (2, 36, 4, 4)),
                    dtype=WIDE, requires_grad=True,
                ),
                _wide(rng, (2, 1, 3, 3), 0.2, 1.0),
            ],
        ),
        ("spike_smooth", lambda u: ops.spike(u, smooth=True), [a34()]),
    ]
    return cases


def _build_toy_pipeline(seed):
    """2 spiking blocks, bridge with T=3, 1 dense block, toy head + loss."""
    rng = np.random.default_rng(seed)
    blocks = [
        SNNBlock(2, ConvSpec.from_string("3c3p1s2"), rng, dtype=WIDE),
        SNNBlock(3, ConvSpec.from_string("3c3p1s1"), rng, dtype=WIDE),
    ]
    bridge = BridgeParams.init(3, kernel=3, rng=rng, dtype=WIDE)
    bridge.offset_w.data = 0.01 * rng.standard_normal(bridge.offset_w.shape)
    bridge.offset_b.data = rng.uniform(0.2, 0.4, bridge.offset_b.shape) * rng.choice(
        [-1.0, 1.0], bridge.offset_b.shape
    )
    ann = ConvBNBlock(3, ConvSpec.from_string("3c3p1s1"), rng, dtype=WIDE)
    head = ToyHead(3, rng, dtype=WIDE)
    x = Tensor(rng.uniform(0.0, 1.0, (3, 2, 6, 6)), dtype=WIDE, requires_grad=True)
    tensors = [x]
    for blk in blocks:
        tensors.extend(blk.parameters().values())
    tensors.extend(bridge.parameters().values())
    tensors.extend(ann.parameters().values())
    tensors.extend(head.parameters().values())

    def run(*args):
        spikes = snn_backbone_forward(args[0], blocks, training=True, smooth=True)
        feature = asab_forward(spikes, bridge)
        feats = ann_backbone_forward(feature, [ann], training=True)
        det = toy_head_forward(feats[-1], head)
        return toy_loss(det, [(1.3, 1.6, 1.5, 1.5)])

    return run, tensors


def test_criterion_2_gradient_suite():
    t0 = time.monotonic()
    worst = 0.0
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        for name, fn, inputs in _op_cases(rng):
            rep = grad_check(fn, inputs, tolerance=1e-4, rng=rng)
            worst = max(worst, rep.max_rel_error)
            if not rep.passed:
                ok = False
    for seed in range(20):
        run, tensors = _build_toy_pipeline(2000 + seed)
        rep = grad_check(run, tensors, tolerance=1e-4, rng=np.random.default_rng(seed), max_coords=3)
        worst = max(worst, rep.max_rel_error)
        if not rep.passed:
            ok = False
    elapsed = time.monotonic() - t0
    record_criterion(
        2, ok and elapsed < 60.0,
        f"gradient suite, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok and elapsed < 60.0


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_deformable_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(50):
        t = int(rng.choice([1, 2, 3, 5]))
        k = int(rng.choice([1, 3, 5]))
        h, w = int(rng.integers(4, 10)), int(rng.integers(4, 10))
        p = BridgeParams.init(t, kernel=k, rng=rng, dtype=WIDE)
        a = Tensor(rng.standard_normal((t, h, w))[None])
        out = tsdc(a, Tensor(np.zeros((1, 2 * k * k * t, h, w))), p)
        ref = ops.conv2d(a, p.tsdc_w, p.tsdc_b, stride=1, padding=(k - 1) // 2, groups=t)
        worst = max(worst, float(np.abs(out.data - ref.data).max()))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    record_criterion(3, ok, f"zero-offset tsdc vs grouped conv, max |diff| {worst:.2e}, {elapsed:.1f}s")
    assert ok


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_time_separability():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(40 + seed)
        t, k, h, w = 5, 3, 6, 6
        p = BridgeParams.init(t, kernel=k, rng=rng, dtype=WIDE)
        offsets = Tensor(rng.uniform(-1.2, 1.2, (2 * k * k * t, h, w))[None])
        a = rng.standard_normal((t, h, w))
        base = tsdc(Tensor(a[None]), offsets, p).data[0]
        for step in range(t):
            bumped = a.copy()
            bumped[step] += rng.standard_normal((h, w))
            out = tsdc(Tensor(bumped[None]), offsets, p).data[0]
            others = [s for s in range(t) if s != step]
            ok &= bool(np.array_equal(out[others], base[others]))
    record_criterion(4, ok, "tsdc timestep perturbations stay in their group (exact)")
    assert ok


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_attention_invariants():
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(50 + seed)
        t = 5
        p = BridgeParams.init(t, kernel=3, rng=rng, dtype=WIDE)
        a = rng.standard_normal((t, 4, 4))
        scores, attended = attention_parts(Tensor(a[None]), p)
        ok &= bool(np.allclose(scores.data.sum(axis=-1), 1.0, atol=1e-6))
        perm = rng.permutation(t)
        scores_p, attended_p = attention_parts(Tensor(a[perm][None]), p)
        ok &= bool(np.allclose(scores_p.data[0, 0], scores.data[0, 0][np.ix_(perm, perm)], atol=1e-6))
        ok &= bool(np.allclose(attended_p.data[0], attended.data[0][perm], atol=1e-6))
    p1 = BridgeParams.init(1, kernel=3, rng=np.random.default_rng(0), dtype=WIDE)
    a1 = Tensor(np.random.default_rng(1).standard_normal((1, 4, 4))[None])
    scores1, attended1 = attention_parts(a1, p1)
    value = a1.data * float(p1.v_gain.data[0]) + float(p1.v_bias.data[0])
    ok &= bool(np.allclose(scores1.data[0, 0], [[1.0]]))
    ok &= bool(np.allclose(attended1.data, value, atol=1e-12))
    record_criterion(5, ok, "score rows sum to 1, permutation-equivariant, T=1 degenerate")
    assert ok


# -- criteria 6 and 11 (trained artifact) -------------------------------------


@pytest.mark.slow
def test_criterion_11_end_to_end_toy_training(trained_toy):
    cfg, result, elapsed = trained_toy
    halved = result.final_loss <= 0.5 * result.initial_loss
    hit = result.metrics.hit_rate >= 0.8
    ok = halved and hit and cfg.training.steps <= 2000 and elapsed < 600.0
    record_criterion(
        11, ok,
        f"toy training: loss {result.initial_loss:.3f}->{result.final_loss:.3f}, "
        f"hit rate {result.metrics.hit_rate:.2f}, {elapsed:.0f}s",
    )
    assert ok


@pytest.mark.slow
def test_criterion_6_fused_quantization_fidelity(trained_toy):
    cfg, result, _ = trained_toy
    model = result.model
    t0 = time.monotonic()
    rates = {bits: [] for bits in (8, 6, 4, 2)}
    overflows = 0
    for seed in range(10):
        ds = make_dataset(cfg, 2, seed=900_000 + seed, stride=model.total_stride)
        windows = [s.counts for s in ds]
        for bits in (8, 6, 4, 2):
            fpm, report = run_quantize(model, bits, windows)
            rates[bits].append(report.match_rate)
            overflows += fpm.overflow_count
    failing = []  # "seed <s>: <condition>" for each per-seed condition that fails
    for seed in range(10):
        r8, r6, r4, r2 = (rates[b][seed] for b in (8, 6, 4, 2))
        for condition, holds in (
            ("r8 >= 0.99", r8 >= 0.99),
            ("r8 >= r6 >= r4 >= r2", r8 >= r6 >= r4 >= r2),
            ("r2 <= r8 - 0.05", r2 <= r8 - 0.05),
        ):
            if not holds:
                failing.append(f"seed {seed}: {condition}")
    elapsed = time.monotonic() - t0
    means = {b: float(np.mean(rates[b])) for b in rates}
    ok = overflows == 0 and not failing and elapsed < 300.0
    detail = (
        "fidelity int8/6/4/2 = "
        + "/".join(f"{means[b]:.4f}" for b in (8, 6, 4, 2))
        + f", overflows {overflows}, {elapsed:.0f}s"
        + (f"; failing: {', '.join(failing)}" if failing else "")
    )
    record_criterion(6, ok, detail)
    assert ok, detail


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_bn_fusion_equivalence():
    fused = fuse_bn_lif(
        mean_bn=np.ones(1), var_bn=np.full(1, 3.0),
        weight_bn=np.full(1, 2.0), bias_bn=np.full(1, 4.0), eps_bn=1.0, tau=2.0,
        q_scale=np.ones(1),
    )
    ok = np.isclose(fused.scale[0], 0.5) and np.isclose(fused.shift[0], 1.5)
    worst = 0.0
    from evhybrid.quantize import int_conv2d

    for seed in range(100):
        rng = np.random.default_rng(700 + seed)
        c_in, c_out = 2, 3
        w = rng.standard_normal((c_out, c_in, 3, 3))
        mean = rng.standard_normal(c_out)
        var = rng.uniform(0.05, 2.0, c_out)
        gamma = rng.uniform(0.5, 1.5, c_out) * rng.choice([-1, 1], c_out)
        beta = rng.standard_normal(c_out)
        eps = float(rng.uniform(1e-5, 0.1))
        tau = float(rng.uniform(1.0, 5.0))
        q = quantize_per_channel(w, 8)
        f = fuse_bn_lif(mean, var, gamma, beta, eps, tau, q.q_scale)
        x = rng.integers(0, 4, (2, c_in, 5, 5))
        y_int = dense_conv_output(*int_conv2d(x, q.int_weights, 1, 1)[:3]).transpose(0, 3, 1, 2)
        fused_pre = y_int * f.scale.reshape(1, -1, 1, 1) + f.shift.reshape(1, -1, 1, 1)
        y_f = ops.conv2d(x.astype(np.float64), q.dequantize(), stride=1, padding=1).data
        bn = (y_f - mean.reshape(1, -1, 1, 1)) / np.sqrt(var + eps).reshape(1, -1, 1, 1)
        bn = bn * gamma.reshape(1, -1, 1, 1) + beta.reshape(1, -1, 1, 1)
        worst = max(worst, float(np.abs(fused_pre - bn / tau).max()))
    ok = ok and worst < 1e-5
    record_criterion(7, bool(ok), f"fusion equivalence, worked example + 100 random, max |diff| {worst:.2e}")
    assert ok


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_energy_model_regression():
    ok = True
    details = []
    for name, macs, acs, joules in ENERGY_DATAPOINTS:
        counters = OpCounters()
        lc = counters.layer(name)
        lc.macs, lc.acs = int(macs), int(acs)
        rel = abs(energy_estimate(counters) - joules) / joules
        details.append(f"{name} {rel * 100:.1f}%")
        ok &= rel < 0.10
    _, macs, acs, joules = HYBRID_REFERENCE_POINT
    counters = OpCounters()
    lc = counters.layer("hybrid")
    lc.macs, lc.acs = int(macs), int(acs)
    rel = abs(energy_estimate(counters) - joules) / joules
    ok &= rel < 0.05
    record_criterion(8, ok, f"energy fit: {', '.join(details)}; hybrid point {rel * 100:.1f}%")
    assert ok


# -- criterion 9 -------------------------------------------------------------


def _brute_force_acs(mask, k, stride, padding, c_out):
    t, c_in, h, w = mask.shape
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    total = 0
    for tt, cc, y, x in zip(*np.nonzero(mask)):
        for ky in range(k):
            for kx in range(k):
                ny, nx = y + padding - ky, x + padding - kx
                if ny % stride or nx % stride:
                    continue
                if 0 <= ny // stride < h_out and 0 <= nx // stride < w_out:
                    total += c_out
    return total


def test_criterion_9_ac_counter_oracle():
    ok = True
    combos = [(s, p) for s in (1, 2) for p in (0, 1)]
    for i in range(20):
        stride, padding = combos[i % 4]
        rng = np.random.default_rng(90 + i)
        mask = rng.random((3, 2, 7, 8)) < 0.12
        c_out = int(rng.integers(1, 9))
        acs = ConvSpec(c_out, kernel=3, padding=padding, stride=stride).accumulates(mask)
        ok &= acs == _brute_force_acs(mask, 3, stride, padding, c_out)
    record_criterion(9, ok, "event-driven accumulate counter vs brute force, 20 inputs (exact)")
    assert ok


# -- criterion 10 ------------------------------------------------------------


def test_criterion_10_shape_regression():
    cfg = RunConfig().validate()  # the full-size default stack
    model = HybridModel(cfg, seed=0)
    rng = np.random.default_rng(10)
    counts = rng.poisson(0.01, (10, 2, 304, 240)).astype(np.int64)
    spikes = snn_backbone_forward(Tensor(counts.astype(np.float32)), model.snn_blocks)
    shape_a = tuple(spikes.shape)
    counts2 = rng.poisson(0.01, (10, 2, 256, 160)).astype(np.int64)
    spikes2 = snn_backbone_forward(Tensor(counts2.astype(np.float32)), model.snn_blocks)
    shape_b = tuple(spikes2.shape)
    ok = shape_a == (10, 256, 38, 30) and shape_b == (10, 256, 32, 20)
    record_criterion(10, ok, f"E_spike shapes {shape_a} and {shape_b}")
    assert ok


# -- criterion 12 ------------------------------------------------------------


@pytest.mark.slow
def test_criterion_12_ablation_direction():
    wins = 0
    details = []
    for seed in range(10):
        full = run_train_toy(ablation_config(seed), variant="full", quiet=True)
        plain = run_train_toy(ablation_config(seed), variant="no-asab", quiet=True)
        win = full.metrics.mean_center_err < plain.metrics.mean_center_err
        wins += win
        details.append(f"{full.metrics.mean_center_err:.2f}<{plain.metrics.mean_center_err:.2f}" if win
                       else f"{full.metrics.mean_center_err:.2f}>={plain.metrics.mean_center_err:.2f}")
    ok = wins >= 8
    record_criterion(12, ok, f"bridge vs time-sum held-out center error: {wins}/10 wins")
    assert ok, details


# -- criterion 13 ------------------------------------------------------------


def _cli(args, cwd):
    res = subprocess.run([sys.executable, "-m", "evhybrid", *args], capture_output=True, text=True, cwd=cwd)
    assert res.returncode == 0, res.stderr
    return res


def test_criterion_13_cli_determinism(tmp_path):
    cfg = RunConfig()
    cfg.simulation.sensor_width = 24
    cfg.simulation.sensor_height = 24
    cfg.architecture.snn_layers = ["4c3p1s2", "6c3p1s2"]
    cfg.architecture.ann_layers = ["8c3p1s1"]
    cfg.architecture.lstm_positions = []
    cfg.architecture.bridge_kernel = 3
    cfg.training.steps = 25
    cfg.training.batch = 2
    cfg.training.scenes = 6
    cfg.training.eval_scenes = 2
    cfg.training.scene_duration_ms = 100
    cfg.validate()
    cfg_path = tmp_path / "toy.ini"
    save_config(cfg, cfg_path)

    base = ["--config", str(cfg_path), "--deterministic", "--seed", "7"]
    _cli([*base, "--out", str(tmp_path / "gen"), "gen"], tmp_path)

    pairs = []
    for tag in ("a", "b"):
        _cli([*base, "--out", str(tmp_path / f"train_{tag}"), "train"], tmp_path)
        _cli(
            [*base, "--out", str(tmp_path / f"infer_{tag}"), "infer",
             "--events", str(tmp_path / "gen" / "events.evs"),
             "--checkpoint", str(tmp_path / f"train_{tag}" / "checkpoint.evck")],
            tmp_path,
        )
        _cli(
            [*base, "--out", str(tmp_path / f"quant_{tag}"), "quantize",
             "--checkpoint", str(tmp_path / f"train_{tag}" / "checkpoint.evck")],
            tmp_path,
        )
    for rel in (
        ("train", "checkpoint.evck"),
        ("train", "loss_curve.csv"),
        ("train", "metrics.json"),
        ("infer", "detections.json"),
        ("quant", "quantized.json"),
        ("quant", "quantized.bin"),
        ("quant", "fidelity.json"),
    ):
        a = (tmp_path / f"{rel[0]}_a" / rel[1]).read_bytes()
        b = (tmp_path / f"{rel[0]}_b" / rel[1]).read_bytes()
        pairs.append(a == b)
    ok = all(pairs)
    record_criterion(13, ok, "train/infer/quantize outputs bit-identical across invocations")
    assert ok
