"""Model assembly, checkpoint round trips, windowed inference, CLI surface."""

import json
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.arrayio import CHECKPOINT_MAGIC, read_bundle, write_bundle
from evhybrid.config import RunConfig, load_config, save_config
from evhybrid.errors import ConfigError, DataFormatError
from evhybrid.events import (
    EVENT_DTYPE, EVS_HEADER, EVS_MAGIC, EventStream, synthesize_moving_shapes, write_events,
)
from evhybrid.model import HybridModel, decode_detections, run_infer, stream_windows
from evhybrid.quantize import run_quantize
from evhybrid.ann import toy_loss
from evhybrid.numerics import WIDE, GradTape, Tensor
from evhybrid.snn import snn_backbone_forward
from evhybrid import cli, quantize, train
from evhybrid.train import make_dataset, run_ablate, run_train_toy

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def toy_config(seed=0, steps=8):
    cfg = RunConfig()
    cfg.simulation.sensor_width = 24
    cfg.simulation.sensor_height = 24
    cfg.architecture.snn_layers = ["4c3p1s2", "6c3p1s2"]
    cfg.architecture.ann_layers = ["8c3p1s1"]
    cfg.architecture.lstm_positions = []
    cfg.architecture.bridge_kernel = 3
    cfg.training.seed = seed
    cfg.training.steps = steps
    cfg.training.batch = 2
    cfg.training.scenes = 4
    cfg.training.eval_scenes = 2
    cfg.training.scene_duration_ms = 100
    return cfg.validate()


def three_window_stream(seed=7):
    """Events on the 24x24 toy sensor in three 50 ms windows of unequal density."""
    rng = np.random.default_rng(seed)
    parts = [rng.integers(lo, lo + 50_000, n) for lo, n in ((0, 500), (50_001, 300), (100_001, 80))]
    t = np.sort(np.concatenate(parts))
    n = len(t)
    return EventStream(24, 24, t=t, x=rng.integers(0, 24, n), y=rng.integers(0, 24, n), p=rng.integers(0, 2, n))


class TestModel:
    def test_total_stride(self):
        model = HybridModel(toy_config(), seed=0)
        assert model.total_stride == 4

    def test_checkpoint_roundtrip_bit_identical_inference(self, tmp_path):
        cfg = toy_config()
        model = HybridModel(cfg, seed=1)
        counts = np.random.default_rng(0).poisson(0.2, (10, 2, 24, 24)).astype(np.int64)
        before = model.forward_window(counts)["detection"].raw.data.copy()
        path = tmp_path / "model.evck"
        model.save_checkpoint(path)
        other = HybridModel(cfg, seed=99)  # different init, then load
        other.load_checkpoint(path)
        after = other.forward_window(counts)["detection"].raw.data
        np.testing.assert_array_equal(before, after)

    def test_checkpoint_file_deterministic(self, tmp_path):
        model = HybridModel(toy_config(), seed=2)
        a, b = tmp_path / "a.evck", tmp_path / "b.evck"
        model.save_checkpoint(a)
        model.save_checkpoint(b)
        assert a.read_bytes() == b.read_bytes()

    def test_checkpoint_loads_at_other_sensor_size_and_training_knobs(self, tmp_path):
        model = HybridModel(toy_config(), seed=1)
        path = tmp_path / "model.evck"
        model.save_checkpoint(path)
        cfg = toy_config()
        cfg.training.lr = 0.5
        cfg.simulation.sensor_width = 40
        other = HybridModel(cfg, seed=99)
        other.load_checkpoint(path)
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, other.parameters()[name].data)
        for name, stat in model.running_stats().items():
            np.testing.assert_array_equal(stat, other.running_stats()[name])

    @pytest.mark.parametrize("change", ["padding", "binning", "window"])
    def test_checkpoint_architecture_mismatch_rejected(self, tmp_path, change):
        path = tmp_path / "model.evck"
        HybridModel(toy_config(), seed=1).save_checkpoint(path)
        cfg = toy_config()
        if change == "padding":
            cfg.architecture.snn_layers = ["4c3p0s2", "6c3p1s2"]
        elif change == "binning":
            cfg.simulation.T = 5
        else:
            cfg.simulation.window_ms = 100
        with pytest.raises(DataFormatError, match="architecture"):
            HybridModel(cfg.validate(), seed=1).load_checkpoint(path)

    def test_every_parameter_moves_the_training_loss(self):
        # a parameter the loss ignores is dead weight: a conv bias in front of
        # a batch norm is subtracted again by the batch mean
        cfg = toy_config()
        cfg.architecture.lstm_positions = [1]
        model = HybridModel(cfg.validate(), seed=5, dtype=WIDE)
        counts = np.random.default_rng(5).poisson(0.5, (10, 2, 24, 24))
        blocks = dict(model._named_blocks())
        stats = {k: v.copy() for k, v in model.running_stats().items()}

        def loss():
            model.reset_state()
            trace: list = []
            out = model.forward_window(counts, training=True, trace=trace)
            for key, v in stats.items():  # undo the running-average updates
                name, stat = key.split(".")
                setattr(blocks[name], stat, v.copy())
            assert all(e["input_spikes"] for e in trace[1:]) and out["e_spike"].data.any()
            return float(toy_loss(out["detection"], [(2.5, 3.0, 2.0, 2.0)]).data)

        base = loss()
        for name, prm in model.parameters().items():
            orig = prm.data
            prm.data = orig + 0.1
            moved = abs(loss() - base)
            prm.data = orig
            assert moved > 1e-9, f"{name} moves the loss by {moved:.1e}"

    def test_infer_trace_equals_backbone_pass(self):
        cfg = toy_config()
        model = HybridModel(cfg, seed=7)
        rng = np.random.default_rng(7)
        n = 600
        stream = EventStream(
            24, 24, t=np.sort(rng.integers(0, 120_000, n)), x=rng.integers(0, 24, n),
            y=rng.integers(0, 24, n), p=rng.integers(0, 2, n),
        )
        trace: list = []
        run_infer(model, stream, trace=trace)
        ref: list = []
        for _, counts in stream_windows(stream, cfg):
            snn_backbone_forward(Tensor(counts.astype(model.dtype)), model.snn_blocks, trace=ref)
        assert len(trace) == len(ref) == 3 * len(model.snn_blocks)
        for a, b in zip(trace, ref):
            assert a.keys() == b.keys()
            for k in a:
                np.testing.assert_array_equal(a[k], b[k])

    def test_infer_trace_keeps_no_window_arrays(self):
        model = HybridModel(toy_config(), seed=7)
        stream = three_window_stream()
        run_infer(model, stream)  # first-call caches are not the trace's
        tracemalloc.start()
        try:
            trace: list = []
            run_infer(model, stream, trace=trace)
            assert len(trace) == 3 * len(model.snn_blocks)
            held = tracemalloc.get_traced_memory()[0]
            trace = None
            per_window = (held - tracemalloc.get_traced_memory()[0]) / 3
        finally:
            tracemalloc.stop()
        assert 0 < per_window < 1024

    @pytest.mark.parametrize("version", [1, 3])
    def test_checkpoint_version_mismatch_rejected(self, tmp_path, version):
        path = tmp_path / "model.evck"
        model = HybridModel(toy_config(), seed=1)
        model.save_checkpoint(path)
        meta, arrays = read_bundle(path, CHECKPOINT_MAGIC)
        write_bundle(path, CHECKPOINT_MAGIC, {**meta, "format_version": version}, arrays)
        with pytest.raises(DataFormatError, match=f"unsupported checkpoint version {version}"):
            model.load_checkpoint(path)

    def test_infer_rejects_stream_of_other_geometry(self):
        with pytest.raises(DataFormatError, match="geometry"):
            run_infer(HybridModel(toy_config(), seed=3), EventStream.empty(24, 16))

    def test_empty_stream_no_detections(self):
        cfg = toy_config()
        model = HybridModel(cfg, seed=3)
        stream = EventStream.empty(24, 24)
        assert run_infer(model, stream) == []

    def test_one_detection_set_per_window(self):
        cfg = toy_config()
        win_ms = cfg.simulation.window_ms
        model = HybridModel(cfg, seed=4)
        scene = train._random_scene(cfg, np.random.default_rng(5), seed=5)
        stream = synthesize_moving_shapes(scene, 2 * win_ms + 20, win_ms).stream
        windows = [i for i, _ in stream_windows(stream, cfg)]
        assert windows == [0, 1, 2]
        dets = run_infer(model, stream)
        assert [d.window for d in dets] == sorted(d.window for d in dets)
        assert {d.window for d in dets} == set(windows)
        for d in dets:
            assert d.t_us == (d.window + 1) * win_ms * 1000

    def test_toy_training_step_tape_size(self):
        # each spiking block's time loop is one tape node: the first step of
        # configs/toy.ini (3 windows and their losses) records at most 300
        cfg = load_config(CONFIG_DIR / "toy.ini")
        model = HybridModel(cfg, seed=cfg.training.seed)
        ds = make_dataset(cfg, 2, seed=cfg.training.seed, stride=model.total_stride)
        assert len(ds) >= cfg.training.batch
        with GradTape() as tape:
            for sample in ds[: cfg.training.batch]:
                model.reset_state()
                out = model.forward_window(sample.counts, training=True)
                toy_loss(out["detection"], sample.boxes_cells)
        assert len(tape) <= 300

    def test_dataset_windows_are_stream_windows(self):
        # every training window is the inference window of its scene's
        # stream; a window's start event belongs to the window before it
        cfg = load_config(CONFIG_DIR / "toy.ini")
        tr, sim = cfg.training, cfg.simulation
        stride = HybridModel(cfg).total_stride
        ds = make_dataset(cfg, tr.scenes, seed=tr.seed, stride=stride)
        rng = np.random.default_rng(tr.seed)
        expected = []
        for s in range(tr.scenes):
            scene = train._random_scene(cfg, rng, seed=tr.seed * 100003 + s)
            result = synthesize_moving_shapes(scene, tr.scene_duration_ms, sim.window_ms)
            windows = dict(stream_windows(result.stream, cfg))
            expected += [(i, windows[i]) for i in sorted({b.window for b in result.boxes})]
        assert len(ds) == len(expected) == 2 * tr.scenes
        for sample, (i, counts) in zip(ds, expected):
            assert sample.window == i
            np.testing.assert_array_equal(sample.counts, counts)

    def test_dataset_holds_events_not_count_tensors(self):
        # two gen1.ini scenes: 12 windows of 10x2x304x240 int64 counts are
        # 134 MiB, the two streams they come from a few hundred KiB
        cfg = load_config(CONFIG_DIR / "gen1.ini")
        tracemalloc.start()
        try:
            ds = make_dataset(cfg, 2, seed=cfg.training.seed, stride=32)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(ds) == 12
        assert held < 2**20
        streams = [{id(s.stream) for s in ds[:6]}, {id(s.stream) for s in ds[6:]}]
        assert all(len(ids) == 1 for ids in streams) and streams[0] != streams[1]

    def test_box_window_after_the_last_event_is_empty(self):
        cfg = toy_config()
        cfg.training.speed_min = cfg.training.speed_max = 0.0  # a still shape emits no events
        ds = make_dataset(cfg.validate(), 2, seed=5, stride=4)
        assert [s.window for s in ds] == [0, 1] * 2
        assert all(s.counts.shape == (10, 2, 24, 24) and not s.counts.any() for s in ds)

    def test_stream_ending_at_time_zero_gives_one_window(self):
        stream = EventStream(24, 24, t=[0, 0], x=[3, 5], y=[4, 6], p=[1, 0])
        windows = list(stream_windows(stream, toy_config()))
        assert [i for i, _ in windows] == [0]
        assert windows[0][1].sum() == 2

    def test_boundary_event_has_one_owner(self):
        cfg = toy_config()
        w = cfg.simulation.window_ms * 1000
        t = [0, w, 2 * w, 2 * w + 7]  # the last event opens a third window
        stream = EventStream(24, 24, t=t, x=[1, 2, 3, 4], y=[1, 2, 3, 4], p=[1, 1, 1, 1])
        windows = [c for _, c in stream_windows(stream, cfg)]
        assert len(windows) == 3
        assert sum(int(c.sum()) for c in windows) == len(stream)
        assert windows[0][-1, 1, 2, 2] == 1 and windows[0][:, :, 2, 2].sum() == 1
        assert windows[1][:, :, 2, 2].sum() == 0

    @given(
        t=st.lists(st.integers(0, 6).map(lambda k: k * 25_000) | st.integers(0, 150_000), max_size=30),
        n_bins=st.integers(1, 7),
    )
    @settings(max_examples=60, deadline=None)
    def test_windows_match_per_event_owner(self, t, n_bins):
        cfg = toy_config()
        cfg.simulation.T = n_bins
        w = cfg.simulation.window_ms * 1000
        rng = np.random.default_rng(len(t))
        n = len(t)
        stream = EventStream(24, 24, t=t, x=rng.integers(0, 24, n), y=rng.integers(0, 24, n),
                             p=rng.integers(0, 2, n))
        windows = list(stream_windows(stream, cfg))
        expected = np.zeros((len(windows), n_bins, 2, 24, 24), dtype=np.int64)
        for e in stream:
            i = max(0, -(-e.t // w) - 1)
            expected[i, min(n_bins - 1, (e.t - i * w) * n_bins // w), e.p, e.y, e.x] += 1
        assert [i for i, _ in windows] == list(range(len(windows)))
        np.testing.assert_array_equal(np.array([c for _, c in windows]).reshape(expected.shape), expected)

    def test_decode_emits_argmax_when_nothing_confident(self):
        cfg = toy_config()
        model = HybridModel(cfg, seed=6)
        counts = np.zeros((10, 2, 24, 24), dtype=np.int64)
        out = model.forward_window(counts)
        dets = decode_detections(out["detection"], 0, 50_000, model.total_stride)
        assert len(dets) >= 1


class TestBundle:
    @pytest.mark.parametrize("part", ["header", "manifest", "array"])
    def test_truncated_bundle_is_data_error(self, tmp_path, part):
        path = tmp_path / "full.evck"
        write_bundle(path, CHECKPOINT_MAGIC, {"k": 1}, {"w": np.arange(6.0)})
        blob = path.read_bytes()
        header = len(CHECKPOINT_MAGIC) + 8
        cut = {"header": header - 3, "manifest": header + 5, "array": len(blob) - 1}[part]
        path.write_bytes(blob[:cut])
        with pytest.raises(DataFormatError, match=part):
            read_bundle(path, CHECKPOINT_MAGIC)

    @pytest.mark.parametrize(
        "manifest", [b"\xff" * 8, b"{not json", b'{"meta": ' + b"1" * 5000 + b"}"],
        ids=["not-utf8", "not-json", "huge-int"],
    )
    def test_corrupt_manifest_is_data_error(self, tmp_path, manifest):
        path = tmp_path / "bad.evck"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(manifest)) + manifest)
        with pytest.raises(DataFormatError, match="manifest"):
            read_bundle(path, CHECKPOINT_MAGIC)

    @pytest.mark.parametrize(
        "missing", ["meta", "arrays", "name", "dtype", "shape", "offset", "nbytes"]
    )
    def test_manifest_missing_field_is_data_error(self, tmp_path, missing):
        entry = {"name": "w", "dtype": "<f8", "shape": [2], "offset": 0, "nbytes": 16}
        manifest = {"meta": {}, "arrays": [entry]}
        entry.pop(missing, None)
        manifest.pop(missing, None)
        raw = json.dumps(manifest).encode("utf-8")
        path = tmp_path / "bad.evck"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(raw)) + raw + bytes(16))
        with pytest.raises(DataFormatError, match=missing):
            read_bundle(path, CHECKPOINT_MAGIC)

    def test_meta_not_object_is_data_error(self, tmp_path):
        path = write_raw_bundle(tmp_path / "bad.evck", {"meta": [], "arrays": []})
        with pytest.raises(DataFormatError, match="meta"):
            read_bundle(path, CHECKPOINT_MAGIC)

    @pytest.mark.parametrize(
        "change",
        [
            {"shape": [3]},
            {"nbytes": 24},
            {"dtype": "<q8"},
            {"dtype": None},
            {"dtype": "|O"},
            {"dtype": "(2,)<f8", "shape": [1]},
            {"offset": -16},
            {"shape": [-1, -2]},
            {"shape": 2},
            {"nbytes": 16.0},
        ],
        ids=["shape-vs-nbytes", "nbytes-vs-shape", "unknown-dtype", "null-dtype", "object-dtype",
             "subarray-dtype", "negative-offset", "negative-dims", "shape-not-list", "float-nbytes"],
    )
    def test_entry_not_describing_its_bytes_is_data_error(self, tmp_path, change):
        entry = {"name": "w", "dtype": "<f8", "shape": [2], "offset": 0, "nbytes": 16, **change}
        path = write_raw_bundle(tmp_path / "bad.evck", {"meta": {}, "arrays": [entry]}, bytes(32))
        with pytest.raises(DataFormatError, match="'w'"):
            read_bundle(path, CHECKPOINT_MAGIC)


def write_raw_bundle(path, manifest, payload=b""):
    """A bundle file with a hand-written manifest."""
    raw = json.dumps(manifest).encode("utf-8")
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(raw)) + raw + payload)
    return path


def run_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "evhybrid", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """Config + generated events + a briefly trained checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    cfg = toy_config(steps=30)
    cfg_path = root / "toy.ini"
    save_config(cfg, cfg_path)
    gen = run_cli(["--config", str(cfg_path), "--out", str(root / "gen"), "gen"], root)
    assert gen.returncode == 0, gen.stderr
    train = run_cli(["--config", str(cfg_path), "--out", str(root / "run"), "train"], root)
    assert train.returncode == 0, train.stderr
    return root, cfg_path


class TestCLI:
    def test_gen_outputs(self, cli_workspace):
        root, _ = cli_workspace
        assert (root / "gen" / "events.evs").exists()
        gt = json.loads((root / "gen" / "ground_truth.json").read_text())
        assert gt["boxes"]

    def test_train_outputs(self, cli_workspace):
        root, _ = cli_workspace
        assert (root / "run" / "checkpoint.evck").exists()
        curve = (root / "run" / "loss_curve.csv").read_text().splitlines()
        assert curve[0] == "step,loss" and len(curve) == 31
        metrics = json.loads((root / "run" / "metrics.json").read_text())
        assert set(metrics) == {"mean_loss", "mean_center_err", "hit_rate", "n_windows"}

    def test_infer_profile_detections(self, cli_workspace):
        root, cfg_path = cli_workspace
        res = run_cli(
            [
                "--config", str(cfg_path), "--out", str(root / "infer"), "infer",
                "--events", str(root / "gen" / "events.evs"),
                "--checkpoint", str(root / "run" / "checkpoint.evck"),
            ],
            root,
        )
        assert res.returncode == 0, res.stderr
        dets = json.loads((root / "infer" / "detections.json").read_text())
        assert isinstance(dets, list)
        profile = json.loads((root / "infer" / "profile.json").read_text())
        assert profile["total.macs"] > 0 and profile["total.acs"] > 0

    def test_trained_checkpoint_holds_parameters_and_statistics_only(self, cli_workspace):
        root, cfg_path = cli_workspace
        _, arrays = read_bundle(root / "run" / "checkpoint.evck", CHECKPOINT_MAGIC)
        model = HybridModel(load_config(cfg_path))
        expected = {f"param.{k}" for k in model.parameters()} | {f"stat.{k}" for k in model.running_stats()}
        assert set(arrays) == expected

    @pytest.mark.parametrize("row", ["10,4294967299,2,1", "20,1,2,257"], ids=["x", "p"])
    def test_infer_csv_value_narrowing_would_wrap_exit_code(self, cli_workspace, tmp_path, row):
        _, cfg_path = cli_workspace
        events = tmp_path / "events.csv"
        events.write_text(f"t_us,x,y,p\n{row}\n")
        res = run_cli(
            ["--config", str(cfg_path), "--out", str(tmp_path / "infer"), "infer", "--events", str(events)],
            tmp_path,
        )
        assert res.returncode == 3
        assert f"error[data]: {events}:2: event 0" in res.stderr

    def test_infer_evs_timestamp_past_int64_exit_code(self, cli_workspace, tmp_path):
        _, cfg_path = cli_workspace
        rec = np.ones(1, dtype=EVENT_DTYPE)
        rec["t"] = 2**63 + 5
        events = tmp_path / "late.evs"
        events.write_bytes(EVS_HEADER.pack(EVS_MAGIC, 24, 24, 1) + rec.tobytes())
        res = run_cli(
            ["--config", str(cfg_path), "--out", str(tmp_path / "infer"), "infer", "--events", str(events)],
            tmp_path,
        )
        assert res.returncode == 3
        assert f"error[data]: {events}: event 0 has timestamp 9223372036854775813 past the int64 range" in res.stderr
        assert not (tmp_path / "infer").exists()

    def test_quantize_fidelity(self, cli_workspace):
        root, cfg_path = cli_workspace
        res = run_cli(
            [
                "--config", str(cfg_path), "--out", str(root / "quant"), "quantize",
                "--checkpoint", str(root / "run" / "checkpoint.evck"), "--bits", "8",
            ],
            root,
        )
        assert res.returncode == 0, res.stderr
        rep = json.loads((root / "quant" / "fidelity.json").read_text())
        assert set(rep) == {"match_rate", "total_cells", "per_layer_mismatch", "first_divergence_t"}
        assert 0.0 <= rep["match_rate"] <= 1.0
        assert (root / "quant" / "quantized.json").exists()
        assert (root / "quant" / "quantized.bin").exists()

    def test_fidelity_sweep_computes_one_float_reference_per_window(self, cli_workspace, tmp_path, monkeypatch):
        root, cfg_path = cli_workspace
        checkpoint = str(root / "run" / "checkpoint.evck")
        cfg = load_config(cfg_path)
        model = cli._build_model(cfg, checkpoint)
        windows = cli._eval_windows(cfg, model)
        want = {f"int{bits}": run_quantize(model, bits, windows)[1].as_dict() for bits in (8, 6, 4, 2)}
        calls = []
        float_reference = quantize.float_reference_spikes

        def counted(*args, **kwargs):
            calls.append(args[1])
            return float_reference(*args, **kwargs)

        monkeypatch.setattr(quantize, "float_reference_spikes", counted)
        argv = ["--config", str(cfg_path), "--out", str(tmp_path), "fidelity", "--checkpoint", checkpoint]
        assert cli.main(argv + ["--bits", "8,6,4,2"]) == 0
        assert len(calls) == len(windows) > 1
        # the same sweep as one run_quantize per width, each with its own reference
        assert json.loads((tmp_path / "fidelity_sweep.json").read_text()) == want

    @pytest.mark.parametrize("command", ["infer", "profile"])
    def test_multi_window_profile_is_the_per_window_mean(self, cli_workspace, tmp_path, command):
        root, cfg_path = cli_workspace
        checkpoint, events = str(root / "run" / "checkpoint.evck"), tmp_path / "events.evs"
        stream = three_window_stream()
        write_events(stream, events)
        argv = ["--config", str(cfg_path), "--out", str(tmp_path / "out"), command,
                "--events", str(events), "--checkpoint", checkpoint]
        assert cli.main(argv) == 0
        cfg = load_config(cfg_path)
        model = cli._build_model(cfg, checkpoint)
        windows = []
        for _, counts in stream_windows(stream, cfg):
            trace: list = []
            snn_backbone_forward(Tensor(counts.astype(model.dtype)), model.snn_blocks, trace=trace)
            windows.append(trace)
        assert len(windows) == 3
        # every layer's input differs from window to window, so the last is not the mean
        assert all(len({e["acs"] for e in layer}) == 3 for layer in zip(*windows))
        profile = json.loads((tmp_path / "out" / "profile.json").read_text())
        for layer in zip(*windows):
            name = layer[0]["name"]
            sums = {k: sum(e[k] for e in layer) for k in ("acs", "input_spikes", "cells")}
            assert profile[f"{name}.acs"] == round(sums["acs"] / 3)
            assert profile[f"{name}.input_spikes"] == round(sums["input_spikes"] / 3)
            if command == "profile":
                sparsity = (sums["cells"] - sums["input_spikes"]) / sums["cells"]
                assert profile[f"{name}.input_sparsity"] == sparsity

    def test_profile_without_events_is_analytic(self, cli_workspace):
        root, cfg_path = cli_workspace
        res = run_cli(["--config", str(cfg_path), "--out", str(root / "prof"), "profile"], root)
        assert res.returncode == 0, res.stderr
        profile = json.loads((root / "prof" / "profile.json").read_text())
        assert profile["total.acs"] == 0

    def test_truncated_checkpoint_exit_code(self, cli_workspace, tmp_path):
        root, cfg_path = cli_workspace
        blob = (root / "run" / "checkpoint.evck").read_bytes()
        cut = tmp_path / "cut.evck"
        cut.write_bytes(blob[:-8])
        res = run_cli(
            ["--config", str(cfg_path), "--out", str(tmp_path / "quant"), "quantize",
             "--checkpoint", str(cut), "--bits", "8"],
            tmp_path,
        )
        assert res.returncode == 3
        assert "error[data]" in res.stderr
        assert not (tmp_path / "quant").exists()

    def test_corrupt_manifest_checkpoint_exit_code(self, cli_workspace, tmp_path):
        root, cfg_path = cli_workspace
        blob = bytearray((root / "run" / "checkpoint.evck").read_bytes())
        blob[len(CHECKPOINT_MAGIC) + 8] = ord("x")  # the manifest's opening brace
        bad = tmp_path / "bad.evck"
        bad.write_bytes(bytes(blob))
        res = run_cli(
            ["--config", str(cfg_path), "--out", str(tmp_path / "quant"), "quantize",
             "--checkpoint", str(bad), "--bits", "8"],
            tmp_path,
        )
        assert res.returncode == 3
        assert "error[data]" in res.stderr

    def test_huge_int_manifest_checkpoint_exit_code(self, cli_workspace, tmp_path):
        # an integer literal past Python's 4300-digit limit fails json.loads
        manifest = b'{"meta": ' + b"1" * 5000 + b', "arrays": []}'
        bad = tmp_path / "bad.evck"
        bad.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(manifest)) + manifest)
        res = run_cli(
            ["--config", str(cli_workspace[1]), "--out", str(tmp_path / "quant"), "quantize",
             "--checkpoint", str(bad), "--bits", "8"],
            tmp_path,
        )
        assert res.returncode == 3
        assert "error[data]" in res.stderr

    def test_entry_not_describing_its_bytes_checkpoint_exit_code(self, cli_workspace, tmp_path):
        root, cfg_path = cli_workspace
        blob = (root / "run" / "checkpoint.evck").read_bytes()
        pos = len(CHECKPOINT_MAGIC) + 8
        (mlen,) = struct.unpack_from("<Q", blob, len(CHECKPOINT_MAGIC))
        manifest = json.loads(blob[pos : pos + mlen])
        manifest["arrays"][0]["shape"].append(2)  # the entry's bytes now hold half its shape
        bad = write_raw_bundle(tmp_path / "bad.evck", manifest, blob[pos + mlen :])
        res = run_cli(
            ["--config", str(cfg_path), "--out", str(tmp_path / "quant"), "quantize",
             "--checkpoint", str(bad), "--bits", "8"],
            tmp_path,
        )
        assert res.returncode == 3
        assert "error[data]" in res.stderr

    @pytest.mark.parametrize("key", ["stat.snn1.bn_mean", "stat.ann1.bn_var"])
    def test_bad_running_stat_checkpoint_exit_code(self, cli_workspace, tmp_path, key):
        # a missing stat used to raise a KeyError traceback; a mis-shaped one
        # used to load and quantize silently
        root, cfg_path = cli_workspace
        meta, arrays = read_bundle(root / "run" / "checkpoint.evck", CHECKPOINT_MAGIC)
        if key.endswith("bn_mean"):
            del arrays[key]
        else:
            arrays[key] = np.ones(arrays[key].size + 1, dtype=arrays[key].dtype)
        bad = tmp_path / "bad.evck"
        write_bundle(bad, CHECKPOINT_MAGIC, meta, arrays)
        res = run_cli(
            ["--config", str(cfg_path), "--out", str(tmp_path / "quant"), "quantize",
             "--checkpoint", str(bad), "--bits", "8"],
            tmp_path,
        )
        assert res.returncode == 3
        assert "error[data]" in res.stderr and key in res.stderr

    def test_architecture_mismatch_checkpoint_exit_code(self, cli_workspace, tmp_path):
        root, _ = cli_workspace
        cfg = toy_config()
        cfg.architecture.snn_layers = ["4c3p0s2", "6c3p1s2"]
        other = tmp_path / "other.ini"
        save_config(cfg, other)
        res = run_cli(
            ["--config", str(other), "--out", str(tmp_path / "quant"), "quantize",
             "--checkpoint", str(root / "run" / "checkpoint.evck"), "--bits", "8"],
            tmp_path,
        )
        assert res.returncode == 3
        assert "error[data]" in res.stderr and "architecture" in res.stderr

    def test_missing_config_categorized_error(self, tmp_path):
        res = run_cli(
            ["--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "run"), "train"], tmp_path
        )
        assert res.returncode == 2
        assert "error[config]" in res.stderr and "nope.ini" in res.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("out,command", [("afile", "profile"), ("afile/sub", "gen")])
    def test_out_through_an_existing_file_is_config_error(self, tmp_path, out, command):
        # the file itself, or a directory under it: mkdir fails with EEXIST or ENOTDIR
        (tmp_path / "afile").write_text("keep")
        res = run_cli(["--out", out, command], tmp_path)
        assert res.returncode == 2
        assert "error[config]" in res.stderr and f"--out {out}" in res.stderr
        assert (tmp_path / "afile").read_text() == "keep"

    def test_non_utf8_config_exit_code(self, tmp_path):
        bad = tmp_path / "latin1.ini"
        bad.write_bytes("[training]\n# caf\u00e9\nsteps = 3\n".encode("latin-1"))
        res = run_cli(["--config", str(bad), "--out", str(tmp_path / "run"), "train"], tmp_path)
        assert res.returncode == 2
        assert "error[config]" in res.stderr and "latin1.ini" in res.stderr and "UTF-8" in res.stderr
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "command,flag",
        [("infer", "--events"), ("infer", "--checkpoint"), ("profile", "--events"), ("profile", "--checkpoint"),
         ("quantize", "--checkpoint"), ("fidelity", "--checkpoint")],
    )
    def test_missing_input_file_exit_code(self, cli_workspace, tmp_path, command, flag):
        # a failed command leaves no output directory behind
        root, cfg_path = cli_workspace
        inputs = {
            "--events": str(root / "gen" / "events.evs"),
            "--checkpoint": str(root / "run" / "checkpoint.evck"),
        }
        if command in ("quantize", "fidelity"):
            del inputs["--events"]
        inputs[flag] = str(tmp_path / "nope")
        args = [arg for pair in inputs.items() for arg in pair]
        res = run_cli(["--config", str(cfg_path), "--out", str(tmp_path / "out"), command, *args], tmp_path)
        assert res.returncode == 3, res.stderr
        assert "error[data]" in res.stderr and "nope" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_truncated_events_leave_no_out_dir(self, cli_workspace, tmp_path):
        root, cfg_path = cli_workspace
        cut = tmp_path / "cut.evs"
        cut.write_bytes((root / "gen" / "events.evs").read_bytes()[:-3])
        res = run_cli(
            ["--config", str(cfg_path), "--out", str(tmp_path / "out"), "infer", "--events", str(cut)], tmp_path
        )
        assert res.returncode == 3
        assert "error[data]" in res.stderr and "cut.evs" in res.stderr
        assert not (tmp_path / "out").exists()

    def test_unknown_config_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[training]\nbogus = 1\n")
        res = run_cli(["--config", str(bad), "train"], tmp_path)
        assert res.returncode == 2
        assert "error[config]" in res.stderr

    def test_zero_timesteps_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[simulation]\nT = 0\nwindow_ms = 0\n")
        res = run_cli(["--config", str(bad), "--out", str(tmp_path / "gen"), "gen"], tmp_path)
        assert res.returncode == 2
        assert "error[config]" in res.stderr and "T must be at least 1" in res.stderr

    @pytest.mark.parametrize(
        "layers",
        # a zero kernel, zero out-channels, and a kernel wider than the
        # padded 40x40 sensor, which leaves an empty output
        ["8c0p0s1, 8c3p1s2", "0c3p1s1, 16c3p1s2", "8c41p0s1, 16c3p1s2"],
    )
    def test_bad_layer_string_config_exit_code(self, tmp_path, layers):
        text = (CONFIG_DIR / "toy.ini").read_text()
        assert "snn_layers = 8c3p1s2, 16c3p1s2\n" in text
        bad = tmp_path / "bad.ini"
        bad.write_text(text.replace("snn_layers = 8c3p1s2, 16c3p1s2\n", f"snn_layers = {layers}\n"))
        res = run_cli(["--config", str(bad), "--out", str(tmp_path / "prof"), "profile"], tmp_path)
        assert res.returncode == 2, res.stderr
        assert "error[config]" in res.stderr
        assert not (tmp_path / "prof").exists()

    @pytest.mark.parametrize(
        "line", ["speed_min = nan", "shape_size_min = 12.0", "scene_duration_ms = 20", "lr = nan"]
    )
    def test_bad_training_key_exit_code(self, tmp_path, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[training]\n{line}\n")
        res = run_cli(["--config", str(bad), "--out", str(tmp_path / "gen"), "gen"], tmp_path)
        assert res.returncode == 2
        assert "error[config]" in res.stderr and line.split()[0] in res.stderr

    @pytest.mark.parametrize("how", ["gen-flag", "quantize-flag", "config"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, how):
        bad = tmp_path / "bad.ini"
        bad.write_text("[training]\nseed = -3\n")
        argv = {
            "gen-flag": ["--seed", "-1", "gen"],
            "quantize-flag": ["--seed", "-1", "quantize", "--checkpoint", str(tmp_path / "none.evck")],
            "config": ["--config", str(bad), "gen"],
        }[how]
        assert cli.main(["--out", str(tmp_path / "out"), *argv]) == 2
        assert "error[config]: seed must be at least 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ablate_naming_no_variant_is_config_error(self, tmp_path, capsys):
        # the names are checked before anything trains or the --out directory is made
        out = tmp_path / "out"
        for variants, message in [(" , ", "ablation needs at least one variant"),
                                  ("bogus", "unknown ablation variant 'bogus'")]:
            assert cli.main(["--out", str(out), "ablate", "--variants", variants]) == 2
            assert f"error[config]: {message}" in capsys.readouterr().err
            assert not out.exists()

    def test_non_finite_checkpoint_weight_leaves_no_out_dir(self, cli_workspace, tmp_path, capsys):
        root, cfg_path = cli_workspace
        meta, arrays = read_bundle(root / "run" / "checkpoint.evck", CHECKPOINT_MAGIC)
        arrays["param.snn1.conv_w"].flat[0] = np.nan
        bad = tmp_path / "nan.evck"
        write_bundle(bad, CHECKPOINT_MAGIC, meta, arrays)
        out = tmp_path / "quant"
        argv = ["--config", str(cfg_path), "--out", str(out), "quantize", "--checkpoint", str(bad), "--bits", "8"]
        assert cli.main(argv) == 5
        assert "error[numeric]" in capsys.readouterr().err
        assert not out.exists()

    def test_profile_checkpoint_without_events_is_config_error(self, cli_workspace, tmp_path, capsys):
        # the analytic profile reads no weights, so a checkpoint alone is never read
        root, _ = cli_workspace
        out = tmp_path / "prof"
        for checkpoint in (root / "run" / "checkpoint.evck", tmp_path / "nope.evck"):
            assert cli.main(["--out", str(out), "profile", "--checkpoint", str(checkpoint)]) == 2
            assert "error[config]: --checkpoint" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("value", ["-5", "0", "10"])
    def test_bad_duration_flag_exit_code(self, tmp_path, value):
        res = run_cli(["--out", str(tmp_path / "gen"), "gen", "--duration-ms", value], tmp_path)
        assert res.returncode == 2
        assert "error[config]" in res.stderr and "--duration-ms" in res.stderr
        assert not (tmp_path / "gen").exists()

    @pytest.mark.parametrize(
        "command,value",
        [("quantize", "0"), ("quantize", "3"), ("fidelity", "8,x"), ("fidelity", ""), ("fidelity", "8,5")],
    )
    def test_bad_bits_flag_exit_code(self, cli_workspace, tmp_path, command, value):
        root, cfg_path = cli_workspace
        res = run_cli(
            ["--config", str(cfg_path), "--out", str(tmp_path / "out"), command,
             "--checkpoint", str(root / "run" / "checkpoint.evck"), "--bits", value],
            tmp_path,
        )
        assert res.returncode == 2
        assert "error[config]" in res.stderr and "--bits" in res.stderr
        assert not (tmp_path / "out").exists()


class TestTrainingBehavior:
    def test_lr_zero_keeps_parameters(self):
        cfg = toy_config(steps=5)
        cfg.training.lr = 0.0
        model_ref = HybridModel(cfg)
        result = run_train_toy(cfg, quiet=True)
        for name, p in result.model.parameters().items():
            np.testing.assert_array_equal(p.data, model_ref.parameters()[name].data)

    def test_same_seed_identical_loss_curves(self):
        cfg = toy_config(steps=6)
        a = run_train_toy(cfg, quiet=True)
        b = run_train_toy(toy_config(steps=6), quiet=True)
        assert a.loss_curve == b.loss_curve

    def test_ablate_checks_every_variant_before_training(self, monkeypatch):
        calls = []
        monkeypatch.setattr(train, "run_train_toy", lambda *a, **k: calls.append(k.get("variant")))
        with pytest.raises(ConfigError, match="bogus"):
            run_ablate(toy_config(steps=2), ("full", "bogus"))
        assert calls == []
