"""Model assembly, checkpoint round trips, windowed inference, CLI surface."""

import json
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.arrayio import CHECKPOINT_MAGIC, read_bundle, write_bundle
from evhybrid.config import RunConfig, save_config
from evhybrid.errors import ConfigError, DataFormatError
from evhybrid.events import EventStream, write_events
from evhybrid.model import HybridModel, decode_detections, run_infer, stream_windows
from evhybrid.numerics import Tensor
from evhybrid.snn import snn_backbone_forward
from evhybrid import train
from evhybrid.train import make_dataset, run_ablate, run_train_toy


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

    @pytest.mark.parametrize("change", ["padding", "binning"])
    def test_checkpoint_architecture_mismatch_rejected(self, tmp_path, change):
        path = tmp_path / "model.evck"
        HybridModel(toy_config(), seed=1).save_checkpoint(path)
        cfg = toy_config()
        if change == "padding":
            cfg.architecture.snn_layers = ["4c3p0s2", "6c3p1s2"]
        else:
            cfg.simulation.T, cfg.simulation.bin_ms = 5, 10
        with pytest.raises(DataFormatError, match="architecture"):
            HybridModel(cfg.validate(), seed=1).load_checkpoint(path)

    def test_layer_norm_checkpoint_has_no_dense_stats(self, tmp_path):
        cfg = toy_config()
        cfg.architecture.norm = "layer"
        model = HybridModel(cfg.validate(), seed=1)
        model.save_checkpoint(tmp_path / "m.evck")
        _, arrays = read_bundle(tmp_path / "m.evck", CHECKPOINT_MAGIC)
        assert not [k for k in arrays if k.startswith("stat.ann")]
        assert "stat.snn1.bn_mean" in arrays
        other = HybridModel(cfg, seed=2)
        other.load_checkpoint(tmp_path / "m.evck")
        counts = np.random.default_rng(1).poisson(0.2, (10, 2, 24, 24)).astype(np.int64)
        np.testing.assert_array_equal(
            model.forward_window(counts)["detection"].raw.data,
            other.forward_window(counts)["detection"].raw.data,
        )

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

    def test_checkpoint_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.evck"
        model = HybridModel(toy_config(), seed=1)
        model.save_checkpoint(path)
        meta, arrays = read_bundle(path, CHECKPOINT_MAGIC)
        write_bundle(path, CHECKPOINT_MAGIC, {**meta, "format_version": 1}, arrays)
        with pytest.raises(DataFormatError, match="unsupported checkpoint version 1"):
            model.load_checkpoint(path)

    def test_infer_needs_head(self):
        cfg = toy_config()
        cfg.architecture.head = False
        with pytest.raises(ConfigError, match="head"):
            run_infer(HybridModel(cfg, seed=3), EventStream.empty(24, 24))

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
        model = HybridModel(cfg, seed=4)
        ds = make_dataset(cfg, 1, seed=5, stride=model.total_stride)
        windows = list(stream_windows_from(ds, cfg))
        assert len(windows) >= 1

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


def stream_windows_from(ds, cfg):
    return [(s.window, s.counts) for s in ds]


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
        res = run_cli(["--config", str(tmp_path / "nope.ini"), "train"], tmp_path)
        assert res.returncode != 0
        assert "error[" in res.stderr

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
