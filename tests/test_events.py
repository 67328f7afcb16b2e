"""Event parsing, the binned count tensor, and the synthetic DVS scenes."""

import contextlib
import dataclasses
import hashlib
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from evhybrid import cli
from evhybrid.config import load_config
from evhybrid.errors import DataFormatError
from evhybrid.events import (
    CSV_HEADER,
    EVENT_DTYPE,
    EVS_HEADER,
    EVS_MAGIC,
    BadEventError,
    EventStream,
    ShapeSpec,
    SyntheticScene,
    _block_ms,
    bin_events,
    read_events,
    synthesize_moving_shapes,
    write_events,
)
from evhybrid.train import make_dataset

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def stream_from_rows(rows, w=8, h=8):
    if rows:
        t, x, y, p = (np.array(c) for c in zip(*rows))
    else:
        t = x = y = p = np.zeros(0, dtype=np.int64)
    return EventStream(w, h, t, x, y, p)


def window_counts(stream, t_a, t_b, n_bins):
    """``bin_events`` over the events in [t_a, t_b]."""
    return bin_events(stream, (stream.t >= t_a) & (stream.t <= t_b), t_a, t_b, n_bins)


class TestReadWrite:
    def test_empty_csv_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        stream = read_events(path, geometry=(8, 8))
        assert len(stream) == 0

    def test_csv_field_mapping(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(CSV_HEADER + "\n1000,3,2,1\n")
        stream = read_events(path, geometry=(8, 8))
        ev = stream[0]
        assert (ev.t, ev.x, ev.y, ev.p) == (1000, 3, 2, 1)

    def test_coordinate_out_of_geometry_names_record(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0,8,0,1\n")
        with pytest.raises(DataFormatError, match="event 0"):
            read_events(path, geometry=(8, 8))

    def test_malformed_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\n0,1,2,1\nnonsense\n")
        with pytest.raises(DataFormatError, match=":3"):
            read_events(path, geometry=(8, 8))

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,x,y,p\n")
        with pytest.raises(DataFormatError, match="header"):
            read_events(path, geometry=(8, 8))

    def test_unsorted_input_sorted_with_flag(self):
        stream = stream_from_rows([(500, 1, 1, 0), (100, 2, 2, 1)])
        assert stream.sort_applied
        assert list(stream.t) == [100, 500]

    def test_evs_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(0)
        n = 257
        stream = EventStream(
            16, 12,
            np.sort(rng.integers(0, 10**6, n)),
            rng.integers(0, 16, n),
            rng.integers(0, 12, n),
            rng.integers(0, 2, n),
        )
        p1 = tmp_path / "a.evs"
        p2 = tmp_path / "b.evs"
        write_events(stream, p1)
        again = read_events(p1)
        write_events(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(window_counts(stream, 0, 10**6, 10), window_counts(again, 0, 10**6, 10))

    def test_csv_roundtrip(self, tmp_path):
        stream = stream_from_rows([(0, 1, 2, 1), (10, 3, 4, 0)])
        path = tmp_path / "r.csv"
        write_events(stream, path)
        again = read_events(path, geometry=(8, 8))
        np.testing.assert_array_equal(stream.t, again.t)
        np.testing.assert_array_equal(stream.x, again.x)

    def test_evs_truncated_rejected(self, tmp_path):
        stream = stream_from_rows([(0, 1, 2, 1)])
        path = tmp_path / "t.evs"
        write_events(stream, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="bytes"):
            read_events(path)

    def test_evs_bad_magic(self, tmp_path):
        path = tmp_path / "m.evs"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(DataFormatError, match="magic"):
            read_events(path)

    def test_csv_needs_geometry(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(CSV_HEADER + "\n")
        with pytest.raises(DataFormatError, match="explicit"):
            read_events(path)

    def test_csv_non_integer_field(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text(CSV_HEADER + "\n0,1.5,2,1\n")
        with pytest.raises(DataFormatError, match="non-integer"):
            read_events(path, geometry=(8, 8))

    def test_csv_non_ascii_byte_is_data_error(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_bytes((CSV_HEADER + "\n0,1,2,1\n0,1,2,\u00e91\n").encode("utf-8"))
        with pytest.raises(DataFormatError, match=r"u\.csv:3: non-ASCII"):
            read_events(path, geometry=(8, 8))

    def test_csv_field_past_int64_is_data_error(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text(CSV_HEADER + "\n0,1,2,1\n99999999999999999999,1,1,1\n")
        with pytest.raises(DataFormatError, match=r"big\.csv:3: field outside the int64 range"):
            read_events(path, geometry=(8, 8))

    @pytest.mark.parametrize(
        "row,message",
        [
            ("10,4294967299,2,1", r"event 1 at \(4294967299, 2\) outside 8x8 sensor"),
            ("10,2,4294967299,1", r"event 1 at \(2, 4294967299\) outside 8x8 sensor"),
            ("20,1,2,257", "event 1 has polarity 257"),
            ("1_000,1,2,1", "non-integer field"),
        ],
        ids=["x", "y", "p", "underscore"],
    )
    def test_csv_value_narrowing_would_wrap_is_data_error(self, tmp_path, row, message):
        # x and y are held as int32 and p as int8: 2**32 + 3 and 257 used to
        # wrap to 3 and 1 and pass; int() also read 1_000 as 1000
        path = tmp_path / "w.csv"
        path.write_text(CSV_HEADER + "\n0,1,2,1\n\n" + row + "\n")
        with pytest.raises(DataFormatError, match=r"w\.csv:4: " + message):
            read_events(path, geometry=(8, 8))

    def test_evs_timestamp_past_int64_is_data_error(self, tmp_path):
        # the u64 column used to wrap to a negative int64 in the cast
        rec = np.ones(1, dtype=EVENT_DTYPE)
        rec["t"] = 2**63 + 5
        path = tmp_path / "late.evs"
        path.write_bytes(EVS_HEADER.pack(EVS_MAGIC, 8, 8, 1) + rec.tobytes())
        with pytest.raises(DataFormatError, match=r"late\.evs: event 0 has timestamp 9223372036854775813 past"):
            read_events(path)

    def test_evs_shorter_than_header(self, tmp_path):
        path = tmp_path / "h.evs"
        path.write_bytes(b"EVS0" + bytes(6))
        with pytest.raises(DataFormatError, match="truncated header"):
            read_events(path)

    def test_evs_header_geometry_mismatch(self, tmp_path):
        path = tmp_path / "g.evs"
        write_events(stream_from_rows([(0, 1, 2, 1)]), path)
        with pytest.raises(DataFormatError, match="header geometry 8x8"):
            read_events(path, geometry=(16, 8))

    def test_format_follows_suffix(self, tmp_path):
        stream = stream_from_rows([(0, 1, 2, 1)])
        write_events(stream, tmp_path / "a.evs")
        write_events(stream, tmp_path / "a.txt")
        assert (tmp_path / "a.evs").read_bytes().startswith(b"EVS0")
        assert (tmp_path / "a.txt").read_text().startswith(CSV_HEADER)


class TestStreamChecks:
    def test_column_length_mismatch(self):
        with pytest.raises(DataFormatError, match="column y"):
            EventStream(8, 8, t=[0, 1], x=[1, 2], y=[1], p=[0, 1])

    def test_polarity_outside_binary(self):
        with pytest.raises(DataFormatError, match="polarity"):
            stream_from_rows([(0, 1, 1, 2)])

    def test_negative_timestamp(self):
        with pytest.raises(DataFormatError, match="timestamp"):
            stream_from_rows([(-1, 1, 1, 0)])

    def test_uint64_timestamp_past_int64_names_its_value(self):
        t = np.array([3, 2**63 + 5], dtype=np.uint64)
        with pytest.raises(BadEventError, match="event 1 has timestamp 9223372036854775813 past the int64"):
            EventStream(4, 4, t, [1, 1], [1, 1], [1, 1])
        assert EventStream(4, 4, np.array([2**63 - 1], np.uint64), [1], [1], [1]).t[0] == 2**63 - 1


class TestEventTensor:
    def test_empty_stream_all_zero(self):
        counts = window_counts(stream_from_rows([]), 0, 1000, 10)
        assert counts.shape == (10, 2, 8, 8)
        assert counts.sum() == 0

    def test_single_event_placement(self):
        counts = window_counts(stream_from_rows([(0, 3, 2, 1)]), 0, 50_000, 10)
        assert counts[0, 1, 2, 3] == 1
        assert counts.sum() == 1

    def test_three_events_same_cell(self):
        rows = [(20_000, 5, 5, 0)] * 3  # bin 4 of 10 over 50 ms
        counts = window_counts(stream_from_rows(rows), 0, 50_000, 10)
        assert counts[4, 0, 5, 5] == 3

    def test_boundary_event_clamped_into_last_bin(self):
        counts = window_counts(stream_from_rows([(50_000, 0, 0, 1)]), 0, 50_000, 10)
        assert counts[9, 1, 0, 0] == 1

    def test_outside_window_ignored(self):
        rows = [(10, 0, 0, 1), (99, 1, 1, 1), (200, 2, 2, 1)]
        counts = window_counts(stream_from_rows(rows), 20, 100, 4)
        assert counts.sum() == 1

    @pytest.mark.parametrize("n_bins", [7, 10])
    def test_bins_tile_any_window(self, n_bins):
        # a window need not be a multiple of T: with one event per microsecond
        # of a 50 ms window, every event is counted once and the bin widths
        # differ by at most 1 us (the last bin also holds the event at t_b)
        t = np.arange(50_001)
        zeros = np.zeros_like(t)
        per_bin = window_counts(EventStream(1, 1, t, zeros, zeros, zeros), 0, 50_000, n_bins)[:, 0, 0, 0]
        assert per_bin.sum() == t.size
        widths = per_bin - np.eye(n_bins, dtype=np.int64)[-1]
        assert widths.max() - widths.min() <= 1

    @staticmethod
    def brute_force(stream, t_a, t_b, n_bins, w, h):
        counts = np.zeros((n_bins, 2, h, w), dtype=np.int64)
        for ev in stream:
            if not (t_a <= ev.t <= t_b):
                continue
            b = (ev.t - t_a) * n_bins // (t_b - t_a)
            counts[min(b, n_bins - 1), ev.p, ev.y, ev.x] += 1
        return counts

    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(0, 400))
    @settings(max_examples=25, deadline=None)
    def test_matches_per_event_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        stream = EventStream(
            8, 8,
            np.sort(rng.integers(0, 60_000, n)),
            rng.integers(0, 8, n),
            rng.integers(0, 8, n),
            rng.integers(0, 2, n),
        )
        counts = window_counts(stream, 5_000, 55_000, 10)
        oracle = self.brute_force(stream, 5_000, 55_000, 10, 8, 8)
        np.testing.assert_array_equal(counts, oracle)
        in_window = int(((stream.t >= 5_000) & (stream.t <= 55_000)).sum())
        assert counts.sum() == in_window


class TestSyntheticScenes:
    @staticmethod
    def scene(vx=100.0, vy=0.0, seed=0, size=6.0, intensity=1.0, background=0.1):
        shape = ShapeSpec(kind="square", size=size, intensity=intensity, x0=16.0, y0=16.0, vx=vx, vy=vy)
        return SyntheticScene(32, 32, [shape], contrast=0.1, seed=seed, background=background)

    def test_zero_velocity_is_silent(self):
        result = synthesize_moving_shapes(self.scene(vx=0.0, vy=0.0), 100)
        assert len(result.stream) == 0

    def test_leading_edge_positive_trailing_negative(self):
        result = synthesize_moving_shapes(self.scene(vx=120.0), 100)
        stream = result.stream
        assert len(stream) > 0
        # compare against the instantaneous center: ahead of it the square is
        # arriving (positive), behind it the square is departing (negative)
        t_slice = 50_000
        sel = stream.t == t_slice
        assert sel.any()
        cx_now = 16.0 + 120.0 * (t_slice / 1e6)
        right = stream.p[sel & (stream.x > cx_now)]
        left = stream.p[sel & (stream.x < cx_now)]
        assert right.mean() > 0.9
        assert left.mean() < 0.1

    def test_determinism(self, tmp_path):
        a = synthesize_moving_shapes(self.scene(vx=80.0, vy=40.0, seed=3), 150)
        b = synthesize_moving_shapes(self.scene(vx=80.0, vy=40.0, seed=3), 150)
        pa, pb = tmp_path / "a.evs", tmp_path / "b.evs"
        write_events(a.stream, pa)
        write_events(b.stream, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_doubling_speed_roughly_doubles_events(self):
        counts = []
        for speed in (60.0, 120.0):
            total = 0
            for seed in range(4):
                scene = self.scene(vx=speed, vy=0.0, seed=seed)
                total += len(synthesize_moving_shapes(scene, 100).stream)
            counts.append(total)
        ratio = counts[1] / counts[0]
        assert 1.6 <= ratio <= 2.4

    def test_truncation_warning_when_leaving_frame(self):
        scene = self.scene(vx=300.0)
        result = synthesize_moving_shapes(scene, 400)
        assert result.warnings and result.duration_ms < 400

    def test_boxes_every_window(self):
        result = synthesize_moving_shapes(self.scene(vx=50.0), 200, gt_every_ms=50)
        assert [b.window for b in result.boxes] == [0, 1, 2, 3]
        b0 = result.boxes[0]
        assert b0.cx == pytest.approx(16.0 + 50.0 * 0.05)
        assert b0.t_us == 50_000

    def test_unknown_shape_kind_rejected(self):
        shape = ShapeSpec(kind="circle", x0=16.0, y0=16.0)
        with pytest.raises(ValueError, match="kind"):
            synthesize_moving_shapes(SyntheticScene(32, 32, [shape]), 10)

    def test_dark_shape_polarity_flips(self):
        def scene_mid_bg(intensity):
            sh = ShapeSpec(kind="square", size=6.0, intensity=intensity, x0=16.0, y0=16.0, vx=120.0)
            return SyntheticScene(32, 32, [sh], contrast=0.06, seed=0, background=0.5)

        bright = synthesize_moving_shapes(scene_mid_bg(1.0), 100)
        dark = synthesize_moving_shapes(scene_mid_bg(0.06), 100)
        t_slice = 50_000
        cx_now = 16.0 + 120.0 * (t_slice / 1e6)

        def right_polarity(stream):
            sel = (stream.t == t_slice) & (stream.x > cx_now)
            assert sel.any()
            return stream.p[sel].mean()

        assert right_polarity(bright.stream) > 0.9
        assert right_polarity(dark.stream) < 0.1


def dense_oracle(scene, duration_ms, gt_every_ms=50):
    """The emulator as first written: the whole frame rendered and
    thresholded every millisecond, noise drawn after each millisecond's
    shape events. Returns ((t, x, y, p), boxes, warnings, duration_ms)."""
    xs = np.arange(scene.width, dtype=np.float64)
    ys = np.arange(scene.height, dtype=np.float64)

    def center(sh, t_s):
        return sh.x0 + sh.vx * t_s, sh.y0 + sh.vy * t_s

    def render(t_s):
        frame = np.full((scene.height, scene.width), scene.background, dtype=np.float64)
        for sh in scene.shapes:
            cx, cy = center(sh, t_s)
            half = sh.size / 2.0
            ox = np.clip(np.minimum(xs + 1.0, cx + half) - np.maximum(xs, cx - half), 0.0, 1.0)
            oy = np.clip(np.minimum(ys + 1.0, cy + half) - np.maximum(ys, cy - half), 0.0, 1.0)
            cov = oy[:, None] * ox[None, :]
            frame = frame * (1.0 - cov) + sh.intensity * cov
        return np.log(np.maximum(frame, 1e-4))

    def inside(sh, t_s):
        cx, cy = center(sh, t_s)
        half = sh.size / 2.0
        return cx - half >= 0 and cx + half <= scene.width and cy - half >= 0 and cy + half <= scene.height

    eff_ms = duration_ms
    for sh in scene.shapes:
        while eff_ms > 0 and not inside(sh, eff_ms / 1000.0):
            eff_ms -= 1
    warnings = [] if eff_ms == duration_ms else [f"shape leaves frame; truncated {duration_ms} ms -> {eff_ms} ms"]
    rng = np.random.default_rng(scene.seed)
    rows = [np.zeros(0, dtype=np.int64)] * 4
    prev = render(0.0)
    for k in range(1, eff_ms + 1):
        cur = render(k / 1000.0)
        delta = cur - prev
        yy, xx = np.nonzero(np.abs(delta) >= scene.contrast)
        new = [np.full(len(yy), k * 1000), xx, yy, (delta[yy, xx] > 0).astype(np.int64)]
        if scene.noise_rate > 0:
            n = rng.poisson(scene.noise_rate * scene.width * scene.height / 1000.0)
            if n:
                noise = [rng.integers(0, scene.width, n), rng.integers(0, scene.height, n), rng.integers(0, 2, n)]
                new = [np.concatenate([a, b]) for a, b in zip(new, [np.full(n, k * 1000)] + noise)]
        rows = [np.concatenate([a, b]) for a, b in zip(rows, new)]
        prev = cur
    boxes = []
    for i in range(eff_ms // gt_every_ms):
        t_end_ms = (i + 1) * gt_every_ms
        for sh in scene.shapes:
            cx, cy = center(sh, t_end_ms / 1000.0)
            boxes.append((i, t_end_ms * 1000, cx, cy, sh.size, sh.size))
    return rows, boxes, warnings, eff_ms


def assert_matches_oracle(scene, duration_ms, gt_every_ms=50):
    result = synthesize_moving_shapes(scene, duration_ms, gt_every_ms)
    rows, boxes, warnings, eff_ms = dense_oracle(scene, duration_ms, gt_every_ms)
    stream = result.stream
    for name, want in zip("txyp", rows):
        np.testing.assert_array_equal(getattr(stream, name), want, err_msg=name)
    assert not stream.sort_applied
    assert [tuple(dataclasses.astuple(b)) for b in result.boxes] == boxes
    assert result.warnings == warnings
    assert result.duration_ms == eff_ms
    return result


@st.composite
def emulator_scenes(draw):
    width, height = draw(st.integers(3, 48)), draw(st.integers(3, 48))
    shapes = []
    for _ in range(draw(st.integers(1, 4))):
        size = draw(st.floats(0.5, min(width, height)))
        half = size / 2.0
        # starts anywhere inside, often touching a border
        x0 = draw(st.sampled_from([half, width - half]) | st.floats(half, width - half))
        y0 = draw(st.sampled_from([half, height - half]) | st.floats(half, height - half))
        assume(x0 - half >= 0 and x0 + half <= width and y0 - half >= 0 and y0 + half <= height)
        vx, vy = (draw(st.just(0.0) | st.floats(-400.0, 400.0)) for _ in range(2))
        intensity = draw(st.sampled_from([1.0, 0.06]) | st.floats(0.0, 1.0))
        shapes.append(ShapeSpec("square", size, intensity, x0, y0, vx, vy))
    scene = SyntheticScene(
        width,
        height,
        shapes,
        contrast=draw(st.sampled_from([0.06, 0.2]) | st.floats(0.01, 1.0)),
        seed=draw(st.integers(0, 2**16)),
        background=draw(st.sampled_from([0.1, 0.5]) | st.floats(0.0, 1.0)),
        noise_rate=draw(st.sampled_from([0.0, 5.0])),
    )
    return scene, draw(st.just(1) | st.integers(1, 160)), draw(st.integers(1, 60))


class TestEmulatorOracle:
    """The block, region-only renderer against ``dense_oracle``, bit for bit."""

    @given(case=emulator_scenes())
    @settings(max_examples=80, deadline=None)
    def test_matches_dense_renderer(self, case):
        assert_matches_oracle(*case)

    @pytest.mark.parametrize(
        "shapes,noise_rate",
        [
            # the sensor-size scenes: four overlapping squares crossing each other
            (
                [
                    ShapeSpec("square", 20.0, 1.0, 60.0, 80.0, 240.0, 90.0),
                    ShapeSpec("square", 24.0, 0.06, 90.0, 90.0, -180.0, 60.0),
                    ShapeSpec("square", 17.0, 1.0, 75.0, 70.0, 30.0, 230.0),
                    ShapeSpec("square", 22.5, 0.06, 150.0, 200.0, -250.0, -200.0),
                ],
                0.5,
            ),
            # one small fast square: blocks of tens of milliseconds
            ([ShapeSpec("square", 8.0, 1.0, 100.0, 100.0, 250.0, 10.0)], 0.0),
            # a square covering most of the sensor: one millisecond per block
            ([ShapeSpec("square", 110.0, 0.06, 120.0, 140.0, 200.0, -150.0)], 0.0),
        ],
        ids=["four-shapes-noisy", "multi-ms-blocks", "one-ms-blocks"],
    )
    def test_sensor_scene_spanning_many_blocks(self, shapes, noise_rate):
        scene = SyntheticScene(240, 304, shapes, contrast=0.06, seed=5, background=0.5, noise_rate=noise_rate)
        assert _block_ms(scene, 120) < 60
        result = assert_matches_oracle(scene, 120)
        assert len(result.stream) > 1000

    @pytest.mark.parametrize(
        "scene_field,shape_field,value,message",
        [
            ("contrast", None, 0.0, "contrast"),
            ("contrast", None, -0.1, "contrast"),
            ("contrast", None, float("nan"), "contrast"),
            ("background", None, float("inf"), "background"),
            ("noise_rate", None, -1.0, "noise_rate"),
            ("noise_rate", None, float("nan"), "noise_rate"),
            (None, "size", 0.0, "size"),
            (None, "size", float("nan"), "size"),
            (None, "intensity", float("nan"), "intensity"),
        ],
    )
    def test_invalid_scene_field_named(self, scene_field, shape_field, value, message):
        shape = ShapeSpec("square", 6.0, 1.0, 16.0, 16.0, 100.0, 0.0)
        scene = SyntheticScene(32, 32, [shape], contrast=0.1)
        setattr(shape if shape_field else scene, shape_field or scene_field, value)
        with pytest.raises(ValueError, match=message):
            synthesize_moving_shapes(scene, 20)

    def test_gt_every_ms_below_one_rejected(self):
        scene = SyntheticScene(32, 32, [ShapeSpec("square", 6.0, 1.0, 16.0, 16.0)])
        with pytest.raises(ValueError, match="gt_every_ms"):
            synthesize_moving_shapes(scene, 20, gt_every_ms=0)


class TestGoldenOutput:
    """Emulator output pinned to the digests of the per-millisecond
    full-frame renderer, so that drift shows even when every run agrees."""

    def test_gen_events_file(self, tmp_path):
        argv = ["--config", str(CONFIG_DIR / "toy.ini"), "--seed", "0", "--out", str(tmp_path), "gen"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        digest = hashlib.sha256((tmp_path / "events.evs").read_bytes()).hexdigest()
        assert digest == "f101c61691ddfadee0903c63394641c2262e72dce19263abb4a7abdb3d149d7e"

    def test_make_dataset_counts(self):
        samples = make_dataset(load_config(CONFIG_DIR / "toy.ini"), 3, seed=0, stride=4)
        digest = hashlib.sha256()
        for sample in samples:
            digest.update(np.ascontiguousarray(sample.counts).tobytes())
        assert len(samples) == 6
        assert digest.hexdigest() == "de80c7764f5838ae9bd76481d6fe055baa24cdec1212adfe4167fdeb30edd050"
