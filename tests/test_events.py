"""Event parsing, the binned count tensor, and the synthetic DVS scenes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evhybrid.errors import DataFormatError
from evhybrid.events import (
    CSV_HEADER,
    EventStream,
    ShapeSpec,
    SyntheticScene,
    build_event_tensor,
    read_events,
    synthesize_moving_shapes,
    write_events,
)


def stream_from_rows(rows, w=8, h=8):
    if rows:
        t, x, y, p = (np.array(c) for c in zip(*rows))
    else:
        t = x = y = p = np.zeros(0, dtype=np.int64)
    return EventStream(w, h, t, x, y, p)


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
        tensor1 = build_event_tensor(stream, 0, 10**6, 10)
        tensor2 = build_event_tensor(again, 0, 10**6, 10)
        np.testing.assert_array_equal(tensor1.counts, tensor2.counts)

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


class TestEventTensor:
    def test_empty_stream_all_zero(self):
        tensor = build_event_tensor(stream_from_rows([]), 0, 1000, 10)
        assert tensor.counts.shape == (10, 2, 8, 8)
        assert tensor.total == 0

    def test_single_event_placement(self):
        tensor = build_event_tensor(stream_from_rows([(0, 3, 2, 1)]), 0, 50_000, 10)
        assert tensor.counts[0, 1, 2, 3] == 1
        assert tensor.total == 1

    def test_three_events_same_cell(self):
        rows = [(20_000, 5, 5, 0)] * 3  # bin 4 of 10 over 50 ms
        tensor = build_event_tensor(stream_from_rows(rows), 0, 50_000, 10)
        assert tensor.counts[4, 0, 5, 5] == 3

    def test_boundary_event_clamped_into_last_bin(self):
        tensor = build_event_tensor(stream_from_rows([(50_000, 0, 0, 1)]), 0, 50_000, 10)
        assert tensor.counts[9, 1, 0, 0] == 1

    def test_outside_window_ignored(self):
        rows = [(10, 0, 0, 1), (99, 1, 1, 1), (200, 2, 2, 1)]
        tensor = build_event_tensor(stream_from_rows(rows), 20, 100, 4)
        assert tensor.total == 1

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_event_tensor(stream_from_rows([]), 10, 10, 4)
        with pytest.raises(ValueError):
            build_event_tensor(stream_from_rows([]), 0, 10, 0)

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
        tensor = build_event_tensor(stream, 5_000, 55_000, 10)
        oracle = self.brute_force(stream, 5_000, 55_000, 10, 8, 8)
        np.testing.assert_array_equal(tensor.counts, oracle)
        in_window = int(((stream.t >= 5_000) & (stream.t <= 55_000)).sum())
        assert tensor.total == in_window


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
