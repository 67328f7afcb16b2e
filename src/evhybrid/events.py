"""Event stream ingestion, the binned count tensor, and synthetic scenes.

Two on-disk formats are supported, chosen by the file suffix (``.evs`` for
EVS binary, CSV otherwise):

* CSV: header line ``t_us,x,y,p``, one event per line, decimal integers.
* EVS binary: magic ``EVS0``, little-endian u32 width, u32 height, u64 event
  count, then per event u64 t_us, u16 x, u16 y, u8 p, u8 reserved (must be 0
  on write, ignored on read).

The count tensor bins events into ``n_bins`` equal time slices of a window
[t_a, t_b), one channel per polarity: shape [T, 2, H, W]. An event exactly at
t_b is clamped into the last bin so every in-window event is counted.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import DataFormatError

EVS_MAGIC = b"EVS0"
EVS_HEADER = struct.Struct("<4sIIQ")
EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("r", "u1")])
CSV_HEADER = "t_us,x,y,p"


class Event(NamedTuple):
    x: int
    y: int
    t: int
    p: int


@dataclass
class EventStream:
    """Time-ordered events plus sensor geometry.

    Stored column-wise; ``sort_applied`` flags that the input needed sorting.
    """

    width: int
    height: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    sort_applied: bool = False

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=np.int64)
        self.x = np.asarray(self.x, dtype=np.int32)
        self.y = np.asarray(self.y, dtype=np.int32)
        self.p = np.asarray(self.p, dtype=np.int8)
        n = len(self.t)
        for name, col in (("x", self.x), ("y", self.y), ("p", self.p)):
            if len(col) != n:
                raise DataFormatError(f"column {name} has {len(col)} entries, t has {n}")
        self._validate()
        if n > 1 and np.any(np.diff(self.t) < 0):
            order = np.argsort(self.t, kind="stable")
            self.t, self.x, self.y, self.p = self.t[order], self.x[order], self.y[order], self.p[order]
            self.sort_applied = True

    def _validate(self):
        bad = np.flatnonzero(
            (self.x < 0) | (self.x >= self.width) | (self.y < 0) | (self.y >= self.height)
        )
        if bad.size:
            i = int(bad[0])
            raise DataFormatError(
                f"event {i} at ({int(self.x[i])}, {int(self.y[i])}) outside "
                f"{self.width}x{self.height} sensor"
            )
        bad_p = np.flatnonzero((self.p != 0) & (self.p != 1))
        if bad_p.size:
            i = int(bad_p[0])
            raise DataFormatError(f"event {i} has polarity {int(self.p[i])}, expected 0 or 1")
        if np.any(self.t < 0):
            raise DataFormatError("negative timestamp")

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> Event:
        return Event(int(self.x[i]), int(self.y[i]), int(self.t[i]), int(self.p[i]))

    def __iter__(self) -> Iterator[Event]:
        return (self[i] for i in range(len(self)))

    @classmethod
    def empty(cls, width: int, height: int) -> "EventStream":
        z = np.zeros(0, dtype=np.int64)
        return cls(width, height, z, z, z, z)


@dataclass
class EventTensor:
    """Non-negative integer counts of shape [T, 2, H, W] over [t_a, t_b]."""

    counts: np.ndarray
    t_a: int
    t_b: int
    n_bins: int

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def read_events(source, geometry: tuple[int, int] | None = None) -> EventStream:
    """Parse an EVS-binary (``.evs``) or CSV event file into a sorted stream.

    ``geometry`` = (width, height) is required for CSV (the format carries
    none); for EVS it is validated against the file header when given.
    """
    path = Path(source)
    if path.suffix == ".evs":
        return _read_evs(path, geometry)
    if geometry is None:
        raise DataFormatError("CSV streams need an explicit (width, height) geometry")
    return _read_csv(path, geometry)


def _read_csv(path: Path, geometry: tuple[int, int]) -> EventStream:
    width, height = geometry
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise DataFormatError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
        cols: list[list[int]] = [[], [], [], []]
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
            try:
                vals = [int(v) for v in parts]
            except ValueError:
                raise DataFormatError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            for c, v in zip(cols, vals):
                c.append(v)
    t, x, y, p = (np.asarray(c, dtype=np.int64) for c in cols)
    return EventStream(width, height, t, x, y, p)


def _read_evs(path: Path, geometry: tuple[int, int] | None) -> EventStream:
    blob = path.read_bytes()
    if len(blob) < EVS_HEADER.size:
        raise DataFormatError(f"{path}: truncated header at byte {len(blob)}")
    magic, width, height, count = EVS_HEADER.unpack_from(blob, 0)
    if magic != EVS_MAGIC:
        raise DataFormatError(f"{path}: bad magic {magic!r} at byte 0")
    if geometry is not None and geometry != (width, height):
        raise DataFormatError(
            f"{path}: header geometry {width}x{height} != declared {geometry[0]}x{geometry[1]}"
        )
    expect = EVS_HEADER.size + count * EVENT_DTYPE.itemsize
    if len(blob) != expect:
        raise DataFormatError(f"{path}: expected {expect} bytes, found {len(blob)}")
    rec = np.frombuffer(blob, dtype=EVENT_DTYPE, count=count, offset=EVS_HEADER.size)
    # reserved byte is ignored on read by contract
    return EventStream(
        width,
        height,
        rec["t"].astype(np.int64),
        rec["x"].astype(np.int64),
        rec["y"].astype(np.int64),
        rec["p"].astype(np.int64),
    )


def write_events(stream: EventStream, dest) -> None:
    """Write EVS binary to a ``.evs`` path, CSV to any other."""
    path = Path(dest)
    if path.suffix == ".evs":
        rec = np.zeros(len(stream), dtype=EVENT_DTYPE)
        rec["t"], rec["x"], rec["y"], rec["p"] = stream.t, stream.x, stream.y, stream.p
        path.write_bytes(EVS_HEADER.pack(EVS_MAGIC, stream.width, stream.height, len(stream)) + rec.tobytes())
    else:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for i in range(len(stream)):
            buf.write(f"{stream.t[i]},{stream.x[i]},{stream.y[i]},{stream.p[i]}\n")
        path.write_text(buf.getvalue(), encoding="ascii")


def build_event_tensor(stream: EventStream, t_a: int, t_b: int, n_bins: int) -> EventTensor:
    """Bin the window [t_a, t_b] of a stream into [T, 2, H, W] counts.

    Bin index is floor((t - t_a) / (t_b - t_a) * T) computed in exact integer
    arithmetic; events at exactly t_b land in bin T-1, events outside the
    window are ignored.
    """
    if t_b <= t_a:
        raise ValueError(f"window end {t_b} must exceed start {t_a}")
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    inside = (stream.t >= t_a) & (stream.t <= t_b)
    return EventTensor(bin_events(stream, inside, t_a, t_b, n_bins), t_a, t_b, n_bins)


def bin_events(stream: EventStream, index, t_a: int, t_b: int, n_bins: int) -> np.ndarray:
    """[T, 2, H, W] counts of the events ``stream.*[index]``, which must lie
    in [t_a, t_b]: bin floor((t - t_a) / (t_b - t_a) * T) in exact integer
    arithmetic, an event at t_b in bin T-1."""
    counts = np.zeros((n_bins, 2, stream.height, stream.width), dtype=np.int64)
    t, x, y, p = stream.t[index], stream.x[index], stream.y[index], stream.p[index]
    bins = (t - t_a) * n_bins // (t_b - t_a)
    np.minimum(bins, n_bins - 1, out=bins)
    np.add.at(counts, (bins, p, y, x), 1)
    return counts


# ---------------------------------------------------------------------------
# synthetic moving-shape scenes


@dataclass
class ShapeSpec:
    """One moving shape: kind 'square' (the only kind rendered), side in
    pixels, intensity in (0, 1], start center (x0, y0), velocity in px/s."""

    kind: str = "square"
    size: float = 8.0
    intensity: float = 1.0
    x0: float = 8.0
    y0: float = 8.0
    vx: float = 100.0
    vy: float = 0.0


@dataclass
class SyntheticScene:
    width: int
    height: int
    shapes: list[ShapeSpec] = field(default_factory=list)
    contrast: float = 0.2
    seed: int = 0
    background: float = 0.1
    noise_rate: float = 0.0  # spurious events / pixel / second


@dataclass
class GroundTruthBox:
    window: int
    t_us: int
    cx: float
    cy: float
    w: float
    h: float


@dataclass
class SyntheticResult:
    stream: EventStream
    boxes: list[GroundTruthBox]
    warnings: list[str]
    duration_ms: int


def _square_coverage(xs: np.ndarray, ys: np.ndarray, cx: float, cy: float, size: float) -> np.ndarray:
    half = size / 2.0
    ox = np.clip(np.minimum(xs + 1.0, cx + half) - np.maximum(xs, cx - half), 0.0, 1.0)
    oy = np.clip(np.minimum(ys + 1.0, cy + half) - np.maximum(ys, cy - half), 0.0, 1.0)
    return oy[:, None] * ox[None, :]


def _render_frame(scene: SyntheticScene, t_s: float) -> np.ndarray:
    frame = np.full((scene.height, scene.width), scene.background, dtype=np.float64)
    xs = np.arange(scene.width, dtype=np.float64)
    ys = np.arange(scene.height, dtype=np.float64)
    for sh in scene.shapes:
        cx = sh.x0 + sh.vx * t_s
        cy = sh.y0 + sh.vy * t_s
        cov = _square_coverage(xs, ys, cx, cy, sh.size)
        frame = frame * (1.0 - cov) + sh.intensity * cov
    return frame


def _shape_inside(scene: SyntheticScene, sh: ShapeSpec, t_s: float) -> bool:
    half = sh.size / 2.0
    cx = sh.x0 + sh.vx * t_s
    cy = sh.y0 + sh.vy * t_s
    return (
        cx - half >= 0 and cx + half <= scene.width and cy - half >= 0 and cy + half <= scene.height
    )


def synthesize_moving_shapes(
    scene: SyntheticScene, duration_ms: int, gt_every_ms: int = 50
) -> SyntheticResult:
    """Emulate a DVS watching ideal moving shapes.

    The scene is rendered at 1 ms resolution; wherever the log-intensity
    change between consecutive frames exceeds the contrast threshold, one
    event is emitted with polarity = sign of the change. Deterministic for a
    given scene seed. If a shape would leave the frame the sequence is
    truncated at the last fully-inside millisecond and a warning is recorded.
    """
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    for sh in scene.shapes:
        if sh.kind != "square":
            raise ValueError(f"shape kind must be 'square', got {sh.kind!r}")
        if not (np.isfinite(sh.vx) and np.isfinite(sh.vy)):
            raise ValueError("shape velocity must be finite")
    warnings: list[str] = []
    eff_ms = duration_ms
    for sh in scene.shapes:
        if not _shape_inside(scene, sh, 0.0):
            raise ValueError("shape starts outside the sensor")
        while eff_ms > 0 and not _shape_inside(scene, sh, eff_ms / 1000.0):
            eff_ms -= 1
    if eff_ms != duration_ms:
        warnings.append(f"shape leaves frame; truncated {duration_ms} ms -> {eff_ms} ms")

    rng = np.random.default_rng(scene.seed)
    floor = 1e-4
    prev = np.log(np.maximum(_render_frame(scene, 0.0), floor))
    ts, xs_, ys_, ps_ = [], [], [], []
    for k in range(1, eff_ms + 1):
        cur = np.log(np.maximum(_render_frame(scene, k / 1000.0), floor))
        delta = cur - prev
        fired = np.abs(delta) >= scene.contrast
        if fired.any():
            yy, xx = np.nonzero(fired)
            ts.append(np.full(len(yy), k * 1000, dtype=np.int64))
            xs_.append(xx.astype(np.int64))
            ys_.append(yy.astype(np.int64))
            ps_.append((delta[yy, xx] > 0).astype(np.int64))
        if scene.noise_rate > 0:
            lam = scene.noise_rate * scene.width * scene.height / 1000.0
            n_noise = rng.poisson(lam)
            if n_noise:
                ts.append(np.full(n_noise, k * 1000, dtype=np.int64))
                xs_.append(rng.integers(0, scene.width, n_noise))
                ys_.append(rng.integers(0, scene.height, n_noise))
                ps_.append(rng.integers(0, 2, n_noise))
        prev = cur
    if ts:
        stream = EventStream(
            scene.width,
            scene.height,
            np.concatenate(ts),
            np.concatenate(xs_),
            np.concatenate(ys_),
            np.concatenate(ps_),
        )
    else:
        stream = EventStream.empty(scene.width, scene.height)

    boxes: list[GroundTruthBox] = []
    for i in range(eff_ms // gt_every_ms):
        t_end_ms = (i + 1) * gt_every_ms
        for sh in scene.shapes:
            t_s = t_end_ms / 1000.0
            boxes.append(
                GroundTruthBox(
                    window=i,
                    t_us=t_end_ms * 1000,
                    cx=sh.x0 + sh.vx * t_s,
                    cy=sh.y0 + sh.vy * t_s,
                    w=sh.size,
                    h=sh.size,
                )
            )
    return SyntheticResult(stream, boxes, warnings, eff_ms)
