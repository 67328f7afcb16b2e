"""Event stream ingestion, the binned count tensor, and synthetic scenes.

Two on-disk formats are supported, chosen by the file suffix (``.evs`` for
EVS binary, CSV otherwise):

* CSV: header line ``t_us,x,y,p``, one event per line, decimal integers
  (optionally signed digit strings).
* EVS binary: magic ``EVS0``, little-endian u32 width, u32 height, u64 event
  count, then per event u64 t_us, u16 x, u16 y, u8 p, u8 reserved (must be 0
  on write, ignored on read).

``bin_events`` bins the events of a window [t_a, t_b] into ``n_bins`` equal
time slices, one channel per polarity: shape [T, 2, H, W]. An event exactly
at t_b is clamped into the last bin. Which events a window holds is
``model.bin_window``'s rule.

``synthesize_moving_shapes`` is a DVS emulator for labeled scenes of moving
squares. It thresholds log-intensity changes at 1 ms resolution, rendering a
block of milliseconds at a time and only where a shape is, so its cost
follows the moving edges rather than the sensor area.
"""

from __future__ import annotations

import io
import re
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .arrayio import read_file
from .errors import DataFormatError

EVS_MAGIC = b"EVS0"
EVS_HEADER = struct.Struct("<4sIIQ")
EVENT_DTYPE = np.dtype([("t", "<u8"), ("x", "<u2"), ("y", "<u2"), ("p", "u1"), ("r", "u1")])
CSV_HEADER = "t_us,x,y,p"
_CSV_FIELD = re.compile(r"[+-]?[0-9]+")
_INT64 = np.iinfo(np.int64)


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
        cols = [np.asarray(c) for c in (self.t, self.x, self.y, self.p)]
        for name, col in zip(("timestamp", "x", "y", "polarity"), cols):
            # a uint64 value past the int64 range would wrap in the cast
            if col.dtype == np.uint64 and len(col) and col.max() > _INT64.max:
                i = int(np.argmax(col > _INT64.max))
                raise BadEventError(i, f"has {name} {col[i]} past the int64 range")
        cols = [c.astype(np.int64, copy=False) for c in cols]
        n = len(cols[0])
        for name, col in zip("xyp", cols[1:]):
            if len(col) != n:
                raise DataFormatError(f"column {name} has {len(col)} entries, t has {n}")
        self.t, self.x, self.y, self.p = cols
        # validated at int64, before narrowing could wrap a value into range
        self._validate()
        self.x, self.y, self.p = self.x.astype(np.int32), self.y.astype(np.int32), self.p.astype(np.int8)
        if n > 1 and np.any(np.diff(self.t) < 0):
            order = np.argsort(self.t, kind="stable")
            self.t, self.x, self.y, self.p = self.t[order], self.x[order], self.y[order], self.p[order]
            self.sort_applied = True

    def _validate(self):
        rules = (
            (
                (self.x < 0) | (self.x >= self.width) | (self.y < 0) | (self.y >= self.height),
                lambda i: f"at ({self.x[i]}, {self.y[i]}) outside {self.width}x{self.height} sensor",
            ),
            ((self.p != 0) & (self.p != 1), lambda i: f"has polarity {self.p[i]}, expected 0 or 1"),
            (self.t < 0, lambda i: f"has negative timestamp {self.t[i]}"),
        )
        for bad, message in rules:
            if bad.any():
                i = int(np.argmax(bad))
                raise BadEventError(i, message(i))

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


class BadEventError(DataFormatError):
    """An event outside the sensor, the polarities or the time axis;
    ``index`` is its position in the columns as given."""

    def __init__(self, index: int, message: str):
        super().__init__(f"event {index} {message}")
        self.index = index


def read_events(source, geometry: tuple[int, int] | None = None) -> EventStream:
    """Parse an EVS-binary (``.evs``) or CSV event file into a sorted stream.

    ``geometry`` = (width, height) is required for CSV (the format carries
    none); for EVS it is validated against the file header when given.
    """
    path = Path(source)
    if path.suffix == ".evs":
        return _read_evs(path, read_file(path), geometry)
    if geometry is None:
        raise DataFormatError("CSV streams need an explicit (width, height) geometry")
    return _read_csv(path, read_file(path), geometry)


def _read_csv(path: Path, blob: bytes, geometry: tuple[int, int]) -> EventStream:
    width, height = geometry
    lines = blob.splitlines()

    def text(lineno: int) -> str:
        try:
            return lines[lineno - 1].decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}:{lineno}: non-ASCII byte at column {exc.start + 1}") from None

    header = text(1) if lines else ""
    if header != CSV_HEADER:
        raise DataFormatError(f"{path}: expected header {CSV_HEADER!r}, got {header!r}")
    cols: list[list[int]] = [[], [], [], []]
    linenos: list[int] = []
    for lineno in range(2, len(lines) + 1):
        line = text(lineno)
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        if not all(_CSV_FIELD.fullmatch(v) for v in parts):
            raise DataFormatError(f"{path}:{lineno}: non-integer field in {line!r}")
        vals = [int(v) for v in parts]
        if min(vals) < _INT64.min or max(vals) > _INT64.max:
            raise DataFormatError(f"{path}:{lineno}: field outside the int64 range in {line!r}")
        for c, v in zip(cols, vals):
            c.append(v)
        linenos.append(lineno)
    try:
        return EventStream(width, height, *cols)
    except BadEventError as exc:
        raise DataFormatError(f"{path}:{linenos[exc.index]}: {exc}") from None


def _read_evs(path: Path, blob: bytes, geometry: tuple[int, int] | None) -> EventStream:
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
    try:
        return EventStream(width, height, rec["t"], rec["x"], rec["y"], rec["p"])
    except BadEventError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


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


def bin_events(stream: EventStream, index, t_a: int, t_b: int, n_bins: int) -> np.ndarray:
    """[T, 2, H, W] counts of the events ``stream.*[index]``, which must lie
    in [t_a, t_b]: bin floor((t - t_a) / (t_b - t_a) * T) in exact integer
    arithmetic, an event at t_b in bin T-1."""
    shape = (n_bins, 2, stream.height, stream.width)
    t, x, y, p = stream.t[index], stream.x[index], stream.y[index], stream.p[index]
    bins = (t - t_a) * n_bins // (t_b - t_a)
    np.minimum(bins, n_bins - 1, out=bins)
    flat = ((bins * 2 + p) * stream.height + y) * stream.width + x
    return np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)


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


# frames x region pixels per block: 32 KiB per float64 temporary. Larger
# blocks leave more freed heap, from which later count tensors are carved
# and cleared in full: 8192 cells raised toy-train's peak RSS by 1-3 MB
_BLOCK_CELLS = 4096


def _coverages(scene: SyntheticScene, ms: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per shape, the [K, W] and [K, H] fractions of each pixel column and
    row the square covers at each millisecond of ``ms``."""
    t_s = (ms / 1000.0)[:, None]
    xs = np.arange(scene.width, dtype=np.float64)
    ys = np.arange(scene.height, dtype=np.float64)
    cover = []
    for sh in scene.shapes:
        half = sh.size / 2.0
        cx = sh.x0 + sh.vx * t_s
        cy = sh.y0 + sh.vy * t_s
        ox = np.clip(np.minimum(xs + 1.0, cx + half) - np.maximum(xs, cx - half), 0.0, 1.0)
        oy = np.clip(np.minimum(ys + 1.0, cy + half) - np.maximum(ys, cy - half), 0.0, 1.0)
        cover.append((ox, oy))
    return cover


def _log_frames(scene: SyntheticScene, cover, region: np.ndarray) -> np.ndarray:
    """[K, P] log intensity of the flat pixels ``region`` at the K
    milliseconds of ``cover``, shapes composited in order over the
    background."""
    py, px = np.divmod(region, scene.width)
    frame = np.full((len(cover[0][0]), len(region)), scene.background, dtype=np.float64)
    for sh, (ox, oy) in zip(scene.shapes, cover):
        cov = oy[:, py] * ox[:, px]
        frame = frame * (1.0 - cov) + sh.intensity * cov
    return np.log(np.maximum(frame, 1e-4))


def _support(scene: SyntheticScene, cover) -> np.ndarray:
    """Sorted flat indices of the pixels some shape covers at some
    millisecond of ``cover``; everywhere else every frame is background."""
    mask = np.zeros((scene.height, scene.width), dtype=bool)
    for ox, oy in cover:
        mask[np.ix_((oy > 0).any(axis=0), (ox > 0).any(axis=0))] = True
    return np.flatnonzero(mask)


def _block_ms(scene: SyntheticScene, eff_ms: int) -> int:
    """Milliseconds per block: the most whose frames (the block's and the
    one before it) x region pixels stay within ``_BLOCK_CELLS``, at least 1."""
    ks = np.arange(1, eff_ms + 1)
    area = np.zeros(eff_ms)
    for sh in scene.shapes:
        # a square of side s touches at most s + 2 pixels per axis, plus
        # what it travels in the block
        w = np.minimum(scene.width, sh.size + 2 + abs(sh.vx) * ks / 1000.0)
        h = np.minimum(scene.height, sh.size + 2 + abs(sh.vy) * ks / 1000.0)
        area += w * h
    cells = (ks + 1) * np.minimum(area, scene.width * scene.height)
    return max(1, int(np.count_nonzero(cells <= _BLOCK_CELLS)))


def _validate_scene(scene: SyntheticScene, duration_ms: int, gt_every_ms: int) -> None:
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    if gt_every_ms < 1:
        raise ValueError(f"gt_every_ms must be at least 1, got {gt_every_ms}")
    if not (np.isfinite(scene.contrast) and scene.contrast > 0):
        raise ValueError(f"contrast must be finite and above 0, got {scene.contrast}")
    if not np.isfinite(scene.background):
        raise ValueError(f"background must be finite, got {scene.background}")
    if not (np.isfinite(scene.noise_rate) and scene.noise_rate >= 0):
        raise ValueError(f"noise_rate must be finite and at least 0, got {scene.noise_rate}")
    for sh in scene.shapes:
        if sh.kind != "square":
            raise ValueError(f"shape kind must be 'square', got {sh.kind!r}")
        if not (np.isfinite(sh.size) and sh.size > 0):
            raise ValueError(f"shape size must be finite and above 0, got {sh.size}")
        if not np.isfinite(sh.intensity):
            raise ValueError(f"shape intensity must be finite, got {sh.intensity}")
        if not (np.isfinite(sh.vx) and np.isfinite(sh.vy)):
            raise ValueError("shape velocity must be finite")


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

    The scene is sampled at 1 ms resolution; wherever the log-intensity
    change between consecutive frames reaches the contrast threshold, one
    event is emitted with polarity = sign of the change, in (millisecond,
    row-major) order, followed by that millisecond's noise events.
    Deterministic for a given scene seed. If a shape would leave the frame
    the sequence is truncated at the last fully-inside millisecond and a
    warning is recorded.

    Frames are rendered a block of milliseconds at a time and only at the
    pixels some shape covers in the block or the millisecond before it:
    every other pixel stays exactly background, so its change is 0 and it
    cannot fire. The events are bit for bit those of rendering every
    millisecond's full frame.
    """
    _validate_scene(scene, duration_ms, gt_every_ms)
    warnings: list[str] = []
    eff_ms = duration_ms
    for sh in scene.shapes:
        if not _shape_inside(scene, sh, 0.0):
            raise ValueError("shape starts outside the sensor")
        while eff_ms > 0 and not _shape_inside(scene, sh, eff_ms / 1000.0):
            eff_ms -= 1
    if eff_ms != duration_ms:
        warnings.append(f"shape leaves frame; truncated {duration_ms} ms -> {eff_ms} ms")

    width = scene.width
    cols: list[list[np.ndarray]] = [[], [], [], []]
    block = _block_ms(scene, eff_ms)
    for k0 in range(1, eff_ms + 1, block):
        ms = np.arange(k0 - 1, min(k0 + block, eff_ms + 1))
        cover = _coverages(scene, ms)
        region = _support(scene, cover)
        if not region.size:
            continue
        # row 0 is the millisecond before the block, rendered again
        delta = np.diff(_log_frames(scene, cover, region), axis=0)
        kk, pp = np.nonzero(np.abs(delta) >= scene.contrast)
        yy, xx = np.divmod(region[pp], width)
        for c, v in zip(cols, (ms[1 + kk] * 1000, xx, yy, delta[kk, pp] > 0)):
            c.append(v)
    if scene.noise_rate > 0:
        rng = np.random.default_rng(scene.seed)
        lam = scene.noise_rate * width * scene.height / 1000.0
        for k in range(1, eff_ms + 1):
            n_noise = rng.poisson(lam)
            if n_noise:
                cols[0].append(np.full(n_noise, k * 1000, dtype=np.int64))
                cols[1].append(rng.integers(0, width, n_noise))
                cols[2].append(rng.integers(0, scene.height, n_noise))
                cols[3].append(rng.integers(0, 2, n_noise))
    if cols[0]:
        t, x, y, p = (np.concatenate(c) for c in cols)
        if scene.noise_rate > 0:
            # shape events, then noise, each in time order: a stable sort
            # puts each millisecond's noise after its shape events
            order = np.argsort(t, kind="stable")
            t, x, y, p = t[order], x[order], y[order], p[order]
        stream = EventStream(width, scene.height, t, x, y, p)
    else:
        stream = EventStream.empty(width, scene.height)

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
