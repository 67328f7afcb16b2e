"""Deterministic on-disk container for named arrays.

Layout: magic bytes, little-endian u64 length of a UTF-8 JSON manifest, the
manifest, then the raw little-endian array bytes back to back. No timestamps
or compression, so identical contents give identical files (the checkpoint
bit-reproducibility contract).
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .errors import DataFormatError

CHECKPOINT_MAGIC = b"EVCK1\n"


def write_bundle(path, magic: bytes, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        src = np.asarray(arrays[name])
        arr = np.ascontiguousarray(src)  # note: promotes 0-d to 1-d
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        entries.append(
            {
                "name": name,
                "dtype": le.dtype.str,
                "shape": list(src.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
        )
        blobs.append(raw)
        offset += len(raw)
    manifest = json.dumps({"meta": meta, "arrays": entries}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<Q", len(manifest)))
        fh.write(manifest)
        for raw in blobs:
            fh.write(raw)


def read_bundle(path, magic: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    blob = Path(path).read_bytes()
    if not blob.startswith(magic):
        raise DataFormatError(f"{path}: bad magic, expected {magic!r}")
    pos = len(magic) + 8
    if len(blob) < pos:
        raise DataFormatError(f"{path}: truncated header")
    (mlen,) = struct.unpack_from("<Q", blob, len(magic))
    base = pos + mlen
    if len(blob) < base:
        raise DataFormatError(f"{path}: truncated manifest, {len(blob) - pos} of {mlen} bytes")
    try:
        manifest = json.loads(blob[pos:base].decode("utf-8"))
        meta = manifest["meta"]
        entries = [(e["name"], e["dtype"], e["shape"], e["offset"], e["nbytes"]) for e in manifest["arrays"]]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataFormatError(f"{path}: manifest is not UTF-8 JSON: {exc}") from exc
    except (KeyError, TypeError) as exc:
        raise DataFormatError(f"{path}: manifest field missing or mistyped: {exc}") from exc
    if not isinstance(meta, dict):
        raise DataFormatError(f"{path}: manifest meta is not a JSON object")
    arrays = {}
    for name, dtype, shape, offset, nbytes in entries:
        dt = _entry_dtype(path, name, dtype, shape, offset, nbytes)
        start = base + offset
        if start + nbytes > len(blob):
            raise DataFormatError(f"{path}: array {name!r} runs past the end of the file")
        arrays[name] = np.frombuffer(blob[start : start + nbytes], dtype=dt).reshape(shape).copy()
    return meta, arrays


def _entry_dtype(path, name, dtype, shape, offset, nbytes) -> np.dtype:
    """The dtype of a manifest entry, once the entry is known to describe its
    bytes: a scalar dtype readable from raw bytes, offset and dims of at
    least 0, and ``nbytes == prod(shape) * itemsize``."""
    try:
        dt = np.dtype(dtype) if isinstance(dtype, str) else None
    except TypeError:
        dt = None
    if dt is None or dt.hasobject or dt.itemsize == 0 or dt.shape:
        raise DataFormatError(f"{path}: array {name!r} has unreadable dtype {dtype!r}")
    sizes = [offset, nbytes, *shape] if isinstance(shape, list) else None
    if sizes is None or not all(type(v) is int and v >= 0 for v in sizes):
        raise DataFormatError(f"{path}: array {name!r} needs integer offset, nbytes and dims >= 0")
    expected = math.prod(shape) * dt.itemsize
    if nbytes != expected:
        raise DataFormatError(f"{path}: array {name!r} holds {nbytes} bytes, {shape} of {dt.str} needs {expected}")
    return dt
