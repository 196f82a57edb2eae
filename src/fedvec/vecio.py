"""On-disk vector format and the shard manifest.

Wire format (little-endian, fixed):
    header  magic "FVR1" | u32 dimension | u64 count
    record  u64 vector_id | dimension x f32 coordinates, repeated `count` times

The manifest is JSON: {"dimension": d, "shards": [{"shard_id", "path"}, ...]},
with shard paths resolved relative to the manifest's directory.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"FVR1"
_HEADER = struct.Struct("<4sIQ")


class VectorFileError(ValueError):
    """Malformed or truncated vector file."""


def vector_file_bytes(ids: np.ndarray, vectors: np.ndarray) -> bytes:
    """Serialize (ids, vectors) to the FVR1 record format."""
    ids = np.asarray(ids)
    vectors = np.asarray(vectors)
    if vectors.ndim != 2 or ids.shape != (vectors.shape[0],):
        raise ValueError("need ids (n,) and vectors (n, d)")
    if np.any(ids < 0):
        raise ValueError("vector ids must be non-negative")
    n, d = vectors.shape
    rec = np.zeros(n, dtype=_record_dtype(d))
    rec["id"] = ids
    rec["vec"] = vectors.astype("<f4")
    return _HEADER.pack(MAGIC, d, n) + rec.tobytes()


def read_vectors(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read an FVR1 file; returns (ids int64, vectors float64)."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise VectorFileError(f"{path}: truncated header")
    magic, dim, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise VectorFileError(f"{path}: bad magic {magic!r}")
    if dim == 0:
        raise VectorFileError(f"{path}: zero dimension")
    body = raw[_HEADER.size:]
    dtype = _record_dtype(dim)
    if len(body) != count * dtype.itemsize:
        raise VectorFileError(
            f"{path}: expected {count} records ({count * dtype.itemsize} bytes), "
            f"got {len(body)} bytes"
        )
    rec = np.frombuffer(body, dtype=dtype)
    if count and rec["id"].max() > np.iinfo(np.int64).max:
        raise VectorFileError(f"{path}: vector id {rec['id'].max()} does not fit in int64")
    return rec["id"].astype(np.int64), rec["vec"].astype(np.float64)


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])


def manifest_bytes(dimension: int, shard_paths: dict[int, str]) -> bytes:
    """Serialize the shard manifest; paths must be relative to its directory."""
    doc = {
        "dimension": int(dimension),
        "shards": [
            {"shard_id": sid, "path": shard_paths[sid]} for sid in sorted(shard_paths)
        ],
    }
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def read_manifest(path: str | Path) -> tuple[int, list[tuple[int, Path]]]:
    """Read a manifest; returns (dimension, [(shard_id, resolved_path), ...])."""
    path = Path(path)
    doc = json.loads(path.read_text())
    try:
        dim = int(doc["dimension"])
        entries = [(int(s["shard_id"]), path.parent / s["path"]) for s in doc["shards"]]
    except (KeyError, TypeError) as exc:
        raise VectorFileError(f"{path}: malformed manifest: {exc}") from exc
    if not entries:
        raise VectorFileError(f"{path}: manifest lists no shards")
    if len({sid for sid, _ in entries}) != len(entries):
        raise VectorFileError(f"{path}: duplicate shard ids in manifest")
    return dim, entries
