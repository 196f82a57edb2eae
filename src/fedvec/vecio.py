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
        raise ValueError(f"{path}: truncated header")
    magic, dim, count = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if dim == 0:
        raise ValueError(f"{path}: zero dimension")
    body = raw[_HEADER.size:]
    dtype = _record_dtype(dim)
    if len(body) != count * dtype.itemsize:
        raise ValueError(
            f"{path}: expected {count} records ({count * dtype.itemsize} bytes), "
            f"got {len(body)} bytes"
        )
    rec = np.frombuffer(body, dtype=dtype)
    if count and rec["id"].max() > np.iinfo(np.int64).max:
        raise ValueError(f"{path}: vector id {rec['id'].max()} does not fit in int64")
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
    """Read a manifest; returns (dimension, [(shard_id, resolved_path), ...]).
    The dimension must be a positive JSON integer, each shard_id a JSON
    integer and each path a string."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
        dim = doc["dimension"]
        entries = [(s["shard_id"], s["path"]) for s in doc["shards"]]
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ValueError(f"{path}: malformed manifest: {exc}") from exc
    if type(dim) is not int or dim < 1:
        raise ValueError(f"{path}: dimension must be a positive integer, got {json.dumps(dim)}")
    for sid, rel in entries:
        if type(sid) is not int:
            raise ValueError(f"{path}: shard_id must be an integer, got {json.dumps(sid)}")
        if type(rel) is not str:
            raise ValueError(f"{path}: shard {sid}'s path must be a string, got {json.dumps(rel)}")
    if not entries:
        raise ValueError(f"{path}: manifest lists no shards")
    if len({sid for sid, _ in entries}) != len(entries):
        raise ValueError(f"{path}: duplicate shard ids in manifest")
    return dim, [(sid, path.parent / rel) for sid, rel in entries]
