"""Wire-format round trips and corruption handling."""

import json
import re

import numpy as np
import pytest

from fedvec.vecio import (
    manifest_bytes,
    read_manifest,
    read_vectors,
    vector_file_bytes,
)


def test_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    ids = np.array([3, 1, 2**40], dtype=np.int64)
    vecs = rng.standard_normal((3, 5)).astype(np.float32).astype(np.float64)
    path = tmp_path / "v.fvr"
    path.write_bytes(vector_file_bytes(ids, vecs))
    rids, rvecs = read_vectors(path)
    np.testing.assert_array_equal(rids, ids)
    np.testing.assert_array_equal(rvecs, vecs)  # f32-representable -> lossless
    assert rvecs.dtype == np.float64


def test_serialization_is_deterministic():
    ids = np.arange(4)
    vecs = np.random.default_rng(0).standard_normal((4, 3))
    assert vector_file_bytes(ids, vecs) == vector_file_bytes(ids, vecs)


def test_bad_magic(tmp_path):
    path = tmp_path / "v.fvr"
    path.write_bytes(vector_file_bytes(np.array([1]), np.ones((1, 2))))
    raw = bytearray(path.read_bytes())
    raw[0] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="magic"):
        read_vectors(path)


def test_truncated_body(tmp_path):
    path = tmp_path / "v.fvr"
    path.write_bytes(vector_file_bytes(np.array([1, 2]), np.ones((2, 3))))
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValueError, match="bytes"):
        read_vectors(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "v.fvr"
    path.write_bytes(b"FVR1\x02")
    with pytest.raises(ValueError, match="truncated"):
        read_vectors(path)


def test_shape_validation():
    with pytest.raises(ValueError):
        vector_file_bytes(np.array([1, 2]), np.ones((3, 2)))


def test_manifest_round_trip_and_relative_paths(tmp_path):
    sub = tmp_path / "nested"
    sub.mkdir()
    (sub / "manifest.json").write_bytes(manifest_bytes(8, {2: "a.fvr", 0: "b/c.fvr"}))
    dim, entries = read_manifest(sub / "manifest.json")
    assert dim == 8
    assert entries == [(0, sub / "b/c.fvr"), (2, sub / "a.fvr")]


def test_manifest_duplicate_shard_ids(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        '{"dimension": 4, "shards": [{"shard_id": 1, "path": "a"}, {"shard_id": 1, "path": "b"}]}'
    )
    with pytest.raises(ValueError, match="duplicate"):
        read_manifest(path)


def test_manifest_missing_keys(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"shards": []}')
    with pytest.raises(ValueError, match="malformed"):
        read_manifest(path)


def test_id_above_int64_range(tmp_path):
    path = tmp_path / "v.fvr"
    path.write_bytes(vector_file_bytes(np.array([7, 2**63 + 5], dtype=np.uint64), np.ones((2, 3))))
    with pytest.raises(ValueError, match="does not fit in int64"):
        read_vectors(path)


def test_negative_ids_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        vector_file_bytes(np.array([3, -1]), np.ones((2, 2)))


def test_manifest_without_shards(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text('{"dimension": 4, "shards": []}')
    with pytest.raises(ValueError, match="no shards"):
        read_manifest(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("dimension", 4.9, "dimension must be a positive integer, got 4.9"),
        ("dimension", True, "dimension must be a positive integer, got true"),
        ("dimension", "4", 'dimension must be a positive integer, got "4"'),
        ("dimension", 0, "dimension must be a positive integer, got 0"),
        ("dimension", -3, "dimension must be a positive integer, got -3"),
        ("shard_id", 2.7, "shard_id must be an integer, got 2.7"),
        ("shard_id", True, "shard_id must be an integer, got true"),
        ("shard_id", "1", 'shard_id must be an integer, got "1"'),
        ("path", 5, "path must be a string, got 5"),
        ("path", None, "path must be a string, got null"),
    ],
)
def test_manifest_field_types(tmp_path, field, value, message):
    """dimension and shard_id must be JSON integers (no float, bool or
    string coerced by int()), the dimension positive, and each path a string."""
    shard = {"shard_id": 0, "path": "a"}
    doc = {"dimension": 4, "shards": [shard]}
    (doc if field == "dimension" else shard)[field] = value
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(message)):
        read_manifest(path)
