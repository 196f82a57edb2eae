"""Per-shard exact flat index: squared-L2 scan, centroid/count/density stats."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ShardStats:
    """Summary of one shard: mean embedding, item count, packing density."""

    centroid: np.ndarray
    count: int
    density: float


@dataclass(frozen=True)
class ScoredHit:
    shard_id: int
    vector_id: int
    distance: float


@dataclass(frozen=True)
class ShardIndex:
    """Immutable flat index over one shard's vectors."""

    shard_id: int
    ids: np.ndarray        # (n,) int64, unique
    vectors: np.ndarray    # (n, d) float64, C-contiguous
    stats: ShardStats

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def squared_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance from `query` to every row."""
    diff = vectors - query
    return np.einsum("ij,ij->i", diff, diff)


def shard_stats(vectors: np.ndarray) -> ShardStats:
    """Compute centroid, count, and density for a (n, d) member matrix.

    Density is 1/(1 + mean Euclidean distance of members to the centroid):
    bounded in (0, 1], 1 for a singleton, and monotone in how tightly packed
    the shard is.
    """
    centroid = vectors.mean(axis=0)
    mean_dist = float(np.mean(np.sqrt(squared_distances(vectors, centroid))))
    density = 1.0 / (1.0 + mean_dist)
    return ShardStats(centroid, vectors.shape[0], density)


def build_index(shard_id: int, ids: np.ndarray, vectors: np.ndarray) -> ShardIndex:
    """Validate one shard's vectors and build its flat index."""
    vectors = np.ascontiguousarray(np.asarray(vectors, dtype=np.float64))
    ids = np.asarray(ids, dtype=np.int64)
    if vectors.ndim != 2 or vectors.shape[0] == 0:
        raise ValueError(f"shard {shard_id}: need a nonempty (n, d) matrix")
    if ids.shape != (vectors.shape[0],):
        raise ValueError(f"shard {shard_id}: ids/vectors length mismatch")
    if np.unique(ids).size != ids.size:
        raise ValueError(f"shard {shard_id}: duplicate vector ids")
    if not np.all(np.isfinite(vectors)):
        raise ValueError(f"shard {shard_id}: non-finite coordinates")
    vectors.setflags(write=False)
    ids.setflags(write=False)
    return ShardIndex(shard_id, ids, vectors, shard_stats(vectors))


def search_top_k(index: ShardIndex, query: np.ndarray, k: int) -> list[ScoredHit]:
    """Exact top-k by squared L2, ties broken by ascending vector id."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dim,):
        raise ValueError(f"query dim {query.shape} != shard dim ({index.dim},)")
    if k <= 0:
        raise ValueError("k must be positive")
    dists = squared_distances(index.vectors, query)
    n = dists.shape[0]
    if k >= n:
        cand = np.arange(n)
    else:
        # Partition finds k smallest, then widen to every tie at the boundary
        # so the (distance, id) order is honoured even with duplicate points.
        part = np.argpartition(dists, k - 1)[:k]
        cand = np.flatnonzero(dists <= dists[part].max())
    order = np.lexsort((index.ids[cand], dists[cand]))
    top = cand[order[: min(k, n)]]
    sid = index.shard_id
    return [ScoredHit(sid, int(index.ids[i]), float(dists[i])) for i in top]


def shard_distance(query: np.ndarray, stats: ShardStats) -> float:
    """Squared Euclidean distance from a query to a shard centroid."""
    query = np.asarray(query, dtype=np.float64)
    if query.shape != stats.centroid.shape:
        raise ValueError("query/centroid dimension mismatch")
    diff = query - stats.centroid
    return float(diff @ diff)
