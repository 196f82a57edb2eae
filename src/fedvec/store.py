"""Per-shard exact flat index: squared-L2 scan, centroid/count/density stats."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

EPS = np.finfo(np.float64).eps
# Screen elements per query block of `search_batch`: a block is
# max(1, SCREEN_BUDGET // n) queries, so its (queries, n) float64 screen
# stays near 1 MiB whatever the query count.
SCREEN_BUDGET = 1 << 17


@dataclass(frozen=True)
class ShardStats:
    """Summary of one shard: mean embedding, item count, packing density."""

    centroid: np.ndarray
    count: int
    density: float


class ScoredHit(NamedTuple):
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
    sq_norms: np.ndarray   # (n,) squared row norms, for the screen
    max_sq_norm: float     # sq_norms.max(), for the screen's error bound

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def squared_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Exact squared Euclidean distance from `query` to every row (or from
    each row of `query` to the matching row of `vectors`)."""
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
    # Read-only like the index's arrays: a ShardTable reads it once.
    centroid.setflags(write=False)
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
    sq_norms = np.einsum("ij,ij->i", vectors, vectors)
    for array in (vectors, ids, sq_norms):
        array.setflags(write=False)
    return ShardIndex(
        shard_id, ids, vectors, shard_stats(vectors), sq_norms, float(sq_norms.max())
    )


def _screen_margin(index: ShardIndex, qn: float | np.ndarray) -> float | np.ndarray:
    """How far above a query's top-th screen value a row may screen and still
    be among its exact top-k, for squared query norm(s) `qn`.

    The screen s = |x|^2 - 2 x.q is the distance less |q|^2, a shift that a
    query's rows share. Scaling q by -2 is exact. The dot product of d terms
    errs by at most ~d u |x||q| (u = eps/2), |x|^2 by d u |x|^2 and the
    addition by u of its operands, so s is within (2d + 2) u (|x|^2 + |q|^2)
    of the shifted real distance. The diff-based float distance e is within
    (d + 3) u |x - q|^2 <= (2d + 6) u (|x|^2 + |q|^2) of the real one. Hence
    |s - (e - |q|^2)| <= err = 4 (d + 4) eps (max |x|^2 + |q|^2), with room
    for second-order terms. The `top` smallest screens all have
    e - |q|^2 <= kth + err, so every row whose e is at most the exact top-th
    distance, ties included, screens at most kth + 2 err, the margin
    returned. With top == n the kth value is a row's largest screen, so
    every row stays.
    """
    return 8.0 * (index.dim + 4) * EPS * (index.max_sq_norm + qn)


def _select(
    index: ShardIndex, screen: np.ndarray, query: np.ndarray, margin: float, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """The exact top-`top` of one query from its (n,) `screen` row: positions
    in the index and `squared_distances` values, ordered by (distance,
    vector id). Every row that screens within `margin` of the top-th screen
    value is re-scored from coordinate differences, so the result equals a
    full `squared_distances` scan bit for bit (see _screen_margin)."""
    kth = np.partition(screen, top - 1)[top - 1]
    # Written as "not above" so a NaN screen (overflow) keeps its row.
    rows = (~(screen > kth + margin)).nonzero()[0]
    dists = squared_distances(index.vectors[rows], query)
    pick = np.lexsort((index.ids[rows], dists))[:top]
    return rows[pick], dists[pick]


def search_batch(index: ShardIndex, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k of one shard for each row of a (Q, d) query matrix.

    Returns (rows, distances), both (Q, min(k, n)): positions in the index
    and `squared_distances` values, each query's hits ordered by (distance,
    vector id). A GEMM over a block of max(1, SCREEN_BUDGET // n) queries
    screens them, into one screen buffer reused across blocks, and
    `_select` takes each query's exact top-k from its screen row.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != index.dim:
        raise ValueError(f"query dim {queries.shape[1:]} != shard dim ({index.dim},)")
    if k <= 0:
        raise ValueError("k must be positive")
    qn = np.einsum("ij,ij->i", queries, queries)
    if not np.isfinite(qn).all():
        raise ValueError("non-finite query norm")
    n_q, n = queries.shape[0], index.vectors.shape[0]
    top = min(k, n)
    margins = _screen_margin(index, qn)
    scaled = -2.0 * queries
    block = max(1, SCREEN_BUDGET // n)
    screen_buf = np.empty((min(block, n_q), n))
    out_rows = np.empty((n_q, top), dtype=np.intp)
    out_dists = np.empty((n_q, top))
    for lo in range(0, n_q, block):
        hi = min(lo + block, n_q)
        screen = screen_buf[: hi - lo]
        np.matmul(scaled[lo:hi], index.vectors.T, out=screen)
        screen += index.sq_norms
        for i, row in enumerate(screen, lo):
            out_rows[i], out_dists[i] = _select(index, row, queries[i], margins[i], top)
    return out_rows, out_dists


def search_top_k(index: ShardIndex, query: np.ndarray, k: int) -> list[ScoredHit]:
    """Exact top-k by squared L2, ties broken by ascending vector id.

    The one-query form of `search_batch`: a GEMV screen, then the same
    `_select`, so its hits and distances equal `search_batch`'s bit for bit.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (index.dim,):
        raise ValueError(f"query dim {query.shape} != shard dim ({index.dim},)")
    if k <= 0:
        raise ValueError("k must be positive")
    qn = float(np.einsum("i,i->", query, query))
    if not math.isfinite(qn):
        raise ValueError("non-finite query norm")
    top = min(k, index.vectors.shape[0])
    screen = index.vectors @ (-2.0 * query)
    screen += index.sq_norms
    rows, dists = _select(index, screen, query, _screen_margin(index, qn), top)
    sid = index.shard_id
    return [ScoredHit(sid, vid, dist) for vid, dist in zip(index.ids[rows].tolist(), dists.tolist())]
