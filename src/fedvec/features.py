"""Routing features for a (query, shard) pair, plus train-split standardization.

Feature layout is fixed and position-sensitive:
    [query embedding (d) | shard centroid (d) | query-centroid distance (1)
     | shard count (1) | shard density (1)]                 -> length 2d + 3
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .store import ShardStats

STD_FLOOR = 1e-8


def feature_dim(d: int) -> int:
    return 2 * d + 3


def _centroids(stats: Sequence[ShardStats]) -> np.ndarray:
    """The shards' centroids as one (n_shards, d) matrix."""
    # np.array, not np.stack: stacking 40 centroids costs more than building
    # a query's rows from them.
    centroids = np.array([s.centroid for s in stats], dtype=np.float64)
    if centroids.ndim != 2:
        raise ValueError("need one or more equal-length shard centroids")
    return centroids


def _sq_dists(queries: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(Q, n_shards) squared distances from each query to each centroid: the
    one distance expression of the feature rows. An overflow gives inf, which
    callers reject as non-finite."""
    with np.errstate(over="ignore"):
        diff = queries[:, None, :] - centroids[None, :, :]
        # A stacked (1, d) @ (d, 1) product per pair gives the bits of a 1-D
        # `diff @ diff`, whatever the number of queries or shards.
        return np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]


def _checked_queries(queries: np.ndarray, d: int) -> np.ndarray:
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2 or queries.shape[1] != d:
        raise ValueError(f"queries {queries.shape} do not match centroid dim {d}")
    return queries


def feature_rows(queries: np.ndarray, stats: Sequence[ShardStats]) -> np.ndarray:
    """Raw (unstandardized) feature rows for every (query, shard) pair: a
    (Q, d) query matrix gives (Q, n_shards, 2d + 3)."""
    centroids = _centroids(stats)
    n_shards, d = centroids.shape
    queries = _checked_queries(queries, d)
    rows = np.empty((queries.shape[0], n_shards, feature_dim(d)))
    rows[..., :d] = queries[:, None, :]
    rows[..., d : 2 * d] = centroids
    rows[..., 2 * d] = _sq_dists(queries, centroids)
    rows[..., 2 * d + 1] = [float(s.count) for s in stats]
    rows[..., 2 * d + 2] = [s.density for s in stats]
    if not np.all(np.isfinite(rows)):
        raise ValueError("non-finite feature value")
    return rows


def assemble_features(query: np.ndarray, stats: ShardStats) -> np.ndarray:
    """Build the raw (unstandardized) feature row for one (query, shard) pair."""
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError("query must be a 1-D embedding")
    return feature_rows(query[None, :], [stats])[0, 0]


@dataclass(frozen=True)
class ScalerParams:
    """Per-dimension standardization constants fit on the training split."""

    mean: np.ndarray
    std: np.ndarray  # population stddev, floored at STD_FLOOR


def fit_scaler(rows: np.ndarray) -> ScalerParams:
    """Fit mean/std over (n, f) feature rows; n >= 2 required."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("need at least two feature rows to fit a scaler")
    mean = rows.mean(axis=0)
    std = np.maximum(rows.std(axis=0), STD_FLOOR)
    # Read-only, like a loaded model's: a ShardTable built from them stays
    # the standardization they describe.
    mean.setflags(write=False)
    std.setflags(write=False)
    return ScalerParams(mean=mean, std=std)


def transform(params: ScalerParams, rows: np.ndarray) -> np.ndarray:
    """Standardize one row (f,) or a matrix (n, f) into a new array."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[-1] != params.mean.shape[0]:
        raise ValueError("feature width does not match scaler")
    out = rows - params.mean
    out /= params.std
    return out


class ShardTable:
    """Standardized router rows for one scaler and one shard set.

    Standardization is per column, so a row is built from parts: the shard
    columns (centroid, count, density) are standardized once here, `rows`
    standardizes the query columns once per query, and only the distance
    column is computed per (query, shard) pair. The rows have the bits of
    `transform(scaler, feature_rows(queries, stats))` for as long as the
    scaler's and the centroids' arrays keep their values, and fedvec makes
    them read-only.
    """

    def __init__(self, scaler: ScalerParams, stats: Sequence[ShardStats]) -> None:
        self.scaler = scaler
        self.stats = tuple(stats)
        self._centroids = _centroids(self.stats)
        # Any query's standardized rows, of which `rows` keeps the shard columns.
        self._shard_rows = transform(scaler, feature_rows(self._centroids[:1], self.stats)[0])

    def rows(self, queries: np.ndarray) -> np.ndarray:
        """Standardized feature rows (Q, n_shards, 2d + 3) of a (Q, d) query
        matrix; a non-finite query, or distance, is a ValueError."""
        d = self._centroids.shape[1]
        queries = _checked_queries(queries, d)
        mean, std = self.scaler.mean, self.scaler.std
        dist = _sq_dists(queries, self._centroids)
        dist -= mean[2 * d]
        dist /= std[2 * d]
        # A non-finite query coordinate makes every distance non-finite.
        if not np.isfinite(dist).all():
            raise ValueError("non-finite feature value")
        q = queries - mean[:d]
        q /= std[:d]
        out = np.empty((queries.shape[0],) + self._shard_rows.shape)
        out[...] = self._shard_rows
        out[..., :d] = q[:, None, :]
        out[..., 2 * d] = dist
        return out
