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


def feature_rows(queries: np.ndarray, stats: Sequence[ShardStats]) -> np.ndarray:
    """Raw (unstandardized) feature rows for every (query, shard) pair: a
    (Q, d) query matrix gives (Q, n_shards, 2d + 3)."""
    queries = np.asarray(queries, dtype=np.float64)
    # np.array, not np.stack: stacking 40 centroids costs more than the
    # arithmetic below.
    centroids = np.array([s.centroid for s in stats], dtype=np.float64)
    if centroids.ndim != 2:
        raise ValueError("need one or more equal-length shard centroids")
    if queries.ndim != 2 or queries.shape[1] != centroids.shape[1]:
        raise ValueError(f"queries {queries.shape} do not match centroid dim {centroids.shape[1]}")
    n_q, d = queries.shape
    diff = queries[:, None, :] - centroids[None, :, :]
    rows = np.empty((n_q, len(stats), feature_dim(d)))
    rows[..., :d] = queries[:, None, :]
    rows[..., d : 2 * d] = centroids
    # A stacked (1, d) @ (d, 1) product per pair gives the bits of a 1-D
    # `diff @ diff`, whatever the number of queries or shards.
    rows[..., 2 * d] = np.matmul(diff[..., None, :], diff[..., :, None])[..., 0, 0]
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
    return ScalerParams(mean=mean, std=std)


def transform(params: ScalerParams, rows: np.ndarray) -> np.ndarray:
    """Standardize one row (f,) or a matrix (n, f) into a new array."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[-1] != params.mean.shape[0]:
        raise ValueError("feature width does not match scaler")
    out = rows - params.mean
    out /= params.std
    return out

