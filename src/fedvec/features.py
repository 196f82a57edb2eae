"""Routing features for a (query, shard) pair, plus train-split standardization.

Feature layout is fixed and position-sensitive:
    [query embedding (d) | shard centroid (d) | query-centroid distance (1)
     | shard count (1) | shard density (1)]                 -> length 2d + 3
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .store import ShardStats, shard_distance

STD_FLOOR = 1e-8


def feature_dim(d: int) -> int:
    return 2 * d + 3


def assemble_features(query: np.ndarray, stats: ShardStats) -> np.ndarray:
    """Build the raw (unstandardized) feature row for one (query, shard) pair."""
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise ValueError("query must be a 1-D embedding")
    dist = shard_distance(query, stats)
    row = np.concatenate(
        [query, stats.centroid, [dist, float(stats.count), stats.density]]
    )
    if not np.all(np.isfinite(row)):
        raise ValueError("non-finite feature value")
    return row


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
    """Standardize one row (f,) or a matrix (n, f)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[-1] != params.mean.shape[0]:
        raise ValueError("feature width does not match scaler")
    return (rows - params.mean) / params.std

