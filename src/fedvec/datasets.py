"""Dataset construction: synthetic corpora, k-means sharding, question splits."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import substream
from .store import ShardIndex, build_index
from .vecio import read_manifest, read_vectors


@dataclass(frozen=True)
class SyntheticSpec:
    """Clustered Gaussian corpus with noisy corpus-like queries.

    Cluster centers sit on a hypersphere of `center_radius`; cluster sizes get
    log-normal multipliers clipped into `points_per_cluster`, so shards end up
    unequal on purpose. Queries are corpus points plus isotropic noise.
    """

    n_clusters: int = 10
    dim: int = 32
    points_per_cluster: tuple[int, int] = (500, 2000)
    cluster_spread: float = 1.0
    query_noise: float = 1.2
    center_radius: float = 6.0
    n_train_queries: int = 2000
    n_eval_queries: int = 500

    def __post_init__(self) -> None:
        lo, hi = self.points_per_cluster
        if min(self.n_clusters, self.dim, lo, hi, self.n_train_queries) < 1:
            raise ValueError("synthetic spec fields must be positive")
        if lo > hi:
            raise ValueError("points_per_cluster range is inverted")
        if min(self.cluster_spread, self.query_noise, self.center_radius) < 0:
            raise ValueError("spread, noise, and radius must be nonnegative")
        if self.n_eval_queries < 0:
            raise ValueError("n_eval_queries must be nonnegative")


@dataclass(frozen=True)
class SyntheticData:
    corpus: np.ndarray            # (n, d)
    corpus_cluster: np.ndarray    # (n,) generator labels, diagnostics only
    train_queries: np.ndarray     # (q, d)
    train_query_cluster: np.ndarray
    eval_queries: np.ndarray
    eval_query_cluster: np.ndarray


def generate_synthetic(spec: SyntheticSpec, seed: int) -> SyntheticData:
    """Deterministic in (spec, seed): same field values, same bytes out."""
    rng = substream(seed, "data")

    g = rng.standard_normal((spec.n_clusters, spec.dim))
    centers = g / np.linalg.norm(g, axis=1, keepdims=True) * spec.center_radius

    lo, hi = spec.points_per_cluster
    mult = rng.lognormal(mean=0.0, sigma=0.5, size=spec.n_clusters)
    sizes = np.clip(np.rint(mult * (lo + hi) / 2).astype(int), lo, hi)

    parts = [
        centers[c] + spec.cluster_spread * rng.standard_normal((sizes[c], spec.dim))
        for c in range(spec.n_clusters)
    ]
    corpus = np.concatenate(parts)
    corpus_cluster = np.repeat(np.arange(spec.n_clusters), sizes)

    qrng = substream(seed, "queries")

    def sample_queries(n: int) -> tuple[np.ndarray, np.ndarray]:
        src = qrng.integers(0, corpus.shape[0], size=n)
        noise = spec.query_noise * qrng.standard_normal((n, spec.dim))
        return corpus[src] + noise, corpus_cluster[src]

    train_queries, train_cluster = sample_queries(spec.n_train_queries)
    eval_queries, eval_cluster = sample_queries(spec.n_eval_queries)
    return SyntheticData(
        corpus, corpus_cluster, train_queries, train_cluster, eval_queries, eval_cluster
    )


def kmeans(
    vectors: np.ndarray, k: int, seed: int, max_iter: int = 100, rel_tol: float = 1e-6
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd's algorithm with kmeans++ seeding.

    Returns (centroids, assignment, inertia history). Stops when the relative
    inertia change drops below rel_tol or after max_iter rounds. An empty
    cluster is reseeded to the point farthest from its current centroid.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if n < k:
        raise ValueError(f"{n} vectors cannot fill {k} clusters")
    rng = substream(seed, "kmeans")

    centroids = _kmeans_pp_init(vectors, k, rng)
    sq_norms = np.einsum("ij,ij->i", vectors, vectors)
    doubled = 2.0 * vectors
    d2 = np.empty((n, k))
    history: list[float] = []
    assign = np.zeros(n, dtype=np.int64)

    for _ in range(max_iter):
        # |x|^2 - 2 x.c + |c|^2, in that order, into one reused buffer.
        np.matmul(doubled, centroids.T, out=d2)
        np.subtract(sq_norms[:, None], d2, out=d2)
        d2 += np.einsum("ij,ij->i", centroids, centroids)[None, :]
        assign = d2.argmin(axis=1)
        point_dist = d2[np.arange(n), assign]
        inertia = float(point_dist.sum())
        history.append(inertia)
        small_change = len(history) > 1 and (
            history[-2] <= 0.0
            or abs(history[-2] - inertia) / history[-2] < rel_tol
        )
        sizes = np.bincount(assign, minlength=k)
        if sizes.min() > 0 and (inertia == 0.0 or small_change):
            break

        # One stable sort groups each cluster's members in ascending order,
        # the rows a boolean mask would pick.
        members = np.argsort(assign, kind="stable")
        ends = np.cumsum(sizes)
        for c in range(k):
            if sizes[c]:
                centroids[c] = vectors[members[ends[c] - sizes[c] : ends[c]]].mean(axis=0)
            else:
                far = int(point_dist.argmax())
                centroids[c] = vectors[far]
                point_dist[far] = -1.0  # spent; a second empty cluster picks elsewhere

    return centroids, assign, history


def _kmeans_pp_init(vectors: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = vectors.shape[0]
    centroids = np.empty((k, vectors.shape[1]))
    centroids[0] = vectors[rng.integers(n)]
    d2 = np.einsum("ij,ij->i", vectors - centroids[0], vectors - centroids[0])
    for i in range(1, k):
        total = d2.sum()
        if total > 0:
            pick = rng.choice(n, p=d2 / total)
        else:  # all remaining points coincide with a chosen center
            pick = int(rng.integers(n))
        centroids[i] = vectors[pick]
        diff = vectors - centroids[i]
        d2 = np.minimum(d2, np.einsum("ij,ij->i", diff, diff))
    return centroids


def kmeans_shard(vectors: np.ndarray, k_clusters: int, seed: int) -> list[ShardIndex]:
    """Partition a flat corpus into k shards; vector ids are corpus positions."""
    vectors = np.asarray(vectors, dtype=np.float64)
    _, assign, _ = kmeans(vectors, k_clusters, seed)
    ids = np.arange(vectors.shape[0], dtype=np.int64)
    shards = []
    for c in range(k_clusters):
        members = assign == c
        shards.append(build_index(c, ids[members], vectors[members]))
    return shards


@dataclass(frozen=True)
class SplitSpec:
    """Question-level split; fractions must sum to 1."""

    train_frac: float = 0.30
    val_frac: float = 0.10
    test_frac: float = 0.60

    def __post_init__(self) -> None:
        fracs = (self.train_frac, self.val_frac, self.test_frac)
        if min(fracs) < 0 or abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError("split fractions must be nonnegative and sum to 1")


def split_by_query(
    query_ids: np.ndarray, spec: SplitSpec, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Disjoint train/val/test boolean masks over `query_ids`, in their
    order, deterministic under seed.

    The draw shuffles the distinct ids, so every row of one question lands in
    the same partition whatever its position, and no question leaks across
    splits. Fraction rounding lands within +-1 query.
    """
    unique, inverse = np.unique(np.asarray(query_ids, dtype=np.int64), return_inverse=True)
    q = unique.shape[0]
    if q < 10:
        raise ValueError("need at least 10 distinct query ids to split")
    perm = substream(seed, "split").permutation(q)
    n_train = int(round(spec.train_frac * q))
    val_end = n_train + min(int(round(spec.val_frac * q)), q - n_train)
    # Each row's id's place in the shuffled order of the distinct ids.
    place = np.argsort(perm)[inverse]
    return place < n_train, (n_train <= place) & (place < val_end), place >= val_end


def import_shards(manifest_path: str | Path) -> list[ShardIndex]:
    """Load every shard named by a manifest and index it."""
    dim, entries = read_manifest(manifest_path)
    shards = []
    for shard_id, path in entries:
        ids, vectors = read_vectors(path)
        if vectors.shape[1] != dim:
            raise ValueError(
                f"shard {shard_id} ({path}): dimension {vectors.shape[1]} != manifest {dim}"
            )
        shards.append(build_index(shard_id, ids, vectors))
    return shards
