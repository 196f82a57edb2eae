"""Scatter-gather federation: route a query, fan out, merge exact top-k.

Byte accounting models the wire format (`selection_cost`, the one cost rule
for eval and serving). Merging sorts under a total order, so results do not
depend on the order shards are searched in.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

from .features import feature_dim, feature_rows
from .router import RouterModel, predict_batch
from .store import ScoredHit, ShardIndex, ShardStats, search_batch, search_top_k

# Queries per scan block: bounds the (block, shard rows) screen matrix, so
# peak memory does not grow with the number of queries.
QUERY_BLOCK = 64


@dataclass(frozen=True)
class RoutingDecision:
    query_id: int
    probabilities: np.ndarray  # (n_shards,) aligned with the shard sequence
    selected: np.ndarray       # (n_shards,) bool
    fallback_used: bool        # no shard cleared the threshold; argmax forced


@dataclass(frozen=True)
class FederatedResult:
    query_id: int
    hits: list[ScoredHit]
    shards_queried: int
    embeddings_returned: int
    bytes_moved: int


def decision_from_probabilities(
    query_id: int, probabilities: np.ndarray, threshold: float
) -> RoutingDecision:
    """Threshold the per-shard probabilities; if nothing clears it, fall back
    to the single most probable shard (lowest index on ties)."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    selected = probabilities >= threshold
    fallback = not selected.any()
    if fallback:
        selected = np.zeros(probabilities.shape[0], dtype=bool)
        selected[int(probabilities.argmax())] = True
    return RoutingDecision(query_id, probabilities, selected, fallback)


def route(
    model: RouterModel,
    query_id: int,
    query: np.ndarray,
    shard_stats: Sequence[ShardStats],
) -> RoutingDecision:
    """Select every shard whose predicted relevance clears the model's
    threshold.

    At least one shard is always selected (argmax fallback), so m >= 1.
    """
    if not shard_stats:
        raise ValueError("no shards to route over")
    rows = feature_rows(np.asarray(query)[None], shard_stats)[0]
    return decision_from_probabilities(query_id, predict_batch(model, rows), model.threshold)


def merge_hits(hit_lists: Sequence[list[ScoredHit]], k: int) -> list[ScoredHit]:
    """Global k smallest under (distance, shard_id, vector_id) ascending."""
    merged = [h for hits in hit_lists for h in hits]
    merged.sort(key=attrgetter("distance", "shard_id", "vector_id"))
    return merged[:k]


def selection_cost(selected: np.ndarray, returned: Sequence[int], dim: int) -> dict:
    """The wire cost of one query: m, embeddings_returned and bytes_moved.

    `selected` is the (n_shards,) shard mask and `returned` how many
    embeddings each shard sends back. The query goes to the m selected
    shards and r embeddings come back from them; each message is one unit
    of a u64 id plus dim f32 coordinates, so (m + r) units move.
    """
    picked = np.flatnonzero(selected)
    m, r = picked.size, int(sum(returned[i] for i in picked))
    return {"m": m, "embeddings_returned": r, "bytes_moved": (m + r) * (8 + 4 * dim)}


def result_from_hit_lists(
    decision: RoutingDecision,
    hit_lists: Sequence[list[ScoredHit]],
    dim: int,
    k: int,
) -> FederatedResult:
    """Merge the selected shards' already-fetched lists and account bytes."""
    cost = selection_cost(decision.selected, [len(h) for h in hit_lists], dim)
    return FederatedResult(
        query_id=decision.query_id,
        hits=merge_hits([hit_lists[i] for i in np.flatnonzero(decision.selected)], k),
        shards_queried=cost["m"],
        embeddings_returned=cost["embeddings_returned"],
        bytes_moved=cost["bytes_moved"],
    )


def federated_search(
    decision: RoutingDecision,
    shards: Sequence[ShardIndex],
    query: np.ndarray,
    k: int,
) -> FederatedResult:
    """Query the selected shards, merge their top-k lists, and account the
    bytes moved."""
    if decision.selected.shape[0] != len(shards):
        raise ValueError("decision does not align with the shard sequence")
    hit_lists: list[list[ScoredHit]] = [[] for _ in shards]
    for i in np.flatnonzero(decision.selected):
        hit_lists[i] = search_top_k(shards[i], query, k)
    return result_from_hit_lists(decision, hit_lists, np.size(query), k)


def naive_search(
    query_id: int,
    shards: Sequence[ShardIndex],
    query: np.ndarray,
    k: int,
) -> FederatedResult:
    """Broadcast to every shard; the recall reference for all routing."""
    decision = RoutingDecision(
        query_id=query_id,
        probabilities=np.ones(len(shards)),
        selected=np.ones(len(shards), dtype=bool),
        fallback_used=False,
    )
    return federated_search(decision, shards, query, k)


def oracle_decision(
    query_id: int, relevant: np.ndarray, n_shards: int
) -> RoutingDecision:
    """Routing straight from ground-truth labels; the floor every learned
    router is measured against."""
    relevant = np.asarray(relevant, dtype=bool)
    if relevant.shape != (n_shards,):
        raise ValueError("label vector does not match shard count")
    if not relevant.any():
        raise ValueError(f"query {query_id}: no relevant shard in ground truth")
    return RoutingDecision(
        query_id=query_id,
        probabilities=relevant.astype(np.float64),
        selected=relevant.copy(),
        fallback_used=False,
    )


def relevant_shards(hits: Sequence[ScoredHit], shards: Sequence[ShardIndex]) -> np.ndarray:
    """Ground-truth labels aligned with `shards`: 1 iff the shard placed a hit."""
    pos = {s.shard_id: i for i, s in enumerate(shards)}
    labels = np.zeros(len(shards), dtype=np.int64)
    for h in hits:
        labels[pos[h.shard_id]] = 1
    return labels


def naive_hit_counts(
    shards: Sequence[ShardIndex], queries: np.ndarray, k: int
) -> np.ndarray:
    """(Q, n_shards) int64: how many of each query's naive top-k hits each
    shard holds, for a (Q, d) query matrix.

    Every shard is scanned once per block of QUERY_BLOCK queries, and the
    block's per-shard top-k lists are merged in the order of `merge_hits`.
    Within one shard the vector id only orders hits among themselves, so
    (distance, shard_id) decides every count.
    """
    queries = np.asarray(queries, dtype=np.float64)
    # Shard position and shard id of each column of a block's concatenated lists.
    pos = np.repeat(np.arange(len(shards)), [min(k, s.stats.count) for s in shards])
    sids = np.array([s.shard_id for s in shards])[pos]
    counts = np.zeros((queries.shape[0], len(shards)), dtype=np.int64)
    for lo in range(0, queries.shape[0], QUERY_BLOCK):
        block = queries[lo : lo + QUERY_BLOCK]
        dists = np.concatenate([search_batch(s, block, k)[1] for s in shards], axis=1)
        order = np.lexsort((np.broadcast_to(sids, dists.shape), dists), axis=1)
        top = pos[order[:, :k]]
        np.add.at(counts[lo : lo + len(block)], (np.arange(len(block))[:, None], top), 1)
    return counts


def generate_labels(
    shards: Sequence[ShardIndex],
    queries: Sequence[tuple[int, np.ndarray]],
    k: int,
) -> np.ndarray:
    """The labels table: one (query, shard) row per pair, query-major, so Q
    queries over n shards yield exactly Q*n rows. A row's label is 1 iff the
    shard placed a hit in the query's naive global top-k."""
    if not shards:
        raise ValueError("no shards to label")
    qids = [qid for qid, _ in queries]
    vecs = np.array([vec for _, vec in queries], dtype=np.float64)
    if not queries:
        vecs = vecs.reshape(0, shards[0].dim)
    features = feature_rows(vecs, [s.stats for s in shards])
    counts = naive_hit_counts(shards, vecs, k)
    dtype = [
        ("query_id", "<i8"),
        ("shard_id", "<i8"),
        ("label", "<i8"),
        ("features", "<f8", (feature_dim(shards[0].dim),)),
    ]
    table = np.zeros(counts.size, dtype=dtype)
    table["query_id"] = np.repeat(qids, len(shards))
    table["shard_id"] = np.tile([s.shard_id for s in shards], len(qids))
    table["label"] = (counts > 0).ravel()
    table["features"] = features.reshape(counts.size, -1)
    return table
