"""Scatter-gather federation: route a query, fan out, merge exact top-k.

Byte accounting models the wire format (`selection_cost`, the one cost rule
for eval and serving). Merging sorts under a total order, so results do not
depend on the order shards are searched in.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, is_
from typing import Sequence

import numpy as np

from .features import ShardTable, feature_dim, feature_rows
from .router import RouterModel, predict_standardized
from .store import (
    SCREEN_BUDGET,
    ScoredHit,
    ShardIndex,
    ShardStats,
    build_index,
    search_batch,
    search_top_k,
)


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


def select_shards(probabilities: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """The routing rule over (Q, n_shards) probabilities: a query selects
    every shard with p >= threshold or, when none clears it, falls back to
    its single most probable shard (lowest index on ties). Returns
    (selected (Q, n_shards) bool, fallback (Q,) bool)."""
    selected = probabilities >= threshold
    fallback = ~selected.any(axis=1)
    # count_nonzero is the cheapest test; the indexing costs a served query a
    # few µs, and most never fall back.
    if np.count_nonzero(fallback):
        selected[fallback, probabilities[fallback].argmax(axis=1)] = True
    return selected, fallback


# route's one-entry memo: the model and the shard table of the last call.
# The table holds that call's ShardStats, and the memo holds both strongly,
# so no other object can take their ids while they are compared; the arrays
# the table was built from are read-only.
_last_table: tuple[RouterModel | None, ShardTable | None] = (None, None)


def _shard_table(model: RouterModel, shard_stats: Sequence[ShardStats]) -> ShardTable:
    """The shard table of `model`'s scaler over `shard_stats`: the last
    call's when the model and every ShardStats are the same objects."""
    global _last_table
    held, table = _last_table
    if (held is not model or len(table.stats) != len(shard_stats)
            or not all(map(is_, table.stats, shard_stats))):
        table = ShardTable(model.scaler, shard_stats)
        _last_table = (model, table)
    return table


def route(
    model: RouterModel,
    query_id: int,
    query: np.ndarray,
    shard_stats: Sequence[ShardStats],
) -> RoutingDecision:
    """Select every shard whose predicted relevance clears the model's
    threshold.

    At least one shard is always selected (argmax fallback), so m >= 1. The
    probabilities have the bits of `predict_batch` on the query's
    `feature_rows`. The shard table is reused while the model and shard
    stats stay the same objects, so the last model routed stays alive.
    """
    if not shard_stats:
        raise ValueError("no shards to route over")
    rows = _shard_table(model, shard_stats).rows(np.asarray(query)[None])[0]
    probabilities = predict_standardized(model.params, rows)
    selected, fallback = select_shards(probabilities[None], model.threshold)
    return RoutingDecision(query_id, probabilities, selected[0], bool(fallback[0]))


def merge_hits(hit_lists: Sequence[list[ScoredHit]], k: int) -> list[ScoredHit]:
    """Global k smallest under (distance, shard_id, vector_id) ascending."""
    merged = [h for hits in hit_lists for h in hits]
    merged.sort(key=attrgetter("distance", "shard_id", "vector_id"))
    return merged[:k]


def selection_cost(returned: Sequence[int], dim: int) -> dict:
    """The wire cost of one query: m, embeddings_returned and bytes_moved.

    `returned` holds how many embeddings each contacted shard sends back.
    The query goes to those m shards and r embeddings come back from them;
    each message is one unit of a u64 id plus dim f32 coordinates, so
    (m + r) units move.
    """
    m = len(returned)
    r = int(sum(returned))
    return {"m": m, "embeddings_returned": r, "bytes_moved": (m + r) * (8 + 4 * dim)}


def result_from_hit_lists(
    decision: RoutingDecision,
    hit_lists: Sequence[list[ScoredHit]],
    dim: int,
    k: int,
) -> FederatedResult:
    """Merge the selected shards' fetched lists, one per shard queried, and
    account the bytes moved."""
    cost = selection_cost([len(h) for h in hit_lists], dim)
    return FederatedResult(
        query_id=decision.query_id,
        hits=merge_hits(hit_lists, k),
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
    hit_lists = [search_top_k(shards[i], query, k) for i in np.flatnonzero(decision.selected)]
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

    One `search_batch` scan over the union of the shards. Each union row's
    id is its rank under (shard_id, vector_id), so the scan's (distance, id)
    order is `merge_hits`' (distance, shard_id, vector_id) order, and its
    top-k is the merged naive top-k.
    """
    queries = np.asarray(queries, dtype=np.float64)
    sizes = [s.stats.count for s in shards]
    pos = np.repeat(np.arange(len(shards)), sizes)
    sids = np.repeat([s.shard_id for s in shards], sizes)
    ranks = np.empty(pos.size, dtype=np.int64)
    ranks[np.lexsort((np.concatenate([s.ids for s in shards]), sids))] = np.arange(pos.size)
    union = build_index(-1, ranks, np.concatenate([s.vectors for s in shards]))
    rows, _ = search_batch(union, queries, k)
    n_q, n_shards = queries.shape[0], len(shards)
    flat = (np.arange(n_q)[:, None] * n_shards + pos[rows]).ravel()
    return np.bincount(flat, minlength=n_q * n_shards).astype(np.int64, copy=False).reshape(n_q, n_shards)


def generate_labels(
    shards: Sequence[ShardIndex],
    query_ids: np.ndarray,
    queries: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The labels table and the hit counts it is labelled from, for the (Q,)
    ids and (Q, d) vectors of Q queries.

    The table has one (query, shard) row per pair, query-major, so Q queries
    over n shards yield exactly Q*n rows. A row's label is 1 iff the shard
    placed a hit in the query's naive global top-k. The counts are
    `naive_hit_counts`, (Q, n) in query and shard order.
    """
    if not shards:
        raise ValueError("no shards to label")
    vecs = np.asarray(queries, dtype=np.float64)
    counts = naive_hit_counts(shards, vecs, k)
    n_shards, width = len(shards), feature_dim(shards[0].dim)
    dtype = [
        ("query_id", "<i8"),
        ("shard_id", "<i8"),
        ("label", "<i8"),
        ("features", "<f8", (width,)),
    ]
    table = np.zeros(counts.size, dtype=dtype)
    table["query_id"] = np.repeat(query_ids, n_shards)
    table["shard_id"] = np.tile([s.shard_id for s in shards], len(query_ids))
    table["label"] = (counts > 0).ravel()
    # Feature rows go in by query blocks of about SCREEN_BUDGET values; a
    # query's rows have the same bits whatever block they are built in.
    stats = [s.stats for s in shards]
    block = max(1, SCREEN_BUDGET // (n_shards * width))
    features = table["features"]
    for lo in range(0, len(query_ids), block):
        hi = min(lo + block, len(query_ids))
        features[lo * n_shards : hi * n_shards] = feature_rows(vecs[lo:hi], stats).reshape(-1, width)
    return table, counts
