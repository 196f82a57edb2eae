"""Retrieval/classifier metrics, efficiency accounting, and report files.

Every aggregate is a pure fold of per-query trace records, so rebuilding a
report from traces reproduces it byte for byte. Wall-clock latency is the one
exception: it is written to its own latency.json and never enters report.json
or the CSVs, keeping those deterministic under a fixed seed.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Iterable, Sequence

import numpy as np

from .federation import FederatedResult, select_shards

STRATEGIES = ("naive", "oracle", "predicted")

SUMMARY_COLUMNS = [
    "n_queries", "n_shards", "k", "mean_recall",
    "total_queries_naive", "total_queries_oracle", "total_queries_routed",
    "query_reduction_pct", "oracle_query_reduction_pct",
    "bytes_naive", "bytes_oracle", "bytes_routed",
    "volume_reduction_pct", "oracle_volume_reduction_pct", "fallback_count",
]


def retrieval_recall(routed: FederatedResult, truth: FederatedResult) -> float:
    """|routed ids ∩ truth ids| / |truth ids|, ids being (shard, vector) pairs."""
    if routed.query_id != truth.query_id:
        raise ValueError(
            f"recall across different queries ({routed.query_id} vs {truth.query_id})"
        )
    truth_ids = {(h.shard_id, h.vector_id) for h in truth.hits}
    if not truth_ids:
        raise ValueError("truth result has no hits")
    routed_ids = {(h.shard_id, h.vector_id) for h in routed.hits}
    return len(routed_ids & truth_ids) / len(truth_ids)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, group, counts = np.unique(x, return_inverse=True, return_counts=True)
    end = np.cumsum(counts)  # a group of ties holds ranks end - count + 1 .. end
    # np.unique's inverse is not 1-D on every numpy version.
    return ((end - counts + 1 + end) / 2.0)[group.reshape(-1)]


def auc_score(probabilities: np.ndarray, labels: np.ndarray) -> float | None:
    """Mann-Whitney rank AUC; ties earn half credit. None if single-class."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = _average_ranks(probabilities)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def classifier_metrics(
    probabilities: np.ndarray, labels: np.ndarray, threshold: float = 0.5
) -> dict:
    """Threshold metrics plus rank AUC for one shard's probabilities and 0/1
    labels. `auc` is None when the labels are single-class; precision and F1
    are 0 when nothing is predicted positive (`no_positive_predictions`)."""
    probs = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probs.size == 0:
        raise ValueError("no predictions")
    pred = probs >= threshold

    tp = int((pred & (labels == 1)).sum())
    fp = int((pred & (labels == 0)).sum())
    fn = int((~pred & (labels == 1)).sum())
    tn = int((~pred & (labels == 0)).sum())

    no_pos_pred = (tp + fp) == 0
    precision = 0.0 if no_pos_pred else tp / (tp + fp)
    recall = 0.0 if (tp + fn) == 0 else tp / (tp + fn)
    return {
        "accuracy": (tp + tn) / labels.shape[0],
        "precision": precision,
        "recall": recall,
        "f1": 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall),
        "auc": auc_score(probs, labels),
        "no_positive_predictions": no_pos_pred,
    }


# Desk-scale quality bar checked after every eval run.
QUALITY_MIN_AUC = 0.90
QUALITY_MIN_RECALL = 0.90
QUALITY_MAX_QUERY_FRACTION = 0.50


def quality_bar(aggregate: dict, classifier: dict) -> dict:
    """Pass/fail against the fixed quality thresholds."""
    mean_auc = classifier["mean"]["auc"]
    fraction = aggregate["total_queries_routed"] / aggregate["total_queries_naive"]
    return {
        "mean_auc": {
            "value": mean_auc,
            "min": QUALITY_MIN_AUC,
            "pass": mean_auc is not None and mean_auc >= QUALITY_MIN_AUC,
        },
        "mean_recall": {
            "value": aggregate["mean_recall"],
            "min": QUALITY_MIN_RECALL,
            "pass": aggregate["mean_recall"] >= QUALITY_MIN_RECALL,
        },
        "routed_query_fraction": {
            "value": fraction,
            "max": QUALITY_MAX_QUERY_FRACTION,
            "pass": fraction <= QUALITY_MAX_QUERY_FRACTION,
        },
    }


_METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "auc")


def _classifier_block(probs: np.ndarray, labels: np.ndarray, threshold: float) -> dict:
    """Per-shard one-vs-rest metrics and their mean/std across shards."""
    per_shard = [
        {"shard_id": s, **classifier_metrics(probs[:, s], labels[:, s], threshold)}
        for s in range(probs.shape[1])
    ]
    mean: dict = {}
    std: dict = {}
    for key in _METRIC_KEYS:
        vals = [row[key] for row in per_shard if row[key] is not None]
        mean[key] = float(np.mean(vals)) if vals else None
        std[key] = float(np.std(vals)) if vals else None
    return {
        "threshold": threshold,
        "per_shard": per_shard,
        "mean": mean,
        "std": std,
        "auc_shards_excluded": sum(1 for row in per_shard if row["auc"] is None),
    }


def _column(records: list[dict], name: str, kind: type, width: int | None = None):
    """Field `name` of every record, checked. Each value, or with `width` each
    entry of a list of exactly `width`, must be a JSON value of `kind`: str,
    bool, int (within int64) or float (any finite number). A bool is no
    number. Numbers come back as an int64 or float64 array, the rest as a list."""
    try:
        values = [r[name] for r in records]
    except KeyError:
        raise ValueError(f"a trace record has no {name!r}") from None
    entries = values
    if width is not None:
        if not all(type(v) is list and len(v) == width for v in values):
            raise ValueError(f"{name!r} is not a list of {width} values in every record")
        entries = [x for v in values for x in v]
    if not set(map(type, entries)) <= ({int, float} if kind is float else {kind}):
        raise ValueError(f"{name!r} holds a value that is not a JSON {kind.__name__}")
    if kind in (str, bool):
        return values
    try:
        array = np.array(values, dtype=np.float64 if kind is float else np.int64)
    except OverflowError:
        raise ValueError(f"{name!r} holds an out-of-range value") from None
    if not np.isfinite(array).all():
        raise ValueError(f"{name!r} holds a non-finite value")
    return array


def report_from_traces(records: Iterable[dict]) -> dict:
    """The pure fold: trace records in, the report.json document out.

    Every query needs exactly one naive, one oracle and one predicted record,
    and the shard count is the width of the naive `shard_recalls`. The
    classifier block is scored at the `threshold` the predicted records were
    selected with, which they must agree on; each predicted `selected` must
    be the selection that threshold makes, and its `fallback_used` and `m`
    must match it. Any malformed record raises ValueError. Sums run in record
    order.
    """
    records = list(records)
    if not records:
        raise ValueError("no trace records")
    if not all(isinstance(r, dict) for r in records):
        raise ValueError("a trace record is not a JSON object")
    strategy = _column(records, "strategy", str)
    groups = [[r for r, s in zip(records, strategy) if s == name] for name in STRATEGIES]
    if sum(map(len, groups)) != len(records):
        raise ValueError(f"a trace record's strategy is not one of {', '.join(STRATEGIES)}")
    ids = [_column(g, "query_id", int).tolist() for g in groups]
    if len(set(ids[0])) != len(ids[0]) or any(sorted(i) != sorted(ids[0]) for i in ids):
        raise ValueError("each query needs one naive, one oracle and one predicted record")
    k = _column(records, "k", int).tolist()
    if len(set(k)) != 1:
        raise ValueError("trace records disagree on k")
    m = [_column(g, "m", int).tolist() for g in groups]
    moved = [_column(g, "bytes_moved", int).tolist() for g in groups]
    naive, _, predicted = groups
    first = naive[0].get("shard_recalls")
    if type(first) is not list or not first:
        raise ValueError("'shard_recalls' is not a nonempty list")
    n_shards = len(first)
    shard_recalls = _column(naive, "shard_recalls", float, n_shards)
    recall = _column(predicted, "recall", float).tolist()
    probs = _column(predicted, "probabilities", float, n_shards)
    labels = _column(predicted, "relevant", int, n_shards)
    fallback = _column(predicted, "fallback_used", bool)
    thresholds = set(_column(predicted, "threshold", float).tolist())
    if len(thresholds) != 1:
        raise ValueError("trace records disagree on threshold")
    (threshold,) = thresholds
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("'relevant' holds a value other than 0 and 1")
    selected = _column(predicted, "selected", int, n_shards)
    want, fell_back = select_shards(probs, threshold)
    if not np.array_equal(selected, want):
        raise ValueError(f"a predicted 'selected' is not p >= {threshold} with the argmax fallback")
    if fallback != fell_back.tolist():
        raise ValueError("a predicted 'fallback_used' disagrees with its probabilities")
    if m[2] != selected.sum(axis=1).tolist():
        raise ValueError("a predicted 'm' is not its number of selected shards")
    m_naive, m_oracle, m_routed = map(sum, m)
    b_naive, b_oracle, b_routed = map(sum, moved)
    if b_naive <= 0:
        raise ValueError("the naive trace records move no bytes")

    q = len(predicted)
    aggregate = {
        "n_queries": q,
        "n_shards": n_shards,
        "k": k[0],
        "mean_recall": sum(recall) / q,
        "total_queries_naive": m_naive,
        "total_queries_oracle": m_oracle,
        "total_queries_routed": m_routed,
        "query_reduction_pct": 100.0 * (1.0 - m_routed / (q * n_shards)),
        "oracle_query_reduction_pct": 100.0 * (1.0 - m_oracle / (q * n_shards)),
        "bytes_naive": b_naive,
        "bytes_oracle": b_oracle,
        "bytes_routed": b_routed,
        "volume_reduction_pct": 100.0 * (1.0 - b_routed / b_naive),
        "oracle_volume_reduction_pct": 100.0 * (1.0 - b_oracle / b_naive),
        "fallback_count": sum(fallback),
    }
    classifier = _classifier_block(probs, labels, threshold)
    return {
        "aggregate": aggregate,
        "classifier": classifier,
        "recall_by_shard": [
            {"shard_id": s, "mean_recall": float(shard_recalls[:, s].mean())}
            for s in range(n_shards)
        ],
        "per_query": [
            {"query_id": qid, "recall": r, "m": n, "bytes_moved": b}
            for qid, r, n, b in sorted(zip(ids[2], recall, m[2], moved[2]))
        ],
        "quality": quality_bar(aggregate, classifier),
    }


def csv_bytes(header: list[str], rows: list[list]) -> bytes:
    """One CSV artifact's bytes: a header row, then the rows, "\n"-terminated."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def _json_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def render_report_files(report: dict, latency: dict | None = None) -> dict[str, bytes]:
    """Serialize the report, and latency when given, to their on-disk files
    (filename -> content)."""
    agg = report["aggregate"]
    files = {
        "report.json": _json_bytes(report),
        "summary.csv": csv_bytes(SUMMARY_COLUMNS, [[agg[c] for c in SUMMARY_COLUMNS]]),
        "recall_by_shard.csv": csv_bytes(
            ["source", "mean_recall"],
            [[f"shard_{row['shard_id']}", row["mean_recall"]] for row in report["recall_by_shard"]]
            + [["routed", agg["mean_recall"]]],
        ),
        "queries_by_strategy.csv": csv_bytes(
            ["strategy", "total_queries", "total_bytes"],
            [
                ["naive", agg["total_queries_naive"], agg["bytes_naive"]],
                ["oracle", agg["total_queries_oracle"], agg["bytes_oracle"]],
                ["predicted", agg["total_queries_routed"], agg["bytes_routed"]],
            ],
        ),
    }
    if latency is not None:
        files["latency.json"] = _json_bytes(latency)
    return files


def summarize_latency(latencies_ns: Sequence[int]) -> dict:
    """p50/p95 percentiles of per-query routing latency."""
    arr = np.asarray(latencies_ns, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no latency samples")
    return {
        "p50_ns": float(np.percentile(arr, 50)),
        "p95_ns": float(np.percentile(arr, 95)),
    }
