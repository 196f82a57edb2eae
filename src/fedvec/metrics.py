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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .federation import FederatedResult

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
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    ranks = np.empty(x.shape[0])
    start = 0
    for i in range(1, x.shape[0] + 1):
        if i == x.shape[0] or sx[i] != sx[start]:
            ranks[order[start:i]] = (start + 1 + i) / 2.0
            start = i
    return ranks


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


def efficiency_summary(records: Iterable[dict], n_shards: int) -> dict:
    """Aggregate query/byte totals and reduction percentages from traces.

    Needs naive and predicted records; oracle records, when present, supply
    the ground-truth lower bound.
    """
    by_strategy: dict[str, list[dict]] = {s: [] for s in STRATEGIES}
    for rec in records:
        if rec["strategy"] in by_strategy:
            by_strategy[rec["strategy"]].append(rec)
    naive, oracle, predicted = (by_strategy[s] for s in STRATEGIES)
    if not naive or not predicted:
        raise ValueError("need naive and predicted traces")

    q = len(naive)
    totals = {s: sum(r["m"] for r in by_strategy[s]) for s in STRATEGIES}
    bytes_ = {s: sum(r["bytes_moved"] for r in by_strategy[s]) for s in STRATEGIES}
    denom_q = q * n_shards

    out = {
        "n_queries": q,
        "n_shards": n_shards,
        "k": naive[0].get("k"),
        "mean_recall": sum(r["recall"] for r in predicted) / len(predicted),
        "total_queries_naive": totals["naive"],
        "total_queries_routed": totals["predicted"],
        "query_reduction_pct": 100.0 * (1.0 - totals["predicted"] / denom_q),
        "bytes_naive": bytes_["naive"],
        "bytes_routed": bytes_["predicted"],
        "volume_reduction_pct": 100.0 * (1.0 - bytes_["predicted"] / bytes_["naive"]),
        "fallback_count": sum(1 for r in predicted if r.get("fallback_used")),
    }
    if oracle:
        out["total_queries_oracle"] = totals["oracle"]
        out["oracle_query_reduction_pct"] = 100.0 * (1.0 - totals["oracle"] / denom_q)
        out["bytes_oracle"] = bytes_["oracle"]
        out["oracle_volume_reduction_pct"] = 100.0 * (1.0 - bytes_["oracle"] / bytes_["naive"])
    return out


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


@dataclass(frozen=True)
class EvalReport:
    """Plain-container report; `to_dict` is what report.json holds."""

    aggregate: dict
    classifier: dict
    recall_by_shard: list
    per_query: list
    quality: dict
    latency: dict | None = None

    def to_dict(self) -> dict:
        return {
            "aggregate": self.aggregate,
            "classifier": self.classifier,
            "recall_by_shard": self.recall_by_shard,
            "per_query": self.per_query,
            "quality": self.quality,
        }


_METRIC_KEYS = ("accuracy", "precision", "recall", "f1", "auc")


def _classifier_block(predicted: list[dict], n_shards: int, threshold: float) -> dict:
    """Per-shard one-vs-rest metrics and their mean/std across shards."""
    probs = np.array([r["probabilities"] for r in predicted], dtype=np.float64)
    labels = np.array([r["relevant"] for r in predicted], dtype=np.int64)
    per_shard = [
        {"shard_id": s, **classifier_metrics(probs[:, s], labels[:, s], threshold)}
        for s in range(n_shards)
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


def report_from_traces(
    records: Iterable[dict],
    n_shards: int,
    threshold: float = 0.5,
    latency: dict | None = None,
) -> EvalReport:
    """The pure fold: trace records in, full report out."""
    records = list(records)
    aggregate = efficiency_summary(records, n_shards)
    naive = [r for r in records if r["strategy"] == "naive"]
    predicted = [r for r in records if r["strategy"] == "predicted"]

    naive_ids = {r["query_id"] for r in naive}
    predicted_ids = {r["query_id"] for r in predicted}
    if naive_ids != predicted_ids:
        raise ValueError("naive and predicted traces cover different queries")

    shard_recalls = np.array([r["shard_recalls"] for r in naive], dtype=np.float64)
    recall_by_shard = [
        {"shard_id": s, "mean_recall": float(shard_recalls[:, s].mean())}
        for s in range(n_shards)
    ]
    per_query = [
        {
            "query_id": r["query_id"],
            "recall": r["recall"],
            "m": r["m"],
            "bytes_moved": r["bytes_moved"],
        }
        for r in sorted(predicted, key=lambda r: r["query_id"])
    ]
    classifier = _classifier_block(predicted, n_shards, threshold)
    return EvalReport(
        aggregate=aggregate,
        classifier=classifier,
        recall_by_shard=recall_by_shard,
        per_query=per_query,
        quality=quality_bar(aggregate, classifier),
        latency=latency,
    )


def _csv_bytes(header: list[str], rows: list[list]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def render_report_files(report: EvalReport) -> dict[str, bytes]:
    """Serialize the report to its on-disk files (filename -> content)."""
    agg = report.aggregate
    files = {
        "report.json": (json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n").encode(),
        "summary.csv": _csv_bytes(
            SUMMARY_COLUMNS, [[agg.get(c, "") for c in SUMMARY_COLUMNS]]
        ),
        "recall_by_shard.csv": _csv_bytes(
            ["source", "mean_recall"],
            [[f"shard_{row['shard_id']}", row["mean_recall"]] for row in report.recall_by_shard]
            + [["routed", agg["mean_recall"]]],
        ),
        "queries_by_strategy.csv": _csv_bytes(
            ["strategy", "total_queries", "total_bytes"],
            [
                ["naive", agg["total_queries_naive"], agg["bytes_naive"]],
                ["oracle", agg.get("total_queries_oracle", ""), agg.get("bytes_oracle", "")],
                ["predicted", agg["total_queries_routed"], agg["bytes_routed"]],
            ],
        ),
    }
    if report.latency is not None:
        files["latency.json"] = (
            json.dumps(report.latency, indent=2, sort_keys=True) + "\n"
        ).encode()
    return files


def summarize_latency(latencies_ns: Sequence[int], batch32_ns: float | None = None) -> dict:
    """p50/p95 percentiles of per-query routing latency, plus the batch-32 figure."""
    arr = np.asarray(latencies_ns, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no latency samples")
    return {
        "p50_ns": float(np.percentile(arr, 50)),
        "p95_ns": float(np.percentile(arr, 95)),
        "batch32_inference_ns": batch32_ns,
    }
