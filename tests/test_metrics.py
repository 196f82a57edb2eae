"""Metrics, efficiency aggregation, and report files, against hand-traced values.

The two-query/three-shard trace fixture is small enough to fold by hand;
every expected number below was worked out by hand from those six records.
"""

import numpy as np
import pytest

from fedvec.federation import FederatedResult
from fedvec.metrics import (
    SUMMARY_COLUMNS,
    auc_score,
    classifier_metrics,
    quality_bar,
    report_from_traces,
    render_report_files,
    retrieval_recall,
    summarize_latency,
)
from fedvec.store import ScoredHit


def result(query_id, pairs):
    hits = [ScoredHit(s, v, 1.0) for s, v in pairs]
    return FederatedResult(query_id, hits, 1, len(hits), 0)


TRACES = [
    {"strategy": "naive", "query_id": 0, "k": 2, "m": 3, "bytes_moved": 60,
     "recall": 1.0, "shard_recalls": [1.0, 0.5, 0.0]},
    {"strategy": "oracle", "query_id": 0, "k": 2, "m": 1, "bytes_moved": 20},
    {"strategy": "predicted", "query_id": 0, "k": 2, "m": 2, "bytes_moved": 40,
     "recall": 1.0, "probabilities": [0.9, 0.8, 0.1], "relevant": [1, 1, 0],
     "selected": [1, 1, 0], "fallback_used": False, "threshold": 0.5},
    {"strategy": "naive", "query_id": 1, "k": 2, "m": 3, "bytes_moved": 60,
     "recall": 1.0, "shard_recalls": [0.0, 1.0, 1.0]},
    {"strategy": "oracle", "query_id": 1, "k": 2, "m": 2, "bytes_moved": 40},
    {"strategy": "predicted", "query_id": 1, "k": 2, "m": 1, "bytes_moved": 25,
     "recall": 0.5, "probabilities": [0.2, 0.45, 0.3], "relevant": [0, 1, 1],
     "selected": [0, 1, 0], "fallback_used": True, "threshold": 0.5},
]


class TestRecall:
    def test_full_overlap(self):
        routed = result(3, [(0, 1), (1, 2)])
        truth = result(3, [(0, 1), (1, 2)])
        assert retrieval_recall(routed, truth) == 1.0

    def test_half_overlap(self):
        routed = result(3, [(0, 1), (2, 9)])
        truth = result(3, [(0, 1), (1, 2)])
        assert retrieval_recall(routed, truth) == 0.5

    def test_query_mismatch(self):
        with pytest.raises(ValueError, match="different queries"):
            retrieval_recall(result(1, [(0, 1)]), result(2, [(0, 1)]))

    def test_empty_truth(self):
        with pytest.raises(ValueError, match="no hits"):
            retrieval_recall(result(1, [(0, 1)]), result(1, []))


class TestClassifier:
    def test_hand_traced_confusion(self):
        """[0.9/1, 0.4/1, 0.6/0, 0.2/0]: one cell each in the confusion
        matrix, and 3 of 4 positive-negative pairs ranked correctly."""
        m = classifier_metrics(np.array([0.9, 0.4, 0.6, 0.2]), np.array([1, 1, 0, 0]))
        assert m["accuracy"] == 0.5
        assert m["precision"] == 0.5
        assert m["recall"] == 0.5
        assert m["f1"] == 0.5
        assert m["auc"] == pytest.approx(0.75, abs=1e-15)
        assert not m["no_positive_predictions"]

    def test_perfect_sorting(self):
        m = classifier_metrics(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0]))
        assert [m[key] for key in ("accuracy", "precision", "recall", "f1", "auc")] == [1] * 5

    def test_all_tied_scores_auc_half(self):
        m = classifier_metrics(np.full(4, 0.5), np.array([1, 0, 1, 0]))
        assert m["auc"] == pytest.approx(0.5, abs=1e-15)

    def test_single_class_has_no_auc(self):
        m = classifier_metrics(np.array([0.9, 0.1]), np.array([1, 1]))
        assert m["auc"] is None

    def test_nothing_predicted_positive(self):
        m = classifier_metrics(np.array([0.1, 0.2]), np.array([1, 0]))
        assert m["no_positive_predictions"]
        assert m["precision"] == 0.0 and m["f1"] == 0.0

    def test_threshold_is_inclusive(self):
        m = classifier_metrics(np.array([0.3, 0.29]), np.array([1, 0]), threshold=0.3)
        assert m["accuracy"] == 1.0 and not m["no_positive_predictions"]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no predictions"):
            classifier_metrics(np.zeros(0), np.zeros(0, dtype=np.int64))


class TestAuc:
    def test_matches_quadratic_pairwise_oracle(self):
        """Rank AUC vs the O(P*N) definition, with heavy ties from rounding."""
        rng = np.random.default_rng(37)
        for _ in range(5):
            n = int(rng.integers(20, 120))
            probs = np.round(rng.random(n), 1)  # one decimal: many ties
            labels = (rng.random(n) < 0.4).astype(np.int64)
            if labels.min() == labels.max():
                continue
            pos = probs[labels == 1]
            neg = probs[labels == 0]
            wins = sum(
                1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
            )
            want = wins / (pos.size * neg.size)
            assert auc_score(probs, labels) == pytest.approx(want, abs=1e-12)

    def test_single_class_none(self):
        assert auc_score(np.array([0.1, 0.9]), np.array([0, 0])) is None


def aggregate(records):
    return report_from_traces(records)["aggregate"]


class TestEfficiency:
    def test_hand_traced_totals(self):
        agg = aggregate(TRACES)
        assert agg["n_queries"] == 2
        assert agg["n_shards"] == 3
        assert agg["k"] == 2
        assert agg["mean_recall"] == pytest.approx(0.75)
        assert agg["total_queries_naive"] == 6
        assert agg["total_queries_routed"] == 3
        assert agg["total_queries_oracle"] == 3
        assert agg["query_reduction_pct"] == pytest.approx(50.0, abs=1e-12)
        assert agg["oracle_query_reduction_pct"] == pytest.approx(50.0, abs=1e-12)
        assert agg["bytes_naive"] == 120
        assert agg["bytes_routed"] == 65
        assert agg["bytes_oracle"] == 60
        assert agg["volume_reduction_pct"] == pytest.approx(100 * (1 - 65 / 120))
        assert agg["oracle_volume_reduction_pct"] == pytest.approx(50.0, abs=1e-12)
        assert agg["fallback_count"] == 1

    def test_ten_by_ten_quarter_selected(self):
        """10 queries x 10 shards with 25 shard contacts total: 75% saved."""
        records = []
        ms = [3, 2, 2, 3, 2, 3, 2, 3, 2, 3]  # sums to 25
        for qid, m in enumerate(ms):
            records.append({"strategy": "naive", "query_id": qid, "k": 5,
                            "m": 10, "bytes_moved": 100, "recall": 1.0,
                            "shard_recalls": [1.0] * 10})
            records.append({"strategy": "oracle", "query_id": qid, "k": 5,
                            "m": m, "bytes_moved": 10 * m})
            records.append({"strategy": "predicted", "query_id": qid, "k": 5,
                            "m": m, "bytes_moved": 10 * m, "recall": 1.0,
                            "probabilities": [0.9] * m + [0.1] * (10 - m),
                            "relevant": [1] * 10, "selected": [1] * m + [0] * (10 - m),
                            "fallback_used": False, "threshold": 0.5})
        agg = aggregate(records)
        assert agg["n_shards"] == 10
        assert agg["query_reduction_pct"] == pytest.approx(75.0, abs=1e-12)

    def test_requires_both_strategies(self):
        with pytest.raises(ValueError, match="one naive, one oracle and one predicted"):
            aggregate([TRACES[0], TRACES[3]])

    def test_quality_bar_thresholds(self):
        report = report_from_traces(TRACES)
        bar = quality_bar(report["aggregate"], report["classifier"])
        assert bar == report["quality"]
        assert bar["mean_auc"]["pass"]  # both scored shards sort perfectly
        assert not bar["mean_recall"]["pass"]  # 0.75 < 0.90
        assert bar["routed_query_fraction"]["pass"]  # 3/6 = 0.50, at the cap


class TestReport:
    def test_hand_traced_fold(self):
        report = report_from_traces(TRACES)
        assert set(report) == {"aggregate", "classifier", "recall_by_shard", "per_query", "quality"}
        assert report["recall_by_shard"] == [
            {"shard_id": 0, "mean_recall": 0.5},
            {"shard_id": 1, "mean_recall": 0.75},
            {"shard_id": 2, "mean_recall": 0.5},
        ]
        assert report["per_query"] == [
            {"query_id": 0, "recall": 1.0, "m": 2, "bytes_moved": 40},
            {"query_id": 1, "recall": 0.5, "m": 1, "bytes_moved": 25},
        ]
        cls = report["classifier"]
        assert cls["threshold"] == 0.5  # the predicted records' own
        assert cls["auc_shards_excluded"] == 1  # shard 1 saw only positives
        assert cls["per_shard"][0]["auc"] == 1.0
        assert cls["per_shard"][1]["auc"] is None
        assert cls["per_shard"][2]["no_positive_predictions"]
        assert cls["mean"]["auc"] == 1.0
        assert cls["mean"]["accuracy"] == pytest.approx((1.0 + 0.5 + 0.5) / 3)

    def test_mismatched_query_coverage(self):
        with pytest.raises(ValueError, match="one naive, one oracle and one predicted"):
            report_from_traces(TRACES[:-1])  # predicted q1 missing
        with pytest.raises(ValueError, match="one naive, one oracle and one predicted"):
            report_from_traces(TRACES + TRACES[-1:])  # predicted q1 twice

    def test_rendering_is_deterministic(self):
        report = report_from_traces(TRACES)
        assert render_report_files(report) == render_report_files(report)

    def test_csv_shapes(self, tmp_path):
        report = report_from_traces(TRACES)
        files = render_report_files(report, {"p50_ns": 1.0, "p95_ns": 2.0})
        summary = files["summary.csv"].decode().splitlines()
        assert summary[0].split(",") == SUMMARY_COLUMNS
        assert len(summary) == 2
        recall_rows = files["recall_by_shard.csv"].decode().splitlines()
        assert recall_rows[0] == "source,mean_recall"
        assert [r.split(",")[0] for r in recall_rows[1:]] == [
            "shard_0", "shard_1", "shard_2", "routed",
        ]
        strategies = files["queries_by_strategy.csv"].decode().splitlines()
        assert strategies[1:] == ["naive,6,120", "oracle,3,60", "predicted,3,65"]
        assert "latency.json" in files
        assert "latency.json" not in render_report_files(report)
        # latency never leaks into the deterministic report body
        assert b"latency" not in files["report.json"]

    @pytest.mark.parametrize("bad, match", [
        (lambda t: t.clear(), "no trace records"),
        (lambda t: t.append(5), "not a JSON object"),
        (lambda t: t[0].pop("m"), "no 'm'"),
        (lambda t: t[2].update(m="2"), "'m' holds a value that is not a JSON int"),
        (lambda t: t[2].update(bytes_moved=True), "'bytes_moved' holds"),
        (lambda t: t[2].update(recall=float("nan")), "'recall' holds a non-finite value"),
        (lambda t: t[5].update(probabilities=[0.2, 0.95]), "'probabilities' is not a list of 3"),
        (lambda t: t[5].update(relevant=[0, 2, 1]), "'relevant' holds a value other than 0 and 1"),
        (lambda t: t[5].update(fallback_used=1), "'fallback_used' holds"),
        (lambda t: t[4].update(strategy="random"), "strategy is not one of"),
        (lambda t: t[3].update(k=3), "disagree on k"),
        (lambda t: t[5].update(threshold=0.3), "disagree on threshold"),
        (lambda t: t[2].pop("threshold"), "no 'threshold'"),
        (lambda t: t[2].update(threshold="0.5"), "'threshold' holds"),
        (lambda t: t[0].update(shard_recalls=[]), "'shard_recalls' is not a nonempty list"),
        (lambda t: t[0].update(query_id=2**63), "'query_id' holds"),
        (lambda t: [r.update(bytes_moved=0) for r in t if r["strategy"] == "naive"],
         "naive trace records move no bytes"),
        (lambda t: t[2].pop("selected"), "no 'selected'"),
        (lambda t: t[2].update(selected=[1, 1, 1], m=3), r"not p >= 0.5 with the argmax fallback"),
        (lambda t: t[5].update(selected=[0, 0, 1]), r"not p >= 0.5 with the argmax fallback"),
        (lambda t: t[5].update(fallback_used=False), "'fallback_used' disagrees"),
        (lambda t: t[2].update(m=1), "'m' is not its number of selected shards"),
    ])
    def test_malformed_records_rejected(self, bad, match):
        records = [dict(r) for r in TRACES]
        bad(records)
        with pytest.raises(ValueError, match=match):
            report_from_traces(records)


class TestLatency:
    def test_linear_interpolation_percentiles(self):
        """[100, 200, 300, 400]: p50 = 250, p95 at rank 2.85 = 385."""
        out = summarize_latency([100, 200, 300, 400])
        assert out["p50_ns"] == 250.0
        assert out["p95_ns"] == pytest.approx(385.0, abs=1e-9)
        assert set(out) == {"p50_ns", "p95_ns"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no latency samples"):
            summarize_latency([])
