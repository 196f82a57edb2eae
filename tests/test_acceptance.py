"""End-to-end acceptance suite: nine numbered shipping criteria.

Each test checks exactly one criterion and reports a single
"criterion N: PASS/FAIL - ..." line through the shared `criterion`
fixture; conftest echoes the lines into the terminal summary so a plain
pytest run shows all nine verdicts even with output capture on.

Two heavyweight fixtures are shared. `flat` is a ten-shard corpus with a
brute-force union oracle (criteria 1 and 2). `bench` is two complete
pipeline runs, synth through eval, driven through the CLI with the same
config and seed (criteria 4, 5, 6, 7, and 8).
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fedvec.cli import main
from fedvec.datasets import SplitSpec, import_shards, split_by_query
from fedvec.features import feature_rows, transform
from fedvec.federation import (
    federated_search,
    naive_search,
    oracle_decision,
    relevant_shards,
)
from fedvec.metrics import auc_score, retrieval_recall
from fedvec.router import (
    _PARAM_ORDER,
    _dropout_mask,
    backward,
    bce_with_logits,
    forward_cache,
    init_params,
    load_model,
    predict_batch,
)
from fedvec.store import build_index, squared_distances
from fedvec.vecio import read_vectors

N_SHARDS = 10
PER_SHARD = 1000
DIM = 32
N_QUERIES = 1000
K_VALUES = (10, 32)

BENCH_SEED = 42

# Every artifact both benchmark runs must agree on, byte for byte. The
# trace and latency files are exempt: they embed wall-clock timings.
BENCH_ARTIFACTS = [
    "manifest.json",
    "queries_train.fvr",
    "queries_eval.fvr",
    "labels.npy",
    "hits.npy",
    "router.rrm",
    "training_log.csv",
    "report.json",
    "summary.csv",
    "recall_by_shard.csv",
    "queries_by_strategy.csv",
] + [f"shards/shard_{i:03d}.fvr" for i in range(N_SHARDS)]


@pytest.fixture(scope="module")
def flat():
    """Ten clustered shards, their flat union, and 1000 corpus-like queries."""
    rng = np.random.default_rng(20240816)
    g = rng.standard_normal((N_SHARDS, DIM))
    centers = g / np.linalg.norm(g, axis=1, keepdims=True) * 5.0
    shards = []
    for s in range(N_SHARDS):
        vectors = centers[s] + rng.standard_normal((PER_SHARD, DIM))
        # Non-positional ids so an id/index mixup cannot hide.
        ids = (s + 1) * 100_000 + np.arange(PER_SHARD)
        shards.append(build_index(s, ids, vectors))
    union = np.concatenate([sh.vectors for sh in shards])
    union_sid = np.repeat(np.arange(N_SHARDS), PER_SHARD)
    union_vid = np.concatenate([sh.ids for sh in shards])
    src = rng.integers(0, union.shape[0], size=N_QUERIES)
    queries = union[src] + rng.standard_normal((N_QUERIES, DIM))
    return shards, union, union_sid, union_vid, queries


@pytest.fixture(scope="module")
def bench(tmp_path_factory):
    """Two full pipeline runs with identical config and seed."""
    config = {"seed": BENCH_SEED, "k": 10, "out": "run"}
    runs = []
    for tag in ("a", "b"):
        root = tmp_path_factory.mktemp(f"bench_{tag}")
        (root / "config.json").write_text(json.dumps(config))
        cwd = os.getcwd()
        os.chdir(root)
        try:
            for sub in ("synth", "label", "train", "eval"):
                assert main(["--config", "config.json", sub]) == 0
        finally:
            os.chdir(cwd)
        runs.append(root / "run")
    return runs


def test_criterion_1_scatter_gather_matches_flat_union(flat, criterion):
    """Federated top-k must equal one flat index over the union, exactly."""
    shards, union, union_sid, union_vid, queries = flat
    t0 = time.monotonic()
    mismatches = 0
    compared = 0
    for q in queries:
        dists = squared_distances(union, q)
        order = np.lexsort((union_vid, union_sid, dists))
        for k in K_VALUES:
            # No executor: the time budget is for a single-threaded pass.
            res = naive_search(0, shards, q, k)
            want = order[:k]
            got = [(h.shard_id, h.vector_id, h.distance) for h in res.hits]
            ref = [
                (int(union_sid[i]), int(union_vid[i]), float(dists[i]))
                for i in want
            ]
            mismatches += got != ref
            compared += 1

    # Formula-level cross-check on a sample: exact summation in pure
    # Python, so a shared numpy mistake cannot vouch for itself.
    rows = union.tolist()
    for q in queries[:5]:
        qq = q.tolist()
        ref = sorted(
            (
                math.fsum((rows[i][j] - qq[j]) ** 2 for j in range(DIM)),
                int(union_sid[i]),
                int(union_vid[i]),
            )
            for i in range(union.shape[0])
        )[:10]
        res = naive_search(0, shards, q, 10)
        for h, (dist, sid, vid) in zip(res.hits, ref):
            mismatches += (h.shard_id, h.vector_id) != (sid, vid)
            mismatches += abs(h.distance - dist) > 1e-12 * max(1.0, dist)
    elapsed = time.monotonic() - t0

    criterion(
        1,
        mismatches == 0 and elapsed < 60.0,
        f"{compared} query/k merges identical to the flat union (ids and "
        f"distances exact, k in {set(K_VALUES)}) plus 5 exact-summation "
        f"spot checks, single-threaded in {elapsed:.1f}s < 60s",
    )


def test_criterion_2_oracle_routing_has_perfect_recall(flat, criterion):
    shards, _, _, _, queries = flat
    total = 0
    perfect = 0
    for k in K_VALUES:
        for qid, q in enumerate(queries):
            truth = naive_search(qid, shards, q, k)
            rel = relevant_shards(truth.hits, shards)
            decision = oracle_decision(qid, rel.astype(bool), len(shards))
            routed = federated_search(decision, shards, q, k)
            total += 1
            perfect += retrieval_recall(routed, truth) == 1.0
    criterion(
        2,
        perfect == total,
        f"oracle routing recall exactly 1.0 on {perfect}/{total} "
        f"query evaluations (k in {set(K_VALUES)})",
    )


def _probe_fd(params, name, flat_idx, h, x, y, pos_weight, rate, masks):
    """Central difference for one parameter, plus a smoothness flag.

    The flag is False when the +h and -h evaluations disagree on any
    rectifier's side: the loss has a kink inside the probe interval there
    and a central difference says nothing about the analytic gradient.
    """
    sides = []
    patterns = []
    for sign in (1.0, -1.0):
        probe = params.copy()
        getattr(probe, name).flat[flat_idx] += sign * h
        cache = forward_cache(probe, x, masks=masks)
        sides.append(bce_with_logits(cache.logits, y, pos_weight))
        patterns.append((cache.n1 > 0.0, cache.n2 > 0.0))
    smooth = all(np.array_equal(a, b) for a, b in zip(*patterns))
    return (sides[0] - sides[1]) / (2.0 * h), smooth


def test_criterion_3_gradients_match_finite_differences(criterion):
    """Analytic gradients vs central differences, step 1e-4, rel err < 1e-3."""
    t0 = time.monotonic()
    h = 1e-4
    worst = 0.0
    probes = 0
    skipped = 0
    for batch in range(20):
        rng = np.random.default_rng(1000 + batch)
        params = init_params(8, rng)
        x = rng.standard_normal((16, 8))
        y = (rng.random(16) < 0.5).astype(np.float64)
        pos_weight = float(rng.uniform(0.5, 4.0))
        rate = 0.0
        masks = None
        if batch % 4 == 0:
            # Every fourth batch goes through the dropout path with the
            # masks pinned, so train-mode backprop is covered too.
            rate = 0.3
            masks = (
                _dropout_mask((16, 256), rate, rng),
                _dropout_mask((16, 128), rate, rng),
            )
        cache = forward_cache(params, x, masks=masks)
        grads = backward(params, cache, y, pos_weight)

        pick = np.random.default_rng(2000 + batch)
        for name in _PARAM_ORDER:
            grad_arr = getattr(grads, name)
            taken = 0
            for flat_idx in pick.permutation(grad_arr.size):
                if taken == min(6, grad_arr.size):
                    break
                fd, smooth = _probe_fd(
                    params, name, int(flat_idx), h, x, y, pos_weight, rate, masks
                )
                if not smooth:
                    skipped += 1
                    continue
                an = float(grad_arr.flat[flat_idx])
                denom = max(abs(fd), abs(an))
                if denom >= 1e-12:
                    worst = max(worst, abs(fd - an) / denom)
                taken += 1
                probes += 1
    elapsed = time.monotonic() - t0
    criterion(
        3,
        worst < 1e-3 and probes >= 50 and elapsed < 30.0,
        f"worst relative error {worst:.2e} < 1e-3 over {probes} parameters "
        f"spanning all layers, 20 random batches, step 1e-4 "
        f"({skipped} kink-straddling probes excluded), {elapsed:.1f}s < 30s",
    )


def test_criterion_4_default_benchmark_quality(bench, criterion):
    report = json.loads((bench[0] / "report.json").read_text())
    auc = report["classifier"]["mean"]["auc"]
    recall = report["aggregate"]["mean_recall"]
    fraction = (
        report["aggregate"]["total_queries_routed"]
        / report["aggregate"]["total_queries_naive"]
    )
    ok = auc is not None and auc >= 0.90 and recall >= 0.90 and fraction <= 0.50
    criterion(
        4,
        ok,
        f"default benchmark: auc {auc:.4f} >= 0.90, mean recall "
        f"{recall:.4f} >= 0.90, routed query fraction {fraction:.3f} <= 0.50",
    )


def test_criterion_5_cost_ordering_and_trace_consistency(bench, criterion):
    run = bench[0]
    aggregate = json.loads((run / "report.json").read_text())["aggregate"]
    records = [
        json.loads(line)
        for line in (run / "traces.jsonl").read_text().splitlines()
    ]
    m_total = {"naive": 0, "oracle": 0, "predicted": 0}
    byte_total = {"naive": 0, "oracle": 0, "predicted": 0}
    n_queries = 0
    for rec in records:
        m_total[rec["strategy"]] += rec["m"]
        byte_total[rec["strategy"]] += rec["bytes_moved"]
        n_queries += rec["strategy"] == "naive"

    ordered = (
        m_total["oracle"] <= m_total["predicted"] <= m_total["naive"]
        and byte_total["oracle"] <= byte_total["predicted"] <= byte_total["naive"]
    )
    totals_exact = all(
        aggregate[key] == val
        for key, val in [
            ("total_queries_naive", m_total["naive"]),
            ("total_queries_routed", m_total["predicted"]),
            ("total_queries_oracle", m_total["oracle"]),
            ("bytes_naive", byte_total["naive"]),
            ("bytes_routed", byte_total["predicted"]),
            ("bytes_oracle", byte_total["oracle"]),
        ]
    )
    denom = n_queries * aggregate["n_shards"]
    recomputed = {
        "query_reduction_pct": 100.0 * (1.0 - m_total["predicted"] / denom),
        "oracle_query_reduction_pct": 100.0 * (1.0 - m_total["oracle"] / denom),
        "volume_reduction_pct": 100.0
        * (1.0 - byte_total["predicted"] / byte_total["naive"]),
        "oracle_volume_reduction_pct": 100.0
        * (1.0 - byte_total["oracle"] / byte_total["naive"]),
    }
    worst_gap = max(abs(aggregate[key] - val) for key, val in recomputed.items())
    criterion(
        5,
        ordered and totals_exact and worst_gap <= 1e-9,
        f"oracle <= routed <= naive holds for queries "
        f"({m_total['oracle']} <= {m_total['predicted']} <= {m_total['naive']}) "
        f"and bytes; all four reduction pcts recomputed from traces, "
        f"worst gap {worst_gap:.1e} <= 1e-9",
    )


def _query_rows(run: Path) -> tuple[np.ndarray, np.ndarray]:
    """queries_train's ids and its feature rows over the manifest's shards,
    (n_queries, n_shards, f): the rows labels.npy holds, built afresh."""
    qids, qvecs = read_vectors(run / "queries_train.fvr")
    stats = [s.stats for s in import_shards(run / "manifest.json")]
    return qids, feature_rows(qvecs, stats)


def test_criterion_6_batch32_inference_latency(bench, criterion):
    run = bench[0]
    model = load_model(run / "router.rrm")
    _, rows = _query_rows(run)
    rows = rows.reshape(-1, rows.shape[-1])[:32]
    predict_batch(model, rows)  # warm-up, outside the clock
    samples = []
    for _ in range(100):
        t0 = time.perf_counter_ns()
        predict_batch(model, rows)
        samples.append(time.perf_counter_ns() - t0)
    median_ms = float(np.median(samples)) / 1e6
    criterion(
        6,
        median_ms <= 5.0,
        f"predict_batch on 32 real feature rows: median {median_ms:.3f} ms "
        f"over 100 runs <= 5 ms",
    )


def test_criterion_7_same_seed_runs_are_byte_identical(bench, criterion):
    run_a, run_b = bench
    differing = [
        name
        for name in BENCH_ARTIFACTS
        if (run_a / name).read_bytes() != (run_b / name).read_bytes()
    ]
    detail = (
        f"{len(BENCH_ARTIFACTS)} artifacts (model, report, tables, shards) "
        f"byte-identical across two same-config same-seed runs"
    )
    if differing:
        detail += f"; mismatched: {differing}"
    criterion(7, not differing, detail)


def test_criterion_8_standardization_and_normalization(bench, criterion):
    run = bench[0]
    model = load_model(run / "router.rrm")
    qids, rows = _query_rows(run)
    keep, _, _ = split_by_query(qids, SplitSpec(), BENCH_SEED)
    x = transform(model.scaler, rows[keep].reshape(-1, rows.shape[-1]))

    scaler_mean = float(np.abs(x.mean(axis=0)).max())
    scaler_std = float(np.abs(x.std(axis=0) - 1.0).max())

    cache = forward_cache(model.params, x)
    ln_mean = max(
        float(np.abs(xh.mean(axis=1)).max()) for xh in (cache.xh1, cache.xh2)
    )
    ln_var = max(
        float(np.abs(xh.var(axis=1) - 1.0).max()) for xh in (cache.xh1, cache.xh2)
    )
    ok = max(scaler_mean, scaler_std, ln_mean, ln_var) < 1e-6
    criterion(
        8,
        ok,
        f"standardized train matrix ({x.shape[0]} rows): |mean| {scaler_mean:.1e}, "
        f"|std-1| {scaler_std:.1e}; normalized pre-affine activations: "
        f"|row mean| {ln_mean:.1e}, |row var-1| {ln_var:.1e}, all < 1e-6",
    )


def test_criterion_9_auc_matches_pairwise_oracle(criterion):
    """Rank-based AUC vs the O(n^2) pairwise definition, ties included."""
    worst = 0.0
    rng = np.random.default_rng(909)
    for ds in range(20):
        n = int(rng.integers(50, 2001))
        probs = rng.random(n)
        if ds % 3 == 0:
            probs = np.round(probs, 2)  # tie-heavy
        elif ds % 3 == 1:
            probs = np.round(probs, 1)  # nearly degenerate
        labels = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.int64)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        pos = probs[labels == 1]
        neg = probs[labels == 0]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        want = (float(wins) + 0.5 * float(ties)) / (pos.size * neg.size)
        got = auc_score(probs, labels)
        worst = max(worst, abs(got - want))

    # Two small sets rescored with literal Python loops, in case the
    # broadcast oracle and the rank path share a blind spot.
    for seed in (1, 2):
        r2 = np.random.default_rng(seed)
        probs = np.round(r2.random(120), 1)
        labels = (r2.random(120) < 0.4).astype(np.int64)
        pos = [float(p) for p, l in zip(probs, labels) if l == 1]
        neg = [float(p) for p, l in zip(probs, labels) if l == 0]
        score = 0.0
        for p in pos:
            for q in neg:
                score += 1.0 if p > q else (0.5 if p == q else 0.0)
        want = score / (len(pos) * len(neg))
        worst = max(worst, abs(auc_score(probs, labels) - want))

    criterion(
        9,
        worst <= 1e-9,
        f"rank-based auc vs O(n^2) pairwise count: worst |gap| {worst:.1e} "
        f"<= 1e-9 over 22 datasets (50..2000 predictions, tie-heavy included)",
    )
