"""Self-tests for the benchmark's checks and tracing.

    python3 perfbench/selftest.py        # from the repository root

A small federation is run through fedvec's CLI and a serving loop. Every
check must pass on those outputs, and must fail once a deliberately wrong
result is fed in: a dropped hit, a flipped label, an off-by-one byte count,
a wrong selection, a perturbed probability, a tampered report. A correct
reordering of tied neighbours must still pass. The tracing wrappers are
tested for lost updates under threads and for their interval arithmetic.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))
sys.dont_write_bytecode = True

import checks  # noqa: E402
import tracing  # noqa: E402

RESULTS: list[tuple[str, bool]] = []


def expect(name: str, failures: list[str], should_fail: bool) -> None:
    ok = bool(failures) == should_fail
    RESULTS.append((name, ok))
    detail = failures[0] if failures else "no failures"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")


def build_run(work: Path) -> dict:
    """Synth, label, train, eval through the CLI, then one serving pass."""
    from fedvec.cli import main
    from fedvec.datasets import import_shards
    from fedvec.federation import federated_search, route
    from fedvec.router import load_model
    from fedvec.vecio import read_vectors

    cfg = work / "config.json"
    cfg.write_text(json.dumps({
        "seed": 3, "k": 5, "out": str(work / "run"),
        "synthetic": {"n_clusters": 6, "dim": 8, "points_per_cluster": [60, 120],
                      "center_radius": 8.0, "n_train_queries": 120, "n_eval_queries": 40},
        "train": {"epochs": 8},
    }))
    for stage in ("synth", "label", "train", "eval"):
        if main(["--config", str(cfg), stage]) != 0:
            raise SystemExit(f"fedvec {stage} failed")
    run = work / "run"
    shards = import_shards(run / "manifest.json")
    model = load_model(run / "router.rrm")
    qids, qvecs = read_vectors(run / "queries_eval.fvr")
    records = []
    for qid, q in zip(qids.tolist(), qvecs):
        d = route(model, qid, q, [s.stats for s in shards])
        r = federated_search(d, shards, q, 5)
        records.append({
            "query_id": qid, "probabilities": d.probabilities.tolist(),
            "selected": [int(p) for p in d.selected.nonzero()[0]],
            "fallback_used": bool(d.fallback_used), "m": r.shards_queried,
            "embeddings_returned": r.embeddings_returned, "bytes_moved": r.bytes_moved,
            "hits": [(h.shard_id, h.vector_id, h.distance) for h in r.hits],
        })
    return {"run": run, "records": records}


def test_checks(work: Path) -> None:
    built = build_run(work)
    run, records = built["run"], built["records"]
    corpus = checks.read_corpus(run / "manifest.json")
    bf = checks.BruteForce(corpus, 5)
    model = checks.read_model(run / "router.rrm")
    tq_ids, tq_vecs = checks.read_fvr(run / "queries_train.fvr")
    eq_ids, eq_vecs = checks.read_fvr(run / "queries_eval.fvr")
    table = np.load(run / "labels.npy")
    traces = [json.loads(line) for line in (run / "traces.jsonl").read_text().splitlines() if line]
    report = json.loads((run / "report.json").read_text())
    test_ids = np.array(sorted({t["query_id"] for t in traces}))
    test_vecs = tq_vecs[np.searchsorted(tq_ids, test_ids)]

    def labels(t):
        return checks.check_labels(t, corpus, tq_ids, tq_vecs, bf)

    def trace_check(tr):
        return checks.check_traces(tr, corpus, test_ids, test_vecs, model, 0.5, bf)

    def serve(recs):
        return checks.check_serve(recs, corpus, eq_ids, eq_vecs, model, bf)[0]

    expect("labels as written", labels(table), False)
    expect("traces as written", trace_check(traces), False)
    expect("report as written", checks.check_report(report, traces, corpus.n_shards, 0.5), False)
    fails, figures = checks.check_serve(records, corpus, eq_ids, eq_vecs, model, bf)
    expect("served results as returned", fails, False)

    bad = table.copy()
    i = int(np.flatnonzero(bad["label"] == 1)[0])
    bad["label"][i] = 0
    expect("flipped label (1 -> 0)", labels(bad), True)
    bad = table.copy()
    bad["label"][int(np.flatnonzero(bad["label"] == 0)[0])] = 1
    expect("flipped label (0 -> 1)", labels(bad), True)
    bad = table.copy()
    bad["features"][0, -1] += 1e-3
    expect("perturbed density feature", labels(bad), True)

    def mutate_trace(strategy, fn):
        tr = copy.deepcopy(traces)
        rec = next(t for t in tr if t["strategy"] == strategy)
        fn(rec)
        return tr

    expect("naive bytes off by one", trace_check(mutate_trace("naive", lambda r: r.update(bytes_moved=r["bytes_moved"] + 1))), True)
    expect("predicted bytes off by one", trace_check(mutate_trace("predicted", lambda r: r.update(bytes_moved=r["bytes_moved"] - 1))), True)

    def flip_sel(r):
        r["selected"][0] = 1 - r["selected"][0]

    expect("wrong predicted selection", trace_check(mutate_trace("predicted", flip_sel)), True)
    expect("wrong oracle selection", trace_check(mutate_trace("oracle", flip_sel)), True)
    expect("oracle recall below 1", trace_check(mutate_trace("oracle", lambda r: r.update(recall=0.9))), True)
    expect("predicted recall off by 1/k", trace_check(mutate_trace("predicted", lambda r: r.update(recall=r["recall"] - 0.2))), True)

    def nudge_prob(r):
        r["probabilities"][0] += 1e-6

    expect("perturbed probability", trace_check(mutate_trace("predicted", nudge_prob)), True)

    bad_rep = copy.deepcopy(report)
    bad_rep["aggregate"]["mean_recall"] += 1e-6
    expect("report mean_recall tampered", checks.check_report(bad_rep, traces, corpus.n_shards, 0.5), True)
    bad_rep = copy.deepcopy(report)
    bad_rep["classifier"]["per_shard"][0]["auc"] -= 1e-6
    expect("report auc tampered", checks.check_report(bad_rep, traces, corpus.n_shards, 0.5), True)
    bad_rep = copy.deepcopy(report)
    bad_rep["aggregate"]["bytes_routed"] += 1
    expect("report bytes off by one", checks.check_report(bad_rep, traces, corpus.n_shards, 0.5), True)

    def mutate_rec(fn):
        recs = copy.deepcopy(records)
        fn(recs[0])
        return recs

    expect("dropped hit", serve(mutate_rec(lambda r: r["hits"].pop(2))), True)
    far = int(np.argmax(((corpus.vectors - eq_vecs[0]) ** 2).sum(axis=1)))
    far_hit = (corpus.shard_ids[corpus.shard_pos[far]], int(corpus.vector_ids[far]), records[0]["hits"][-1][2])
    expect("hit replaced by a far vector", serve(mutate_rec(lambda r: r["hits"].__setitem__(-1, far_hit))), True)
    expect("hit distance off by 1e-6", serve(mutate_rec(
        lambda r: r["hits"].__setitem__(0, (r["hits"][0][0], r["hits"][0][1], r["hits"][0][2] + 1e-6)))), True)
    expect("served bytes off by one", serve(mutate_rec(lambda r: r.update(bytes_moved=r["bytes_moved"] + 1))), True)

    def add_shard(r):
        spare = [p for p in range(corpus.n_shards) if p not in r["selected"]]
        r["selected"] = sorted(r["selected"] + spare[:1])

    expect("wrong served selection", serve(mutate_rec(add_shard)), True)
    expect("fallback flag flipped", serve(mutate_rec(lambda r: r.update(fallback_used=not r["fallback_used"]))), True)

    expect("quality bar met", checks.check_quality("x", 0.95, 0.2), False)
    expect("recall below 0.9", checks.check_quality("x", 0.89, 0.2), True)
    expect("routed fraction above 0.5", checks.check_quality("x", 0.95, 0.51), True)


def test_ties() -> None:
    """Shards 0 and 1 hold the same points: a result may break the tie at the
    k-th distance either way, but may not drop a strictly closer point."""
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((20, 4))
    vec = np.vstack([pts, pts])
    corpus = checks.Corpus(
        dim=4, shard_ids=[0, 1], vectors=vec, vector_ids=np.arange(40),
        shard_pos=np.repeat([0, 1], 20), sizes=np.array([20, 20]),
        centroids=np.stack([pts.mean(0)] * 2), density=np.ones(2),
    )
    corpus.row_of = {(int(p), int(v)): v for v, p in zip(range(40), corpus.shard_pos)}
    q = rng.standard_normal(4)
    (_, ref, _), = checks.BruteForce(corpus, 3).run(q[None, :])
    d = ((vec - q) ** 2).sum(1)
    order = np.lexsort((np.arange(40), corpus.shard_pos, d))[:4]  # pairs of twins
    hits = [(int(corpus.shard_pos[r]), int(r), float(d[r])) for r in order[:3]]
    fail = checks.Failures("ties")
    checks.check_hits(fail, "canonical", hits, ref, corpus)
    expect("canonical tie break", fail.result(), False)
    twin = int(order[3])  # the other copy of the 3rd hit's point
    alt = hits[:2] + [(int(corpus.shard_pos[twin]), twin, float(d[twin]))]
    fail = checks.Failures("ties")
    checks.check_hits(fail, "other tie break", alt, ref, corpus)
    expect("other tie break at the k-th distance", fail.result(), False)
    fail = checks.Failures("ties")
    far = int(np.argmax(d))
    checks.check_hits(fail, "closer point dropped", [hits[0], hits[2], (int(corpus.shard_pos[far]), far, float(d[far]))], ref, corpus)
    expect("closer point dropped", fail.result(), True)
    exact = checks.fsum_distance(vec[order[0]], q)
    expect("fsum agrees with numpy", [] if abs(exact - d[order[0]]) <= 1e-12 * (1 + exact) else ["differs"], False)


def test_auc() -> None:
    got = checks.auc_pairwise([0.9, 0.4, 0.4, 0.1], [1, 1, 0, 0])
    expect("pairwise auc with a tie", [] if got == 0.875 else [f"auc {got}"], False)
    expect("single-class auc is undefined", [] if checks.auc_pairwise([0.2], [1]) is None else ["defined"], False)


def test_tracing() -> None:
    def work(x):
        return x + 1

    tr2 = tracing.Tracer()
    wrapped = tr2.wrap("federation.merge_hits", work)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [wrapped(i) for i in range(3000)]) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        alive = any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    n = len(tr2.dump()["spans"])
    expect("no span lost under 8 threads", [] if n == 24000 and not alive else [f"{n} spans"], False)

    spans = [("a", 0, 100), ("b", 10, 30), ("c", 20, 50), ("c", 70, 80), ("d", 200, 300)]
    expect("union of overlapping intervals", [] if tracing.union_ns([(10, 30), (20, 50), (70, 80)]) == 50 else ["union"], False)
    expect("self time is duration minus covered", [] if tracing.self_ns(spans, "a") == 50 else ["self"], False)

    import fedvec.cli
    import fedvec.federation
    import fedvec.store

    tr3 = tracing.Tracer()
    originals = {m: m.search_top_k for m in (fedvec.cli, fedvec.federation, fedvec.store)}
    tr3.install()
    try:
        same = fedvec.cli.search_top_k is fedvec.federation.search_top_k is fedvec.store.search_top_k
        wrapped_all = same and fedvec.store.search_top_k is not originals[fedvec.store]
    finally:
        for m, fn in originals.items():
            m.search_top_k = fn
    expect("search_top_k wrapped in every module that imports it", [] if wrapped_all else ["not wrapped"], False)


def main() -> int:
    if not (Path.cwd() / "src" / "fedvec" / "__init__.py").is_file():
        print("error: run from the repository root (needs src/fedvec)", file=sys.stderr)
        return 2
    work = HERE / "out" / f"selftest-{time.time_ns()}"
    work.mkdir(parents=True)
    try:
        test_checks(work)
        test_ties()
        test_auc()
        test_tracing()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bad = [name for name, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)}/{len(RESULTS)} self-tests passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
