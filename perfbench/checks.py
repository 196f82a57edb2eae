"""Reference computations made apart from fedvec, and the checks built on them.

Nothing here imports fedvec. Vector files, the manifest, the label table, the
model file, the traces and the report are read with this module's own
readers, and every expected value is recomputed from those bytes:

* exact top-k by brute force over the flat union of all shards (a GEMM screen
  picks candidates, then candidates are re-scored from coordinate
  differences, so the screen can never drop a true member);
* router probabilities from a forward pass written here;
* report aggregates folded again from the trace records;
* AUC from the O(n^2) pairwise definition.

Near-ties are handled with a tolerance that covers floating-point rounding
only: a row whose exact distance lies within `tol` of the k-th distance may
or may not be in a correct top-k, every row strictly closer must be.

Each check returns a list of failure strings; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

EPS = np.finfo(np.float64).eps
FVR_HEADER = struct.Struct("<4sIQ")
RRM_HEADER = struct.Struct("<4sIIIIIddq")
LN_EPS = 1e-5
MAX_REPORTED = 5  # failures listed per check before the rest are counted

# The method's own quality bar, checked on every workload that routes.
MIN_RECALL = 0.9
MAX_ROUTED_FRACTION = 0.5


# --------------------------------------------------------------------------
# Readers
# --------------------------------------------------------------------------


def read_fvr(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """FVR1 file -> (ids int64, vectors float64); f32 on disk, f64 in memory."""
    raw = Path(path).read_bytes()
    if len(raw) < FVR_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, dim, count = FVR_HEADER.unpack_from(raw)
    if magic != b"FVR1" or dim == 0:
        raise ValueError(f"{path}: not an FVR1 file")
    dtype = np.dtype([("id", "<u8"), ("vec", "<f4", (dim,))])
    if len(raw) - FVR_HEADER.size != count * dtype.itemsize:
        raise ValueError(f"{path}: size does not match {count} records")
    rec = np.frombuffer(raw, dtype=dtype, offset=FVR_HEADER.size, count=count)
    return rec["id"].astype(np.int64), rec["vec"].astype(np.float64)


@dataclass
class Corpus:
    """The flat union of every shard, in manifest order."""

    dim: int
    shard_ids: list[int]
    vectors: np.ndarray      # (N, d) float64
    vector_ids: np.ndarray   # (N,) int64
    shard_pos: np.ndarray    # (N,) position of the row's shard in shard_ids
    sizes: np.ndarray        # (S,) rows per shard
    centroids: np.ndarray    # (S, d)
    density: np.ndarray      # (S,)
    row_of: dict = field(default_factory=dict)  # (shard_id, vector_id) -> row

    @property
    def n_shards(self) -> int:
        return len(self.shard_ids)


def read_corpus(manifest: str | Path) -> Corpus:
    manifest = Path(manifest)
    doc = json.loads(manifest.read_text())
    dim = int(doc["dimension"])
    shard_ids, parts, ids, pos = [], [], [], []
    for i, entry in enumerate(doc["shards"]):
        vid, vec = read_fvr(manifest.parent / entry["path"])
        if vec.shape[1] != dim:
            raise ValueError(f"shard {entry['shard_id']}: dimension {vec.shape[1]} != {dim}")
        shard_ids.append(int(entry["shard_id"]))
        parts.append(vec)
        ids.append(vid)
        pos.append(np.full(vid.shape[0], i, dtype=np.int64))
    centroids = np.stack([p.mean(axis=0) for p in parts])
    density = np.array(
        [1.0 / (1.0 + float(np.mean(np.sqrt(((p - c) ** 2).sum(axis=1))))) for p, c in zip(parts, centroids)]
    )
    corpus = Corpus(
        dim=dim,
        shard_ids=shard_ids,
        vectors=np.concatenate(parts),
        vector_ids=np.concatenate(ids),
        shard_pos=np.concatenate(pos),
        sizes=np.array([p.shape[0] for p in parts], dtype=np.int64),
        centroids=centroids,
        density=density,
    )
    sid = np.array(shard_ids)[corpus.shard_pos]
    corpus.row_of = {(int(s), int(v)): r for r, (s, v) in enumerate(zip(sid, corpus.vector_ids))}
    return corpus


@dataclass
class Model:
    """The arrays of an RRM1 model file."""

    threshold: float
    mean: np.ndarray
    std: np.ndarray
    layers: list[np.ndarray]  # w1 b1 g1 lb1 w2 b2 g2 lb2 w3 b3


def read_model(path: str | Path) -> Model:
    raw = Path(path).read_bytes()
    magic, _version, f, _d, h1, h2, _dropout, threshold, _seed = RRM_HEADER.unpack_from(raw)
    if magic != b"RRM1":
        raise ValueError(f"{path}: not an RRM1 file")
    shapes = [(f,), (f,), (f, h1), (h1,), (h1,), (h1,), (h1, h2), (h2,), (h2,), (h2,), (h2, 1), (1,)]
    arrays, off = [], RRM_HEADER.size
    for shape in shapes:
        n = int(np.prod(shape))
        arrays.append(np.frombuffer(raw, "<f8", count=n, offset=off).reshape(shape).astype(np.float64))
        off += 8 * n
    if off + 4 != len(raw):
        raise ValueError(f"{path}: size does not match its header")
    return Model(threshold, arrays[0], arrays[1], arrays[2:])


def model_probabilities(model: Model, rows: np.ndarray) -> np.ndarray:
    """Eval-mode forward pass: standardize, (affine, layer norm, ReLU) x 2, head."""
    w1, b1, g1, lb1, w2, b2, g2, lb2, w3, b3 = model.layers
    h = (np.asarray(rows, dtype=np.float64) - model.mean) / model.std
    for w, b, g, lb in ((w1, b1, g1, lb1), (w2, b2, g2, lb2)):
        a = h @ w + b
        mu = a.mean(axis=1, keepdims=True)
        var = ((a - mu) ** 2).mean(axis=1, keepdims=True)
        h = np.maximum(g * (a - mu) / np.sqrt(np.maximum(var, LN_EPS)) + lb, 0.0)
    z = (h @ w3 + b3)[:, 0]
    return 0.5 * (1.0 + np.tanh(0.5 * z))  # logistic, overflow-free


def features(corpus: Corpus, query: np.ndarray) -> np.ndarray:
    """(S, 2d+3) rows: query | centroid | squared distance | count | density."""
    s = corpus.n_shards
    dist = ((corpus.centroids - query) ** 2).sum(axis=1)
    return np.hstack(
        [np.tile(query, (s, 1)), corpus.centroids, dist[:, None], corpus.sizes[:, None].astype(np.float64), corpus.density[:, None]]
    )


# --------------------------------------------------------------------------
# Exact top-k by brute force
# --------------------------------------------------------------------------


@dataclass
class TopK:
    """Exact top-k of one query over a set of corpus rows."""

    k: int
    exact: dict        # row -> exact squared distance, for every candidate row
    must: set          # rows strictly inside the top-k
    may: set           # rows tied with the k-th distance within rounding
    tol: float

    def recall_bounds(self, rows: set) -> tuple[float, float]:
        """Recall@k of a result holding `rows`, over every correct tie break."""
        inside = len(rows & self.must)
        tied = min(len(rows & self.may), self.k - len(self.must))
        return inside / self.k, (inside + tied) / self.k

    def shards(self, corpus: Corpus) -> tuple[set, set]:
        """(shard positions that must hold a member, positions that may)."""
        must = {int(corpus.shard_pos[r]) for r in self.must}
        may = {int(corpus.shard_pos[r]) for r in self.may}
        return must, may


class BruteForce:
    """Exact nearest neighbours over the flat union, queries in blocks."""

    def __init__(self, corpus: Corpus, k: int, block_elems: int = 4_000_000):
        self.corpus = corpus
        self.k = k
        self.sqn = np.einsum("ij,ij->i", corpus.vectors, corpus.vectors)
        self.block = max(1, block_elems // max(1, corpus.vectors.shape[0]))
        # Bound on |screen - exact| for the expanded GEMM form, from the
        # standard dot-product error bound, with a safety factor of 4.
        self.gamma = 4.0 * (corpus.dim + 4) * EPS
        self.sqn_max = float(self.sqn.max())

    def run(self, queries: np.ndarray, selections: list | None = None):
        """Yield (i, global TopK, TopK over the selected shards or None)."""
        X = self.corpus.vectors
        for lo in range(0, queries.shape[0], self.block):
            q_blk = queries[lo : lo + self.block]
            qn = np.einsum("ij,ij->i", q_blk, q_blk)
            screen = self.sqn[None, :] - 2.0 * (q_blk @ X.T) + qn[:, None]
            for j in range(q_blk.shape[0]):
                i = lo + j
                err = self.gamma * (self.sqn_max + qn[j])
                full = self._topk(screen[j], q_blk[j], err, None)
                sub = None
                if selections is not None:
                    mask = np.isin(self.corpus.shard_pos, np.flatnonzero(selections[i]))
                    sub = self._topk(screen[j], q_blk[j], err, mask)
                yield i, full, sub

    def _topk(self, screen_row, query, err, mask) -> TopK:
        X = self.corpus.vectors
        pool = np.arange(X.shape[0]) if mask is None else np.flatnonzero(mask)
        row = screen_row[pool]
        k = min(self.k, pool.shape[0])
        kth = np.partition(row, k - 1)[k - 1]
        tol = 64.0 * (self.corpus.dim + 2) * EPS * (abs(kth) + err + 1.0)
        # Every row whose exact distance is within tol of the exact k-th one
        # screens below kth + 2 err + tol.
        cand = pool[row <= kth + 2.0 * err + tol]
        diff = X[cand] - query
        exact = np.einsum("ij,ij->i", diff, diff)
        dk = np.partition(exact, k - 1)[k - 1]
        must = {int(r) for r, e in zip(cand, exact) if e < dk - tol}
        may = {int(r) for r, e in zip(cand, exact) if abs(e - dk) <= tol}
        if len(may) <= k - len(must):  # no tie to break: every tied row is in
            must, may = must | may, set()
        return TopK(k, dict(zip(cand.tolist(), exact.tolist())), must, may, tol)


def fsum_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Squared distance summed exactly (up to the final rounding)."""
    return math.fsum((float(x) - float(y)) ** 2 for x, y in zip(a, b))


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------


class Failures:
    """Collects failures of one check, listing the first few."""

    def __init__(self, name: str):
        self.name = name
        self.items: list[str] = []
        self.count = 0

    def add(self, msg: str) -> None:
        self.count += 1
        if len(self.items) < MAX_REPORTED:
            self.items.append(f"{self.name}: {msg}")

    def result(self) -> list[str]:
        extra = self.count - len(self.items)
        return self.items + ([f"{self.name}: ... and {extra} more"] if extra else [])


def check_hits(fail: Failures, tag: str, hits: list, ref: TopK, corpus: Corpus) -> set:
    """A reported hit list [(shard_id, vector_id, distance), ...] against the
    exact top-k over the same rows. Returns the set of corpus rows reported."""
    rows = []
    for sid, vid, dist in hits:
        r = corpus.row_of.get((int(sid), int(vid)))
        if r is None or r not in ref.exact:
            fail.add(f"{tag}: hit ({sid}, {vid}) is not a top-{ref.k} candidate")
            continue
        if abs(dist - ref.exact[r]) > ref.tol:
            fail.add(f"{tag}: hit ({sid}, {vid}) distance {dist!r} != exact {ref.exact[r]!r}")
        rows.append(r)
    got = set(rows)
    if len(hits) != ref.k or len(got) != len(hits):
        fail.add(f"{tag}: {len(hits)} hits ({len(got)} distinct), expected {ref.k}")
    if not ref.must <= got:
        fail.add(f"{tag}: {len(ref.must - got)} true top-{ref.k} members missing")
    if not got <= ref.must | ref.may:
        fail.add(f"{tag}: {len(got - ref.must - ref.may)} hits outside the top-{ref.k}")
    dists = [d for _, _, d in hits]
    if any(b < a - ref.tol for a, b in zip(dists, dists[1:])):
        fail.add(f"{tag}: hits not sorted by distance")
    return got


def expected_selection(probs: np.ndarray, threshold: float) -> tuple[np.ndarray, bool]:
    """p >= threshold, or the argmax shard (lowest index on ties) if none clears it."""
    sel = probs >= threshold
    if sel.any():
        return sel, False
    sel = np.zeros(probs.shape[0], dtype=bool)
    sel[int(np.argmax(probs))] = True
    return sel, True


def unit_bytes(dim: int) -> int:
    return 8 + 4 * dim


def check_labels(table: np.ndarray, corpus: Corpus, qids: np.ndarray, qvecs: np.ndarray, bf: BruteForce) -> list[str]:
    """labels.npy: one row per (query, shard), label = shard holds a true
    top-k member, features = the documented 2d+3 layout."""
    fail = Failures("labels")
    s = corpus.n_shards
    if table.shape[0] != qids.shape[0] * s:
        fail.add(f"{table.shape[0]} rows, expected {qids.shape[0]} x {s}")
        return fail.result()
    qcol = table["query_id"].reshape(-1, s)
    scol = table["shard_id"].reshape(-1, s)
    lab = table["label"].reshape(-1, s)
    feats = table["features"].reshape(qids.shape[0], s, -1)
    if not (qcol == qids[:, None]).all() or not (scol == np.array(corpus.shard_ids)[None, :]).all():
        fail.add("row order is not queries x shards in manifest order")
    for i, ref, _ in bf.run(qvecs):
        must, may = ref.shards(corpus)
        for p in range(s):
            allowed = (1,) if p in must else (0, 1) if p in may else (0,)
            if lab[i, p] not in allowed:
                fail.add(f"query {qids[i]} shard {corpus.shard_ids[p]}: label {lab[i, p]}")
        want = features(corpus, qvecs[i])
        if not np.allclose(feats[i], want, rtol=1e-9, atol=1e-9):
            fail.add(f"query {qids[i]}: feature rows differ from the documented layout")
    return fail.result()


def check_traces(traces: list[dict], corpus: Corpus, qids: np.ndarray, qvecs: np.ndarray,
                 model: Model, threshold: float, bf: BruteForce) -> list[str]:
    """eval's traces.jsonl: naive, oracle and predicted records per query."""
    fail = Failures("traces")
    by_q: dict[int, dict[str, dict]] = {}
    for t in traces:
        by_q.setdefault(t["query_id"], {})[t["strategy"]] = t
    if sorted(by_q) != sorted(qids.tolist()) or any(len(v) != 3 for v in by_q.values()):
        fail.add("trace records do not cover the test queries x 3 strategies")
        return fail.result()
    s, k, unit = corpus.n_shards, bf.k, unit_bytes(corpus.dim)
    ret = np.minimum(corpus.sizes, k)
    probs_all = model_probabilities(model, np.vstack([features(corpus, q) for q in qvecs]))
    for i, ref, _ in bf.run(qvecs):
        q = int(qids[i])
        rec = by_q[q]
        must, may = ref.shards(corpus)
        naive, oracle, pred = rec["naive"], rec["oracle"], rec["predicted"]

        if naive["m"] != s or naive["embeddings_returned"] != int(ret.sum()):
            fail.add(f"query {q}: naive m/r {naive['m']}/{naive['embeddings_returned']}")
        if naive["bytes_moved"] != (s + int(ret.sum())) * unit:
            fail.add(f"query {q}: naive bytes {naive['bytes_moved']}")
        for p, share in enumerate(naive["shard_recalls"]):
            inside = sum(1 for r in ref.must if corpus.shard_pos[r] == p)
            tied = sum(1 for r in ref.may if corpus.shard_pos[r] == p)
            if not inside / k - 1e-12 <= share <= (inside + tied) / k + 1e-12:
                fail.add(f"query {q}: naive shard_recalls[{p}] = {share}")

        osel = {p for p, v in enumerate(oracle["selected"]) if v}
        if not must <= osel <= must | may:
            fail.add(f"query {q}: oracle selection {sorted(osel)} != relevant {sorted(must)}")
        if oracle["recall"] != 1.0:
            fail.add(f"query {q}: oracle recall {oracle['recall']}")
        if pred["relevant"] != [int(p in osel) for p in range(s)]:
            fail.add(f"query {q}: predicted 'relevant' differs from the oracle selection")

        probs = np.array(pred["probabilities"])
        if not np.allclose(probs, probs_all[i * s : (i + 1) * s], rtol=0, atol=1e-9):
            fail.add(f"query {q}: probabilities differ from the reference forward pass")
        want, fallback = expected_selection(probs, threshold)
        if pred["selected"] != want.astype(int).tolist() or pred["fallback_used"] != fallback:
            fail.add(f"query {q}: predicted selection does not follow p >= {threshold} / argmax")
        for name, r in (("oracle", oracle), ("predicted", pred)):
            sel = np.array(r["selected"], dtype=bool)
            m, rr = int(sel.sum()), int(ret[sel].sum())
            if r["m"] != m or r["embeddings_returned"] != rr or r["bytes_moved"] != (m + rr) * unit:
                fail.add(f"query {q}: {name} m/r/bytes {r['m']}/{r['embeddings_returned']}/{r['bytes_moved']}, "
                         f"expected {m}/{rr}/{(m + rr) * unit}")
        # Routed recall: the routed top-k is the exact top-k of the selected
        # shards, so recall is the true members it keeps.
        sel_rows = {r for r in ref.must | ref.may if pred["selected"][corpus.shard_pos[r]]}
        lo, hi = ref.recall_bounds(sel_rows)
        if not lo - 1e-12 <= pred["recall"] <= hi + 1e-12:
            fail.add(f"query {q}: predicted recall {pred['recall']} outside [{lo}, {hi}]")
    return fail.result()


def auc_pairwise(probs, labels) -> float | None:
    """P(score of a positive > score of a negative), ties counted one half."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    pos, neg = probs[labels == 1], probs[labels == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = 0.0
    for lo in range(0, pos.size, 256):
        blk = pos[lo : lo + 256, None]
        wins += float((blk > neg[None, :]).sum()) + 0.5 * float((blk == neg[None, :]).sum())
    return wins / (pos.size * neg.size)


def fold_report(traces: list[dict], n_shards: int, threshold: float) -> dict:
    """The report aggregates, folded from trace records."""
    st = {name: [t for t in traces if t["strategy"] == name] for name in ("naive", "oracle", "predicted")}
    q = len(st["naive"])
    tot = {n: sum(t["m"] for t in v) for n, v in st.items()}
    byt = {n: sum(t["bytes_moved"] for t in v) for n, v in st.items()}
    agg = {
        "n_queries": q,
        "n_shards": n_shards,
        "k": st["naive"][0]["k"],
        "mean_recall": math.fsum(t["recall"] for t in st["predicted"]) / q,
        "total_queries_naive": tot["naive"],
        "total_queries_oracle": tot["oracle"],
        "total_queries_routed": tot["predicted"],
        "query_reduction_pct": 100.0 * (1.0 - tot["predicted"] / (q * n_shards)),
        "oracle_query_reduction_pct": 100.0 * (1.0 - tot["oracle"] / (q * n_shards)),
        "bytes_naive": byt["naive"],
        "bytes_oracle": byt["oracle"],
        "bytes_routed": byt["predicted"],
        "volume_reduction_pct": 100.0 * (1.0 - byt["predicted"] / byt["naive"]),
        "oracle_volume_reduction_pct": 100.0 * (1.0 - byt["oracle"] / byt["naive"]),
        "fallback_count": sum(1 for t in st["predicted"] if t["fallback_used"]),
    }
    per_shard = []
    for s in range(n_shards):
        p = np.array([t["probabilities"][s] for t in st["predicted"]])
        y = np.array([t["relevant"][s] for t in st["predicted"]])
        pred = p >= threshold
        tp, fp = int((pred & (y == 1)).sum()), int((pred & (y == 0)).sum())
        fn, tn = int((~pred & (y == 1)).sum()), int((~pred & (y == 0)).sum())
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        per_shard.append({
            "accuracy": (tp + tn) / y.size,
            "precision": prec,
            "recall": rec,
            "f1": 2 * prec * rec / (prec + rec) if prec + rec else 0.0,
            "auc": auc_pairwise(p, y),
        })
    mean = {}
    for key in ("accuracy", "precision", "recall", "f1", "auc"):
        vals = [row[key] for row in per_shard if row[key] is not None]
        mean[key] = math.fsum(vals) / len(vals) if vals else None
    shard_recalls = np.array([t["shard_recalls"] for t in st["naive"]])
    return {
        "aggregate": agg,
        "per_shard": per_shard,
        "mean": mean,
        "recall_by_shard": shard_recalls.mean(axis=0).tolist(),
    }


def _close(a, b, tol=1e-9) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def check_report(report: dict, traces: list[dict], n_shards: int, threshold: float) -> list[str]:
    """report.json against the aggregates folded here, AUC pairwise."""
    fail = Failures("report")
    want = fold_report(traces, n_shards, threshold)
    for key, value in want["aggregate"].items():
        if not _close(report["aggregate"].get(key), value):
            fail.add(f"aggregate {key} = {report['aggregate'].get(key)!r}, recomputed {value!r}")
    for s, row in enumerate(want["per_shard"]):
        got = report["classifier"]["per_shard"][s]
        for key, value in row.items():
            if not _close(got.get(key), value):
                fail.add(f"shard {s} {key} = {got.get(key)!r}, recomputed {value!r}")
    for key, value in want["mean"].items():
        if not _close(report["classifier"]["mean"].get(key), value):
            fail.add(f"mean {key} = {report['classifier']['mean'].get(key)!r}, recomputed {value!r}")
    for s, value in enumerate(want["recall_by_shard"]):
        if not _close(report["recall_by_shard"][s]["mean_recall"], value):
            fail.add(f"recall_by_shard[{s}] differs from the traces")
    return fail.result()


def check_serve(records: list[dict], corpus: Corpus, qids: np.ndarray, qvecs: np.ndarray,
                model: Model, bf: BruteForce, n_spot: int = 3) -> tuple[list[str], dict]:
    """Routed serving results: probabilities, selection, hits, m, bytes.

    Returns (failures, figures) where figures holds the mean recall against
    exhaustive search, shards and bytes per query, and the counts behind the
    useful-work ratios.
    """
    fail = Failures("serve")
    if [r["query_id"] for r in records] != qids.tolist():
        fail.add("served results do not follow the query file")
        return fail.result(), {}
    s, k, unit = corpus.n_shards, bf.k, unit_bytes(corpus.dim)
    ret = np.minimum(corpus.sizes, k)
    probs_all = model_probabilities(model, np.vstack([features(corpus, q) for q in qvecs]))
    selections = [np.isin(np.arange(s), r["selected"]) for r in records]
    recall_lo = recall_hi = 0.0
    useful_shards = contacted = merged = returned = 0
    for i, ref, sub in bf.run(qvecs, selections):
        rec, sel, q = records[i], selections[i], int(qids[i])
        probs = np.array(rec["probabilities"])
        if not np.allclose(probs, probs_all[i * s : (i + 1) * s], rtol=0, atol=1e-9):
            fail.add(f"query {q}: probabilities differ from the reference forward pass")
        want, fallback = expected_selection(probs, model.threshold)
        if not np.array_equal(sel, want) or rec["fallback_used"] != fallback:
            fail.add(f"query {q}: selection {rec['selected']} does not follow p >= {model.threshold} / argmax")
        m, r = int(sel.sum()), int(ret[sel].sum())
        if rec["m"] != m or rec["embeddings_returned"] != r or rec["bytes_moved"] != (m + r) * unit:
            fail.add(f"query {q}: m/r/bytes {rec['m']}/{rec['embeddings_returned']}/{rec['bytes_moved']}, "
                     f"expected {m}/{r}/{(m + r) * unit}")
        got = check_hits(fail, f"query {q}", rec["hits"], sub, corpus)
        lo, hi = ref.recall_bounds(got)
        recall_lo += lo
        recall_hi += hi
        must, _ = ref.shards(corpus)
        useful_shards += len(must & set(np.flatnonzero(sel).tolist()))
        contacted += m
        merged += len(rec["hits"])
        returned += r
    for i in range(min(n_spot, len(records))):
        for sid, vid, dist in records[i]["hits"]:
            if (sid, vid) not in corpus.row_of:
                continue  # reported above
            exact = fsum_distance(corpus.vectors[corpus.row_of[(sid, vid)]], qvecs[i])
            if abs(dist - exact) > 1e-9 * (1.0 + exact):
                fail.add(f"query {int(qids[i])}: hit ({sid}, {vid}) distance {dist!r} != fsum {exact!r}")
    n = len(records)
    figures = {
        "recall": recall_lo / n,
        "recall_hi": recall_hi / n,
        "shards_per_query": contacted / n,
        "bytes_per_query": sum(r["bytes_moved"] for r in records) / n,
        "routed_fraction": contacted / (n * s),
        "useful_shard_ratio": useful_shards / contacted,
        "useful_return_ratio": merged / returned,
    }
    return fail.result(), figures


def check_quality(name: str, recall: float, routed_fraction: float) -> list[str]:
    out = []
    if recall < MIN_RECALL:
        out.append(f"quality {name}: mean recall {recall:.4f} < {MIN_RECALL}")
    if routed_fraction > MAX_ROUTED_FRACTION:
        out.append(f"quality {name}: routed fraction {routed_fraction:.4f} > {MAX_ROUTED_FRACTION}")
    return out
