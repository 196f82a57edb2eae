"""Command-line pipeline: synth -> import -> label -> train -> eval -> report.

Configuration comes from a JSON file (--config); --k/--threshold/--seed/--out
override it. Each command is a function of that config alone: it reads and
writes only the paths the config names, and rejects an artifact made under
another seed or threshold. The top-level seed is the only one: it is passed
to every stage that draws numbers, which derives named substreams from it,
so any command rerun with the same config+seed writes identical bytes
(traces and latency.json carry wall-clock fields and are the documented
exception). Commands stage all output in memory and write nothing until
they succeed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .datasets import (
    SplitSpec,
    SyntheticSpec,
    generate_synthetic,
    import_shards,
    kmeans_shard,
    split_by_query,
)
from .features import feature_dim, feature_rows
from .federation import generate_labels, select_shards, selection_cost
from .metrics import csv_bytes, report_from_traces, render_report_files, summarize_latency
from .router import TrainConfig, load_model, predict_batch, serialize_model, train
from .store import search_top_k  # noqa: F401  (perfbench/selftest.py checks tracing wraps it here)
from .vecio import manifest_bytes, read_vectors, vector_file_bytes


@dataclass(frozen=True)
class RunConfig:
    """The whole config: run-wide values, then one block per stage. Each
    type checks its own ranges when built, so a bad value stops every
    command before it reads or writes anything. `manifest` and the query
    files default to files in `out`."""

    seed: int = 0
    k: int = 10
    threshold: float = 0.5
    out: Path = Path("run")
    manifest: Path = None
    queries_train: Path = None
    queries_eval: Path = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**63:  # the model file stores it as an i64
            raise ValueError(f"seed must be in [0, 2**63), got {self.seed}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must be in [0, 1]")
        for name, default in (("manifest", "manifest.json"), ("queries_train", "queries_train.fvr"),
                              ("queries_eval", "queries_eval.fvr")):
            if getattr(self, name) is None:
                object.__setattr__(self, name, self.out / default)

    @property
    def labels_path(self) -> Path:
        return self.out / "labels.npy"

    @property
    def hits_path(self) -> Path:
        return self.out / "hits.npy"

    @property
    def model_path(self) -> Path:
        return self.out / "router.rrm"

    @property
    def traces_path(self) -> Path:
        return self.out / "traces.jsonl"


_JSON_TYPES = {"int": int, "float": (int, float), "str": str, "Path": str}
# How a JSON value that fits a field's annotation becomes the field's value.
_FROM_JSON = {"float": float, "Path": Path, "tuple[int, int]": tuple}


def _json_type_ok(value, type_name: str) -> bool:
    """Whether a JSON value fits a config field annotated `type_name`. An
    integer fits a float; a bool, Infinity or NaN fits no number; null fits
    only `| None`."""
    if value is None:
        return type_name.endswith(" | None")
    base = type_name.removesuffix(" | None")
    if base == "tuple[int, int]":
        return isinstance(value, list) and len(value) == 2 and all(
            _json_type_ok(v, "int") for v in value
        )
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return not isinstance(value, bool) and isinstance(value, _JSON_TYPES[base])


def _build(cls, doc, where: str):
    """A `cls` built from the JSON object `doc`: each known key's value must
    fit its field's annotation, and a block field is built from its own
    object the same way. `cls` rejects unknown keys and checks ranges; every
    error names `where`."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where}: not a JSON object")
    values = dict(doc)
    for f in fields(cls):
        if f.name not in doc:
            continue
        value = doc[f.name]
        if is_dataclass(f.default_factory):
            values[f.name] = _build(f.default_factory, value, f"bad '{f.name}' config block")
        elif not _json_type_ok(value, f.type):
            json_type = f.type.replace("Path", "str")  # a path is a JSON string
            raise ValueError(f"{where}: {f.name} must be {json_type}, got {json.dumps(value)}")
        elif value is not None and (convert := _FROM_JSON.get(f.type.removesuffix(" | None"))):
            values[f.name] = convert(value)
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from exc


def load_config(args: argparse.Namespace) -> RunConfig:
    """The config file's object with the --seed/--k/--threshold/--out flags
    laid over it, built and checked as a RunConfig."""
    doc = {}
    if args.config:
        try:
            doc = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValueError(f"config {args.config} is not a JSON object")
    flags = {name: getattr(args, name) for name in ("seed", "k", "threshold", "out")}
    doc.update((name, value) for name, value in flags.items() if value is not None)
    return _build(RunConfig, doc, "bad config")


def _write_all(files: dict[Path, bytes | np.ndarray]) -> None:
    """All-or-nothing output: every file lands, or none survive. An array is
    written in .npy format, straight from memory."""
    written: list[Path] = []
    try:
        for path, data in files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            with open(tmp, "wb") as fh:
                if isinstance(data, np.ndarray):
                    np.save(fh, data)
                else:
                    fh.write(data)
            os.replace(tmp, path)
            written.append(path)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _read_queries(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Read a query file that must hold at least one query and unique ids."""
    qids, qvecs = read_vectors(path)
    if qids.size == 0:
        raise ValueError(f"{path}: no queries")
    if np.unique(qids).size != qids.size:
        raise ValueError(f"{path}: duplicate query ids")
    return qids, qvecs


def cmd_synth(cfg: RunConfig) -> None:
    data = generate_synthetic(cfg.synthetic, cfg.seed)
    shards = kmeans_shard(data.corpus, cfg.synthetic.n_clusters, cfg.seed)

    # Manifest paths are relative to the manifest's directory.
    files: dict[Path, bytes] = {}
    shard_paths: dict[int, str] = {}
    for shard in shards:
        rel = f"shards/shard_{shard.shard_id:03d}.fvr"
        shard_paths[shard.shard_id] = rel
        files[cfg.manifest.parent / rel] = vector_file_bytes(shard.ids, shard.vectors)

    files[cfg.manifest] = manifest_bytes(cfg.synthetic.dim, shard_paths)
    files[cfg.queries_train] = vector_file_bytes(
        np.arange(len(data.train_queries)), data.train_queries
    )
    files[cfg.queries_eval] = vector_file_bytes(
        np.arange(len(data.eval_queries)), data.eval_queries
    )
    _write_all(files)

    sizes = sorted(s.stats.count for s in shards)
    print(
        f"synth: {data.corpus.shape[0]} vectors (dim {cfg.synthetic.dim}) in "
        f"{len(shards)} shards, sizes {sizes[0]}..{sizes[-1]}; "
        f"{len(data.train_queries)} train + {len(data.eval_queries)} eval queries -> {cfg.out}"
    )


def cmd_import(cfg: RunConfig) -> None:
    shards = import_shards(cfg.manifest)
    print(f"import: {len(shards)} shards from {cfg.manifest}")
    for s in shards:
        print(
            f"  shard {s.shard_id}: {s.stats.count} vectors, dim {s.dim}, "
            f"density {s.stats.density:.4f}"
        )


def _hits_dtype(shards: list) -> np.dtype:
    """hits.npy's record: a query id, then its naive top-k hit count in each
    shard, one field per shard named by its id, in manifest order."""
    return np.dtype([("query_id", "<i8")] + [(f"shard_{s.shard_id}", "<i8") for s in shards])


def cmd_label(cfg: RunConfig) -> None:
    shards = import_shards(cfg.manifest)
    qids, qvecs = _read_queries(cfg.queries_train)
    table, counts = generate_labels(shards, qids, qvecs, cfg.k)
    hits = np.column_stack([qids, counts]).astype("<i8").view(_hits_dtype(shards)).ravel()

    _write_all({cfg.labels_path: table, cfg.hits_path: hits})

    n_pos = int(table["label"].sum())
    per_query = table["label"].reshape(len(qids), len(shards)).sum(axis=1)
    print(
        f"label: {len(table)} rows ({len(qids)} queries x {len(shards)} shards), "
        f"{n_pos} positive ({100.0 * n_pos / len(table):.1f}%), "
        f"mean relevant shards/query {per_query.mean():.2f}"
    )


def _read_hits(cfg: RunConfig, qids: np.ndarray, shards: list) -> np.ndarray:
    """label's (Q, n_shards) hit counts for `qids`, the queries_train ids in
    file order, checked: the records must be hits.npy's for the manifest's
    shards in its order, list exactly these queries, and split each query's
    top-k, so no count is negative and each row sums to min(k, total rows)."""
    path = cfg.hits_path
    try:
        hits = np.load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read hit counts {path}: {exc}; run label first") from exc
    want = _hits_dtype(shards)
    if hits.dtype != want:
        raise ValueError(
            f"{path}: expected records {want.descr}, got {hits.dtype.descr}; rerun label"
        )
    if not np.array_equal(hits["query_id"], qids):
        raise ValueError(f"{path}: query ids differ from {cfg.queries_train}; rerun label")
    # The fields are packed <i8, so the records view as a (Q, 1 + n_shards) matrix.
    counts = hits.view("<i8").reshape(len(qids), -1)[:, 1:]
    top = min(cfg.k, sum(s.stats.count for s in shards))
    if (counts < 0).any() or (counts.sum(axis=1) != top).any():
        raise ValueError(
            f"{path}: counts do not split each query's top-{top} over the shards; "
            f"rerun label at k={cfg.k}"
        )
    return counts


def cmd_train(cfg: RunConfig) -> None:
    try:
        table = np.load(cfg.labels_path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read labels {cfg.labels_path}: {exc}") from exc
    missing = {"query_id", "label", "features"} - set(table.dtype.names or ())
    if missing:
        raise ValueError(f"{cfg.labels_path}: not a labels table, missing fields {sorted(missing)}")
    result = train(
        table["features"], table["label"], table["query_id"], cfg.split, cfg.train, cfg.seed
    )
    # The stored threshold is the one route() selects with; eval rejects a
    # model whose threshold is not the config's, so serving agrees with it.
    model = replace(result.model, threshold=cfg.threshold)

    log = csv_bytes(
        ["epoch", "train_loss", "val_accuracy", "lr_start", "lr_end"],
        [[e.epoch, e.train_loss, e.val_accuracy, e.lr_start, e.lr_end] for e in result.history],
    )
    _write_all({cfg.model_path: serialize_model(model), cfg.out / "training_log.csv": log})
    best = result.history[result.best_epoch - 1]
    print(
        f"train: {len(result.history)} epochs on {len(table)} rows; "
        f"best epoch {result.best_epoch} (val accuracy {best.val_accuracy:.4f}) -> {cfg.model_path}"
    )


def cmd_eval(cfg: RunConfig) -> None:
    shards = import_shards(cfg.manifest)
    model = load_model(cfg.model_path)
    qids, qvecs = _read_queries(cfg.queries_train)
    _, _, test_q = split_by_query(qids, cfg.split, cfg.seed)
    keep = np.isin(qids, sorted(test_q))
    if not keep.any():
        raise ValueError("test split is empty")

    stats = [s.stats for s in shards]
    dim = shards[0].dim
    n_shards = len(shards)
    if model.input_dim != feature_dim(dim):
        raise ValueError(
            f"{cfg.model_path}: model takes {model.input_dim} features, "
            f"shards of dim {dim} give {feature_dim(dim)}"
        )
    # The split is drawn from the seed: another seed's test queries include
    # the model's training queries.
    if model.seed != cfg.seed:
        raise ValueError(
            f"{cfg.model_path}: trained with seed {model.seed}, not {cfg.seed}; rerun train"
        )
    # route() selects with the model's threshold: scoring another one would
    # report selections that serving never makes.
    if model.threshold != cfg.threshold:
        raise ValueError(
            f"{cfg.model_path}: trained with threshold {model.threshold}, "
            f"not {cfg.threshold}; rerun train"
        )
    # label's counts of each query's naive top-k hits per shard. A
    # selection's merged top-k holds every naive hit from a selected shard
    # (it ranks no lower among fewer candidates) and none from the others,
    # so its recall is the selected shards' share of the naive top-k.
    hit_counts = _read_hits(cfg, qids, shards)[keep]
    qids, qvecs = qids[keep], qvecs[keep]
    returned = np.array([min(cfg.k, s.stats.count) for s in shards])

    # Feature assembly and the router run over stacks of whole queries, at
    # most 256 rows each (one query's rows if it has more), which bounds
    # memory; a query's feature rows and probabilities have the bits of its
    # own call, and its routing latency is its stack's time shared equally.
    n_q = len(qids)
    chunk = max(1, 256 // n_shards)
    probabilities = np.empty((n_q, n_shards))
    route_latencies: list[int] = []
    for lo in range(0, n_q, chunk):
        t0 = time.perf_counter_ns()
        probabilities[lo : lo + chunk] = predict_batch(
            model, feature_rows(qvecs[lo : lo + chunk], stats)
        )
        elapsed = time.perf_counter_ns() - t0
        size = min(chunk, n_q - lo)
        route_latencies += [elapsed // size] * size

    def record(qid: int, counts: np.ndarray, strategy: str, selected: np.ndarray, **fields) -> dict:
        """One trace record; strategies differ only in the `fields` they set."""
        return {
            "query_id": qid, "k": cfg.k, "strategy": strategy, "latency_ns": 0,
            "probabilities": None, "relevant": None, "shard_recalls": None,
            "fallback_used": False, "selected": [int(v) for v in selected],
            **selection_cost(returned[selected], dim),
            "recall": int(counts[selected].sum()) / int(counts.sum()),
            **fields,
        }

    selected, fallback = select_shards(probabilities, cfg.threshold)
    traces: list[dict] = []
    for qid, probs, latency, counts, picked, fell_back in zip(
        qids.tolist(), probabilities, route_latencies, hit_counts, selected, fallback.tolist()
    ):
        relevant = counts > 0  # the oracle's selection: every shard holding a naive hit
        n_truth = int(counts.sum())
        traces += [
            record(qid, counts, "naive", np.ones(n_shards, dtype=bool),
                   shard_recalls=[c / n_truth for c in counts.tolist()]),
            record(qid, counts, "oracle", relevant),
            record(qid, counts, "predicted", picked,
                   probabilities=[float(p) for p in probs],
                   relevant=[int(v) for v in relevant],
                   fallback_used=fell_back, threshold=cfg.threshold,
                   latency_ns=latency),
        ]

    # Batch-32 inference figure: median of 100 timed runs on real feature rows.
    pick = np.arange(32)
    bench_rows = feature_rows(qvecs[pick % len(qids)], stats)[pick, pick % n_shards]
    samples = []
    for _ in range(100):
        t0 = time.perf_counter_ns()
        predict_batch(model, bench_rows)
        samples.append(time.perf_counter_ns() - t0)
    latency_block = summarize_latency(route_latencies, float(np.median(samples)))

    report = report_from_traces(traces)
    files = {
        cfg.traces_path: ("\n".join(json.dumps(t, sort_keys=True) for t in traces) + "\n").encode()
    }
    for name, blob in render_report_files(report, latency_block).items():
        files[cfg.out / name] = blob
    _write_all(files)

    agg = report["aggregate"]
    print(
        f"eval: {agg['n_queries']} test queries over {n_shards} shards (k={cfg.k}); "
        f"mean recall {agg['mean_recall']:.4f}, "
        f"queries {agg['total_queries_routed']}/{agg['total_queries_naive']} "
        f"({agg['query_reduction_pct']:.1f}% reduction), "
        f"bytes {agg['volume_reduction_pct']:.1f}% reduction"
    )
    _print_quality(report["quality"])


def _print_quality(quality: dict) -> None:
    for name, row in quality.items():
        bound = f">= {row['min']}" if "min" in row else f"<= {row['max']}"
        value = "n/a" if row["value"] is None else f"{row['value']:.4f}"
        print(f"  [{'PASS' if row['pass'] else 'FAIL'}] {name} {value} {bound}")


def cmd_report(cfg: RunConfig) -> None:
    """Rebuild the report files from the traces, which must have been made
    at the config's threshold and k."""
    try:
        lines = cfg.traces_path.read_text().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read traces {cfg.traces_path}: {exc}") from exc
    try:
        traces = [json.loads(line) for line in lines if line.strip()]
        report = report_from_traces(traces)
    except ValueError as exc:
        raise ValueError(f"{cfg.traces_path}: {exc}") from exc
    made_at = {"threshold": report["classifier"]["threshold"], "k": report["aggregate"]["k"]}
    for name, value in made_at.items():
        if value != getattr(cfg, name):
            raise ValueError(
                f"{cfg.traces_path}: made at {name} {value}, not {getattr(cfg, name)}; rerun eval"
            )
    files = {
        cfg.out / name: blob for name, blob in render_report_files(report).items()
    }
    _write_all(files)
    print(f"report: rebuilt {len(files)} files from {len(traces)} trace records")
    _print_quality(report["quality"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fedvec",
        description="Federated vector search with a learned relevance router.",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--k", type=int, help="top-k depth")
    parser.add_argument("--threshold", type=float, help="routing threshold")
    parser.add_argument("--seed", type=int, help="top-level seed")
    parser.add_argument("--out", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="generate a synthetic sharded corpus + queries")
    sub.add_parser("import", help="validate and summarize the config's shard manifest")
    sub.add_parser("label", help="derive ground-truth shard labels from naive search")
    sub.add_parser("train", help="train the relevance router")
    sub.add_parser("eval", help="run naive/oracle/predicted routing on the test split")
    sub.add_parser("report", help="rebuild report files from existing traces")
    args = parser.parse_args(argv)

    try:
        # Looked up at call time, so a wrapper set on this module (as
        # perfbench's tracer sets them) is the function that runs.
        globals()[f"cmd_{args.command}"](load_config(args))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
