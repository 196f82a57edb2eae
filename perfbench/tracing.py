"""Spans around fedvec's public functions, recorded from outside the package.

`install()` replaces each traced function with a wrapper in every fedvec
module that holds it by name (so `fedvec.cli.search_top_k` is wrapped as well
as `fedvec.store.search_top_k`). Wrappers append (name, start, end) to one
list under a lock, because `search_top_k` runs in the CLI's thread pool, and
add a few work counters read off the arguments and results.

Spans stay in memory until `summary()` folds them into per-layer figures:
busy time (sum of durations), wall time (union of intervals), and self time
(a span's duration minus the union of the other spans inside it).
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time

# module -> functions wrapped there; span names are "<module>.<function>",
# except cli.cmd_<stage>, which is named "cli.<stage>".
TRACED = {
    "store": ["search_top_k"],
    "features": ["assemble_features"],
    "router": ["predict_batch", "forward_cache", "backward", "forward", "train"],
    "federation": ["route", "federated_search", "generate_labels", "merge_hits", "result_from_hit_lists"],
    "metrics": ["report_from_traces", "render_report_files"],
    "vecio": ["read_vectors"],
    "datasets": ["generate_synthetic", "kmeans", "import_shards"],
    "cli": ["cmd_synth", "cmd_label", "cmd_train", "cmd_eval", "cmd_report"],
}
MODULES = ["store", "vecio", "features", "datasets", "router", "federation", "metrics", "cli"]


def span_name(module: str, fn_name: str) -> str:
    return f"cli.{fn_name[4:]}" if module == "cli" else f"{module}.{fn_name}"


class Tracer:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.spans: list[tuple[str, int, int]] = []
        self.counts: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn):
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                with self.lock:
                    self.spans.append((name, t0, t1))
            if count is not None:
                count(self, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"fedvec.{m}") for m in MODULES}
        for home, names in TRACED.items():
            for fn_name in names:
                original = getattr(mods[home], fn_name)
                wrapped = self.wrap(span_name(home, fn_name), original)
                for mod in mods.values():
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapped)

    def dump(self) -> dict:
        with self.lock:
            return {"spans": list(self.spans), "counts": dict(self.counts)}


def _count_search(tr: Tracer, args, kwargs, out) -> None:
    index = args[0] if args else kwargs["index"]
    tr.add("store.rows_scanned", index.vectors.shape[0])


def _count_predict(tr: Tracer, args, kwargs, out) -> None:
    tr.add("router.predict_batch.rows", out.shape[0])


def _count_backward(tr: Tracer, args, kwargs, out) -> None:
    tr.add("router.steps", 1)


def _count_read(tr: Tracer, args, kwargs, out) -> None:
    path = args[0] if args else kwargs["path"]
    tr.add("vecio.bytes_read", os.path.getsize(path))


def _count_kmeans(tr: Tracer, args, kwargs, out) -> None:
    tr.add("datasets.kmeans.iterations", len(out[2]))


_COUNTERS = {
    "store.search_top_k": _count_search,
    "router.predict_batch": _count_predict,
    "router.backward": _count_backward,
    "vecio.read_vectors": _count_read,
    "datasets.kmeans": _count_kmeans,
}


# --------------------------------------------------------------------------
# Folding spans into per-layer figures
# --------------------------------------------------------------------------


def union_ns(intervals) -> int:
    """Length of the union of [start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_ns(spans, name: str) -> int:
    """Sum over spans called `name` of their duration minus the union of the
    other spans (any thread) that lie inside them."""
    own = sorted((s, e) for n, s, e in spans if n == name)
    if not own:
        return 0
    others = sorted((s, e) for n, s, e in spans if n != name)
    total = 0
    for s, e in own:
        inside = [(a, b) for a, b in others if a >= s and b <= e]
        total += (e - s) - union_ns(inside)
    return total


def summary(dumps: list[dict]) -> dict:
    """Per-layer figures over the spans and counts of several processes."""
    spans, counts = [], {}
    for d in dumps:
        spans.extend(tuple(x) for x in d["spans"])
        for key, value in d["counts"].items():
            counts[key] = counts.get(key, 0) + value
    busy: dict[str, int] = {}
    calls: dict[str, int] = {}
    for n, s, e in spans:
        busy[n] = busy.get(n, 0) + (e - s)
        calls[n] = calls.get(n, 0) + 1
    out = {}
    for home, names in TRACED.items():
        for fn_name in names:
            span = span_name(home, fn_name)
            out[f"{span}.calls"] = calls.get(span, 0)
            out[f"{span}.busy_ms"] = busy.get(span, 0) / 1e6
    out["store.search_top_k.wall_ms"] = union_ns((s, e) for n, s, e in spans if n == "store.search_top_k") / 1e6
    for span in ("router.train", "cli.label", "cli.train", "cli.eval"):
        out[f"{span}.self_ms"] = self_ns(spans, span) / 1e6
    out.update(counts)
    rows = counts.get("store.rows_scanned", 0)
    out["store.ns_per_row"] = busy.get("store.search_top_k", 0) / rows if rows else 0.0
    return out
