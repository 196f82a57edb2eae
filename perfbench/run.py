"""fedvec benchmark: workloads, end-to-end metrics, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a fedvec checkout; the program is imported from
./src. Each CLI stage and the serving client run as child processes
(worker.py) with FEDVEC_THREADS unset, so fedvec runs at its defaults.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced pass, together with the tracing overhead against an untraced pass
of the same work. Either way the outputs are checked against the
independent reference in checks.py after the timed phase. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

import checks  # this script's directory is on sys.path
import tracing
from hostclock import Window

HERE = Path(__file__).resolve().parent

CHILD_TIMEOUT_S = 170
SERVE_MIN_SAMPLES = 1000  # served queries per run at least, whatever --seconds


@dataclass(frozen=True)
class Workload:
    config: dict             # fedvec config, less "seed" and "out"
    setup: tuple             # CLI stages run before the first measured operation
    timed: tuple             # CLI stages measured, in order, then the serving client
    setup_reps: int          # set-ups per run; setup_s is their median
    load_in_setup: bool      # loading shards and model counts as set-up


WORKLOADS = {
    # The README quickstart: 10 shards, ~11.5k x 32 vectors, 2000 train
    # queries, 50 epochs; every layer runs, label/eval are many small scans.
    "pipeline-default": Workload(
        config={"k": 10},
        setup=("synth",),
        timed=("label", "train", "eval", "report"),
        setup_reps=3,
        load_in_setup=False,
    ),
    # The paper's query-time path: 40 shards, a router trained in set-up,
    # one closed-loop client on 2000 held-out queries.
    "serve-routed": Workload(
        config={
            "k": 10,
            "synthetic": {"n_clusters": 40, "points_per_cluster": [200, 800], "center_radius": 8.0,
                          "n_train_queries": 300, "n_eval_queries": 2000},
            "train": {"epochs": 12},
            "split": {"train_frac": 0.6, "val_frac": 0.1, "test_frac": 0.3},
        },
        setup=("synth", "label", "train"),
        timed=("eval", "report"),
        setup_reps=2,
        load_in_setup=True,
    ),
    # Few large, 64-dimensional shards (8 MB each, well above L2): scan
    # arithmetic and memory traffic dominate label, and the default thread
    # pool helps. Not in BENCHMARK.json: its serving times swing with the
    # host's memory from run to run (see README.md).
    "label-large-shards": Workload(
        config={
            "k": 10,
            "synthetic": {"n_clusters": 4, "dim": 64, "points_per_cluster": [16000, 16000],
                          "center_radius": 100.0, "n_train_queries": 300, "n_eval_queries": 1100},
        },
        setup=("synth",),
        timed=("label", "train", "eval", "report"),
        setup_reps=3,
        load_in_setup=False,
    ),
}

END_TO_END_UNITS = {
    "setup_s": "s", "label_s": "s", "train_s": "s", "eval_s": "s",
    "serve_qps": "1/s", "serve_p50_ms": "ms", "serve_p90_ms": "ms",
    "shards_per_query": "shards", "bytes_per_query": "bytes",
    "recall": "ratio", "auc": "ratio", "peak_rss_mb": "MiB",
}


class StageFailed(Exception):
    pass


@dataclass
class Pass:
    """What one pass over a workload measured."""

    setup_s: list = field(default_factory=list)
    stage_s: dict = field(default_factory=dict)   # stage -> [seconds, ...]
    timed_rss_kb: int = 0
    serve: dict = field(default_factory=dict)      # the serving client's result
    traces: list = field(default_factory=list)     # tracer dumps, every process
    attempted: int = 0
    failed: int = 0
    work_s: float = 0.0                            # stage walls + serve loops


class Runner:
    def __init__(self, root: Path, work: Path, wl: Workload, seed: int, threads: str | None):
        self.root, self.work, self.wl = root, work, wl
        self.run_dir = work / "run"
        self.config = work / "config.json"
        self.config.write_text(json.dumps({**wl.config, "seed": seed, "out": str(self.run_dir)}))
        self.env = {k: v for k, v in os.environ.items() if k != "FEDVEC_THREADS"}
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        if threads is not None:
            self.env["FEDVEC_THREADS"] = threads
        self.n = 0

    def _worker(self, args: list, trace: bool) -> tuple[list, Path]:
        self.n += 1
        result = self.work / f"result_{self.n}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(self.root / "src"),
               "--result", str(result)] + (["--trace"] if trace else []) + args
        return cmd, result

    def stage(self, name: str, trace: bool) -> tuple[float, dict]:
        cmd, result = self._worker(["cli", "--config", str(self.config), name], trace)
        win = Window()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall, served = win.stop()
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.stderr.write(f"  [{name}: wall {wall:.3f} s, host served {served:.1%} of CPU demand]\n")
        if proc.returncode != 0 or not result.exists():
            raise StageFailed(f"fedvec {name} exited {proc.returncode}")
        return wall * served, json.loads(result.read_text())

    def serve(self, trace: bool, seconds: float, min_samples: int, load_only: bool) -> tuple[float, dict]:
        """Start the serving client; returns (seconds until it has loaded, its result)."""
        args = ["serve", "--run", str(self.run_dir), "--queries", str(self.run_dir / "queries_eval.fvr"),
                "--k", str(self.wl.config["k"]), "--seconds", str(seconds), "--min-samples", str(min_samples)]
        cmd, result = self._worker(args + (["--load-only"] if load_only else []), trace)
        win = Window()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            wall, served = win.stop()
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if line.strip() != "ready" or proc.returncode != 0 or not result.exists():
            raise StageFailed(f"serving client exited {proc.returncode}: {line}{rest}")
        return wall * served, json.loads(result.read_text())

    def one_pass(self, seconds: float, trace: bool, reps: int, serve_passes: int | None = None) -> Pass:
        """Set up `reps` times, then run the timed stages once and serve for
        `seconds` (or exactly `serve_passes` passes over the queries)."""
        wl, out = self.wl, Pass()
        for _ in range(reps):
            total = 0.0
            for name in wl.setup:
                wall, res = self.stage(name, trace)
                total += wall
                out.stage_s.setdefault(name, []).append(wall)
                out.traces.append(res.get("trace"))
            if wl.load_in_setup:
                load_s, res = self.serve(trace, 0, 0, load_only=True)
                total += load_s
                out.traces.append(res.get("trace"))
            out.setup_s.append(total)
            out.work_s += total

        for name in wl.timed:
            out.attempted += 1
            wall, res = self.stage(name, trace)
            out.stage_s.setdefault(name, []).append(wall)
            out.timed_rss_kb = max(out.timed_rss_kb, res["maxrss_kb"])
            out.traces.append(res.get("trace"))
            out.work_s += wall
        if serve_passes is None:
            _, res = self.serve(trace, seconds, SERVE_MIN_SAMPLES, load_only=False)
        else:
            n_q = checks.read_fvr(self.run_dir / "queries_eval.fvr")[0].shape[0]
            _, res = self.serve(trace, 0, serve_passes * n_q, load_only=False)
        out.attempted += res["attempted"]
        out.failed += res["failed"]
        out.timed_rss_kb = max(out.timed_rss_kb, res["maxrss_kb"])
        out.serve = res
        out.traces.append(res.get("trace"))
        out.work_s += (res["loop_ns"][1] - res["loop_ns"][0]) / 1e9 * res["served"]
        return out


def verify(run_dir: Path, k: int, serve_res: dict, threshold: float) -> tuple[list[str], dict]:
    """Every check of checks.py on the artifacts of the last round."""
    corpus = checks.read_corpus(run_dir / "manifest.json")
    bf = checks.BruteForce(corpus, k)
    model = checks.read_model(run_dir / "router.rrm")
    failures = []

    tq_ids, tq_vecs = checks.read_fvr(run_dir / "queries_train.fvr")
    table = np.load(run_dir / "labels.npy")
    failures += checks.check_labels(table, corpus, tq_ids, tq_vecs, bf)

    traces = [json.loads(line) for line in (run_dir / "traces.jsonl").read_text().splitlines() if line]
    test_ids = np.array(sorted({t["query_id"] for t in traces}), dtype=np.int64)
    pos = {q: i for i, q in enumerate(tq_ids.tolist())}
    if not test_ids.size or any(q not in pos for q in test_ids.tolist()):
        failures.append("traces: query ids are not a nonempty subset of queries_train")
    else:
        rows = np.array([pos[q] for q in test_ids.tolist()])
        failures += checks.check_traces(traces, corpus, test_ids, tq_vecs[rows], model, threshold, bf)
    report = json.loads((run_dir / "report.json").read_text())
    failures += checks.check_report(report, traces, corpus.n_shards, threshold)

    eq_ids, eq_vecs = checks.read_fvr(run_dir / "queries_eval.fvr")
    serve_fail, figures = checks.check_serve(serve_res["records"], corpus, eq_ids, eq_vecs, model, bf)
    failures += serve_fail
    if figures:
        failures += checks.check_quality("serve", figures["recall"], figures["routed_fraction"])
    agg = report["aggregate"]
    failures += checks.check_quality("eval", agg["mean_recall"], agg["total_queries_routed"] / agg["total_queries_naive"])
    figures["auc"] = report["classifier"]["mean"]["auc"]
    return failures, figures


def end_to_end(p: Pass, figures: dict) -> dict:
    # Per-query latencies scaled by the share of CPU demand the host served
    # during the serving loop (see hostclock.py).
    srv = p.serve
    lat_ms = np.array(srv["latencies_ns"], dtype=np.float64) * srv["served"] / 1e6
    loop_s = (srv["loop_ns"][1] - srv["loop_ns"][0]) / 1e9 * srv["served"]
    p90 = float(np.percentile(lat_ms, 90))
    values = {
        "setup_s": statistics.median(p.setup_s),
        "label_s": statistics.median(p.stage_s["label"]),
        "train_s": statistics.median(p.stage_s["train"]),
        "eval_s": statistics.median(p.stage_s["eval"]),
        "serve_qps": lat_ms.size / loop_s,
        "serve_p50_ms": float(np.median(lat_ms)),
        "serve_p90_ms": p90,
        "shards_per_query": figures["shards_per_query"],
        "bytes_per_query": figures["bytes_per_query"],
        "recall": figures["recall"],
        "auc": figures["auc"],
        "peak_rss_mb": p.timed_rss_kb / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(traced: Pass, plain: Pass, figures: dict) -> dict:
    names = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    values = tracing.summary([t for t in traced.traces if t])
    # The serving client alone, per query, inside its timed loop.
    srv = traced.serve
    lo, hi = srv["loop_ns"]
    for span in ("federation.route", "federation.federated_search", "store.search_top_k",
                 "features.assemble_features", "router.predict_batch"):
        busy = sum(e - s for n, s, e in srv["trace"]["spans"] if n == span and lo <= s and e <= hi)
        values[f"serve.{span.split('.')[1]}.us_per_query"] = busy / 1e3 / len(srv["latencies_ns"])
    values["federation.useful_shard_ratio"] = figures["useful_shard_ratio"]
    values["federation.useful_return_ratio"] = figures["useful_return_ratio"]
    values["trace.overhead_ms"] = (traced.work_s - plain.work_s) * 1e3
    values["trace.overhead_pct"] = 100.0 * (traced.work_s - plain.work_s) / plain.work_s
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fedvec-threads", help="set FEDVEC_THREADS for fedvec (reference figures only)")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "fedvec" / "__init__.py").is_file():
        print(f"error: no fedvec sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = HERE / "out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(root, work, wl, abs(args.seed), args.fedvec_threads)
    try:
        if args.trace:
            plain = runner.one_pass(0, trace=False, reps=1)
            result = runner.one_pass(0, trace=True, reps=1, serve_passes=plain.serve["passes"])
        else:
            result = runner.one_pass(args.seconds, trace=False, reps=wl.setup_reps)
        threshold = json.loads(runner.config.read_text()).get("threshold", 0.5)
        t0 = time.perf_counter()
        failures, figures = verify(runner.run_dir, wl.config["k"], result.serve, threshold)
        print(f"checks: {len(failures)} failures in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
        if args.trace:
            metrics = per_layer(result, plain, figures)
        else:
            metrics = end_to_end(result, figures)
    except (StageFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
