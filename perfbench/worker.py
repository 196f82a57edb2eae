"""One child process of the benchmark: a fedvec CLI stage, or a serving client.

    python3 worker.py --src SRC --result FILE [--trace] cli FEDVEC_ARGS...
    python3 worker.py --src SRC --result FILE [--trace] serve --run DIR
        --queries FILE --k K --seconds S --min-samples N [--load-only]

`cli` runs `fedvec.cli.main(FEDVEC_ARGS)` in this process. `serve` is one
closed-loop client: it loads the shards and the router, prints "ready", then
calls `route` and `federated_search` (the library defaults, no executor) on
every query of the file, in whole passes, until both S seconds and N samples
are reached. The result file gets the exit code, the process's peak RSS and,
for `serve`, per-query latencies and the first pass's results. With --trace
the spans recorded by tracing.py are written there too.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from hostclock import Window  # this script's directory is on sys.path


def serve(args) -> dict:
    from fedvec.datasets import import_shards
    from fedvec.router import load_model
    from fedvec.vecio import read_vectors
    import fedvec.federation as federation

    run = Path(args.run)
    shards = import_shards(run / "manifest.json")
    model = load_model(run / "router.rrm")
    qids, qvecs = read_vectors(args.queries)
    stats = [s.stats for s in shards]
    queries = list(zip(qids.tolist(), qvecs))
    print("ready", flush=True)
    if args.load_only:
        return {}

    def one(qid, q):
        decision = federation.route(model, qid, q, stats)
        return decision, federation.federated_search(decision, shards, q, args.k)

    for qid, q in queries[:20]:  # warm-up, not timed
        one(qid, q)

    latencies, first, failed, passes = [], {}, 0, 0
    win = Window()
    t_start = time.perf_counter_ns()
    while True:
        for i, (qid, q) in enumerate(queries):
            t0 = time.perf_counter_ns()
            try:
                decision, res = one(qid, q)
            except Exception as exc:  # counted as a failed operation
                failed += 1
                print(f"serve: query {qid}: {exc!r}", file=sys.stderr)
                continue
            latencies.append(time.perf_counter_ns() - t0)
            hits = [(h.shard_id, h.vector_id, h.distance) for h in res.hits]
            if passes == 0:
                first[i] = {
                    "query_id": qid,
                    "probabilities": decision.probabilities.tolist(),
                    "selected": [int(p) for p in decision.selected.nonzero()[0]],
                    "fallback_used": bool(decision.fallback_used),
                    "m": res.shards_queried,
                    "embeddings_returned": res.embeddings_returned,
                    "bytes_moved": res.bytes_moved,
                    "hits": hits,
                }
            elif i not in first or hits != first[i]["hits"]:
                failed += 1  # a later pass must repeat the first one exactly
        passes += 1
        t_end = time.perf_counter_ns()
        if (t_end - t_start) / 1e9 >= args.seconds and len(latencies) >= args.min_samples:
            break
    _, served = win.stop()
    return {
        "served": served,
        "attempted": passes * len(queries),
        "failed": failed,
        "passes": passes,
        "loop_ns": [t_start, t_end],
        "latencies_ns": latencies,
        "records": [first[i] for i in sorted(first)],
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    sub = p.add_subparsers(dest="mode", required=True)
    sub.add_parser("cli")  # everything after "cli" is fedvec's command line
    p_srv = sub.add_parser("serve")
    p_srv.add_argument("--run", required=True)
    p_srv.add_argument("--queries", required=True)
    p_srv.add_argument("--k", type=int, required=True)
    p_srv.add_argument("--seconds", type=float, required=True)
    p_srv.add_argument("--min-samples", type=int, required=True)
    p_srv.add_argument("--load-only", action="store_true")
    argv = sys.argv[1:]
    fedvec_argv = argv[argv.index("cli") + 1 :] if "cli" in argv else []
    args = p.parse_args(argv[: len(argv) - len(fedvec_argv)])

    sys.path.insert(0, args.src)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    if args.mode == "cli":
        import fedvec.cli

        out = {"rc": fedvec.cli.main(fedvec_argv)}
    else:
        out = serve(args)
        out["rc"] = 0
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        out["trace"] = tracer.dump()
    Path(args.result).write_text(json.dumps(out))
    return out["rc"]


if __name__ == "__main__":
    sys.exit(main())
