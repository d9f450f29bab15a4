"""One fresh process holding one eager scorer, serving the query stream.

Run by the ``serve`` workload, never imported by it:

    python3 perfbench/serve_child.py INDEX_DIR QUERIES.parquet OUT_PREFIX WARM_PASSES TRACE

The process constructs one eager ``BM25Scorer`` in the serving mode, sends the stream
one query at a time (closed loop: the next query only after the previous
answer), first cold and then ``WARM_PASSES`` more times, and writes
``OUT_PREFIX.json`` (timings, peak RSS, failures, spans) and
``OUT_PREFIX.npz`` (the cold pass's top-k, for the parent's check). Warm
throughput is the stream over the median warm pass; a query's warm latency
is the median of its warm passes, each pass rotating the process over the
allowed vCPUs. A query that raises is counted as failed and the stream goes
on. Warm passes must return bitwise the cold pass's results; a mismatch is
counted, not hidden.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

CHUNK = 50  # queries between vCPU moves in a warm pass


def main() -> None:
    index_dir, queries_path, out_prefix, warm_passes, trace = sys.argv[1:6]
    import numpy as np
    import pyarrow.parquet as pq

    from docinsight_ray.scorer import BM25Scorer
    from perfbench.tracer import Tracer
    from perfbench.workloads import SERVE_MODE, _cfg

    tracer = Tracer(trace == "1")
    q = pq.read_table(queries_path)
    texts = q["text"].to_pylist()
    ks = q["k"].to_pylist()
    t0 = time.perf_counter()
    with tracer.span("scorer.BM25Scorer"):
        scorer = BM25Scorer(index_dir, _cfg(), mode=SERVE_MODE)
    init_s = time.perf_counter() - t0
    score = getattr(scorer, f"score_{SERVE_MODE}")

    cpus = sorted(os.sched_getaffinity(0))

    def one_pass(rotate: int | None = None):
        lat = np.empty(len(texts), dtype=np.float64)
        out = []
        t_pass = time.perf_counter()
        for i, (text, k) in enumerate(zip(texts, ks)):
            if rotate is not None and i % CHUNK == 0:
                os.sched_setaffinity(0, {cpus[(rotate + i // CHUNK) % len(cpus)]})
            t = time.perf_counter()
            try:
                with tracer.span(f"scorer.score_{SERVE_MODE}"):
                    out.append(score(text, k))
            except Exception as e:  # counted as a failed query; the stream goes on
                print(f"serve_child: query {i} raised {e!r}", file=sys.stderr)
                out.append(None)
            lat[i] = time.perf_counter() - t
        return time.perf_counter() - t_pass, lat, out

    cold_s, _, cold = one_pass()
    failed = sum(r is None for r in cold)
    warm_s, warm_lat = [], []
    mismatches = 0
    for p in range(int(warm_passes)):
        s, lat, res = one_pass(rotate=p)
        warm_s.append(s)
        warm_lat.append(lat)
        failed += sum(r is None for r in res)
        mismatches += sum(
            a is not None and b is not None
            and not (np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1]))
            for a, b in zip(cold, res)
        )
    os.sched_setaffinity(0, cpus)
    # The shared host slows single vCPUs by up to 40% for seconds to a
    # minute at a time, so warm passes move the process to another vCPU
    # every CHUNK queries, each pass starting one vCPU further on, and a
    # query's warm latency is the median of its passes
    lat = np.median(warm_lat, axis=0)
    cold_failed = [i for i, r in enumerate(cold) if r is None]
    empty = (np.empty(0, np.uint64), np.empty(0, np.float64))
    cold = [empty if r is None else r for r in cold]
    kinds = q["kind"].to_numpy()
    np.savez(
        out_prefix + ".npz",
        counts=np.array([d.size for d, _ in cold], dtype=np.int64),
        doc_ids=np.concatenate([d for d, _ in cold]).astype(np.uint64),
        scores=np.concatenate([s for _, s in cold]).astype(np.float64),
    )
    with open(out_prefix + ".json", "w") as f:
        json.dump(
            {
                "n": len(texts),
                "init_s": init_s,
                "cold_pass_s": cold_s,
                "warm_pass_s": warm_s,
                "warm_median_s": float(np.median(warm_s)),
                "p50_ms": float(np.median(lat) * 1e3),
                "p99_ms": float(np.percentile(lat, 99) * 1e3),
                "keyword_p50_ms": float(np.median(lat[kinds == 0]) * 1e3),
                "whole_file_p50_ms": float(np.median(lat[kinds == 1]) * 1e3),
                "warm_mismatches": int(mismatches),
                "failed": int(failed),
                "cold_failed": cold_failed,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "spans": [[s[1], s[2], s[3]] for s in tracer.spans],
            },
            f,
        )


if __name__ == "__main__":
    main()
