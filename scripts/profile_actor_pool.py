"""Per-actor utilization profile of the BM25 serving pool.

Answers the round-4 review question — where does the actor-pool
serving path saturate at 8→32 CPUs? — with measured per-actor numbers
instead of a guess. Runs the same stage as bench.py's scaling mode
(build once, then the actor-pool BM25 pass) with
``DOCINSIGHT_ACTOR_PROFILE`` set, so every scorer actor keeps a
per-pid JSON current with its one-time init cost (index load) and
cumulative scoring-busy seconds. The pool runs at least two actors,
so they share one object-store copy of the index
(``scorer.scorer_pool``). Reports, per parallelism level:

    wall            pool wall-clock of the query pass
    n_actors        actors that reported
    sum_init_s      Σ per-actor init (index decode) seconds
    sum_busy_s      Σ per-actor scoring seconds
    busy_fraction   sum_busy / (n_actors × wall) — 1.0 = fully busy
    cpu_bound_s     sum_init + sum_busy — total CPU demanded

Usage: python scripts/profile_actor_pool.py [n_docs] [n_queries]
(defaults 100000 / 2000 — the bench scaling protocol).
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

_CHILD = """
import json, os, sys, time
import ray, ray.data

num_cpus = int(sys.argv[1]); idx_dir = sys.argv[2]
n_q = int(sys.argv[3]); corpus_path = sys.argv[4]

ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False

import pyarrow.parquet as pq
from docinsight_ray.config import EngineConfig
from docinsight_ray.fixtures import gen_queries, queries_table
from docinsight_ray.scorer import query_index

cfg = EngineConfig(num_buckets=max(32, num_cpus * 2), hot_salt=4)
corpus_tbl = pq.ParquetDataset(corpus_path).read()
queries = gen_queries(corpus_tbl, n_keyword=n_q, seed=42)
qds = ray.data.from_arrow(queries_table(queries)).repartition(max(8, num_cpus))
t0 = time.monotonic()
n = query_index(qds, idx_dir, cfg, mode="maxscore",
                concurrency=max(2, num_cpus // 4)).count()
wall = time.monotonic() - t0
print(json.dumps({"wall": round(wall, 3), "n_results": n,
                  "qps": round(len(queries) / wall, 1)}))
ray.shutdown()
"""

_BUILD = """
import sys
import ray, ray.data
ray.init(address="local", num_cpus=32, include_dashboard=False,
         ignore_reinit_error=True, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
from docinsight_ray.build import build_index
from docinsight_ray.config import EngineConfig
cfg = EngineConfig(num_buckets=64, hot_salt=4)
build_index(ray.data.read_parquet(sys.argv[1]), sys.argv[2], cfg,
            fingerprint="profile")
ray.shutdown()
"""


def main() -> int:
    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 100_000
    n_q = int(sys.argv[2]) if len(sys.argv) > 2 else 2_000

    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    import bench

    corpus_path = bench.bench_corpus_path(n_docs)
    idx_dir = tempfile.mkdtemp(prefix="profile-idx-", dir="/tmp")
    shutil.rmtree(idx_dir)
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    subprocess.run([sys.executable, "-c", _BUILD, corpus_path, idx_dir],
                   check=True, cwd=repo, capture_output=True, text=True)

    report: dict[str, dict] = {}
    try:
        for num_cpus in (8, 32):
            prof = tempfile.mkdtemp(prefix="actor-prof-", dir="/tmp")
            env = dict(os.environ, DOCINSIGHT_ACTOR_PROFILE=prof,
                       RAY_ADDRESS="local")
            out = subprocess.run(
                [sys.executable, "-c", _CHILD, str(num_cpus), idx_dir,
                 str(n_q), corpus_path],
                env=env, check=True, cwd=repo, capture_output=True, text=True,
            ).stdout
            run = json.loads(out.strip().splitlines()[-1])
            actors = [json.load(open(f))
                      for f in glob.glob(os.path.join(prof, "actor-*.json"))]
            shutil.rmtree(prof, ignore_errors=True)
            n_act = len(actors)
            sum_init = round(sum(a["init_s"] for a in actors), 3)
            sum_busy = round(sum(a["busy_s"] for a in actors), 3)
            report[f"cpus{num_cpus}"] = {
                "wall": run["wall"], "qps": run["qps"], "n_actors": n_act,
                "sum_init_s": sum_init, "sum_busy_s": sum_busy,
                "busy_fraction": round(sum_busy / (n_act * run["wall"]), 3)
                if n_act else 0.0,
                "cpu_bound_s": round(sum_init + sum_busy, 3),
                "per_actor": sorted(
                    ({"init_s": a["init_s"], "busy_s": a["busy_s"],
                      "n_queries": a["n_queries"]} for a in actors),
                    key=lambda a: -a["busy_s"],
                ),
            }
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    print(json.dumps({"n_docs": n_docs, "n_queries": n_q, "runs": report}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
