"""The three workloads and the per-layer probes of a traced run.

Every call into the program goes through a public function of one layer
(``tokenizer``, ``build``, ``codec``, ``scorer``, ``pipelines.incremental``
and the ``ray.data`` primitives under them), timed from outside and, in a
traced run, wrapped in a span. Workloads return end-to-end metrics; a
traced run adds ``layer_metrics`` from the probes.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from . import inputs, refbm25
from .tracer import Tracer

# Sizes are set by the run budget: every run, set-up and check included,
# has to finish in well under a minute on 4 vCPUs (README: "Run budget").
N_BUILD_DOCS = 1500  # a 3.5-5.5 s build: two or three builds in a 10 s run
N_SERVE_DOCS = 4000
N_SERVE_QUERIES = 5 * 407  # five streams of bench.py's size and mix (inputs.py)
SERVE_WARM_PASSES = 2  # a third makes a serve run ~6 s longer than the run budget allows (README)
N_MAINT_DOCS = 1500
N_MAINT_WINDOWS = 2
N_MAINT_QUERIES = 407
CORPUS_FILES = 16  # input parquet files, so the tokenize stage has parallel read tasks
SERVE_MODE = "maxscore"
# The engine default (32 term buckets x 5 salt groups = 160 merge groups)
# is sized for 10^5+ docs; at these corpus sizes it makes every build a
# few hundred near-empty groups. 8 buckets keeps groups non-trivial.
NUM_BUCKETS = 8


@dataclass
class Ctx:
    seed: int
    seconds: float
    tracer: Tracer
    run_dir: str
    num_cpus: int

    def path(self, *parts: str) -> str:
        return os.path.join(self.run_dir, *parts)


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def attempt(what: str, fn) -> tuple[bool, object]:
    """One operation of a round: (True, its result), or (False, None) with
    the traceback logged if it raised. The caller counts the failure."""
    try:
        return True, fn()
    except Exception:
        log(f"{what} raised:\n{traceback.format_exc()}")
        return False, None


def _cfg():
    from docinsight_ray.config import EngineConfig

    return EngineConfig(num_buckets=NUM_BUCKETS)


def _write_corpus(tbl: pa.Table, out_dir: str, n_files: int = CORPUS_FILES) -> str:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-tbl.num_rows // n_files)
    for i in range(n_files):
        part = tbl.slice(i * per, per)
        if part.num_rows:
            pq.write_table(part, os.path.join(out_dir, f"part-{i:03d}.parquet"))
    return out_dir


def _dir_bytes(path: str, subdirs: tuple[str, ...] | None = None) -> int:
    total = 0
    for d, _, files in os.walk(path):
        rel = os.path.relpath(d, path).split(os.sep)[0]
        if subdirs is not None and rel not in subdirs:
            continue
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files)
    return total


def _snapshot(path: str) -> dict[str, tuple[int, int]]:
    out = {}
    for d, _, files in os.walk(path):
        for f in files:
            st = os.stat(os.path.join(d, f))
            out[os.path.join(d, f)] = (st.st_size, st.st_mtime_ns)
    return out


def warm_ray_workers(num_cpus: int) -> None:
    """Start the Ray worker processes and import the engine in them, so
    the first timed round does not pay process start-up."""
    import ray.data

    def touch(batch):
        import docinsight_ray.build  # noqa: F401
        import docinsight_ray.scorer  # noqa: F401

        return batch

    ray.data.range(num_cpus * 4, override_num_blocks=num_cpus * 4).map_batches(
        touch, batch_size=1
    ).materialize()


def _read_postings(index_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(index_dir, "parts", "**", "*.parquet"), recursive=True))
    cols = ["term", "df", "doc_ids_vb", "tfs_vb", "block_max_w"]
    return pa.concat_tables([pq.read_table(f, columns=cols) for f in files]).combine_chunks()


def read_stats(index_dir: str) -> dict:
    with open(os.path.join(index_dir, "corpus_stats.json")) as f:
        return json.load(f)


def _read_docs(index_dir: str) -> pa.Table:
    return pq.read_table(os.path.join(index_dir, "docs"))


def _keys(corpus: pa.Table) -> tuple[list[str], np.ndarray]:
    """(content sha256, doc_id) of every source row, recomputed."""
    return (refbm25.content_sha256(corpus["content"].to_pylist()),
            refbm25.doc_ids(corpus["repo"].to_pylist(), corpus["path"].to_pylist(),
                            corpus["commit"].to_pylist()))


def _source_ref(corpus: pa.Table, ids: np.ndarray, keep: np.ndarray) -> refbm25.RefIndex:
    contents = corpus["content"].to_pylist()
    return refbm25.build_ref([c for c, k in zip(contents, keep) if k], ids[keep])


def query_dataset(queries: pa.Table):
    """The stream as a Dataset of one block per scorer batch, so an actor
    pool gets the batches in parallel (one block would feed one actor)."""
    import ray.data

    step = _cfg().query_batch_size
    q = queries.select(["query_id", "text", "k"])
    return ray.data.from_arrow([q.slice(i, step) for i in range(0, q.num_rows, step)])


# --------------------------------------------------------------------------
# build
# --------------------------------------------------------------------------


def setup_build(ctx: Ctx) -> dict:
    """Inputs, plus one untimed build into a throwaway directory: the first
    build of a process pays Ray Data's first-use costs (20-40% of a build
    here), which belong to set-up, not to each build of a long-lived
    builder."""
    import ray.data

    from docinsight_ray.build import build_index

    corpus = inputs.gen_corpus(N_BUILD_DOCS, ctx.seed)
    corpus_dir = _write_corpus(corpus, ctx.path("corpus"))
    with ctx.tracer.span("build.build_index[warm-up]"):
        build_index(ray.data.read_parquet(corpus_dir), ctx.path("warm-up"), _cfg(),
                    fingerprint=f"perfbench-{ctx.seed}")
    shutil.rmtree(ctx.path("warm-up"))
    return {"corpus": corpus, "corpus_dir": corpus_dir}


def run_build(ctx: Ctx, st: dict, rnd: int) -> dict:
    import ray.data

    from docinsight_ray.build import build_index

    idx = ctx.path(f"index-{rnd}")
    t0 = time.perf_counter()
    with ctx.tracer.span("build.build_index"):
        ok, res = attempt(f"build {rnd}", lambda: build_index(
            ray.data.read_parquet(st["corpus_dir"]), idx, _cfg(),
            fingerprint=f"perfbench-{ctx.seed}"))
    wall = time.perf_counter() - t0
    if not ok:
        shutil.rmtree(idx, ignore_errors=True)
        return {"attempted": 1, "failed": 1, "metrics": {}}
    log(f"build {rnd}: {wall:.2f}s")
    if "index_dir" in st:
        shutil.rmtree(st["index_dir"])
    st.update(index_dir=idx, result=res)
    return {
        "attempted": 1,
        "failed": 0,
        "metrics": {
            "work_per_s": st["corpus"].num_rows / wall,
            "latency_p50_ms": wall * 1e3,
            "index_bytes_per_doc": _dir_bytes(idx) / res.n_docs,
        },
    }


def check_build(ctx: Ctx, st: dict) -> None:
    """The built index against the source rows and an independent
    tokenization: registry hashes, dedup winners, token totals, per-term
    df, block maxima, and a same-fingerprint re-run that changes nothing."""
    import ray.data

    from docinsight_ray.build import build_index

    if "index_dir" not in st:
        return  # every build raised: nothing to check, the rounds count the failures
    corpus, idx, res = st["corpus"], st["index_dir"], st["result"]
    shas, ids = _keys(corpus)
    docs = _read_docs(idx).to_pandas()
    src = corpus.select(["repo", "path", "commit"]).to_pandas()
    src["sha"], src["id"] = shas, ids
    m = docs.merge(src, on=["repo", "path", "commit"], how="outer", indicator=True)
    if len(docs) != corpus.num_rows or (m["_merge"] != "both").any():
        raise refbm25.CheckFailed("build: docs registry rows differ from the source rows")
    if (m["content_sha256"] != m["sha"]).any():
        raise refbm25.CheckFailed("build: a registry content_sha256 differs from sha256(content)")
    if (m["doc_id"].to_numpy(np.uint64) != m["id"].to_numpy(np.uint64)).any():
        raise refbm25.CheckFailed("build: a registry doc_id differs from the recomputed key hash")
    keep = refbm25.winners_smallest_id(shas, ids)
    if res.n_docs != len(set(shas)):
        raise refbm25.CheckFailed(f"build: n_docs {res.n_docs} != {len(set(shas))} distinct contents")
    ref = _source_ref(corpus, ids, keep)

    post = _read_postings(idx)
    df = post["df"].to_numpy().astype(np.int64)
    terms = post["term"].to_pylist()
    if len(set(terms)) != len(terms) or set(terms) != set(ref.term_of):
        raise refbm25.CheckFailed("build: indexed vocabulary differs from the reference vocabulary")
    ref_df = ref.df[[ref.term_of[t] for t in terms]]
    if not np.array_equal(df, ref_df):
        raise refbm25.CheckFailed("build: a term's df differs from the reference df")
    doc_vals = refbm25.decode_lists(post["doc_ids_vb"].to_pylist(), df, deltas=True)
    tf_vals = refbm25.decode_lists(post["tfs_vb"].to_pylist(), df, deltas=False).astype(np.int64)
    winner_ids = ids[keep]
    if not np.array_equal(np.unique(doc_vals), np.sort(winner_ids[ref.doc_len > 0])):
        raise refbm25.CheckFailed("build: postings docs are not the smallest-doc_id copies")
    doc_len_reg = int(docs.set_index("doc_id").loc[winner_ids, "doc_len"].sum())
    if not int(tf_vals.sum()) == doc_len_reg == int(ref.doc_len.sum()):
        raise refbm25.CheckFailed(
            f"build: sum tf {int(tf_vals.sum())}, sum doc_len {doc_len_reg}, "
            f"independent token count {int(ref.doc_len.sum())} differ")
    stats = read_stats(idx)
    if not refbm25.close(stats["avgdl"], ref.avgdl):
        raise refbm25.CheckFailed(f"build: avgdl {stats['avgdl']} != reference {ref.avgdl}")
    bm = post["block_max_w"].combine_chunks()
    refbm25.check_block_max(tf_vals, ref.doc_len[ref.index_of(doc_vals)], df,
                            bm.flatten().to_numpy(), bm.value_lengths().to_numpy(),
                            ref.avgdl, _cfg().block_size)

    before = _snapshot(idx)
    t0 = time.perf_counter()
    with ctx.tracer.span("build.build_index[resume]"):
        build_index(ray.data.read_parquet(st["corpus_dir"]), idx, _cfg(),
                    fingerprint=f"perfbench-{ctx.seed}")
    st["resume_noop_s"] = time.perf_counter() - t0
    if _snapshot(idx) != before:
        raise refbm25.CheckFailed("build: a same-fingerprint re-run changed files")


# --------------------------------------------------------------------------
# serve
# --------------------------------------------------------------------------


def setup_serve(ctx: Ctx) -> dict:
    import ray.data

    from docinsight_ray.build import build_index

    corpus = inputs.gen_corpus(N_SERVE_DOCS, ctx.seed)
    queries = inputs.gen_queries(corpus, N_SERVE_QUERIES, ctx.seed)
    corpus_dir = _write_corpus(corpus, ctx.path("corpus"))
    idx = ctx.path("index")
    with ctx.tracer.span("build.build_index"):
        res = build_index(ray.data.read_parquet(corpus_dir), idx, _cfg(),
                          fingerprint=f"perfbench-{ctx.seed}")
    return {"corpus": corpus, "corpus_dir": corpus_dir, "queries": queries,
            "index_dir": idx, "result": res}


def pool_pass(ctx: Ctx, index_dir: str, queries: pa.Table) -> tuple[float, float, pa.Table]:
    """The stream through ``query_index``'s actor pool: (seconds to the
    first result batch, seconds for all, results)."""
    from docinsight_ray.scorer import query_index

    qds = query_dataset(queries)
    t0 = time.perf_counter()
    with ctx.tracer.span("scorer.query_index"):
        it = iter(query_index(qds, index_dir, _cfg(), mode=SERVE_MODE,
                              concurrency=ctx.num_cpus).iter_batches(batch_format="pyarrow",
                                                                     batch_size=None))
        batches = [next(it)]
        first = time.perf_counter() - t0
        batches.extend(it)
    return first, time.perf_counter() - t0, pa.concat_tables(batches)


def _run_child(cmd: list[str], out: str) -> dict:
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, timeout=150)
    if proc.returncode:
        raise RuntimeError(f"serve child exited with {proc.returncode}")
    with open(out + ".json") as f:
        return json.load(f)


def serve_cycle(ctx: Ctx, index_dir: str, queries: pa.Table, warm_passes: int, tag: str) -> dict:
    """A fresh process serving the stream cold then warm (serve_child.py),
    then the same stream through the actor pool. Every query sent counts
    as attempted; one that raises, or every query of a process or pool
    call that raises, counts as failed."""
    qpath = ctx.path(f"{tag}-queries.parquet")
    pq.write_table(queries, qpath)
    out = ctx.path(f"{tag}-child")
    n = queries.num_rows
    cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "serve_child.py"),
           index_dir, qpath, out, str(warm_passes), "1" if ctx.tracer.enabled else "0"]
    cyc = {"n": n, "attempted": n * (2 + warm_passes), "failed": 0, "layer": {},
           "child": None, "pool": None, "npz": out + ".npz"}
    t0 = time.perf_counter()
    with ctx.tracer.span("serve.fresh_process"):
        ok, child = attempt(f"{tag} serve child", lambda: _run_child(cmd, out))
        for name, s, e in child.pop("spans") if ok else ():
            ctx.tracer.add(name, s, e)
    child_s = time.perf_counter() - t0
    ok_pool, pool = attempt(f"{tag} query_index", lambda: pool_pass(ctx, index_dir, queries))
    if ok:
        cyc["child"] = child
        cyc["failed"] += child["failed"]
        warm_s = ", ".join(f"{s:.2f}" for s in child["warm_pass_s"])
        log(f"{tag}: fresh process {child_s:.2f}s (init {child['init_s']:.2f}s, cold pass "
            f"{child['cold_pass_s']:.2f}s, warm passes {warm_s}s)")
        cyc["layer"].update({
            "scorer.query_p99_ms": child["p99_ms"],
            "scorer.query_qps": n / child["warm_median_s"],
            "scorer.cold_query_qps": n / child["cold_pass_s"],
            "scorer.rss_mb": child["peak_rss_mb"],
            "scorer.keyword_p50_ms": child["keyword_p50_ms"],
            "scorer.whole_file_p50_ms": child["whole_file_p50_ms"],
        })
    else:
        cyc["failed"] += n * (1 + warm_passes)
    if ok_pool:
        first, pool_s, cyc["pool"] = pool
        log(f"{tag}: pool {pool_s:.2f}s (first batch {first:.2f}s)")
        cyc["layer"].update({"scorer.pool_qps": n / pool_s, "scorer.pool_first_result_s": first})
    else:
        cyc["failed"] += n
    return cyc


def run_serve(ctx: Ctx, st: dict, rnd: int) -> dict:
    cyc = serve_cycle(ctx, st["index_dir"], st["queries"], SERVE_WARM_PASSES, f"serve{rnd}")
    st["cycle"] = cyc
    metrics = {"index_bytes_per_doc": _dir_bytes(st["index_dir"]) / st["result"].n_docs}
    if cyc["child"] is not None:
        metrics.update(work_per_s=cyc["layer"]["scorer.query_qps"],
                       latency_p50_ms=cyc["child"]["p50_ms"])
    return {"attempted": cyc["attempted"], "failed": cyc["failed"], "metrics": metrics}


def check_served(ref: refbm25.RefIndex, queries: pa.Table, cyc: dict, what: str) -> None:
    """Every cold-pass top-k against the reference, warm passes equal
    to the cold pass, and pool results equal to the single client's.
    Queries that raised are counted as failed by the run, not checked
    here; every wrong answer is counted before the check fails."""
    child = cyc["child"]
    if child is None:
        return
    z = np.load(cyc["npz"])
    counts, got_ids, got_scores = z["counts"], z["doc_ids"], z["scores"]
    wrong = []
    if child["warm_mismatches"]:
        wrong.append(f"{child['warm_mismatches']} warm answers differ from the cold pass")
    raised = set(child["cold_failed"])
    ends = np.cumsum(counts)
    for qi, (text, k) in enumerate(zip(queries["text"].to_pylist(), queries["k"].to_pylist())):
        if qi in raised:
            continue
        s, e = ends[qi] - counts[qi], ends[qi]
        try:
            refbm25.check_topk(ref, refbm25.dense_scores(ref, text), k, got_ids[s:e],
                               got_scores[s:e], what=f"{what} query {qi}")
        except refbm25.CheckFailed as err:
            wrong.append(str(err))
    if cyc["pool"] is not None:
        pool = cyc["pool"].to_pandas().sort_values(["query_id", "rank"])
        ok = ~np.isin(pool["query_id"].to_numpy(), list(raised))
        keep = np.ones(counts.size, dtype=bool)
        keep[list(raised)] = False
        mine = np.repeat(keep, counts)
        pool_counts = np.bincount(pool["query_id"].to_numpy()[ok], minlength=counts.size)
        if not (np.array_equal(pool_counts[keep], counts[keep])
                and np.array_equal(pool["doc_id"].to_numpy(np.uint64)[ok], got_ids[mine])
                and np.array_equal(pool["score"].to_numpy(np.float64)[ok], got_scores[mine])):
            wrong.append("actor-pool results differ from single-client results")
    if wrong:
        raise refbm25.CheckFailed(f"{what}: {len(wrong)} wrong; first: {wrong[0]}")


def check_serve(ctx: Ctx, st: dict) -> None:
    shas, ids = _keys(st["corpus"])
    ref = _source_ref(st["corpus"], ids, refbm25.winners_smallest_id(shas, ids))
    check_served(ref, st["queries"], st["cycle"], "serve")


# --------------------------------------------------------------------------
# maintain
# --------------------------------------------------------------------------


def setup_maintain(ctx: Ctx, corpus: pa.Table | None = None, n_windows: int = N_MAINT_WINDOWS,
                   n_queries: int = N_MAINT_QUERIES, subdir: str = "maintain") -> dict:
    if corpus is None:
        corpus = inputs.gen_corpus(N_MAINT_DOCS, ctx.seed)
    queries = inputs.gen_queries(corpus, n_queries, ctx.seed)
    per = -(-corpus.num_rows // n_windows)
    window = np.arange(corpus.num_rows) // per
    wdirs = [_write_corpus(corpus.slice(w * per, per), ctx.path(subdir, "windows", f"w{w}"), 4)
             for w in range(n_windows)]
    # delete: the sources of half the whole-file queries (each one's own
    # top hit) and 2% of the rows, by content sha (every copy goes)
    rng = np.random.default_rng([ctx.seed, 3])
    src = queries["src"].to_numpy()
    src = src[src >= 0][::2]
    rows = np.union1d(src, rng.choice(corpus.num_rows, corpus.num_rows // 50, replace=False))
    contents = corpus["content"].to_pylist()
    dead_shas = sorted(set(refbm25.content_sha256([contents[int(r)] for r in rows])))
    return {"corpus": corpus, "queries": queries, "window": window, "window_dirs": wdirs,
            "dead_shas": dead_shas, "dir": ctx.path(subdir)}


def run_maintain(ctx: Ctx, st: dict, rnd: int) -> dict:
    import ray.data

    from docinsight_ray.pipelines.incremental import (
        append_windows,
        compact_windows,
        delete_docs,
        query_windows,
    )

    cfg = _cfg()
    if "root" in st:
        shutil.rmtree(st["root"], ignore_errors=True)
    root = st["root"] = os.path.join(st["dir"], f"windowed-{rnd}")
    qds = query_dataset(st["queries"])
    tr = ctx.tracer
    window_s: list[float] = []

    def windows():
        # append_windows builds each window as it pulls the next one: the
        # time between pulls is that window's append_window call
        for w, d in enumerate(st["window_dirs"]):
            t = time.perf_counter()
            with tr.span("incremental.append_window"):
                yield ray.data.read_parquet(d), f"w{w}"
            window_s.append(time.perf_counter() - t)

    def append():
        t0 = time.perf_counter()
        append_windows(windows(), root, cfg)
        # what follows the last window is append_windows' one stats refresh
        tr.add("incremental.refresh_global_stats", t0 + sum(window_s), time.perf_counter())

    def query():
        return query_windows(qds, root, cfg, mode=SERVE_MODE).to_pandas()

    steps = [
        ("append", "incremental.append_windows", append),
        ("delete", "incremental.delete_docs",
         lambda: delete_docs(root, shas=st["dead_shas"], cfg=cfg)),
        ("query_before", "incremental.query_windows", query),
        ("compact", "incremental.compact_windows", lambda: compact_windows(root, cfg=cfg)),
        ("query_after", "incremental.query_windows", query),
    ]
    # one operation per step; a step that raises ends the round, and it and
    # every step after it count as failed
    for key in ("before", "after", "compacted_dir", "layer"):
        st.pop(key, None)
    took, got = {}, {}
    for key, span, fn in steps:
        t0 = time.perf_counter()
        with tr.span(span):
            ok, got[key] = attempt(f"maintain {key}", fn)
        took[key] = time.perf_counter() - t0
        if not ok:
            return {"attempted": len(steps), "failed": len(steps) - len(took) + 1, "metrics": {}}
    t_append = took["append"]
    refresh_s = t_append - sum(window_s)
    registry_rows = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(root, "window=*", "docs", "*.parquet"))
    )
    out_dir = got["compact"]
    t_q = took["query_before"] + took["query_after"]
    live = read_stats(out_dir)["n_docs"]
    nq = st["queries"].num_rows
    log(f"maintain: append {t_append:.2f}s (windows {', '.join(f'{w:.2f}' for w in window_s)}), "
        f"delete {took['delete']:.2f}s, query {took['query_before']:.2f}s, "
        f"compact {took['compact']:.2f}s, query {took['query_after']:.2f}s")
    st.update(before=got["query_before"], after=got["query_after"], compacted_dir=out_dir, layer={
        "incremental.append_window_s": statistics.median(window_s),
        "incremental.refresh_global_stats_s": refresh_s,
        "incremental.delete_docs_s": took["delete"],
        "incremental.query_windows_s": t_q / 2,
        "incremental.compact_windows_s": took["compact"],
        "incremental.append_docs_per_s": st["corpus"].num_rows / t_append,
        "incremental.compact_docs_per_s": live / took["compact"],
        "incremental.window_qps": 2 * nq / t_q,
        "incremental.tombstoned": got["delete"],
        "incremental.cross_window_dups": st["corpus"].num_rows - registry_rows,
    })
    return {
        "attempted": len(steps),
        "failed": 0,
        "metrics": {
            "work_per_s": st["corpus"].num_rows / sum(took.values()),
            "latency_p50_ms": statistics.median(window_s) * 1e3,
            "index_bytes_per_doc": _dir_bytes(root) / live,
        },
    }


def check_maintain(ctx: Ctx, st: dict) -> None:
    """Both query passes against the independent BM25 under the
    arrival-order dedup rule (earliest window wins, then smallest
    doc_id), tombstoned docs absent. Before compaction the statistics
    still count the tombstoned docs; after it they do not."""
    if "after" not in st:
        return  # the last round raised: the rounds count the failures
    corpus, queries = st["corpus"], st["queries"]
    shas, ids = _keys(corpus)
    keep = refbm25.winners_by_arrival(shas, ids, st["window"])
    differs = int((keep != refbm25.winners_smallest_id(shas, ids)).sum()) // 2
    log(f"maintain: dedup rule is arrival order (earliest window, then smallest doc_id); "
        f"{differs} duplicate group(s) keep another copy than a single build would")
    dead_rows = np.isin(np.asarray(shas, dtype=object), np.asarray(st["dead_shas"], dtype=object))
    dead = ids[dead_rows]
    refs = {
        "before compaction": (_source_ref(corpus, ids, keep), st["before"]),
        "after compaction": (_source_ref(corpus, ids, keep & ~dead_rows), st["after"]),
    }
    texts, ks = queries["text"].to_pylist(), queries["k"].to_pylist()
    wrong = []
    for what, (ref, res) in refs.items():
        res = res.sort_values(["query_id", "rank"])
        by_q = {q: g for q, g in res.groupby("query_id")}
        for qi, (text, k) in enumerate(zip(texts, ks)):
            g = by_q.get(qi)
            got_ids = np.empty(0, np.uint64) if g is None else g["doc_id"].to_numpy(np.uint64)
            got_sc = np.empty(0) if g is None else g["score"].to_numpy(np.float64)
            try:
                refbm25.check_topk(ref, refbm25.dense_scores(ref, text), k, got_ids, got_sc,
                                   dead=dead, what=f"maintain {what}, query {qi}")
            except refbm25.CheckFailed as err:
                wrong.append(str(err))
    if wrong:
        raise refbm25.CheckFailed(f"maintain: {len(wrong)} wrong answers; first: {wrong[0]}")


WORKLOADS = {
    "build": (setup_build, run_build, check_build),
    "serve": (setup_serve, run_serve, check_serve),
    "maintain": (setup_maintain, run_maintain, check_maintain),
}
