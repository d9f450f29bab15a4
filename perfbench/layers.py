"""Per-layer probes, run only with ``--trace 1``.

Each probe calls one layer's public functions on the workload's own
inputs and index. The README's table says which end-to-end metric each
probe should move. Layers a workload does not exercise itself are probed
at the same fixed size on every run of that workload, so the numbers
compare across runs and commits.
"""

from __future__ import annotations

import glob
import os
import time

import numpy as np
import pyarrow as pa

from . import inputs, workloads
from .workloads import Ctx, _cfg, _dir_bytes, _read_postings, read_stats

STAGES = ("tokenize_docs", "dedup", "corpus_stats_agg", "hot_term_detect", "merge_shuffle",
          "hot_merge", "term_dict")
SERVED = ("parts", "docs", "term_dict")
STAGING = ("fragments", "fragments-dfstats", "partial")
N_PROBE_QUERIES = 500
LAZY_MAX_PARTS = 2
N_LAZY_QUERIES = 20
INC_PROBE_DOCS = 600
INC_PROBE_WINDOWS = 2
INC_PROBE_QUERIES = 100


def _identity(batch):
    return batch


def _group_key(groups: int):
    def add(batch):
        return {"g": batch["id"] % groups, "id": batch["id"]}

    return add


def _first_row(group):
    return {"g": group["g"][:1], "n": np.array([len(group["g"])])}


class _NoopScorer:
    def __call__(self, batch):
        return batch


def tokenizer_probe(ctx: Ctx, corpus: pa.Table) -> dict:
    from docinsight_ray.tokenizer import tokenize_batch

    contents = corpus["content"].to_pylist()
    t0 = time.perf_counter()
    with ctx.tracer.span("tokenizer.tokenize_batch"):
        _, _, _, doc_lens = tokenize_batch(contents, _cfg())
    wall = time.perf_counter() - t0
    return {
        "tokenizer.docs_per_s": len(contents) / wall,
        "tokenizer.tokens": int(doc_lens.sum()),
    }


def build_probe(ctx: Ctx, index_dir: str, corpus_files: list[str], resume_s: float | None) -> dict:
    """Stage times and counts from the build's own record, byte counts
    from disk, and the no-op cost of a same-fingerprint re-run."""
    import ray.data

    from docinsight_ray.build import build_index

    stats = read_stats(index_dir)
    st = stats["stages"]
    out = {f"build.{s}_s": float(st.get(s, {}).get("wall_s", 0.0)) for s in STAGES}
    post = _read_postings(index_dir)
    out.update({
        "build.merge_groups": int(stats["merge_groups"]),
        "build.hot_terms": len(stats["hot_terms"]),
        "build.dup_losers": int(stats["n_dup_losers"]),
        "build.postings_rows": int(np.asarray(post["df"]).sum()),
        "build.served_bytes": _dir_bytes(index_dir, SERVED),
        "build.staging_bytes": _dir_bytes(index_dir, STAGING),
    })
    if resume_s is None:
        fingerprint = stats["fingerprint"].rsplit(":", 1)[0]  # build_index re-appends the config hash
        t0 = time.perf_counter()
        with ctx.tracer.span("build.build_index[resume]"):
            build_index(ray.data.read_parquet(corpus_files), index_dir, _cfg(), fingerprint=fingerprint)
        resume_s = time.perf_counter() - t0
    out["build.resume_noop_s"] = resume_s
    return out


def codec_probe(ctx: Ctx, index_dir: str) -> dict:
    import pyarrow.parquet as pq

    from docinsight_ray.codec import decode_posting, encode_posting

    cfg = _cfg()
    stats = read_stats(index_dir)
    post = _read_postings(index_dir)
    dvb, tvb = post["doc_ids_vb"].to_pylist(), post["tfs_vb"].to_pylist()
    dfs = np.asarray(post["df"]).astype(np.int64).tolist()
    n_post = int(sum(dfs))
    t0 = time.perf_counter()
    with ctx.tracer.span("codec.decode_posting[every list]"):
        decoded = [decode_posting(d, t, df) for d, t, df in zip(dvb, tvb, dfs)]
    dec_s = time.perf_counter() - t0
    docs = pq.read_table(os.path.join(index_dir, "docs"), columns=["doc_id", "doc_len"])
    did = np.asarray(docs["doc_id"]).astype(np.uint64)
    dl = np.asarray(docs["doc_len"]).astype(np.float64)
    order = np.argsort(did)
    did, dl = did[order], dl[order]
    avgdl = float(stats["build_avgdl"])
    weights = []
    for ids, tfs in decoded:
        tf = tfs.astype(np.float64)
        lens = dl[np.searchsorted(did, ids)]
        weights.append(tf / (tf + cfg.k1 * (1.0 - cfg.b + cfg.b * lens / avgdl)))
    t0 = time.perf_counter()
    nbytes = 0
    with ctx.tracer.span("codec.encode_posting[every list]"):
        for (ids, tfs), w in zip(decoded, weights):
            d, t, _, _ = encode_posting(ids, tfs, w, cfg.block_size)
            nbytes += len(d) + len(t)
    enc_s = time.perf_counter() - t0
    return {
        "codec.decode_postings_per_s": n_post / dec_s,
        "codec.encode_postings_per_s": n_post / enc_s,
        "codec.bytes_per_posting": nbytes / n_post,
    }


def _timed_pass(ctx: Ctx, fn, texts, ks, span: str) -> np.ndarray:
    lat = np.empty(len(texts))
    for i, (text, k) in enumerate(zip(texts, ks)):
        t = time.perf_counter()
        with ctx.tracer.span(span):
            fn(text, k)
        lat[i] = time.perf_counter() - t
    return lat


def scorer_probe(ctx: Ctx, index_dir: str, queries: pa.Table) -> dict:
    import ray

    from docinsight_ray.scorer import BM25Scorer, load_index_state

    cfg = _cfg()
    q = queries.slice(0, N_PROBE_QUERIES)
    texts, ks = q["text"].to_pylist(), q["k"].to_pylist()
    out = {}
    t0 = time.perf_counter()
    with ctx.tracer.span("scorer.BM25Scorer"):
        BM25Scorer(index_dir, cfg, mode=workloads.SERVE_MODE)
    out["scorer.init_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    with ctx.tracer.span("scorer.load_index_state"):
        ref = load_index_state(index_dir)
    out["scorer.load_index_state_s"] = time.perf_counter() - t0
    ray.internal.free([ref])
    del ref
    for mode in ("taat", "maxscore", "bmw"):
        fn = getattr(BM25Scorer(index_dir, cfg, mode=mode), f"score_{mode}")
        _timed_pass(ctx, fn, texts, ks, f"scorer.score_{mode}[warm-up]")
        lat = _timed_pass(ctx, fn, texts, ks, f"scorer.score_{mode}")
        out[f"scorer.{mode}_p50_ms"] = float(np.median(lat)) * 1e3
    # the working set exceeds the residency cap, so nearly every query
    # reloads partitions (~150 ms a query): a short prefix of the stream
    lazy = BM25Scorer(index_dir, cfg, mode=workloads.SERVE_MODE,
                      max_loaded_parts=LAZY_MAX_PARTS)
    lat = _timed_pass(ctx, getattr(lazy, f"score_{workloads.SERVE_MODE}"),
                      texts[:N_LAZY_QUERIES], ks[:N_LAZY_QUERIES], "scorer.score_maxscore[lazy]")
    out["scorer.lazy_p50_ms"] = float(np.median(lat)) * 1e3
    out["scorer.lazy_partitions_loaded"] = int(lazy.partitions_loaded)
    return out


def ray_probe(ctx: Ctx, corpus_files: list[str], queries: pa.Table, groups: int, rows: int) -> dict:
    """Floors under the build stages and the pool: the same Ray Data
    primitive with no engine work in it."""
    import ray.data

    cfg = _cfg()
    out = {}

    def timed(name, fn):
        t0 = time.perf_counter()
        with ctx.tracer.span(name):
            fn()
        out[name + "_s"] = time.perf_counter() - t0

    timed("ray.read_count", lambda: ray.data.read_parquet(corpus_files).count())
    timed("ray.map_batches_identity", lambda: ray.data.read_parquet(corpus_files).map_batches(
        _identity, batch_format="pyarrow", batch_size=cfg.tokenize_batch_size).materialize())
    timed("ray.groupby_map_groups", lambda: ray.data.range(rows).map_batches(
        _group_key(groups), batch_format="numpy").groupby("g").map_groups(
        _first_row, batch_format="numpy").materialize())
    timed("ray.actor_pool_noop", lambda: workloads.query_dataset(queries).map_batches(
        _NoopScorer, batch_format="pyarrow", batch_size=cfg.query_batch_size,
        concurrency=ctx.num_cpus, num_cpus=1).materialize())
    return out


def incremental_probe(ctx: Ctx, corpus: pa.Table) -> dict:
    """A small windowed run on the head of the workload's corpus."""
    st = workloads.setup_maintain(
        ctx, corpus.slice(0, INC_PROBE_DOCS), INC_PROBE_WINDOWS, INC_PROBE_QUERIES, "inc-probe")
    workloads.run_maintain(ctx, st, 0)
    return st["layer"]


def layer_metrics(ctx: Ctx, workload: str, st: dict) -> dict:
    """Every per-layer metric, on this workload's corpus and index. The
    serving and windowed figures come from the workload's own run where
    it has one, else from a probe of fixed size."""
    if workload == "maintain":
        index_dir = st["compacted_dir"]
        corpus_files = sorted(glob.glob(os.path.join(st["dir"], "windows", "*", "*.parquet")))
    else:
        index_dir = st["index_dir"]
        corpus_files = sorted(glob.glob(os.path.join(st["corpus_dir"], "*.parquet")))
    queries = st["queries"] if "queries" in st else inputs.gen_queries(
        st["corpus"], N_PROBE_QUERIES, ctx.seed)
    stats = read_stats(index_dir)
    out = {}
    out.update(tokenizer_probe(ctx, st["corpus"]))
    out.update(build_probe(ctx, index_dir, corpus_files, st.get("resume_noop_s")))
    out.update(codec_probe(ctx, index_dir))
    out.update(scorer_probe(ctx, index_dir, queries))
    cycle = st.get("cycle") or workloads.serve_cycle(
        ctx, index_dir, queries.slice(0, N_PROBE_QUERIES), 1, "probe")
    out.update(cycle["layer"])
    out.update(ray_probe(ctx, corpus_files, queries, int(stats["merge_groups"]),
                         int(stats["stages"]["merge_shuffle"].get("rows_in", 1))))
    out.update(st["layer"] if "layer" in st else incremental_probe(ctx, st["corpus"]))
    return out
