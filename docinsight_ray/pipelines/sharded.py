"""Document-sharded query serving — the multi-node scale architecture.

At 10^12 files no single actor holds the whole index (SURVEY.md §2.6
T1). The scale-out layout partitions DOCUMENTS (not terms) into S
shards — each shard is a complete sub-index over its doc subset, so a
shard scorer produces complete, final BM25 scores for its docs (idf /
avgdl use the GLOBAL corpus stats, injected at shard-build time via a
shared stats override) and a per-shard top-k. The merge is then an
exact global top-k over S·k candidates per query:

    queries ─▶ every shard's actor pool ─▶ per-shard top-k
            ─▶ groupby(query_id) ─▶ merge_topk (score desc, doc_id asc)

This is rank-identical to the single-index engine because BM25 scores
depend only on (term stats, doc stats) — both global — and every doc
is scored by exactly one shard. tests/test_sharded.py proves it.

Sharding key: hash doc_id % S — even at Zipfian term skew, documents
spread uniformly, so shard sizes are balanced by construction.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..build import build_index
from ..config import EngineConfig
from ..scorer import scorer_pool
from ..state.manifest import atomic_write_bytes


class ShardSplitTokenizer:
    """ONE corpus pass for the sharded build: tokenize each batch once
    and route both the SPIMI fragment rows AND the docs-registry rows
    to per-shard side files (shard = doc_id % S). Replaces the r2
    two-pass layout (dedup pre-pass over content + hive re-write of the
    annotated corpus + per-shard re-tokenization): content is read
    once, tokenized once, and never written again — only fragments and
    docs rows land on disk, exactly where each shard's build_index
    expects them. All writes are content-addressed + atomic (fsio), so
    Ray task retries overwrite idempotently."""

    def __init__(self, cfg: EngineConfig, index_dir: str, n_shards: int):
        from ..state.fsio import makedirs

        self.cfg = cfg
        self.index_dir = index_dir
        self.n_shards = n_shards
        self.__name__ = "ShardSplitTokenizer"
        for s in range(n_shards):
            d = os.path.join(index_dir, f"shard={s}")
            makedirs(os.path.join(d, "fragments"))
            makedirs(os.path.join(d, "fragments-dfstats"))
            makedirs(os.path.join(d, "docs"))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import hashlib

        from ..build import _tokenize_rows, _write_fragment
        from ..state.fsio import write_parquet_atomic

        doc_ids, sha, doc_lens, terms, doc_idx, tfs = _tokenize_rows(batch, self.cfg)
        shard = (doc_ids % np.uint64(self.n_shards)).astype(np.int64)
        row_shard = shard[doc_idx] if terms.size else np.empty(0, dtype=np.int64)
        docs_tbl = pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.uint64()),
                "repo": batch["repo"],
                "path": batch["path"],
                "commit": batch["commit"],
                "lang": batch["lang"],
                "content_sha256": pa.array(sha, type=pa.string()),
                "doc_len": pa.array(doc_lens, type=pa.uint32()),
            }
        )
        for s in np.unique(shard):
            dmask = shard == s
            rmask = row_shard == s
            d = os.path.join(self.index_dir, f"shard={int(s)}")
            tag_ids = doc_ids[dmask]
            _write_fragment(
                os.path.join(d, "fragments"),
                os.path.join(d, "fragments-dfstats"),
                terms[rmask], doc_ids[doc_idx][rmask], tfs[rmask],
                doc_lens[doc_idx][rmask],
                n_docs_batch=int(dmask.sum()), tag_ids=tag_ids,
            )
            batch_id = hashlib.sha256(np.ascontiguousarray(tag_ids).tobytes()).hexdigest()[:20]
            write_parquet_atomic(
                docs_tbl.filter(pa.array(dmask)),
                os.path.join(d, "docs", f"docs-{batch_id}.parquet"),
            )
        return pa.table(
            {
                "n_docs": pa.array([len(doc_ids)], type=pa.int64()),
                "n_rows": pa.array([int(terms.size)], type=pa.int64()),
            }
        )


def _write_global_losers(index_dir: str, n_shards: int, cfg: EngineConfig) -> None:
    """GLOBAL exact dedup for the sharded build: a duplicate's copies
    can land in DIFFERENT shards, so per-shard dedup cannot see them.
    ``build.keep_first_losers`` over the narrow union of the per-shard
    docs registries — content never moves; the loser (doc_id, doc_len)
    rows spill hive-partitioned by the loser's shard so each shard
    build drops exactly its own losers (build_index
    ``ext_losers_dir``)."""
    from ..build import keep_first_losers
    from ..state.fsio import glob_parquet, rmtree as fs_rmtree

    files = [
        f
        for s in range(n_shards)
        for f in glob_parquet(os.path.join(index_dir, f"shard={s}", "docs"))
    ]
    if not files:
        return
    losers = keep_first_losers(
        ray.data.read_parquet(files, columns=["content_sha256", "doc_id", "doc_len"]), cfg
    )
    if losers is None:
        return
    if isinstance(losers, pa.Table):
        losers = ray.data.from_arrow(losers)

    def with_shard(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.append_column(
            "shard", pa.array((ids % np.uint64(n_shards)).astype(np.int32), type=pa.int32())
        )

    out_dir = os.path.join(index_dir, "dedup_global")
    fs_rmtree(out_dir)
    losers.map_batches(with_shard, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["shard"]
    )


def build_sharded_index(
    corpus: "ray.data.Dataset",
    index_dir: str,
    n_shards: int,
    cfg: EngineConfig | None = None,
    fingerprint: str = "",
) -> list[str]:
    """Build S doc-partitioned sub-indexes from ONE corpus pass.

    1. ``ShardSplitTokenizer``: read + tokenize the corpus once,
       writing per-shard SPIMI fragments, df sidecars and docs-registry
       files directly into each ``shard=s/`` directory (content never
       re-read or re-written).
    2. Global exact dedup over the narrow union of docs registries →
       per-shard loser spill (``_write_global_losers``).
    3. Per-shard ``build_index`` with a pre-committed docs manifest, so
       each build skips its tokenize stage and runs only the merge
       shuffle over its own fragments (dedup off; global losers applied
       via ``ext_losers_dir``).
    4. ``distribute_global_stats``: global n_docs/avgdl/df into every
       shard so per-shard BM25 scores are final (exact top-k merge at
       query time).

    Cost model: corpus read+tokenize once, fragments written once, S
    independent merge shuffles over disjoint fragment sets — the whole
    build is a constant factor over a single build, not S× (r2 measured
    3.1× at S=2; this layout is the fix)."""
    import dataclasses

    from ..state.fsio import (
        exists as fs_exists,
        listdir_names,
        makedirs as fs_makedirs,
        read_bytes,
        remove_path,
        rmtree as fs_rmtree,
    )
    from ..state.manifest import committed_parts, write_manifest
    from ..state.manifest import atomic_write_bytes as _awb

    cfg = cfg or EngineConfig()
    # shards build with dedup off — global dedup is applied via the
    # ext loser spill (step 2)
    shard_cfg = cfg if not cfg.dedup else dataclasses.replace(cfg, dedup=False)
    shard_fps = [f"{fingerprint}:shard{s}/{n_shards}" for s in range(n_shards)]
    inner_fps = [f"{fp}:{shard_cfg.config_hash()}" for fp in shard_fps]
    fs_makedirs(index_dir)
    marker = os.path.join(index_dir, "_SPLIT_DONE")
    split_tag = f"{fingerprint}:{n_shards}:{cfg.config_hash()}:{shard_cfg.config_hash()}:v3"
    prev = read_bytes(marker)
    if prev is None or prev.decode() != split_tag:
        # no resumable split for THIS (input, shards, config) → clean slate
        for n in listdir_names(index_dir):
            if n.startswith("shard=") or n in ("dedup_global", "shard_input"):
                fs_rmtree(os.path.join(index_dir, n))
        remove_path(marker)
        stats = corpus.map_batches(
            ShardSplitTokenizer(cfg, index_dir, n_shards),
            batch_format="pyarrow",
            batch_size=cfg.tokenize_batch_size,
            zero_copy_batch=True,
        )
        n_total = int(stats.sum("n_docs") or 0)  # drives the pass
        if cfg.dedup and n_total:
            _write_global_losers(index_dir, n_shards, cfg)
        # pre-commit each shard's docs manifest: its build_index call
        # then resumes past Stage A straight into the merge shuffle
        for s in range(n_shards):
            write_manifest(
                os.path.join(index_dir, f"shard={s}", "manifest"),
                "docs",
                {
                    "part_id": "docs", "stage": "tokenize", "status": "committed",
                    "fingerprint": inner_fps[s],
                    "config_hash": shard_cfg.config_hash(),
                    "split": "sharded-single-pass",
                },
            )
        _awb(marker, split_tag.encode())

    shard_dirs = []
    placeholder = ray.data.from_arrow(
        pa.schema([("doc_id", pa.uint64())]).empty_table()
    )
    for s in range(n_shards):
        d = os.path.join(index_dir, f"shard={s}")
        # the docs manifest MUST be committed (step above / prior run) —
        # otherwise build_index would tokenize the placeholder and
        # silently commit a wrong (empty) shard
        if "docs" not in committed_parts(os.path.join(d, "manifest"), inner_fps[s]):
            raise RuntimeError(
                f"sharded build: {d} has no committed docs manifest for this "
                f"fingerprint — split pass incomplete; re-run the build"
            )
        shard_dirs.append(d)

    # shard builds are independent (disjoint dirs/fragments) but run
    # SEQUENTIALLY: concurrent driver threads race in Ray's
    # read_parquet datasource setup (a failing optional fsspec/aiohttp
    # import is retried per call; parallel retries hit a Python
    # import-machinery race and surface as spurious ImportError), and
    # each build already saturates the cluster via its own stages.
    for s in range(n_shards):
        ext = os.path.join(index_dir, "dedup_global", f"shard={s}")
        build_index(
            placeholder, shard_dirs[s], shard_cfg, fingerprint=shard_fps[s],
            ext_losers_dir=ext if fs_exists(ext) else None,
        )

    # the loser spill has served its purpose once every shard committed
    fs_rmtree(os.path.join(index_dir, "dedup_global"))

    distribute_global_stats(shard_dirs)
    return shard_dirs


def fan_out(
    queries: "ray.data.Dataset",
    sub_dirs: list[str],
    cfg: EngineConfig,
    concurrency: int,
    **scorer_kwargs,
) -> "ray.data.Dataset":
    """The one query path over doc-partitioned sub-indexes (hash shards
    or arrival windows): a ``scorer.scorer_pool`` of ``concurrency``
    actors per sub-index (same state rule as ``query_index``), each
    emitting its top-k with the requested k, then ``union`` and an
    exact per-query ``merge_topk``. ``scorer_kwargs`` go to every
    BM25Scorer."""
    results = [
        scorer_pool(queries, d, cfg, concurrency, emit_k=True, **scorer_kwargs)
        for d in sub_dirs
    ]
    union = results[0].union(*results[1:]) if len(results) > 1 else results[0]
    return union.groupby("query_id").map_groups(merge_topk, batch_format="pyarrow")


def query_sharded(
    queries: "ray.data.Dataset",
    index_dir: str,
    n_shards: int,
    cfg: EngineConfig | None = None,
    mode: str = "taat",
    concurrency_per_shard: int = 1,
    doc_filter: tuple[str, tuple] | None = None,
    exclude_terms: tuple[str, ...] | None = None,
    include_doc_ids=None,
    min_should_match: int | None = None,
    synonyms: dict[str, tuple[str, ...]] | None = None,
    boosts: dict[str, float] | None = None,
) -> "ray.data.Dataset":
    """Fan every query out to all shard scorers, then exact-merge the
    per-shard top-k candidates per query (``fan_out``). Hash-empty
    shards (possible when n_shards approaches the doc count) are
    skipped — their empty-but-valid sub-indexes have no postings to
    serve. With ``concurrency_per_shard`` > 1 each shard decodes once
    into the object store and its pool actors share that copy
    (``scorer.scorer_pool``); one actor per shard reads its own shard.

    ``doc_filter`` / ``exclude_terms`` / ``include_doc_ids`` carry the
    single-index semantics shard-locally: each shard resolves the
    allowed/denied sets from its OWN docs registry and postings (the
    include set intersects each shard's disjoint registry slice), and
    the union of shard-local sets is exactly the global set (docs are
    hash-partitioned disjointly), so the merged ranking equals the
    filtered single-index ranking. ``min_should_match`` / ``synonyms``
    / ``boosts`` are per-doc/per-term properties, so applying them
    shard-locally is exact too: a doc's postings live WHOLE in its
    shard (match counts are complete), and boosted/expanded term
    weights use the distributed global-df stats."""
    from ..state.fsio import read_bytes

    cfg = cfg or EngineConfig()
    dirs = []
    for s in range(n_shards):
        d = os.path.join(index_dir, f"shard={s}")
        raw = read_bytes(os.path.join(d, "corpus_stats.json"))
        if raw is None:
            raise FileNotFoundError(
                f"{d}/corpus_stats.json: not a built sharded index "
                f"(expected {n_shards} shard=* sub-indexes under {index_dir})"
            )
        st = json.loads(raw)
        if st.get("shard_n_docs", st["n_docs"]) > 0:
            dirs.append(d)
    if not dirs:
        raise FileNotFoundError(f"no non-empty shard=* sub-indexes under {index_dir}")
    return fan_out(
        queries, dirs, cfg, concurrency_per_shard, mode=mode, doc_filter=doc_filter,
        exclude_terms=exclude_terms, include_doc_ids=include_doc_ids,
        min_should_match=min_should_match, synonyms=synonyms, boosts=boosts,
    )


def merge_topk(g: pa.Table) -> pa.Table:
    """Exact global top-k over one query's per-sub-index candidates.

    The requested k travels WITH each result row (scorer ``emit_k``):
    inferring it as max(rank)+1 truncates the merge when every
    sub-index returned fewer than k rows but their union has more."""
    docs = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    scores = g["score"].to_numpy(zero_copy_only=False)
    k = int(g["k"][0].as_py())
    order = np.lexsort((docs, -scores))[:k]
    return pa.table(
        {
            "query_id": pa.array(np.repeat(g["query_id"][0].as_py(), order.size), type=pa.int64()),
            "rank": pa.array(np.arange(order.size, dtype=np.uint32), type=pa.uint32()),
            "doc_id": pa.array(docs[order], type=pa.uint64()),
            "score": pa.array(scores[order], type=pa.float64()),
        }
    )


def distribute_global_stats(sub_dirs: list[str], appended: str | None = None) -> None:
    """Make a set of sub-indexes (doc shards or time windows) score with
    corpus-WIDE statistics: overwrite each sub-index's n_docs/total_len/
    avgdl with the global values (preserving build_avgdl for block-max
    validity checks) and drop an aggregated global_df.parquet into each
    (the distributed-term-stats broadcast every partitioned engine does).

    The global df aggregation is a Ray Dataset ``groupby(term).sum(df)``
    over narrow (term, df) columns — the term dictionary is never
    materialized in a driver-side Python dict. The aggregated
    dictionary is written ONCE, then file-copied into each sub-index
    (ship-the-small-dictionary broadcast; posting payloads never move).

    ``appended``: the just-added sub-index for the INCREMENTAL path —
    when a prior sub-index holds a global_df snapshot whose recorded
    coverage equals exactly the other sub-dirs, the new global df is
    (prior snapshot + new sub-index's parts), so append cost stays
    O(dictionary + new window) instead of re-reading every window's
    postings. Any coverage mismatch (e.g. a crash between build and
    distribute) falls back to the full re-aggregation.

    One sub-index (e.g. after a full compaction) is its own corpus: its
    df IS the global df, so no aggregation runs and any stale
    global_df.parquet is removed (the scorer serves local df without
    one). The next append finds no snapshot and re-aggregates in full."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    from ..state.fsio import exists as fs_exists, glob_parquet, makedirs, read_bytes, remove_path

    # COMMITTED sub-indexes only: a half-built dir (no corpus_stats —
    # it is the last thing a build writes) contributes neither stats
    # nor postings, instead of raising an opaque TypeError
    loaded = []
    for d in sub_dirs:
        data = read_bytes(os.path.join(d, "corpus_stats.json"))
        if data is not None:
            loaded.append((d, json.loads(data)))
    sub_dirs = [d for d, _ in loaded]
    stats = [s for _, s in loaded]
    if not sub_dirs:
        return
    # capture the snapshot coverage BEFORE the stats rewrites below
    pre_covers = {d: s.get("global_df_covers") for d, s in zip(sub_dirs, stats)}
    g_docs = sum(s.get("shard_n_docs", s["n_docs"]) for s in stats)
    g_len = sum(s.get("shard_total_len", s["total_len"]) for s in stats)
    covers = sorted(os.path.basename(d.rstrip("/")) for d in sub_dirs)
    # First stats pass WITHOUT the coverage marker: if this distribute
    # crashes anywhere before the snapshot copies complete, the next
    # run sees no/stale-mismatched covers and falls back to the full
    # re-aggregation — the marker is only committed at the very end.
    for d, s in zip(sub_dirs, stats):
        s.pop("global_df_covers", None)
        s.update({
            "shard_n_docs": s.get("shard_n_docs", s["n_docs"]),
            "shard_total_len": s.get("shard_total_len", s["total_len"]),
            "n_docs": g_docs, "total_len": g_len,
            "avgdl": g_len / g_docs if g_docs else 1.0,
        })
        atomic_write_bytes(os.path.join(d, "corpus_stats.json"),
                           json.dumps(s, sort_keys=True, indent=1).encode())
    if len(sub_dirs) == 1:
        remove_path(os.path.join(sub_dirs[0], "global_df.parquet"))
        return

    # per-sub-index (term, df) source: the term_dict sidecar when the
    # build wrote one (narrow, pre-aggregated — no postings payload
    # columns in the files we open), else the postings partitions
    def _df_files(d: str) -> list[str]:
        td = glob_parquet(os.path.join(d, "term_dict"))
        return td if td else glob_parquet(os.path.join(d, "parts"))

    # incremental source selection: prior snapshot + new parts, but only
    # when the snapshot's recorded coverage is exactly the prior set
    files: list[str] | None = None
    if appended is not None and appended in sub_dirs:
        prior = [d for d in sub_dirs if d != appended]
        expect = sorted(os.path.basename(d.rstrip("/")) for d in prior)
        snap = os.path.join(prior[0], "global_df.parquet")
        if fs_exists(snap) and pre_covers.get(prior[0]) == expect:
            files = glob_parquet(snap) + _df_files(appended)
    if files is None:
        files = [f for d in sub_dirs for f in _df_files(d)]

    tmp = tempfile.mkdtemp(prefix="global_df-", dir="/tmp")
    if files:
        import pyarrow.compute as _pc

        (
            ray.data.read_parquet(files, columns=["term", "df"])
            .groupby("term")
            .aggregate(Sum("df", alias_name="df"))
            # store df as uint64 so the snapshot merges cleanly with
            # posting rows (also uint64) on the next incremental append
            .map_batches(
                lambda t: pa.table(
                    {"term": t["term"], "df": _pc.cast(t["df"], pa.uint64())}
                ),
                batch_format="pyarrow",
            )
            .write_parquet(tmp)
        )
    else:  # every sub-index empty (e.g. fully-deduplicated windows)
        pq.write_table(
            pa.table({"term": pa.array([], type=pa.string()),
                      "df": pa.array([], type=pa.uint64())}),
            os.path.join(tmp, "empty.parquet"),
        )
    # ship the small aggregated dictionary into each sub-index
    # (file-level copy; works for plain paths and pyarrow.fs URIs)
    for d in sub_dirs:
        dst = os.path.join(d, "global_df.parquet")
        remove_path(dst)
        makedirs(dst)
        for fn in sorted(os.listdir(tmp)):
            with open(os.path.join(tmp, fn), "rb") as f:
                atomic_write_bytes(os.path.join(dst, fn), f.read())
    shutil.rmtree(tmp)
    # every snapshot copy succeeded — NOW commit the coverage marker
    # the next incremental append trusts
    for d, s in zip(sub_dirs, stats):
        s["global_df_covers"] = covers
        atomic_write_bytes(os.path.join(d, "corpus_stats.json"),
                           json.dumps(s, sort_keys=True, indent=1).encode())
