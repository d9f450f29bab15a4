"""Windowed incremental indexing — append-only corpora.

The streaming-shaped build path (brief: "a streaming window" custom
operator): an append-only corpus arrives as time/ingest windows; each
window becomes an independent, resumable sub-index
(``index_root/window=<id>``), and every append re-distributes the
corpus-wide statistics (n_docs, avgdl, global df) to all windows so
BM25 scores stay globally correct. Querying goes through the same
fan-out path as doc-sharded serving (``sharded.fan_out``: one scorer
pool per window, exact top-k merge), because a window IS a
doc-partition keyed by arrival time instead of hash. "Live" windows
(``_live_windows``) are the committed ones not superseded by a
committed compaction; every query, append, delete and compaction
works on that one set.

Contract (tested in tests/test_incremental.py): after appending
windows W1..Wn, results are rank-identical to a single build over the
concatenated corpus, except that exact duplicates resolve by ARRIVAL
order (dedup rule below). This replaces the reference's incremental
``add_vectors`` path (/root/reference/index/index_manager.py:124-201)
with window-granular appends that keep the per-partition
checkpoint/lineage story — no in-place index mutation, ever (the
reference itself can only rebuild to remove,
/root/reference/index/faiss_index.py:243-266).

Dedup rule: within one window the smallest doc_id of a content wins,
as in a single build; ACROSS windows the earliest-arriving copy wins —
a copy whose content an earlier window already holds is dropped at
append time (the cross-window seen-sha filter below), even when its
doc_id is smaller. A single build over the concatenation keeps the
global min doc_id instead, so where the smaller-doc_id copy of a
duplicated content arrives in a later window, windowed serving (before
and after ``compact_windows``) returns the earlier-arrived copy.

Deletes: ``delete_docs`` tombstones documents (append-only parquet
under ``index_root/tombstones``); ``query_windows`` excludes them
immediately (scores keep pre-delete statistics — Lucene deleted-docs
semantics) and ``compact_windows`` removes them physically, after
which statistics are exact again.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import ray
import ray.data

from ..build import build_index
from ..config import EngineConfig
from .merge import _drop_tombstoned, merge_postings
from .sharded import distribute_global_stats, fan_out


def _window_dirs(index_root: str) -> list[str]:
    from ..state.fsio import listdir_names

    return [
        os.path.join(index_root, n)
        for n in listdir_names(index_root)
        if n.startswith("window=")
    ]


def _window_stats(d: str) -> dict | None:
    """Stats of a COMMITTED window; None for a partially-built dir
    (corpus_stats.json is the last thing a build writes)."""
    from ..state.fsio import read_bytes

    data = read_bytes(os.path.join(d, "corpus_stats.json"))
    return None if data is None else json.loads(data)


def _live_windows(index_root: str) -> list[tuple[str, dict]]:
    """(dir, stats) of every LIVE window: committed, and not superseded
    by a committed compaction — a superseded window still on disk
    (``delete_sources=False``, or a crash before deletion) holds docs
    the compacted window already carries, so counting it would
    double-count every statistic and every result."""
    superseded = _compacted_sources(index_root)
    return [
        (d, s) for d in _window_dirs(index_root)
        if os.path.basename(d) not in superseded and (s := _window_stats(d)) is not None
    ]


def append_window(
    corpus_window: "ray.data.Dataset",
    index_root: str,
    window_id: str,
    cfg: EngineConfig | None = None,
    corpus_factory=None,
    refresh_stats: bool = True,
) -> list[str]:
    """Index one corpus window and refresh global stats across all
    windows. Returns the live window dirs.

    ``refresh_stats=False`` defers the global-stats redistribution —
    the batched-append path (``append_windows`` /
    ``refresh_global_stats``): N appends pay ONE redistribution instead
    of N. Until the explicit refresh runs, windows score with stale
    (per-window or last-refresh) statistics, so serve only after
    ``refresh_global_stats``. Cross-window dedup is unaffected (it
    reads docs registries, not stats).

    ``corpus_factory`` (optional zero-arg callable recreating
    ``corpus_window``, e.g. a column-pruned ``read_parquet``): when
    given AND the seen-sha set exceeds ``cfg.broadcast_limit``, the
    cross-window dedup runs through ``joins.bloom_key_set_filter`` —
    definitely-new rows bypass the anti-join shuffle entirely and only
    the maybe-seen sliver is join-verified (the 100-TB append shape:
    the seen set dwarfs the broadcast budget while most of the new
    window is genuinely new). Without it, the proven
    broadcast/anti-join auto path runs unchanged."""
    cfg = cfg or EngineConfig()

    if cfg.dedup:
        # cross-window exact dedup: drop rows whose content_sha256
        # already exists in an earlier window's docs registry. The seen
        # set never lands in a driver Python set: prior windows' sha
        # columns are read as a Dataset and filtered through
        # key_set_filter (ray.put broadcast below cfg.broadcast_limit,
        # hash-partitioned anti-join above — docinsight_ray.joins).
        from ..state.fsio import exists as fs_exists, read_parquet_files

        # "prior" = COMMITTED windows other than the one being appended:
        # a crashed earlier attempt at THIS window leaves a stats-less
        # dir whose docs registry must not poison the seen-sha set
        # (it would filter out every row of the resumed append), and
        # other partially-built windows aren't committed corpus either
        this_dir = os.path.join(index_root, f"window={window_id}")
        prior_stats = [(d, s) for d, s in _live_windows(index_root) if d != this_dir]
        docs_dirs = [os.path.join(d, "docs") for d, _ in prior_stats
                     if fs_exists(os.path.join(d, "docs"))]
        n_seen = sum(s.get("shard_n_docs", s["n_docs"]) for _, s in prior_stats)
        if docs_dirs and n_seen:
            from ..joins import key_set_filter

            def with_sha(batch: pa.Table) -> pa.Table:
                from ..ids import sha256_hex

                return batch.append_column(
                    "content_sha256",
                    pa.array(sha256_hex(batch["content"].to_pylist()), type=pa.string()),
                )

            # read_parquet rejects a LIST of directories — expand to files
            docs_files = [f for dd in docs_dirs for f in read_parquet_files(dd)]
            # tombstoned docs must NOT count as "seen": deleted content
            # re-ingested under a new key is corpus again, not a dup
            # (n_seen stays the pre-filter upper bound — safe for
            # broadcast sizing and the Bloom n_keys estimate)
            seen_ds = _drop_tombstoned(
                ray.data.read_parquet(docs_files, columns=["content_sha256", "doc_id"]),
                _tombstone_ids(index_root),
            ).drop_columns(["doc_id"])
            if corpus_factory is not None and n_seen > cfg.broadcast_limit:
                from ..joins import bloom_key_set_filter

                corpus_window = bloom_key_set_filter(
                    lambda: corpus_factory().map_batches(
                        with_sha, batch_format="pyarrow", zero_copy_batch=True
                    ),
                    seen_ds,
                    "content_sha256",
                    n_keys=n_seen,
                    num_partitions=cfg.num_buckets,
                ).drop_columns(["content_sha256"])
            else:
                corpus_window = key_set_filter(
                    corpus_window.map_batches(
                        with_sha, batch_format="pyarrow", zero_copy_batch=True
                    ),
                    seen_ds,
                    "content_sha256",
                    n_keys=n_seen,
                    broadcast_limit=cfg.broadcast_limit,
                    num_partitions=cfg.num_buckets,
                ).drop_columns(["content_sha256"])

    d = os.path.join(index_root, f"window={window_id}")
    build_index(corpus_window, d, cfg, fingerprint=f"window:{window_id}")
    dirs = [w for w, _ in _live_windows(index_root)]
    # incremental df path: prior snapshot + this window's parts (falls
    # back to full re-aggregation when coverage doesn't line up)
    if refresh_stats:
        distribute_global_stats(dirs, appended=d)
    return dirs


def refresh_global_stats(index_root: str, appended: str | None = None) -> list[str]:
    """Redistribute corpus-wide statistics across all live windows —
    the explicit counterpart to deferred ``append_window(...,
    refresh_stats=False)`` appends. With multiple new windows the
    coverage marker can't match, so this is the full (term, df)
    re-aggregation; still O(dictionary), never O(postings)."""
    dirs = [w for w, _ in _live_windows(index_root)]
    distribute_global_stats(dirs, appended=appended)
    return dirs


def append_windows(
    windows,
    index_root: str,
    cfg: EngineConfig | None = None,
) -> list[str]:
    """Append N corpus windows with ONE global-stats redistribution
    (VERDICT r3, Next round #5 — frequent-append batching).

    ``windows``: iterable of ``(corpus_window, window_id)`` or
    ``(corpus_window, window_id, corpus_factory)`` tuples, applied in
    order (cross-window dedup sees each earlier window). Returns the
    live window dirs after the final refresh. Rank-identity with the
    per-append refresh path is pinned by
    tests/test_incremental.py::test_append_windows_batched."""
    cfg = cfg or EngineConfig()
    for w in windows:
        ds, window_id, *rest = w
        append_window(
            ds, index_root, window_id, cfg,
            corpus_factory=rest[0] if rest else None,
            refresh_stats=False,
        )
    return refresh_global_stats(index_root)


def _tombstone_ids(index_root: str):
    """Sorted uint64 doc_ids tombstoned under ``index_root/tombstones``
    (empty array when none)."""
    import numpy as np

    from ..state.fsio import glob_parquet

    import pyarrow.parquet as pq

    files = glob_parquet(os.path.join(index_root, "tombstones"))
    if not files:
        return np.empty(0, dtype=np.uint64)
    return np.unique(
        np.concatenate(
            [
                pq.read_table(f, columns=["doc_id"])["doc_id"]
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
                for f in files
            ]
        )
    )


def delete_docs(
    index_root: str,
    doc_ids=None,
    shas: list[str] | None = None,
    cfg: EngineConfig | None = None,
) -> int:
    """Tombstone documents in a windowed index (Lucene-style deletes —
    the capability the reference lacks entirely: its FAISS index can
    only REBUILD to remove, /root/reference/index/faiss_index.py:243-266).

    Writes an append-only, content-addressed tombstone parquet under
    ``index_root/tombstones/`` (idempotent: re-deleting the same set
    overwrites the same file). ``query_windows`` then excludes the
    doc_ids from every result while corpus statistics stay pre-delete
    (the standard deleted-docs contract); ``compact_windows`` applies
    tombstones physically and recomputes exact statistics.

    ``shas`` are resolved to doc_ids against the live windows' docs
    registries via a distributed narrow read (only matches reach the
    driver). Unknown shas are no-ops. Returns the number of doc_ids
    tombstoned by THIS call."""
    import hashlib

    import numpy as np
    import pyarrow.compute as pc

    from ..collect import collect_table
    from ..state.fsio import makedirs as fs_makedirs, read_parquet_files, write_parquet_atomic

    ids: list = list(doc_ids or [])
    if shas:
        docs_files = [
            f for d, _ in _live_windows(index_root)
            for f in read_parquet_files(os.path.join(d, "docs"))
        ]
        if docs_files:
            want = pa.array(sorted(set(shas)), type=pa.string())

            def matches(t: pa.Table) -> pa.Table:
                m = pc.is_in(t["content_sha256"].combine_chunks(), value_set=want)
                return t.filter(m).select(["doc_id", "content_sha256"])

            hits = collect_table(
                ray.data.read_parquet(
                    docs_files, columns=["doc_id", "content_sha256"]
                ).map_batches(matches, batch_format="pyarrow", zero_copy_batch=True),
                empty_schema=pa.schema(
                    [("doc_id", pa.uint64()), ("content_sha256", pa.string())]
                ),
            )
            ids.extend(hits["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64))
    if not ids:
        return 0
    arr = np.unique(np.asarray(ids, dtype=np.uint64))
    tag = hashlib.sha256(arr.tobytes()).hexdigest()[:16]
    fs_makedirs(os.path.join(index_root, "tombstones"))
    write_parquet_atomic(
        pa.table({"doc_id": pa.array(arr, type=pa.uint64())}),
        os.path.join(index_root, "tombstones", f"tomb-{tag}.parquet"),
    )
    return int(arr.size)


def plan_compaction(
    index_root: str,
    max_windows: int = 4,
    tier_factor: float = 4.0,
) -> list[str]:
    """Tiered merge policy (the Lucene TieredMergePolicy analogue for
    window sub-indexes): decide WHICH windows to compact instead of
    always folding everything. Long-running deployments accumulate one
    window per append; merging all of them every time rewrites the big
    old segments over and over (O(n²) total write amplification). The
    policy keeps per-query fan-out ≤ ``max_windows`` while never
    rewriting a window more than ``tier_factor`` times its own size
    ladder (each window participates in O(log_tier(total)) merges over
    its lifetime):

    - if the live window count is ≤ max_windows → no merge (empty plan);
    - otherwise merge the first (smallest-start) RUN of size-sorted
      windows whose members stay within one size tier: each next
      window must be ≤ tier_factor × the largest already in the run.
      A tier gap ends the run; a run of one is skipped (a lone minnow
      below a gap must never block the tier above it), and the scan
      resumes at the gap. No mergeable run → empty plan even if the
      fan-out target is not met (best effort — folding a giant
      segment into a merge of minnows is the write-amplification
      Lucene's policy exists to avoid; the giant merges when its own
      tier fills up).

    Returns window ids (without the ``window=`` prefix) for
    ``compact_windows(window_ids=...)``; pure planning — no I/O beyond
    stats reads."""
    live = sorted(
        (int(s.get("shard_n_docs", s["n_docs"])), os.path.basename(d))
        for d, s in _live_windows(index_root)
    )
    if len(live) <= max_windows:
        return []
    start = 0
    while start < len(live) - 1:
        pick = [live[start]]
        biggest = live[start][0]
        for n, name in live[start + 1:]:
            if n > tier_factor * max(biggest, 1):
                break  # tier gap — never merge across it
            pick.append((n, name))
            biggest = n  # live is sorted ascending
        if len(pick) >= 2:
            return [name.removeprefix("window=") for _, name in pick]
        start += 1  # lone window below a gap: skip it, scan the next tier
    return []


def compact_windows(
    index_root: str,
    window_ids: list[str] | None = None,
    out_window_id: str | None = None,
    cfg: EngineConfig | None = None,
    delete_sources: bool = True,
) -> str:
    """Merge N committed window sub-indexes into ONE (Lucene-style
    segment compaction): long-running windowed deployments accumulate
    per-window fan-out cost at query time; compaction folds old
    windows back into a single sub-index with rank-identical results.

    Pipeline (resumable, no in-place mutation):
    1. ``merge.merge_postings`` (shared with ``merge_indexes``) writes
       the new ``window=<out_id>`` from the source docs registries minus
       tombstones and the sources' still-encoded postings, merged bucket
       by bucket — no re-tokenization, no staging dirs; a rerun skips
       the buckets already committed. Its postings rows equal a
       ``build_index`` over the surviving docs: appends already dropped
       every later-arriving copy, so dedup keeps the earliest-arriving
       copy of each content (arrival order, not the global min doc_id;
       see the module docstring);
    2. crash-safe cutover: a ``_COMPACTED_FROM`` marker in the new dir
       (written BEFORE the merge; effective only once the merge
       commits) makes ``query_windows`` exclude the sources even if
       deletion hasn't happened yet — at no point can a query double-
       count; source dirs are deleted last, then global stats
       redistribute over the remaining windows.

    Returns the new window dir."""
    import hashlib

    from ..state.fsio import read_bytes, rmtree as fs_rmtree

    cfg = cfg or EngineConfig()
    live = _live_windows(index_root)
    if window_ids is not None:
        want = {f"window={w}" for w in window_ids}
        sources = [(d, s) for d, s in live if os.path.basename(d) in want]
        if len(sources) != len(want):
            have = {os.path.basename(d) for d, _ in sources}
            raise FileNotFoundError(f"compact_windows: missing committed windows: {sorted(want - have)}")
    else:
        sources = live
    if not sources:
        raise FileNotFoundError(f"compact_windows: no committed windows under {index_root}")
    src_names = sorted(os.path.basename(d) for d, _ in sources)
    # tombstones (delete_docs) are applied PHYSICALLY here: their
    # identity is part of the merge fingerprint, so deleting more docs
    # and re-compacting never resumes a stale pre-delete merge
    dead = _tombstone_ids(index_root)
    tdig = hashlib.sha256(dead.tobytes()).hexdigest()[:10] if dead.size else "none"
    if out_window_id is None:
        out_window_id = (
            "compact-"
            + hashlib.sha256(("|".join(src_names) + "#" + tdig).encode()).hexdigest()[:10]
        )
    out_dir = os.path.join(index_root, f"window={out_window_id}")
    if os.path.basename(out_dir) in src_names:
        raise ValueError(f"compact_windows: output window id collides with a source: {out_window_id}")

    fingerprint = f"compact:{out_window_id}:{','.join(src_names)}:tomb={tdig}"
    # marker = TRANSITIVE supersession closure: direct sources plus
    # whatever they themselves superseded — so exclusion survives the
    # deletion of an intermediate compacted window whose own marker was
    # the only thing excluding still-on-disk leftovers
    closure = set(src_names)
    for d, _ in sources:
        prior = read_bytes(os.path.join(d, "_COMPACTED_FROM"))
        if prior:
            closure.update(json.loads(prior))
    merge_postings(
        sources, out_dir, cfg, fingerprint, dead=dead,
        marker=("_COMPACTED_FROM", json.dumps(sorted(closure)).encode()),
    )
    # 2. cutover: sources are already query-excluded by the marker now
    # that the merge committed; delete them, then refresh global stats
    if delete_sources:
        for d, _ in sources:
            fs_rmtree(d)
        # also reclaim windows superseded by ANY committed compaction
        # (e.g. kept on disk by an earlier delete_sources=False run) —
        # they are already query-excluded, on disk purely as leftovers
        superseded = _compacted_sources(index_root)
        for d in _window_dirs(index_root):
            if os.path.basename(d) in superseded:
                fs_rmtree(d)
    # a FULL compaction (every live window was a source) has applied
    # every tombstone physically — clear them. Partial compactions keep
    # the tombstones: untouched windows may still hold the doc_ids, and
    # a tombstone for an already-removed doc is a harmless no-op.
    if dead.size and len(sources) == len(live):
        fs_rmtree(os.path.join(index_root, "tombstones"))
    distribute_global_stats([d for d, _ in _live_windows(index_root)])
    return out_dir


def _compacted_sources(index_root: str) -> set[str]:
    """Window basenames superseded by a COMMITTED compacted window
    (its _COMPACTED_FROM marker only takes effect once its own
    corpus_stats exists — a half-built compaction excludes nothing)."""
    from ..state.fsio import read_bytes

    excluded: set[str] = set()
    for d in _window_dirs(index_root):
        if _window_stats(d) is None:
            continue
        data = read_bytes(os.path.join(d, "_COMPACTED_FROM"))
        if data:
            excluded.update(json.loads(data))
    return excluded


def query_windows(
    queries: "ray.data.Dataset",
    index_root: str,
    cfg: EngineConfig | None = None,
    mode: str = "taat",
    concurrency_per_window: int = 1,
    doc_filter: tuple[str, tuple] | None = None,
    exclude_terms: tuple[str, ...] | None = None,
    include_doc_ids=None,
    min_should_match: int | None = None,
    synonyms: dict[str, tuple[str, ...]] | None = None,
    boosts: dict[str, float] | None = None,
) -> "ray.data.Dataset":
    """Fan queries over every live, non-empty window sub-index and
    exact-merge top-k through ``sharded.fan_out``, the path
    ``sharded.query_sharded`` takes. With ``concurrency_per_window`` > 1
    each window decodes once into the object store and its pool actors
    share that copy (``scorer.scorer_pool``); one actor per window reads
    its own window. Docs tombstoned via ``delete_docs`` are excluded
    from every result (each scorer actor reads the small tombstones dir
    once; scores of surviving docs keep the pre-delete corpus
    statistics until compaction).

    ``doc_filter`` / ``exclude_terms`` / ``include_doc_ids`` carry the
    single-index semantics window-locally, exactly as
    ``sharded.query_sharded`` does shard-locally: cross-window dedup
    makes windows disjoint and each doc's postings live wholly in its
    window, so the union of window-local sets is the global set; the
    same disjointness makes ``min_should_match`` / ``synonyms`` /
    ``boosts`` window-locally exact (see query_sharded)."""
    from ..state.fsio import glob_parquet

    cfg = cfg or EngineConfig()
    tomb_dir = os.path.join(index_root, "tombstones")
    # empty windows (fully-deduplicated appends) have nothing to serve
    dirs = [d for d, s in _live_windows(index_root) if s.get("shard_n_docs", s["n_docs"]) > 0]
    if not dirs:
        raise FileNotFoundError(f"no non-empty window=* sub-indexes under {index_root}")
    return fan_out(
        queries, dirs, cfg, concurrency_per_window, mode=mode,
        exclude_doc_ids=tomb_dir if glob_parquet(tomb_dir) else None,
        doc_filter=doc_filter, exclude_terms=exclude_terms,
        include_doc_ids=include_doc_ids, min_should_match=min_should_match,
        synonyms=synonyms, boosts=boosts,
    )
