"""Merge committed indexes into ONE standalone index, bucket by bucket.

Lucene's segment merge and ``IndexWriter.addIndexes`` (the reference
lacks both: its FAISS/SQLite state can only be rebuilt from source
documents): N committed indexes — one per corpus shard, machine or
arrival window — fold into one whose postings rows equal, on every
column, those of a ``build_index`` over their surviving documents.
``merge_postings`` is the one step compaction and ``merge_indexes``
share. Content is never re-tokenized (it was never stored) and postings
are never partitioned again: every source hashes terms into the same
``num_buckets`` buckets (``config_hash`` and the term-hash canary pin
it), so output bucket b merges every source's bucket b.

1. Union the docs registries minus tombstones; the build's exact dedup
   (keep-first = min doc_id per content sha) and corpus totals run over
   the union, so cross-source duplicates collapse as in one build.
2. One ``groupby(bucket)`` over the sources' still-encoded postings rows
   (~10 B per posting). Each bucket task decodes its rows, looks each
   posting's doc_len up in its own source's registry, drops tombstones
   and dedup losers and re-encodes at the new avgdl. A term whose summed
   source df reaches the hot threshold goes to ``parts/hot``, decoded on
   its own: no task holds more than one bucket's cold postings or one
   hot term's postings.
3. Each bucket commits with a manifest (a rerun skips it), then
   ``build.commit_index`` writes term_dict, corpus_stats and ``_SUCCESS``.

Assumptions: the union's (doc_id → doc_len) table and a dedup loser set
too large to broadcast fit a worker (the scorer's own memory class);
doc_ids are globally consistent — ``doc_id_mode="hash"`` guarantees it,
``column`` mode callers must feed disjoint id spaces.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data

from ..build import (POSTINGS_SCHEMA, BuildResult, _encode_sorted_group, commit_empty, commit_index,
                     committed_result, corpus_totals, find_losers)
from ..codec import decode_rows
from ..config import EngineConfig
from ..ids import check_term_hash_canary, term_bucket
from ..state.fsio import glob_parquet, listdir_count, makedirs, read_bytes, rmtree, write_parquet_atomic
from ..state.manifest import atomic_write_bytes, committed_parts, read_manifest, write_manifest

__all__ = ["merge_indexes", "merge_postings"]


def _drop_tombstoned(ds: "ray.data.Dataset", dead) -> "ray.data.Dataset":
    """Filter rows whose uint64 ``doc_id`` is in the sorted ``dead``
    array (broadcast once via ray.put; sorted-probe per batch)."""
    if dead is None or not len(dead):
        return ds
    ref = ray.put(dead)

    def drop(t: pa.Table, _r=ref) -> pa.Table:
        da = ray.get(_r)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        pos = np.minimum(np.searchsorted(da, ids), da.size - 1)
        return t.filter(pa.array(da[pos] != ids))

    return ds.map_batches(drop, batch_format="pyarrow", zero_copy_batch=True)


class _BucketMerge:
    """``map_groups`` callable: one output bucket from every source's
    encoded rows of that bucket (rows carry ``src``, their source's
    index into ``src_dirs``). Writes ``parts/g{b·(1+hot_salt)}`` and
    ``parts/hot/b{b}.parquet`` atomically, then commits the bucket's
    manifest; returns one small stats row."""

    def __init__(self, cfg: EngineConfig, out_dir: str, fingerprint: str, avgdl: float,
                 hot_thresh: int, src_dirs: list[str], drop_ref, spill: str | None):
        self.cfg, self.out_dir, self.fingerprint = cfg, out_dir, fingerprint
        self.avgdl, self.hot_thresh, self.src_dirs = avgdl, hot_thresh, src_dirs
        self.drop_ref, self.spill = drop_ref, spill  # tombstones ∪ dedup losers
        self.__name__ = "_BucketMerge"  # map_groups wraps fn and reads __name__

    def _encode(self, rows: pa.Table, drop: np.ndarray, lens: dict) -> pa.Table | None:
        """Decode ``rows`` source by source, attach doc_len, drop
        ``drop``, re-encode at the merged avgdl (None for no rows)."""
        if not rows.num_rows:
            return None
        src = rows["src"].to_numpy()
        cols = []
        for s in np.unique(src):
            if s not in lens:
                t = pq.read_table(os.path.join(self.src_dirs[s], "docs"), columns=["doc_id", "doc_len"])
                ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
                order = np.argsort(ids)
                lens[s] = (ids[order], t["doc_len"].to_numpy(zero_copy_only=False)[order])
            terms, doc_ids, tfs = decode_rows(rows.filter(pa.array(src == s)))
            keep = ~np.isin(doc_ids, drop)
            ids, dl = lens[s]
            doc_ids = doc_ids[keep]
            cols.append((terms[keep], doc_ids, tfs[keep], dl[np.searchsorted(ids, doc_ids)]))
        return _encode_sorted_group(*map(np.concatenate, zip(*cols)), self.avgdl, self.cfg)

    def __call__(self, group: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        b = int(group["bucket"][0].as_py())
        part = f"g{b * (1 + self.cfg.hot_salt)}"
        drop = ray.get(self.drop_ref)
        if self.spill is not None:
            spilled = pq.read_table(self.spill, columns=["doc_id"])["doc_id"].to_numpy()
            drop = np.union1d(drop, spilled.astype(np.uint64))
        lens: dict = {}
        codes, _ = pd.factorize(group["term"].to_numpy(zero_copy_only=False), sort=True)
        src_df = np.bincount(codes, weights=group["df"].to_numpy().astype(np.float64))
        is_hot = (src_df >= self.hot_thresh)[codes]
        outs = [(os.path.join("parts", part, "postings.parquet"),
                 [self._encode(group.filter(pa.array(~is_hot)), drop, lens)])]
        hot_rows = np.flatnonzero(is_hot)
        hot_rows = hot_rows[np.argsort(codes[hot_rows], kind="stable")]
        runs = np.split(hot_rows, np.flatnonzero(np.diff(codes[hot_rows])) + 1)
        outs.append((os.path.join("parts", "hot", f"b{b}.parquet"),
                     [self._encode(group.take(r), drop, lens) for r in runs]))
        nbytes = n_terms = 0
        for rel, tbls in outs:
            tbl = pa.concat_tables([t for t in tbls if t is not None] or [POSTINGS_SCHEMA.empty_table()])
            if tbl.num_rows:
                makedirs(os.path.dirname(os.path.join(self.out_dir, rel)))
                nbytes += write_parquet_atomic(tbl, os.path.join(self.out_dir, rel))
                n_terms += tbl.num_rows
        write_manifest(os.path.join(self.out_dir, "manifest"), part, {
            "part_id": part, "stage": "bucket_merge", "rows_in": group.num_rows,
            "rows_out": n_terms, "bytes_out": int(nbytes), "fingerprint": self.fingerprint,
            "config_hash": self.cfg.config_hash(), "status": "committed",
            "wall_s": round(time.monotonic() - t0, 4),
        })
        return pa.table({"part": [part], "rows_in": [group.num_rows],
                         "n_terms": [n_terms], "bytes_out": [int(nbytes)]})


def _keyed_rows(t: pa.Table, src: int, num_buckets: int, skip: frozenset) -> pa.Table:
    """Tag encoded postings rows with their source and output bucket,
    dropping buckets an earlier run already committed."""
    b = term_bucket(t["term"], num_buckets)
    t = t.append_column("bucket", pa.array(b, type=pa.uint32()))
    t = t.append_column("src", pa.array(np.full(t.num_rows, src, dtype=np.int32)))
    return t.filter(pa.array(~np.isin(b, list(skip)))) if skip else t


def merge_postings(sources: list[tuple[str, dict]], out_dir: str, cfg: EngineConfig, fingerprint: str,
                   dead: np.ndarray | None = None, marker: tuple[str, bytes] | None = None) -> BuildResult:
    """Fold committed indexes ``sources`` — (dir, corpus_stats) pairs —
    into one fresh index at ``out_dir`` (module docstring). ``dead``:
    sorted uint64 doc_ids (tombstones) dropped from the registry and
    every posting list. Unless ``out_dir``'s docs manifest carries this
    (``fingerprint``, cfg) identity, ``out_dir`` is wiped and ``marker``
    — a (name, bytes) file that must exist before the merge commits,
    compaction's supersession marker — written first; otherwise the run
    resumes after the docs union and skips committed buckets. Stages
    recorded: docs_union, dedup, stats_agg, merge_shuffle (named and
    shaped like the build's one shuffle), term_dict."""
    inner_fp = f"{fingerprint}:{cfg.config_hash()}"
    man_dir = os.path.join(out_dir, "manifest")
    docs_dir = os.path.join(out_dir, "docs")
    done = committed_parts(man_dir, inner_fp)
    if "_SUCCESS" in done:
        return committed_result(out_dir)
    dead = np.empty(0, dtype=np.uint64) if dead is None else dead
    stages: dict[str, dict] = {}

    def _stage(name: str, t0: float, **extra) -> None:
        stages[name] = {"wall_s": round(time.monotonic() - t0, 3), **extra}

    t0 = time.monotonic()
    if "docs" not in done:
        done = set()
        rmtree(out_dir)
        makedirs(docs_dir)
        if marker is not None:
            atomic_write_bytes(os.path.join(out_dir, marker[0]), marker[1])
        docs_files = [f for d, _ in sources for f in glob_parquet(os.path.join(d, "docs"))]
        _drop_tombstoned(ray.data.read_parquet(docs_files), dead).write_parquet(docs_dir)
        write_manifest(man_dir, "docs", {
            "part_id": "docs", "stage": "docs_union", "status": "committed",
            "fingerprint": inner_fp, "config_hash": cfg.config_hash(),
            "sources": [d for d, _ in sources],
        })
    _stage("docs_union", t0, skipped="docs" in done)
    if not listdir_count(docs_dir):  # every source doc tombstoned
        return commit_empty(out_dir, cfg, inner_fp, done, stages)
    docs_ds = ray.data.read_parquet(docs_dir)

    t0 = time.monotonic()
    dd = find_losers(docs_ds, out_dir, cfg)
    _stage("dedup", t0, losers=dd.count, path="join" if dd.spill else "broadcast")
    t0 = time.monotonic()
    tot = corpus_totals(docs_ds, dd)
    hot_thresh = max(2, int(cfg.hot_df_ratio * tot.n_docs))
    _stage("stats_agg", t0, n_docs=tot.n_docs)

    t0 = time.monotonic()
    stride = 1 + cfg.hot_salt
    skip = frozenset(int(p[1:]) // stride for p in done if p[:1] == "g" and p[1:].isdigit())
    rows = [
        ray.data.read_parquet(files, columns=["term", "df", "doc_ids_vb", "tfs_vb"]).map_batches(
            _keyed_rows, batch_format="pyarrow",
            fn_kwargs={"src": i, "num_buckets": cfg.num_buckets, "skip": skip},
        )
        for i, (d, _) in enumerate(sources)
        if (files := glob_parquet(os.path.join(d, "parts")))
    ]
    merged = pd.DataFrame({"rows_in": [], "n_terms": [], "bytes_out": []})
    if rows:
        merged = (
            (rows[0].union(*rows[1:]) if len(rows) > 1 else rows[0]).groupby("bucket").map_groups(
                _BucketMerge(cfg, out_dir, inner_fp, tot.avgdl, hot_thresh,
                             [d for d, _ in sources], ray.put(np.union1d(dead, dd.ids)), dd.spill),
                batch_format="pyarrow",
            ).to_pandas()  # tiny: one row per bucket
        )
    _stage("merge_shuffle", t0, groups=len(merged), skipped=len(skip),
           rows_in=int(merged["rows_in"].sum()), terms_out=int(merged["n_terms"].sum()),
           bytes_out=int(merged["bytes_out"].sum()))
    hot_files = glob_parquet(os.path.join(out_dir, "parts", "hot"))
    hot_terms = ray.data.read_parquet(hot_files, columns=["term"]).to_pandas()["term"] if hot_files else []
    return commit_index(out_dir, cfg, inner_fp, done, stages, tot, dd.count, hot_terms, hot_thresh,
                        merge_groups=len(skip) + len(merged))


def merge_indexes(
    sources: list[str],
    out_dir: str,
    cfg: EngineConfig | None = None,
    overwrite: bool = False,
) -> BuildResult:
    """Merge committed indexes ``sources`` into a new standalone index
    at ``out_dir`` through ``merge_postings``: postings rows equal a
    ``build_index`` over the union of the sources' documents (cross-
    source duplicates keep the smallest doc_id). Resumable (a rerun
    skips committed buckets; a completed merge returns instantly).
    Raises FileNotFoundError for an unbuilt source and ValueError when
    a source was built under a DIFFERENT EngineConfig than ``cfg`` —
    mixing analyzer/codec configs would silently corrupt term
    statistics, so the caller must pass the build config."""
    cfg = cfg or EngineConfig()
    if len(sources) < 1:
        raise ValueError("merge_indexes: need at least one source index")
    if os.path.abspath(out_dir) in {os.path.abspath(s) for s in sources}:
        raise ValueError(
            f"merge_indexes: out_dir {out_dir!r} is one of the sources — "
            "the merge would destroy it (same guard as compact_windows)"
        )
    stats = []
    for d in sources:
        raw = read_bytes(os.path.join(d, "corpus_stats.json"))
        if raw is None:
            raise FileNotFoundError(f"{d}/corpus_stats.json: not a built index")
        stats.append(json.loads(raw))
    want_hash = cfg.config_hash()
    for d, s in zip(sources, stats):
        # cross-machine merge is the advertised use case — refuse a
        # source whose builder hashed terms differently than we do
        check_term_hash_canary(s, f"merge_indexes(source={d})")
        if s.get("config_hash") != want_hash:
            raise ValueError(
                f"merge_indexes: {d} was built with config_hash="
                f"{s.get('config_hash')!r}, merge cfg has {want_hash!r} — "
                "pass the EngineConfig the sources were built with"
            )

    ident = "|".join(
        f"{os.path.abspath(d)}#{s.get('fingerprint', '')}" for d, s in
        sorted(zip(sources, stats), key=lambda x: os.path.abspath(x[0]))
    )
    fingerprint = "merge:" + hashlib.sha256(ident.encode()).hexdigest()[:12]
    inner_fp = f"{fingerprint}:{want_hash}"
    # out_dir may be an UNRELATED existing index (or a merge of a
    # different source set) — the sources-identity guard above only
    # protects out_dir being one of the sources. Refuse to let the
    # merge destroy anything whose recorded fingerprint isn't a prior
    # merge of these same sources unless the caller says overwrite=True.
    if not overwrite:
        existing = read_bytes(os.path.join(out_dir, "corpus_stats.json"))
        if existing is not None:
            prior_fp = json.loads(existing).get("fingerprint")
        else:
            staged = read_manifest(os.path.join(out_dir, "manifest"), "docs")
            prior_fp = None if staged is None else staged.get("fingerprint")
        if prior_fp is not None and prior_fp not in (fingerprint, inner_fp):
            raise ValueError(
                f"merge_indexes: out_dir {out_dir!r} already holds an "
                f"index/merge with fingerprint {prior_fp!r} that is not "
                f"a prior merge of these sources ({fingerprint!r}) — "
                "refusing to destroy it; pass overwrite=True to replace"
            )
    return merge_postings(list(zip(sources, stats)), out_dir, cfg, fingerprint)
