"""Index build: corpus Parquet → docs registry + compressed inverted index.

Ray-Data-native re-expression of the reference's corpus-build entry
point (/root/reference/build_massive_corpus.py:134-239 →
ingestion/pipeline_ingest.py:193-315 → index/index_manager.py:44-122),
replacing its sequential SQLite + FAISS path with:

    read_parquet(corpus)
      → map_batches(SpimiTokenizer)          # sha256, doc_id, doc_len, tokenize;
                                             # writes sorted SPIMI posting fragments,
                                             # returns the docs registry rows
      → docs.write_parquet(...)              # docs table + dedup winners + corpus_stats
    read_parquet(fragments)
      → map_batches(partial df pre-agg) → groupby(term).sum   # hot-term detection
      → map_batches(AssignGroupKey)          # bucket = hash(term)%P, salt hot terms
      → groupby("gkey").map_groups(MergeGroup)  # THE wide shuffle: sort, delta+varbyte,
                                             # block-max; per-group atomic file + manifest
    read_parquet(partials) → groupby(term).map_groups(merge salted runs) → hot part

Scale notes (designed for 10^12 docs / multi-node, tested single-node):
  * the corpus is read ONCE; full `content` strings never cross a
    shuffle (fragments carry only (term, doc_id, tf, doc_len));
  * the posting merge shuffles bounded-size groups: `gkey` has at most
    num_buckets * (1 + hot_salt) values, and hot (Zipf-head) terms are
    salted by doc_id so no single group materializes a corpus-sized
    posting list in one task (SURVEY.md §4.3, Scarlett-style);
  * dedup winners / hot-term sets are broadcast via ``ray.put`` and read
    once per task — never re-shipped per batch, never a shuffle join.
    (At >10^8 duplicate rows the loser set should become a hash join on
    doc_id instead; the broadcast is the small-side fast path.)
  * resume is partition-granular: every output partition commits a
    manifest after an atomic rename; a rerun skips committed partitions.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count as RayCount
from ray.data.aggregate import Sum

from .bm25 import tf_sat_weight as _tf_sat_weight
from .codec import binary_payload, decode_rows, varbyte_decode, varbyte_encode, varbyte_lengths
from .config import EngineConfig
from .ids import doc_id_from_key, sha256_hex, term_bucket, term_hash_canary
from .state.manifest import atomic_write_bytes, committed_parts, write_manifest
from .tokenizer import tokenize_batch

DOCS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.uint64()),
        ("repo", pa.string()),
        ("path", pa.string()),
        ("commit", pa.string()),
        ("lang", pa.string()),
        ("content_sha256", pa.string()),
        ("doc_len", pa.uint32()),
    ]
)

POSTINGS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.uint64()),
        ("doc_ids_vb", pa.binary()),
        ("tfs_vb", pa.binary()),
        ("block_max_w", pa.list_(pa.float32())),
        ("block_last_doc", pa.list_(pa.uint64())),
        # byte offset of each block's start inside doc_ids_vb / tfs_vb —
        # blocks are independently decodable (block i's doc base is
        # block_last_doc[i-1]), which is what lets WAND skip DECODING
        # pruned blocks, not just scoring them
        ("block_doc_off", pa.list_(pa.uint32())),
        ("block_tf_off", pa.list_(pa.uint32())),
        ("bucket", pa.uint32()),
    ]
)


def tf_sat_weight(tfs: np.ndarray, doc_lens: np.ndarray, avgdl: float, cfg: EngineConfig) -> np.ndarray:
    """BM25 tf-saturation weight whose block maxima become the
    block-max metadata (contract lives in docinsight_ray.bm25)."""
    return _tf_sat_weight(tfs, doc_lens, avgdl, cfg.k1, cfg.b)


# --------------------------------------------------------------------------
# Stage A: tokenize + docs registry + SPIMI fragments
# --------------------------------------------------------------------------


def _tokenize_rows(batch: pa.Table, cfg: EngineConfig):
    """Shared per-batch tokenize step (single and sharded builds):
    → (doc_ids, content_sha, doc_lens, terms, doc_idx, tfs)."""
    contents = batch["content"].to_pylist()
    sha = sha256_hex(contents)
    if cfg.doc_id_mode == "column":
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    else:
        doc_ids = doc_id_from_key(
            batch["repo"].to_pylist(), batch["path"].to_pylist(), batch["commit"].to_pylist()
        )
    terms, doc_idx, tfs, doc_lens = tokenize_batch(contents, cfg)
    return doc_ids, sha, doc_lens, terms, doc_idx, tfs


def _write_fragment(
    frag_dir: str,
    dfstats_dir: str,
    terms: np.ndarray,
    row_doc_ids: np.ndarray,
    tfs: np.ndarray,
    row_doc_lens: np.ndarray,
    n_docs_batch: int,
    tag_ids: np.ndarray,
) -> None:
    """One sorted SPIMI fragment parquet + its df sidecar.

    Content-addressed names (sha of ``tag_ids``): Ray task retries
    overwrite idempotently; distinct batches can never collide. fsio
    handles plain paths (tmp + atomic rename) and URIs (object-store
    PUT) — the fragments side-channel is the one path every worker
    writes, so on a multi-node cluster it must live on shared/object
    storage (build_index docstring). The sidecar records this batch's
    per-term df (fragment rows are unique (term, doc) pairs, so
    value_counts IS df) plus the batch's doc count for the pigeonhole
    cutoff in hot-term detection."""
    if not terms.size:
        return
    from .state.fsio import write_parquet_atomic

    frag = pa.table(
        {
            "term": pa.array(terms, type=pa.string()),
            "doc_id": pa.array(row_doc_ids, type=pa.uint64()),
            "tf": pa.array(tfs, type=pa.uint32()),
            "doc_len": pa.array(row_doc_lens, type=pa.uint32()),
        }
    )
    batch_id = hashlib.sha256(np.ascontiguousarray(tag_ids).tobytes()).hexdigest()[:20]
    name = f"frag-{batch_id}-{terms.size}"
    write_parquet_atomic(frag, f"{frag_dir}/{name}.parquet")
    vc = pc.value_counts(frag["term"])
    side = pa.table(
        {
            "term": vc.field("values"),
            "pdf": pc.cast(vc.field("counts"), pa.uint32()),
            "ndocs": pa.array(
                np.full(len(vc), n_docs_batch, dtype=np.uint32), type=pa.uint32()
            ),
        }
    )
    write_parquet_atomic(side, f"{dfstats_dir}/{name}.parquet")


class SpimiTokenizer:
    """``map_batches`` callable: one pass over the corpus.

    Emits the docs-registry rows as the dataset output and writes one
    sorted SPIMI posting fragment parquet per input batch as a side
    output (the classic SPIMI "write sorted run per memory budget"
    step). Fragment filenames are content-derived, so Ray task retries
    overwrite rather than duplicate (idempotent).
    """

    def __init__(self, cfg: EngineConfig, fragments_dir: str):
        self.cfg = cfg
        self.fragments_dir = fragments_dir
        # df sidecars: per-fragment (term, pdf, ndocs) pre-aggregates,
        # written alongside the fragments so hot-term detection never
        # re-reads the (avgdl x larger) fragment table — the classic
        # per-partition partial-aggregate pattern
        self.dfstats_dir = fragments_dir.rstrip("/") + "-dfstats"
        from .state.fsio import makedirs

        makedirs(fragments_dir)
        makedirs(self.dfstats_dir)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, sha, doc_lens, terms, doc_idx, tfs = _tokenize_rows(batch, self.cfg)
        _write_fragment(
            self.fragments_dir, self.dfstats_dir,
            terms, doc_ids[doc_idx], tfs, doc_lens[doc_idx],
            n_docs_batch=len(doc_ids), tag_ids=doc_ids,
        )
        return pa.table(
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


# --------------------------------------------------------------------------
# Stage B: merge shuffle
# --------------------------------------------------------------------------


class AssignGroupKey:
    """Adds the merge-shuffle key and applies dedup / resume filters.

    gkey = bucket * (1 + hot_salt)              for normal terms
         = bucket * (1 + hot_salt) + 1 + doc_id % hot_salt   for hot terms

    Hot terms (df above threshold — the Zipf head: `def`, `import`, …)
    are salted so their corpus-sized posting lists are built as
    ``hot_salt`` parallel sorted runs and merged in a second, tiny pass.
    """

    def __init__(
        self,
        cfg: EngineConfig,
        hot_ref: "ray.ObjectRef",
        losers_ref: "ray.ObjectRef",
        done_ref: "ray.ObjectRef",
    ):
        self.cfg = cfg
        self.hot_terms = ray.get(hot_ref)          # np.ndarray[object]
        self.losers = ray.get(losers_ref)          # np.ndarray[uint64], sorted
        self.done = ray.get(done_ref)              # frozenset[int] committed gkeys
        # Arrow value_set built once per actor, not once per batch
        self._hot_set = pa.array(self.hot_terms, type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        cfg = self.cfg
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = np.ones(batch.num_rows, dtype=bool)
        if self.losers.size:
            keep &= ~np.isin(doc_ids, self.losers)
        buckets = term_bucket(batch["term"], cfg.num_buckets).astype(np.int64)
        stride = 1 + cfg.hot_salt
        gkey = buckets * stride
        if self.hot_terms.size:
            # Arrow is_in kernel (hash set in C) beats np.isin on objects
            hot_mask = pc.is_in(
                batch["term"], value_set=self._hot_set
            ).to_numpy(zero_copy_only=False)
            gkey = np.where(
                hot_mask,
                gkey + 1 + (doc_ids % np.uint64(cfg.hot_salt)).astype(np.int64),
                gkey,
            )
        if self.done:
            done_arr = np.fromiter(self.done, dtype=np.int64)
            keep &= ~np.isin(gkey, done_arr)
        out = batch.append_column("gkey", pa.array(gkey, type=pa.int64()))
        return out.filter(pa.array(keep))


# One merge group's varbyte payload must fit Arrow binary's int32
# offsets (the on-disk postings schema; 2 GiB per column per row
# batch). Groups are already memory-bounded by the partitioning knobs
# — this turns the opaque ArrowCapacityError into the remedy.
_BIN_OFFSET_LIMIT = (1 << 31) - (1 << 20)


def _check_group_payload(nbytes: int, what: str, cfg: EngineConfig) -> None:
    if nbytes > _BIN_OFFSET_LIMIT:
        raise ValueError(
            f"{what}: merge-group payload {nbytes / 2**30:.2f} GiB exceeds "
            "Arrow binary offset capacity (2 GiB per group). Re-partition "
            "the merge: raise EngineConfig.num_buckets (cold terms) and/or "
            f"hot_salt (hot terms); current num_buckets={cfg.num_buckets}, "
            f"hot_salt={cfg.hot_salt}."
        )


class _Runs(NamedTuple):
    """One group sorted by (term, doc_id) and encoded: per-term runs
    ``[starts[i], ends[i])`` over the sorted arrays, each run's
    delta+varbyte doc_ids and varbyte tfs, and the per-posting byte
    offsets into the group-wide encodings."""

    terms: np.ndarray          # one term per run (object)
    starts: np.ndarray
    ends: np.ndarray
    doc_ids: np.ndarray
    tfs: np.ndarray
    doc_lens: np.ndarray
    doc_vbs: list[bytes]
    tf_vbs: list[bytes]
    doc_off: np.ndarray
    tf_off: np.ndarray


def _varbyte_runs(values: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """Varbyte-encode ``values`` in one pass → (per-run byte strings,
    per-value byte offsets into the whole encoding)."""
    v = values.astype(np.uint64)
    buf, off = varbyte_encode(v), np.r_[0, np.cumsum(varbyte_lengths(v))]
    return [buf[off[s] : off[e]] for s, e in zip(starts, ends)], off


def _sort_and_encode(
    terms: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    doc_lens: np.ndarray,
    cfg: EngineConfig,
) -> _Runs:
    """The merge's one sort-and-encode step (final groups and salted
    runs alike): sort (term, doc_id), drop exact (term, doc_id)
    duplicates — identical (repo, path, commit) rows; the stable sort
    keeps the first copy in input order — then one delta+varbyte pass
    over the whole non-empty group, sliced per term by byte offset."""
    codes, uniques = pd.factorize(terms, sort=True)
    order = np.lexsort((doc_ids, codes))
    codes, doc_ids, tfs, doc_lens = codes[order], doc_ids[order], tfs[order], doc_lens[order]
    if codes.size > 1:
        dup = np.zeros(codes.size, dtype=bool)
        dup[1:] = (codes[1:] == codes[:-1]) & (doc_ids[1:] == doc_ids[:-1])
        if dup.any():
            keep = ~dup
            codes, doc_ids, tfs, doc_lens = codes[keep], doc_ids[keep], tfs[keep], doc_lens[keep]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    ends = np.r_[starts[1:], codes.size]
    if not ((doc_ids[1:] > doc_ids[:-1]) | (codes[1:] != codes[:-1])).all():
        raise ValueError("postings not strictly increasing within term")
    deltas = doc_ids.copy()
    deltas[1:] -= doc_ids[:-1]
    deltas[starts] = doc_ids[starts]
    doc_vbs, doc_off = _varbyte_runs(deltas, starts, ends)
    tf_vbs, tf_off = _varbyte_runs(tfs, starts, ends)
    _check_group_payload(max(int(doc_off[-1]), int(tf_off[-1])), "encode", cfg)
    run_terms = np.asarray(uniques, dtype=object)[codes[starts]]
    return _Runs(run_terms, starts, ends, doc_ids, tfs, doc_lens,
                 doc_vbs, tf_vbs, doc_off, tf_off)


def _encode_sorted_group(
    terms: np.ndarray,
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    doc_lens: np.ndarray,
    avgdl: float,
    cfg: EngineConfig,
) -> pa.Table:
    """Final postings rows of one group: sorted runs plus block-max
    metadata (block maxima of the tf-saturation weight, last doc_id and
    byte offsets of every block)."""
    if not len(terms):
        return POSTINGS_SCHEMA.empty_table()
    r = _sort_and_encode(terms, doc_ids, tfs, doc_lens, cfg)
    w = tf_sat_weight(r.tfs, r.doc_lens, avgdl, cfg)

    bs = cfg.block_size
    dfs = (r.ends - r.starts).astype(np.uint64)
    bmaxes: list[np.ndarray] = []
    blasts: list[np.ndarray] = []
    bdoffs: list[np.ndarray] = []
    btoffs: list[np.ndarray] = []
    doc_off, tf_off = r.doc_off, r.tf_off
    for s, e in zip(r.starts, r.ends):
        bstarts = np.arange(s, e, bs)
        # float32 block maxima rounded UP — a downward float32 rounding
        # would make the bound unsafe (a posting could exceed it by 1ulp
        # and be wrongly pruned). Reduced over this term's run only: over
        # the whole group, the last block would also take the maximum of
        # every later term's postings
        bm = np.maximum.reduceat(w[s:e], bstarts - s)
        bm32 = bm.astype(np.float32)
        low = bm32.astype(np.float64) < bm
        bm32[low] = np.nextafter(bm32[low], np.float32(np.inf))
        bmaxes.append(bm32)
        blasts.append(r.doc_ids[np.minimum(bstarts + bs, e) - 1])
        bdoffs.append((doc_off[bstarts] - doc_off[s]).astype(np.uint32))
        btoffs.append((tf_off[bstarts] - tf_off[s]).astype(np.uint32))
    return pa.table(
        {
            "term": pa.array(r.terms, type=pa.string()),
            "df": pa.array(dfs, type=pa.uint64()),
            "doc_ids_vb": pa.array(r.doc_vbs, type=pa.binary()),
            "tfs_vb": pa.array(r.tf_vbs, type=pa.binary()),
            "block_max_w": pa.array(bmaxes, type=pa.list_(pa.float32())),
            "block_last_doc": pa.array(blasts, type=pa.list_(pa.uint64())),
            "block_doc_off": pa.array(bdoffs, type=pa.list_(pa.uint32())),
            "block_tf_off": pa.array(btoffs, type=pa.list_(pa.uint32())),
            "bucket": pa.array(term_bucket(r.terms, cfg.num_buckets), type=pa.uint32()),
        }
    )


class MergeGroup:
    """``map_groups`` callable for the wide shuffle: one group = one
    gkey. Normal groups write their final postings partition atomically
    and commit a manifest; salted groups write partial sorted runs
    (with doc_lens preserved for the final hot merge). Returns a tiny
    stats row either way — final postings never flow back through the
    object store."""

    def __init__(self, cfg: EngineConfig, out_dir: str, avgdl: float, fingerprint: str):
        self.cfg = cfg
        self.out_dir = out_dir
        self.avgdl = avgdl
        self.fingerprint = fingerprint
        self.__name__ = "MergeGroup"  # map_groups wraps fn and reads __name__

    def __call__(self, group: pa.Table) -> pa.Table:
        from .state.fsio import makedirs, write_parquet_atomic

        t0 = time.monotonic()
        cfg = self.cfg
        gkey = int(group["gkey"][0].as_py())
        stride = 1 + cfg.hot_salt
        is_salted = (gkey % stride) != 0
        terms = np.asarray(group["term"].to_pylist(), dtype=object)
        doc_ids = group["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        tfs = group["tf"].to_numpy(zero_copy_only=False).astype(np.uint32)
        doc_lens = group["doc_len"].to_numpy(zero_copy_only=False).astype(np.uint32)

        if is_salted:
            # ENCODED partial run per hot term: delta+varbyte doc_ids,
            # varbyte tfs + doc_lens (doc_len rides along for the
            # final re-weighting). One row per term instead of one per
            # posting — the second (hot-merge) shuffle moves compressed
            # run payloads, not ~Σ df(hot) raw rows (which dominated
            # the 100k build's hot_merge stage).
            r = _sort_and_encode(terms, doc_ids, tfs, doc_lens, cfg)
            dl_vbs, dl_off = _varbyte_runs(r.doc_lens, r.starts, r.ends)
            _check_group_payload(int(dl_off[-1]), "encode salted run", cfg)
            tbl = pa.table(
                {
                    "term": pa.array(r.terms, type=pa.string()),
                    "n": pa.array((r.ends - r.starts).astype(np.uint64), type=pa.uint64()),
                    "doc_ids_vb": pa.array(r.doc_vbs, type=pa.binary()),
                    "tfs_vb": pa.array(r.tf_vbs, type=pa.binary()),
                    "doc_lens_vb": pa.array(dl_vbs, type=pa.binary()),
                }
            )
            part_dir = os.path.join(self.out_dir, "partial")
            makedirs(part_dir)
            nbytes = write_parquet_atomic(tbl, os.path.join(part_dir, f"g{gkey}.parquet"))
            kind = "partial"
        else:
            tbl = _encode_sorted_group(terms, doc_ids, tfs, doc_lens, self.avgdl, cfg)
            part_dir = os.path.join(self.out_dir, "parts", f"g{gkey}")
            makedirs(part_dir)
            nbytes = write_parquet_atomic(tbl, os.path.join(part_dir, "postings.parquet"))
            kind = "final"
        n_terms = tbl.num_rows
        write_manifest(
            os.path.join(self.out_dir, "manifest"),
            f"g{gkey}",
            {
                "part_id": f"g{gkey}",
                "stage": "merge",
                "kind": kind,
                "rows_in": group.num_rows,
                "rows_out": int(n_terms),
                "bytes_out": int(nbytes),
                "fingerprint": self.fingerprint,
                "config_hash": cfg.config_hash(),
                "status": "committed",
                "wall_s": round(time.monotonic() - t0, 4),
            },
        )
        return pa.table(
            {
                "gkey": pa.array([gkey], type=pa.int64()),
                "kind": pa.array([kind]),
                "rows_in": pa.array([group.num_rows], type=pa.int64()),
                "n_terms": pa.array([int(n_terms)], type=pa.int64()),
                "bytes_out": pa.array([int(nbytes)], type=pa.int64()),
                "wall_s": pa.array([time.monotonic() - t0], type=pa.float64()),
            }
        )


class MergeHotTerm:
    """Second (tiny) pass: merge one hot term's encoded salted runs.

    The group is ~hot_salt encoded-run ROWS for one term (salt =
    doc_id % S, so runs interleave): decode the runs, and hand the
    whole term to the shared sorted-group encoder (which
    re-sorts, drops (term, doc_id) duplicates, and emits the final
    block-max posting row)."""

    def __init__(self, cfg: EngineConfig, avgdl: float):
        self.cfg = cfg
        self.avgdl = avgdl
        self.__name__ = "MergeHotTerm"

    def __call__(self, group: pa.Table) -> pa.Table:
        terms, doc_ids, tfs = decode_rows(group, count="n")
        doc_lens = varbyte_decode(binary_payload(group["doc_lens_vb"]), doc_ids.size)
        return _encode_sorted_group(terms, doc_ids, tfs.astype(np.uint32),
                                    doc_lens.astype(np.uint32), self.avgdl, self.cfg)


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------


@dataclass
class BuildResult:
    index_dir: str
    n_docs: int
    total_len: int
    avgdl: float
    n_dup_losers: int
    hot_terms: list[str]
    stats: dict[str, Any] = field(default_factory=dict)


def committed_result(index_dir: str) -> BuildResult:
    """The BuildResult of an index whose build already committed."""
    from .state.fsio import read_bytes

    st = json.loads(read_bytes(os.path.join(index_dir, "corpus_stats.json")))
    return BuildResult(index_dir, st["n_docs"], st["total_len"], st["avgdl"],
                       st["n_dup_losers"], st["hot_terms"], st)


def keep_first_losers(docs_ds: "ray.data.Dataset", cfg: EngineConfig):
    """Exact keep-first dedup over a docs registry Dataset (columns
    content_sha256, doc_id, doc_len): every copy of a content except
    the one with the smallest doc_id loses. Returns the loser
    (doc_id, doc_len) rows, or None when no content repeats. Narrow
    projection shuffle only — content never moves. Two tiers, the same
    rows (test_dedup_join_path):

    * loser count <= ``cfg.broadcast_limit`` (duplicate shas are rare —
      the reference's re-ingest skip semantics): a small ``pa.Table``,
      picked driver-side from just the duplicate-sha rows;
    * above it: a lazy Dataset — ``groupby(sha).min`` winners hash-
      joined back — so no process holds the loser set."""
    sha_counts = (
        docs_ds.select_columns(["content_sha256"])
        .groupby("content_sha256")
        .aggregate(RayCount(alias_name="n"))
    )
    dup_ds = sha_counts.map_batches(
        lambda t: t.filter(pc.greater(t["n"], pa.scalar(1))),
        batch_format="pyarrow",
    ).materialize()  # bounded by the duplicate-sha count
    n_dup_shas = dup_ds.count()
    if n_dup_shas == 0:
        return None
    if int(dup_ds.sum("n")) - n_dup_shas <= cfg.broadcast_limit:
        dup_df = dup_ds.to_pandas()
        dup_ref = ray.put(pa.array(sorted(dup_df["content_sha256"]), type=pa.string()))

        def only_dups(batch: pa.Table, *, _ref=dup_ref) -> pa.Table:
            mask = pc.is_in(batch["content_sha256"], value_set=ray.get(_ref))
            return batch.select(["content_sha256", "doc_id", "doc_len"]).filter(mask)

        dup_rows = docs_ds.map_batches(only_dups, batch_format="pyarrow").to_pandas()
        dup_rows = dup_rows.sort_values("doc_id")
        losers_df = dup_rows[dup_rows.duplicated("content_sha256", keep="first")]
        return pa.Table.from_pandas(losers_df[["doc_id", "doc_len"]], preserve_index=False)

    from ray.data.aggregate import Min as RayMin

    # Ray 2.49 hazard: Min on full-range uint64 overflows (Python int ->
    # C long) and can SIGSEGV the hash-shuffle aggregator. Order-
    # preserving workaround: aggregate the sign-bit-flipped int64 view
    # (uint64 order == int64 order after XOR 2^63), keep the real
    # doc_id alongside.
    def with_skey(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        skey = (ids ^ np.uint64(1 << 63)).view(np.int64)
        return pa.table(
            {
                "content_sha256": t["content_sha256"],
                "doc_id": t["doc_id"],
                "doc_len": t["doc_len"],
                "skey": pa.array(skey, type=pa.int64()),
            }
        )

    shifted = docs_ds.select_columns(
        ["content_sha256", "doc_id", "doc_len"]
    ).map_batches(with_skey, batch_format="pyarrow")
    winners = (
        shifted.select_columns(["content_sha256", "skey"])
        .groupby("content_sha256")
        .aggregate(RayMin("skey", alias_name="winner_skey"))
        # Ray 2.49: joins break on empty right-side blocks
        # (docinsight_ray.joins) — consolidate first
        .repartition(cfg.num_buckets)
    )
    joined = shifted.join(
        winners,
        join_type="inner",
        num_partitions=cfg.num_buckets,
        on=("content_sha256",),
    )

    def keep_losers(t: pa.Table) -> pa.Table:
        mask = pc.not_equal(t["skey"], t["winner_skey"])
        return t.select(["doc_id", "doc_len"]).filter(mask)

    return joined.map_batches(keep_losers, batch_format="pyarrow")


class Losers(NamedTuple):
    """Dedup losers of one index: their doc_ids (sorted uint64) when
    few enough to broadcast, else the parquet ``spill`` dir holding
    them (``ids`` empty); their count and summed doc_len."""

    ids: np.ndarray
    count: int
    length: int
    spill: str | None


def find_losers(docs_ds: "ray.data.Dataset", index_dir: str, cfg: EngineConfig,
                ext_losers_dir: str | None = None) -> Losers:
    """Exact dedup (content_sha256, keep min doc_id) over a docs
    registry: ``keep_first_losers``, or an externally computed spill
    (sharded global dedup). A small loser set is broadcast; a large one
    spills to ``index_dir/dedup_losers`` (removed by ``commit_index``)
    so no process holds it."""
    from .state.fsio import glob_parquet, makedirs, rmtree

    found = None  # loser rows: a small pa.Table or a parquet spill dir
    if ext_losers_dir is not None and glob_parquet(ext_losers_dir):
        found = ext_losers_dir
    elif cfg.dedup:
        found = keep_first_losers(docs_ds, cfg)
    if isinstance(found, ray.data.Dataset):  # the join tier: spill it
        own_spill = os.path.join(index_dir, "dedup_losers")
        rmtree(own_spill)
        makedirs(own_spill)
        found.write_parquet(own_spill)
        found = own_spill
    if found is None:
        return Losers(np.empty(0, dtype=np.uint64), 0, 0, None)
    if isinstance(found, pa.Table):
        ids = np.sort(found["doc_id"].to_numpy().astype(np.uint64))
        return Losers(ids, found.num_rows, int(pc.sum(found["doc_len"]).as_py()), None)
    spilled = ray.data.read_parquet(glob_parquet(found))
    count, length = spilled.count(), int(spilled.sum("doc_len") or 0)
    if count <= cfg.broadcast_limit:
        ids = np.sort(spilled.to_pandas()["doc_id"].to_numpy().astype(np.uint64))
        return Losers(ids, count, length, None)
    return Losers(np.empty(0, dtype=np.uint64), count, length, found)


class CorpusTotals(NamedTuple):
    n_docs: int
    total_len: int
    avgdl: float


def corpus_totals(docs_ds: "ray.data.Dataset", losers: Losers) -> CorpusTotals:
    """Live doc count, token total and avgdl of a docs registry minus
    its dedup losers — one execution for both aggregates."""
    agg = docs_ds.aggregate(RayCount(alias_name="n"), Sum("doc_len", alias_name="len"))
    n_docs = int(agg["n"]) - losers.count
    total_len = int(agg["len"]) - losers.length
    return CorpusTotals(n_docs, total_len, total_len / n_docs if n_docs else 1.0)


def commit_empty(index_dir: str, cfg: EngineConfig, fingerprint: str, done: set[str],
                 stages: dict[str, dict]) -> BuildResult:
    """Commit an empty-but-valid index: no documents, no postings."""
    from .state.fsio import makedirs, write_parquet_atomic

    makedirs(os.path.join(index_dir, "docs"))
    write_parquet_atomic(DOCS_SCHEMA.empty_table(), os.path.join(index_dir, "docs", "empty.parquet"))
    makedirs(os.path.join(index_dir, "parts"))
    return commit_index(index_dir, cfg, fingerprint, done, stages, CorpusTotals(0, 0, 1.0), 0,
                        hot_terms=[], hot_thresh=0, merge_groups=0)


def build_index(
    corpus: "ray.data.Dataset",
    index_dir: str,
    cfg: EngineConfig | None = None,
    fingerprint: str = "",
    fragments_dir: str | None = None,
    ext_losers_dir: str | None = None,
) -> BuildResult:
    """Build the full index under ``index_dir``. Resumable: committed
    partitions (matching fingerprint + config hash) are skipped.

    Multi-node storage contract: every path here is written/read by
    WORKERS, so on a real cluster ``index_dir`` (and the optional
    separate ``fragments_dir``) must resolve to storage all nodes
    share: a shared POSIX filesystem (plain paths — rename-commit
    semantics) or an object store via pyarrow.fs URIs (``s3://…``,
    ``file:///…`` — PUT-commit semantics; state/fsio.py handles both).
    Single-node/tests need nothing: everything defaults to local
    directories under ``index_dir``.

    ``ext_losers_dir``: parquet dir of EXTERNALLY-computed dedup loser
    rows (doc_id, doc_len) to drop from this build — the sharded build
    passes each shard its slice of a GLOBAL keep-first pass (a
    duplicate's copies can land in different shards, so per-shard dedup
    cannot see them). Mutually exclusive with cfg.dedup's own pass
    (takes precedence); the directory is caller-owned and never
    deleted here."""
    from .state.fsio import makedirs as fs_makedirs, rmtree as fs_rmtree

    cfg = cfg or EngineConfig()
    fingerprint = f"{fingerprint}:{cfg.config_hash()}"
    man_dir = os.path.join(index_dir, "manifest")
    frag_dir = fragments_dir or os.path.join(index_dir, "fragments")
    docs_dir = os.path.join(index_dir, "docs")
    fs_makedirs(index_dir)

    done = committed_parts(man_dir, fingerprint)
    if "docs" not in done:
        # no resumable state for THIS (input, config) identity → clean slate
        for sub in ("fragments", "fragments-dfstats", "docs", "parts",
                    "partial", "manifest", "dedup_losers", "term_dict"):
            fs_rmtree(os.path.join(index_dir, sub))
        if fragments_dir is not None:
            for d in (frag_dir, frag_dir.rstrip("/") + "-dfstats"):
                fs_rmtree(d)
        done = set()
    if "_SUCCESS" in done:
        return committed_result(index_dir)

    # per-stage lineage metrics (north rule: row/byte metrics per stage)
    stage_metrics: dict[str, dict] = {}

    def _stage(name: str, t0: float, **extra) -> None:
        stage_metrics[name] = {"wall_s": round(time.monotonic() - t0, 3), **extra}

    # ---- Stage A: tokenize once; docs registry out, SPIMI fragments aside
    t0 = time.monotonic()
    if "docs" not in done:
        docs_ds = corpus.map_batches(
            SpimiTokenizer(cfg, frag_dir),
            batch_format="pyarrow",
            batch_size=cfg.tokenize_batch_size,
            zero_copy_batch=True,
        )
        docs_ds.write_parquet(docs_dir)
        write_manifest(man_dir, "docs", {
            "part_id": "docs", "stage": "tokenize", "status": "committed",
            "fingerprint": fingerprint, "config_hash": cfg.config_hash(),
            "wall_s": round(time.monotonic() - t0, 4),
        })
    from .state.fsio import listdir_count

    _stage("tokenize_docs", t0,
           fragment_files=listdir_count(frag_dir),
           skipped="docs" in done)
    if not listdir_count(docs_dir):
        # empty corpus (e.g. a fully-deduplicated incremental window):
        # commit an empty-but-valid index so readers see a consistent layout
        return commit_empty(index_dir, cfg, fingerprint, done, stage_metrics)
    docs_ds = ray.data.read_parquet(docs_dir)

    t0 = time.monotonic()
    dd = find_losers(docs_ds, index_dir, cfg, ext_losers_dir)
    _stage("dedup", t0, losers=dd.count, path="join" if dd.spill else "broadcast")

    t0 = time.monotonic()
    tot = corpus_totals(docs_ds, dd)
    n_total, n_docs, avgdl = tot.n_docs + dd.count, tot.n_docs, tot.avgdl
    _stage("corpus_stats_agg", t0, n_docs=n_docs)

    t0 = time.monotonic()
    # ---- Hot-term detection (SURVEY.md §2.5 G3 / §4.3): salting runs
    # whenever the observed df finds hot terms.
    from .state.fsio import is_uri, read_parquet_files

    hot_thresh = max(2, int(cfg.hot_df_ratio * n_docs))
    # Detection over the df SIDECARS only (per-fragment (term, pdf,
    # ndocs) partial aggregates written during tokenization — the
    # fragment table, ~avgdl x larger, is never re-read; the round-1
    # full groupby(term) over the whole vocabulary cost 35 s of a 79 s
    # 100k build). Two cheap passes:
    #   1. pigeonhole candidates — fragment files cover WHOLE docs
    #      (Σ ndocs_f == n_total exactly), so df >= H implies some file
    #      has pdf * n_total >= H * ndocs_f; keep only those terms (a
    #      tiny superset of the hot set);
    #   2. exact df for candidates: sum their sidecar pdf rows.
    # The hot set is EXACTLY the full-shuffle answer, independent of
    # read-batch layout (sidecars are per-fragment-file).
    dfstats_dir = frag_dir.rstrip("/") + "-dfstats"
    sides = (
        ray.data.read_parquet(read_parquet_files(dfstats_dir) if is_uri(dfstats_dir) else dfstats_dir)
        if listdir_count(dfstats_dir)
        else None
    )

    def candidates(batch: pa.Table) -> pa.Table:
        pdf = batch["pdf"].to_numpy(zero_copy_only=False).astype(np.int64)
        nd = batch["ndocs"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = pdf * int(n_total) >= int(hot_thresh) * nd
        return pa.table({"term": batch["term"].filter(pa.array(keep))})

    if sides is None:
        cand_terms = []
    else:
        cand = sides.map_batches(candidates, batch_format="pyarrow").to_pandas()
        cand_terms = sorted(set(cand["term"])) if "term" in cand.columns else []
    if cand_terms:
        cand_ref = ray.put(pa.array(cand_terms, type=pa.string()))

        def cand_df(batch: pa.Table, *, _r=cand_ref) -> pa.Table:
            sel = batch.filter(pc.is_in(batch["term"], value_set=ray.get(_r)))
            return pa.table({"term": sel["term"], "pdf": sel["pdf"]})

        dfp = sides.map_batches(cand_df, batch_format="pyarrow").to_pandas()
        exact = dfp.groupby("term")["pdf"].sum()  # candidates only — tiny
        hot_terms = np.asarray(sorted(exact[exact >= hot_thresh].index), dtype=object)
    else:
        hot_terms = np.empty(0, dtype=object)

    _stage("hot_term_detect", t0, hot_terms=int(hot_terms.size))

    t0 = time.monotonic()
    # ---- The wide shuffle: groupby(gkey) → merge/compress/commit
    frags = ray.data.read_parquet(read_parquet_files(frag_dir) if is_uri(frag_dir) else frag_dir)
    merge_in = frags
    if dd.spill is not None:
        # join-path dedup: loser set too large to broadcast — anti-join
        # the fragments against the spilled loser Dataset (hot detection
        # above intentionally ran on the unfiltered fragments, matching
        # the broadcast path where AssignGroupKey filters post-detect)
        from .joins import key_set_filter

        merge_in = key_set_filter(
            frags,
            ray.data.read_parquet(dd.spill, columns=["doc_id"]),
            "doc_id",
            n_keys=dd.count,
            broadcast_limit=cfg.broadcast_limit,
            num_partitions=cfg.num_buckets,
        )
    hot_ref = ray.put(hot_terms)
    losers_ref = ray.put(dd.ids)
    done_ref = ray.put(frozenset(
        int(p[1:]) for p in done if p.startswith("g") and p[1:].isdigit()
    ))
    keyed = merge_in.map_batches(
        AssignGroupKey(cfg, hot_ref, losers_ref, done_ref),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    stats_ds = keyed.groupby("gkey").map_groups(
        MergeGroup(cfg, index_dir, avgdl, fingerprint),
        batch_format="pyarrow",
    )
    merge_stats = stats_ds.to_pandas()  # tiny: one row per gkey
    _stage(
        "merge_shuffle", t0,
        groups=int(len(merge_stats)),
        rows_in=int(merge_stats["rows_in"].sum()) if len(merge_stats) else 0,
        terms_out=int(merge_stats["n_terms"].sum()) if len(merge_stats) else 0,
        bytes_out=int(merge_stats["bytes_out"].sum()) if len(merge_stats) else 0,
    )

    t0 = time.monotonic()

    # ---- Final hot merge (only if salted partials exist)
    partial_dir = os.path.join(index_dir, "partial")
    hot_part_dir = os.path.join(index_dir, "parts", "hot")
    if listdir_count(partial_dir) and "hot" not in done:
        t0h = time.monotonic()
        hot_final = (
            ray.data.read_parquet(partial_dir)
            .groupby("term")
            .map_groups(MergeHotTerm(cfg, avgdl), batch_format="pyarrow")
        )
        # a crash mid-write with the docs manifest committed resumes into
        # this branch: clear any partial hot output first so the scorer's
        # recursive parts/ glob never sees duplicated or truncated files
        fs_rmtree(hot_part_dir)
        fs_makedirs(hot_part_dir)
        hot_final.write_parquet(hot_part_dir)
        write_manifest(man_dir, "hot", {
            "part_id": "hot", "stage": "merge_hot", "status": "committed",
            "fingerprint": fingerprint, "config_hash": cfg.config_hash(),
            "wall_s": round(time.monotonic() - t0h, 4),
        })

    _stage("hot_merge", t0)

    return commit_index(index_dir, cfg, fingerprint, done, stage_metrics, tot, dd.count,
                        hot_terms, hot_thresh, merge_groups=len(merge_stats))


def commit_index(index_dir: str, cfg: EngineConfig, fingerprint: str, done: set[str],
                 stages: dict[str, dict], tot: CorpusTotals, n_dup_losers: int, hot_terms,
                 hot_thresh: int, merge_groups: int) -> BuildResult:
    """The tail every index writer shares once its ``parts/`` are
    committed (``build_index`` and ``pipelines.merge``): the term
    dictionary, corpus_stats.json with the writer's ``stages`` and the
    ``_SUCCESS`` manifest, in that order — corpus_stats is what readers
    take as "this index is built"."""
    from .state.fsio import glob_parquet, makedirs, rmtree, write_parquet_atomic

    # ---- Term-dictionary sidecar: globally SORTED (term, df) rows
    # across all postings partitions. Terms are unique across parts
    # (hash-bucketed; hot terms merged into parts/hot), so this is a
    # column-pruned concat + sort — the shuffle moves vocabulary rows
    # only, orders of magnitude smaller than the postings they index.
    # Sorted row groups give parquet min/max stats, so prefix lookups
    # (suggest / wildcard expansion) prune to the touched row groups
    # instead of scanning every partition's term column; fuzzy/regex
    # expansion and vocab_df read this one narrow sidecar. Readers
    # fall back to the parts scan when the sidecar is absent (older
    # indexes).
    t0 = time.monotonic()
    man_dir = os.path.join(index_dir, "manifest")
    td_dir = os.path.join(index_dir, "term_dict")
    if "term_dict" not in done:
        rmtree(td_dir)
        makedirs(td_dir)
        part_files = glob_parquet(os.path.join(index_dir, "parts"))
        if part_files:
            (
                ray.data.read_parquet(part_files, columns=["term", "df"])
                .sort("term")
                .write_parquet(td_dir)
            )
        else:
            write_parquet_atomic(
                pa.table({"term": pa.array([], type=pa.string()),
                          "df": pa.array([], type=pa.uint64())}),
                os.path.join(td_dir, "empty.parquet"),
            )
        write_manifest(man_dir, "term_dict", {
            "part_id": "term_dict", "stage": "term_dict", "status": "committed",
            "fingerprint": fingerprint, "config_hash": cfg.config_hash(),
        })
    stages["term_dict"] = {"wall_s": round(time.monotonic() - t0, 3)}

    # the join-path loser spill has served its purpose (dedup is
    # recomputed from the docs registry on any resume); an EXTERNAL
    # loser dir (build_index ext_losers_dir) lives elsewhere, caller-owned
    rmtree(os.path.join(index_dir, "dedup_losers"))

    stats = {
        "stages": stages,
        "n_docs": int(tot.n_docs),
        "total_len": int(tot.total_len),
        "avgdl": float(tot.avgdl),
        # the avgdl the block-max metadata was computed with — scorers
        # may only trust stored block maxima when it matches the serving
        # avgdl (sharded builds overwrite avgdl with the global value)
        "build_avgdl": float(tot.avgdl),
        "n_dup_losers": int(n_dup_losers),
        "hot_terms": sorted(map(str, hot_terms)),
        "hot_df_threshold": hot_thresh,
        # postings-partition layout, recorded so lazy scorers can route
        # term → parts/g{bucket*(1+hot_salt)} without trusting the
        # serving-side cfg to match the build
        "num_buckets": cfg.num_buckets,
        "hot_salt": cfg.hot_salt,
        "k1": cfg.k1,
        "b": cfg.b,
        "tokenizer": cfg.tokenizer,
        # analyzer settings, recorded so query-side tooling (CLI) can
        # adopt the exact build-time analyzer instead of trusting flags
        "stemmer": cfg.stemmer,
        "stopwords": list(cfg.stopwords),
        "config_hash": cfg.config_hash(),
        "fingerprint": fingerprint,
        "merge_groups": int(merge_groups),
        # cross-environment routing safety: serving verifies this before
        # trusting term->bucket lookups (ids.check_term_hash_canary)
        "term_hash_canary": term_hash_canary(),
    }
    atomic_write_bytes(
        os.path.join(index_dir, "corpus_stats.json"),
        json.dumps(stats, sort_keys=True, indent=1).encode(),
    )
    write_manifest(man_dir, "_SUCCESS", {
        "part_id": "_SUCCESS", "stage": "build", "status": "committed",
        "fingerprint": fingerprint, "config_hash": cfg.config_hash(),
    })
    return BuildResult(index_dir, int(tot.n_docs), int(tot.total_len), float(tot.avgdl),
                       int(n_dup_losers), stats["hot_terms"], stats)
