"""Merge independently built indexes into ONE standalone index.

The operational analogue of Lucene ``IndexWriter.addIndexes`` (the
capability the reference lacks entirely — FAISS/SQLite state there can
only be rebuilt from source documents,
/root/reference/index/index_manager.py:124-201): N committed index
directories — built anywhere, e.g. one per corpus shard on different
machines — fold into one standalone index that is rank-identical to
building once over the concatenated corpora.

Content is never re-tokenized (it was never stored):
``restage_and_build`` — the one re-staging step window compaction
shares — decodes each source's postings back into SPIMI fragments (+ df
sidecars) through an actor-pool stage, unions the docs registries in
one narrow pass, and runs the ordinary ``build_index`` merge shuffle
over the staged fragments. Exact dedup recomputes across the union
(keep-first = global min doc_id per content sha), so cross-index
duplicates collapse exactly as a single build would.

Partitioning assumptions (documented, same as compaction): one
source's (doc_id → doc_len) table fits a worker (8 bytes/doc — the
scorer's own memory class), and doc_ids are globally consistent —
``doc_id_mode="hash"`` (content-derived) guarantees it; ``column``
mode callers must feed disjoint id spaces.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import ray
import ray.data

from ..build import BuildResult, build_index
from ..config import EngineConfig

__all__ = ["merge_indexes", "restage_and_build"]


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


class _PostingsDecoder:
    """Actor-pool stage of the re-staging step: one source postings
    part file → SPIMI fragment rows (term, doc_id, tf, doc_len) + df
    sidecar, written straight into the output index's staging dirs.

    doc_len rides back in via a per-source (doc_id → doc_len) lookup
    loaded once per actor per source (the same per-sub-index doc-len
    array the scorer itself holds — the documented partitioning
    assumption is that ONE SOURCE's doc-len table fits a worker).
    Fragment names are content-addressed by the source file path, so
    Ray task retries overwrite idempotently.

    Sidecar soundness: within one source a term's postings live in
    exactly ONE parts file (its bucket, or one hot row), so pdf_f =
    df_s and with ndocs_f = source n_docs the hot-term pigeonhole
    (build.py hot detection) holds ACROSS sources: global df ≥
    ratio·Σn_s implies some source has df_s ≥ ratio·n_s."""

    def __init__(self, frag_dir: str, dfstats_dir: str, dead_ref=None):
        self.frag_dir = frag_dir
        self.dfstats_dir = dfstats_dir
        # tombstoned doc_ids (sorted uint64, ray.put once by the caller):
        # dropped from every decoded posting list, so compaction applies
        # deletes physically and the rebuild's stats exclude them
        if dead_ref is None:
            self._dead = np.empty(0, dtype=np.uint64)
        else:  # ObjectRef, or already resolved by the actor call path
            v = ray.get(dead_ref) if isinstance(dead_ref, ray.ObjectRef) else dead_ref
            self._dead = np.asarray(v, dtype=np.uint64)
        self._dl: dict[str, tuple] = {}  # source dir → (sorted ids, lens)

    def _doc_lens(self, src_dir: str):
        import pyarrow.parquet as pq

        cached = self._dl.get(src_dir)
        if cached is None:
            t = pq.read_table(os.path.join(src_dir, "docs"), columns=["doc_id", "doc_len"])
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            lens = t["doc_len"].to_numpy(zero_copy_only=False).astype(np.uint32)
            order = np.argsort(ids, kind="stable")
            cached = (ids[order], lens[order])
            if len(self._dl) > 4:
                self._dl.clear()
            self._dl[src_dir] = cached
        return cached

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from ..codec import decode_posting
        from ..state.fsio import write_parquet_atomic

        n_terms_out = 0
        for fpath, src_dir, src_docs in zip(
            batch["file"].to_pylist(), batch["src_dir"].to_pylist(),
            batch["src_docs"].to_pylist(),
        ):
            t = pq.read_table(fpath, columns=["term", "df", "doc_ids_vb", "tfs_vb"])
            if t.num_rows == 0:
                continue
            dl_ids, dl_lens = self._doc_lens(src_dir)
            terms_out, ids_out, tfs_out, lens_out = [], [], [], []
            dead = self._dead
            for term, df, dvb, tvb in zip(
                t["term"].to_pylist(), t["df"].to_pylist(),
                t["doc_ids_vb"].to_pylist(), t["tfs_vb"].to_pylist(),
            ):
                d, f = decode_posting(dvb, tvb, int(df))
                if dead.size:
                    pos = np.minimum(np.searchsorted(dead, d), dead.size - 1)
                    keep = dead[pos] != d
                    d, f = d[keep], f[keep]
                    if d.size == 0:
                        continue
                terms_out.append(np.full(d.size, term, dtype=object))
                ids_out.append(d)
                tfs_out.append(f.astype(np.uint32))
                lens_out.append(dl_lens[np.searchsorted(dl_ids, d)])
            tag = hashlib.sha256(fpath.encode()).hexdigest()[:20]
            if terms_out:  # tombstones can empty an entire parts file
                frag = pa.table(
                    {
                        "term": pa.array(np.concatenate(terms_out), type=pa.string()),
                        "doc_id": pa.array(np.concatenate(ids_out), type=pa.uint64()),
                        "tf": pa.array(np.concatenate(tfs_out), type=pa.uint32()),
                        "doc_len": pa.array(np.concatenate(lens_out), type=pa.uint32()),
                    }
                )
                write_parquet_atomic(frag, f"{self.frag_dir}/frag-{tag}-{frag.num_rows}.parquet")
            side = pa.table(
                {
                    "term": t["term"],
                    "pdf": pa.array(
                        t["df"].to_numpy(zero_copy_only=False).astype(np.uint32),
                        type=pa.uint32(),
                    ),
                    "ndocs": pa.array(
                        np.full(t.num_rows, int(src_docs), dtype=np.uint32), type=pa.uint32()
                    ),
                }
            )
            write_parquet_atomic(side, f"{self.dfstats_dir}/frag-{tag}.parquet")
            n_terms_out += t.num_rows
        return pa.table({"n_terms": pa.array([n_terms_out], type=pa.int64())})


def restage_and_build(
    sources: list[tuple[str, dict]],
    out_dir: str,
    cfg: EngineConfig,
    fingerprint: str,
    stage: str,
    dead: np.ndarray | None = None,
    marker: tuple[str, bytes] | None = None,
) -> BuildResult:
    """Fold committed indexes ``sources`` — (dir, corpus_stats) pairs —
    into one fresh index at ``out_dir`` without re-tokenizing: the
    shared step of window compaction and ``merge_indexes``.

    Unless ``out_dir``'s docs manifest already carries this
    (``fingerprint``, cfg) identity, staging runs afresh:
    1. wipe ``out_dir``, make the fragments / df-sidecar / docs dirs
       and write ``marker`` (a (name, bytes) file — compaction's
       supersession marker, which must exist before the build commits);
    2. union the source docs registries, dropping the sorted uint64
       doc_ids ``dead`` (tombstones) so the rebuild's stats exclude them;
    3. decode every source ``parts`` file into SPIMI fragments + df
       sidecars. Sharded sub-indexes carry GLOBAL n_docs after stat
       distribution; the sidecar wants the SOURCE-local count
       (``shard_n_docs``). Sidecars keep PRE-delete pdf/ndocs — the
       exact candidate-df pass corrects over-estimates, and a (rare,
       delete-heavy) missed hot term only inflates one merge group,
       never results;
    4. pre-commit the docs manifest (``stage`` names it) so the build
       below skips tokenization.
    Then the ordinary ``build_index`` merge shuffle runs over the
    staged fragments; a crash anywhere re-enters there, and dedup
    recomputes across the union exactly as a single build would."""
    from ..state.fsio import glob_parquet, makedirs, rmtree
    from ..state.manifest import atomic_write_bytes, committed_parts, write_manifest

    inner_fp = f"{fingerprint}:{cfg.config_hash()}"
    man_dir = os.path.join(out_dir, "manifest")
    if "docs" not in committed_parts(man_dir, inner_fp):
        rmtree(out_dir)
        frag_dir = os.path.join(out_dir, "fragments")
        dfstats_dir = os.path.join(out_dir, "fragments-dfstats")
        docs_dir = os.path.join(out_dir, "docs")
        for p in (frag_dir, dfstats_dir, docs_dir):
            makedirs(p)
        if marker is not None:
            atomic_write_bytes(os.path.join(out_dir, marker[0]), marker[1])
        docs_files = [f for d, _ in sources for f in glob_parquet(os.path.join(d, "docs"))]
        _drop_tombstoned(ray.data.read_parquet(docs_files), dead).write_parquet(docs_dir)
        items = [
            {"file": f, "src_dir": d, "src_docs": int(s.get("shard_n_docs", s["n_docs"]))}
            for d, s in sources
            for f in glob_parquet(os.path.join(d, "parts"))
        ]
        if items:
            dead_ref = ray.put(dead) if dead is not None and dead.size else None
            ray.data.from_items(items).map_batches(
                _PostingsDecoder,
                fn_constructor_args=(frag_dir, dfstats_dir, dead_ref),
                batch_format="pyarrow",
                batch_size=4,
                concurrency=4,
            ).sum("n_terms")
        write_manifest(man_dir, "docs", {
            "part_id": "docs", "stage": stage, "status": "committed",
            "fingerprint": inner_fp, "config_hash": cfg.config_hash(),
            "sources": [d for d, _ in sources],
        })
    placeholder = ray.data.from_arrow(pa.schema([("doc_id", pa.uint64())]).empty_table())
    return build_index(placeholder, out_dir, cfg, fingerprint=fingerprint)


def merge_indexes(
    sources: list[str],
    out_dir: str,
    cfg: EngineConfig | None = None,
    overwrite: bool = False,
) -> BuildResult:
    """Merge committed indexes ``sources`` into a new standalone index
    at ``out_dir``. Staged + resumable (a crash re-enters at the merge
    shuffle; a completed merge returns instantly). Raises
    FileNotFoundError for an unbuilt source and ValueError when a
    source was built under a DIFFERENT EngineConfig than ``cfg`` —
    mixing analyzer/codec configs would silently corrupt term
    statistics, so the caller must pass the build config."""
    from ..state.fsio import read_bytes
    from ..state.manifest import read_manifest

    cfg = cfg or EngineConfig()
    if len(sources) < 1:
        raise ValueError("merge_indexes: need at least one source index")
    if os.path.abspath(out_dir) in {os.path.abspath(s) for s in sources}:
        raise ValueError(
            f"merge_indexes: out_dir {out_dir!r} is one of the sources — "
            "staging would destroy it (same guard as compact_windows)"
        )
    stats = []
    for d in sources:
        raw = read_bytes(os.path.join(d, "corpus_stats.json"))
        if raw is None:
            raise FileNotFoundError(f"{d}/corpus_stats.json: not a built index")
        stats.append(json.loads(raw))
    from ..ids import check_term_hash_canary

    for d, s in zip(sources, stats):
        # cross-machine merge is the advertised use case — refuse a
        # source whose builder hashed terms differently than we will
        # when re-bucketing its decoded postings
        check_term_hash_canary(s, f"merge_indexes(source={d})")
    want_hash = cfg.config_hash()
    for d, s in zip(sources, stats):
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
    # protects out_dir being one of the sources. Refuse to let staging
    # destroy anything whose recorded fingerprint isn't a prior merge
    # of these same sources unless the caller says overwrite=True.
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
    return restage_and_build(
        list(zip(sources, stats)), out_dir, cfg, fingerprint, stage="merge-stage"
    )
