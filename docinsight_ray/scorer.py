"""BM25 query scoring: stateful actor-pool stage.

The Ray-Data-native replacement for the reference's per-process
singleton search engine (SBERT + FAISS loaded once,
/root/reference/enhanced_pipeline.py:214-362, index/index_manager.py:203-286):
``BM25Scorer`` is a callable CLASS passed to ``map_batches`` — index
partitions, corpus stats and doc lengths are loaded ONCE per actor in
``__init__``; ``__call__`` scores a whole Arrow batch of queries.

Three execution strategies, all proven rank-identical (docs AND
bitwise scores) by tests:

- ``taat`` — exact term-at-a-time: vectorized numpy accumulation over
  the decoded postings of the query's terms (the exhaustive baseline;
  analogue of the reference's fallback scorer,
  /root/reference/index/fallback_index.py:124-164).
- ``maxscore`` — two-phase MaxScore dynamic pruning: a seed of the
  high-UB (rare) lists bounds θ, and the low-UB (hot) lists that cannot
  lift a doc to it are only probed — the serving mode. p50 on the
  perfbench serve index (4k files, 8 buckets, 2,035-query stream, one
  in-process scorer, one 1-core host): whole-file queries 14 ms, as
  TAAT (13-15 ms), against 88-113 ms for the earlier one-list-per-round
  MaxScore; keyword queries 0.52-0.57 ms (earlier 0.59-0.72 ms, TAAT
  1.3-1.4 ms).
- ``bmw`` — vectorized block-max pruning (WAND family): stored
  per-block upper bounds + block-last-doc skip metadata drive both
  candidate-block selection and a per-candidate shallow check, and
  pruned blocks are never DECODED — the 10^12-scale skipping path,
  expressed as numpy batch ops over whole blocks instead of a
  per-document cursor loop.

Scale note: a single actor here holds the whole (test-sized) index.
On a real cluster the scale-out layout is DOC-sharded serving
(pipelines/sharded.py): each actor holds a complete sub-index over a
doc subset with global stats, so its scores are final and the
per-query ``merge_topk`` stage (``sharded.fan_out``) is an exact top-k
merge. (Term-partitioned serving was considered and rejected: a doc's
score spans term shards, so it needs a per-doc partial-score SUM
shuffle before any top-k — strictly more data movement; ROADMAP §5.)
"""

from __future__ import annotations

import json
import os
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .bm25 import idf as idf_fn
from .bm25 import tf_sat_weight, topk_order
from .codec import decode_posting, varbyte_decode
from .config import EngineConfig
from .ids import check_term_hash_canary, term_bucket
from .tokenizer import tokenize_text

# every serving mode; BM25Scorer dispatches mode m to ``score_<m>``
MODES = ("taat", "bmw", "maxscore", "conjunctive", "lmdir", "bm25plus")

RESULTS_SCHEMA = pa.schema(
    [
        ("query_id", pa.int64()),
        ("rank", pa.uint32()),
        ("doc_id", pa.uint64()),
        ("score", pa.float64()),
    ]
)


class _Part:
    """Zero-copy view over ONE postings partition (one ``parts/<name>``
    directory). Binary payloads stay in Arrow buffers (memoryview
    slices on demand); list columns become (flat values, offsets) numpy
    pairs — a ``to_pylist()`` here would duplicate the partition into
    Python objects per actor."""

    __slots__ = (
        "terms", "df", "idf_df", "has_offsets", "nbytes",
        "_doc_vb_arr", "_tf_vb_arr", "_bmax_v", "_bmax_o",
        "_blast_v", "_blast_o", "_bdoff_v", "_bdoff_o", "_btoff_v", "_btoff_o",
    )

    def __init__(self, tbl: pa.Table, global_df: pa.Table | None):
        self.terms: dict[str, int] = {t: i for i, t in enumerate(tbl["term"].to_pylist())}
        self.df = tbl["df"].to_numpy(zero_copy_only=False).astype(np.int64)
        # doc-sharded serving: idf must use corpus-wide df (the shard
        # build distributes global_df.parquet). Kept separate from
        # self.df — the local df is the posting-list length (decode
        # count); only idf uses the global one. Vectorized Arrow
        # hash-join remap (index_in); misses keep the local df.
        self.idf_df = self.df
        if global_df is not None:
            import pyarrow.compute as _pc

            pos = _pc.index_in(
                tbl["term"].combine_chunks(), value_set=global_df["term"].combine_chunks()
            ).to_numpy(zero_copy_only=False)
            g_df = global_df["df"].to_numpy(zero_copy_only=False).astype(np.int64)
            self.idf_df = self.df.copy()
            valid = np.flatnonzero(~np.isnan(pos.astype(np.float64)))
            self.idf_df[valid] = g_df[pos[valid].astype(np.int64)]

        def _list_view(col, dtype):
            arr = col.combine_chunks()
            return arr.values.to_numpy(zero_copy_only=False).astype(dtype), \
                   arr.offsets.to_numpy()

        def _combine_binary(col):
            # A hot-term partition's payload column can exceed 2 GiB
            # (observed at the 4M-doc stress rung: 312 hot terms,
            # 3.2 GB of varbyte postings in ONE part file), which
            # overflows binary's int32 offsets in combine_chunks().
            # Widen to large_binary (int64 offsets) per chunk first —
            # offsets are copied, payload buffers are shared — then
            # combine. Per-row access (`arr[i].as_buffer()`) is
            # identical for BinaryArray and LargeBinaryArray.
            return col.cast(pa.large_binary()).combine_chunks()

        self._doc_vb_arr = _combine_binary(tbl["doc_ids_vb"])
        self._tf_vb_arr = _combine_binary(tbl["tfs_vb"])
        self._bmax_v, self._bmax_o = _list_view(tbl["block_max_w"], np.float32)
        self._blast_v, self._blast_o = _list_view(tbl["block_last_doc"], np.uint64)
        self.has_offsets = "block_doc_off" in tbl.column_names
        if self.has_offsets:
            self._bdoff_v, self._bdoff_o = _list_view(tbl["block_doc_off"], np.uint32)
            self._btoff_v, self._btoff_o = _list_view(tbl["block_tf_off"], np.uint32)
        self.nbytes = int(tbl.nbytes)

    def doc_vb(self, i: int) -> memoryview:
        return memoryview(self._doc_vb_arr[i].as_buffer())

    def tf_vb(self, i: int) -> memoryview:
        return memoryview(self._tf_vb_arr[i].as_buffer())

    def bmax(self, i: int) -> np.ndarray:
        return self._bmax_v[self._bmax_o[i] : self._bmax_o[i + 1]]

    def blast(self, i: int) -> np.ndarray:
        return self._blast_v[self._blast_o[i] : self._blast_o[i + 1]]

    def bdoff(self, i: int) -> np.ndarray:
        return self._bdoff_v[self._bdoff_o[i] : self._bdoff_o[i + 1]]

    def btoff(self, i: int) -> np.ndarray:
        return self._btoff_v[self._btoff_o[i] : self._btoff_o[i + 1]]


class _TermPostings:
    """Block-addressable view of one term's postings for WAND.

    When stored block-max metadata is trustworthy (serving avgdl ==
    build avgdl, byte offsets present) postings decode LAZILY per block
    via the stored byte offsets — blocks pruned by the shallow check
    are never decoded, which is the point of the block-max format.
    Otherwise (sharded global-stat override, legacy index without
    offsets) it promotes immediately to the full-decode path.

    Memory contract: decoded data is NEVER pinned outside the scorer's
    byte budget. Per-block decodes in ``_blocks`` are charged to the
    scorer's shared cache budget (and freed when this entry is evicted
    from ``_tp_cache`` or on promotion); a promoted list holds NO
    strong reference to the full decode — every access re-fetches
    through the byte-budgeted ``_term_arrays`` LRU, so evicting there
    actually frees the memory."""

    def __init__(self, scorer: "BM25Scorer", term: str):
        part, row = scorer._lookup(term)
        self._scorer = scorer
        self._part = part
        self._row = row
        self.term = term
        # cumulative blocks touched by probes; once it crosses
        # n_blocks the per-block lazy path has cost as much as one
        # full decode, so ensure_full() promotes (see probe())
        self._probed = 0
        self.bs = scorer.cfg.block_size
        self.df = int(part.df[row])
        self.blast = part.blast(row)
        self.n_blocks = self.blast.size
        self._idf_mult = float(idf_fn(int(part.idf_df[row]), scorer.n_docs)) * (
            scorer.cfg.k1 + 1.0
        )
        self._promoted = not (scorer._bmax_safe and part.has_offsets)
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.blocks_bytes = 0
        if not self._promoted:
            self.block_ub = self._idf_mult * part.bmax(row).astype(np.float64)
        else:
            _d, _c, ub, _bl = scorer._term_arrays(term)
            self.block_ub = ub
        self.ub = float(self.block_ub.max()) if self.block_ub.size else 0.0

    def block(self, bi: int) -> tuple[np.ndarray, np.ndarray]:
        s = bi * self.bs
        e = min(s + self.bs, self.df)
        if self._promoted:
            d, c = self.ensure_full()
            return d[s:e], c[s:e]
        blk = self._blocks.get(bi)
        if blk is not None:
            return blk
        sc = self._scorer
        p, i = self._part, self._row
        doff, toff = p.bdoff(i), p.btoff(i)
        doc_buf, tf_buf = p.doc_vb(i), p.tf_vb(i)
        d_end = doff[bi + 1] if bi + 1 < len(doff) else len(doc_buf)
        t_end = toff[bi + 1] if bi + 1 < len(toff) else len(tf_buf)
        n = e - s
        deltas = varbyte_decode(doc_buf[doff[bi] : d_end], n)
        base = self.blast[bi - 1] if bi > 0 else np.uint64(0)
        docs = base + np.cumsum(deltas, dtype=np.uint64)
        tfs = varbyte_decode(tf_buf[toff[bi] : t_end], n)
        if sc._allowed is not None:
            keep = sc._filter_mask(docs)
            docs, tfs = docs[keep], tfs[keep]
        w = tf_sat_weight(tfs, sc._doc_len_of(docs), sc.avgdl, sc.cfg.k1, sc.cfg.b)
        blk = (docs, self._idf_mult * w)
        self._blocks[bi] = blk
        # charge the shared budget only while this instance IS the
        # cached one: an entry evicted mid-query (but still held by the
        # in-flight tps dict) must not add unowned bytes the evictor
        # can never reclaim — its small residual pool dies with the
        # query instead
        if sc._tp_cache.get(self.term) is self:
            nb = blk[0].nbytes + blk[1].nbytes
            self.blocks_bytes += nb
            sc._tp_note_bytes(nb)
        return blk

    def block_of(self, doc_ids: np.ndarray) -> np.ndarray:
        """Index of the block that would contain each doc_id (n_blocks
        when the doc is past this list's last posting). Metadata only —
        never decodes."""
        return np.searchsorted(self.blast, doc_ids, side="left")

    def ensure_full(self) -> tuple[np.ndarray, np.ndarray]:
        """Decode the whole list in ONE vectorized pass (scorer LRU —
        shared with MaxScore/TAAT, so hot lists decode once per actor,
        not once per mode). Contributions are bitwise-equal to the
        per-block path, so mixing the two keeps exactness. Promotion
        drops the per-block copies (superseded) and holds no strong
        reference: the full decode lives ONLY in the byte-budgeted
        ``_term_arrays`` LRU."""
        if not self._promoted:
            self._promoted = True
            if self.blocks_bytes:
                self._scorer._tp_note_bytes(-self.blocks_bytes)
                self.blocks_bytes = 0
            self._blocks.clear()
        d, c, _ub, _bl = self._scorer._term_arrays(self.term)
        return d, c


class BM25Scorer:
    def __init__(
        self,
        index_dir: str,
        cfg: EngineConfig | None = None,
        mode: str = "taat",
        emit_k: bool = False,
        max_loaded_parts: int | None = None,
        doc_filter: tuple[str, tuple] | None = None,
        exclude_terms: tuple[str, ...] | None = None,
        exclude_doc_ids=None,
        include_doc_ids=None,
        min_should_match: int | None = None,
        synonyms: dict[str, tuple[str, ...]] | None = None,
        boosts: dict[str, float] | None = None,
        shared_state=None,
    ):
        import time as _time

        _t_init = _time.monotonic()
        from .state.fsio import exists as fs_exists, glob_parquet, read_bytes

        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}; valid modes: {', '.join(MODES)}")
        # plasma-shared index state (load_index_state, which
        # scorer_pool hands every actor of a multi-actor eager pool):
        # the partition Arrow tables and the narrow docs table live in
        # the OBJECT STORE — decoded from parquet once per cluster node
        # instead of once per actor, and the Arrow buffers are
        # shared-memory zero-copy views, so N pool actors on a node
        # share one resident copy instead of holding N. Without it the
        # actor reads its own index from parquet.
        self._shared_parts: dict[str, pa.Table] = {}
        _shared_docs: pa.Table | None = None
        if shared_state is not None:
            import ray as _ray

            st = (
                _ray.get(shared_state)
                if isinstance(shared_state, _ray.ObjectRef)
                else shared_state
            )
            self._shared_parts = st.get("parts", {})
            _shared_docs = st.get("docs")

        # serving may go through a stable alias directory (zero-downtime
        # reindex cutover, pipelines/reindex.py) — resolve it once here
        # so every caller (query_index actors, CLI, sharded fan-outs
        # over alias roots) picks up the live index transparently
        from .pipelines.reindex import resolve_alias

        index_dir = resolve_alias(index_dir)
        self.cfg = cfg or EngineConfig()
        self.mode = mode
        # per-term query boosts (Lucene ``term^2`` semantics): a term's
        # BM25 contribution is multiplied by its boost everywhere it
        # accumulates; MaxScore upper bounds scale by the same factor,
        # so pruning stays exact. bmw/lmdir reject boosts (stored
        # block-max metadata and the LM model don't carry them).
        # boost keys follow the same analyzer chain as scoring terms
        # ('tables^2' under stemmer='s' must boost the indexed stem
        # 'table', which is what query_terms will look up); a key that
        # analyzes to several tokens boosts each of them. Surface forms
        # that collide on the same analyzed token ('table^2 tables^3')
        # combine via max — deterministic regardless of dict order.
        if boosts:
            analyzed: dict[str, float] = {}
            for k, v in boosts.items():
                for t in tokenize_text(k, self.cfg):
                    analyzed[t] = max(analyzed.get(t, float("-inf")), float(v))
            self._boosts = analyzed or None
        else:
            self._boosts = None
        if self._boosts and mode in ("bmw", "lmdir", "bm25plus"):
            raise ValueError(f"per-term boosts are not supported in mode={mode!r}")
        # query-time synonym expansion (Elasticsearch synonym-filter
        # semantics, simple-expand): every query token additionally
        # contributes its thesaurus entries to the term bag; each
        # expanded term scores with its OWN idf. The dict ships once
        # per actor via constructor args (broadcast, never per batch);
        # expansion happens in query_terms so it composes with every
        # serving mode unchanged.
        self._syn = synonyms or None
        # minimum_should_match (Elasticsearch semantics): a doc must
        # contain at least m of the query's distinct indexed terms to
        # be a candidate; scores of surviving docs are the plain BM25
        # sums. m=1 is the ordinary disjunction, m=|q| the conjunction.
        # Served via exhaustive TAAT only: MaxScore/BMW upper bounds
        # assume ANY single term may carry a candidate, so their
        # pruning is unsound under a match-count floor.
        self.min_should_match = int(min_should_match) if min_should_match else 0
        if self.min_should_match > 1 and mode not in ("taat",):
            raise ValueError(
                "min_should_match > 1 requires mode='taat' "
                "(match-count floors break additive-upper-bound pruning)"
            )
        # emit_k: append the requested k as a per-row column so a
        # downstream sharded/windowed top-k merge knows the TRUE k even
        # when this sub-index returned fewer than k rows (inferring k
        # from max(rank)+1 under-merges in that case).
        self.emit_k = emit_k
        # max_loaded_parts: 0/None = EAGER (load every postings
        # partition in __init__ — lowest latency, RSS ~ index size);
        # N>0 = LAZY (partitions load on first term touch, LRU-bounded
        # at N — actor RSS is capped independently of index size, the
        # vertical-memory answer when doc-sharding horizontally is not
        # available; ROADMAP §5).
        self.max_loaded_parts = int(max_loaded_parts or 0)
        stats_raw = read_bytes(os.path.join(index_dir, "corpus_stats.json"))
        if stats_raw is None:
            raise FileNotFoundError(
                f"{index_dir}/corpus_stats.json: not a built index (run build_index first)"
            )
        stats = json.loads(stats_raw)
        check_term_hash_canary(stats, f"BM25Scorer({index_dir})")
        self.n_docs = int(stats["n_docs"])
        self.avgdl = float(stats["avgdl"])
        # collection length (LM Dirichlet); older stats lack it
        self.total_len = float(stats.get("total_len", self.avgdl * self.n_docs))

        # filtered retrieval (metadata predicate): the allowed-doc set
        # is resolved ONCE per actor from the index's own docs registry
        # (narrow two-column read) and applied at the posting DECODE
        # boundary — every mode's pruning then operates on the filtered
        # lists, so MaxScore/BMW stay exact (stored block maxima only
        # ever OVER-estimate a filtered block, which is safe). Scores of
        # surviving docs are identical to the unfiltered engine's: BM25
        # stats (idf, avgdl, N) deliberately stay corpus-global, the
        # standard filtered-search semantics.
        self._allowed: np.ndarray | None = None
        if doc_filter is not None:
            fcol, fvals = doc_filter
            import pyarrow.compute as _pc

            ft = pq.read_table(os.path.join(index_dir, "docs"), columns=["doc_id", fcol])
            mask = _pc.is_in(ft[fcol].combine_chunks(), value_set=pa.array(list(fvals)))
            ids = ft.filter(mask)["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
            self._allowed = np.sort(ids)

        # explicit candidate restriction (boolean AND with everything
        # else): only these doc_ids may appear in results — the generic
        # "restrict to this id set" surface (phrase-constrained search,
        # join-driven candidate sets, ACL scopes). Folded into the same
        # sorted `_allowed` array, so every pruning mode stays exact;
        # an EMPTY include set means "nothing matches", not "no filter".
        if include_doc_ids is not None:
            inc = np.unique(np.asarray(include_doc_ids, dtype=np.uint64))
            self._allowed = inc if self._allowed is None else np.intersect1d(self._allowed, inc)

        # doc lengths (narrow columns only)
        docs = (
            _shared_docs
            if _shared_docs is not None
            else pq.read_table(os.path.join(index_dir, "docs"), columns=["doc_id", "doc_len"])
        )
        did = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        dl = docs["doc_len"].to_numpy(zero_copy_only=False).astype(np.uint32)
        order = np.argsort(did, kind="stable")
        self._dl_docid = did[order]
        self._dl = dl[order]

        # postings partitions (plain path or pyarrow.fs URI), grouped
        # by partition directory name (parts/<name>/...)
        parts_dir = os.path.join(index_dir, "parts")
        files = glob_parquet(parts_dir)
        if not files:
            raise FileNotFoundError(f"no postings partitions under {index_dir}/parts")
        self._part_files: dict[str, list[str]] = {}
        for f in files:
            name = f.rsplit("/parts/", 1)[-1].split("/", 1)[0]
            self._part_files.setdefault(name, []).append(f)
        # term → partition routing (lazy mode): hot terms live in
        # parts/hot (the salted-merge output), everything else in
        # parts/g{bucket*stride}. Layout params come from the build's
        # corpus_stats (falling back to the serving cfg for pre-r3
        # indexes, which recorded neither).
        self._hot_set = frozenset(stats.get("hot_terms", []))
        self._num_buckets = int(stats.get("num_buckets", self.cfg.num_buckets))
        self._hot_stride = 1 + int(stats.get("hot_salt", self.cfg.hot_salt))

        # global-df dictionary (doc-sharded serving): loaded ONCE,
        # remapped per partition at partition-load time
        self._global_df: pa.Table | None = None
        gdf_path = os.path.join(index_dir, "global_df.parquet")
        if fs_exists(gdf_path):
            self._global_df = pq.read_table(gdf_path)  # file or directory of parts

        # stored block maxima are only trustworthy when the serving
        # avgdl equals the build avgdl (sharded builds overwrite stats
        # with global values); per-partition offset presence is checked
        # at the _TermPostings level
        self._bmax_safe = stats.get("build_avgdl", stats["avgdl"]) == stats["avgdl"]
        from collections import OrderedDict

        self._parts: OrderedDict[str, _Part] = OrderedDict()
        self.partitions_loaded = 0  # cumulative loads (lazy-path test hook)
        self._term_part_name: dict[str, str] = {}  # term → partition name memo

        # decoded-postings LRU: BYTE-budgeted, not count-capped — a
        # fixed count thrashes on wide-vocabulary workloads (a 512-term
        # cap churned the 20k bench's ~1,500 distinct query terms,
        # inflating p99 ~10x over the warm path) while a byte budget
        # stays safe when hot lists are corpus-sized. _TermPostings
        # per-block decodes share the SAME budget (_tp_bytes): the two
        # pools together never exceed cache_budget_bytes.
        self.cache_budget_bytes = int(self.cfg.decode_cache_mb) << 20
        self._cache_bytes = 0
        self._tp_bytes = 0
        self.cache_terms = 4096  # _TermPostings metadata objects (small)
        self._cache: OrderedDict[str, tuple] = OrderedDict()
        self._tp_cache: OrderedDict[str, _TermPostings] = OrderedDict()

        if not self.max_loaded_parts:  # eager: load everything now
            for name in sorted(self._part_files):
                self._load_part(name)

        # tombstoned / explicitly-deleted docs (Lucene deleted-docs
        # semantics: excluded from every result, corpus stats stay
        # pre-delete until a compaction rewrites them — the reference
        # can only rebuild to remove, faiss_index.py:243-266).
        # Accepts a doc_id sequence or a tombstone parquet dir/file
        # path (doc_id uint64 column) read ONCE per actor; folded into
        # the same sorted `_allowed` array as the metadata filter, so
        # every pruning mode stays exact with zero new mask sites.
        if exclude_doc_ids is not None:
            if isinstance(exclude_doc_ids, str):
                from .state.fsio import glob_parquet as _gp

                tfiles = _gp(exclude_doc_ids)
                dead = (
                    np.unique(
                        np.concatenate(
                            [
                                pq.read_table(f, columns=["doc_id"])["doc_id"]
                                .to_numpy(zero_copy_only=False)
                                .astype(np.uint64)
                                for f in tfiles
                            ]
                        )
                    )
                    if tfiles
                    else np.empty(0, dtype=np.uint64)
                )
            else:
                dead = np.asarray(exclude_doc_ids, dtype=np.uint64)
            if dead.size:
                base = self._allowed if self._allowed is not None else self._dl_docid
                self._allowed = np.setdiff1d(base, dead)

        # negated-term retrieval (boolean NOT): docs containing ANY
        # excluded term are removed from the candidate universe. The
        # denied set is resolved ONCE per actor from the index's own
        # postings and folded into the same sorted `_allowed` array the
        # metadata filter uses — so every mode's pruning (taat /
        # maxscore / bmw / conjunctive) stays exact with zero new mask
        # sites: removing docs can only LOWER true scores, so stored
        # upper bounds remain safe over-estimates. Unknown excluded
        # terms are no-ops (nothing to deny).
        # Each excluded surface form runs through the ANALYZER first
        # (tokenize_text) — the index stores stems/split tokens, so a
        # raw lookup of '-tables' under stemmer='s' would miss the
        # indexed stem 'table' and silently exclude nothing. A form
        # that analyzes to several tokens denies docs containing ALL
        # of them (the negation of the must-clause AND semantics); one
        # that analyzes to nothing (a stopword) is a no-op.
        self.exclude_terms = tuple(exclude_terms or ())
        if self.exclude_terms:
            denied = [np.empty(0, dtype=np.uint64)]
            for surface in self.exclude_terms:
                form: np.ndarray | None = None
                for t in tokenize_text(surface, self.cfg):
                    hit = self._lookup(t)
                    if hit is None:
                        form = np.empty(0, dtype=np.uint64)
                        break
                    part, i = hit
                    d, _ = decode_posting(
                        part.doc_vb(i), part.tf_vb(i), int(part.df[i])
                    )
                    d = d.astype(np.uint64)
                    form = d if form is None else np.intersect1d(form, d)
                    if form.size == 0:
                        break
                if form is not None:
                    denied.append(form)
            denied_ids = np.unique(np.concatenate(denied))
            base = self._allowed if self._allowed is not None else self._dl_docid
            self._allowed = np.setdiff1d(base, denied_ids)

        # per-actor utilization accounting (scaling-analysis hook):
        # when DOCINSIGHT_ACTOR_PROFILE names a directory, the actor
        # keeps a per-pid JSON current with its one-time init cost and
        # cumulative scoring-busy seconds, so a harness can compute
        # busy-fraction = Σ busy / (actors × wall) after a run. Free
        # when the variable is unset.
        self._init_s = _time.monotonic() - _t_init
        self._busy_s = 0.0
        self._n_scored = 0
        # cumulative MaxScore pruning counters (lists scanned whole, lists
        # only probed, docs fully scored), written with the record above
        self.counters = Counter(lists_essential=0, lists_probed=0, candidates_scored=0)
        self._profile_dir = os.environ.get("DOCINSIGHT_ACTOR_PROFILE")

    def _profile_flush(self) -> None:
        import time as _time

        path = os.path.join(self._profile_dir, f"actor-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(
                {
                    "pid": os.getpid(),
                    "init_s": round(self._init_s, 4),
                    "busy_s": round(self._busy_s, 4),
                    "n_queries": self._n_scored,
                    **self.counters,
                    "ts": _time.time(),
                },
                f,
            )
        os.replace(tmp, path)

    # ---- partition loading ----------------------------------------------

    def _load_part(self, name: str) -> _Part | None:
        part = self._parts.get(name)
        if part is not None:
            self._parts.move_to_end(name)
            return part
        tbl = self._shared_parts.get(name)
        if tbl is None:
            files = self._part_files.get(name)
            if not files:
                return None
            tbl = pa.concat_tables([pq.read_table(f) for f in files])
        part = _Part(tbl, self._global_df)
        self._parts[name] = part
        self.partitions_loaded += 1
        if self.max_loaded_parts:
            while len(self._parts) > self.max_loaded_parts:
                _, evicted = self._parts.popitem(last=False)
                # cached _TermPostings hold strong refs to their
                # partition's buffers — drop the ones pointing at the
                # evicted partition, or the residency cap is defeated
                # by the tp cache keeping every partition alive
                stale = [t for t, tp in self._tp_cache.items() if tp._part is evicted]
                for t in stale:
                    self._tp_drop(self._tp_cache.pop(t))
        return part

    def _part_name_for(self, term: str) -> str:
        name = self._term_part_name.get(term)
        if name is None:
            if term in self._hot_set:
                name = "hot"
            else:
                b = int(term_bucket(np.asarray([term], dtype=object), self._num_buckets)[0])
                name = f"g{b * self._hot_stride}"
            if len(self._term_part_name) > 1_000_000:  # vocab-bounded memo
                self._term_part_name.clear()
            self._term_part_name[term] = name
        return name

    def _lookup(self, term: str) -> tuple[_Part, int] | None:
        """(partition view, row index) for a term, loading the
        partition on first touch; None when the term is not indexed."""
        part = self._load_part(self._part_name_for(term))
        if part is None:
            return None
        row = part.terms.get(term)
        return None if row is None else (part, row)

    def has_term(self, term: str) -> bool:
        return self._lookup(term) is not None

    # ---- shared helpers -------------------------------------------------

    def _doc_len_of(self, doc_ids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self._dl_docid, doc_ids)
        return self._dl[pos]

    def _filter_mask(self, doc_ids: np.ndarray) -> np.ndarray:
        """Membership of sorted-or-not doc_ids in the allowed set
        (sorted-array searchsorted probe — no Python set)."""
        a = self._allowed
        if a.size == 0:
            return np.zeros(doc_ids.size, dtype=bool)
        pos = np.minimum(np.searchsorted(a, doc_ids), a.size - 1)
        return a[pos] == doc_ids

    def _tp_drop(self, tp: "_TermPostings") -> None:
        """Release one _TermPostings' block pool from the budget. The
        entry may still be referenced by an in-flight query (score_bmw
        holds its tps for the whole call): zeroing blocks_bytes AND
        clearing _blocks here is what keeps the accounting exact — a
        later decode re-charges fresh bytes, and a later promotion has
        nothing left to double-subtract."""
        self._tp_bytes -= tp.blocks_bytes
        tp.blocks_bytes = 0
        tp._blocks.clear()

    def _tp_note_bytes(self, delta: int) -> None:
        """Account a _TermPostings per-block decode against the shared
        cache budget; evict oldest _TermPostings entries (freeing their
        _blocks) when over."""
        self._tp_bytes += delta
        if delta > 0:
            while (
                self._tp_bytes
                and self._tp_bytes + self._cache_bytes > self.cache_budget_bytes
                and len(self._tp_cache) > 1
            ):
                _, old = self._tp_cache.popitem(last=False)
                self._tp_drop(old)

    def _term_arrays(self, term: str):
        """Decode one term's postings → (doc_ids, contribs float64).

        LRU-cached per actor: a term's contribution vector depends only
        on the term (idf, tfs, doc lens, avgdl are all fixed at build),
        so hot terms — which recur in most queries — decode once per
        actor instead of once per query. Byte-budgeted jointly with the
        _TermPostings block pool."""
        cached = self._cache.get(term)
        if cached is not None:
            self._cache.move_to_end(term)
            return cached
        part, i = self._lookup(term)
        df = int(part.df[i])  # local posting length (decode count)
        doc_ids, tfs = decode_posting(part.doc_vb(i), part.tf_vb(i), df)
        if self._allowed is not None:
            keep = self._filter_mask(doc_ids)
            doc_ids, tfs = doc_ids[keep], tfs[keep]
        w = tf_sat_weight(tfs, self._doc_len_of(doc_ids), self.avgdl, self.cfg.k1, self.cfg.b)
        contrib = (idf_fn(int(part.idf_df[i]), self.n_docs) * (self.cfg.k1 + 1.0)) * w
        # block upper bounds for WAND, derived from the live contribution
        # vector (correct by construction even when global stats differ
        # from shard-build stats — pipelines/sharded.py; the stored
        # block_max_w is the no-decode scale path and is validated by
        # tests + `cli validate`)
        bs = self.cfg.block_size
        starts = np.arange(0, doc_ids.size, bs)
        block_ub = np.maximum.reduceat(contrib, starts) if doc_ids.size else np.empty(0)
        blast = doc_ids[np.minimum(starts + bs, doc_ids.size) - 1] if doc_ids.size else doc_ids
        entry = (doc_ids, contrib, block_ub, blast)
        self._cache[term] = entry
        self._cache_bytes += doc_ids.nbytes + contrib.nbytes + block_ub.nbytes + blast.nbytes
        while (
            self._cache_bytes + self._tp_bytes > self.cache_budget_bytes
            and len(self._cache) > 1
        ):
            _, old = self._cache.popitem(last=False)
            self._cache_bytes -= sum(a.nbytes for a in old)
        return entry

    def _term_raw(self, term: str):
        """Decode one term's postings → (doc_ids, tfs float64, ctf) for
        scoring models that need raw term frequencies (LM Dirichlet).
        ctf (collection term frequency) is summed BEFORE any doc
        filter: it is a collection statistic, like idf/avgdl staying
        corpus-global under filtered retrieval. Shares the byte-
        budgeted LRU with the BM25 entries (keyed out of token space —
        tokens never contain NUL)."""
        key = "\x00raw\x00" + term
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            return cached
        part, i = self._lookup(term)
        df = int(part.df[i])
        doc_ids, tfs = decode_posting(part.doc_vb(i), part.tf_vb(i), df)
        tfs = tfs.astype(np.float64)
        ctf = np.float64(tfs.sum())
        if self._allowed is not None:
            keep = self._filter_mask(doc_ids)
            doc_ids, tfs = doc_ids[keep], tfs[keep]
        entry = (doc_ids, tfs, ctf)
        self._cache[key] = entry
        self._cache_bytes += doc_ids.nbytes + tfs.nbytes + ctf.nbytes
        while (
            self._cache_bytes + self._tp_bytes > self.cache_budget_bytes
            and len(self._cache) > 1
        ):
            _, old = self._cache.popitem(last=False)
            self._cache_bytes -= sum(a.nbytes for a in old)
        return entry

    def query_terms(self, text: str) -> list[str]:
        toks = set(tokenize_text(text, self.cfg))
        if self._syn:
            for t in tuple(toks):  # expand from RAW tokens (a token absent
                toks.update(self._syn.get(t, ()))  # from the index may still map)
        return sorted(t for t in toks if self.has_term(t))

    # ---- exact TAAT -----------------------------------------------------

    def score_taat(self, text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        terms = self.query_terms(text)
        if not terms:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        bst = self._boosts or {}
        per_term = [(self._term_arrays(t)[:2], bst.get(t, 1.0)) for t in terms]
        cand = np.unique(np.concatenate([d for (d, _), _ in per_term]))
        acc = np.zeros(cand.size, dtype=np.float64)
        if self.min_should_match > 1:
            cnt = np.zeros(cand.size, dtype=np.int32)
            for (d, c), b in per_term:  # sorted-term order → deterministic sums
                idx = np.searchsorted(cand, d)
                acc[idx] += c if b == 1.0 else c * b
                cnt[idx] += 1
            keep = cnt >= self.min_should_match
            cand, acc = cand[keep], acc[keep]
        else:
            for (d, c), b in per_term:  # sorted-term order → deterministic sums
                acc[np.searchsorted(cand, d)] += c if b == 1.0 else c * b
        sel = topk_order(cand, acc, k)
        return cand[sel], acc[sel]

    def explain(self, text: str, doc_id: int) -> dict:
        """Lucene-style score explanation for one (query, doc) pair:
        per-term tf / df / idf / saturation weight / contribution, plus
        the total. The total accumulates the SAME float64 contribution
        values in the SAME sorted-term order as ``score_taat``, so it
        is bitwise-equal to the doc's served score. A doc removed by
        the active filter/negation/include set reports
        ``in_candidate_set: False`` with zero contributions (the
        reference surfaces per-sentence score components the same way —
        enhanced_pipeline.py:484-500 ``components``)."""
        did = np.uint64(doc_id)
        j = np.searchsorted(self._dl_docid, did)
        if j >= self._dl_docid.size or self._dl_docid[j] != did:
            raise ValueError(f"doc_id {doc_id} is not in this index's registry")
        dl = int(self._dl[j])
        allowed = self._allowed is None or bool(
            self._filter_mask(np.asarray([did], dtype=np.uint64))[0]
        )
        terms = self.query_terms(text)
        bst = self._boosts or {}
        out_terms = []
        total = np.float64(0.0)
        for t in terms:  # sorted order: score_taat's accumulation order
            d, c = self._term_arrays(t)[:2]
            k = np.searchsorted(d, did)
            hit = k < d.size and d[k] == did
            part, i = self._lookup(t)
            df = int(part.idf_df[i])
            idf = float(idf_fn(df, self.n_docs))
            b = bst.get(t, 1.0)
            rec = {"term": t, "df": df, "idf": idf, "tf": 0, "weight": 0.0,
                   "contribution": 0.0}
            if b != 1.0:
                rec["boost"] = b
            if hit:
                dr, tfs, _ctf = self._term_raw(t)
                kr = np.searchsorted(dr, did)
                tf = float(tfs[kr])
                rec["tf"] = int(tf)
                rec["weight"] = float(
                    tf_sat_weight(np.asarray([tf]), np.asarray([dl]),
                                  self.avgdl, self.cfg.k1, self.cfg.b)[0]
                )
                # same float64 op order as score_taat's boosted add
                contrib = c[k] if b == 1.0 else c[k] * np.float64(b)
                rec["contribution"] = float(contrib)
                total += contrib
            out_terms.append(rec)
        return {
            "query": text,
            "doc_id": int(doc_id),
            "doc_len": dl,
            "in_candidate_set": allowed,
            "k1": self.cfg.k1,
            "b": self.cfg.b,
            "avgdl": self.avgdl,
            "score": float(total),
            "terms": out_terms,
        }

    # ---- LM Dirichlet query likelihood ----------------------------------

    def score_lmdir(self, text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Query-likelihood ranking with Dirichlet smoothing (Zhai &
        Lafferty 2001), served from the SAME postings as BM25 — the
        pluggable-scoring proof that the index is model-agnostic:

            score(q, d) = Σ_t∈q∩d ln(1 + tf / (μ · ctf_t / C))
                          + |q| · ln(μ / (dl + μ))

        (the standard sparse rewrite of Σ ln((tf + μ·p_t)/(dl + μ));
        docs matching no query term are excluded — the universal
        candidate-generation convention, shared with BM25 modes.)
        Exhaustive TAAT evaluation: per-doc offsets are negative and
        doc-dependent, so the additive-upper-bound machinery behind
        MaxScore/BMW does not apply to this model; query terms absent
        from the collection (ctf=0 ⇒ p_t=0) are dropped, per the
        standard convention."""
        terms = self.query_terms(text)
        if not terms:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        mu = float(self.cfg.mu)
        per_term = [self._term_raw(t) for t in terms]
        cand = np.unique(np.concatenate([d for d, _, _ in per_term]))
        acc = np.zeros(cand.size, dtype=np.float64)
        for d, tfs, ctf in per_term:  # sorted-term order → deterministic sums
            if d.size:
                # ln(1+x), not log1p: mirrors the SQL oracle's ln() op
                acc[np.searchsorted(cand, d)] += np.log(
                    1.0 + tfs / (mu * (float(ctf) / self.total_len))
                )
        dl = self._doc_len_of(cand).astype(np.float64)
        acc += len(terms) * np.log(mu / (dl + mu))
        sel = topk_order(cand, acc, k)
        return cand[sel], acc[sel]

    # ---- BM25+ (lower-bounded tf normalization) --------------------------

    def score_bm25plus(self, text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """BM25+ (Lv & Zhai, CIKM 2011) served from the SAME postings
        as plain BM25 — the second pluggable-scoring proof alongside
        ``score_lmdir``:

            score(q, d) = Σ_t∈q∩d idf(t) · ((k1+1) · w(tf, dl) + δ)

        i.e. the stored BM25 contribution plus a per-matched-term floor
        of idf·δ, fixing BM25's long-document penalty (a long doc that
        CONTAINS a term can otherwise score below a short doc that
        nearly does). Exhaustive TAAT evaluation: the +idf·δ floor is a
        per-MATCH constant, so MaxScore/BMW upper bounds would need the
        same shift — kept simple (and exact) as TAAT, like lmdir."""
        terms = self.query_terms(text)
        if not terms:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        delta = np.float64(self.cfg.delta)
        per_term = []
        for t in terms:
            d, c = self._term_arrays(t)[:2]
            part, i = self._lookup(t)
            tidf = idf_fn(int(part.idf_df[i]), self.n_docs)
            per_term.append((d, c, np.float64(tidf) * delta))
        cand = np.unique(np.concatenate([d for d, _, _ in per_term]))
        acc = np.zeros(cand.size, dtype=np.float64)
        for d, c, floor in per_term:  # sorted-term order → deterministic sums
            # c + floor elementwise first: mirrors the SQL oracle's
            # per-term `idf*2.2*w + idf*delta` before the sum
            acc[np.searchsorted(cand, d)] += c + floor
        sel = topk_order(cand, acc, k)
        return cand[sel], acc[sel]

    # ---- conjunctive (AND) retrieval ------------------------------------

    def score_conjunctive(self, text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Docs containing EVERY query term, BM25-ranked. Candidate set
        is the posting-list intersection, built smallest-list-first
        (each step is one vectorized searchsorted into the next list,
        so cost is O(|smallest| · log) — the standard conjunctive
        evaluation order); scores accumulate in sorted-term order for
        bitwise parity with the other modes."""
        terms = self.query_terms(text)
        if not terms:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        # a query term absent from the index empties the result (it is
        # required); query_terms drops unknown terms, so re-check the
        # raw tokenization
        if any(not self.has_term(t) for t in set(tokenize_text(text, self.cfg))):
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        arrays = {t: self._term_arrays(t) for t in terms}
        by_df = sorted(terms, key=lambda t: arrays[t][0].size)
        cand = arrays[by_df[0]][0]
        for t in by_df[1:]:
            docs_t = arrays[t][0]
            if docs_t.size == 0 or cand.size == 0:  # doc_filter can empty a list
                cand = cand[:0]
                break
            pos = np.searchsorted(docs_t, cand)
            pos_c = np.minimum(pos, docs_t.size - 1)
            cand = cand[docs_t[pos_c] == cand]
            if cand.size == 0:
                break
        acc = np.zeros(cand.size, dtype=np.float64)
        bst = self._boosts or {}
        for t in terms:  # alphabetical — bitwise-identical accumulation
            docs_t, contrib_t = arrays[t][0], arrays[t][1]
            b = bst.get(t, 1.0)
            c = contrib_t[np.searchsorted(docs_t, cand)]
            acc += c if b == 1.0 else c * b
        sel = topk_order(cand, acc, k)
        return cand[sel], acc[sel]

    # ---- MaxScore (vectorized dynamic pruning) --------------------------

    def score_maxscore(self, text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Exact two-phase MaxScore (Turtle & Flood 1995), vectorized.

        Phase 1 scores the union of the highest-upper-bound lists until
        it holds k docs: its k-th score θ₀ ≤ the true k-th score. Phase 2
        calls the lowest-UB lists whose UB sum (with score_bmw's 1e-9
        margin: it adds in another order than a doc's score) is STRICTLY
        below θ₀ non-essential — a doc only in them cannot reach θ₀ —
        and scores the essential lists' union in ONE pass over the terms.
        Strict `<` keeps θ-ties for the doc_id-ascending tie-break; sums
        run from 0.0 in sorted-term order, bitwise equal to TAAT."""
        terms = self.query_terms(text)
        if not terms:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        k = int(k)
        bst = self._boosts or {}
        arrays = {}  # boosted contributions: c * b per element, as TAAT adds
        for t in terms:
            d, c = self._term_arrays(t)[:2]
            arrays[t] = (d, c if bst.get(t, 1.0) == 1.0 else c * bst[t])
        ubs = {t: float(c.max()) if c.size else 0.0 for t, (_, c) in arrays.items()}
        by_ub = sorted(terms, key=lambda t: (-ubs[t], t))

        def score(cands: np.ndarray, scanned: set[str]) -> np.ndarray:
            acc = np.zeros(cands.size, dtype=np.float64)
            for t in terms:  # sorted-term order — bitwise-identical to TAAT
                d, c = arrays[t]
                if t in scanned:  # every posting is a candidate
                    acc[np.searchsorted(cands, d)] += c
                elif d.size < cands.size:  # membership from the list's side
                    pos = np.minimum(np.searchsorted(cands, d), cands.size - 1)
                    hit = cands[pos] == d
                    acc[pos[hit]] += c[hit]
                elif d.size:  # probe the list for each candidate
                    pos = np.minimum(np.searchsorted(d, cands), d.size - 1)
                    hit = d[pos] == cands
                    acc[hit] += c[pos[hit]]
            return acc

        n_seed, cands = 0, np.empty(0, dtype=np.uint64)
        while n_seed < len(by_ub) and cands.size < k:
            cands = np.union1d(cands, arrays[by_ub[n_seed]][0])
            n_seed += 1
        scores = score(cands, set(by_ub[:n_seed]))
        n_ess, n_scored = n_seed, cands.size
        if 0 < k <= cands.size:
            theta0 = np.partition(scores, -k)[-k]
            low = np.cumsum([ubs[t] for t in by_ub[::-1]]) * (1.0 + 1e-9)
            n_ess = max(n_seed, len(by_ub) - int(np.searchsorted(low, theta0)))
            if n_ess > n_seed:  # else the seed holds every essential doc
                cands = np.unique(np.concatenate([arrays[t][0] for t in by_ub[:n_ess]]))
                scores = score(cands, set(by_ub[:n_ess]))
                n_scored += cands.size
        self.counters.update(lists_essential=n_ess, lists_probed=len(terms) - n_ess,
                             candidates_scored=n_scored)
        sel = topk_order(cands, scores, k)
        return cands[sel], scores[sel]

    # ---- block-max WAND -------------------------------------------------

    def _term_postings(self, term: str) -> _TermPostings:
        tp = self._tp_cache.get(term)
        if tp is None:
            tp = _TermPostings(self, term)
            self._tp_cache[term] = tp
            if len(self._tp_cache) > self.cache_terms:
                _, old = self._tp_cache.popitem(last=False)
                self._tp_drop(old)
        else:
            self._tp_cache.move_to_end(term)
        return tp

    def score_bmw(self, text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized block-max pruning (WAND family, block-max
        MaxScore formulation). Exact top-k; rank- AND bitwise-score-
        identical to TAAT/oracle.

        Candidate generation opens lists in upper-bound order (rare,
        high-idf lists first) — but at BLOCK granularity: a generator
        block whose stored block-max plus every other list's global UB
        cannot reach θ is skipped without decoding (the shallow check).
        Each surviving candidate is bound-checked against the sum of
        the stored block maxima of the blocks that would contain it
        (metadata only); only survivors trigger per-block lazy decodes,
        and only of the exact blocks containing them. Accumulation is
        in sorted-term order over per-block contribution vectors that
        are bitwise-equal to the full-decode path, so scores match TAAT
        exactly; pruning uses strict `<` everywhere, so θ-ties (which
        the (score desc, doc_id asc) tie-break may need) are never
        dropped.

        This replaces the round-1 per-document Python DAAT cursor loop
        (25-60x slower than MaxScore at Zipf skew): every step here —
        block selection, candidate membership, bounds, probes — is a
        numpy/searchsorted batch over whole blocks, which is the
        idiomatic way to express WAND-style skipping over a columnar
        block-max index. Pruned blocks are never decoded (asserted by
        test_bmw_lazy_block_decode)."""
        terms = self.query_terms(text)
        if not terms:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.float64)
        k = int(k)
        tps = {t: self._term_postings(t) for t in terms}
        ubs = {t: tps[t].ub for t in terms}
        by_ub = sorted(terms, key=lambda t: (-ubs[t], t))
        # rem[i] = max possible score from lists i..m (suffix UB sums)
        rem = np.cumsum([ubs[t] for t in by_ub][::-1])[::-1]
        total_ub = float(rem[0])

        def probe(tp: _TermPostings, cands: np.ndarray) -> np.ndarray:
            """Exact contributions for sorted candidate doc_ids —
            decodes only the blocks that contain a candidate, until the
            cumulative probed-block count says one full vectorized
            decode would have been cheaper (then promotes)."""
            contrib = np.zeros(cands.size, dtype=np.float64)
            if tp.n_blocks == 0 or cands.size == 0:
                return contrib
            if not tp._promoted:
                bis = tp.block_of(cands)
                valid = bis < tp.n_blocks
                bis_u = np.unique(bis[valid])
                tp._probed += int(bis_u.size)
                # density rule: one whole-list vectorized decode beats
                # per-block Python decodes above ~1/8 block coverage
                # (per-call overhead dominates) or once cumulative
                # probes have paid the full-decode cost anyway
                sparse = bis_u.size <= max(4, tp.n_blocks >> 3)
                if sparse and tp._probed < tp.n_blocks:
                    for bi in bis_u:
                        sel = np.flatnonzero(bis == bi)
                        docs_b, con_b = tp.block(int(bi))
                        if docs_b.size == 0:  # doc_filter emptied the block
                            continue
                        pos = np.searchsorted(docs_b, cands[sel])
                        pos_c = np.minimum(pos, docs_b.size - 1)
                        hit = docs_b[pos_c] == cands[sel]
                        contrib[sel[hit]] = con_b[pos_c[hit]]
                    return contrib
            docs_t, con_t = tp.ensure_full()
            if docs_t.size == 0:  # doc_filter can empty the whole list
                return contrib
            pos = np.searchsorted(docs_t, cands)
            pos_c = np.minimum(pos, docs_t.size - 1)
            hit = docs_t[pos_c] == cands
            contrib[hit] = con_t[pos_c[hit]]
            return contrib

        def score_full(cands: np.ndarray, theta: float) -> tuple[np.ndarray, np.ndarray]:
            """Shallow-check then exactly score new candidates.

            The per-candidate bound sums each term's stored block-max
            for the block containing the candidate, in the SAME
            (alphabetical) order as the exact accumulation — float
            addition is monotonic, so bound >= score holds bitwise and
            strict `bound < theta` pruning can never drop a true
            top-k member (including θ-ties)."""
            if np.isfinite(theta):
                bound = np.zeros(cands.size, dtype=np.float64)
                for t in terms:
                    tp = tps[t]
                    if tp.n_blocks == 0:
                        continue
                    bis = tp.block_of(cands)
                    valid = bis < tp.n_blocks
                    bound[valid] += tp.block_ub[bis[valid]]
                cands = cands[bound >= theta]
            acc = np.zeros(cands.size, dtype=np.float64)
            for t in terms:  # alphabetical — bitwise-identical to TAAT
                acc += probe(tps[t], cands)
            return cands, acc

        seen = np.empty(0, dtype=np.uint64)
        cands = np.empty(0, dtype=np.uint64)
        scores = np.empty(0, dtype=np.float64)
        theta = -np.inf
        for i, t in enumerate(by_ub):
            if cands.size >= k and rem[i] < theta:
                break  # unopened lists cannot produce a new winner
            tp = tps[t]
            if tp.n_blocks == 0:
                continue
            # generator-block shallow check: a block whose block-max
            # plus ALL other lists' UBs can't reach θ holds no winner.
            # (1+1e-9) guards the float subtraction under-rounding the
            # "other lists" sum — conservative, never unsafe.
            if cands.size >= k and np.isfinite(theta):
                others = (total_ub - ubs[t]) * (1.0 + 1e-9)
                kept_blocks = np.flatnonzero(tp.block_ub + others >= theta)
            else:
                kept_blocks = np.arange(tp.n_blocks)
            if kept_blocks.size == 0:
                continue
            if kept_blocks.size > max(4, tp.n_blocks >> 3):
                # density rule (see probe): decode the whole list in one
                # vectorized pass; docs from pruned blocks are harmless
                # extras — the candidate bound check drops them
                docs_t = tp.ensure_full()[0]
            else:
                docs_t = np.concatenate([tp.block(int(bi))[0] for bi in kept_blocks])
            if seen.size:
                pos = np.searchsorted(seen, docs_t)
                pos_c = np.minimum(pos, seen.size - 1)
                new = docs_t[seen[pos_c] != docs_t]
            else:
                new = docs_t
            if new.size:
                seen = np.union1d(seen, new)
                nc, ns = score_full(new, theta)
                cands = np.concatenate([cands, nc])
                scores = np.concatenate([scores, ns])
            if cands.size >= k:
                theta = float(np.partition(scores, -k)[-k])
        sel = topk_order(cands, scores, k)
        return cands[sel], scores[sel]

    # ---- map_batches entry ---------------------------------------------

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time as _time

        _t0 = _time.monotonic()
        score = getattr(self, f"score_{self.mode}")
        qids, ranks, docs, scores, out_ks = [], [], [], [], []
        ks = batch["k"].to_pylist() if "k" in batch.column_names else [10] * batch.num_rows
        for qid, text, k in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist(), ks):
            d, s = score(text, int(k))
            qids.append(np.full(d.size, qid, dtype=np.int64))
            ranks.append(np.arange(d.size, dtype=np.uint32))
            docs.append(d)
            scores.append(s)
            out_ks.append(np.full(d.size, int(k), dtype=np.uint32))
        self._busy_s += _time.monotonic() - _t0
        self._n_scored += batch.num_rows
        if self._profile_dir:
            self._profile_flush()
        if not qids:
            empty = RESULTS_SCHEMA.empty_table()
            if self.emit_k:
                empty = empty.append_column("k", pa.array([], type=pa.uint32()))
            return empty
        out = pa.table(
            {
                "query_id": pa.array(np.concatenate(qids), type=pa.int64()),
                "rank": pa.array(np.concatenate(ranks), type=pa.uint32()),
                "doc_id": pa.array(np.concatenate(docs), type=pa.uint64()),
                "score": pa.array(np.concatenate(scores), type=pa.float64()),
            }
        )
        if self.emit_k:
            out = out.append_column("k", pa.array(np.concatenate(out_ks), type=pa.uint32()))
        return out


def expand_prefix(index_dir: str, prefix: str, limit: int | None = None) -> list[str]:
    """Expand a wildcard query prefix (``pref*``) against the index
    VOCABULARY: every indexed term starting with ``prefix``, sorted.

    Implementation is a column-only scan of the postings partitions
    (``term`` column, no payload decode) with the vectorized Arrow
    ``starts_with`` kernel — O(vocabulary) bytes read, independent of
    postings size. A deployment with a huge vocabulary would keep a
    sorted term-dictionary sidecar and binary-search it; the scan is
    the dependency-free path and the vocabulary is orders of magnitude
    smaller than the postings it indexes.

    ``limit`` caps the expansion (longest-match-first is NOT applied —
    terms come back lexicographic; pass None for exhaustive, which the
    SQL-parity gate requires)."""
    import pyarrow.compute as _pc

    files, is_dict = _vocab_sources(index_dir)
    filters = None
    if prefix and is_dict:
        # sorted sidecar: the prefix is a contiguous term range, so the
        # parquet row-group min/max stats prune the read
        filters = [("term", ">=", prefix), ("term", "<", prefix + _PREFIX_HI)]
    out: set[str] = set()
    for f in files:
        t = pq.read_table(f, columns=["term"], filters=filters)["term"].combine_chunks()
        out.update(t.filter(_pc.starts_with(t, pattern=prefix)).to_pylist())
    terms = sorted(out)
    return terms if limit is None else terms[:limit]


def _vocab_sources(index_dir: str) -> tuple[list[str], bool]:
    """Vocabulary file set for an index: the ``term_dict`` sidecar when
    present (globally SORTED narrow (term, df) rows — row-group min/max
    stats make prefix-range reads prune), else the postings partitions
    themselves (term/df column scan; pre-sidecar indexes). Raises
    FileNotFoundError on an unbuilt index."""
    from .state.fsio import glob_parquet

    td = glob_parquet(os.path.join(index_dir, "term_dict"))
    if td:
        return td, True
    files = glob_parquet(os.path.join(index_dir, "parts"))
    if not files:
        raise FileNotFoundError(f"{index_dir}/parts: not a built index")
    return files, False


# upper bound for "starts with prefix" as a string range: every term
# with the prefix sorts in [prefix, prefix + MAX_CODEPOINT)
_PREFIX_HI = "\U0010ffff"


def vocab_df(index_dir: str, prefix: str | None = None) -> dict[str, int]:
    """Vocabulary → document frequency from the built index — the
    ``term_dict`` sidecar when present, else a column-pruned (term, df)
    scan of the postings partitions (no payload decode). df rows are
    SUMMED per term so salted hot-term runs (disjoint doc sets)
    aggregate exactly. ``prefix`` restricts the read: against the
    sorted sidecar it becomes a parquet range filter that prunes to the
    touched row groups. Feeds autocomplete (suggest) and did-you-mean
    (spellcheck) ranking."""
    files, is_dict = _vocab_sources(index_dir)
    filters = None
    if prefix and is_dict:
        filters = [("term", ">=", prefix), ("term", "<", prefix + _PREFIX_HI)]
    agg: dict[str, int] = {}
    for f in files:
        t = pq.read_table(f, columns=["term", "df"], filters=filters)
        for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            if prefix and not term.startswith(prefix):
                continue
            agg[term] = agg.get(term, 0) + int(df)
    return agg


def suggest_terms(index_dir: str, prefix: str, n: int = 5) -> list[tuple[str, int]]:
    """Autocomplete: top-n vocabulary terms starting with ``prefix``,
    ranked by (df desc, term asc) — the completion-suggester rule.
    With a term_dict sidecar only the prefix's row-group range is
    read."""
    agg = vocab_df(index_dir, prefix=prefix)
    return sorted(agg.items(), key=lambda td: (-td[1], td[0]))[:n]


def spell_suggest(
    index_dir: str, token: str, max_dist: int = 2
) -> tuple[str, int, int] | None:
    """Did-you-mean: the best vocabulary term within edit distance
    ``max_dist`` of ``token`` — nearest distance first, then highest
    df, then term asc (Lucene DirectSpellChecker ranking). Returns
    (suggestion, distance, df) or None when nothing is close enough."""
    agg = vocab_df(index_dir)
    best = None
    for cand in expand_fuzzy(index_dir, token, max_dist):
        dist = next(d for d in range(max_dist + 1) if _edit_leq(token, cand, d))
        key = (dist, -agg[cand], cand)
        if best is None or key < best[0]:
            best = (key, cand, dist)
    return None if best is None else (best[1], best[2], agg[best[1]])


def expand_regex(index_dir: str, pattern: str, limit: int | None = None) -> list[str]:
    """Expand a REGEX term query against the index vocabulary: every
    indexed term fully matching ``pattern`` (Lucene RegexpQuery
    semantics — the regex is implicitly anchored at both ends), sorted.

    Same column-only postings scan as ``expand_prefix`` (``term``
    column only, no payload decode) with the vectorized RE2
    ``match_substring_regex`` kernel on an explicitly anchored
    pattern — O(vocabulary) bytes read, independent of postings size.
    RE2 is also DuckDB's regex engine, so the SQL-parity oracle
    (``regexp_full_match``) sees the identical language."""
    import pyarrow.compute as _pc

    anchored = f"^(?:{pattern})$"
    files, _ = _vocab_sources(index_dir)
    out: set[str] = set()
    for f in files:
        t = pq.read_table(f, columns=["term"])["term"].combine_chunks()
        out.update(t.filter(_pc.match_substring_regex(t, pattern=anchored)).to_pylist())
    terms = sorted(out)
    return terms if limit is None else terms[:limit]


def _edit_leq(a: str, b: str, d: int) -> bool:
    """Levenshtein(a, b) <= d via the two-row DP with early abandon
    (plain edit distance — insert/delete/substitute, no transposition,
    matching SQL ``levenshtein``)."""
    if abs(len(a) - len(b)) > d:
        return False
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        best = i
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            best = min(best, cur[j])
        if best > d:
            return False
        prev = cur
    return prev[-1] <= d


def expand_fuzzy(
    index_dir: str, term: str, max_dist: int = 1, limit: int | None = None
) -> list[str]:
    """Typo-tolerant expansion: every indexed term within edit distance
    ``max_dist`` of ``term`` (the exact term included at distance 0),
    sorted. Same column-only vocabulary scan as ``expand_prefix``, with
    a length-difference prefilter before the DP; a huge-vocabulary
    deployment would precompute a deletion-neighborhood index
    (FastSS-style) instead of scanning."""
    import pyarrow.compute as _pc

    files, _ = _vocab_sources(index_dir)
    out: set[str] = set()
    for f in files:
        col = pq.read_table(f, columns=["term"])["term"].combine_chunks()
        # cheap vectorized prefilter: |len(t) - len(term)| <= max_dist
        lens = _pc.utf8_length(col)
        mask = _pc.and_(
            _pc.greater_equal(lens, len(term) - max_dist),
            _pc.less_equal(lens, len(term) + max_dist),
        )
        for t in col.filter(mask).to_pylist():
            if t not in out and _edit_leq(term, t, max_dist):
                out.add(t)
    terms = sorted(out)
    return terms if limit is None else terms[:limit]


def load_index_state(index_dir: str):
    """Decode an index's postings partitions + narrow docs table ONCE
    and put them in the Ray object store; returns the ObjectRef that
    ``scorer_pool`` hands every actor of a multi-actor eager pool.

    Scale shape: the object ships to each node that schedules a scorer
    actor ONCE (Ray object-store locality), and Arrow buffers read out
    of plasma are shared-memory zero-copy — N actors on a node share a
    single resident decoded copy instead of each paying the parquet
    read + decompress and holding its own. The partition-lazy scorer
    remains the capped-RSS path when an index must NOT be fully
    resident."""
    import ray as _ray

    from .state.fsio import glob_parquet

    from .pipelines.reindex import resolve_alias

    index_dir = resolve_alias(index_dir)
    part_files: dict[str, list[str]] = {}
    for f in glob_parquet(os.path.join(index_dir, "parts")):
        name = f.rsplit("/parts/", 1)[-1].split("/", 1)[0]
        part_files.setdefault(name, []).append(f)
    parts = {
        # combine_chunks here so per-actor _Part views are pure
        # zero-copy (no chunk consolidation on the consumer side)
        name: pa.concat_tables([pq.read_table(f) for f in files]).combine_chunks()
        for name, files in sorted(part_files.items())
    }
    docs = pq.read_table(os.path.join(index_dir, "docs"), columns=["doc_id", "doc_len"])
    return _ray.put({"parts": parts, "docs": docs.combine_chunks()})


def scorer_pool(queries, index_dir: str, cfg: EngineConfig, concurrency: int, **scorer_kwargs):
    """``queries`` through a pool of ``concurrency`` BM25Scorer actors
    over one index (``scorer_kwargs`` go to the constructor).

    State rule: an eager pool that may run more than one actor gets
    ``load_index_state``'s object-store copy, decoded once here and
    shared zero-copy by its actors (r5: +18% pool q/s, 309 → 365, on
    the 100k/2,000-query protocol). A single actor, or a
    partition-lazy scorer (``max_loaded_parts``), reads its own index
    — sharing would only add a driver-side decode, or make the whole
    index resident against the lazy scorer's RSS cap.

    The pool never asks for more actors than ``queries`` has blocks
    when its plan fixes that count without running (no read in the
    plan, e.g. ``from_arrow`` tables): an actor with no block to score
    would still start and fetch the shared state. A read's block count
    is only a plan-time estimate and caps nothing."""
    from ray.data._internal.logical.operators.read_operator import Read

    ops = [queries._logical_plan.dag]
    while ops and not isinstance(ops[-1], Read):
        ops.extend(ops.pop().input_dependencies)
    blocks = None if ops else queries._logical_plan.dag.estimated_num_outputs()
    concurrency = min(concurrency, blocks or concurrency)
    shared = (
        load_index_state(index_dir)
        if concurrency > 1 and not scorer_kwargs.get("max_loaded_parts")
        else None
    )
    return queries.map_batches(
        BM25Scorer,
        fn_constructor_args=(index_dir, cfg),
        fn_constructor_kwargs={**scorer_kwargs, "shared_state": shared},
        batch_format="pyarrow",
        batch_size=cfg.query_batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def query_index(
    queries,
    index_dir: str,
    cfg: EngineConfig | None = None,
    mode: str = "taat",
    concurrency: int | None = None,
    max_loaded_parts: int | None = None,
    doc_filter: tuple[str, tuple] | None = None,
    exclude_terms: tuple[str, ...] | None = None,
    exclude_doc_ids=None,
    include_doc_ids=None,
    min_should_match: int | None = None,
    synonyms: dict[str, tuple[str, ...]] | None = None,
    boosts: dict[str, float] | None = None,
):
    """queries Dataset (query_id, text, k) → results Dataset via the
    scorer actor pool (``concurrency`` actors, default
    ``cfg.scorer_concurrency``). A pool of more than one eager actor
    shares one object-store copy of the index (``scorer_pool``'s state
    rule); ``max_loaded_parts`` > 0 serves with the partition-lazy
    scorer instead (capped actor RSS; see BM25Scorer), each actor
    reading its own partitions.
    ``doc_filter=(column, values)`` restricts results to docs whose
    registry metadata matches — resolved once per actor, applied at
    posting decode, exact under every pruning mode.
    ``exclude_terms`` removes every doc containing any of the given
    terms (boolean NOT) before ranking — same exactness contract.
    ``exclude_doc_ids`` (doc_id array or tombstone parquet dir path)
    removes specific documents — deleted-docs semantics.
    ``include_doc_ids`` (uint64 array) restricts candidates to an
    explicit id set (phrase constraints, pre-joined candidates).
    ``min_should_match`` = m keeps only docs matching ≥ m distinct
    query terms (Elasticsearch minimum_should_match; taat mode only).
    ``synonyms`` maps query tokens to extra terms (query-time thesaurus
    expansion; ships once per actor, composes with every mode).
    ``boosts`` maps terms to score multipliers (Lucene ``term^2``;
    taat/maxscore/conjunctive only — pruning stays exact)."""
    cfg = cfg or EngineConfig()
    return scorer_pool(
        queries, index_dir, cfg, concurrency or cfg.scorer_concurrency,
        mode=mode, max_loaded_parts=max_loaded_parts, doc_filter=doc_filter,
        exclude_terms=exclude_terms, exclude_doc_ids=exclude_doc_ids,
        include_doc_ids=include_doc_ids, min_should_match=min_should_match,
        synonyms=synonyms, boosts=boosts,
    )
