"""Engine pipelines over the driver's ``documents`` test table.

Maps the generic ``documents(doc_id, text, lang, source, n_chars)``
table into the north-rule corpus shape and runs the real engine
(build → postings → BM25 actor-pool scoring) over it. These are the
SQL-parity entries for the correctness gate: the ``simple`` tokenizer
is exactly ``regexp_extract_all(lower(text), '[a-z0-9]+')`` + length≥2
in DuckDB, and every aggregate column is named identically in the Ray
pipeline and the oracle SQL.

Gate-stability note: BM25 ranking for the DuckDB comparison sorts by
(round(score,6) DESC, doc_id ASC) on BOTH sides — raw float ordering
is bitwise-stable inside the engine (pytest asserts it vs the oracle
scorer) but not across two independent SQL/numpy evaluations.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data
from ray.data.aggregate import Count, Min, Sum

from ..build import build_index
from ..codec import decode_rows
from ..config import EngineConfig, SQL_PARITY_CONFIG
from ..scorer import BM25Scorer, query_index
from ..tokenizer import tokenize_text

# The fixed reference query set for the documents table (vocabulary of
# the driver's synthetic text).
DOC_QUERIES: list[tuple[int, str]] = [
    (0, "data query stream"),
    (1, "merge sort join table"),
    (2, "the fast key value"),
    (3, "spark batch window"),
    (4, "customer order line filter"),
    (5, "slow big hash scan group"),
    (6, "row data"),
    (7, "part supplier region nation"),
]
TOPK = 10

SIMPLE_TOK_SQL = "list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'), t -> length(t) >= 2)"


def documents_as_corpus(sf_dir: str) -> "ray.data.Dataset":
    """documents → corpus schema (repo,path,commit,lang,content,doc_id)."""
    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))

    def to_corpus(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        doc_ids = batch["doc_id"]
        return pa.table(
            {
                "repo": batch["source"],
                "path": pc.binary_join_element_wise(
                    pa.array(["doc"] * n), pc.cast(doc_ids, pa.string()), "/"
                ),
                "commit": pa.array([""] * n),
                "lang": batch["lang"],
                "content": batch["text"],
                "doc_id": doc_ids,
            }
        )

    return ds.map_batches(to_corpus, batch_format="pyarrow", zero_copy_batch=True)


_INDEX_CACHE: dict[str, str] = {}


def ensure_index(sf_dir: str, cfg: EngineConfig = SQL_PARITY_CONFIG) -> str:
    """Build (or resume) the documents-table index for sf_dir; the
    build fingerprint makes repeated calls no-ops."""
    key = f"{sf_dir}:{cfg.config_hash()}"
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    safe = sf_dir.strip("/").replace("/", "_")
    index_dir = os.path.join("/tmp", "docinsight_ray_idx", f"{safe}-{cfg.config_hash()}")
    build_index(documents_as_corpus(sf_dir), index_dir, cfg, fingerprint=f"documents:{sf_dir}")
    _INDEX_CACHE[key] = index_dir
    return index_dir


# ---- queries() entries ----------------------------------------------------


def q_docs_registry(sf_dir: str) -> pa.Table:
    """docs registry: per-row sha256 invariant + doc_len (SURVEY.md §2.2 M1-M4)."""
    idx = ensure_index(sf_dir)
    docs = ray.data.read_parquet(os.path.join(idx, "docs"))

    def project(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "lang": batch["lang"],
                "content_sha256": batch["content_sha256"],
                "doc_len": pc.cast(batch["doc_len"], pa.int64()),
            }
        )

    from ..collect import collect_table

    return collect_table(docs.map_batches(project, batch_format="pyarrow"))


def q_corpus_stats(sf_dir: str) -> pa.Table:
    """Corpus stats aggregate (reference analogue: get_corpus_stats,
    /root/reference/db/db_manager.py:112-143)."""
    idx = ensure_index(sf_dir)
    import json

    with open(os.path.join(idx, "corpus_stats.json")) as f:
        st = json.load(f)
    return pa.table(
        {
            "n_docs": pa.array([st["n_docs"]], type=pa.int64()),
            "total_len": pa.array([st["total_len"]], type=pa.int64()),
            "avgdl": pa.array([st["avgdl"]], type=pa.float64()),
        }
    )


def _postings_ds(idx: str) -> "ray.data.Dataset":
    import glob

    files = sorted(glob.glob(os.path.join(idx, "parts", "**", "*.parquet"), recursive=True))
    return ray.data.read_parquet(files)


def q_term_df_top100(sf_dir: str) -> pa.Table:
    """Top-100 document frequencies from the merged postings (df is
    stored on the posting row — SURVEY.md §2.5 G3).

    Per-block local top-100 partials under the total order (df desc,
    term asc) + a bounded driver merge — every global top-100 row is in
    its own block's local top-100, so the partials are lossless and the
    billions-of-terms vocabulary never global-sorts (the all-to-all the
    old ``ds.sort`` paid)."""
    idx = ensure_index(sf_dir)
    ds = _postings_ds(idx).select_columns(["term", "df"])

    def local_top(batch: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            batch, sort_keys=[("df", "descending"), ("term", "ascending")]
        )
        return batch.take(order[:100])

    from ..collect import collect_table

    partials = collect_table(
        ds.map_batches(local_top, batch_format="pyarrow"),
        pa.schema([("term", pa.string()), ("df", pa.uint32())]),
    )  # ≤ 100 rows per block
    order = pc.sort_indices(
        partials, sort_keys=[("df", "descending"), ("term", "ascending")]
    )
    out = partials.take(order[:100])
    return pa.table(
        {
            "term": pa.array(out["term"], type=pa.string()),
            "df": pc.cast(out["df"], pa.int64()),
        }
    )


PROBE_TERMS = ["data", "query", "merge", "stream", "window"]


def q_postings_probe(sf_dir: str) -> pa.Table:
    """Decode the stored (delta+varbyte) postings of a fixed term set
    back to (term, doc_id, tf) rows — the codec round-trips through the
    correctness gate."""
    idx = ensure_index(sf_dir)
    ds = _postings_ds(idx)

    def explode(batch: pa.Table) -> pa.Table:
        probe = batch.filter(pc.is_in(batch["term"], value_set=pa.array(PROBE_TERMS)))
        terms, dids, tfs = decode_rows(probe)
        return pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "doc_id": pa.array(dids.astype(np.int64), type=pa.int64()),
                "tf": pa.array(tfs.astype(np.int64), type=pa.int64()),
            }
        )

    from ..collect import collect_table

    empty = pa.schema([("term", pa.string()), ("doc_id", pa.int64()), ("tf", pa.int64())])
    return collect_table(ds.map_batches(explode, batch_format="pyarrow"), empty)


def q_bm25_topk(
    sf_dir: str,
    mode: str = "taat",
    max_loaded_parts: int | None = None,
    doc_filter: tuple[str, tuple] | None = None,
    exclude_terms: tuple[str, ...] | None = None,
    min_should_match: int | None = None,
    synonyms: dict[str, tuple[str, ...]] | None = None,
    boosts: dict[str, float] | None = None,
) -> pa.Table:
    """Full engine path END-TO-END: build → Dataset of queries →
    actor-pool scorers (the serving path, not a driver loop) → top-10
    per fixed query, ranked by (round(score,6) desc, doc_id asc) for
    SQL parity. Each query over-fetches k = n_docs so the round-6
    re-rank below sees every candidate the SQL oracle sees."""
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG, mode=mode).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode=mode,
                    concurrency=2, max_loaded_parts=max_loaded_parts,
                    doc_filter=doc_filter, exclude_terms=exclude_terms,
                    min_should_match=min_should_match, synonyms=synonyms,
                    boosts=boosts)
        .to_pandas()
    )
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


def q_bm25_topk_bmw(sf_dir: str) -> pa.Table:
    return q_bm25_topk(sf_dir, mode="bmw")


def q_lmdir_topk(sf_dir: str) -> pa.Table:
    """LM Dirichlet query-likelihood ranking (scorer.score_lmdir)
    served from the SAME index build as the BM25 gates — pluggable
    scoring over one set of postings. Same over-fetch + round-6
    re-rank protocol as q_bm25_topk."""
    return q_bm25_topk(sf_dir, mode="lmdir")


def q_bm25plus_topk(sf_dir: str) -> pa.Table:
    """BM25+ lower-bounded ranking (scorer.score_bm25plus, Lv & Zhai
    2011: each matched term adds an idf·delta floor on top of the
    saturated-tf contribution) served from the SAME index build as the
    plain-BM25 gates — pluggable scoring over one set of postings.
    Same over-fetch + round-6 re-rank protocol as q_bm25_topk."""
    return q_bm25_topk(sf_dir, mode="bm25plus")


# ---- stemmed analyzer chain (stopwords + Harman S-stemmer) -----------------
#
# The driver corpus has no plural tokens, so (like the PII gate) both
# engines append the SAME deterministic doc_id-derived plural suffix to
# every document before analysis — stemming then conflates the suffix
# plurals with the base vocabulary and the oracle checks real analyzer
# behavior, not a no-op.
STEM_SUFFIXES = (" tables queries", " rows", " merges sorts", " windows", "")
STEM_STOPWORDS = ("the",)
STEM_QUERIES: list[tuple[int, str]] = [
    (0, "tables stream"),       # stems to table+stream
    (1, "queries merge"),       # ies → y
    (2, "rows data"),           # plain -s
    (3, "windows the batch"),   # stopword dropped on the query side too
    (4, "scan sorts"),
]


# the S-stemmer as one SQL CASE over a term column ({t} placeholder)
_STEM_CASE = (
    "CASE"  # exception suffixes terminate (word unchanged), like s_stem
    " WHEN {t} LIKE '%eies' OR {t} LIKE '%aies' THEN {t}"
    " WHEN {t} LIKE '%ies' THEN substr({t}, 1, length({t})-3) || 'y'"
    " WHEN {t} LIKE '%aes' OR {t} LIKE '%ees' OR {t} LIKE '%oes' THEN {t}"
    " WHEN {t} LIKE '%es' THEN substr({t}, 1, length({t})-1)"
    " WHEN {t} LIKE '%us' OR {t} LIKE '%ss' THEN {t}"
    " WHEN {t} LIKE '%s' THEN substr({t}, 1, length({t})-1)"
    " ELSE {t} END"
)


def _stem_config() -> EngineConfig:
    import dataclasses

    return dataclasses.replace(SQL_PARITY_CONFIG, stemmer="s", stopwords=STEM_STOPWORDS)


def _stemmed_corpus(sf_dir: str) -> "ray.data.Dataset":
    """documents → corpus with the deterministic plural augmentation."""
    sfx_lut = np.asarray(STEM_SUFFIXES, dtype=object)

    def aug(batch: pa.Table) -> pa.Table:
        did = batch["doc_id"].to_numpy(zero_copy_only=False)
        sfx = pa.array(sfx_lut[did % 5], type=pa.string())
        content = pc.binary_join_element_wise(batch["content"], sfx, "")
        return batch.set_column(
            batch.schema.get_field_index("content"), "content", content
        )

    return documents_as_corpus(sf_dir).map_batches(
        aug, batch_format="pyarrow", zero_copy_batch=True
    )


def ensure_stem_index(sf_dir: str) -> str:
    cfg = _stem_config()
    key = f"stem:{sf_dir}:{cfg.config_hash()}"
    if key in _INDEX_CACHE:
        return _INDEX_CACHE[key]
    safe = sf_dir.strip("/").replace("/", "_")
    index_dir = os.path.join("/tmp", "docinsight_ray_idx", f"stem-{safe}-{cfg.config_hash()}")
    build_index(_stemmed_corpus(sf_dir), index_dir, cfg, fingerprint=f"stemdocs:{sf_dir}")
    _INDEX_CACHE[key] = index_dir
    return index_dir


def q_bm25_stemmed(sf_dir: str) -> pa.Table:
    """BM25 over the stemmed analyzer chain: length filter → stopword
    filter → Harman S-stemmer, at BUILD and QUERY time from one shared
    config (stems always match; Elasticsearch analyzer parity). Same
    over-fetch + round-6 re-rank protocol as q_bm25_topk."""
    cfg = _stem_config()
    idx = ensure_stem_index(sf_dir)
    n_docs = BM25Scorer(idx, cfg).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in STEM_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in STEM_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(STEM_QUERIES), type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, cfg, mode="maxscore", concurrency=2
    ).to_pandas()
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in STEM_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids) if dids else np.empty(0, np.int64), type=pa.int64()),
            "score": pa.array(np.concatenate(scores) if scores else np.empty(0), type=pa.float64()),
        }
    )


def q_bm25_topk_lazy(sf_dir: str) -> pa.Table:
    """Partition-LAZY serving (ROADMAP §5): scorer actors cap resident
    postings partitions at 2 (load on first term touch, LRU-evicted)
    so actor RSS is bounded independently of index size. Same oracle
    as bm25_topk — the gate proves rank/score identity at the hash
    level."""
    return q_bm25_topk(sf_dir, mode="maxscore", max_loaded_parts=2)


# function_score linear decay on n_chars: factor peaks at 1.0 where
# n_chars == DECAY_ORIGIN and reaches 0.0 at |n_chars - origin| >=
# DECAY_SCALE (docs exist on both sides of the clamp in the testdata,
# so the gate exercises it)
DECAY_ORIGIN = 300.0
DECAY_SCALE = 200.0


class _DecayRescore:
    """Actor-pool rescoring stage (Elasticsearch ``function_score``
    with a ``linear`` decay and ``boost_mode: multiply``): each actor
    loads the narrow (doc_id, n_chars) columns ONCE in ``__init__`` —
    the same per-actor memory class as the scorer's own doc_len array
    (8 bytes/doc) — and ``__call__`` multiplies each hit's BM25 score
    by max(0, (scale - |n_chars - origin|) / scale), fully vectorized.
    function_score scores every matched document, so this runs on the
    full candidate stream, before any top-k truncation."""

    def __init__(self, sf_dir: str, origin: float, scale: float):
        import pyarrow.parquet as pq

        t = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(ids)
        self._ids = ids[order]
        self._vals = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)[order]
        self._origin = float(origin)
        self._scale = float(scale)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        vals = self._vals[np.searchsorted(self._ids, d)]
        factor = np.maximum(0.0, (self._scale - np.abs(vals - self._origin)) / self._scale)
        scores = batch["score"].to_numpy(zero_copy_only=False) * factor
        return batch.set_column(
            batch.column_names.index("score"), "score", pa.array(scores, type=pa.float64())
        )


def q_bm25_decay(sf_dir: str) -> pa.Table:
    """Elasticsearch ``function_score`` retrieval: BM25 relevance ×
    a LINEAR numeric decay on a document field (n_chars), multiply
    boost mode — the recency/length-boost pattern. Serving shape:
    the actor-pool scorer streams full candidate lists per query, a
    second (small) actor-pool stage rescores every hit against the
    per-actor field array, and the gate's round-6 re-rank picks the
    top-k. Exact clamp: factor 0 where the field is ≥ scale away from
    the origin, so clamped docs rank last at score 0.0 (doc_id ties)."""
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
                    concurrency=2)
        .map_batches(
            _DecayRescore,
            fn_constructor_args=(sf_dir, DECAY_ORIGIN, DECAY_SCALE),
            batch_format="pyarrow",
            concurrency=1,
            num_cpus=1,
        )
        .to_pandas()
    )
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


# rank_feature saturation: contribution = boost * x / (x + pivot) —
# monotone in the feature, bounded by `boost`, half-strength at the
# pivot (Elasticsearch's default rank_feature function)
RANK_FEATURE_PIVOT = 256.0
RANK_FEATURE_BOOST = 2.0


class _RankFeatureRescore:
    """Actor-pool stage for the Elasticsearch ``rank_feature`` query in
    a bool ``should`` clause: every BM25-matched doc ADDS
    boost * x/(x+pivot) of its numeric feature (n_chars) to the
    relevance score — the static-signal pattern (pagerank, freshness,
    popularity) that tilts ranking without gating matches. Same
    load-once per-actor memory class as _DecayRescore (8 bytes/doc);
    contrast bm25_decay, which MULTIPLIES (boost_mode) rather than
    adds (should-clause sum)."""

    def __init__(self, sf_dir: str, pivot: float, boost: float):
        import pyarrow.parquet as pq

        t = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "n_chars"]
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(ids)
        self._ids = ids[order]
        self._vals = t["n_chars"].to_numpy(zero_copy_only=False).astype(np.float64)[order]
        self._pivot = float(pivot)
        self._boost = float(boost)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = self._vals[np.searchsorted(self._ids, d)]
        scores = batch["score"].to_numpy(zero_copy_only=False) + self._boost * (
            x / (x + self._pivot)
        )
        return batch.set_column(
            batch.column_names.index("score"), "score", pa.array(scores, type=pa.float64())
        )


def q_bm25_rank_feature(sf_dir: str) -> pa.Table:
    """Elasticsearch ``rank_feature`` retrieval: BM25 relevance + an
    additive saturation boost on a numeric document field — serving
    shape identical to bm25_decay (full candidate stream through a
    small rescore actor pool, round-6 re-rank to top-k), but additive
    should-clause semantics instead of multiply boost_mode."""
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
                    concurrency=2)
        .map_batches(
            _RankFeatureRescore,
            fn_constructor_args=(sf_dir, RANK_FEATURE_PIVOT, RANK_FEATURE_BOOST),
            batch_format="pyarrow",
            concurrency=1,
            num_cpus=1,
        )
        .to_pandas()
    )
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


BOOSTING_NEG_TERMS = ("dup",)
BOOSTING_FACTOR = 0.5


class _BoostingRescore:
    """Actor-pool stage for the Elasticsearch ``boosting`` query: docs
    matching the NEGATIVE query keep their relevance order but score ×
    ``negative_boost`` (soft demotion — contrast hard boolean NOT,
    gate bm25_negated). The negative doc set resolves ONCE per actor
    from the index postings (union over negative terms), the same
    load-once memory class as the scorer's own arrays."""

    def __init__(self, index_dir: str, neg_terms: tuple, factor: float):
        from ..scorer import BM25Scorer

        # partition-LAZY: only the negative terms' buckets load, not
        # the whole index (this stage holds no other postings state)
        sc = BM25Scorer(index_dir, SQL_PARITY_CONFIG, max_loaded_parts=2)
        sets = [sc._term_arrays(t)[0] for t in neg_terms if sc.has_term(t)]
        self._neg = (
            np.unique(np.concatenate(sets)) if sets else np.empty(0, dtype=np.uint64)
        )
        self._factor = np.float64(factor)

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or self._neg.size == 0:
            return batch
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        scores = batch["score"].to_numpy(zero_copy_only=False).copy()
        sel = np.searchsorted(self._neg, d)
        hit = (sel < self._neg.size)
        hit[hit] = self._neg[sel[hit]] == d[hit]
        scores[hit] = scores[hit] * self._factor
        return batch.set_column(
            batch.column_names.index("score"), "score",
            pa.array(scores, type=pa.float64()),
        )


def q_bm25_boosting(sf_dir: str) -> pa.Table:
    """Elasticsearch ``boosting`` query: positive BM25 relevance with
    docs matching the negative term(s) demoted by ``negative_boost``
    (×0.5) instead of excluded. Serving shape: the actor-pool scorer
    streams full candidate lists, a second actor-pool stage demotes
    against the per-actor negative doc set, round-6 re-rank."""
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG,
                    mode="maxscore", concurrency=2)
        .map_batches(
            _BoostingRescore,
            fn_constructor_args=(idx, BOOSTING_NEG_TERMS, BOOSTING_FACTOR),
            batch_format="pyarrow",
            concurrency=1,
            num_cpus=1,
        )
        .to_pandas()
    )
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        qids += [qid] * min(TOPK, d.size)
        ranks += list(range(min(TOPK, d.size)))
        dids.append(d[order].astype(np.int64))
        scores.append(s6[order])
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


def q_bm25_constant_score(sf_dir: str) -> pa.Table:
    """Elasticsearch ``constant_score``: the query acts as a FILTER —
    every matching doc scores exactly 1.0 (scoring skipped, ordering
    by doc_id) — the cacheable-filter serving shape. Candidates are
    the BM25 candidate convention (docs matching ≥1 indexed term)."""
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="taat", concurrency=2
    ).to_pandas()
    qids, ranks, dids = [], [], []
    for qid, _text in DOC_QUERIES:
        d = np.sort(res.loc[res.query_id == qid, "doc_id"].to_numpy().astype(np.uint64))[:TOPK]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.ones(len(qids)), type=pa.float64()),
        }
    )


class _AttachField:
    """Actor-pool hydration stage: load the narrow (doc_id, field)
    columns ONCE per actor in ``__init__`` (8 bytes/doc — the scorer's
    doc_len memory class) and append the field to each result batch,
    vectorized searchsorted. The building block for field-ordered
    serving (Elasticsearch ``sort``) and function_score variants."""

    def __init__(self, sf_dir: str, field: str):
        import pyarrow.parquet as pq

        t = pq.read_table(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", field]
        )
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(ids)
        self._ids = ids[order]
        self._vals = t[field].to_numpy(zero_copy_only=False).astype(np.int64)[order]
        self._field = field

    def __call__(self, batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        vals = (
            self._vals[np.searchsorted(self._ids, d)]
            if batch.num_rows
            else np.empty(0, dtype=np.int64)
        )
        return batch.append_column(self._field, pa.array(vals, type=pa.int64()))


def q_bm25_sort_field(sf_dir: str) -> pa.Table:
    """Elasticsearch ``sort``-by-field retrieval: the BM25 candidate
    set per query (docs matching ≥1 indexed term), ordered by a
    DOCUMENT FIELD (n_chars DESC, doc_id ASC) instead of relevance,
    with the BM25 score still carried as a column — the
    newest-matching / largest-matching serving shape. The field
    hydrates via a per-actor array (loaded once), the final order is
    integer-exact (no score rounding in the sort key)."""
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG,
                    mode="maxscore", concurrency=2)
        .map_batches(
            _AttachField,
            fn_constructor_args=(sf_dir, "n_chars"),
            batch_format="pyarrow",
            concurrency=1,
            num_cpus=1,
        )
        .to_pandas()
    )
    qids, ranks, dids, fields, scores = [], [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        f = g["n_chars"].to_numpy().astype(np.int64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -f))[:TOPK]
        qids += [qid] * min(TOPK, d.size)
        ranks += list(range(min(TOPK, d.size)))
        dids.append(d[order].astype(np.int64))
        fields.append(f[order])
        scores.append(s6[order])
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "n_chars": pa.array(np.concatenate(fields), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


def q_bm25_merged(sf_dir: str) -> pa.Table:
    """Index-merge lifecycle END-TO-END (pipelines/merge.py, the
    Lucene addIndexes shape): the documents table splits by doc_id
    parity into two INDEPENDENTLY built indexes, merge_indexes folds
    them into one standalone index, and the merged index serves the
    fixed query set — the oracle is the SAME full-corpus BM25 SQL as
    bm25_topk, so the gate proves the whole decode→re-merge→serve path
    lossless against the single-build semantics."""
    from .merge import merge_indexes

    cfg = SQL_PARITY_CONFIG
    key = f"merged:{sf_dir}:{cfg.config_hash()}"
    if key not in _INDEX_CACHE:
        safe = sf_dir.strip("/").replace("/", "_")
        base = os.path.join("/tmp", "docinsight_ray_idx", f"merged-{safe}-{cfg.config_hash()}")
        halves = []
        for par in (0, 1):
            half_dir = os.path.join(base, f"half{par}")
            def _parity(batch: pa.Table, par=par) -> pa.Table:
                keep = pc.equal(pc.bit_wise_and(batch["doc_id"], 1), par)
                return batch.filter(keep)

            half = documents_as_corpus(sf_dir).map_batches(
                _parity, batch_format="pyarrow", zero_copy_batch=True
            )
            build_index(half, half_dir, cfg, fingerprint=f"mergehalf{par}:{sf_dir}")
            halves.append(half_dir)
        out = os.path.join(base, "merged")
        merge_indexes(halves, out, cfg)
        _INDEX_CACHE[key] = out
    idx = _INDEX_CACHE[key]
    n_docs = BM25Scorer(idx, cfg).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, cfg, mode="maxscore", concurrency=2
    ).to_pandas()
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        qids += [qid] * min(TOPK, d.size)
        ranks += list(range(min(TOPK, d.size)))
        dids.append(d[order].astype(np.int64))
        scores.append(s6[order])
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


RRF_C = 60  # the standard reciprocal-rank-fusion constant (Cormack et al.)


def _rank_full(g, doc_col: str = "doc_id", score_col: str = "score"):
    """Full-candidate-list 0-based rank by (round(score,6) DESC,
    doc_id ASC) — the gate's deterministic ranking protocol."""
    d = g[doc_col].to_numpy().astype(np.uint64)
    s6 = np.round(g[score_col].to_numpy(), 6)
    order = np.lexsort((d, -s6))
    ranks = np.empty(d.size, dtype=np.int64)
    ranks[order] = np.arange(d.size, dtype=np.int64)
    return d, ranks


def q_rrf_topk(sf_dir: str) -> pa.Table:
    """HYBRID rank fusion: BM25 (MaxScore path) and LM Dirichlet
    rankings over the same index build, fused per query by reciprocal
    rank — rrf = 1/(RRF_C+1+rank_bm25) + 1/(RRF_C+1+rank_lmdir) — the
    standard multi-ranker combination a production engine runs when it
    serves more than one relevance model (here: the engine's two
    scoring modes over one set of postings; the same math fuses a
    dense-retrieval list when embeddings are attached).

    Both rankers share the candidate convention (docs matching ≥1
    indexed query term), so the two full lists cover the same docs;
    ranks follow the gate's (round(score,6) DESC, doc_id ASC) protocol
    on both sides. Scale shape: two actor-pool serving passes + a
    per-query vectorized merge of (doc, rank) arrays — no new shuffle.
    """
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs

    def run(mode: str):
        qtbl = pa.table(
            {
                "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
                "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
                "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
            }
        )
        return query_index(
            ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode=mode, concurrency=2
        ).to_pandas()

    res_bm = run("maxscore")
    res_lm = run("lmdir")

    qids, ranks, dids, scores, rbms, rlms = [], [], [], [], [], []
    for qid, _text in DOC_QUERIES:
        d_bm, r_bm = _rank_full(res_bm[res_bm.query_id == qid])
        d_lm, r_lm = _rank_full(res_lm[res_lm.query_id == qid])
        # identical candidate conventions -> identical doc sets
        assert set(d_bm.tolist()) == set(d_lm.tolist())
        lm_rank = dict(zip(d_lm.tolist(), r_lm.tolist()))
        r_lm_aligned = np.array([lm_rank[x] for x in d_bm.tolist()], dtype=np.int64)
        rrf = np.round(
            1.0 / (RRF_C + 1 + r_bm) + 1.0 / (RRF_C + 1 + r_lm_aligned), 6
        )
        order = np.lexsort((d_bm, -rrf))[:TOPK]
        qids += [qid] * order.size
        ranks += list(range(order.size))
        dids.append(d_bm[order].astype(np.int64))
        scores.append(rrf[order])
        rbms.append(r_bm[order])
        rlms.append(r_lm_aligned[order])
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "rrf": pa.array(np.concatenate(scores), type=pa.float64()),
            "bm25_rank": pa.array(np.concatenate(rbms), type=pa.int64()),
            "lmdir_rank": pa.array(np.concatenate(rlms), type=pa.int64()),
        }
    )


HYBRID_W = 50  # per-retriever fusion window (hybrid-search window_size)


class _HybridCosineWindow:
    """Per-batch partial dense top-(W+margin) against the broadcast
    seed-query matrix — the brute-force combiner shape of
    functions/knn.py:CosineTopK, without self-exclusion (the seed doc
    is a legitimate hybrid hit). Per-batch partials keep the per-query
    merge bounded regardless of corpus size."""

    def __init__(self, q_ref, w: int):
        self.qids, Q = ray.get(q_ref) if isinstance(q_ref, ray.ObjectRef) else q_ref
        self.Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
        self.w = w

    def __call__(self, batch: pa.Table) -> pa.Table:
        vids = batch["vec_id"].to_numpy(zero_copy_only=False)
        X = np.stack(batch["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        cos = self.Qn @ Xn.T  # (n_queries, batch)
        margin = self.w + 50  # round-6 boundary-tie safety, as in knn.py
        out_q, out_v, out_c = [], [], []
        for qi, qid in enumerate(self.qids):
            c = cos[qi]
            take = np.lexsort((vids, -np.round(c, 6)))[:margin]
            out_q.append(np.full(take.size, qid, dtype=np.int64))
            out_v.append(vids[take].astype(np.int64))
            out_c.append(c[take])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), type=pa.int64()),
                "cos": pa.array(np.concatenate(out_c), type=pa.float64()),
            }
        )


def q_hybrid_rrf(sf_dir: str) -> pa.Table:
    """TRUE hybrid retrieval: sparse BM25 and DENSE embedding-cosine
    rankings fused by reciprocal rank over a per-retriever window of
    ``HYBRID_W`` — the lexical-index + vector-index hybrid-search shape
    (vec_id == doc_id in the testdata, so the two retrievers rank the
    same id space). Dense query vectors are the stored embeddings of
    the query ids (seed-vector convention, like knn_cosine); a doc in
    only one list contributes only that list's 1/(RRF_C+1+rank) term
    (RRF over the union of the two windows).

    Scale shape: one actor-pool serving pass (sparse) + one brute-force
    combiner pass over the embeddings (dense partial top-W per batch
    against the broadcast seed matrix) + a per-query vectorized fuse;
    the dense side swaps to the LSH/IVF candidate generators
    (functions/knn.py) at corpus sizes where brute force stops paying."""
    import pyarrow.parquet as pq

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qids_l = [q for q, _ in DOC_QUERIES]
    qtbl = pa.table(
        {
            "query_id": pa.array(qids_l, type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(qids_l), type=pa.uint32()),
        }
    )
    res_bm = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore", concurrency=2
    ).to_pandas()

    # dense seed vectors: the embeddings stored under the query ids
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    vid = t["vec_id"].to_numpy()
    mask = np.isin(vid, np.array(qids_l, dtype=vid.dtype))
    seed_ids = vid[mask]
    Q = np.stack(t["embedding"].to_numpy(zero_copy_only=False)[mask]).astype(np.float64)
    order = np.argsort(seed_ids)
    q_ref = ray.put((seed_ids[order].astype(np.int64), Q[order]))
    dense = (
        ray.data.read_parquet(emb_path)
        .map_batches(
            _HybridCosineWindow,
            fn_constructor_args=(q_ref, HYBRID_W),
            batch_format="pyarrow",
            batch_size=1024,
            concurrency=2,
        )
        .to_pandas()
    )

    out_q, out_r, out_d, out_s = [], [], [], []
    for qid in qids_l:
        d_s, r_s = _rank_full(res_bm[res_bm.query_id == qid])
        keep = r_s < HYBRID_W
        sparse_rank = dict(zip((int(x) for x in d_s[keep]), (int(x) for x in r_s[keep])))
        g = dense[dense.query_id == qid]
        dv = g["vec_id"].to_numpy().astype(np.int64)
        c6 = np.round(g["cos"].to_numpy(), 6)
        o = np.lexsort((dv, -c6))[:HYBRID_W]
        dense_rank = {int(v): i for i, v in enumerate(dv[o])}
        union = sorted(set(sparse_rank) | set(dense_rank))
        rrf = np.array(
            [
                (1.0 / (RRF_C + 1 + sparse_rank[u]) if u in sparse_rank else 0.0)
                + (1.0 / (RRF_C + 1 + dense_rank[u]) if u in dense_rank else 0.0)
                for u in union
            ],
            dtype=np.float64,
        )
        rrf6 = np.round(rrf, 6)
        ua = np.array(union, dtype=np.int64)
        o2 = np.lexsort((ua, -rrf6))[:TOPK]
        out_q += [qid] * o2.size
        out_r += list(range(o2.size))
        out_d.append(ua[o2])
        out_s.append(rrf6[o2])
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "rank": pa.array(out_r, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), type=pa.int64()),
            "rrf": pa.array(np.concatenate(out_s), type=pa.float64()),
        }
    )


RERANK_W = 50  # lexical candidate window handed to the semantic reranker


def q_bm25_rerank(sf_dir: str) -> pa.Table:
    """Two-stage retrieve-then-rerank — the reference's core serving
    shape (lexical candidate generation → semantic re-scoring; see
    /root/reference/scoring.py SBERT rerank over candidate sets),
    re-expressed as BM25 candidates re-scored by stored-embedding
    cosine:

    1. BM25 serves the full candidate ranking through the actor-pool
       scorer; the top-``RERANK_W`` per query (round-6 protocol)
       become the rerank window.
    2. The window is re-scored by cosine(candidate embedding, QUERY
       embedding) (seed-vector convention: the query's embedding is
       the one stored under vec_id == query_id; vec_id == doc_id in
       the testdata). Both sides hydrate via a ``vec_id IN (...)``
       predicate-pushdown parquet read of ONLY the candidate ∪ seed
       sliver — the full embedding table is never scanned.
    3. Final rank = (round(cos,6) DESC, doc_id ASC), top-``TOPK``.

    Scale shape: stage 1 is the plain serving path; stage 2 touches
    |queries| × W embedding rows through pushdown (at 100 TB: a
    bucket-pruned read keyed by vec_id) and computes one tiny matmul
    per query on the driver-held sliver. No shuffle, no full scan."""
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qids_l = [q for q, _ in DOC_QUERIES]
    qtbl = pa.table(
        {
            "query_id": pa.array(qids_l, type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(qids_l), type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore", concurrency=2
    ).to_pandas()

    windows: dict[int, np.ndarray] = {}
    need: set[int] = set(qids_l)
    for qid in qids_l:
        d, r = _rank_full(res[res.query_id == qid])
        w = d[r < RERANK_W].astype(np.int64)
        windows[qid] = w
        need.update(int(x) for x in w)

    # hydrate ONLY the candidate ∪ seed sliver (predicate pushdown)
    t = ray.data.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filter=pads.field("vec_id").isin(sorted(need)),
    ).to_pandas()
    vid = t["vec_id"].to_numpy().astype(np.int64)
    X = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    pos = {int(v): i for i, v in enumerate(vid)}

    out_q, out_r, out_d, out_c = [], [], [], []
    for qid in qids_l:
        if qid not in pos:
            continue
        # inner-join semantics: candidates without a stored embedding drop
        cand = np.array([d for d in windows[qid] if int(d) in pos], dtype=np.int64)
        rows = np.array([pos[int(d)] for d in cand], dtype=np.int64)
        cos6 = np.round(Xn[rows] @ Xn[pos[qid]], 6)
        order = np.lexsort((cand, -cos6))[:TOPK]
        out_q += [qid] * order.size
        out_r += list(range(order.size))
        out_d.append(cand[order])
        out_c.append(cos6[order])
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "rank": pa.array(out_r, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d), type=pa.int64()),
            "cos": pa.array(np.concatenate(out_c), type=pa.float64()),
        }
    )


FACET_PARTITIONS = 8


def q_bm25_facets(sf_dir: str) -> pa.Table:
    """FACETED search: per-query facet counts (lang) over the FULL
    candidate set (docs matching ≥1 query term) — the aggregation a
    search engine renders next to its result list. Served as scored
    candidates → distributed hash JOIN against the index docs registry
    (Dataset.join; the registry never broadcasts) → bounded
    (query × lang) partial counts.

    Scale shape: the join shuffles by doc_id — both sides partition;
    the count table is bounded by |queries| × |langs| so the final
    reduction is trivially small. Right side is repartitioned first
    (Ray 2.49 empty-block join hazard — see joins.py)."""
    from ..collect import collect_table

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore", concurrency=2
    )

    def lhs_project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": pc.cast(t["query_id"], pa.int64()),
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
            }
        )

    def rhs_project(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": pc.cast(t["doc_id"], pa.int64()), "lang": t["lang"]}
        )

    lhs = res.map_batches(lhs_project, batch_format="pyarrow")
    rhs = (
        ray.data.read_parquet(os.path.join(idx, "docs"), columns=["doc_id", "lang"])
        .map_batches(rhs_project, batch_format="pyarrow")
        .repartition(FACET_PARTITIONS)
    )
    joined = lhs.join(
        rhs, join_type="inner", num_partitions=FACET_PARTITIONS, on=("doc_id",)
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.select(["query_id", "lang"]).to_pandas()
        out = df.groupby(["query_id", "lang"], as_index=False).size()
        return pa.table(
            {
                "query_id": pa.array(out["query_id"].astype("int64"), type=pa.int64()),
                "lang": pa.array(out["lang"], type=pa.string()),
                "cnt": pa.array(out["size"].astype("int64"), type=pa.int64()),
            }
        )

    empty = pa.schema(
        [("query_id", pa.int64()), ("lang", pa.string()), ("cnt", pa.int64())]
    )
    parts = collect_table(
        joined.map_batches(partial_counts, batch_format="pyarrow"), empty
    ).to_pandas()
    out = (
        parts.groupby(["query_id", "lang"], as_index=False)["cnt"]
        .sum()
        .rename(columns={"cnt": "n_matched"})
        .sort_values(["query_id", "lang"])
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "query_id": pa.array(out["query_id"].astype(np.int64), type=pa.int64()),
            "lang": pa.array(out["lang"], type=pa.string()),
            "n_matched": pa.array(out["n_matched"].astype(np.int64), type=pa.int64()),
        }
    )


FB_DOCS = 5  # pseudo-relevance feedback depth
FB_TERMS = 3  # expansion terms admitted per query


def q_bm25_rm3(sf_dir: str) -> pa.Table:
    """Pseudo-relevance-feedback query EXPANSION (RM3-style): pass 1
    ranks each query by BM25; the top-``FB_DOCS`` docs become the
    feedback set; candidate terms are weighted by summed tf·idf over
    the feedback docs (original query terms excluded); the
    top-``FB_TERMS`` expansion terms join the query and pass 2 re-ranks
    with the expanded bag of terms — classic two-pass PRF served
    entirely through the actor-pool scorer.

    Scale shape: pass 1 and pass 2 are the standard serving path; the
    between-pass work touches only FB_DOCS docs per query (bounded
    hydration by doc_id) and a column-only postings scan restricted to
    the candidate term set — no new shuffle.
    """
    import math

    import pyarrow.parquet as pq

    from ..collect import collect_table

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs

    def run(texts: list[tuple[int, str]]):
        qtbl = pa.table(
            {
                "query_id": pa.array([q for q, _ in texts], type=pa.int64()),
                "text": pa.array([t for _, t in texts], type=pa.string()),
                "k": pa.array([n_docs] * len(texts), type=pa.uint32()),
            }
        )
        return query_index(
            ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
            concurrency=2,
        ).to_pandas()

    res1 = run(DOC_QUERIES)

    # feedback doc set per query (rank protocol: round-6 desc, doc asc)
    fb_ids: dict[int, list[int]] = {}
    for qid, _text in DOC_QUERIES:
        d, r = _rank_full(res1[res1.query_id == qid])
        order = np.argsort(r)
        fb_ids[qid] = [int(x) for x in d[order][:FB_DOCS]]
    all_fb = sorted({d for ids in fb_ids.values() for d in ids})

    # bounded hydration: texts of the feedback docs only
    fb_tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"],
        filters=[("doc_id", "in", all_fb)],
    )
    fb_text = dict(zip(fb_tbl["doc_id"].to_pylist(), fb_tbl["text"].to_pylist()))
    from collections import Counter

    fb_tf = {d: Counter(tokenize_text(t, SQL_PARITY_CONFIG)) for d, t in fb_text.items()}

    # df of candidate terms: column-only postings scan, candidate-filtered
    cand_terms = sorted({t for c in fb_tf.values() for t in c})
    cand_ref = ray.put(frozenset(cand_terms))

    def df_filter(batch: pa.Table) -> pa.Table:
        cs = ray.get(cand_ref)
        mask = pc.is_in(batch["term"], value_set=pa.array(sorted(cs), type=pa.string()))
        sel = batch.filter(mask)
        return pa.table(
            {"term": sel["term"], "df": pc.cast(sel["df"], pa.int64())}
        )

    df_empty = pa.schema([("term", pa.string()), ("df", pa.int64())])
    df_tbl = collect_table(
        _postings_ds(idx).select_columns(["term", "df"]).map_batches(
            df_filter, batch_format="pyarrow"
        ),
        df_empty,
    )
    dfs = dict(zip(df_tbl["term"].to_pylist(), df_tbl["df"].to_pylist()))

    # expansion terms per query: round-6 tf·idf weight, desc, term asc
    expanded: list[tuple[int, str]] = []
    for qid, qtext in DOC_QUERIES:
        orig = set(tokenize_text(qtext, SQL_PARITY_CONFIG))
        w: dict[str, float] = {}
        for d in fb_ids[qid]:
            for t, tf in fb_tf[d].items():
                if t in orig:
                    continue
                w[t] = w.get(t, 0.0) + tf * math.log(float(n_docs) / float(dfs[t]))
        ranked = sorted(
            ((round(v, 6), t) for t, v in w.items()), key=lambda x: (-x[0], x[1])
        )
        exp = [t for _, t in ranked[:FB_TERMS]]
        expanded.append((qid, " ".join(sorted(orig | set(exp)))))

    res2 = run(expanded)
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in expanded:
        g = res2[res2.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


MLT_DOC_IDS = (3, 17, 42)


def q_bm25_more_like_this(sf_dir: str) -> pa.Table:
    """MORE-LIKE-THIS: each source document's full text becomes the
    query and its BM25-nearest neighbours (source excluded) are the
    result — the reference's core document-similarity flow
    (/root/reference/retrieval/retrieval.py:60-110: query document →
    ranked similar corpus docs), served end-to-end through the
    actor-pool scorer. query_id is the source doc_id."""
    import pyarrow.parquet as pq

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    src = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"],
        filters=[("doc_id", "in", list(MLT_DOC_IDS))],
    )
    by_id = dict(zip(src["doc_id"].to_pylist(), src["text"].to_pylist()))
    qtbl = pa.table(
        {
            "query_id": pa.array(list(MLT_DOC_IDS), type=pa.int64()),
            "text": pa.array([by_id[d] for d in MLT_DOC_IDS], type=pa.string()),
            "k": pa.array([n_docs] * len(MLT_DOC_IDS), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
                    concurrency=2)
        .to_pandas()
    )
    qids, ranks, dids, scores = [], [], [], []
    for qid in MLT_DOC_IDS:
        g = res[(res.query_id == qid) & (res.doc_id != np.uint64(qid))]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


FILTER_LANGS = ("es", "de")


def q_bm25_filtered(sf_dir: str) -> pa.Table:
    """Metadata-FILTERED retrieval: top-k restricted to docs whose
    registry lang ∈ FILTER_LANGS, served through the MaxScore pruning
    path with the filter applied at posting decode (reference
    analogue: metadata-scoped search; every real engine's filtered
    query). BM25 stats stay corpus-global — scores of surviving docs
    equal the unfiltered engine's, the gate proves ranking within the
    filtered subset is exact."""
    return q_bm25_topk(sf_dir, mode="maxscore", doc_filter=("lang", FILTER_LANGS))


def q_bm25_page2(sf_dir: str) -> pa.Table:
    """Deep pagination via SEARCH_AFTER (Elasticsearch cursor
    semantics): the second page of TOPK results per query is produced
    by the cursor PREDICATE — (score, doc_id) strictly after page 1's
    last hit in (score desc, doc_id asc) order — not by a rank offset,
    which is the stateless-pagination contract that still works when
    the ranking is recomputed between pages. Emitted ranks are
    absolute (TOPK..2·TOPK-1) so the SQL oracle's rank window matches
    row-for-row."""
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG, mode="maxscore").n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG,
                    mode="maxscore", concurrency=2)
        .to_pandas()
    )
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))
        d, s6 = d[order], s6[order]
        if d.size <= TOPK:
            continue  # no second page
        cs, cd = s6[TOPK - 1], d[TOPK - 1]  # page-1 cursor
        after = (s6 < cs) | ((s6 == cs) & (d > cd))
        d2, s2 = d[after][:TOPK], s6[after][:TOPK]
        qids += [qid] * d2.size
        ranks += list(range(TOPK, TOPK + d2.size))
        dids.append(d2.astype(np.int64))
        scores.append(s2)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids) if dids else np.empty(0, dtype=np.int64),
                               type=pa.int64()),
            "score": pa.array(np.concatenate(scores) if scores else np.empty(0), type=pa.float64()),
        }
    )


COLLAPSE_FIELD = "lang"
COLLAPSE_K = 5


def q_bm25_collapse(sf_dir: str) -> pa.Table:
    """FIELD-COLLAPSED retrieval (Elasticsearch collapse semantics):
    per query, at most ONE result per COLLAPSE_FIELD value — the
    best-scoring doc of each group — then the top-COLLAPSE_K of those
    collapsed winners. Collapse runs on the round-6 score with doc_id
    tiebreak (the gates' SQL-parity discipline).

    Scale shape: the serving path is the normal actor-pool ranking;
    collapse operates on the BOUNDED result set (≤ k rows per query ×
    queries), hydrating the collapse field from the registry via one
    broadcast dict — never a corpus-wide shuffle."""
    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG, mode="maxscore").n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG,
                    mode="maxscore", concurrency=2)
        .to_pandas()
    )
    import pyarrow.parquet as pq

    reg = pq.read_table(os.path.join(idx, "docs"), columns=["doc_id", COLLAPSE_FIELD])
    field_of = dict(
        zip(
            reg["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64).tolist(),
            reg[COLLAPSE_FIELD].to_pylist(),
        )
    )
    qids, ranks, dids, scores, fields = [], [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))
        d, s6 = d[order], s6[order]
        best: dict[str, int] = {}
        for j in range(d.size):  # first hit per group = group winner
            f = field_of[int(d[j])]
            if f not in best:
                best[f] = j
        keep = np.sort(np.fromiter(best.values(), dtype=np.int64))[:COLLAPSE_K]
        d, s6 = d[keep], s6[keep]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
        fields += [field_of[int(x)] for x in d]
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
            COLLAPSE_FIELD: pa.array(fields, type=pa.string()),
        }
    )


def q_positions_probe(sf_dir: str) -> pa.Table:
    """Positional-index integrity probe: the raw (term, doc_id, pos)
    rows for PROBE_TERMS, decoded from the compressed positional
    postings — the positions analogue of ``postings_probe`` (the SQL
    oracle re-derives every position from the tokenizer, so a single
    off-by-one in the varbyte/delta position codec hash-mismatches)."""
    from .positional import PhraseScorer

    pos_dir = ensure_positional(sf_dir)
    ps = PhraseScorer(pos_dir, SQL_PARITY_CONFIG)
    terms_out, docs_out, pos_out = [], [], []
    for term in PROBE_TERMS:
        docs, flat, offsets = ps._term_positions(term)
        npos = np.diff(offsets)
        terms_out.append(np.repeat(np.array([term], dtype=object), int(npos.sum())))
        docs_out.append(np.repeat(docs.astype(np.int64), npos))
        pos_out.append(flat.astype(np.int64))
    t = np.concatenate(terms_out)
    d = np.concatenate(docs_out)
    p = np.concatenate(pos_out)
    order = np.lexsort((p, d, t))
    return pa.table(
        {
            "term": pa.array(t[order], type=pa.string()),
            "doc_id": pa.array(d[order], type=pa.int64()),
            "pos": pa.array(p[order], type=pa.int64()),
        }
    )


# structured query language gate: every retrieval primitive composed
# through one query string (querylang.py) — positive BM25 terms,
# boolean NOT, metadata filter, exact-phrase constraint
STRUCTURED_QUERY = 'data stream table -dup lang:en,fr "hash scan"'


def q_bm25_structured(sf_dir: str) -> pa.Table:
    """STRUCTURED search end-to-end: parse_structured_query →
    phrase candidates from the positional index → actor-pool BM25
    serving with the parsed metadata filter, negated terms and
    phrase-candidate include set all folded into the scorer's one
    ``_allowed`` mechanism (exact under every pruning mode; BM25 stats
    stay corpus-global). Same k = n_docs over-fetch + round-6 re-rank
    protocol as q_bm25_topk, so the SQL oracle sees every candidate."""
    from ..querylang import parse_structured_query, phrase_candidates

    idx = ensure_index(sf_dir)
    pos_dir = ensure_positional(sf_dir)
    sq = parse_structured_query(STRUCTURED_QUERY)
    include = phrase_candidates(sq.phrases, pos_dir, SQL_PARITY_CONFIG)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG, mode="maxscore").n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([0], type=pa.int64()),
            "text": pa.array([sq.terms], type=pa.string()),
            "k": pa.array([n_docs], type=pa.uint32()),
        }
    )
    res = (
        query_index(
            ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
            concurrency=2, doc_filter=sq.field_filter,
            exclude_terms=sq.exclude_terms, include_doc_ids=include,
        )
        .to_pandas()
    )
    d = res["doc_id"].to_numpy().astype(np.uint64)
    s6 = np.round(res["score"].to_numpy(), 6)
    order = np.lexsort((d, -s6))[:TOPK]
    d, s6 = d[order], s6[order]
    return pa.table(
        {
            "query_id": pa.array([0] * d.size, type=pa.int64()),
            "rank": pa.array(np.arange(d.size), type=pa.int64()),
            "doc_id": pa.array(d.astype(np.int64), type=pa.int64()),
            "score": pa.array(s6, type=pa.float64()),
        }
    )


MUST_QUERY = "+data stream table"


def q_bm25_must(sf_dir: str) -> pa.Table:
    """Lucene MUST clause through the structured grammar: ``+data``
    restricts candidates to docs CONTAINING data (posting-intersection
    include set via the lazy scorer) while all three terms score —
    contrast bm25_msm (any m of n) and bm25_conjunctive (all terms).
    Same over-fetch + round-6 protocol, actor-pool serving."""
    from ..querylang import parse_structured_query

    idx = ensure_index(sf_dir)
    sq = parse_structured_query(MUST_QUERY)
    lazy = BM25Scorer(idx, SQL_PARITY_CONFIG, max_loaded_parts=2)
    include = None
    for t in sq.must_terms:
        docs = lazy._term_arrays(t)[0] if lazy.has_term(t) else np.empty(0, np.uint64)
        include = docs if include is None else np.intersect1d(include, docs)
    n_docs = lazy.n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([0], type=pa.int64()),
            "text": pa.array([sq.terms], type=pa.string()),
            "k": pa.array([n_docs], type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
        concurrency=2, include_doc_ids=include,
    ).to_pandas()
    d = res["doc_id"].to_numpy().astype(np.uint64)
    s6 = np.round(res["score"].to_numpy(), 6)
    order = np.lexsort((d, -s6))[:TOPK]
    d, s6 = d[order], s6[order]
    return pa.table(
        {
            "query_id": pa.array([0] * d.size, type=pa.int64()),
            "rank": pa.array(np.arange(d.size), type=pa.int64()),
            "doc_id": pa.array(d.astype(np.int64), type=pa.int64()),
            "score": pa.array(s6, type=pa.float64()),
        }
    )


# deletion gate: deterministic tombstone set, SQL-expressible
TOMB_MOD, TOMB_REM = 31, 7

_WINDOWED_CACHE: dict[str, str] = {}


def ensure_windowed_index(sf_dir: str) -> str:
    """Two-window incremental build over the documents table (windows
    split by doc_id parity — deterministic), memoized like
    ensure_index; append_window's per-window fingerprints make
    repeated calls resume no-ops."""
    from .incremental import append_window

    key = f"{sf_dir}:{SQL_PARITY_CONFIG.config_hash()}"
    if key in _WINDOWED_CACHE:
        return _WINDOWED_CACHE[key]
    safe = sf_dir.strip("/").replace("/", "_")
    root = os.path.join(
        "/tmp", "docinsight_ray_idx", f"{safe}-win-{SQL_PARITY_CONFIG.config_hash()}"
    )
    for wid, rem in (("000", 0), ("001", 1)):

        def keep(batch: pa.Table, _r=rem) -> pa.Table:
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            return batch.filter(pa.array((ids & 1) == _r))

        part = documents_as_corpus(sf_dir).map_batches(
            keep, batch_format="pyarrow", zero_copy_batch=True
        )
        append_window(part, root, wid, SQL_PARITY_CONFIG)
    _WINDOWED_CACHE[key] = root
    return root


def q_bm25_tombstone(sf_dir: str) -> pa.Table:
    """Document DELETION end-to-end over the windowed incremental
    index: docs with doc_id % TOMB_MOD == TOMB_REM are tombstoned via
    delete_docs, then the fixed query set is served through
    query_windows — deleted docs vanish from every ranking while
    survivors keep pre-delete BM25 statistics (Lucene deleted-docs
    semantics, which the SQL oracle mirrors by scoring the FULL corpus
    and dropping the deleted set post-scoring). Same over-fetch +
    round-6 re-rank protocol as q_bm25_topk. The reference can only
    rebuild to remove (/root/reference/index/faiss_index.py:243-266)."""
    import json as _json

    from ..state.fsio import rmtree as fs_rmtree
    from .incremental import delete_docs, query_windows

    root = ensure_windowed_index(sf_dir)
    # deterministic slate: clear leftovers from prior runs/constants
    fs_rmtree(os.path.join(root, "tombstones"))

    def dead_rows(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % TOMB_MOD == TOMB_REM))

    from ..collect import collect_table

    dead_t = collect_table(
        ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"])
        .map_batches(dead_rows, batch_format="pyarrow", zero_copy_batch=True),
        pa.schema([("doc_id", pa.int64())]),
    )
    delete_docs(root, doc_ids=dead_t["doc_id"].to_pylist())

    with open(os.path.join(root, "window=000", "corpus_stats.json")) as f:
        n_docs = int(_json.load(f)["n_docs"])
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = query_windows(
        ray.data.from_arrow(qtbl), root, SQL_PARITY_CONFIG, mode="maxscore"
    ).to_pandas()
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


# chosen against the driver testdata vocabulary: "s" expands to six
# terms (scan/slow/small/sort/spark/stream), "va" to two, "quer" to one
PREFIX_QUERIES: list[tuple[int, str]] = [(0, "s"), (1, "va"), (2, "quer")]


def q_bm25_prefix(sf_dir: str) -> pa.Table:
    """PREFIX (wildcard ``pref*``) retrieval: each query prefix is
    expanded against the index vocabulary (column-only postings scan,
    scorer.expand_prefix), then the expansion is scored as a
    bag-of-terms disjunction through the actor-pool serving path —
    the classic wildcard-query rewrite of a fulltext engine."""
    from ..scorer import expand_prefix

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qids, texts = [], []
    for qid, pref in PREFIX_QUERIES:
        terms = expand_prefix(idx, pref)
        if not terms:
            continue
        qids.append(qid)
        texts.append(" ".join(terms))
    qtbl = pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "k": pa.array([n_docs] * len(qids), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
                    concurrency=2)
        .to_pandas()
    )
    out_q, out_r, out_d, out_s = [], [], [], []
    for qid in qids:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        out_q += [qid] * d.size
        out_r += list(range(d.size))
        out_d.append(d.astype(np.int64))
        out_s.append(s6)
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "rank": pa.array(out_r, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d) if out_d else [], type=pa.int64()),
            "score": pa.array(np.concatenate(out_s) if out_s else [], type=pa.float64()),
        }
    )


# typo'd query tokens; each expands to its edit-distance-1 vocabulary
# neighborhood (plain Levenshtein — "tble"→"table", "strem"→"stream")
FUZZY_QUERIES: list[tuple[int, str]] = [(0, "merg"), (1, "quary strem"), (2, "tble fst")]
FUZZY_DIST = 1


def q_bm25_fuzzy(sf_dir: str) -> pa.Table:
    """FUZZY (typo-tolerant) retrieval: each query token expands to its
    edit-distance-≤1 neighborhood in the index vocabulary
    (scorer.expand_fuzzy — column-only scan + banded DP), and the union
    of expansions is scored as a bag-of-terms disjunction."""
    from ..scorer import expand_fuzzy

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qids, texts = [], []
    for qid, text in FUZZY_QUERIES:
        terms: set[str] = set()
        for tok in tokenize_text(text, SQL_PARITY_CONFIG):
            terms.update(expand_fuzzy(idx, tok, FUZZY_DIST))
        if not terms:
            continue
        qids.append(qid)
        texts.append(" ".join(sorted(terms)))
    qtbl = pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "k": pa.array([n_docs] * len(qids), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
                    concurrency=2)
        .to_pandas()
    )
    out_q, out_r, out_d, out_s = [], [], [], []
    for qid in qids:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        out_q += [qid] * d.size
        out_r += list(range(d.size))
        out_d.append(d.astype(np.int64))
        out_s.append(s6)
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "rank": pa.array(out_r, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d) if out_d else [], type=pa.int64()),
            "score": pa.array(np.concatenate(out_s) if out_s else [], type=pa.float64()),
        }
    )


# RE2 patterns over the driver testdata vocabulary (implicitly
# anchored, Lucene RegexpQuery semantics): "s[a-z]+" expands to six
# terms, "[a-z]+e" to five, ".a..e?" exercises '.' and '?'
REGEX_QUERIES: list[tuple[int, str]] = [
    (0, "s[a-z]+"),
    (1, "[a-z]+e"),
    (2, ".a..e?"),
]


def q_bm25_regex(sf_dir: str) -> pa.Table:
    """REGEX term retrieval (Lucene RegexpQuery): each query pattern is
    expanded against the index vocabulary (column-only postings scan
    through the vectorized RE2 kernel, scorer.expand_regex), then the
    expansion is scored as a bag-of-terms disjunction through the
    actor-pool serving path — the regex analogue of the wildcard
    rewrite (q_bm25_prefix)."""
    from ..scorer import expand_regex

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qids, texts = [], []
    for qid, pattern in REGEX_QUERIES:
        terms = expand_regex(idx, pattern)
        if not terms:
            continue
        qids.append(qid)
        texts.append(" ".join(terms))
    qtbl = pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "k": pa.array([n_docs] * len(qids), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
                    concurrency=2)
        .to_pandas()
    )
    out_q, out_r, out_d, out_s = [], [], [], []
    for qid in qids:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        out_q += [qid] * d.size
        out_r += list(range(d.size))
        out_d.append(d.astype(np.int64))
        out_s.append(s6)
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "rank": pa.array(out_r, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(out_d) if out_d else [], type=pa.int64()),
            "score": pa.array(np.concatenate(out_s) if out_s else [], type=pa.float64()),
        }
    )


def q_bm25_total_hits(sf_dir: str) -> pa.Table:
    """TOTAL HITS per query (Elasticsearch ``track_total_hits``): the
    COUNT of documents matching ≥1 query term — the number a search UI
    prints next to the result list. Served from the same actor-pool
    candidate stream as ranking (each (query, doc) candidate appears
    exactly once in the scorer output), reduced by per-batch partial
    counts + a bounded |queries|-row final sum — the result list is
    never materialized driver-side."""
    from ..collect import collect_table

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="taat", concurrency=2
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        vc = pc.value_counts(batch["query_id"].combine_chunks())
        return pa.table(
            {
                "query_id": pc.cast(vc.field("values"), pa.int64()),
                "cnt": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    empty = pa.schema([("query_id", pa.int64()), ("cnt", pa.int64())])
    parts = collect_table(
        res.map_batches(partial_counts, batch_format="pyarrow"), empty
    ).to_pandas()
    out = (
        parts.groupby("query_id", as_index=False)["cnt"]
        .sum()
        .rename(columns={"cnt": "total_hits"})
        .sort_values("query_id")
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "query_id": pa.array(out["query_id"].astype(np.int64), type=pa.int64()),
            "total_hits": pa.array(out["total_hits"].astype(np.int64), type=pa.int64()),
        }
    )


DISMAX_TIE = 0.3  # Lucene dis_max tie_breaker


def q_bm25_dismax(sf_dir: str) -> pa.Table:
    """DIS_MAX fielded retrieval (Lucene DisjunctionMaxQuery): per doc
    the score is the BEST field's score plus ``tie_breaker`` × the
    other field's — max(c, w·f) + TIE·min(c, w·f) for the two-field
    case — instead of bm25_fielded's weighted SUM. The fusion that
    avoids double-counting when fields repeat the same text. Same two
    independent actor-pool passes + outer merge as bm25_fielded."""
    idx_c = ensure_index(sf_dir)
    idx_f = ensure_field_index(sf_dir)
    n_docs = BM25Scorer(idx_c, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in FIELDED_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in FIELDED_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(FIELDED_QUERIES), type=pa.uint32()),
        }
    )
    res_c = query_index(
        ray.data.from_arrow(qtbl), idx_c, SQL_PARITY_CONFIG, mode="maxscore", concurrency=2
    ).to_pandas()
    res_f = query_index(
        ray.data.from_arrow(qtbl), idx_f, SQL_PARITY_CONFIG, mode="maxscore", concurrency=2
    ).to_pandas()
    merged = res_c.merge(
        res_f, on=["query_id", "doc_id"], how="outer", suffixes=("_c", "_f")
    )
    a = merged["score_c"].fillna(0.0).to_numpy()
    b = FIELD_WEIGHT * merged["score_f"].fillna(0.0).to_numpy()
    fused = np.maximum(a, b) + DISMAX_TIE * np.minimum(a, b)
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in FIELDED_QUERIES:
        m = (merged["query_id"] == qid).to_numpy()
        d = merged["doc_id"].to_numpy()[m].astype(np.uint64)
        s6 = np.round(fused[m], 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids) if dids else [], type=pa.int64()),
            "score": pa.array(np.concatenate(scores) if scores else [], type=pa.float64()),
        }
    )


LEN_RANGE = (40, 90)  # doc_len BETWEEN lo AND hi (inclusive)


def q_bm25_range(sf_dir: str) -> pa.Table:
    """NUMERIC-RANGE filtered retrieval (Elasticsearch range filter):
    top-k restricted to docs whose registry doc_len ∈ [lo, hi]. The
    allowed id set is resolved by ONE column-pruned scan of the index
    docs registry (doc_id + doc_len only) and folded into the scorer's
    sorted allowed array (include_doc_ids), so every pruning mode stays
    exact and BM25 stats stay corpus-global — the numeric-predicate
    sibling of bm25_filtered's categorical filter."""
    import pyarrow.parquet as pq

    idx = ensure_index(sf_dir)
    lo, hi = LEN_RANGE
    reg = pq.read_table(os.path.join(idx, "docs"), columns=["doc_id", "doc_len"])
    lens = reg["doc_len"]
    mask = pc.and_(pc.greater_equal(lens, lo), pc.less_equal(lens, hi))
    allowed = pc.cast(reg["doc_id"].filter(mask), pa.uint64())
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = (
        query_index(ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore",
                    concurrency=2, include_doc_ids=allowed)
        .to_pandas()
    )
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids) if dids else [], type=pa.int64()),
            "score": pa.array(np.concatenate(scores) if scores else [], type=pa.float64()),
        }
    )


HIST_BUCKET_W = 16  # doc_len histogram bucket width


def q_bm25_length_histogram(sf_dir: str) -> pa.Table:
    """HISTOGRAM facet (Elasticsearch histogram aggregation): per-query
    bucketed doc_len counts over the FULL candidate set — bucket =
    floor(doc_len / W) · W. Same distributed shape as q_bm25_facets:
    scored candidates → hash JOIN against the registry (both sides
    partition, nothing broadcasts) → bounded (query × bucket) partial
    counts."""
    from ..collect import collect_table

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="maxscore", concurrency=2
    )

    def lhs_project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": pc.cast(t["query_id"], pa.int64()),
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
            }
        )

    def rhs_project(t: pa.Table) -> pa.Table:
        bucket = pc.multiply(
            pc.floor(pc.divide(pc.cast(t["doc_len"], pa.float64()), HIST_BUCKET_W)),
            HIST_BUCKET_W,
        )
        return pa.table(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "bucket": pc.cast(bucket, pa.int64()),
            }
        )

    lhs = res.map_batches(lhs_project, batch_format="pyarrow")
    rhs = (
        ray.data.read_parquet(os.path.join(idx, "docs"), columns=["doc_id", "doc_len"])
        .map_batches(rhs_project, batch_format="pyarrow")
        .repartition(FACET_PARTITIONS)
    )
    joined = lhs.join(
        rhs, join_type="inner", num_partitions=FACET_PARTITIONS, on=("doc_id",)
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.select(["query_id", "bucket"]).to_pandas()
        out = df.groupby(["query_id", "bucket"], as_index=False).size()
        return pa.table(
            {
                "query_id": pa.array(out["query_id"].astype("int64"), type=pa.int64()),
                "bucket": pa.array(out["bucket"].astype("int64"), type=pa.int64()),
                "cnt": pa.array(out["size"].astype("int64"), type=pa.int64()),
            }
        )

    empty = pa.schema(
        [("query_id", pa.int64()), ("bucket", pa.int64()), ("cnt", pa.int64())]
    )
    parts = collect_table(
        joined.map_batches(partial_counts, batch_format="pyarrow"), empty
    ).to_pandas()
    out = (
        parts.groupby(["query_id", "bucket"], as_index=False)["cnt"]
        .sum()
        .rename(columns={"cnt": "n_matched"})
        .sort_values(["query_id", "bucket"])
        .reset_index(drop=True)
    )
    return pa.table(
        {
            "query_id": pa.array(out["query_id"].astype(np.int64), type=pa.int64()),
            "bucket": pa.array(out["bucket"].astype(np.int64), type=pa.int64()),
            "n_matched": pa.array(out["n_matched"].astype(np.int64), type=pa.int64()),
        }
    )


def q_index_stats(sf_dir: str) -> pa.Table:
    """INDEX STATISTICS (the ``_stats`` endpoint / CLI ``validate``
    surface as a gate): one row of corpus-level invariants — n_docs,
    vocabulary size, total postings (distinct (term, doc) pairs) and
    total token count — computed from the BUILT index: a column-pruned
    (term, df) scan of the postings partitions (no payload decode;
    Σdf = postings whether or not a term's salted runs were merged,
    because runs cover disjoint docs) + corpus_stats.json. The exact
    small-scale parity probe for which distinct_terms_hll is the
    constant-memory sketch at 100 TB."""
    import json

    import pyarrow.parquet as pq

    from ..state.fsio import glob_parquet, read_bytes

    idx = ensure_index(sf_dir)
    stats = json.loads(read_bytes(os.path.join(idx, "corpus_stats.json")))
    vocab: set[str] = set()
    n_postings = 0
    for f in glob_parquet(os.path.join(idx, "parts")):
        t = pq.read_table(f, columns=["term", "df"])
        vocab.update(t["term"].to_pylist())
        n_postings += int(pc.sum(t["df"]).as_py() or 0)
    return pa.table(
        {
            "n_docs": pa.array([int(stats["n_docs"])], type=pa.int64()),
            "vocab_size": pa.array([len(vocab)], type=pa.int64()),
            "n_postings": pa.array([n_postings], type=pa.int64()),
            "total_tf": pa.array([int(stats["total_len"])], type=pa.int64()),
        }
    )


HL_BEFORE = 20  # chars of context before the first query-term hit
HL_LEN = 60  # snippet length


def q_highlight(sf_dir: str) -> pa.Table:
    """HIGHLIGHT snippets as a GATE (the deterministic slice of the S8
    report surface): for each (query, top-k doc), the 1-based position
    of the EARLIEST occurrence of any query term in the lowercased
    text, and a fixed-width snippet window starting HL_BEFORE chars
    before it — the first-hit fragmenter rule every engine's
    highlighter implements deterministically. Operates on the BOUNDED
    result set (≤ k × |queries| rows) with one bounded hydration read;
    report.py's best_snippet remains the richer (distinct-term
    maximizing) production renderer, pytest-covered."""
    import pyarrow.parquet as pq

    res = q_bm25_topk(sf_dir).to_pandas()
    texts = (
        pq.read_table(os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"])
        .to_pandas()
        .set_index("doc_id")["text"]
    )
    qterms = {
        qid: sorted(set(tokenize_text(text, SQL_PARITY_CONFIG)))
        for qid, text in DOC_QUERIES
    }
    out_q, out_d, out_p, out_s = [], [], [], []
    for qid, did in zip(res["query_id"], res["doc_id"]):
        text = texts.loc[did]
        lowered = text.lower()
        hits = [lowered.find(t) + 1 for t in qterms[qid]]
        pos = min(h for h in hits if h > 0)
        start = max(1, pos - HL_BEFORE)
        out_q.append(qid)
        out_d.append(did)
        out_p.append(pos)
        out_s.append(text[start - 1 : start - 1 + HL_LEN])
    return pa.table(
        {
            "query_id": pa.array(out_q, type=pa.int64()),
            "doc_id": pa.array(out_d, type=pa.int64()),
            "pos": pa.array(out_p, type=pa.int64()),
            "snippet": pa.array(out_s, type=pa.string()),
        }
    )


SUGGEST_PREFIXES: list[tuple[int, str]] = [(0, "s"), (1, "va"), (2, "b")]
SUGGEST_N = 5


def q_suggest(sf_dir: str) -> pa.Table:
    """AUTOCOMPLETE suggestions (Elasticsearch completion-suggester
    shape): for each typed prefix, the top-N vocabulary terms ranked by
    document frequency (df desc, term asc) — the as-you-type dropdown.
    Served from a column-pruned (term, df) scan of the postings
    partitions: no payload decode, O(vocabulary) bytes, independent of
    postings size. df rows are summed per term so salted hot-term runs
    (disjoint doc sets) aggregate exactly."""
    from ..scorer import suggest_terms

    idx = ensure_index(sf_dir)
    pids, ranks, terms, dfs = [], [], [], []
    for pid, pref in SUGGEST_PREFIXES:
        for r, (t, d) in enumerate(suggest_terms(idx, pref, SUGGEST_N)):
            pids.append(pid)
            ranks.append(r)
            terms.append(t)
            dfs.append(d)
    return pa.table(
        {
            "prefix_id": pa.array(pids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "term": pa.array(terms, type=pa.string()),
            "df": pa.array(dfs, type=pa.int64()),
        }
    )


# misspelled query tokens for the did-you-mean gate; "data" is already
# a vocabulary term (distance-0 self-suggestion), "xyzq" has no
# vocabulary term within distance 2 (emits no row)
SPELL_TOKENS: list[tuple[int, str]] = [
    (0, "tble"),
    (1, "strem"),
    (2, "quary"),
    (3, "data"),
    (4, "xyzq"),
]
SPELL_DIST = 2


def q_spellcheck(sf_dir: str) -> pa.Table:
    """SPELL CORRECTION ("did you mean"): for each query token the best
    vocabulary term within edit distance SPELL_DIST — nearest distance
    first, then highest df, then term asc (the Lucene DirectSpellChecker
    ranking). Tokens with no candidate emit no row. Candidates come from
    the same column-only vocabulary scan as fuzzy expansion
    (scorer.expand_fuzzy), ranked with the index's own df."""
    from ..scorer import spell_suggest

    idx = ensure_index(sf_dir)
    qids, toks, sugg, dists, dfs = [], [], [], [], []
    for qid, tok in SPELL_TOKENS:
        best = spell_suggest(idx, tok, SPELL_DIST)
        if best is None:
            continue
        qids.append(qid)
        toks.append(tok)
        sugg.append(best[0])
        dists.append(best[1])
        dfs.append(best[2])
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "token": pa.array(toks, type=pa.string()),
            "suggestion": pa.array(sugg, type=pa.string()),
            "dist": pa.array(dists, type=pa.int64()),
            "df": pa.array(dfs, type=pa.int64()),
        }
    )


SIGTERMS_MIN_FG = 3  # minimum foreground df for a significant term
SIGTERMS_K = 10


def q_significant_terms(sf_dir: str) -> pa.Table:
    """SIGNIFICANT TERMS aggregation (Elasticsearch significant_terms):
    per query, the terms most over-represented in the CANDIDATE set
    (docs matching ≥1 query term) relative to the whole corpus —
    score = fg_df / bg_df (the percentage-lift heuristic), query terms
    themselves excluded, fg_df ≥ SIGTERMS_MIN_FG, top-SIGTERMS_K by
    (score desc, term asc).

    Distributed shape: scored candidates (query_id, doc_id) hash-JOIN
    the corpus's distinct (doc_id, term) pairs on doc_id — both sides
    partition, nothing broadcasts except the bounded vocabulary-df map
    for the background model — then bounded (query × vocab) partial
    counts reduce to fg_df."""
    from ..collect import collect_table

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG).n_docs
    # background model: vocabulary df from the (term, df) column scan
    from ..scorer import vocab_df

    bg = vocab_df(idx)
    qterms = {
        qid: set(tokenize_text(text, SQL_PARITY_CONFIG)) for qid, text in DOC_QUERIES
    }
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    cands = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="taat", concurrency=2
    )

    def lhs_project(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "query_id": pc.cast(t["query_id"], pa.int64()),
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
            }
        )

    def doc_terms(batch: pa.Table) -> pa.Table:
        ids, terms = [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for term in set(tokenize_text(text, SQL_PARITY_CONFIG)):
                ids.append(doc_id)
                terms.append(term)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "term": pa.array(terms, type=pa.string()),
            }
        )

    lhs = cands.map_batches(lhs_project, batch_format="pyarrow")
    rhs = (
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )
        .map_batches(doc_terms, batch_format="pyarrow")
        .repartition(FACET_PARTITIONS)
    )
    joined = lhs.join(
        rhs, join_type="inner", num_partitions=FACET_PARTITIONS, on=("doc_id",)
    )

    def partial_counts(batch: pa.Table) -> pa.Table:
        import pandas as pd

        df = batch.select(["query_id", "term"]).to_pandas()
        out = df.groupby(["query_id", "term"], as_index=False).size()
        return pa.table(
            {
                "query_id": pa.array(out["query_id"].astype("int64"), type=pa.int64()),
                "term": pa.array(out["term"], type=pa.string()),
                "cnt": pa.array(out["size"].astype("int64"), type=pa.int64()),
            }
        )

    empty = pa.schema(
        [("query_id", pa.int64()), ("term", pa.string()), ("cnt", pa.int64())]
    )
    parts = collect_table(
        joined.map_batches(partial_counts, batch_format="pyarrow"), empty
    ).to_pandas()
    fg = parts.groupby(["query_id", "term"], as_index=False)["cnt"].sum()
    qids, ranks, terms, fgs, bgs, scores = [], [], [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = fg[(fg.query_id == qid) & (fg.cnt >= SIGTERMS_MIN_FG)]
        g = g[~g.term.isin(qterms[qid])]
        if not len(g):
            continue
        bg_df = g["term"].map(bg).to_numpy(dtype=np.int64)
        # no rounding: IEEE division of two small ints is exactly
        # rounded, so both engines compute the identical double
        score = g["cnt"].to_numpy(dtype=np.float64) / bg_df
        order = np.lexsort((g["term"].to_numpy(), -score))[:SIGTERMS_K]
        for r, i in enumerate(order):
            qids.append(qid)
            ranks.append(r)
            terms.append(g["term"].iloc[i])
            fgs.append(int(g["cnt"].iloc[i]))
            bgs.append(int(bg_df[i]))
            scores.append(float(score[i]))
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "term": pa.array(terms, type=pa.string()),
            "fg_df": pa.array(fgs, type=pa.int64()),
            "bg_df": pa.array(bgs, type=pa.int64()),
            "score": pa.array(scores, type=pa.float64()),
        }
    )


def q_percolate(sf_dir: str) -> pa.Table:
    """PERCOLATE (reverse search, Elasticsearch percolator): the stored
    query set is matched against every DOCUMENT — a doc hits a stored
    query when it contains ALL of the query's indexed terms
    (conjunctive registration semantics, the alerting/routing
    primitive for streaming ingest). The stored queries broadcast once
    per task (they are tiny by construction); documents stream through
    one vectorized map_batches pass — per batch, distinct (doc, term)
    pairs → np.isin membership per query → match-count == |q| — and
    only (query_id, doc_id) hits leave the task."""
    from ..collect import collect_table

    qsets = [
        (qid, sorted(set(tokenize_text(text, SQL_PARITY_CONFIG))))
        for qid, text in DOC_QUERIES
    ]

    def match(batch: pa.Table) -> pa.Table:
        out_q, out_d = [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            terms = set(tokenize_text(text, SQL_PARITY_CONFIG))
            for qid, qt in qsets:
                if all(t in terms for t in qt):
                    out_q.append(qid)
                    out_d.append(doc_id)
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    ).map_batches(match, batch_format="pyarrow")
    empty = pa.schema([("query_id", pa.int64()), ("doc_id", pa.int64())])
    return collect_table(ds, empty)


NEG_TERMS = ("slow", "window")


def q_bm25_negated(sf_dir: str) -> pa.Table:
    """NEGATED (boolean NOT) retrieval: docs containing any term in
    NEG_TERMS are excluded from the candidate universe before ranking,
    served through the MaxScore pruning path with the denied set
    resolved once per actor from the index's own postings and applied
    at posting decode (see BM25Scorer exclude_terms). Scores of
    surviving docs equal the unrestricted engine's."""
    return q_bm25_topk(sf_dir, mode="maxscore", exclude_terms=NEG_TERMS)


def q_bm25_conjunctive(sf_dir: str) -> pa.Table:
    """Conjunctive (AND) retrieval: only docs containing EVERY query
    term, BM25-ranked (posting-list intersection smallest-first)."""
    return q_bm25_topk(sf_dir, mode="conjunctive")


MSM_MIN = 2  # minimum_should_match floor for the gate

# fixed test thesaurus over the driver vocabulary; "quick" is absent
# from the corpus (the no-op expansion path)
SYNONYMS: dict[str, tuple[str, ...]] = {
    "stream": ("window",),
    "join": ("merge",),
    "fast": ("quick",),
}


_FIELD_INDEX_CACHE: dict[str, str] = {}
FIELD_WEIGHT = 0.4  # weight of the `source` field relative to content
FIELDED_QUERIES: list[tuple[int, str]] = [
    (0, "data query stream src1"),
    (1, "merge sort join table src3"),
    (2, "the fast key value src15"),
    (3, "spark batch window"),  # no field token: pure content ranking
]


def ensure_field_index(sf_dir: str, cfg: EngineConfig = SQL_PARITY_CONFIG) -> str:
    """Build (or resume) a SECOND index whose "content" is the
    documents table's ``source`` column — the per-field index of a
    multi-field (BM25F-style) engine. Same doc_ids as the content
    index; field stats (df, avgdl, N) are computed within the field,
    per standard fielded BM25."""
    key = f"{sf_dir}:{cfg.config_hash()}:field=source"
    if key in _FIELD_INDEX_CACHE:
        return _FIELD_INDEX_CACHE[key]

    def to_field_corpus(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        doc_ids = batch["doc_id"]
        return pa.table(
            {
                "repo": batch["source"],
                "path": pc.binary_join_element_wise(
                    pa.array(["doc"] * n), pc.cast(doc_ids, pa.string()), "/"
                ),
                "commit": pa.array([""] * n),
                "lang": batch["lang"],
                "content": batch["source"],  # the field IS the text
                "doc_id": doc_ids,
            }
        )

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet")).map_batches(
        to_field_corpus, batch_format="pyarrow", zero_copy_batch=True
    )
    safe = sf_dir.strip("/").replace("/", "_")
    index_dir = os.path.join(
        "/tmp", "docinsight_ray_idx", f"{safe}-{cfg.config_hash()}-fsource"
    )
    build_index(ds, index_dir, cfg, fingerprint=f"documents.source:{sf_dir}")
    _FIELD_INDEX_CACHE[key] = index_dir
    return index_dir


def q_bm25_fielded(sf_dir: str) -> pa.Table:
    """FIELDED retrieval (BM25F-style weighted field fusion):
    score(q, d) = BM25_content(q, d) + FIELD_WEIGHT · BM25_source(q, d),
    each field scored against its OWN index (field-local df/avgdl/N —
    the standard per-field BM25 decomposition). Both fields serve
    through independent actor-pool passes over their indexes; the
    weighted merge is an outer join on (query_id, doc_id) of two
    result sets, so a doc matching ONLY in the secondary field still
    ranks. The Elasticsearch multi_match/fields^w analogue."""
    idx_c = ensure_index(sf_dir)
    idx_f = ensure_field_index(sf_dir)
    n_docs = BM25Scorer(idx_c, SQL_PARITY_CONFIG).n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in FIELDED_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in FIELDED_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(FIELDED_QUERIES), type=pa.uint32()),
        }
    )
    res_c = query_index(
        ray.data.from_arrow(qtbl), idx_c, SQL_PARITY_CONFIG, mode="maxscore", concurrency=2
    ).to_pandas()
    res_f = query_index(
        ray.data.from_arrow(qtbl), idx_f, SQL_PARITY_CONFIG, mode="maxscore", concurrency=2
    ).to_pandas()
    merged = res_c.merge(
        res_f, on=["query_id", "doc_id"], how="outer", suffixes=("_c", "_f")
    )
    fused = (
        merged["score_c"].fillna(0.0) + FIELD_WEIGHT * merged["score_f"].fillna(0.0)
    ).to_numpy()
    qids, ranks, dids, scores = [], [], [], []
    for qid, _text in FIELDED_QUERIES:
        m = (merged["query_id"] == qid).to_numpy()
        d = merged["doc_id"].to_numpy()[m].astype(np.uint64)
        s6 = np.round(fused[m], 6)
        order = np.lexsort((d, -s6))[:TOPK]
        d, s6 = d[order], s6[order]
        qids += [qid] * d.size
        ranks += list(range(d.size))
        dids.append(d.astype(np.int64))
        scores.append(s6)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
            "score": pa.array(np.concatenate(scores), type=pa.float64()),
        }
    )


# fixed per-term boost map for the gate (Lucene term^2 semantics):
# "data" counts double, "table" half, everything else unchanged
BOOSTS: dict[str, float] = {"data": 2.0, "table": 0.5}


def q_bm25_boosted(sf_dir: str) -> pa.Table:
    """Per-term QUERY BOOSTS (Lucene ``term^2``): each boosted term's
    BM25 contribution is multiplied by its boost at accumulation;
    MaxScore upper bounds scale by the same factor, so the pruning
    path serves boosted queries exactly."""
    return q_bm25_topk(sf_dir, mode="maxscore", boosts=BOOSTS)


def q_bm25_synonyms(sf_dir: str) -> pa.Table:
    """Query-time SYNONYM expansion (Elasticsearch synonym-filter,
    simple-expand semantics): each query token additionally contributes
    its thesaurus entries; every expanded term scores with its own idf.
    The thesaurus ships once per scorer actor (constructor broadcast),
    and the expansion happens inside query_terms, so the pruning modes
    serve it unchanged."""
    return q_bm25_topk(sf_dir, mode="maxscore", synonyms=SYNONYMS)


def q_bm25_msm(sf_dir: str) -> pa.Table:
    """MINIMUM_SHOULD_MATCH retrieval (Elasticsearch semantics): a doc
    must contain at least MSM_MIN distinct query terms to be ranked;
    surviving docs keep their plain BM25 scores. The middle ground
    between the pure disjunction (m=1, bm25_topk) and the conjunction
    (m=|q|, bm25_conjunctive) — served exhaustively (TAAT) because a
    match-count floor breaks additive-upper-bound pruning."""
    return q_bm25_topk(sf_dir, min_should_match=MSM_MIN)


def q_bm25_hydrated(sf_dir: str) -> pa.Table:
    """Top-k results joined back to document metadata — the reference's
    chunk-detail hydration join (J1, /root/reference/index/index_manager.py:258-286)
    as a broadcast-small-side join."""
    res = q_bm25_topk(sf_dir)
    docs = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet")).select_columns(
        ["doc_id", "lang", "source"]
    )
    # results are tiny (queries × k) → broadcast them; stream the docs side
    wanted = set(res["doc_id"].to_pylist())
    meta = docs.map_batches(
        lambda t: t.filter(pc.is_in(t["doc_id"], pa.array(list(wanted), type=pa.int64()))),
        batch_format="pyarrow",
    ).to_pandas()
    meta_t = pa.Table.from_pandas(meta, preserve_index=False)
    return res.join(meta_t, keys=["doc_id"], join_type="left outer").sort_by(
        [("query_id", "ascending"), ("rank", "ascending")]
    )


def q_exact_dedup(sf_dir: str) -> pa.Table:
    """Exact dedup groups: sha256 → (winner doc_id, n_copies)
    (SURVEY.md §2.7 D1; reference /root/reference/ingestion/pipeline_ingest.py:266-269)."""
    from ..ids import sha256_hex

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"))

    def add_sha(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "content_sha256": pa.array(sha256_hex(batch["text"].to_pylist()), type=pa.string()),
                "doc_id": batch["doc_id"],
            }
        )

    out = (
        ds.map_batches(add_sha, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("content_sha256")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_copies"))
        .to_pandas()
    )
    return pa.table(
        {
            "content_sha256": pa.array(out["content_sha256"], type=pa.string()),
            "doc_id": pa.array(out["doc_id"].astype(np.int64), type=pa.int64()),
            "n_copies": pa.array(out["n_copies"].astype(np.int64), type=pa.int64()),
        }
    )


# ---- positional phrase retrieval -----------------------------------------

# phrases over the driver testdata vocabulary; includes a single-word
# phrase (tf path) and a 3-gram
PHRASE_IDX_QUERIES: list[tuple[int, str]] = [
    (0, "data query"),
    (1, "the fast key"),
    (2, "merge"),
    (3, "slow big hash"),
]
PHRASE_TOPK = 10
# (phrase_id, query) — the LAST whitespace chunk is a term PREFIX
PHRASE_PREFIX_QUERIES: list[tuple[int, str]] = [
    (0, "data s"),        # multi-expansion: scan/slow/small/sort/spark/stream
    (1, "the fast k"),
    (2, "batch b"),
    (3, "sp"),            # prefix-only (no fixed words)
]
_POS_CACHE: dict[str, str] = {}


def ensure_positional(sf_dir: str) -> str:
    """Build (once per process) the positional index for sf_dir's
    documents table. Single-pass build → cheap enough to rebuild per
    process; the on-disk dir is wiped first so a stale run never
    contributes duplicate (term, doc) rows."""
    from .positional import build_positional_index

    hit = _POS_CACHE.get(sf_dir)
    if hit:
        return hit
    import shutil

    safe = sf_dir.strip("/").replace("/", "_")
    pos_dir = os.path.join("/tmp", "docinsight_ray_pos", safe)
    if os.path.exists(pos_dir):
        shutil.rmtree(pos_dir)
    build_positional_index(
        documents_as_corpus(sf_dir), pos_dir, SQL_PARITY_CONFIG,
        fingerprint=f"documents:{sf_dir}",
    )
    _POS_CACHE[sf_dir] = pos_dir
    return pos_dir


def q_phrase_index_topk(sf_dir: str) -> pa.Table:
    """Index-served PHRASE queries: top-k docs per phrase by exact
    positional occurrence count (overlaps counted), from the
    positional index through the PhraseScorer actor pool — no document
    text touched at query time (contrast gate ``phrase_match``, the
    substring-scan analogue of the reference's raw-text matching)."""
    from .positional import query_phrases

    pos_dir = ensure_positional(sf_dir)
    ptbl = pa.table(
        {
            "phrase_id": pa.array([p for p, _ in PHRASE_IDX_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in PHRASE_IDX_QUERIES], type=pa.string()),
            "k": pa.array([PHRASE_TOPK] * len(PHRASE_IDX_QUERIES), type=pa.int64()),
        }
    )
    from ..collect import collect_table

    out = collect_table(
        query_phrases(ray.data.from_arrow(ptbl), pos_dir, SQL_PARITY_CONFIG)
    ).to_pandas()
    out = out.sort_values(["phrase_id", "rank"]).reset_index(drop=True)
    return pa.table(
        {
            "phrase_id": pa.array(out["phrase_id"].astype(np.int64), type=pa.int64()),
            "rank": pa.array(out["rank"].astype(np.int64), type=pa.int64()),
            "doc_id": pa.array(out["doc_id"].astype(np.int64), type=pa.int64()),
            "n_occ": pa.array(out["n_occ"].astype(np.int64), type=pa.int64()),
        }
    )


def q_phrase_prefix_topk(sf_dir: str) -> pa.Table:
    """match_phrase_prefix (Elasticsearch autocomplete-as-you-type):
    fixed words in order immediately followed by ANY vocabulary term
    starting with the trailing prefix (expansions capped in sorted
    term order), served from the positional index through the
    PhraseScorer actor pool."""
    from .positional import query_phrases

    pos_dir = ensure_positional(sf_dir)
    ptbl = pa.table(
        {
            "phrase_id": pa.array([p for p, _ in PHRASE_PREFIX_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in PHRASE_PREFIX_QUERIES], type=pa.string()),
            "k": pa.array([PHRASE_TOPK] * len(PHRASE_PREFIX_QUERIES), type=pa.int64()),
            "prefix": pa.array([True] * len(PHRASE_PREFIX_QUERIES), type=pa.bool_()),
        }
    )
    from ..collect import collect_table

    out = collect_table(
        query_phrases(ray.data.from_arrow(ptbl), pos_dir, SQL_PARITY_CONFIG)
    ).to_pandas()
    out = out.sort_values(["phrase_id", "rank"]).reset_index(drop=True)
    return pa.table(
        {
            "phrase_id": pa.array(out["phrase_id"].astype(np.int64), type=pa.int64()),
            "rank": pa.array(out["rank"].astype(np.int64), type=pa.int64()),
            "doc_id": pa.array(out["doc_id"].astype(np.int64), type=pa.int64()),
            "n_occ": pa.array(out["n_occ"].astype(np.int64), type=pa.int64()),
        }
    )


SUGGEST_PHRASE_QUERIES: list[tuple[int, str]] = [
    (0, "data s"),
    (1, "the fast k"),
    (2, "b"),            # context-free: rank b* terms by collection tf
]
SUGGEST_PHRASE_N = 5


def q_suggest_phrase(sf_dir: str) -> pa.Table:
    """Contextual autocomplete (ES search_as_you_type): complete the
    trailing prefix ranked by COMPLETED-PHRASE occurrence count (the
    context-aware sibling of the df-ranked ``suggest`` gate), from the
    positional index."""
    from .positional import PhraseScorer

    pos_dir = ensure_positional(sf_dir)
    sc = PhraseScorer(pos_dir, SQL_PARITY_CONFIG)
    qids, ranks, terms, occs = [], [], [], []
    for qid, text in SUGGEST_PHRASE_QUERIES:
        for r, (t, c) in enumerate(sc.phrase_prefix_completions(text, SUGGEST_PHRASE_N)):
            qids.append(qid)
            ranks.append(r)
            terms.append(t)
            occs.append(c)
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "rank": pa.array(ranks, type=pa.int64()),
            "term": pa.array(terms, type=pa.string()),
            "n_occ": pa.array(occs, type=pa.int64()),
        }
    )


# (phrase_id, phrase, slop): ordered proximity with bounded gaps
PROX_QUERIES: list[tuple[int, str, int]] = [
    (0, "data stream", 2),
    (1, "merge join", 1),
    (2, "the fast key", 3),
]


def q_proximity_topk(sf_dir: str) -> pa.Table:
    """Ordered PROXIMITY search from the positional index: terms in
    order with each gap ≤ 1+slop, ranked by chain count — the windowed
    generalization of the exact-phrase gate (slop=0 ≡ phrase)."""
    from .positional import query_phrases

    pos_dir = ensure_positional(sf_dir)
    ptbl = pa.table(
        {
            "phrase_id": pa.array([p for p, _, _ in PROX_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t, _ in PROX_QUERIES], type=pa.string()),
            "k": pa.array([PHRASE_TOPK] * len(PROX_QUERIES), type=pa.int64()),
            "slop": pa.array([s for _, _, s in PROX_QUERIES], type=pa.int64()),
        }
    )
    from ..collect import collect_table

    out = collect_table(
        query_phrases(ray.data.from_arrow(ptbl), pos_dir, SQL_PARITY_CONFIG)
    ).to_pandas()
    out = out.sort_values(["phrase_id", "rank"]).reset_index(drop=True)
    return pa.table(
        {
            "phrase_id": pa.array(out["phrase_id"].astype(np.int64), type=pa.int64()),
            "rank": pa.array(out["rank"].astype(np.int64), type=pa.int64()),
            "doc_id": pa.array(out["doc_id"].astype(np.int64), type=pa.int64()),
            "n_occ": pa.array(out["n_occ"].astype(np.int64), type=pa.int64()),
        }
    )


# The fixed query DOCUMENT for the multi-chunk keep-max path (D3):
# chunked into word windows, each chunk scored, best chunk score kept
# per doc (reference: retrieval.py:163-172 _deduplicate_results).
QUERY_DOC = (
    "data query stream merge sort join table customer order line "
    "filter part supplier region nation slow big hash scan group"
)
QUERY_DOC_CHUNK_WORDS = 4


def q_bm25_doc_query(sf_dir: str) -> pa.Table:
    """Document query with keep-max result dedup (SURVEY §2.7 D3),
    end-to-end through the actor-pool serving path: chunk QUERY_DOC →
    score every chunk → groupby(doc_id).max → global top-10."""
    from ..report import query_document_topk

    idx = ensure_index(sf_dir)
    return query_document_topk(
        QUERY_DOC,
        idx,
        SQL_PARITY_CONFIG,
        k=TOPK,
        chunk_words=QUERY_DOC_CHUNK_WORDS,
        per_chunk_k=None,  # exact keep-max for the SQL gate
        mode="taat",
    )


# ---- oracle SQL -----------------------------------------------------------

_BM25_VALUES = ", ".join(f"({qid}, '{text}')" for qid, text in DOC_QUERIES)


def _chunk_values() -> str:
    from ..report import split_words

    chunks = split_words(QUERY_DOC, QUERY_DOC_CHUNK_WORDS)
    return ", ".join(f"({i}, '{c}')" for i, c in enumerate(chunks))


def _bm25_cte_qt(qt_sql: str, scores_where: str = "", extra_term_sql: str = "",
                 tok_sql: str | None = None) -> str:
    """The shared DuckDB BM25 machinery, parameterized by the
    query-term CTE body (``qt(query_id, term)``), an optional
    scores-level predicate (e.g. self-exclusion for more-like-this),
    an optional extra per-matched-term summand (e.g. BM25+'s idf·delta
    floor) and an optional replacement ``tok(doc_id, term)`` CTE body
    (e.g. the stemmed analyzer chain)."""
    tok_sql = tok_sql or f"""
  SELECT doc_id, t.term
  FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
"""
    return f"""
WITH tok AS ({tok_sql}),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE / (SELECT count(*) FROM documents)::DOUBLE AS avgdl
),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok GROUP BY term),
{qt_sql},
scores AS (
  SELECT qt.query_id, tf.doc_id,
         sum( ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * 2.2
              * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)){extra_term_sql} ) AS raw
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df d ON d.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  {scores_where}
  GROUP BY qt.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(raw, 6) AS score
  FROM scores
)
"""


def _bm25_cte(values: str, extra_term_sql: str = "") -> str:
    """BM25 machinery with query terms tokenized from a
    (query_id, qtext) VALUES list (per-query for the top-k gates,
    per-chunk for the keep-max document-query gate)."""
    return _bm25_cte_qt(f"""q(query_id, qtext) AS (VALUES {values}),
qt AS (
  SELECT q.query_id, t.term
  FROM q, unnest(list_filter(regexp_extract_all(lower(q.qtext), '[a-z0-9]+'), t -> length(t) >= 2)) AS t(term)
  GROUP BY q.query_id, t.term
)""", extra_term_sql=extra_term_sql)


BM25_CTE = _bm25_cte(_BM25_VALUES)

ORACLE_SQL: dict[str, str] = {
    "docs_registry": f"""
        SELECT doc_id, lang, sha256(text) AS content_sha256,
               len({SIMPLE_TOK_SQL})::BIGINT AS doc_len
        FROM documents
    """,
    "corpus_stats": f"""
        WITH d AS (SELECT len({SIMPLE_TOK_SQL})::BIGINT AS doc_len FROM documents)
        SELECT count(*)::BIGINT AS n_docs, sum(doc_len)::BIGINT AS total_len,
               sum(doc_len)::DOUBLE / count(*)::DOUBLE AS avgdl
        FROM d
    """,
    "term_df_top100": f"""
        WITH tok AS (
          SELECT doc_id, t.term FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
        )
        SELECT term, count(DISTINCT doc_id)::BIGINT AS df
        FROM tok GROUP BY term
        ORDER BY df DESC, term ASC LIMIT 100
    """,
    "postings_probe": f"""
        WITH tok AS (
          SELECT doc_id, t.term FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
        )
        SELECT term, doc_id, count(*)::BIGINT AS tf
        FROM tok
        WHERE term IN ({", ".join(repr(t) for t in PROBE_TERMS)})
        GROUP BY term, doc_id
    """,
    "bm25_topk": BM25_CTE + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}",
    # BM25+ (Lv & Zhai 2011): per-matched-term floor of idf*delta,
    # mirroring scorer.score_bm25plus's `c + idf*delta` op order
    "bm25plus_topk": _bm25_cte(
        _BM25_VALUES,
        extra_term_sql=" + ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * {d}".format(
            d=repr(SQL_PARITY_CONFIG.delta)
        ),
    ) + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}",
    # stemmed analyzer chain: length filter → stopword filter → Harman
    # S-stemmer, mirrored as one SQL CASE on both doc and query tokens;
    # docs carry the same deterministic doc_id-derived plural suffix as
    # _stemmed_corpus
    "bm25_stemmed": _bm25_cte_qt(
        f"""q(query_id, qtext) AS (VALUES {", ".join(f"({qid}, '{text}')" for qid, text in STEM_QUERIES)}),
qt AS (
  SELECT DISTINCT q.query_id, {_STEM_CASE.format(t="t.term")} AS term
  FROM q, unnest(list_filter(regexp_extract_all(lower(q.qtext), '[a-z0-9]+'), t -> length(t) >= 2)) AS t(term)
  WHERE t.term NOT IN ({", ".join(repr(w) for w in STEM_STOPWORDS)})
)""",
        tok_sql=f"""
  SELECT aug.doc_id, {_STEM_CASE.format(t="t.term")} AS term
  FROM (SELECT doc_id,
               text || CASE doc_id % 5 {" ".join(f"WHEN {i} THEN {s!r}" for i, s in enumerate(STEM_SUFFIXES[:-1]))} ELSE '' END AS text
        FROM documents) aug,
       unnest({SIMPLE_TOK_SQL}) AS t(term)
  WHERE t.term NOT IN ({", ".join(repr(w) for w in STEM_STOPWORDS)})
""",
    ) + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}",
    "bm25_explain": BM25_CTE + """
, contrib AS (
  SELECT qt.query_id, tf.doc_id, qt.term,
         tf.tf::BIGINT AS tf, d.df::BIGINT AS df,
         round( ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * 2.2
                * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)), 6) AS contribution
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df d ON d.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
)
SELECT c.query_id, r.rank, c.doc_id, c.term, c.tf, c.df, c.contribution
FROM contrib c
JOIN ranked r ON r.query_id = c.query_id AND r.doc_id = c.doc_id
WHERE r.rank < {K}
""".replace("{K}", "5"),
    "bm25_topk_bmw": BM25_CTE + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}",
    # merged halves must reproduce the full-corpus ranking exactly
    "bm25_merged": BM25_CTE + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}",
    "bm25_topk_lazy": BM25_CTE + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}",
    # function_score: BM25 raw scores × linear n_chars decay (multiply
    # boost mode), clamped at 0; re-ranked by the round-6 protocol
    "bm25_decay": BM25_CTE + f"""
, dec AS (
  SELECT s.query_id, s.doc_id,
         s.raw * greatest(0.0, ({DECAY_SCALE!r} - abs(d.n_chars::DOUBLE - {DECAY_ORIGIN!r})) / {DECAY_SCALE!r}) AS raw
  FROM scores s JOIN documents d USING (doc_id)
),
ranked_dec AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(raw, 6) AS score
  FROM dec
)
SELECT query_id, rank, doc_id, score FROM ranked_dec WHERE rank < {TOPK}
""",
    # rank_feature: BM25 + boost * x/(x+pivot) additive saturation on
    # n_chars (should-clause sum — contrast bm25_decay's multiply)
    "bm25_rank_feature": BM25_CTE + f"""
, rf AS (
  SELECT s.query_id, s.doc_id,
         s.raw + {RANK_FEATURE_BOOST!r} * (d.n_chars::DOUBLE / (d.n_chars::DOUBLE + {RANK_FEATURE_PIVOT!r})) AS raw
  FROM scores s JOIN documents d USING (doc_id)
),
ranked_rf AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(raw, 6) AS score
  FROM rf
)
SELECT query_id, rank, doc_id, score FROM ranked_rf WHERE rank < {TOPK}
""",
    # LM Dirichlet query likelihood (sparse rewrite; candidates = docs
    # matching >=1 indexed query term, the convention scorer.score_lmdir
    # documents). MU mirrors EngineConfig.mu.
    "lmdir_topk": f"""
WITH tok AS (
  SELECT doc_id, t.term
  FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id),
ctf AS (SELECT term, count(*)::DOUBLE AS ctf FROM tok GROUP BY term),
coll AS (SELECT count(*)::DOUBLE AS c FROM tok),
q(query_id, qtext) AS (VALUES {{values}}),
qt AS (
  SELECT q.query_id, t.term
  FROM q, unnest(list_filter(regexp_extract_all(lower(q.qtext), '[a-z0-9]+'), t -> length(t) >= 2)) AS t(term)
  GROUP BY q.query_id, t.term
),
qi AS (SELECT qt.query_id, qt.term, ctf.ctf FROM qt JOIN ctf USING (term)),
qn AS (SELECT query_id, count(*)::DOUBLE AS m FROM qi GROUP BY query_id),
scores AS (
  SELECT qi.query_id, tf.doc_id,
         sum(ln(1 + tf.tf / ({{mu}} * qi.ctf / (SELECT c FROM coll))))
           + any_value(qn.m) * ln({{mu}} / (any_value(dl.dl) + {{mu}})) AS raw
  FROM qi
  JOIN tf ON tf.term = qi.term
  JOIN dl ON dl.doc_id = tf.doc_id
  JOIN qn ON qn.query_id = qi.query_id
  GROUP BY qi.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(raw, 6) AS score
  FROM scores
)
SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}
""".replace("{values}", _BM25_VALUES).replace("{mu}", repr(SQL_PARITY_CONFIG.mu)),
    # MUST clause: candidates restricted to docs containing the
    # required term; all terms score
    "bm25_must": _bm25_cte("(0, 'data stream table')") + f"""
, must AS (SELECT DISTINCT doc_id FROM tok WHERE term = 'data'),
rs AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, round(s.raw, 6) AS score
  FROM scores s JOIN must m USING (doc_id)
)
SELECT query_id, rank, doc_id, score FROM rs WHERE rank < {TOPK}
""",
    # boosting query: negative-term docs demoted by negative_boost
    "bm25_boosting": BM25_CTE + f"""
, neg AS (
  SELECT DISTINCT doc_id FROM tok
  WHERE term IN ({", ".join(repr(t) for t in BOOSTING_NEG_TERMS)})
),
boosted AS (
  SELECT s.query_id, s.doc_id,
         CASE WHEN n.doc_id IS NOT NULL THEN s.raw * {BOOSTING_FACTOR!r}
              ELSE s.raw END AS raw
  FROM scores s LEFT JOIN neg n USING (doc_id)
),
ranked_b AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(raw, 6) AS score
  FROM boosted
)
SELECT query_id, rank, doc_id, score FROM ranked_b WHERE rank < {TOPK}
""",
    # constant_score: filter-only matching, every hit scores 1.0
    "bm25_constant_score": BM25_CTE + f"""
, cs AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY doc_id ASC) - 1 AS rank,
         doc_id, 1.0 AS score
  FROM scores
)
SELECT query_id, rank, doc_id, score FROM cs WHERE rank < {TOPK}
""",
    # sort-by-field serving: candidates ranked by (n_chars DESC,
    # doc_id ASC), BM25 score carried as a column
    "bm25_sort_field": BM25_CTE + f"""
, srt AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id ORDER BY d.n_chars DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, d.n_chars::BIGINT AS n_chars, round(s.raw, 6) AS score
  FROM scores s JOIN documents d USING (doc_id)
)
SELECT query_id, rank, doc_id, n_chars, score FROM srt WHERE rank < {TOPK}
""",
    "bm25_hydrated": BM25_CTE + f"""
        SELECT r.query_id, r.rank, r.doc_id, r.score, d.lang, d.source
        FROM ranked r JOIN documents d ON d.doc_id = r.doc_id
        WHERE r.rank < {TOPK}
    """,
    "exact_dedup": """
        SELECT sha256(text) AS content_sha256, min(doc_id)::BIGINT AS doc_id,
               count(*)::BIGINT AS n_copies
        FROM documents GROUP BY sha256(text)
    """,
}

# Facet counts over the full candidate set (scores CTE = docs
# matching >=1 query term, the engine's candidate convention).
ORACLE_SQL["bm25_facets"] = _bm25_cte(_BM25_VALUES) + """
SELECT s.query_id, d.lang, count(*)::BIGINT AS n_matched
FROM scores s JOIN documents d ON d.doc_id = s.doc_id
GROUP BY s.query_id, d.lang
"""

# Retrieval evaluation: relevance = conjunctive containment of all
# distinct query terms; metrics over the BM25 top-k ranking.
ORACLE_SQL["retrieval_eval"] = _bm25_cte(_BM25_VALUES) + f"""
, nq AS (SELECT query_id, count(*)::BIGINT AS m FROM qt GROUP BY query_id),
rel AS (
  SELECT qt.query_id, tf.doc_id
  FROM qt JOIN tf ON tf.term = qt.term
  GROUP BY qt.query_id, tf.doc_id
  HAVING count(*) = (SELECT m FROM nq WHERE nq.query_id = qt.query_id)
),
nrel AS (SELECT query_id, count(*)::BIGINT AS n_rel FROM rel GROUP BY query_id),
topk AS (SELECT query_id, rank, doc_id FROM ranked WHERE rank < {TOPK}),
hits AS (
  SELECT t.query_id, count(*)::BIGINT AS hits_at_k, min(t.rank)::BIGINT AS first_rel_rank
  FROM topk t JOIN rel r ON r.query_id = t.query_id AND r.doc_id = t.doc_id
  GROUP BY t.query_id
)
SELECT qq.query_id::BIGINT AS query_id,
       coalesce(n.n_rel, 0)::BIGINT AS n_rel,
       coalesce(h.hits_at_k, 0)::BIGINT AS hits_at_k,
       coalesce(h.first_rel_rank, -1)::BIGINT AS first_rel_rank,
       CASE WHEN h.first_rel_rank IS NULL THEN 0
            ELSE round(1000000.0 / (h.first_rel_rank + 1))::BIGINT END AS rr_micro
FROM (SELECT DISTINCT query_id FROM qt) qq
LEFT JOIN nrel n USING (query_id)
LEFT JOIN hits h USING (query_id)
"""

# AP@k over the shared BM25 ranking with conjunctive-containment
# relevance; integer precision terms ((i·1e6)//(rank+1)) and an integer
# final quotient so both engines produce identical int64s
ORACLE_SQL["map_eval"] = _bm25_cte(_BM25_VALUES) + f"""
, nq AS (SELECT query_id, count(*)::BIGINT AS m FROM qt GROUP BY query_id),
rel AS (
  SELECT qt.query_id, tf.doc_id
  FROM qt JOIN tf ON tf.term = qt.term
  GROUP BY qt.query_id, tf.doc_id
  HAVING count(*) = (SELECT m FROM nq WHERE nq.query_id = qt.query_id)
),
nrel AS (SELECT query_id, count(*)::BIGINT AS n_rel FROM rel GROUP BY query_id),
topk AS (SELECT query_id, rank, doc_id FROM ranked WHERE rank < {TOPK}),
relhits AS (
  SELECT t.query_id, t.rank
  FROM topk t JOIN rel r ON r.query_id = t.query_id AND r.doc_id = t.doc_id
),
prec AS (
  SELECT query_id,
         (row_number() OVER (PARTITION BY query_id ORDER BY rank) * 1000000) // (rank + 1) AS p_micro
  FROM relhits
),
ap AS (SELECT query_id, sum(p_micro)::BIGINT AS sum_p FROM prec GROUP BY query_id)
SELECT qq.query_id::BIGINT AS query_id,
       coalesce(n.n_rel, 0)::BIGINT AS n_rel,
       CASE WHEN a.sum_p IS NULL OR coalesce(least(n.n_rel, {TOPK}), 0) = 0 THEN 0
            ELSE a.sum_p // least(n.n_rel, {TOPK}) END::BIGINT AS ap_micro
FROM (SELECT DISTINCT query_id FROM qt) qq
LEFT JOIN nrel n USING (query_id)
LEFT JOIN ap a USING (query_id)
"""

# nDCG@k with graded relevance (grade = distinct query terms contained):
# DCG over the shared BM25 ranking, ideal DCG from the corpus-wide grade
# ordering, integer micro contributions, ppm quotient by integer division.
ORACLE_SQL["ndcg_eval"] = _bm25_cte(_BM25_VALUES) + f"""
, grade AS (
  SELECT qt.query_id, tf.doc_id, count(*)::BIGINT AS rel
  FROM qt JOIN tf ON tf.term = qt.term
  GROUP BY qt.query_id, tf.doc_id
),
topk AS (SELECT query_id, rank, doc_id FROM ranked WHERE rank < {TOPK}),
dcg AS (
  SELECT t.query_id,
         sum(round(coalesce(g.rel, 0) * 1000000.0 / log2(t.rank + 2)))::BIGINT AS dcg_micro
  FROM topk t
  LEFT JOIN grade g ON g.query_id = t.query_id AND g.doc_id = t.doc_id
  GROUP BY t.query_id
),
ideal AS (
  SELECT query_id, rel,
         row_number() OVER (PARTITION BY query_id ORDER BY rel DESC, doc_id ASC) - 1 AS r
  FROM grade
),
idcg AS (
  SELECT query_id, sum(round(rel * 1000000.0 / log2(r + 2)))::BIGINT AS idcg_micro
  FROM ideal WHERE r < {TOPK} GROUP BY query_id
)
SELECT qq.query_id::BIGINT AS query_id,
       coalesce(d.dcg_micro, 0)::BIGINT AS dcg_micro,
       coalesce(i.idcg_micro, 0)::BIGINT AS idcg_micro,
       CASE WHEN coalesce(i.idcg_micro, 0) = 0 THEN 0
            ELSE (coalesce(d.dcg_micro, 0) * 1000000) // i.idcg_micro
       END::BIGINT AS ndcg_ppm
FROM (SELECT DISTINCT query_id FROM qt) qq
LEFT JOIN dcg d USING (query_id)
LEFT JOIN idcg i USING (query_id)
"""

# RM3 pseudo-relevance feedback: pass-1 ranking (shared BM25 CTEs) →
# feedback docs → tf·idf-weighted expansion candidates (original terms
# excluded) → expanded term set → pass-2 scoring with the same formula.
ORACLE_SQL["bm25_rm3"] = _bm25_cte(_BM25_VALUES) + f"""
, fb AS (SELECT query_id, doc_id FROM ranked WHERE rank < {FB_DOCS})
, cand AS (
  SELECT fb.query_id, tf.term,
         round(sum(tf.tf * ln((SELECT n FROM stats) / d.df)), 6) AS w
  FROM fb
  JOIN tf ON tf.doc_id = fb.doc_id
  JOIN df d ON d.term = tf.term
  WHERE NOT EXISTS (
    SELECT 1 FROM qt WHERE qt.query_id = fb.query_id AND qt.term = tf.term
  )
  GROUP BY fb.query_id, tf.term
)
, expn AS (
  SELECT query_id, term FROM (
    SELECT query_id, term,
           row_number() OVER (PARTITION BY query_id ORDER BY w DESC, term ASC) AS rn
    FROM cand
  ) WHERE rn <= {FB_TERMS}
)
, qt2 AS (
  SELECT query_id, term FROM qt
  UNION
  SELECT query_id, term FROM expn
)
, scores2 AS (
  SELECT qt2.query_id, tf.doc_id,
         sum( ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * 2.2
              * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)) ) AS raw
  FROM qt2
  JOIN tf ON tf.term = qt2.term
  JOIN df d ON d.term = qt2.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY qt2.query_id, tf.doc_id
)
, ranked2 AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(raw, 6) AS score
  FROM scores2
)
SELECT query_id, rank, doc_id, score FROM ranked2 WHERE rank < {TOPK}
"""

# RRF fusion: both rankers' full candidate lists from shared CTEs,
# per-query 0-based ranks by the (round(score,6) DESC, doc_id ASC)
# protocol, fused by reciprocal rank and re-ranked.
ORACLE_SQL["rrf_topk"] = f"""
WITH tok AS (
  SELECT doc_id, t.term
  FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE / (SELECT count(*) FROM documents)::DOUBLE AS avgdl
),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok GROUP BY term),
q(query_id, qtext) AS (VALUES {_BM25_VALUES}),
qt AS (
  SELECT q.query_id, t.term
  FROM q, unnest(list_filter(regexp_extract_all(lower(q.qtext), '[a-z0-9]+'), t -> length(t) >= 2)) AS t(term)
  GROUP BY q.query_id, t.term
),
scores_bm AS (
  SELECT qt.query_id, tf.doc_id,
         sum( ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * 2.2
              * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)) ) AS raw
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df d ON d.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY qt.query_id, tf.doc_id
),
ranked_bm AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rnk
  FROM scores_bm
),
ctf AS (SELECT term, count(*)::DOUBLE AS ctf FROM tok GROUP BY term),
coll AS (SELECT count(*)::DOUBLE AS c FROM tok),
qi AS (SELECT qt.query_id, qt.term, ctf.ctf FROM qt JOIN ctf USING (term)),
qn AS (SELECT query_id, count(*)::DOUBLE AS m FROM qi GROUP BY query_id),
scores_lm AS (
  SELECT qi.query_id, tf.doc_id,
         sum(ln(1 + tf.tf / ({{mu}} * qi.ctf / (SELECT c FROM coll))))
           + any_value(qn.m) * ln({{mu}} / (any_value(dl.dl) + {{mu}})) AS raw
  FROM qi
  JOIN tf ON tf.term = qi.term
  JOIN dl ON dl.doc_id = tf.doc_id
  JOIN qn ON qn.query_id = qi.query_id
  GROUP BY qi.query_id, tf.doc_id
),
ranked_lm AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rnk
  FROM scores_lm
),
fused AS (
  SELECT b.query_id, b.doc_id,
         round(1.0 / ({RRF_C + 1} + b.rnk) + 1.0 / ({RRF_C + 1} + l.rnk), 6) AS rrf,
         b.rnk AS bm25_rank, l.rnk AS lmdir_rank
  FROM ranked_bm b
  JOIN ranked_lm l ON l.query_id = b.query_id AND l.doc_id = b.doc_id
),
final AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY rrf DESC, doc_id ASC) - 1 AS rank,
         doc_id, rrf, bm25_rank, lmdir_rank
  FROM fused
)
SELECT query_id, rank, doc_id, rrf,
       bm25_rank::BIGINT AS bm25_rank, lmdir_rank::BIGINT AS lmdir_rank
FROM final WHERE rank < {TOPK}
""".replace("{mu}", repr(SQL_PARITY_CONFIG.mu))

# hybrid sparse+dense RRF: the shared BM25 CTE's `ranked` gives sparse
# ranks; the dense side ranks round-6 cosine of each query id's stored
# embedding against every vector; windows of HYBRID_W fuse over the
# union (a doc missing from one list contributes only the other term)
ORACLE_SQL["hybrid_rrf"] = BM25_CTE + f"""
, sw AS (SELECT query_id, doc_id, rank FROM ranked WHERE rank < {HYBRID_W}),
qv AS (SELECT vec_id AS query_id, embedding AS qe FROM embeddings
       WHERE vec_id IN ({", ".join(str(q) for q, _ in DOC_QUERIES)})),
dcos AS (
  SELECT qv.query_id, e.vec_id AS doc_id,
         round(list_dot_product(qv.qe::DOUBLE[], e.embedding::DOUBLE[])
               / sqrt(list_dot_product(qv.qe::DOUBLE[], qv.qe::DOUBLE[]))
               / sqrt(list_dot_product(e.embedding::DOUBLE[], e.embedding::DOUBLE[])), 6) AS cos
  FROM qv, embeddings e
),
dw AS (
  SELECT query_id, doc_id,
         row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, doc_id ASC) - 1 AS rank
  FROM dcos
  QUALIFY rank < {HYBRID_W}
),
fused_h AS (
  SELECT coalesce(s.query_id, d.query_id) AS query_id,
         coalesce(s.doc_id, d.doc_id) AS doc_id,
         coalesce(1.0 / ({RRF_C + 1} + s.rank), 0.0)
           + coalesce(1.0 / ({RRF_C + 1} + d.rank), 0.0) AS rrf
  FROM sw s FULL OUTER JOIN dw d ON s.query_id = d.query_id AND s.doc_id = d.doc_id
),
hranked AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(rrf, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(rrf, 6) AS rrf
  FROM fused_h
)
SELECT query_id, rank, doc_id, rrf FROM hranked WHERE rank < {TOPK}
"""

# bm25_rerank: BM25 top-W lexical window re-scored by cosine between
# the candidate's stored embedding and the query's stored embedding
# (vec_id == query_id), inner-join semantics, round-6 re-rank
ORACLE_SQL["bm25_rerank"] = BM25_CTE + f"""
, win AS (SELECT query_id, doc_id FROM ranked WHERE rank < {RERANK_W}),
rcos AS (
  SELECT w.query_id, w.doc_id,
         round(list_dot_product(qe.embedding::DOUBLE[], de.embedding::DOUBLE[])
               / sqrt(list_dot_product(qe.embedding::DOUBLE[], qe.embedding::DOUBLE[]))
               / sqrt(list_dot_product(de.embedding::DOUBLE[], de.embedding::DOUBLE[])), 6) AS cos
  FROM win w
  JOIN embeddings qe ON qe.vec_id = w.query_id
  JOIN embeddings de ON de.vec_id = w.doc_id
),
rrank AS (
  SELECT query_id, doc_id, cos,
         row_number() OVER (PARTITION BY query_id ORDER BY cos DESC, doc_id ASC) - 1 AS rank
  FROM rcos
)
SELECT query_id, rank, doc_id, cos FROM rrank WHERE rank < {TOPK}
"""

ORACLE_SQL["bm25_conjunctive"] = _bm25_cte(_BM25_VALUES) + f"""
, qn AS (SELECT query_id, count(*) AS n_terms FROM qt GROUP BY query_id)
, matched AS (
  SELECT qt.query_id, tf.doc_id, count(*) AS m
  FROM qt JOIN tf ON tf.term = qt.term
  GROUP BY qt.query_id, tf.doc_id
)
, conj AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, round(s.raw, 6) AS score
  FROM scores s
  JOIN matched m ON m.query_id = s.query_id AND m.doc_id = s.doc_id
  JOIN qn ON qn.query_id = s.query_id
  WHERE m.m = qn.n_terms
)
SELECT query_id, rank, doc_id, score FROM conj WHERE rank < {TOPK}
"""

_FIELDED_VALUES = ", ".join(f"({q}, '{t}')" for q, t in FIELDED_QUERIES)

def _fielded_oracle(fused_expr: str) -> str:
    """Two-field BM25 machinery (content + source, field-local stats),
    parameterized by the fusion expression over the outer-joined
    per-field raw scores c.raw / f.raw (NULL where a field missed)."""
    return f"""
WITH tok AS (
  SELECT doc_id, t.term
  FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE / (SELECT count(*) FROM documents)::DOUBLE AS avgdl
),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok GROUP BY term),
tokf AS (
  SELECT doc_id, t.term
  FROM documents, unnest(list_filter(regexp_extract_all(lower(source), '[a-z0-9]+'), t -> length(t) >= 2)) AS t(term)
),
tff AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tokf GROUP BY doc_id, term),
dlf AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tokf GROUP BY doc_id),
statsf AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tokf)::DOUBLE / (SELECT count(*) FROM documents)::DOUBLE AS avgdl
),
dff AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tokf GROUP BY term),
q(query_id, qtext) AS (VALUES {_FIELDED_VALUES}),
qt AS (
  SELECT q.query_id, t.term
  FROM q, unnest(list_filter(regexp_extract_all(lower(q.qtext), '[a-z0-9]+'), t -> length(t) >= 2)) AS t(term)
  GROUP BY q.query_id, t.term
),
scores_c AS (
  SELECT qt.query_id, tf.doc_id,
         sum( ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * 2.2
              * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)) ) AS raw
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df d ON d.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  CROSS JOIN stats s
  GROUP BY qt.query_id, tf.doc_id
),
scores_f AS (
  SELECT qt.query_id, tff.doc_id,
         sum( ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * 2.2
              * tff.tf / (tff.tf + 1.2 * (1 - 0.75 + 0.75 * dlf.dl / s.avgdl)) ) AS raw
  FROM qt
  JOIN tff ON tff.term = qt.term
  JOIN dff d ON d.term = qt.term
  JOIN dlf ON dlf.doc_id = tff.doc_id
  CROSS JOIN statsf s
  GROUP BY qt.query_id, tff.doc_id
),
fused AS (
  SELECT coalesce(c.query_id, f.query_id) AS query_id,
         coalesce(c.doc_id, f.doc_id) AS doc_id,
         {fused_expr} AS raw
  FROM scores_c c
  FULL OUTER JOIN scores_f f
    ON f.query_id = c.query_id AND f.doc_id = c.doc_id
),
ranked AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(raw, 6) AS score
  FROM fused
)
SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}
"""


ORACLE_SQL["bm25_fielded"] = _fielded_oracle(
    f"coalesce(c.raw, 0) + {FIELD_WEIGHT!r} * coalesce(f.raw, 0)"
)

# Lucene dis_max with two fields: best field + tie_breaker x the other.
ORACLE_SQL["bm25_dismax"] = _fielded_oracle(
    f"greatest(coalesce(c.raw, 0), {FIELD_WEIGHT!r} * coalesce(f.raw, 0))"
    f" + {DISMAX_TIE!r} * least(coalesce(c.raw, 0), {FIELD_WEIGHT!r} * coalesce(f.raw, 0))"
)

ORACLE_SQL["bm25_boosted"] = f"""
WITH tok AS (
  SELECT doc_id, t.term
  FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
),
tf AS (SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok GROUP BY doc_id, term),
dl AS (SELECT doc_id, count(*)::DOUBLE AS dl FROM tok GROUP BY doc_id),
stats AS (
  SELECT (SELECT count(*) FROM documents)::DOUBLE AS n,
         (SELECT count(*) FROM tok)::DOUBLE / (SELECT count(*) FROM documents)::DOUBLE AS avgdl
),
df AS (SELECT term, count(DISTINCT doc_id)::DOUBLE AS df FROM tok GROUP BY term),
q(query_id, qtext) AS (VALUES {_BM25_VALUES}),
qt AS (
  SELECT q.query_id, t.term
  FROM q, unnest(list_filter(regexp_extract_all(lower(q.qtext), '[a-z0-9]+'), t -> length(t) >= 2)) AS t(term)
  GROUP BY q.query_id, t.term
),
boost(term, b) AS (VALUES {", ".join(f"('{t}', {b!r})" for t, b in sorted(BOOSTS.items()))}),
scores AS (
  SELECT qt.query_id, tf.doc_id,
         sum( coalesce(bo.b, 1.0)
              * ln(1 + (s.n - d.df + 0.5) / (d.df + 0.5)) * 2.2
              * tf.tf / (tf.tf + 1.2 * (1 - 0.75 + 0.75 * dl.dl / s.avgdl)) ) AS raw
  FROM qt
  JOIN tf ON tf.term = qt.term
  JOIN df d ON d.term = qt.term
  JOIN dl ON dl.doc_id = tf.doc_id
  LEFT JOIN boost bo ON bo.term = qt.term
  CROSS JOIN stats s
  GROUP BY qt.query_id, tf.doc_id
),
ranked AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
         doc_id, round(raw, 6) AS score
  FROM scores
)
SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}
"""

ORACLE_SQL["bm25_synonyms"] = _bm25_cte_qt(
    f"""q(query_id, qtext) AS (VALUES {_BM25_VALUES}),
qt0 AS (
  SELECT q.query_id, t.term
  FROM q, unnest(list_filter(regexp_extract_all(lower(q.qtext), '[a-z0-9]+'), t -> length(t) >= 2)) AS t(term)
  GROUP BY q.query_id, t.term
),
syn(term, syn) AS (VALUES {", ".join(
    f"('{t}', '{s}')" for t, ss in sorted(SYNONYMS.items()) for s in ss
)}),
qt AS (
  SELECT query_id, term FROM qt0
  UNION
  SELECT qt0.query_id, syn.syn FROM qt0 JOIN syn ON syn.term = qt0.term
)"""
) + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}"

ORACLE_SQL["bm25_msm"] = _bm25_cte(_BM25_VALUES) + f"""
, matched AS (
  SELECT qt.query_id, tf.doc_id, count(*) AS m
  FROM qt JOIN tf ON tf.term = qt.term
  GROUP BY qt.query_id, tf.doc_id
)
, msm AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, round(s.raw, 6) AS score
  FROM scores s
  JOIN matched m ON m.query_id = s.query_id AND m.doc_id = s.doc_id
  WHERE m.m >= {MSM_MIN}
)
SELECT query_id, rank, doc_id, score FROM msm WHERE rank < {TOPK}
"""

ORACLE_SQL["bm25_more_like_this"] = _bm25_cte_qt(
    f"""qt AS (
  SELECT d.doc_id AS query_id, t.term
  FROM documents d, unnest({SIMPLE_TOK_SQL.replace('text', 'd.text')}) AS t(term)
  WHERE d.doc_id IN {MLT_DOC_IDS!r}
  GROUP BY d.doc_id, t.term
)""",
    scores_where="WHERE tf.doc_id != qt.query_id",
) + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}"

ORACLE_SQL["bm25_filtered"] = _bm25_cte(_BM25_VALUES) + f"""
, flt AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, round(s.raw, 6) AS score
  FROM scores s
  JOIN documents d ON d.doc_id = s.doc_id
  WHERE d.lang IN {FILTER_LANGS!r}
)
SELECT query_id, rank, doc_id, score FROM flt WHERE rank < {TOPK}
"""

ORACLE_SQL["bm25_page2"] = BM25_CTE + (
    f"SELECT query_id, rank, doc_id, score FROM ranked "
    f"WHERE rank >= {TOPK} AND rank < {2 * TOPK}"
)

ORACLE_SQL["bm25_collapse"] = _bm25_cte(_BM25_VALUES) + f"""
, lg AS (
  SELECT s.query_id, s.doc_id, round(s.raw, 6) AS score, d.{COLLAPSE_FIELD},
         row_number() OVER (PARTITION BY s.query_id, d.{COLLAPSE_FIELD}
                            ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) AS rn
  FROM scores s JOIN documents d ON d.doc_id = s.doc_id
), coll AS (
  SELECT query_id, doc_id, score, {COLLAPSE_FIELD},
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, doc_id ASC) - 1 AS rank
  FROM lg WHERE rn = 1
)
SELECT query_id, rank, doc_id, score, {COLLAPSE_FIELD}
FROM coll WHERE rank < {COLLAPSE_K}
"""

ORACLE_SQL["positions_probe"] = f"""
        WITH ptok AS (
          SELECT doc_id, unnest({SIMPLE_TOK_SQL}) AS term,
                 unnest(range(len({SIMPLE_TOK_SQL}))) AS pos
          FROM documents
        )
        SELECT term, doc_id, pos::BIGINT AS pos
        FROM ptok
        WHERE term IN ({", ".join(repr(t) for t in PROBE_TERMS)})
        ORDER BY term, doc_id, pos
"""

# structured query: positive-terms BM25 CTE + phrase chain + metadata
# filter + negation, mirroring querylang's composition exactly
ORACLE_SQL["bm25_structured"] = _bm25_cte("(0, 'data stream table')") + f"""
, ptok AS (
  SELECT doc_id, unnest({SIMPLE_TOK_SQL}) AS term,
         unnest(range(len({SIMPLE_TOK_SQL}))) AS pos
  FROM documents
), ph AS (
  SELECT DISTINCT t0.doc_id FROM ptok t0
  JOIN ptok t1 ON t1.doc_id = t0.doc_id AND t1.pos = t0.pos + 1 AND t1.term = 'scan'
  WHERE t0.term = 'hash'
), neg AS (
  SELECT DISTINCT doc_id FROM tok WHERE term IN ('dup')
), flt AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, round(s.raw, 6) AS score
  FROM scores s
  JOIN documents d ON d.doc_id = s.doc_id
  WHERE d.lang IN ('en', 'fr')
    AND s.doc_id IN (SELECT doc_id FROM ph)
    AND s.doc_id NOT IN (SELECT doc_id FROM neg)
)
SELECT query_id, rank, doc_id, score FROM flt WHERE rank < {TOPK}
"""

ORACLE_SQL["bm25_tombstone"] = _bm25_cte(_BM25_VALUES) + f"""
, flt AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, round(s.raw, 6) AS score
  FROM scores s
  WHERE s.doc_id % {TOMB_MOD} <> {TOMB_REM}
)
SELECT query_id, rank, doc_id, score FROM flt WHERE rank < {TOPK}
"""


def _phrase_occ_sql() -> str:
    """Per-phrase positional chain-join occurrence counts, UNION ALL."""
    parts = []
    for pid, text in PHRASE_IDX_QUERIES:
        words = text.split()
        joins = "\n          ".join(
            f"JOIN ptok t{i} ON t{i}.doc_id = t0.doc_id "
            f"AND t{i}.pos = t0.pos + {i} AND t{i}.term = '{w}'"
            for i, w in enumerate(words[1:], start=1)
        )
        parts.append(
            f"""SELECT {pid} AS phrase_id, t0.doc_id, count(*)::BIGINT AS n_occ
          FROM ptok t0
          {joins}
          WHERE t0.term = '{words[0]}'
          GROUP BY t0.doc_id"""
        )
    return "\n        UNION ALL\n        ".join(parts)


ORACLE_SQL["phrase_index_topk"] = f"""
        WITH ptok AS (
          SELECT doc_id,
                 unnest({SIMPLE_TOK_SQL}) AS term,
                 unnest(range(len({SIMPLE_TOK_SQL}))) AS pos
          FROM documents
        ), occ AS (
        {_phrase_occ_sql()}
        ), r AS (
          SELECT phrase_id, doc_id, n_occ,
                 row_number() OVER (PARTITION BY phrase_id
                                    ORDER BY n_occ DESC, doc_id ASC) - 1 AS rank
          FROM occ
        )
        SELECT phrase_id, rank::BIGINT AS rank, doc_id, n_occ
        FROM r WHERE rank < {PHRASE_TOPK}
"""

def _phrase_prefix_occ_sql() -> str:
    """Per-query chain joins with the last position matched against
    the capped prefix-expansion set (same sorted-asc LIMIT the engine
    applies); one token per position ⇒ plain count(*) is already
    distinct starts."""
    parts = []
    for pid, text in PHRASE_PREFIX_QUERIES:
        chunks = text.lower().split()
        prefix = "".join(c for c in chunks[-1] if c.isalnum())
        fixed = tokenize_text(" ".join(chunks[:-1]), SQL_PARITY_CONFIG)
        exps = (f"(SELECT term FROM (SELECT DISTINCT term FROM ptok "
                f"WHERE term LIKE '{prefix}%' ORDER BY term LIMIT 50))")
        if fixed:
            joins = "".join(
                f"\n          JOIN ptok t{i} ON t{i}.doc_id = t0.doc_id "
                f"AND t{i}.pos = t0.pos + {i} AND t{i}.term = '{w}'"
                for i, w in enumerate(fixed[1:], start=1)
            )
            joins += (
                f"\n          JOIN ptok tl ON tl.doc_id = t0.doc_id "
                f"AND tl.pos = t0.pos + {len(fixed)} AND tl.term IN {exps}"
            )
            where = f"WHERE t0.term = '{fixed[0]}'"
        else:
            joins = ""
            where = f"WHERE t0.term IN {exps}"
        parts.append(
            f"""SELECT {pid} AS phrase_id, t0.doc_id AS doc_id, count(*)::BIGINT AS n_occ
          FROM ptok t0{joins}
          {where}
          GROUP BY t0.doc_id"""
        )
    return "\n        UNION ALL\n        ".join(parts)


def _suggest_phrase_sql() -> str:
    parts = []
    for qid, text in SUGGEST_PHRASE_QUERIES:
        chunks = text.lower().split()
        prefix = "".join(c for c in chunks[-1] if c.isalnum())
        fixed = tokenize_text(" ".join(chunks[:-1]), SQL_PARITY_CONFIG)
        exps = (f"(SELECT term FROM (SELECT DISTINCT term FROM ptok "
                f"WHERE term LIKE '{prefix}%' ORDER BY term LIMIT 50))")
        if fixed:
            joins = "".join(
                f"\n          JOIN ptok t{i} ON t{i}.doc_id = t0.doc_id "
                f"AND t{i}.pos = t0.pos + {i} AND t{i}.term = '{w}'"
                for i, w in enumerate(fixed[1:], start=1)
            )
            joins += (
                f"\n          JOIN ptok tl ON tl.doc_id = t0.doc_id "
                f"AND tl.pos = t0.pos + {len(fixed)} AND tl.term IN {exps}"
            )
            where = f"WHERE t0.term = '{fixed[0]}'"
            grp = "tl.term"
        else:
            joins = ""
            where = f"WHERE t0.term IN {exps}"
            grp = "t0.term"
        parts.append(
            f"""SELECT {qid} AS query_id, {grp} AS term, count(*)::BIGINT AS n_occ
          FROM ptok t0{joins}
          {where}
          GROUP BY {grp}"""
        )
    return "\n        UNION ALL\n        ".join(parts)


ORACLE_SQL["suggest_phrase"] = f"""
        WITH ptok AS (
          SELECT doc_id,
                 unnest({SIMPLE_TOK_SQL}) AS term,
                 unnest(range(len({SIMPLE_TOK_SQL}))) AS pos
          FROM documents
        ), occ AS (
        {_suggest_phrase_sql()}
        ), r AS (
          SELECT query_id, term, n_occ,
                 row_number() OVER (PARTITION BY query_id
                                    ORDER BY n_occ DESC, term ASC) - 1 AS rank
          FROM occ
        )
        SELECT query_id, rank::BIGINT AS rank, term, n_occ
        FROM r WHERE rank < {SUGGEST_PHRASE_N}
"""

ORACLE_SQL["phrase_prefix_topk"] = f"""
        WITH ptok AS (
          SELECT doc_id,
                 unnest({SIMPLE_TOK_SQL}) AS term,
                 unnest(range(len({SIMPLE_TOK_SQL}))) AS pos
          FROM documents
        ), occ AS (
        {_phrase_prefix_occ_sql()}
        ), r AS (
          SELECT phrase_id, doc_id, n_occ,
                 row_number() OVER (PARTITION BY phrase_id
                                    ORDER BY n_occ DESC, doc_id ASC) - 1 AS rank
          FROM occ
        )
        SELECT phrase_id, rank::BIGINT AS rank, doc_id, n_occ
        FROM r WHERE rank < {PHRASE_TOPK}
"""


def _prox_occ_sql() -> str:
    """Per-phrase windowed chain-join chain counts, UNION ALL."""
    parts = []
    for pid, text, slop in PROX_QUERIES:
        words = text.split()
        joins = "\n          ".join(
            f"JOIN ptok t{i} ON t{i}.doc_id = t0.doc_id "
            f"AND t{i}.pos > t{i - 1}.pos AND t{i}.pos <= t{i - 1}.pos + {1 + slop} "
            f"AND t{i}.term = '{w}'"
            for i, w in enumerate(words[1:], start=1)
        )
        parts.append(
            f"""SELECT {pid} AS phrase_id, t0.doc_id, count(*)::BIGINT AS n_occ
          FROM ptok t0
          {joins}
          WHERE t0.term = '{words[0]}'
          GROUP BY t0.doc_id"""
        )
    return "\n        UNION ALL\n        ".join(parts)


ORACLE_SQL["proximity_topk"] = f"""
        WITH ptok AS (
          SELECT doc_id,
                 unnest({SIMPLE_TOK_SQL}) AS term,
                 unnest(range(len({SIMPLE_TOK_SQL}))) AS pos
          FROM documents
        ), occ AS (
        {_prox_occ_sql()}
        ), r AS (
          SELECT phrase_id, doc_id, n_occ,
                 row_number() OVER (PARTITION BY phrase_id
                                    ORDER BY n_occ DESC, doc_id ASC) - 1 AS rank
          FROM occ
        )
        SELECT phrase_id, rank::BIGINT AS rank, doc_id, n_occ
        FROM r WHERE rank < {PHRASE_TOPK}
"""

ORACLE_SQL["bm25_prefix"] = _bm25_cte_qt(
    f"""p(query_id, pref) AS (VALUES {", ".join(f"({q}, '{t}')" for q, t in PREFIX_QUERIES)}),
qt AS (
  SELECT p.query_id, v.term
  FROM p JOIN (SELECT DISTINCT t.term
               FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)) v
    ON v.term LIKE p.pref || '%'
)"""
) + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}"

ORACLE_SQL["bm25_fuzzy"] = _bm25_cte_qt(
    f"""q(query_id, qterm) AS (VALUES {", ".join(
        f"({qid}, '{tok}')" for qid, text in FUZZY_QUERIES for tok in text.split()
    )}),
qt AS (
  SELECT q.query_id, v.term
  FROM q JOIN (SELECT DISTINCT t.term
               FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)) v
    ON levenshtein(q.qterm, v.term) <= {FUZZY_DIST}
  GROUP BY q.query_id, v.term
)"""
) + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}"

# regex term expansion: DuckDB regexp_full_match is RE2 — the same
# engine (and thus the same regex language) as the Arrow kernel the
# scorer's expand_regex uses.
ORACLE_SQL["bm25_regex"] = _bm25_cte_qt(
    f"""p(query_id, pattern) AS (VALUES {", ".join(f"({q}, '{t}')" for q, t in REGEX_QUERIES)}),
qt AS (
  SELECT p.query_id, v.term
  FROM p JOIN (SELECT DISTINCT t.term
               FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)) v
    ON regexp_full_match(v.term, p.pattern)
)"""
) + f"SELECT query_id, rank, doc_id, score FROM ranked WHERE rank < {TOPK}"

# total hits = size of the candidate set (docs matching >=1 query term)
ORACLE_SQL["bm25_total_hits"] = _bm25_cte(_BM25_VALUES) + """
SELECT query_id, count(*)::BIGINT AS total_hits
FROM scores GROUP BY query_id
"""

ORACLE_SQL["bm25_range"] = _bm25_cte(_BM25_VALUES) + f"""
, kept AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, round(s.raw, 6) AS score
  FROM scores s JOIN dl ON dl.doc_id = s.doc_id
  WHERE dl.dl BETWEEN {LEN_RANGE[0]} AND {LEN_RANGE[1]}
)
SELECT query_id, rank, doc_id, score FROM kept WHERE rank < {TOPK}
"""

ORACLE_SQL["bm25_length_histogram"] = _bm25_cte(_BM25_VALUES) + f"""
SELECT s.query_id,
       (floor(dl.dl / {HIST_BUCKET_W}) * {HIST_BUCKET_W})::BIGINT AS bucket,
       count(*)::BIGINT AS n_matched
FROM scores s JOIN dl ON dl.doc_id = s.doc_id
GROUP BY s.query_id, bucket
"""

# first-hit fragmenter: earliest query-term occurrence in lower(text),
# snippet from the ORIGINAL text (ASCII corpus: lower() is
# length-preserving, so positions line up)
ORACLE_SQL["highlight"] = _bm25_cte(_BM25_VALUES) + f"""
, hits AS (SELECT query_id, doc_id FROM ranked WHERE rank < {TOPK}),
pos AS (
  SELECT h.query_id, h.doc_id,
         min(CASE WHEN strpos(lower(d.text), qt.term) > 0
                  THEN strpos(lower(d.text), qt.term) END)::BIGINT AS pos
  FROM hits h
  JOIN documents d ON d.doc_id = h.doc_id
  JOIN qt ON qt.query_id = h.query_id
  GROUP BY h.query_id, h.doc_id
)
SELECT p.query_id, p.doc_id, p.pos,
       substr(d.text, greatest(1, p.pos - {HL_BEFORE}), {HL_LEN}) AS snippet
FROM pos p JOIN documents d ON d.doc_id = p.doc_id
"""

ORACLE_SQL["suggest"] = f"""
WITH tok AS (
  SELECT doc_id, t.term FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
),
df AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term),
p(prefix_id, pref) AS (VALUES {", ".join(f"({i}, '{p}')" for i, p in SUGGEST_PREFIXES)}),
r AS (
  SELECT p.prefix_id, d.term, d.df,
         row_number() OVER (PARTITION BY p.prefix_id
                            ORDER BY d.df DESC, d.term ASC) - 1 AS rank
  FROM p JOIN df d ON d.term LIKE p.pref || '%'
)
SELECT prefix_id, rank, term, df FROM r WHERE rank < {SUGGEST_N}
"""

ORACLE_SQL["spellcheck"] = f"""
WITH tok AS (
  SELECT doc_id, t.term FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
),
df AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term),
q(query_id, token) AS (VALUES {", ".join(f"({i}, '{t}')" for i, t in SPELL_TOKENS)}),
cand AS (
  SELECT q.query_id, q.token, d.term,
         levenshtein(q.token, d.term)::BIGINT AS dist, d.df
  FROM q JOIN df d ON levenshtein(q.token, d.term) <= {SPELL_DIST}
),
best AS (
  SELECT *, row_number() OVER (PARTITION BY query_id
                               ORDER BY dist ASC, df DESC, term ASC) AS rn
  FROM cand
)
SELECT query_id, token, term AS suggestion, dist, df FROM best WHERE rn = 1
"""

ORACLE_SQL["significant_terms"] = _bm25_cte(_BM25_VALUES) + f"""
, dt AS (SELECT DISTINCT doc_id, term FROM tok),
dfi AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term),
fg AS (
  SELECT s.query_id, dt.term, count(*)::BIGINT AS fg_df
  FROM scores s JOIN dt ON dt.doc_id = s.doc_id
  GROUP BY s.query_id, dt.term
),
sig AS (
  SELECT f.query_id, f.term, f.fg_df, d.df AS bg_df,
         f.fg_df::DOUBLE / d.df AS score
  FROM fg f
  JOIN dfi d ON d.term = f.term
  LEFT JOIN qt ON qt.query_id = f.query_id AND qt.term = f.term
  WHERE f.fg_df >= {SIGTERMS_MIN_FG} AND qt.term IS NULL
),
sigranked AS (
  SELECT query_id,
         row_number() OVER (PARTITION BY query_id
                            ORDER BY score DESC, term ASC) - 1 AS rank,
         term, fg_df, bg_df, score
  FROM sig
)
SELECT query_id, rank, term, fg_df, bg_df, score
FROM sigranked WHERE rank < {SIGTERMS_K}
"""

# percolate: conjunctive containment of every stored query's term set
ORACLE_SQL["percolate"] = _bm25_cte(_BM25_VALUES) + """
, dt AS (SELECT DISTINCT doc_id, term FROM tok),
nq AS (SELECT query_id, count(*)::BIGINT AS m FROM qt GROUP BY query_id),
hit AS (
  SELECT qt.query_id, dt.doc_id
  FROM qt JOIN dt ON dt.term = qt.term
  GROUP BY qt.query_id, dt.doc_id
  HAVING count(*) = (SELECT m FROM nq WHERE nq.query_id = qt.query_id)
)
SELECT query_id, doc_id FROM hit
"""

ORACLE_SQL["index_stats"] = f"""
WITH tok AS (
  SELECT doc_id, t.term FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
)
SELECT (SELECT count(*) FROM documents)::BIGINT AS n_docs,
       count(DISTINCT term)::BIGINT AS vocab_size,
       (SELECT count(*) FROM (SELECT DISTINCT term, doc_id FROM tok))::BIGINT AS n_postings,
       count(*)::BIGINT AS total_tf
FROM tok
"""

ORACLE_SQL["bm25_negated"] = _bm25_cte(_BM25_VALUES) + f"""
, neg AS (
  SELECT DISTINCT doc_id FROM tok WHERE term IN {NEG_TERMS!r}
), kept AS (
  SELECT s.query_id,
         row_number() OVER (PARTITION BY s.query_id
                            ORDER BY round(s.raw, 6) DESC, s.doc_id ASC) - 1 AS rank,
         s.doc_id, round(s.raw, 6) AS score
  FROM scores s
  WHERE s.doc_id NOT IN (SELECT doc_id FROM neg)
)
SELECT query_id, rank, doc_id, score FROM kept WHERE rank < {TOPK}
"""

ORACLE_SQL["bm25_doc_query"] = _bm25_cte(_chunk_values()) + f"""
, best AS (
  SELECT doc_id, max(raw) AS raw, count(*)::BIGINT AS n_chunk_hits
  FROM scores GROUP BY doc_id
)
SELECT row_number() OVER (ORDER BY round(raw, 6) DESC, doc_id ASC) - 1 AS rank,
       doc_id, round(raw, 6) AS score, n_chunk_hits
FROM best
ORDER BY rank LIMIT {TOPK}
"""

def q_retrieval_eval(sf_dir: str) -> pa.Table:
    """IR-quality evaluation of the engine's own ranking (SURVEY §2
    G10 as a first-class distributed op, not just a test): relevance
    for each fixed query is conjunctive containment (a document is
    relevant iff it contains ALL the query's distinct terms), and the
    op reports per-query n_rel, hits@k over the BM25 top-``TOPK``,
    the first relevant rank, and the integer reciprocal rank
    (round(1e6/(rank+1)); 0 when no relevant doc is retrieved).

    Scale shape: the corpus pass emits a CONSTANT 8 rows per batch —
    a partial relevant-doc count plus a bitmask of which top-k ranks
    were hit (top-k doc→rank maps broadcast once via ``ray.put``;
    counts sum, bitmasks OR) — so the reduce is O(queries), never
    O(relevant docs)."""
    parts = _relevance_partials(sf_dir)
    rows = []
    for qid, _ in DOC_QUERIES:
        g = parts[parts.query_id == qid]
        n_rel = int(g["n_rel"].sum())
        mask = int(np.bitwise_or.reduce(g["hit_mask"].to_numpy())) if len(g) else 0
        hits = bin(mask).count("1")
        first = (mask & -mask).bit_length() - 1 if mask else -1
        rr = int(np.round(1e6 / (first + 1))) if first >= 0 else 0
        rows.append((qid, n_rel, hits, first, rr))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "n_rel": pa.array([r[1] for r in rows], type=pa.int64()),
            "hits_at_k": pa.array([r[2] for r in rows], type=pa.int64()),
            "first_rel_rank": pa.array([r[3] for r in rows], type=pa.int64()),
            "rr_micro": pa.array([r[4] for r in rows], type=pa.int64()),
        }
    )


def q_map_eval(sf_dir: str) -> pa.Table:
    """Average Precision @k per query (the MAP building block,
    completing the eval suite next to RR / hits@k / nDCG): over the
    engine's own BM25 top-``TOPK`` with conjunctive-containment
    relevance, AP@k = (Σ_{i-th relevant hit at rank r} P@(r+1)) /
    min(n_rel, k). Integer protocol: each precision term is
    ``((i+1)·1e6) // (r+1)`` and the final quotient is integer
    division, so both engines compute identical int64s. Same
    constant-size distributed partials as retrieval_eval (count sums +
    rank bitmask ORs)."""
    parts = _relevance_partials(sf_dir)
    rows = []
    for qid, _ in DOC_QUERIES:
        g = parts[parts.query_id == qid]
        n_rel = int(g["n_rel"].sum())
        mask = int(np.bitwise_or.reduce(g["hit_mask"].to_numpy())) if len(g) else 0
        ranks = [r for r in range(TOPK) if mask >> r & 1]
        sum_p = sum(((i + 1) * 1_000_000) // (r + 1) for i, r in enumerate(ranks))
        denom = min(n_rel, TOPK)
        ap = sum_p // denom if (ranks and denom) else 0
        rows.append((qid, n_rel, ap))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "n_rel": pa.array([r[1] for r in rows], type=pa.int64()),
            "ap_micro": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )


def _relevance_partials(sf_dir: str):
    """Shared distributed pass for the eval gates: per-batch partials
    of (relevant-doc count, bitmask of hit top-k ranks) per query,
    with the top-k doc→rank maps broadcast once via ``ray.put``."""
    import pandas as pd

    topk = q_bm25_topk(sf_dir).to_pandas()
    qterms = {
        qid: frozenset(tokenize_text(text, SQL_PARITY_CONFIG))
        for qid, text in DOC_QUERIES
    }
    rank_of = {
        qid: dict(
            zip(
                topk.loc[topk.query_id == qid, "doc_id"].astype("int64"),
                topk.loc[topk.query_id == qid, "rank"].astype("int64"),
            )
        )
        for qid, _ in DOC_QUERIES
    }
    qt_ref = ray.put((qterms, rank_of))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qts, rk = ray.get(qt_ref)
        sets = [
            set(tokenize_text(t, SQL_PARITY_CONFIG)) for t in batch["text"].tolist()
        ]
        dids = batch["doc_id"].astype("int64").to_numpy()
        out_q, out_n, out_m = [], [], []
        for qid, terms in qts.items():
            n_rel = 0
            mask = 0
            for d, s in zip(dids, sets):
                if terms <= s:
                    n_rel += 1
                    r = rk[qid].get(int(d))
                    if r is not None:
                        mask |= 1 << int(r)
            out_q.append(qid)
            out_n.append(n_rel)
            out_m.append(mask)
        return pd.DataFrame(
            {
                "query_id": np.asarray(out_q, dtype=np.int64),
                "n_rel": np.asarray(out_n, dtype=np.int64),
                "hit_mask": np.asarray(out_m, dtype=np.int64),
            }
        )

    from ..collect import collect_table

    empty = pa.schema([("query_id", pa.int64()), ("n_rel", pa.int64()), ("hit_mask", pa.int64())])
    parts = collect_table(
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        ).map_batches(partial, batch_format="pandas"),
        empty,
    ).to_pandas()
    return parts


def q_ndcg_eval(sf_dir: str) -> pa.Table:
    """nDCG@k with GRADED relevance — the standard ranked-retrieval
    quality metric over the engine's own BM25 top-``TOPK``: a
    document's grade for a query is the number of the query's DISTINCT
    terms it contains (0..m), DCG discounts each retrieved grade by
    1/log2(rank+2), and the ideal DCG takes the corpus's k best grades.
    Integer exactness: each rank's contribution is the int64
    ``round(rel·1e6 / log2(rank+2))`` so the sums are order-independent
    across engines; nDCG is reported as parts-per-million via integer
    division (no float quotient crosses the gate).

    Scale shape: one corpus pass emits per-batch partials bounded by
    queries × max-grade — a grade HISTOGRAM per query (for the ideal
    ranking, which therefore never needs a global sort) plus the ≤ k
    (rank, grade) rows for retrieved docs found in the batch (top-k
    doc→rank maps broadcast once). The reduce is O(queries · grades)."""
    import pandas as pd

    topk = q_bm25_topk(sf_dir).to_pandas()
    qterms = {
        qid: frozenset(tokenize_text(text, SQL_PARITY_CONFIG))
        for qid, text in DOC_QUERIES
    }
    rank_of = {
        qid: dict(
            zip(
                topk.loc[topk.query_id == qid, "doc_id"].astype("int64"),
                topk.loc[topk.query_id == qid, "rank"].astype("int64"),
            )
        )
        for qid, _ in DOC_QUERIES
    }
    qt_ref = ray.put((qterms, rank_of))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qts, rk = ray.get(qt_ref)
        sets = [
            set(tokenize_text(t, SQL_PARITY_CONFIG)) for t in batch["text"].tolist()
        ]
        dids = batch["doc_id"].astype("int64").to_numpy()
        out = {"query_id": [], "rank": [], "rel": [], "cnt": []}
        for qid, terms in qts.items():
            hist: dict[int, int] = {}
            for d, s in zip(dids, sets):
                rel = len(terms & s)
                if rel:
                    hist[rel] = hist.get(rel, 0) + 1
                r = rk[qid].get(int(d))
                if r is not None:  # retrieved doc: emit its grade row
                    out["query_id"].append(qid)
                    out["rank"].append(int(r))
                    out["rel"].append(rel)
                    out["cnt"].append(1)
            for rel, cnt in hist.items():  # histogram rows (rank = -1)
                out["query_id"].append(qid)
                out["rank"].append(-1)
                out["rel"].append(rel)
                out["cnt"].append(cnt)
        return pd.DataFrame({k: pd.Series(v, dtype="int64") for k, v in out.items()})

    from ..collect import collect_table

    empty = pa.schema(
        [("query_id", pa.int64()), ("rank", pa.int64()), ("rel", pa.int64()), ("cnt", pa.int64())]
    )
    parts = collect_table(
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        ).map_batches(partial, batch_format="pandas"),
        empty,
    ).to_pandas()

    def disc(rel: int, rank: int) -> int:
        return int(np.round(rel * 1e6 / np.log2(rank + 2)))

    rows = []
    for qid, _ in DOC_QUERIES:
        g = parts[parts.query_id == qid]
        dcg = int(sum(disc(int(r.rel), int(r.rank)) for r in g[g["rank"] >= 0].itertuples()))
        hist = (
            g[g["rank"] < 0]
            .groupby("rel", as_index=False)["cnt"]
            .sum()
            .sort_values("rel", ascending=False)
        )
        idcg, r = 0, 0
        for rel, cnt in zip(hist["rel"], hist["cnt"]):
            take = min(int(cnt), TOPK - r)
            for i in range(take):
                idcg += disc(int(rel), r + i)
            r += take
            if r >= TOPK:
                break
        ndcg_ppm = dcg * 1_000_000 // idcg if idcg else 0
        rows.append((qid, dcg, idcg, ndcg_ppm))
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "dcg_micro": pa.array([r[1] for r in rows], type=pa.int64()),
            "idcg_micro": pa.array([r[2] for r in rows], type=pa.int64()),
            "ndcg_ppm": pa.array([r[3] for r in rows], type=pa.int64()),
        }
    )


EXPLAIN_K = 5


def q_bm25_explain(sf_dir: str) -> pa.Table:
    """Lucene-_explain-style score breakdown as a gate: for the top-
    ``EXPLAIN_K`` docs of every fixed query, one row per MATCHING query
    term with its tf, df and round-6 BM25 contribution. The rows come
    from ``BM25Scorer.explain`` — whose total is bitwise-equal to the
    served TAAT score — so the gate proves the per-term decomposition,
    not just the sum (reference analogue: the per-sentence score
    ``components`` dict, enhanced_pipeline.py:484-500)."""
    idx = ensure_index(sf_dir)
    top = q_bm25_topk(sf_dir).to_pandas()
    top = top[top["rank"] < EXPLAIN_K]
    sc = BM25Scorer(idx, SQL_PARITY_CONFIG, mode="taat")
    qtext = dict(DOC_QUERIES)
    rows: dict[str, list] = {k: [] for k in
                             ("query_id", "rank", "doc_id", "term", "tf", "df", "contribution")}
    for qid, rank, did in zip(top["query_id"], top["rank"], top["doc_id"]):
        ex = sc.explain(qtext[int(qid)], int(did) & ((1 << 64) - 1))
        for t in ex["terms"]:
            if t["tf"] == 0:
                continue  # oracle emits only (term, doc) hits
            rows["query_id"].append(int(qid))
            rows["rank"].append(int(rank))
            rows["doc_id"].append(int(did))
            rows["term"].append(t["term"])
            rows["tf"].append(int(t["tf"]))
            rows["df"].append(int(t["df"]))
            rows["contribution"].append(round(float(t["contribution"]), 6))
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], type=pa.int64()),
            "rank": pa.array(rows["rank"], type=pa.int64()),
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "term": pa.array(rows["term"], type=pa.string()),
            "tf": pa.array(rows["tf"], type=pa.int64()),
            "df": pa.array(rows["df"], type=pa.int64()),
            "contribution": pa.array(rows["contribution"], type=pa.float64()),
        }
    )


QUERIES = {
    "docs_registry": q_docs_registry,
    "corpus_stats": q_corpus_stats,
    "term_df_top100": q_term_df_top100,
    "postings_probe": q_postings_probe,
    "bm25_topk": q_bm25_topk,
    "bm25_explain": q_bm25_explain,
    "bm25_topk_bmw": q_bm25_topk_bmw,
    "bm25_topk_lazy": q_bm25_topk_lazy,
    "bm25_decay": q_bm25_decay,
    "bm25_rank_feature": q_bm25_rank_feature,
    "lmdir_topk": q_lmdir_topk,
    "bm25plus_topk": q_bm25plus_topk,
    "bm25_stemmed": q_bm25_stemmed,
    "bm25_sort_field": q_bm25_sort_field,
    "bm25_merged": q_bm25_merged,
    "bm25_boosting": q_bm25_boosting,
    "bm25_constant_score": q_bm25_constant_score,
    "bm25_must": q_bm25_must,
    "rrf_topk": q_rrf_topk,
    "hybrid_rrf": q_hybrid_rrf,
    "bm25_rerank": q_bm25_rerank,
    "bm25_rm3": q_bm25_rm3,
    "bm25_facets": q_bm25_facets,
    "bm25_hydrated": q_bm25_hydrated,
    "bm25_filtered": q_bm25_filtered,
    "bm25_structured": q_bm25_structured,
    "positions_probe": q_positions_probe,
    "bm25_collapse": q_bm25_collapse,
    "bm25_page2": q_bm25_page2,
    "bm25_tombstone": q_bm25_tombstone,
    "bm25_negated": q_bm25_negated,
    "bm25_prefix": q_bm25_prefix,
    "bm25_fuzzy": q_bm25_fuzzy,
    "bm25_regex": q_bm25_regex,
    "bm25_total_hits": q_bm25_total_hits,
    "bm25_dismax": q_bm25_dismax,
    "bm25_range": q_bm25_range,
    "bm25_length_histogram": q_bm25_length_histogram,
    "index_stats": q_index_stats,
    "highlight": q_highlight,
    "suggest": q_suggest,
    "spellcheck": q_spellcheck,
    "significant_terms": q_significant_terms,
    "percolate": q_percolate,
    "phrase_index_topk": q_phrase_index_topk,
    "phrase_prefix_topk": q_phrase_prefix_topk,
    "suggest_phrase": q_suggest_phrase,
    "proximity_topk": q_proximity_topk,
    "bm25_more_like_this": q_bm25_more_like_this,
    "bm25_conjunctive": q_bm25_conjunctive,
    "bm25_msm": q_bm25_msm,
    "bm25_synonyms": q_bm25_synonyms,
    "bm25_boosted": q_bm25_boosted,
    "bm25_fielded": q_bm25_fielded,
    "bm25_doc_query": q_bm25_doc_query,
    "exact_dedup": q_exact_dedup,
    "retrieval_eval": q_retrieval_eval,
    "map_eval": q_map_eval,
    "ndcg_eval": q_ndcg_eval,
}


# ---- term vectors (ES _termvectors parity) ---------------------------------

TV_N_DOCS = 8  # fixed probe-doc prefix for the gate


def term_df_lookup(index_dir: str, terms: list[str]) -> dict[str, int]:
    """Exact-term df lookup against the built index's vocabulary —
    the ``term_dict`` sidecar when present (globally sorted, so the
    ``in`` filter prunes to the touched parquet row groups), else the
    postings partitions' (term, df) columns. df rows are SUMMED per
    term so salted hot-term runs aggregate exactly. Reads only the
    requested term set — never the whole vocabulary."""
    import pyarrow.parquet as pq

    from ..scorer import _vocab_sources

    want = sorted(set(terms))
    agg: dict[str, int] = {}
    for f in _vocab_sources(index_dir)[0]:
        t = pq.read_table(f, columns=["term", "df"], filters=[("term", "in", want)])
        for term, df in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            agg[term] = agg.get(term, 0) + int(df)
    return agg


def q_term_vectors(sf_dir: str) -> pa.Table:
    """ES ``_termvectors`` analogue (the reference's per-document term
    statistics surface): for each probe doc, one row per distinct term
    with its in-doc tf, corpus df, and the round-6 tf·idf weight (the
    engine's BM25 idf). tf is computed doc-side from the stored
    content (term vectors are a per-doc artifact, exactly how Lucene
    stores them); df comes from the INDEX via the pruned term_dict
    lookup — so the gate also proves sidecar df == SQL df on the
    probed vocabulary."""
    import json
    from collections import Counter

    idx = ensure_index(sf_dir)
    with open(os.path.join(idx, "corpus_stats.json")) as f:
        n = float(json.load(f)["n_docs"])
    import pyarrow.parquet as pq

    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filters=[("doc_id", "<", TV_N_DOCS)],
    )
    per_doc: list[tuple[int, Counter]] = [
        (int(d), Counter(tokenize_text(t, SQL_PARITY_CONFIG)))
        for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    ]
    vocab = sorted({t for _, c in per_doc for t in c})
    df = term_df_lookup(idx, vocab)
    rows: dict[str, list] = {k: [] for k in ("doc_id", "term", "tf", "df", "tfidf")}
    for did, counts in per_doc:
        for term in sorted(counts):
            tf, d = counts[term], df[term]
            rows["doc_id"].append(did)
            rows["term"].append(term)
            rows["tf"].append(tf)
            rows["df"].append(d)
            rows["tfidf"].append(round(tf * np.log(1.0 + (n - d + 0.5) / (d + 0.5)), 6))
    return pa.table(
        {
            "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
            "term": pa.array(rows["term"], type=pa.string()),
            "tf": pa.array(rows["tf"], type=pa.int64()),
            "df": pa.array(rows["df"], type=pa.int64()),
            "tfidf": pa.array(rows["tfidf"], type=pa.float64()),
        }
    )


# ---- hard-negative mining (contrastive training data) ----------------------

HARD_NEG_K = 5


def q_hard_negatives(sf_dir: str) -> pa.Table:
    """DPR-style BM25 hard-negative mining for retriever training: per
    query, the positive is the top-ranked document (round-6 protocol)
    and the negatives are the next-ranked documents EXCLUDING any doc
    whose content sha256 equals the positive's — the standard
    false-negative guard (an exact duplicate of the positive must
    never be labeled negative). Emits (query_id, neg_rank, doc_id,
    score). Serving runs through the actor-pool path; the sha guard
    hydrates only the narrow (doc_id, content_sha256) registry columns
    (at corpus scale the candidate set is k·n_queries rows, so the
    hydration is a pruned read of that sliver, not the registry)."""
    from ..state.fsio import glob_parquet

    idx = ensure_index(sf_dir)
    n_docs = BM25Scorer(idx, SQL_PARITY_CONFIG, mode="taat").n_docs
    qtbl = pa.table(
        {
            "query_id": pa.array([q for q, _ in DOC_QUERIES], type=pa.int64()),
            "text": pa.array([t for _, t in DOC_QUERIES], type=pa.string()),
            "k": pa.array([n_docs] * len(DOC_QUERIES), type=pa.uint32()),
        }
    )
    res = query_index(
        ray.data.from_arrow(qtbl), idx, SQL_PARITY_CONFIG, mode="taat", concurrency=2
    ).to_pandas()
    import pyarrow.parquet as pq

    sha_t = pa.concat_tables(
        [pq.read_table(f, columns=["doc_id", "content_sha256"]) for f in glob_parquet(os.path.join(idx, "docs"))]
    )
    sha = dict(
        zip(
            pc.cast(sha_t["doc_id"], pa.int64()).to_pylist(),
            sha_t["content_sha256"].to_pylist(),
        )
    )
    qids, nranks, dids, scores = [], [], [], []
    for qid, _text in DOC_QUERIES:
        g = res[res.query_id == qid]
        d = g["doc_id"].to_numpy().astype(np.uint64)
        s6 = np.round(g["score"].to_numpy(), 6)
        order = np.lexsort((d, -s6))
        d, s6 = d[order].astype(np.int64), s6[order]
        if not d.size:
            continue
        pos_sha = sha[int(d[0])]
        kept = 0
        for i in range(1, d.size):
            if kept >= HARD_NEG_K:
                break
            if sha[int(d[i])] == pos_sha:
                continue
            qids.append(qid)
            nranks.append(kept)
            dids.append(int(d[i]))
            scores.append(float(s6[i]))
            kept += 1
    return pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "neg_rank": pa.array(nranks, type=pa.int64()),
            "doc_id": pa.array(dids, type=pa.int64()),
            "score": pa.array(scores, type=pa.float64()),
        }
    )


QUERIES["term_vectors"] = q_term_vectors
QUERIES["hard_negatives"] = q_hard_negatives

ORACLE_SQL["term_vectors"] = f"""
WITH tok AS (
  SELECT doc_id, t.term FROM documents, unnest({SIMPLE_TOK_SQL}) AS t(term)
),
tf AS (
  SELECT doc_id, term, count(*)::BIGINT AS tf
  FROM tok WHERE doc_id < {TV_N_DOCS} GROUP BY doc_id, term
),
df AS (SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term),
n AS (SELECT count(*)::DOUBLE AS n FROM documents)
SELECT tf.doc_id, tf.term, tf.tf, df.df,
       round(tf.tf * ln(1 + (n.n - df.df + 0.5) / (df.df + 0.5)), 6) AS tfidf
FROM tf JOIN df USING (term) CROSS JOIN n
"""

ORACLE_SQL["hard_negatives"] = BM25_CTE + f"""
, pos AS (SELECT query_id, doc_id AS pos_doc FROM ranked WHERE rank = 0),
shas AS (SELECT doc_id, sha256(text) AS sha FROM documents),
neg AS (
  SELECT r.query_id, r.doc_id, r.score,
         row_number() OVER (PARTITION BY r.query_id ORDER BY r.rank) - 1 AS neg_rank
  FROM ranked r
  JOIN pos p ON p.query_id = r.query_id
  JOIN shas sd ON sd.doc_id = r.doc_id
  JOIN shas sp ON sp.doc_id = p.pos_doc
  WHERE r.doc_id != p.pos_doc AND sd.sha != sp.sha
)
SELECT query_id, neg_rank, doc_id, score FROM neg WHERE neg_rank < {HARD_NEG_K}
"""
