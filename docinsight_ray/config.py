"""Engine configuration.

One frozen dataclass resolved at job submit, recorded (hashed) in the
build manifest for lineage — replaces the reference's mutable module
of env-var lookups (/root/reference/config.py:27-88,160-270).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

# Bump when tokenizer / codec / scoring semantics change: the version is
# folded into config_hash, which is part of every build fingerprint, so
# cached /tmp indexes from older engine semantics can never be resumed.
# r2.1: encoded salted partial runs + df sidecars (partial/ format change)
# r3.1: term_bucket hash switched pandas.hash_array -> polars Arrow-native
#       string hash (different bucket routing; old postings partitions
#       would be misrouted at serve time)
ENGINE_VERSION = "r3.1"


@dataclass(frozen=True)
class EngineConfig:
    # BM25 parameters (north rule: k1=1.2, b=0.75)
    k1: float = 1.2
    b: float = 0.75
    # LM Dirichlet smoothing (mode="lmdir" query-likelihood scoring)
    mu: float = 2000.0
    # BM25+ lower bound (mode="bm25plus"): each matched term adds
    # idf·delta on top of the saturated-tf contribution, so long
    # documents that DO contain a query term can never score below
    # the tf→0 asymptote of documents that merely approach it
    # (Lv & Zhai, CIKM 2011, who recommend delta=1.0).
    delta: float = 1.0

    # Tokenizer: "code" = identifier-splitting code tokenizer;
    # "simple" = lowercase [a-z0-9]+ runs (SQL-parity mode used by the
    # DuckDB oracle gate).
    tokenizer: str = "code"
    min_token_len: int = 2
    max_token_len: int = 64
    stopwords: tuple[str, ...] = ()
    # Analyzer stemming stage: "none" (default) or "s" — the Harman
    # (1991) S-stemmer (plural conflation), applied AFTER length +
    # stopword filtering. Index and query sides share the config, so
    # stems always match; the rule set is SQL-expressible (one CASE),
    # keeping stemmed retrieval fully oracle-checkable.
    stemmer: str = "none"
    # Strip //…, /*…*/ comments and string literals before tokenizing
    # (the code-corpus analogue of the reference's citation masking,
    # /root/reference/ingestion/citation_mask.py:47-136). Default off:
    # tokens stay derivable from the sha256-traceable raw content.
    strip_comments: bool = False

    # Index layout
    num_buckets: int = 32          # term-hash partitions (the wide shuffle key)
    block_size: int = 128          # postings per block-max block
    # Skew: terms whose df exceeds hot_df_ratio * n_docs are salted into
    # hot_salt sub-groups during the merge shuffle (SURVEY.md §4.3).
    hot_df_ratio: float = 0.10
    hot_salt: int = 4

    # doc_id assignment: "hash" = first 8 bytes of sha256(repo|path|commit)
    # (deterministic, cluster-safe); "column" = pass through an existing
    # int64 `doc_id` column (used for the driver's `documents` table).
    doc_id_mode: str = "hash"

    # Dedup by content_sha256 (keep-first). Mirrors the reference's
    # idempotent re-ingest skip (/root/reference/ingestion/pipeline_ingest.py:266-269).
    dedup: bool = True
    # Key-set filters (dedup losers, seen shas) ship via ray.put +
    # Arrow is_in up to this many keys; above it they switch to a
    # hash-partitioned Dataset.join anti-join (docinsight_ray.joins) so
    # no single process ever holds the key set. ~1e6 keys ≈ tens of MB
    # broadcast — comfortably under a worker heap; tune per cluster.
    broadcast_limit: int = 1_000_000

    # Execution sizing
    tokenize_batch_size: int = 256
    scorer_concurrency: int = 4
    query_batch_size: int = 64
    # per-actor decoded-postings LRU budget (MB); decoded hot lists are
    # ~16 B/posting, so 256 MB holds ~16M decoded postings
    decode_cache_mb: int = 256

    def config_hash(self) -> str:
        # The polars version pins the term_bucket hash function (ahash
        # keys are fixed per release, not per API contract): an
        # environment upgrade that changes it must invalidate cached
        # indexes rather than silently misroute term lookups.
        import polars as pl

        payload = {
            "engine_version": ENGINE_VERSION,
            "term_hash": f"polars-{pl.__version__}",
            **asdict(self),
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True, default=str).encode()
        ).hexdigest()[:16]


DEFAULT_CONFIG = EngineConfig()
# SQL-parity configuration used for the DuckDB correctness gate: the
# simple tokenizer is exactly replicable as
# regexp_extract_all(lower(text), '[a-z0-9]+') + length>=2 in SQL.
SQL_PARITY_CONFIG = EngineConfig(tokenizer="simple", doc_id_mode="column", dedup=False)
