"""Positional index + index-served PHRASE queries.

The reference's phrase handling is substring scanning over raw
document text (mirrored by ``functions/textstats.py:q_phrase_match``);
a fulltext engine serves phrases from a POSITIONAL index instead:
per-(term, doc) occurrence positions, phrase matching by position
intersection — no document text touched at query time.

Layout: ``<root>/bucket=<b>/*.parquet`` with one row per (term, doc):

    term: string, doc_id: uint64, npos: uint32, pos_vb: binary

``pos_vb`` is the doc's occurrence positions (indices into the
FILTERED token stream — the same sequence the tokenizer emits, so
adjacency is indexed-token adjacency, the standard semantics when
tokenization drops short/stop tokens) delta+varbyte encoded with the
same codec the BM25 postings use.

Build is ONE narrow ``map_batches`` pass with a hive-partitioned
write — no merge shuffle needed: every doc lives in exactly one input
batch, so (term, doc) rows are unique by construction and the bucket
partitioning just routes rows for bucket-pruned serving I/O. At
10^12 docs this is the cheapest possible index build shape: the only
wide operation is the partitioned write itself.

Serving reads ONLY the buckets of the query's terms and filters rows
by term (the BM25 scorer's term→partition routing, reused). Phrase
matching is fully vectorized: each term's (doc, pos) pairs become
composite keys ``local_doc_idx * 2^32 + (pos - phrase_offset)`` and
the phrase's start positions are the running ``np.intersect1d`` of the
key arrays, rarest term first.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..codec import binary_payload, delta_decode_runs, varbyte_encode, varbyte_lengths
from ..config import EngineConfig
from ..ids import doc_id_from_key, term_bucket
from ..tokenizer import tokenize_text

POS_SCHEMA = pa.schema(
    [
        ("bucket", pa.int64()),
        ("term", pa.string()),
        ("doc_id", pa.uint64()),
        ("npos", pa.uint32()),
        ("pos_vb", pa.binary()),
    ]
)


def build_positional_index(
    corpus_ds: "ray.data.Dataset",
    out_dir: str,
    cfg: EngineConfig | None = None,
    fingerprint: str = "",
) -> dict:
    """corpus Dataset → hive-partitioned positional index at out_dir.

    Returns the stats dict (also persisted as ``pos_stats.json``).
    Re-running with the same out_dir overwrites (single-pass build —
    cheap enough that per-partition resume isn't warranted; the BM25
    index, which IS expensive, carries the manifest machinery).
    """
    cfg = cfg or EngineConfig()

    empty_out = pa.table(
        {
            "bucket": pa.array([], type=pa.int64()),
            "term": pa.array([], type=pa.string()),
            "doc_id": pa.array([], type=pa.uint64()),
            "npos": pa.array([], type=pa.uint32()),
            "pos_vb": pa.array([], type=pa.binary()),
        }
    )

    def explode(batch: pa.Table) -> pa.Table:
        """Fully batch-vectorized (term, doc) position-list extraction:
        one flat (term_id, doc_idx) lexsort over every token in the
        batch, vectorized within-segment delta encode, ONE
        ``varbyte_encode`` call over the whole batch, and zero-copy
        binary slicing via an Arrow offsets buffer — no per-token or
        per-posting Python work (the per-doc-dict version this
        replaces was the build's bottleneck)."""
        if cfg.doc_id_mode == "column":
            doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        else:
            doc_ids = doc_id_from_key(
                batch["repo"].to_pylist(), batch["path"].to_pylist(), batch["commit"].to_pylist()
            )
        tok_lists = [tokenize_text(t, cfg) for t in batch["content"].to_pylist()]
        lens = np.fromiter((len(ts) for ts in tok_lists), dtype=np.int64, count=len(tok_lists))
        n_tok = int(lens.sum())
        if n_tok == 0:
            return empty_out
        flat_terms = np.empty(n_tok, dtype=object)
        pos = 0
        for ts in tok_lists:
            flat_terms[pos : pos + len(ts)] = ts
            pos += len(ts)
        doc_idx = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
        doc_starts = np.concatenate(([0], np.cumsum(lens)[:-1]))
        tok_pos = (np.arange(n_tok, dtype=np.int64) - doc_starts[doc_idx]).astype(np.uint64)
        uniq, inv = np.unique(flat_terms, return_inverse=True)
        # sort every token by (term, doc); tok_pos stays ascending
        # within each (term, doc) segment because the sort is stable
        order = np.lexsort((doc_idx, inv))
        inv_s, doc_s, pos_s = inv[order], doc_idx[order], tok_pos[order]
        seg_start_mask = np.empty(n_tok, dtype=bool)
        seg_start_mask[0] = True
        np.logical_or(
            inv_s[1:] != inv_s[:-1], doc_s[1:] != doc_s[:-1], out=seg_start_mask[1:]
        )
        seg_starts = np.flatnonzero(seg_start_mask)
        npos = np.diff(np.append(seg_starts, n_tok)).astype(np.uint32)
        # within-segment delta encode (first value absolute, diffs after)
        deltas = pos_s.copy()
        deltas[1:] -= pos_s[:-1]
        deltas[seg_starts] = pos_s[seg_starts]
        data = varbyte_encode(deltas)
        byte_lens = np.add.reduceat(varbyte_lengths(deltas), seg_starts)
        offsets = np.zeros(seg_starts.size + 1, dtype=np.int32)
        np.cumsum(byte_lens, out=offsets[1:])
        pos_vb = pa.Array.from_buffers(
            pa.binary(), seg_starts.size,
            [None, pa.py_buffer(offsets.tobytes()), pa.py_buffer(data)],
        )
        tarr = uniq[inv_s[seg_starts]]
        return pa.table(
            {
                "bucket": pa.array(
                    term_bucket(tarr, cfg.num_buckets).astype(np.int64), type=pa.int64()
                ),
                "term": pa.array(tarr, type=pa.string()),
                "doc_id": pa.array(doc_ids[doc_s[seg_starts]], type=pa.uint64()),
                "npos": pa.array(npos, type=pa.uint32()),
                "pos_vb": pos_vb,
            }
        )

    from ..state.fsio import makedirs, write_bytes_atomic

    makedirs(out_dir)
    corpus_ds.map_batches(explode, batch_format="pyarrow").write_parquet(
        out_dir, partition_cols=["bucket"]
    )
    from ..ids import term_hash_canary

    stats = {
        "num_buckets": int(cfg.num_buckets),
        "tokenizer": cfg.tokenizer,
        "stemmer": cfg.stemmer,
        "stopwords": list(cfg.stopwords),
        "fingerprint": fingerprint,
        "term_hash_canary": term_hash_canary(),
    }
    write_bytes_atomic(os.path.join(out_dir, "pos_stats.json"), json.dumps(stats).encode())
    return stats


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two SORTED unique uint64 arrays via one
    searchsorted — no re-sort (np.intersect1d concatenates + sorts,
    which dominated the warm phrase-serving profile)."""
    if a.size == 0 or b.size == 0:
        return a[:0]
    if a.size > b.size:
        a, b = b, a
    sel = np.searchsorted(b, a)
    mask = sel < b.size
    mask[mask] = b[sel[mask]] == a[mask]
    return a[mask]


class PhraseScorer:
    """Actor-pool phrase server over a positional index.

    ``__init__`` resolves the bucket layout once; term positions load
    lazily on first touch (bucket-pruned parquet read, term-filtered)
    into a per-actor cache. ``__call__`` serves a batch of
    (phrase_id, text, k) rows → (phrase_id, rank, doc_id, n_occ).
    """

    def __init__(self, pos_dir: str, cfg: EngineConfig | None = None):
        from .. import state

        self.cfg = cfg or EngineConfig()
        self.pos_dir = pos_dir
        from ..state.fsio import glob_parquet, read_bytes

        raw = read_bytes(os.path.join(pos_dir, "pos_stats.json"))
        if raw is None:
            raise FileNotFoundError(
                f"{pos_dir}/pos_stats.json: not a built positional index"
            )
        st = json.loads(raw)
        from ..ids import check_term_hash_canary

        check_term_hash_canary(st, f"PositionalSearcher({pos_dir})")
        self.num_buckets = int(st["num_buckets"])
        self._bucket_files: dict[int, list[str]] = {}
        for f in glob_parquet(pos_dir):
            part = f.rsplit("/bucket=", 1)[-1].split("/", 1)[0]
            try:
                self._bucket_files.setdefault(int(part), []).append(f)
            except ValueError:
                continue
        # term → (sorted doc_ids, per-doc position arrays flat, offsets)
        self._cache: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def _term_positions(self, term: str):
        """(doc_ids sorted asc, flat positions, offsets) for a term —
        offsets[i]:offsets[i+1] slices doc i's positions."""
        hit = self._cache.get(term)
        if hit is not None:
            return hit
        b = int(term_bucket(np.asarray([term], dtype=object), self.num_buckets)[0])
        files = self._bucket_files.get(b, [])
        tables = []
        for f in files:
            t = pq.read_table(
                f, columns=["term", "doc_id", "npos", "pos_vb"],
                filters=[("term", "==", term)],
            )
            if t.num_rows:
                tables.append(t)
        if not tables:
            out = (np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.uint64),
                   np.zeros(1, dtype=np.int64))
            self._cache[term] = out
            return out
        t = pa.concat_tables(tables)
        docs = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(docs, kind="stable")
        # ONE varbyte decode over the whole term (entries in file
        # order), vectorized per-segment cumsum (delta_decode_runs),
        # then one gather into doc-sorted segment order — no
        # per-posting Python decode calls
        npos_f = t["npos"].to_numpy(zero_copy_only=False).astype(np.int64)
        total = int(npos_f.sum())
        starts_f = np.cumsum(npos_f) - npos_f
        pos_file = delta_decode_runs(binary_payload(t["pos_vb"]), npos_f)
        npos_s = npos_f[order]
        ends_s = np.cumsum(npos_s)
        starts_s = ends_s - npos_s
        gather = (
            np.arange(total, dtype=np.int64)
            - np.repeat(starts_s, npos_s)
            + np.repeat(starts_f[order], npos_s)
        )
        offsets = np.concatenate([[0], ends_s])
        out = (docs[order], pos_file[gather], offsets)
        self._cache[term] = out
        return out

    def _vocab_prefix(self, prefix: str, limit: int) -> list[str]:
        """First ``limit`` index-vocabulary terms starting with
        ``prefix`` (sorted asc — the deterministic expansion order the
        oracle replicates). The sorted vocabulary is a column-only scan
        cached ONCE per actor (this is the per-keystroke autocomplete
        path — re-reading every bucket's term column per query would
        be full-index I/O); lookups are a bisect range."""
        vocab = getattr(self, "_vocab", None)
        if vocab is None:
            terms: set[str] = set()
            for files in self._bucket_files.values():
                for f in files:
                    terms.update(pq.read_table(f, columns=["term"])["term"].to_pylist())
            vocab = self._vocab = sorted(terms)
        import bisect

        lo = bisect.bisect_left(vocab, prefix)
        hi = bisect.bisect_left(vocab, prefix[:-1] + chr(ord(prefix[-1]) + 1))
        return vocab[lo:hi][:limit]

    def _start_keys(self, entry, offset: int, cand_docs: np.ndarray) -> np.ndarray:
        """All (candidate-doc, start-position) composite keys a term at
        phrase offset ``offset`` admits — vectorized gather of the
        candidates' position slices (keys are local-doc-index·2^32 +
        (pos - offset))."""
        SHIFT = np.uint64(1) << np.uint64(32)
        docs, flat, offsets = entry
        sel = np.searchsorted(docs, cand_docs)
        # candidates absent from this term's postings contribute nothing
        present = (sel < docs.size)
        present[present] = docs[sel[present]] == cand_docs[present]
        lens = np.where(present, offsets[np.minimum(sel, docs.size - 1) + 1]
                        - offsets[np.minimum(sel, docs.size - 1)], 0)
        total = int(lens.sum())
        if total == 0:
            return np.empty(0, dtype=np.uint64)
        starts_rep = np.repeat(offsets[np.minimum(sel, docs.size - 1)], lens)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
        )
        ps = flat[starts_rep + within]
        owner = np.repeat(np.arange(cand_docs.size, dtype=np.uint64), lens)
        if offset:
            keep = ps >= np.uint64(offset)
            ps, owner = ps[keep], owner[keep]
        return owner * SHIFT + (ps - np.uint64(offset))

    def phrase_prefix_occurrences(
        self, text: str, k: int, max_expansions: int = 50
    ) -> tuple[np.ndarray, np.ndarray]:
        """Elasticsearch ``match_phrase_prefix``: the LAST whitespace
        chunk of ``text`` is a term PREFIX; a doc matches where the
        fixed words occur in order immediately followed by ANY
        vocabulary term starting with the prefix (first
        ``max_expansions`` expansions in sorted term order — ES's
        deterministic cap). Counts are distinct start positions (one
        token occupies a position, so expansions never double-count a
        start). The autocomplete-as-you-type serving shape."""
        chunks = text.lower().split()
        if not chunks:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        prefix = "".join(c for c in chunks[-1] if c.isalnum())
        fixed = tokenize_text(" ".join(chunks[:-1]), self.cfg)
        if not prefix:
            return self.phrase_occurrences(" ".join(chunks[:-1]), k)
        exps = self._vocab_prefix(prefix, max_expansions)
        if not exps:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        posts_f = [self._term_positions(w) for w in fixed]
        if any(p[0].size == 0 for p in posts_f):
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        exp_posts = [self._term_positions(e) for e in exps]
        exp_docs = np.unique(np.concatenate([p[0] for p in exp_posts]))
        cand_docs = exp_docs
        for docs, _f, _o in posts_f:
            cand_docs = _intersect_sorted(cand_docs, docs)
        if cand_docs.size == 0:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        last_off = len(fixed)
        last = np.unique(
            np.concatenate([self._start_keys(p, last_off, cand_docs) for p in exp_posts])
        )
        starts = last
        for i, p in enumerate(posts_f):
            if starts.size == 0:
                break
            starts = _intersect_sorted(starts, self._start_keys(p, i, cand_docs))
        if starts.size == 0:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        SHIFT = np.uint64(1) << np.uint64(32)
        local = (starts // SHIFT).astype(np.int64)
        uniq, counts = np.unique(local, return_counts=True)
        docs_out = cand_docs[uniq]
        order = np.lexsort((docs_out, -counts))[:k]
        return docs_out[order], counts[order].astype(np.int64)

    def phrase_prefix_completions(
        self, text: str, n: int = 5, max_expansions: int = 50
    ) -> list[tuple[str, int]]:
        """Contextual autocomplete (search_as_you_type): complete the
        trailing prefix of ``text`` ranked by how often the COMPLETED
        PHRASE occurs in the corpus — "data s" → [("stream", 41),
        ("scan", 17), …] — not by bare document frequency (that is
        ``suggest_terms``). Ties break by term asc. Reuses the
        phrase-prefix machinery: per expansion, count the start
        positions where the fixed words immediately precede it."""
        chunks = text.lower().split()
        if not chunks:
            return []
        prefix = "".join(c for c in chunks[-1] if c.isalnum())
        fixed = tokenize_text(" ".join(chunks[:-1]), self.cfg)
        if not prefix:
            return []
        exps = self._vocab_prefix(prefix, max_expansions)
        if not exps:
            return []
        posts_f = [self._term_positions(w) for w in fixed]
        if any(p[0].size == 0 for p in posts_f):
            return []
        out = []
        for e in exps:
            ep = self._term_positions(e)
            if not fixed:
                total = int(ep[2][-1])  # all positions of the bare term
                out.append((e, total))
                continue
            cand = ep[0]
            for docs, _f, _o in posts_f:
                cand = _intersect_sorted(cand, docs)
            if cand.size == 0:
                out.append((e, 0))
                continue
            starts = self._start_keys(ep, len(fixed), cand)
            for i, p in enumerate(posts_f):
                if starts.size == 0:
                    break
                starts = _intersect_sorted(starts, self._start_keys(p, i, cand))
            out.append((e, int(starts.size)))
        out = [(t, c) for t, c in out if c > 0]
        out.sort(key=lambda tc: (-tc[1], tc[0]))
        return out[:n]

    def phrase_occurrences(self, text: str, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (doc_ids, n_occurrences) for the phrase, ranked by
        (n_occ desc, doc_id asc). Overlapping occurrences count."""
        words = tokenize_text(text, self.cfg)
        if not words:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        posts = [self._term_positions(w) for w in words]
        if any(p[0].size == 0 for p in posts):
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        # candidate docs: intersection, seeded from the rarest term
        rare = min(range(len(words)), key=lambda i: posts[i][0].size)
        cand_docs = posts[rare][0]
        for i, (docs, _f, _o) in enumerate(posts):
            if i == rare:
                continue
            cand_docs = _intersect_sorted(cand_docs, docs)
        if cand_docs.size == 0:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        # composite keys: local doc index * 2^32 + (pos - phrase_offset)
        SHIFT = np.uint64(1) << np.uint64(32)

        def keys_for(i: int) -> np.ndarray:
            """All (candidate-doc, start-position) keys term i admits —
            fully vectorized gather of the candidates' position slices."""
            docs, flat, offsets = posts[i]
            sel = np.searchsorted(docs, cand_docs)
            lens = offsets[sel + 1] - offsets[sel]
            total = int(lens.sum())
            if total == 0:
                return np.empty(0, dtype=np.uint64)
            # flat indices of every candidate's positions: repeat each
            # slice start, then add 0..len-1 within each slice
            starts_rep = np.repeat(offsets[sel], lens)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
            )
            ps = flat[starts_rep + within]
            owner = np.repeat(
                np.arange(cand_docs.size, dtype=np.uint64), lens
            )
            if i:
                keep = ps >= np.uint64(i)
                ps, owner = ps[keep], owner[keep]
            return owner * SHIFT + (ps - np.uint64(i))

        starts = keys_for(0)
        for i in range(1, len(words)):
            if starts.size == 0:
                break
            starts = _intersect_sorted(starts, keys_for(i))
        if starts.size == 0:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        local = (starts // SHIFT).astype(np.int64)
        uniq, counts = np.unique(local, return_counts=True)
        docs_out = cand_docs[uniq]
        order = np.lexsort((docs_out, -counts))[:k]
        return docs_out[order], counts[order].astype(np.int64)

    def proximity_occurrences(
        self, text: str, k: int, slop: int = 0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (doc_ids, n_chains) for an ORDERED proximity match:
        positions p0 < p1 < … < pm-1 with each gap 1 ≤ pᵢ-pᵢ₋₁ ≤ 1+slop.
        ``slop=0`` is the exact phrase. Counts CHAINS (every admissible
        combination), the same quantity a positional chain join counts.

        Vectorized DP over composite (doc, position) keys: term i's
        weight at position p is the windowed sum of term i-1's weights
        over [p-1-slop, p-1], computed for ALL candidate docs at once
        with one prefix-sum + two searchsorteds per term — doc
        boundaries can't leak because a window of width 1+slop ≪ 2^32
        never crosses adjacent doc keys."""
        words = tokenize_text(text, self.cfg)
        if not words:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        posts = [self._term_positions(w) for w in words]
        if any(p[0].size == 0 for p in posts):
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        rare = min(range(len(words)), key=lambda i: posts[i][0].size)
        cand_docs = posts[rare][0]
        for i, (docs, _f, _o) in enumerate(posts):
            if i == rare:
                continue
            cand_docs = _intersect_sorted(cand_docs, docs)
        if cand_docs.size == 0:
            return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        # int64 keys: the window subtraction k-(1+slop) must not wrap
        # at position 0 of candidate-doc 0 (uint64 would underflow)
        SHIFT = np.int64(1) << np.int64(32)

        def doc_pos_keys(i: int) -> tuple[np.ndarray, np.ndarray]:
            """(sorted composite keys, owner local idx) of term i's
            positions within the candidate docs."""
            docs, flat, offsets = posts[i]
            sel = np.searchsorted(docs, cand_docs)
            lens = offsets[sel + 1] - offsets[sel]
            total = int(lens.sum())
            starts_rep = np.repeat(offsets[sel], lens)
            within = np.arange(total, dtype=np.int64) - np.repeat(
                np.concatenate([[0], np.cumsum(lens)[:-1]]), lens
            )
            ps = flat[starts_rep + within].astype(np.int64)
            owner = np.repeat(np.arange(cand_docs.size, dtype=np.int64), lens)
            return owner * SHIFT + ps, owner

        keys_prev, owner_prev = doc_pos_keys(0)
        w_prev = np.ones(keys_prev.size, dtype=np.int64)
        for i in range(1, len(words)):
            keys_i, owner_i = doc_pos_keys(i)
            cum = np.concatenate([[0], np.cumsum(w_prev)])
            lo = np.searchsorted(keys_prev, keys_i - np.int64(1 + slop))
            hi = np.searchsorted(keys_prev, keys_i)
            w_i = cum[hi] - cum[lo]
            keep = w_i > 0
            keys_prev, owner_prev, w_prev = keys_i[keep], owner_i[keep], w_i[keep]
            if keys_prev.size == 0:
                return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        counts = np.bincount(
            owner_prev.astype(np.int64), weights=w_prev, minlength=cand_docs.size
        ).astype(np.int64)
        nz = np.flatnonzero(counts)
        docs_out, c = cand_docs[nz], counts[nz]
        order = np.lexsort((docs_out, -c))[:k]
        return docs_out[order], c[order]

    def __call__(self, batch: pa.Table) -> pa.Table:
        pids, ranks, docs, occs = [], [], [], []
        slops = (
            batch["slop"].to_pylist()
            if "slop" in batch.column_names
            else [0] * batch.num_rows
        )
        prefixes = (
            batch["prefix"].to_pylist()
            if "prefix" in batch.column_names
            else [False] * batch.num_rows
        )
        for pid, text, k, slop, pref in zip(
            batch["phrase_id"].to_pylist(), batch["text"].to_pylist(),
            batch["k"].to_pylist(), slops, prefixes,
        ):
            if pref:
                d, c = self.phrase_prefix_occurrences(text, int(k))
            elif slop:
                d, c = self.proximity_occurrences(text, int(k), slop=int(slop))
            else:
                d, c = self.phrase_occurrences(text, int(k))
            pids += [pid] * d.size
            ranks += list(range(d.size))
            docs.append(d)
            occs.append(c)
        return pa.table(
            {
                "phrase_id": pa.array(pids, type=pa.int64()),
                "rank": pa.array(np.asarray(ranks, dtype=np.int64), type=pa.int64()),
                "doc_id": pa.array(
                    np.concatenate(docs) if docs else np.empty(0, dtype=np.uint64),
                    type=pa.uint64(),
                ),
                "n_occ": pa.array(
                    np.concatenate(occs) if occs else np.empty(0, dtype=np.int64),
                    type=pa.int64(),
                ),
            }
        )


def query_phrases(
    phrases: "ray.data.Dataset",
    pos_dir: str,
    cfg: EngineConfig | None = None,
    concurrency: int = 2,
) -> "ray.data.Dataset":
    """phrases Dataset (phrase_id, text, k) → (phrase_id, rank, doc_id,
    n_occ) via the PhraseScorer actor pool."""
    cfg = cfg or EngineConfig()
    return phrases.map_batches(
        PhraseScorer,
        fn_constructor_args=(pos_dir, cfg),
        batch_format="pyarrow",
        concurrency=concurrency,
        num_cpus=1,
    )
