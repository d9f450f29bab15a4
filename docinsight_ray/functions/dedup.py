"""Near-duplicate detection suite over the ``documents`` table.

The reference only has exact-hash dedup
(/root/reference/ingestion/pipeline_ingest.py:266-269); a large-scale
training-data pipeline needs the near-dup family too:

- ``ngram_jaccard_pairs`` — exact word-3-gram Jaccard via
  shingle-explode → groupby(shingle) → pair-emit → groupby(pair)
  count (the exact baseline; SQL-checkable).
- ``minhash_lsh_pairs`` — MinHash signatures (64 perms) + LSH banding
  (32 bands × 2 rows) → candidate pairs → exact-Jaccard verification.
  With J ≥ 0.6 the band-miss probability is (1-0.36)^32 ≈ 6e-7, so the
  verified output equals the exact pipeline's output on the gate data
  (same oracle SQL); pytest asserts the equality.
- ``simhash64`` — 64-bit SimHash per doc (tf-weighted token hashes).

Gate-exactness: pair outputs carry integer (inter, size_a, size_b)
instead of a float Jaccard — consumers derive J = inter/(sa+sb-inter).

Scale notes: shingle/band groupbys shuffle narrow (hash, doc_id) rows
only; per-group pair emission caps the group at ``MAX_GROUP`` docs
(a shingle/band shared by more docs than that is a stop-shingle — at
10^12 docs you drop or salt those; dropped groups are logged, not
silent). Shingle-set verification uses a broadcast dict at test scale
(a doc_id-keyed join at cluster scale).
"""

from __future__ import annotations

import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data
from ray.data.aggregate import Count

SHINGLE_K = 3
JACCARD_T = 0.6
N_PERM = 64
N_BANDS = 32  # × 2 rows/band
MAX_GROUP = 200  # pair-emit cap per shingle/band group
_TOKEN_RE = re.compile(r"[a-z0-9]+")
_MERSENNE = (1 << 61) - 1


def _read_documents(sf_dir: str):
    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
    )


def _shingles(text: str) -> list[str]:
    toks = _TOKEN_RE.findall(text.lower())
    return [" ".join(toks[i : i + SHINGLE_K]) for i in range(len(toks) - SHINGLE_K + 1)]


def _shingle_rows(batch: pa.Table) -> pa.Table:
    """(doc_id, shingle) distinct rows per doc — the explode stage."""
    dids, shs = [], []
    for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        uniq = set(_shingles(text))
        dids += [did] * len(uniq)
        shs += list(uniq)
    return pa.table(
        {"doc_id": pa.array(dids, type=pa.int64()), "shingle": pa.array(shs, type=pa.string())}
    )


def _emit_pairs(group: pd.DataFrame) -> pd.DataFrame:
    ids = np.sort(group["doc_id"].to_numpy())
    if ids.size < 2 or ids.size > MAX_GROUP:
        if ids.size > MAX_GROUP:
            import warnings

            warnings.warn(
                f"dedup pair-emit: dropped a group of {ids.size} docs "
                f"(> MAX_GROUP={MAX_GROUP})",
                stacklevel=2,
            )
        return pd.DataFrame({"a_id": pd.Series(dtype="int64"), "b_id": pd.Series(dtype="int64")})
    a, b = np.triu_indices(ids.size, k=1)
    return pd.DataFrame({"a_id": ids[a].astype("int64"), "b_id": ids[b].astype("int64")})


N_PAIR_BUCKETS = 16


def _emit_pairs_bucket(group: pd.DataFrame) -> pd.DataFrame:
    """Pair emission for a whole hash-bucket of shingles: one Ray group
    per bucket (16 total) instead of one per shingle — per-group
    dispatch overhead disappears; inside, a numpy loop over shingle
    segments. Groups larger than MAX_GROUP are stop-shingles (dropped,
    as in _emit_pairs)."""
    codes, _ = pd.factorize(group["key"].to_numpy(), sort=True)
    order = np.lexsort((group["doc_id"].to_numpy(), codes))
    codes = codes[order]
    ids = group["doc_id"].to_numpy()[order]
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    ends = np.r_[starts[1:], codes.size]
    a_out, b_out = [], []
    n_dropped = 0
    for s, e in zip(starts, ends):
        n = e - s
        if n < 2:
            continue
        if n > MAX_GROUP:
            n_dropped += 1
            continue
        a, b = np.triu_indices(n, k=1)
        a_out.append(ids[s + a])
        b_out.append(ids[s + b])
    if n_dropped:
        # the exact pipeline's contract requires no group above the cap;
        # a corpus with a stop-shingle shared by >MAX_GROUP docs makes
        # the output diverge from the no-cap oracle — never silently
        import warnings

        warnings.warn(
            f"dedup pair-emit: dropped {n_dropped} shingle/band group(s) "
            f"larger than MAX_GROUP={MAX_GROUP}; output is no longer the "
            f"exact no-cap pair set (raise MAX_GROUP or treat these as "
            f"stop-shingles deliberately)",
            stacklevel=2,
        )
    if not a_out:
        return pd.DataFrame({"a_id": pd.Series(dtype="int64"), "b_id": pd.Series(dtype="int64")})
    return pd.DataFrame(
        {"a_id": np.concatenate(a_out).astype("int64"), "b_id": np.concatenate(b_out).astype("int64")}
    )


def _sizes_map(sf_dir: str) -> dict[int, int]:
    sizes = (
        _read_documents(sf_dir)
        .map_batches(_shingle_rows, batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    return dict(zip(sizes["doc_id"].astype(int), sizes["n"].astype(int)))


def _verified_pairs_table(pairs: pd.DataFrame, sizes: dict[int, int]) -> pa.Table:
    inter = pairs["inter"].to_numpy(dtype=np.int64)
    sa = pairs["a_id"].map(sizes).to_numpy(dtype=np.int64)
    sb = pairs["b_id"].map(sizes).to_numpy(dtype=np.int64)
    union = sa + sb - inter
    keep = inter >= JACCARD_T * union  # J >= T without float division
    return pa.table(
        {
            "a_id": pa.array(pairs["a_id"].to_numpy(dtype=np.int64)[keep], type=pa.int64()),
            "b_id": pa.array(pairs["b_id"].to_numpy(dtype=np.int64)[keep], type=pa.int64()),
            "inter": pa.array(inter[keep], type=pa.int64()),
            "size_a": pa.array(sa[keep], type=pa.int64()),
            "size_b": pa.array(sb[keep], type=pa.int64()),
        }
    )


def q_ngram_jaccard_pairs(sf_dir: str) -> pa.Table:
    """Exact n-gram Jaccard near-dup pairs (J ≥ 0.6, a_id < b_id).

    Most shingles are unique; a bare groupby(shingle).map_groups would
    spend its time on singleton groups. Pre-filter: count per shingle,
    keep shingles with count ≥ 2 (broadcast via ray.put), THEN group —
    only shared shingles reach the per-group pair emission."""
    import hashlib as _hl
    import tempfile

    import ray as _ray

    # The narrow (doc_id, shingle) table is consumed twice (df
    # pre-filter + pair emission). Spill it to parquet instead of
    # .materialize(): a pinned materialized dataset whose async GC
    # overlaps the NEXT pipeline's execution was the trigger for the
    # round-1 plasma page-reuse corruption (ROADMAP.md §6b).
    spill = tempfile.mkdtemp(
        prefix=f"shingles-{_hl.sha256(sf_dir.encode()).hexdigest()[:8]}-", dir="/tmp"
    )
    _read_documents(sf_dir).map_batches(_shingle_rows, batch_format="pyarrow").write_parquet(spill)
    ds = _ray.data.read_parquet(spill)
    shared = ds.groupby("shingle").aggregate(Count(alias_name="n")).map_batches(
        lambda t: t.filter(pa.compute.greater(t["n"], pa.scalar(1))).select(["shingle"]),
        batch_format="pyarrow",
    ).to_pandas()
    if shared.empty:
        return pa.table({c: pa.array([], type=pa.int64()) for c in ["a_id", "b_id", "inter", "size_a", "size_b"]})
    shared_ref = _ray.put(pa.array(sorted(shared["shingle"]), type=pa.string()))
    def filter_and_key(t: pa.Table, _r=shared_ref) -> pa.Table:
        t = t.filter(pa.compute.is_in(t["shingle"], value_set=_ray.get(_r)))
        h = pd.util.hash_array(np.asarray(t["shingle"].to_pylist(), dtype=object))
        return pa.table(
            {
                "key": t["shingle"],
                "doc_id": t["doc_id"],
                "bucket": pa.array((h % np.uint64(N_PAIR_BUCKETS)).astype(np.int32), type=pa.int32()),
            }
        )

    # per-batch partial pair counts (C-speed pandas groupby), final sum
    # on the driver — the pair-count table is result-sized by
    # construction, and Ray's multi-key groupby costs seconds of
    # per-group overhead at thousands of tiny groups
    def partial_pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["a_id", "b_id"], sort=False).size().reset_index(name="pinter")

    partials = (
        ds.map_batches(filter_and_key, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_emit_pairs_bucket, batch_format="pandas")
        .map_batches(partial_pair_counts, batch_format="pandas")
        .to_pandas()
    )
    if partials.empty:
        pair_counts = pd.DataFrame({"a_id": [], "b_id": [], "inter": []})
    else:
        pair_counts = (
            partials.groupby(["a_id", "b_id"], sort=False)["pinter"].sum().reset_index(name="inter")
        )
    if pair_counts.empty:
        return pa.table({c: pa.array([], type=pa.int64()) for c in ["a_id", "b_id", "inter", "size_a", "size_b"]})
    return _verified_pairs_table(pair_counts, _sizes_map(sf_dir))


# ---- MinHash + LSH --------------------------------------------------------


# 31-bit Mersenne prime: a*h+b stays < 2^62, so the permutation math is
# exact in vectorized uint64 (no object-dtype bigints).
_MH_P = (1 << 31) - 1


def _perm_params(seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, _MH_P, size=N_PERM, dtype=np.uint64)
    b = rng.integers(0, _MH_P, size=N_PERM, dtype=np.uint64)
    return a, b


class MinHashLSH:
    """Stateful map_batches stage: permutation params set up once per
    actor; emits (band_id, band_key, doc_id) rows per batch."""

    def __init__(self, seed: int = 42):
        self.a, self.b = _perm_params(seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_band, out_key, out_doc = [], [], []
        for did, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            sh = list(set(_shingles(text)))
            if not sh:
                continue
            h = pd.util.hash_array(np.asarray(sh, dtype=object)) % np.uint64(_MH_P)
            # (n_perm, n_shingles) exact permuted hashes → per-perm min
            sig = ((self.a[:, None] * h[None, :] + self.b[:, None]) % np.uint64(_MH_P)).min(axis=1)
            # band key: two 31-bit rows packed exactly into 62 bits
            keys = (sig[0::2] << np.uint64(31)) | sig[1::2]
            out_band.extend(range(N_BANDS))
            out_key.append(keys)
            out_doc.extend([did] * N_BANDS)
        return pa.table(
            {
                "band_id": pa.array(out_band, type=pa.int32()),
                "band_key": pa.array(
                    np.concatenate(out_key) if out_key else np.empty(0, dtype=np.uint64),
                    type=pa.uint64(),
                ),
                "doc_id": pa.array(out_doc, type=pa.int64()),
            }
        )


def q_minhash_lsh_pairs(sf_dir: str) -> pa.Table:
    """MinHash-LSH candidates → exact-Jaccard verification; equals the
    exact pipeline's output at J≥0.6 (miss prob ≈ 6e-7 per pair)."""
    def band_bucket(t: pa.Table) -> pa.Table:
        bid = t["band_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        bkey = t["band_key"].to_numpy(zero_copy_only=False).astype(np.uint64)
        key = (bkey << np.uint64(6)) | bid  # band_id < 64 → exact combined key
        return pa.table(
            {
                "key": pa.array(key, type=pa.uint64()),
                "doc_id": t["doc_id"],
                "bucket": pa.array((key % np.uint64(N_PAIR_BUCKETS)).astype(np.int32), type=pa.int32()),
            }
        )

    cands = (
        _read_documents(sf_dir)
        .map_batches(MinHashLSH, batch_format="pyarrow", concurrency=2)
        .map_batches(band_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_emit_pairs_bucket, batch_format="pandas")
        .to_pandas()
    )
    if cands.empty:
        return pa.table({c: pa.array([], type=pa.int64()) for c in ["a_id", "b_id", "inter", "size_a", "size_b"]})
    cands = cands.drop_duplicates(["a_id", "b_id"])
    # exact verification of the (small) candidate set via broadcast shingle sets
    doc_ids = sorted(set(cands["a_id"]) | set(cands["b_id"]))
    docs = _read_documents(sf_dir).map_batches(
        lambda t: t.filter(pa.compute.is_in(t["doc_id"], pa.array(doc_ids, type=pa.int64()))),
        batch_format="pyarrow",
    ).to_pandas()
    sh_sets = {int(r.doc_id): set(_shingles(r.text)) for r in docs.itertuples()}
    inter = [
        len(sh_sets.get(a, set()) & sh_sets.get(b, set()))
        for a, b in zip(cands["a_id"], cands["b_id"])
    ]
    cands = cands.assign(inter=np.array(inter, dtype=np.int64))
    sizes = {d: len(s) for d, s in sh_sets.items()}
    out = _verified_pairs_table(cands, sizes)
    return out.sort_by([("a_id", "ascending"), ("b_id", "ascending")])


def _simhash_rows(batch: pa.Table) -> pa.Table:
    """(doc_id, simhash uint64, content_sha8) per document —
    tf-weighted token-hash SimHash, shared by the hash and pair ops."""
    import hashlib as _h

    out = np.empty(batch.num_rows, dtype=np.uint64)
    for i, text in enumerate(batch["text"].to_pylist()):
        toks = _TOKEN_RE.findall(text.lower())
        if not toks:
            out[i] = 0
            continue
        uniq, tf = np.unique(np.asarray(toks, dtype=object), return_counts=True)
        h = pd.util.hash_array(uniq)
        bits = ((h[:, None] >> np.arange(64, dtype=np.uint64)[None, :]) & np.uint64(1)).astype(np.int64)
        acc = ((2 * bits - 1) * tf[:, None].astype(np.int64)).sum(axis=0)
        out[i] = np.bitwise_or.reduce(
            (acc > 0).astype(np.uint64) << np.arange(64, dtype=np.uint64)
        )
    # content_sha8: lineage column tying each hash row to the exact
    # content bytes it was computed from. Also load-bearing: with
    # only two fixed-width columns this op intermittently came back
    # from Ray block transport with rows re-paired (ROADMAP.md §6b);
    # the provenance column both suppresses that layout-sensitive
    # hazard and makes any recurrence loudly detectable.
    sha8 = [_h.sha256(t.encode()).hexdigest()[:8] for t in batch["text"].to_pylist()]
    return pa.table(
        {"doc_id": pa.array(batch["doc_id"], type=pa.int64()),
         "simhash": pa.array(out, type=pa.uint64()),
         "content_sha8": pa.array(sha8, type=pa.string())}
    )


def q_simhash64(sf_dir: str) -> pa.Table:
    """64-bit SimHash per document (tf-weighted token hashes)."""
    from ..collect import collect_table

    return collect_table(_read_documents(sf_dir).map_batches(_simhash_rows, batch_format="pyarrow"))


SIMHASH_BANDS = 4  # disjoint 16-bit bands → EXACT blocking for hamming ≤ 3
_POP_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Portable vectorized popcount of a uint64 array (byte LUT — this
    numpy predates bitwise_count)."""
    return _POP_LUT[np.ascontiguousarray(x).view(np.uint8).reshape(-1, 8)].sum(axis=1).astype(np.int64)


def q_simhash_near_dup(sf_dir: str, max_hamming: int = 3) -> pa.Table:
    """SimHash near-duplicate pairs, EXACT for the given radius: pairs
    (a < b) whose 64-bit SimHashes differ in ≤ ``max_hamming`` bits.

    Blocking is the classic disjoint-band pigeonhole (Manku et al.'s
    web-dedup scheme): with 4 disjoint 16-bit bands, any pair within
    hamming distance ≤ 3 agrees EXACTLY on at least one band, so
    grouping by (band_idx, band_value) and verifying candidates with a
    real popcount loses nothing — the output equals the all-pairs
    brute force (asserted in pytest). Shuffle rows are narrow
    (bucketed band key, doc_id, hash-hex); band groups above MAX_GROUP
    are stop-bands (warned, same discipline as the shingle cap).

    ``max_hamming`` must stay < 64/SIMHASH_BANDS·… — concretely ≤ 3
    for the 4×16 layout; a larger radius needs more/smaller bands."""
    if max_hamming >= SIMHASH_BANDS:
        raise ValueError(
            f"max_hamming={max_hamming} breaks the {SIMHASH_BANDS}-band "
            f"pigeonhole (exact only for ≤ {SIMHASH_BANDS - 1})"
        )

    def band_rows(batch: pa.Table) -> pa.Table:
        t = _simhash_rows(batch)
        h = t["simhash"].to_numpy(zero_copy_only=False).astype(np.uint64)
        d = t["doc_id"].to_numpy(zero_copy_only=False)
        keys, dids, hexes = [], [], []
        hx = np.array([f"{v:016x}" for v in h], dtype=object)
        for b in range(SIMHASH_BANDS):
            band = ((h >> np.uint64(16 * b)) & np.uint64(0xFFFF)).astype(np.int64)
            keys.append(b * (1 << 16) + band)
            dids.append(d)
            hexes.append(hx)
        key = np.concatenate(keys)
        return pa.table(
            {
                # coarse bucket: one Ray group per bucket, not per band
                # value (tiny-group dispatch overhead — dedup.py note)
                "bucket": pa.array(key % N_PAIR_BUCKETS, type=pa.int64()),
                "key": pa.array(key, type=pa.int64()),
                "doc_id": pa.array(np.concatenate(dids), type=pa.int64()),
                "hash_hex": pa.array(np.concatenate(hexes), type=pa.string()),
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        codes, _ = pd.factorize(g["key"].to_numpy(), sort=True)
        order = np.lexsort((g["doc_id"].to_numpy(), codes))
        codes = codes[order]
        ids = g["doc_id"].to_numpy()[order]
        hsh = np.array([int(x, 16) for x in g["hash_hex"].to_numpy()[order]], dtype=np.uint64)
        starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
        ends = np.r_[starts[1:], codes.size]
        a_out, b_out, d_out = [], [], []
        n_dropped = 0
        for s, e in zip(starts, ends):
            n = e - s
            if n < 2:
                continue
            if n > MAX_GROUP:
                n_dropped += 1
                continue
            a, b = np.triu_indices(n, k=1)
            ham = _popcount64(hsh[s + a] ^ hsh[s + b])
            keep = ham <= max_hamming
            a_out.append(ids[s + a[keep]])
            b_out.append(ids[s + b[keep]])
            d_out.append(ham[keep])
        if n_dropped:
            import warnings

            warnings.warn(
                f"simhash_near_dup: dropped {n_dropped} band group(s) larger "
                f"than MAX_GROUP={MAX_GROUP}; pairs only co-banded there are "
                f"lost (stop-band discipline)",
                stacklevel=2,
            )
        if not a_out:
            return pd.DataFrame({"a_id": pd.Series(dtype="int64"),
                                 "b_id": pd.Series(dtype="int64"),
                                 "hamming": pd.Series(dtype="int64")})
        return pd.DataFrame(
            {"a_id": np.concatenate(a_out).astype("int64"),
             "b_id": np.concatenate(b_out).astype("int64"),
             "hamming": np.concatenate(d_out).astype("int64")}
        )

    bucket_pairs.__name__ = "bucket_pairs"
    out = (
        _read_documents(sf_dir)
        .map_batches(band_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(bucket_pairs, batch_format="pandas")
        .to_pandas()
    )
    # same pair found via several bands → dedup (result-sized)
    out = out.drop_duplicates(subset=["a_id", "b_id"])
    return pa.Table.from_pandas(
        out.sort_values(["a_id", "b_id"]).reset_index(drop=True), preserve_index=False
    )


_PAIRS_SQL = f"""
WITH tok AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z0-9]+') AS ts FROM documents
),
u AS (SELECT doc_id, unnest(ts) AS term, generate_subscripts(ts, 1) AS i FROM tok),
w AS (
  SELECT doc_id, term,
         lead(term, 1) OVER (PARTITION BY doc_id ORDER BY i) AS t2,
         lead(term, 2) OVER (PARTITION BY doc_id ORDER BY i) AS t3
  FROM u
),
sh AS (
  SELECT DISTINCT doc_id, term || ' ' || t2 || ' ' || t3 AS shingle
  FROM w WHERE t3 IS NOT NULL
),
sizes AS (SELECT doc_id, count(*)::BIGINT AS n FROM sh GROUP BY doc_id),
pairs AS (
  SELECT a.doc_id AS a_id, b.doc_id AS b_id, count(*)::BIGINT AS inter
  FROM sh a JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT p.a_id, p.b_id, p.inter, sa.n AS size_a, sb.n AS size_b
FROM pairs p
JOIN sizes sa ON sa.doc_id = p.a_id
JOIN sizes sb ON sb.doc_id = p.b_id
WHERE p.inter >= {JACCARD_T} * (sa.n + sb.n - p.inter)
"""

CC_DRIVER_PAIR_LIMIT = 50_000


def _cc_labels_union_find(pairs: pd.DataFrame) -> tuple[dict[int, int], dict[int, int]]:
    """Driver union-find over a (small) collected pair list →
    (node → component-min label, node → component size)."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:
            parent[x], x = r, parent[x]
        return r

    for a, b in zip(pairs["a_id"].astype(int), pairs["b_id"].astype(int)):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    members: dict[int, list[int]] = {}
    nodes = set(pairs["a_id"].astype(int)) | set(pairs["b_id"].astype(int))
    for n in nodes:
        members.setdefault(find(n), []).append(n)
    label = {n: min(ms) for ms in members.values() for n in ms}
    size = {n: len(ms) for ms in members.values() for n in ms}
    return label, size


def _cc_labels_distributed(pairs: pd.DataFrame) -> tuple[dict[int, int], dict[int, int]]:
    """Same contract via the distributed star contraction — the scale
    path when the pair graph outgrows the driver (each round is a
    narrow edge shuffle; the driver only ever holds the final star
    labels, which are ≤ one row per clustered node)."""
    from docinsight_ray.collect import collect_table
    from docinsight_ray.functions.graph import (
        _checked_uv,
        _edge_table,
        connected_components,
    )

    edges = ray.data.from_arrow(
        _edge_table(
            pairs["a_id"].to_numpy(dtype=np.int64),
            pairs["b_id"].to_numpy(dtype=np.int64),
        )
    )
    t = collect_table(connected_components(edges))
    if t.num_rows == 0:
        return {}, {}
    su, sv = _checked_uv(t)
    label = dict(zip(su.tolist(), sv.tolist()))
    roots, counts = np.unique(sv, return_counts=True)
    size = dict(zip(roots.tolist(), (counts + 1).tolist()))  # + the root itself
    for r in roots.tolist():
        label[r] = r
    for n in label:
        size.setdefault(n, 1)
        if label[n] != n:
            size[n] = size[label[n]]
    return label, size


def q_dup_clusters(sf_dir: str) -> pa.Table:
    """Near-dup CLUSTER resolution: connected components over the exact
    Jaccard pair graph + canonical election (cluster id = min doc_id of
    the component; is_canonical marks the doc a keep-one dedup retains).

    Scale shape: the pair graph is the OUTPUT of the bounded near-dup
    op (pairs ≪ docs by construction — a corpus that violates that has
    already tripped the MAX_GROUP stop-shingle warnings upstream), so
    union-find over the collected pair list is driver-bounded; the
    label map broadcasts via ``ray.put`` and the per-doc assignment is
    a shuffle-free scan. Above ``CC_DRIVER_PAIR_LIMIT`` pairs the
    labeling switches to the distributed alternating-star contraction
    (``functions.graph.connected_components`` — edge-list shuffles
    only, no driver graph) with identical output; the equality of the
    two paths is pytest-proven on the same pair graph."""
    pairs = q_ngram_jaccard_pairs(sf_dir).to_pandas()

    if len(pairs) > CC_DRIVER_PAIR_LIMIT:
        label, size = _cc_labels_distributed(pairs)
    else:
        label, size = _cc_labels_union_find(pairs)
    # broadcast the (pair-node-bounded) label/size maps as SORTED
    # arrays so per-batch assignment is one vectorized searchsorted —
    # no per-row dict lookups over the corpus-sized doc_id column
    lab_keys = np.array(sorted(label), dtype=np.int64)
    lab_vals = np.array([label[k] for k in lab_keys], dtype=np.int64)
    sz_vals = np.array([size[k] for k in lab_keys], dtype=np.int64)
    maps_ref = ray.put((lab_keys, lab_vals, sz_vals))

    def assign(batch: pd.DataFrame) -> pd.DataFrame:
        keys, vals, szs = ray.get(maps_ref)
        ids = batch["doc_id"].to_numpy(dtype=np.int64)
        if keys.size == 0:  # empty pair graph: every doc is a singleton
            cluster, n_members = ids, np.ones(ids.size, dtype=np.int64)
        else:
            pos = np.searchsorted(keys, ids)
            pos_c = np.minimum(pos, keys.size - 1)
            found = (pos < keys.size) & (keys[pos_c] == ids)
            cluster = np.where(found, vals[pos_c], ids)
            n_members = np.where(found, szs[pos_c], 1)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "cluster_id": cluster.astype(np.int64),
                "n_members": n_members.astype(np.int64),
                "is_canonical": (cluster == ids).astype(np.int64),
            }
        )

    from ..collect import collect_table

    empty = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("cluster_id", pa.int64()),
            ("n_members", pa.int64()),
            ("is_canonical", pa.int64()),
        ]
    )
    return collect_table(
        _read_documents(sf_dir)
        .select_columns(["doc_id"])
        .map_batches(assign, batch_format="pandas"),
        empty,
    )


# connected components in SQL: symmetric edge closure → recursive
# reachability → min label per node; docs outside the pair graph are
# singleton clusters of themselves.
_CLUSTERS_SQL = f"""
WITH RECURSIVE pr AS ({_PAIRS_SQL}),
edges AS (
  SELECT a_id AS a, b_id AS b FROM pr
  UNION ALL
  SELECT b_id AS a, a_id AS b FROM pr
),
nodes AS (SELECT DISTINCT a AS doc_id FROM edges),
reach(doc_id, other) AS (
  SELECT doc_id, doc_id FROM nodes
  UNION
  SELECT r.doc_id, e.b FROM reach r JOIN edges e ON e.a = r.other
),
lab AS (SELECT doc_id, min(other)::BIGINT AS cluster_id FROM reach GROUP BY doc_id),
csize AS (SELECT cluster_id, count(*)::BIGINT AS n_members FROM lab GROUP BY cluster_id)
SELECT d.doc_id,
       coalesce(l.cluster_id, d.doc_id)::BIGINT AS cluster_id,
       coalesce(cs.n_members, 1)::BIGINT AS n_members,
       (coalesce(l.cluster_id, d.doc_id) = d.doc_id)::BIGINT AS is_canonical
FROM documents d
LEFT JOIN lab l USING (doc_id)
LEFT JOIN csize cs ON cs.cluster_id = l.cluster_id
"""

JAC_QUERY_DOC = 0  # the query document for the Jaccard top-k gate
JAC_TOPK = 10


def q_jaccard_topk(sf_dir: str) -> pa.Table:
    """Set-similarity document search: top-k docs by TOKEN-SET Jaccard
    against one query document (the set-based sibling of BM25
    more-like-this — the scoring DocInsight's n-gram fallback uses for
    whole-document comparison). Query token set broadcasts once; each
    batch computes |A∩B|/|A∪B| vectorized via sorted-array
    intersection counts and emits a local top-k partial."""
    import pyarrow.parquet as pq

    qtbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"],
        filters=[("doc_id", "==", JAC_QUERY_DOC)],
    )
    qset = np.unique(np.asarray(
        re.findall(r"[a-z0-9]{2,}", qtbl["text"][0].as_py().lower()), dtype=object
    ))
    q_ref = ray.put(qset)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        qs = ray.get(q_ref)
        nq = qs.size
        dids = batch["doc_id"].astype("int64").to_numpy()
        inter = np.zeros(dids.size, dtype=np.int64)
        union = np.zeros(dids.size, dtype=np.int64)
        for i, toks in enumerate(batch["text"].str.lower().str.findall(r"[a-z0-9]{2,}")):
            ts = np.unique(np.asarray(toks, dtype=object))
            k = np.searchsorted(qs, ts)
            k = np.minimum(k, nq - 1)
            n_i = int((qs[k] == ts).sum()) if nq else 0
            inter[i] = n_i
            union[i] = nq + ts.size - n_i
        keep = dids != JAC_QUERY_DOC
        # integer micro Jaccard: (inter*1e6)//union — identical on both
        # engines, no float division order concerns
        jac = np.where(union > 0, inter * 1_000_000 // np.maximum(union, 1), 0)
        out = pd.DataFrame(
            {"doc_id": dids[keep], "jaccard_micro": jac[keep].astype("int64")}
        )
        return out.sort_values(["jaccard_micro", "doc_id"],
                               ascending=[False, True]).head(JAC_TOPK + 10)

    from ..collect import collect_table

    empty = pa.schema([("doc_id", pa.int64()), ("jaccard_micro", pa.int64())])
    parts = collect_table(
        ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        ).map_batches(partial, batch_format="pandas"),
        empty,
    ).to_pandas()
    parts = parts.sort_values(["jaccard_micro", "doc_id"],
                              ascending=[False, True]).head(JAC_TOPK).reset_index(drop=True)
    parts["rank"] = np.arange(len(parts), dtype=np.int64)
    return pa.Table.from_pandas(
        parts[["rank", "doc_id", "jaccard_micro"]], preserve_index=False
    )


ORACLE_SQL = {
    "jaccard_topk": f"""
        WITH qs AS (
          SELECT DISTINCT t.term
          FROM documents, unnest(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'), x -> length(x) >= 2)) AS t(term)
          WHERE doc_id = {JAC_QUERY_DOC}
        ),
        ds AS (
          SELECT doc_id, t.term
          FROM documents, unnest(list_filter(regexp_extract_all(lower(text), '[a-z0-9]+'), x -> length(x) >= 2)) AS t(term)
          WHERE doc_id != {JAC_QUERY_DOC}
          GROUP BY doc_id, t.term
        ),
        sizes AS (SELECT doc_id, count(*)::BIGINT AS nd FROM ds GROUP BY doc_id),
        inter AS (
          SELECT ds.doc_id, count(*)::BIGINT AS ni
          FROM ds JOIN qs USING (term) GROUP BY ds.doc_id
        ),
        j AS (
          SELECT s.doc_id,
                 coalesce(i.ni, 0) * 1000000
                   // ((SELECT count(*) FROM qs) + s.nd - coalesce(i.ni, 0)) AS jaccard_micro
          FROM sizes s LEFT JOIN inter i USING (doc_id)
        )
        SELECT row_number() OVER (ORDER BY jaccard_micro DESC, doc_id ASC) - 1 AS rank,
               doc_id, jaccard_micro::BIGINT AS jaccard_micro
        FROM j ORDER BY jaccard_micro DESC, doc_id ASC LIMIT {JAC_TOPK}
    """,
    "ngram_jaccard_pairs": _PAIRS_SQL,
    "minhash_lsh_pairs": _PAIRS_SQL,
    "dup_clusters": _CLUSTERS_SQL,
    # simhash64: no SQL (hash-function-specific) → rows-only check
}

QUERIES = {
    "jaccard_topk": q_jaccard_topk,
    "ngram_jaccard_pairs": q_ngram_jaccard_pairs,
    "minhash_lsh_pairs": q_minhash_lsh_pairs,
    "dup_clusters": q_dup_clusters,
    "simhash64": q_simhash64,
    # exact-by-pigeonhole banding; hash values aren't SQL-derivable →
    # rows-only gate, brute-force identity asserted in pytest
    "simhash_near_dup": q_simhash_near_dup,
}
