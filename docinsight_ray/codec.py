"""Delta + varbyte posting-list codec with block-max skip metadata.

Storage format for one posting list (one term):

- ``doc_ids`` are strictly increasing uint64; stored as deltas
  (``doc_ids[0], doc_ids[i]-doc_ids[i-1]``), each delta varbyte-encoded
  (LEB128: 7 payload bits per byte, little-endian, high bit = "more
  bytes follow").
- ``tfs`` (term frequencies, >=1) are varbyte-encoded as-is.
- Block-max metadata: postings are cut into blocks of ``block_size``
  entries; per block we keep the last doc_id (skip pointer) and the
  maximum of the BM25 tf-saturation numerator weight
  ``tf / (tf + k1*(1 - b + b*dl/avgdl))`` (so the block score upper
  bound for a term is ``idf * (k1+1) * block_max_w``).

Everything is vectorized numpy — no per-value Python loops. The codec
replaces the reference's pickled-ndarray/FAISS persistence
(/root/reference/index/faiss_index.py:292-310, embeddings/embedder.py:108-114)
with an actual compressed inverted-list layout.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

BLOCK_SIZE_DEFAULT = 128


def varbyte_encode(values: np.ndarray) -> bytes:
    """Vectorized LEB128 encode of a uint64 array -> bytes."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    # number of 7-bit groups per value (at least 1)
    nbytes = np.ones(v.shape, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += (tmp > 0).astype(np.int64)
        tmp = tmp >> np.uint64(7)
    total = int(nbytes.sum())
    out = np.empty(total, dtype=np.uint8)
    # position of the first byte of each value in the output
    starts = np.zeros(v.shape, dtype=np.int64)
    np.cumsum(nbytes[:-1], out=starts[1:])
    # byte index within each value: 0..nbytes-1
    idx = np.arange(total, dtype=np.int64) - np.repeat(starts, nbytes)
    owner = np.repeat(np.arange(v.size, dtype=np.int64), nbytes)
    shifted = v[owner] >> (idx.astype(np.uint64) * np.uint64(7))
    payload = (shifted & np.uint64(0x7F)).astype(np.uint8)
    # continuation bit on every byte except the last of each value
    is_last = idx == (nbytes[owner] - 1)
    out[:] = payload | np.where(is_last, np.uint8(0), np.uint8(0x80))
    return out.tobytes()


def varbyte_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length per value (for slicing a batch encode)."""
    v = np.asarray(values, dtype=np.uint64)
    nbytes = np.ones(v.shape, dtype=np.int64)
    tmp = v >> np.uint64(7)
    while tmp.any():
        nbytes += (tmp > 0).astype(np.int64)
        tmp = tmp >> np.uint64(7)
    return nbytes


def varbyte_decode(buf: bytes | memoryview, count: int | None = None) -> np.ndarray:
    """Vectorized LEB128 decode -> uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    is_last = b < 128
    starts_mask = np.empty(b.shape, dtype=bool)
    starts_mask[0] = True
    starts_mask[1:] = is_last[:-1]
    starts = np.flatnonzero(starts_mask)
    # byte position within its value
    pos = np.arange(b.size, dtype=np.int64)
    pos -= np.repeat(starts, np.diff(np.append(starts, b.size)))
    terms = (b & np.uint8(0x7F)).astype(np.uint64) << (pos.astype(np.uint64) * np.uint64(7))
    values = np.add.reduceat(terms, starts)
    if count is not None and values.size != count:
        raise ValueError(f"varbyte_decode: expected {count} values, got {values.size}")
    return values


def delta_encode(doc_ids: np.ndarray) -> np.ndarray:
    """Strictly-increasing uint64 -> first value + positive deltas."""
    d = np.asarray(doc_ids, dtype=np.uint64)
    if d.size == 0:
        return d
    deltas = np.empty_like(d)
    deltas[0] = d[0]
    np.subtract(d[1:], d[:-1], out=deltas[1:])
    if d.size > 1 and not (d[1:] > d[:-1]).all():
        raise ValueError("delta_encode requires strictly increasing doc_ids")
    return deltas


def delta_decode(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.asarray(deltas, dtype=np.uint64), dtype=np.uint64)


def delta_decode_runs(buf: bytes | memoryview, counts: np.ndarray) -> np.ndarray:
    """Decode concatenated delta+varbyte runs of ``counts`` values each:
    one varbyte decode, then one cumsum whose running total restarts at
    each run (uint64 wraps alike in the cumsum and the subtraction, so
    every difference is exact)."""
    counts = np.asarray(counts, dtype=np.int64)
    cs = np.cumsum(varbyte_decode(buf, int(counts.sum())), dtype=np.uint64)
    base = np.concatenate((np.zeros(1, dtype=np.uint64), cs))[np.cumsum(counts) - counts]
    return cs - np.repeat(base, counts)


def binary_payload(col: pa.Array | pa.ChunkedArray) -> memoryview:
    """The concatenated value bytes of a binary column, zero-copy for
    one chunk."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    data = arr.buffers()[2] if len(arr) else None
    if data is None:
        return memoryview(b"")
    off_t = np.int64 if pa.types.is_large_binary(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_t)[arr.offset : arr.offset + len(arr) + 1]
    return memoryview(data)[offs[0] : offs[-1]]


def decode_rows(rows: pa.Table, count: str = "df") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(term, doc_id, tf) of every posting in encoded rows — columns
    ``term``, ``doc_ids_vb``, ``tfs_vb`` and the per-row posting
    ``count`` — row after row, with one decode per binary column."""
    n = rows[count].to_numpy().astype(np.int64)
    doc_ids = delta_decode_runs(binary_payload(rows["doc_ids_vb"]), n)
    tfs = varbyte_decode(binary_payload(rows["tfs_vb"]), int(n.sum()))
    terms = np.repeat(rows["term"].to_numpy(zero_copy_only=False).astype(object), n)
    return terms, doc_ids, tfs


def encode_posting(
    doc_ids: np.ndarray,
    tfs: np.ndarray,
    w: np.ndarray,
    block_size: int = BLOCK_SIZE_DEFAULT,
) -> tuple[bytes, bytes, np.ndarray, np.ndarray]:
    """Encode one term's postings.

    ``w`` is the per-posting tf-saturation weight (float32/64) whose
    block maxima become the block-max metadata.

    Returns ``(doc_ids_vb, tfs_vb, block_max_w(float32), block_last_doc(uint64))``.
    """
    n = doc_ids.size
    doc_vb = varbyte_encode(delta_encode(doc_ids))
    tf_vb = varbyte_encode(tfs)
    nblocks = (n + block_size - 1) // block_size
    bounds = np.minimum(np.arange(1, nblocks + 1) * block_size, n) - 1
    block_starts = np.arange(0, n, block_size)
    block_max = np.maximum.reduceat(np.asarray(w, dtype=np.float64), block_starts)
    # float32 maxima rounded UP (nextafter) — a downward 1-ulp rounding
    # would make the stored bound unsafe and let WAND wrongly prune a
    # true top-k doc (same guard as build._encode_sorted_group)
    bm32 = block_max.astype(np.float32)
    low = bm32.astype(np.float64) < block_max
    bm32[low] = np.nextafter(bm32[low], np.float32(np.inf))
    return doc_vb, tf_vb, bm32, np.asarray(doc_ids, dtype=np.uint64)[bounds]


def decode_posting(doc_vb: bytes, tf_vb: bytes, df: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of encode_posting (postings payload only)."""
    doc_ids = delta_decode(varbyte_decode(doc_vb, df))
    tfs = varbyte_decode(tf_vb, df)
    return doc_ids, tfs
