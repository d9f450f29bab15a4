"""Independent BM25 reference and the checks the benchmark applies.

Nothing here imports ``docinsight_ray``: the tokenizer rules, the doc_id
hash, dedup, the BM25 formula and the postings codec are restated from
their documented contracts, so a fault in the program cannot hide by
being shared with its checker.

- tokens: the regex runs ``[A-Z]+(?=[A-Z][a-z]) | [A-Z][a-z]+ | [a-z]+ |
  [A-Z]+ | [0-9]+`` over the raw content, lowercased, kept when 2 to 64
  characters long (the engine's default "code" analyzer);
- ``content_sha256`` = sha256 hex of the UTF-8 content;
  ``doc_id`` = first 8 bytes, big-endian, of sha256(repo NUL path NUL commit);
- dedup: one document per distinct content; which copy wins is the
  caller's rule (smallest doc_id for a single build);
- BM25 with k1=1.2, b=0.75, idf = ln(1 + (N - df + 0.5) / (df + 0.5)),
  each distinct query term counted once; top-k by score, ties by doc_id.

Scoring is vectorised: one dense score array per query built with
``np.bincount`` over the query terms' postings. The engine adds term
contributions in sorted-term order and this reference does not, so
scores are compared with a relative tolerance of ``REL_TOL``.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

import numpy as np
import pandas as pd

K1, B = 1.2, 0.75
MIN_LEN, MAX_LEN = 2, 64
REL_TOL = 1e-9
_TOKEN_RE = re.compile(r"[A-Z]+(?=[A-Z][a-z])|[A-Z][a-z]+|[a-z]+|[A-Z]+|[0-9]+")


def tokens(text: str) -> list[str]:
    return [t.lower() for t in _TOKEN_RE.findall(text) if MIN_LEN <= len(t) <= MAX_LEN]


def content_sha256(contents) -> list[str]:
    return [hashlib.sha256(c.encode("utf-8")).hexdigest() for c in contents]


def doc_ids(repos, paths, commits) -> np.ndarray:
    return np.array(
        [
            int.from_bytes(hashlib.sha256(f"{r}\x00{p}\x00{c}".encode("utf-8")).digest()[:8], "big")
            for r, p, c in zip(repos, paths, commits)
        ],
        dtype=np.uint64,
    )


def winners_smallest_id(shas: list[str], ids: np.ndarray) -> np.ndarray:
    """Row mask keeping, per distinct content, the copy with the
    smallest doc_id (the single-build rule)."""
    df = pd.DataFrame({"sha": shas, "id": ids, "row": np.arange(len(shas))})
    keep = df.sort_values("id", kind="stable").drop_duplicates("sha", keep="first")["row"]
    mask = np.zeros(len(shas), dtype=bool)
    mask[keep.to_numpy()] = True
    return mask


def winners_by_arrival(shas: list[str], ids: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Row mask under the windowed-append rule: the earliest window that
    holds a content wins; inside that window the smallest doc_id."""
    df = pd.DataFrame({"sha": shas, "id": ids, "w": window, "row": np.arange(len(shas))})
    keep = df.sort_values(["w", "id"], kind="stable").drop_duplicates("sha", keep="first")["row"]
    mask = np.zeros(len(shas), dtype=bool)
    mask[keep.to_numpy()] = True
    return mask


@dataclass
class RefIndex:
    """Term-major postings of the kept documents."""

    doc_id: np.ndarray      # uint64, one per kept doc (row order of the input)
    doc_len: np.ndarray     # int64 token count per kept doc
    term_of: dict           # term -> term number
    term_start: np.ndarray  # postings of term t are [term_start[t], term_start[t+1])
    post_doc: np.ndarray    # int64 kept-doc index per posting
    post_tf: np.ndarray     # int64 tf per posting
    avgdl: float

    def __post_init__(self):
        self._order = np.argsort(self.doc_id, kind="stable")
        self._sorted = self.doc_id[self._order]

    @property
    def n_docs(self) -> int:
        return self.doc_id.size

    def index_of(self, ids: np.ndarray) -> np.ndarray:
        """Row of each doc_id in this index, -1 when absent."""
        pos = np.minimum(np.searchsorted(self._sorted, ids), self._sorted.size - 1)
        return np.where(self._sorted[pos] == ids, self._order[pos], -1)

    @property
    def df(self) -> np.ndarray:
        return np.diff(self.term_start)


def build_ref(contents: list[str], ids: np.ndarray) -> RefIndex:
    """Index ``contents``, already deduplicated. Every indexed doc counts
    in N, avgdl and df; a tombstoned doc stays indexed and is dropped at
    ranking (``topk``'s ``dead``), which is the windowed path's
    pre-compaction contract."""
    n = len(contents)
    toks = [tokens(c) for c in contents]
    lens = np.fromiter((len(t) for t in toks), dtype=np.int64, count=n)
    flat = [t for ts in toks for t in ts]
    owner = np.repeat(np.arange(n, dtype=np.int64), lens)
    codes, uniq = pd.factorize(pd.Series(flat, dtype=object), sort=True)
    pair = codes.astype(np.int64) * n + owner
    pair_u, tf = np.unique(pair, return_counts=True)
    term = pair_u // n
    doc = pair_u % n
    n_terms = len(uniq)
    start = np.zeros(n_terms + 1, dtype=np.int64)
    np.cumsum(np.bincount(term, minlength=n_terms), out=start[1:])
    return RefIndex(
        doc_id=np.asarray(ids, dtype=np.uint64),
        doc_len=lens,
        term_of={t: i for i, t in enumerate(uniq)},
        term_start=start,
        post_doc=doc,
        post_tf=tf.astype(np.int64),
        avgdl=int(lens.sum()) / n if n else 1.0,
    )


def dense_scores(ref: RefIndex, text: str) -> np.ndarray:
    """BM25 score of every indexed doc for one query (0 where no term
    matches)."""
    n = ref.doc_id.size
    ts = np.array(sorted({ref.term_of[t] for t in tokens(text) if t in ref.term_of}), dtype=np.int64)
    if not ts.size:
        return np.zeros(n, dtype=np.float64)
    s, e = ref.term_start[ts], ref.term_start[ts + 1]
    d = (e - s).astype(np.float64)
    idf = np.log(1.0 + (ref.n_docs - d + 0.5) / (d + 0.5))
    sel = np.concatenate([np.arange(a, b) for a, b in zip(s, e)])
    docs = ref.post_doc[sel]
    tf = ref.post_tf[sel].astype(np.float64)
    w = tf / (tf + K1 * (1.0 - B + B * ref.doc_len[docs].astype(np.float64) / ref.avgdl))
    return np.bincount(docs, weights=np.repeat(idf, e - s) * (K1 + 1.0) * w, minlength=n)


def topk(ref: RefIndex, dense: np.ndarray, k: int, dead: np.ndarray | None = None):
    """(doc_ids, scores) of the reference top-k, ties by doc_id."""
    cand = np.flatnonzero(dense > 0)
    if dead is not None and dead.size:
        cand = cand[~np.isin(ref.doc_id[cand], dead)]
    if cand.size > k:  # keep the k best and everything tied with the k-th
        kth = np.partition(dense[cand], cand.size - k)[cand.size - k]
        cand = cand[dense[cand] >= kth]
    order = np.lexsort((ref.doc_id[cand], -dense[cand]))[:k]
    return ref.doc_id[cand[order]], dense[cand[order]]


class CheckFailed(AssertionError):
    pass


def close(a, b) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return np.abs(a - b) <= REL_TOL * np.maximum(np.abs(a), np.abs(b))


def check_topk(ref: RefIndex, dense: np.ndarray, k: int, got_ids: np.ndarray,
               got_scores: np.ndarray, dead: np.ndarray | None = None, what: str = "") -> None:
    """Refuse a served top-k unless it equals the reference top-k:
    same length, every doc live and distinct, every score within
    ``REL_TOL`` of the doc's reference score, and the doc at each rank
    carrying the reference score of that rank (order is free only
    among scores within the tolerance)."""
    want_ids, want_scores = topk(ref, dense, k, dead)
    got_ids = np.asarray(got_ids, dtype=np.uint64)
    got_scores = np.asarray(got_scores, dtype=np.float64)
    if got_ids.size != want_ids.size:
        raise CheckFailed(f"{what}: {got_ids.size} results, reference has {want_ids.size}")
    if np.unique(got_ids).size != got_ids.size:
        raise CheckFailed(f"{what}: a doc is returned twice")
    if dead is not None and dead.size and np.isin(got_ids, dead).any():
        raise CheckFailed(f"{what}: a tombstoned doc is returned")
    idx = ref.index_of(got_ids)
    if (idx < 0).any():
        raise CheckFailed(f"{what}: a returned doc is not in the reference corpus")
    ref_of_got = dense[idx]
    if not (ref_of_got > 0).all():
        raise CheckFailed(f"{what}: a returned doc matches no query term")
    if not close(got_scores, ref_of_got).all():
        i = int(np.flatnonzero(~close(got_scores, ref_of_got))[0])
        raise CheckFailed(f"{what}: rank {i} score {got_scores[i]!r} != reference {ref_of_got[i]!r}")
    if not close(ref_of_got, want_scores).all():
        i = int(np.flatnonzero(~close(ref_of_got, want_scores))[0])
        raise CheckFailed(f"{what}: rank {i} holds a doc scoring {ref_of_got[i]!r}, "
                          f"the reference rank {i} scores {want_scores[i]!r}")


# ---- postings checks (build workload) ------------------------------------


def leb128_decode(buf: np.ndarray) -> np.ndarray:
    """Vectorised LEB128 decode of a uint8 buffer into uint64 values."""
    if buf.size == 0:
        return np.empty(0, dtype=np.uint64)
    last = buf < 0x80
    value_no = np.concatenate(([0], np.cumsum(last)[:-1]))
    starts = np.flatnonzero(np.concatenate(([True], last[:-1])))
    shift = (np.arange(buf.size) - starts[value_no]).astype(np.uint64) * np.uint64(7)
    parts = (buf & 0x7F).astype(np.uint64) << shift
    return np.add.reduceat(parts, starts)


def decode_lists(blobs: list[bytes], counts: np.ndarray, deltas: bool) -> np.ndarray:
    """Decode many varbyte lists at once; ``deltas`` turns each list's
    first-value-plus-gaps back into absolute values."""
    buf = np.frombuffer(b"".join(blobs), dtype=np.uint8)
    vals = leb128_decode(buf)
    if vals.size != int(counts.sum()):
        raise CheckFailed(f"postings decode: {vals.size} values, df sum {int(counts.sum())}")
    if not deltas:
        return vals
    run = np.cumsum(vals, dtype=np.uint64)  # wraps mod 2**64; differences stay exact
    ends = np.cumsum(counts)
    base = np.concatenate(([np.uint64(0)], run[ends[:-1] - 1])).astype(np.uint64)
    return run - np.repeat(base, counts)


def check_block_max(tfs: np.ndarray, doc_lens: np.ndarray, counts: np.ndarray,
                    block_max: np.ndarray, blocks_per_list: np.ndarray, avgdl: float,
                    block_size: int) -> None:
    """Refuse unless each stored block maximum (``block_max``, all lists
    concatenated) is at least the BM25 tf-saturation weight of every
    posting in its block."""
    counts = np.asarray(counts, dtype=np.int64)
    want_blocks = -(-counts // block_size)
    if not np.array_equal(np.asarray(blocks_per_list, dtype=np.int64), want_blocks):
        raise CheckFailed("a list stores a block-maximum count that does not match its df")
    tf = np.asarray(tfs, dtype=np.float64)
    w = tf / (tf + K1 * (1.0 - B + B * np.asarray(doc_lens, dtype=np.float64) / avgdl))
    list_start = np.cumsum(counts) - counts
    pos = np.arange(w.size) - np.repeat(list_start, counts)
    block_base = np.cumsum(want_blocks) - want_blocks
    block_of = np.repeat(block_base, counts) + pos // block_size
    first = np.flatnonzero(np.concatenate(([True], block_of[1:] != block_of[:-1])))
    need = np.maximum.reduceat(w, first)
    bad = np.asarray(block_max, dtype=np.float64) < need
    if bad.any():
        raise CheckFailed(f"block {int(np.flatnonzero(bad)[0])}: stored maximum is below a posting's weight")
