"""Each benchmark check refuses the fault it exists to catch.

    python3 -m pytest perfbench/tests -q

Pure numpy: no Ray session and no engine import.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))))

from perfbench import inputs, refbm25  # noqa: E402
from perfbench.refbm25 import CheckFailed  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    corpus = inputs.gen_corpus(400, seed=5)
    contents = corpus["content"].to_pylist()
    ids = refbm25.doc_ids(corpus["repo"].to_pylist(), corpus["path"].to_pylist(),
                          corpus["commit"].to_pylist())
    keep = refbm25.winners_smallest_id(refbm25.content_sha256(contents), ids)
    return refbm25.build_ref([c for c, k in zip(contents, keep) if k], ids[keep])


QUERY = "public static return void"  # hot words: every doc is a candidate


def _served(ref, query=QUERY, k=10, dead=None):
    dense = refbm25.dense_scores(ref, query)
    ids, scores = refbm25.topk(ref, dense, k, dead)
    return dense, ids.copy(), scores.copy()


def test_tokens_split_identifiers():
    assert refbm25.tokens("parseHTTPResponse_v2 x") == ["parse", "http", "response"]


def test_accepts_the_reference_answer(ref):
    dense, ids, scores = _served(ref)
    refbm25.check_topk(ref, dense, 10, ids, scores)


def test_refuses_a_swapped_doc(ref):
    dense, ids, scores = _served(ref)
    outsider = refbm25.topk(ref, dense, 11)[0][10]
    ids[3] = outsider
    with pytest.raises(CheckFailed):
        refbm25.check_topk(ref, dense, 10, ids, scores)


def test_refuses_two_ranks_swapped(ref):
    dense, ids, scores = _served(ref)
    assert scores[0] > scores[1]
    ids[[0, 1]], scores[[0, 1]] = ids[[1, 0]], scores[[1, 0]]
    with pytest.raises(CheckFailed):
        refbm25.check_topk(ref, dense, 10, ids, scores)


def test_refuses_a_score_off_by_1e_6(ref):
    dense, ids, scores = _served(ref)
    scores[4] *= 1 + 1e-6
    with pytest.raises(CheckFailed):
        refbm25.check_topk(ref, dense, 10, ids, scores)


def test_tolerates_rounding_order(ref):
    dense, ids, scores = _served(ref)
    scores *= 1 + 1e-12
    refbm25.check_topk(ref, dense, 10, ids, scores)


def test_refuses_a_tombstoned_doc(ref):
    dense, ids, scores = _served(ref)
    dead = ids[:1].copy()
    live_ids, live_scores = refbm25.topk(ref, dense, 10, dead)
    refbm25.check_topk(ref, dense, 10, live_ids, live_scores, dead=dead)
    with pytest.raises(CheckFailed):
        refbm25.check_topk(ref, dense, 10, ids, scores, dead=dead)


def _leb128(values):
    out = bytearray()
    for v in map(int, values):
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def test_decode_lists_inverts_delta_varbyte():
    rng = np.random.default_rng(0)
    top = np.iinfo(np.uint64).max
    lists = [np.unique(rng.integers(0, top, size=n, dtype=np.uint64, endpoint=True))
             for n in (1, 5, 300)]
    blobs = [_leb128(np.diff(x, prepend=np.uint64(0))) for x in lists]
    got = refbm25.decode_lists(blobs, np.array([x.size for x in lists]), deltas=True)
    assert np.array_equal(got, np.concatenate(lists))


def test_refuses_a_block_max_below_a_weight():
    rng = np.random.default_rng(1)
    counts = np.array([3, 300, 129])
    tfs = rng.integers(1, 9, counts.sum())
    lens = rng.integers(20, 400, counts.sum())
    avgdl, bs = 150.0, 128
    w = tfs / (tfs + refbm25.K1 * (1 - refbm25.B + refbm25.B * lens / avgdl))
    blocks = -(-counts // bs)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    bmax = np.concatenate([
        np.maximum.reduceat(w[s:s + c], np.arange(0, c, bs)) for s, c in zip(starts, counts)
    ])
    refbm25.check_block_max(tfs, lens, counts, bmax, blocks, avgdl, bs)
    low = bmax.copy()
    low[2] = np.nextafter(low[2], 0)
    with pytest.raises(CheckFailed):
        refbm25.check_block_max(tfs, lens, counts, low, blocks, avgdl, bs)


def test_query_mix_is_bench_py_mix_whatever_the_seed():
    corpus = inputs.gen_corpus(600, seed=5)
    for seed in (1, 2):
        q = inputs.gen_queries(corpus, 407, seed)
        kinds = q["kind"].to_numpy()
        hot_only = [set(t.split()) <= set(inputs.HOT_WORDS) for t in q["text"].to_pylist()]
        assert (kinds == inputs.WHOLE_FILE).sum() == 7
        assert sum(hot_only) == 3
