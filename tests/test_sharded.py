"""Doc-sharded serving is rank-identical to the single-index engine."""

import numpy as np
import pyarrow.parquet as pq
import pytest

from docinsight_ray.config import EngineConfig
from docinsight_ray.fixtures import gen_corpus, gen_queries, queries_table
from docinsight_ray.oracle import OracleIndex
from docinsight_ray.pipelines.sharded import build_sharded_index, query_sharded

CFG = EngineConfig(num_buckets=8, dedup=False)
N_SHARDS = 3


@pytest.fixture(scope="module")
def sharded(ray_session, tmp_path_factory):
    import ray.data

    corpus = gen_corpus(300, seed=11)
    idx = str(tmp_path_factory.mktemp("sharded") / "index")
    dirs = build_sharded_index(ray.data.from_arrow(corpus), idx, N_SHARDS, CFG, fingerprint="sh")
    assert len(dirs) == N_SHARDS
    return corpus, idx


def test_shard_stats_are_global(sharded):
    import json
    import os

    corpus, idx = sharded
    stats = [json.load(open(os.path.join(idx, f"shard={s}", "corpus_stats.json"))) for s in range(N_SHARDS)]
    assert len({s["n_docs"] for s in stats}) == 1
    assert len({s["avgdl"] for s in stats}) == 1
    assert sum(s["shard_n_docs"] for s in stats) == stats[0]["n_docs"]
    # shards are balanced (hash partitioning)
    sizes = [s["shard_n_docs"] for s in stats]
    assert max(sizes) - min(sizes) < 0.5 * max(sizes)


def test_sharded_rank_identity(sharded):
    import ray.data

    corpus, idx = sharded
    queries = gen_queries(corpus, n_keyword=12, seed=11)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_sharded(qds, idx, N_SHARDS, CFG, mode="taat").to_pandas()
    oracle = OracleIndex(corpus, CFG)
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(
            sub.doc_id.to_numpy(dtype=np.uint64), od, err_msg=f"sharded doc mismatch q{qid}"
        )
        np.testing.assert_array_equal(sub.score.to_numpy(), osc, err_msg=f"sharded score mismatch q{qid}")


def test_sharded_preload_rank_identity(sharded):
    """query_sharded(concurrency_per_shard=2): each shard's pool shares
    one plasma-resident decoded sub-index — results identical to the
    oracle."""
    import ray.data

    corpus, idx = sharded
    queries = gen_queries(corpus, n_keyword=6, seed=13)
    qt = queries_table(queries)
    qds = ray.data.from_arrow([qt.slice(0, 6), qt.slice(6)])  # a block per actor
    out = query_sharded(qds, idx, N_SHARDS, CFG, mode="maxscore",
                        concurrency_per_shard=2).to_pandas()
    oracle = OracleIndex(corpus, CFG)
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_sharded_state_sharing_rule(sharded, monkeypatch):
    """query_sharded decodes each shard into the object store once
    exactly when its per-shard pool may run more than one actor: with
    concurrency_per_shard > 1 and more than one query block."""
    import os

    import ray.data

    from docinsight_ray import scorer

    corpus, idx = sharded
    calls = []
    real = scorer.load_index_state
    monkeypatch.setattr(scorer, "load_index_state", lambda d: calls.append(d) or real(d))
    qt = queries_table(gen_queries(corpus, n_keyword=2, seed=14))
    one_block = ray.data.from_arrow(qt)
    qds = ray.data.from_arrow([qt.slice(0, 4), qt.slice(4)])  # two blocks: up to two actors
    query_sharded(qds, idx, N_SHARDS, CFG)
    query_sharded(one_block, idx, N_SHARDS, CFG, concurrency_per_shard=2)  # capped at one actor
    assert calls == []
    query_sharded(qds, idx, N_SHARDS, CFG, concurrency_per_shard=2)
    assert calls == [os.path.join(idx, f"shard={s}") for s in range(N_SHARDS)]


def test_sharded_bmw_rank_identity(sharded):
    import ray.data

    corpus, idx = sharded
    queries = gen_queries(corpus, n_keyword=5, seed=11)[7:]  # keyword queries only
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_sharded(qds, idx, N_SHARDS, CFG, mode="bmw").to_pandas()
    oracle = OracleIndex(corpus, CFG)
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_merge_k_not_truncated(sharded):
    """Regression (ADVICE r1): when EVERY shard returns fewer than k
    rows but the union has more candidates, the merge must still return
    min(k, total_matches) rows — k travels with the result rows (scorer
    emit_k), it is never inferred from per-shard rank counts."""
    import ray.data

    import pyarrow as pa

    corpus, idx = sharded
    oracle = OracleIndex(corpus, CFG)
    # a term matching enough docs that no single shard holds k of them,
    # but the union exceeds what any one shard returns
    term, df = max(
        ((t, len(p)) for t, p in oracle.postings.items() if 6 <= len(p) <= 30),
        key=lambda x: x[1],
    )
    k = df + 20  # k exceeds every shard's match count AND the union's
    qds = ray.data.from_arrow(
        pa.table(
            {
                "query_id": pa.array([0], type=pa.int64()),
                "text": pa.array([term], type=pa.string()),
                "k": pa.array([k], type=pa.uint32()),
            }
        )
    )
    out = query_sharded(qds, idx, N_SHARDS, CFG, mode="taat").to_pandas().sort_values("rank")
    od, osc = oracle.score(term, k)
    assert od.size == df  # sanity: oracle returns every match
    assert len(out) == df, f"merge truncated: {len(out)} rows, expected {df}"
    np.testing.assert_array_equal(out.doc_id.to_numpy(dtype=np.uint64), od)
    np.testing.assert_array_equal(out.score.to_numpy(), osc)


def test_empty_shards_are_servable(ray_session, tmp_path):
    """n_shards near the doc count leaves hash-empty shards; the
    sharded index must still serve (empty sub-indexes are skipped)."""
    import ray.data

    cfg = EngineConfig(num_buckets=4, dedup=False)
    corpus = gen_corpus(60, seed=55, with_cases=False).slice(0, 5)
    idx = str(tmp_path / "tiny")
    dirs = build_sharded_index(ray.data.from_arrow(corpus), idx, 8, cfg, fingerprint="tiny")
    assert len(dirs) == 8
    oracle = OracleIndex(corpus, cfg)
    queries = gen_queries(corpus, n_keyword=3, seed=55)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_sharded(qds, idx, 8, cfg, mode="taat").to_pandas()
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_sharded_global_dedup(ray_session, tmp_path):
    """Duplicates whose copies land in DIFFERENT shards are still
    deduped (global pre-shard sha pass), matching the single-index
    engine with dedup on."""
    import ray.data

    cfg = EngineConfig(num_buckets=8, dedup=True)
    corpus = gen_corpus(300, seed=21)  # fixture injects cross-row dups
    idx = str(tmp_path / "dd")
    build_sharded_index(ray.data.from_arrow(corpus), idx, N_SHARDS, cfg, fingerprint="dd")
    oracle = OracleIndex(corpus, cfg)  # oracle dedups too
    import json
    import os

    stats = json.load(open(os.path.join(idx, "shard=0", "corpus_stats.json")))
    assert stats["n_docs"] == oracle.n_docs  # global count matches post-dedup
    queries = gen_queries(corpus, n_keyword=8, seed=21)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_sharded(qds, idx, N_SHARDS, cfg, mode="taat").to_pandas()
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_sharded_resume_after_shard_crash(ray_session, tmp_path):
    """Crash recovery for the single-pass split layout: if one shard's
    build is destroyed after the split committed, re-running
    build_sharded_index with the SAME fingerprint skips the split pass
    (staged fragments + docs reused, no re-tokenization) and rebuilds
    only the damaged shard; the intact shard's postings keep their
    mtimes. A DIFFERENT fingerprint wipes and redoes the split."""
    import glob
    import os
    import shutil

    import ray.data

    cfg = EngineConfig(num_buckets=4, dedup=False)
    corpus = gen_corpus(200, seed=77)
    idx = str(tmp_path / "resume")
    build_sharded_index(ray.data.from_arrow(corpus), idx, 2, cfg, fingerprint="r1")

    intact = sorted(glob.glob(os.path.join(idx, "shard=0", "parts", "**", "*.parquet"),
                              recursive=True))
    mtimes = {p: os.path.getmtime(p) for p in intact}
    # destroy shard 1's committed output (keep its staged fragments/docs)
    shutil.rmtree(os.path.join(idx, "shard=1", "parts"))
    for m in glob.glob(os.path.join(idx, "shard=1", "manifest", "*.json")):
        if not m.endswith("docs.json"):
            os.unlink(m)
    os.unlink(os.path.join(idx, "shard=1", "corpus_stats.json"))

    frag_before = set(glob.glob(os.path.join(idx, "shard=1", "fragments", "*.parquet")))
    build_sharded_index(ray.data.from_arrow(corpus), idx, 2, cfg, fingerprint="r1")
    # split pass skipped: staged fragments are the same files
    frag_after = set(glob.glob(os.path.join(idx, "shard=1", "fragments", "*.parquet")))
    assert frag_after == frag_before
    # intact shard untouched
    for p in intact:
        assert os.path.getmtime(p) == mtimes[p], f"intact shard partition rewritten: {p}"
    # and the resumed index serves rank-identically
    oracle = OracleIndex(corpus, cfg)
    queries = gen_queries(corpus, n_keyword=5, seed=77)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_sharded(qds, idx, 2, cfg, mode="taat").to_pandas()
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)

    # new fingerprint ⇒ fresh split (marker mismatch wipes shard dirs)
    build_sharded_index(ray.data.from_arrow(corpus), idx, 2, cfg, fingerprint="r2")
    out2 = query_sharded(qds, idx, 2, cfg, mode="taat").to_pandas()
    assert len(out2) == len(out)


def test_sharded_filter_and_negation_match_single_index(sharded, tmp_path):
    """doc_filter + exclude_terms through the sharded fan-out equal the
    single-index filtered/negated ranking (shard-local allowed/denied
    sets union to the global ones — docs are hash-partitioned
    disjointly)."""
    import ray.data

    from docinsight_ray.build import build_index
    from docinsight_ray.scorer import BM25Scorer

    corpus, idx = sharded
    single = str(tmp_path / "single")
    build_index(ray.data.from_arrow(corpus), single, CFG, fingerprint="sh-single")
    neg = ("score", "vabe")
    langs = ("py", "go", "rs", "c")
    ref = BM25Scorer(single, CFG, mode="taat",
                     doc_filter=("lang", langs), exclude_terms=neg)
    queries = gen_queries(corpus, n_keyword=8, seed=12)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_sharded(qds, idx, N_SHARDS, CFG, mode="taat",
                        doc_filter=("lang", langs), exclude_terms=neg).to_pandas()
    checked = 0
    for qid, text, k in queries:
        od, osc = ref.score_taat(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)
        checked += 1 if od.size else 0
    assert checked >= 3


def test_sharded_include_set_matches_single_index(sharded, tmp_path):
    """include_doc_ids through the sharded fan-out equals the
    single-index include-restricted ranking (each shard intersects the
    global include set with its disjoint registry slice)."""
    import ray.data

    from docinsight_ray.build import build_index
    from docinsight_ray.scorer import BM25Scorer

    corpus, idx = sharded
    single = str(tmp_path / "single-inc")
    build_index(ray.data.from_arrow(corpus), single, CFG, fingerprint="sh-single-inc")
    base = BM25Scorer(single, CFG, mode="taat")
    queries = gen_queries(corpus, n_keyword=6, seed=13)
    d_any, _ = base.score_taat(queries[0][1], base.n_docs)
    include = np.sort(d_any[::2].astype(np.uint64))  # arbitrary id subset
    ref = BM25Scorer(single, CFG, mode="taat", include_doc_ids=include)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_sharded(qds, idx, N_SHARDS, CFG, mode="taat",
                        include_doc_ids=include).to_pandas()
    checked = 0
    for qid, text, k in queries:
        od, osc = ref.score_taat(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)
        checked += 1 if od.size else 0
    assert checked >= 2


def test_sharded_msm_synonyms_boosts_match_single_index(sharded, tmp_path):
    """min_should_match / synonyms / boosts through the sharded fan-out
    equal the single-index engine bitwise: postings of a doc live whole
    in its shard (complete match counts) and term weights use the
    distributed global stats."""
    import ray.data

    from docinsight_ray.build import build_index
    from docinsight_ray.scorer import BM25Scorer

    corpus, idx = sharded
    single = str(tmp_path / "single-dsl")
    build_index(ray.data.from_arrow(corpus), single, CFG, fingerprint="sh-single-dsl")
    queries = [q for q in gen_queries(corpus, n_keyword=8, seed=17)
               if len(q[1].split()) >= 2]
    assert len(queries) >= 3
    vocab_term = queries[0][1].split()[0]
    syn = {vocab_term: (queries[1][1].split()[0],)}
    boosts = {vocab_term: 2.5}
    for kwargs in (
        {"min_should_match": 2},
        {"synonyms": syn},
        {"boosts": boosts},
    ):
        ref = BM25Scorer(single, CFG, mode="taat", **kwargs)
        qds = ray.data.from_arrow(queries_table(queries))
        out = query_sharded(qds, idx, N_SHARDS, CFG, mode="taat", **kwargs).to_pandas()
        nonempty = 0
        for qid, text, k in queries:
            od, osc = ref.score_taat(text, k)
            sub = out[out.query_id == qid].sort_values("rank")
            np.testing.assert_array_equal(
                sub.doc_id.to_numpy(dtype=np.uint64), od, err_msg=f"{kwargs} q{qid}"
            )
            np.testing.assert_array_equal(sub.score.to_numpy(), osc)
            nonempty += 1 if od.size else 0
        assert nonempty >= 1, kwargs


def test_sharded_bm25plus_rank_identity(sharded):
    """BM25+ carries through the sharded fan-out: per-shard scorers use
    the distributed GLOBAL df/avgdl, so the +idf·delta floors equal the
    single-corpus oracle's bitwise."""
    import ray.data

    corpus, idx = sharded
    queries = gen_queries(corpus, n_keyword=8, seed=13)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_sharded(qds, idx, N_SHARDS, CFG, mode="bm25plus").to_pandas()
    oracle = OracleIndex(corpus, CFG)
    for qid, text, k in queries:
        od, osc = oracle.score_bm25plus(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(
            sub.doc_id.to_numpy(dtype=np.uint64), od, err_msg=f"q{qid}"
        )
        np.testing.assert_array_equal(sub.score.to_numpy(), osc, err_msg=f"q{qid}")
