"""End-to-end build + query conformance (SURVEY.md §5.2 items 2-6)."""

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from docinsight_ray.build import build_index
from docinsight_ray.codec import decode_posting
from docinsight_ray.config import EngineConfig
from docinsight_ray.fixtures import gen_corpus, gen_queries, queries_table
from docinsight_ray.oracle import OracleIndex
from docinsight_ray.scorer import BM25Scorer, query_index

CFG = EngineConfig(num_buckets=8, hot_salt=3, hot_df_ratio=0.25)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    corpus = gen_corpus(400, seed=42)
    idx = str(tmp_path_factory.mktemp("idx") / "index")
    corpus_path = str(tmp_path_factory.mktemp("corpus") / "corpus.parquet")
    pq.write_table(corpus, corpus_path)
    ds = ray.data.read_parquet(corpus_path)
    res = build_index(ds, idx, CFG, fingerprint="test400")
    return corpus, idx, res


def _load_all_postings(idx):
    files = sorted(glob.glob(os.path.join(idx, "parts", "**", "*.parquet"), recursive=True))
    return pa.concat_tables([pq.read_table(f) for f in files])


def test_sha256_invariant(built):
    corpus, idx, res = built
    docs = pq.ParquetDataset(os.path.join(idx, "docs")).read()
    by_key = {}
    for r, p, c, sha in zip(
        docs["repo"].to_pylist(), docs["path"].to_pylist(),
        docs["commit"].to_pylist(), docs["content_sha256"].to_pylist(),
    ):
        by_key[(r, p, c)] = sha
    assert len(by_key) == corpus.num_rows
    for r, p, c, content in zip(
        corpus["repo"].to_pylist(), corpus["path"].to_pylist(),
        corpus["commit"].to_pylist(), corpus["content"].to_pylist(),
    ):
        assert by_key[(r, p, c)] == hashlib.sha256(content.encode()).hexdigest()


def test_postings_invariants(built):
    corpus, idx, res = built
    tbl = _load_all_postings(idx)
    terms = tbl["term"].to_pylist()
    assert len(terms) == len(set(terms)), "duplicate term rows after merge"
    total_tf = 0
    for df, dvb, tvb in zip(tbl["df"].to_pylist(), tbl["doc_ids_vb"].to_pylist(), tbl["tfs_vb"].to_pylist()):
        doc_ids, tfs = decode_posting(dvb, tvb, df)
        assert doc_ids.size == df
        if doc_ids.size > 1:
            assert (doc_ids[1:] > doc_ids[:-1]).all(), "doc_ids not strictly increasing"
        assert (tfs >= 1).all()
        total_tf += int(tfs.sum())
    # Σ tf over all postings == Σ doc_len over canonical (deduped) docs
    assert total_tf == res.total_len


def test_dedup_applied(built):
    corpus, idx, res = built
    assert res.n_dup_losers > 0  # fixture injects 1% dups
    content_counts = {}
    for c in corpus["content"].to_pylist():
        content_counts[c] = content_counts.get(c, 0) + 1
    n_distinct = len(content_counts)
    assert res.n_docs == n_distinct


def test_hot_terms_detected_and_salted(built):
    corpus, idx, res = built
    assert "public" in res.hot_terms and "class" in res.hot_terms
    # hot terms were built via the salted partial path
    assert os.path.isdir(os.path.join(idx, "partial"))
    hot_files = glob.glob(os.path.join(idx, "parts", "hot", "*.parquet"))
    assert hot_files
    hot_tbl = pa.concat_tables([pq.read_table(f) for f in hot_files])
    assert "public" in hot_tbl["term"].to_pylist()


def test_rank_identity_vs_oracle_taat_and_bmw(built):
    corpus, idx, res = built
    oracle = OracleIndex(corpus, CFG)
    assert oracle.n_docs == res.n_docs
    assert abs(oracle.avgdl - res.avgdl) < 1e-9
    scorer_taat = BM25Scorer(idx, CFG, mode="taat")
    scorer_bmw = BM25Scorer(idx, CFG, mode="bmw")
    queries = gen_queries(corpus, n_keyword=25, seed=42)
    assert len(queries) == 32  # 7 originals + 25 keyword
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        td, tsc = scorer_taat.score_taat(text, k)
        bd, bsc = scorer_bmw.score_bmw(text, k)
        np.testing.assert_array_equal(td, od, err_msg=f"TAAT doc mismatch q{qid}")
        np.testing.assert_array_equal(osc, tsc, err_msg=f"TAAT score mismatch q{qid}")
        np.testing.assert_array_equal(bd, od, err_msg=f"BMW doc mismatch q{qid}")
        np.testing.assert_array_equal(bsc, osc, err_msg=f"BMW score mismatch q{qid}")


def test_lmdir_rank_identity(built):
    """LM Dirichlet mode vs the brute-force oracle: same docs, bitwise
    scores — the pluggable-scoring contract over one index build."""
    corpus, idx, res = built
    oracle = OracleIndex(corpus, CFG)
    scorer = BM25Scorer(idx, CFG, mode="lmdir")
    for qid, text, k in gen_queries(corpus, n_keyword=15, seed=7):
        od, osc = oracle.score_lmdir(text, k)
        sd, ssc = scorer.score_lmdir(text, k)
        np.testing.assert_array_equal(sd, od, err_msg=f"lmdir doc mismatch q{qid}")
        np.testing.assert_array_equal(ssc, osc, err_msg=f"lmdir score mismatch q{qid}")
    # sanity: lmdir is a different model, not a rescaled BM25 — the
    # ordering must differ from TAAT on at least one query
    diffs = 0
    for qid, text, k in gen_queries(corpus, n_keyword=15, seed=7):
        bd, _ = scorer.score_taat(text, k)
        ld, _ = scorer.score_lmdir(text, k)
        if bd.size and ld.size and not np.array_equal(bd, ld):
            diffs += 1
    assert diffs > 0


def test_bm25plus_rank_identity(built):
    """BM25+ mode vs the brute-force oracle: same docs, bitwise scores.
    Also pins the defining property (Lv & Zhai 2011): every served
    score is >= the plain-BM25 score of the same doc by at least one
    idf·delta floor (each matched term adds idf·delta > 0)."""
    corpus, idx, res = built
    oracle = OracleIndex(corpus, CFG)
    scorer = BM25Scorer(idx, CFG, mode="bm25plus")
    plain = BM25Scorer(idx, CFG, mode="taat")
    diffs = 0
    for qid, text, k in gen_queries(corpus, n_keyword=15, seed=7):
        od, osc = oracle.score_bm25plus(text, k)
        sd, ssc = scorer.score_bm25plus(text, k)
        np.testing.assert_array_equal(sd, od, err_msg=f"bm25plus doc mismatch q{qid}")
        np.testing.assert_array_equal(ssc, osc, err_msg=f"bm25plus score mismatch q{qid}")
        # floor property on the overlap with plain BM25's candidates
        bd, bsc = plain.score_taat(text, max(k, 1000))
        bmap = {int(d): s for d, s in zip(bd, bsc)}
        for d, s in zip(sd, ssc):
            if int(d) in bmap:
                assert s > bmap[int(d)], f"q{qid}: BM25+ not above BM25 for doc {d}"
        if bd.size and sd.size and not np.array_equal(bd[: sd.size], sd):
            diffs += 1
    assert diffs > 0, "BM25+ never reordered a query vs plain BM25"


def test_plagiarism_conformance(built):
    """Case originals must rank their own plagiarized variants above
    non-plagiarized files (contract mirroring the intent of
    /root/reference/data/sourcecode/)."""
    corpus, idx, res = built
    from docinsight_ray.ids import doc_id_from_key

    doc_ids = doc_id_from_key(
        corpus["repo"].to_pylist(), corpus["path"].to_pylist(), corpus["commit"].to_pylist()
    )
    meta = {int(d): (r, p) for d, r, p in zip(doc_ids, corpus["repo"].to_pylist(), corpus["path"].to_pylist())}
    scorer = BM25Scorer(idx, CFG, mode="taat")
    contents = corpus["content"].to_pylist()
    for i, (r, p) in enumerate(zip(corpus["repo"].to_pylist(), corpus["path"].to_pylist())):
        if not (r.startswith("cases/") and p == "original/Main.java"):
            continue
        d, s = scorer.score_taat(contents[i], 10)
        top = [meta[int(x)] for x in d]
        # top hit is from the same case (original or a near-identical
        # variant — BM25 can rank an L1/L2 variant above the original
        # when renames collide into repeated terms), original in top-3,
        # and same-case docs dominate the top-10
        assert top[0][0] == r, f"top hit not from {r}: {top[0]}"
        assert (r, p) in top[:3], f"original not in top-3 for {r}"
        same_case = sum(1 for rr, pp in top if rr == r and not pp.startswith("non-plagiarized/"))
        assert same_case >= 8, f"{r}: only {same_case} same-case docs in top-10: {top}"


def test_query_dataset_pipeline(built, ray_session):
    import ray.data

    corpus, idx, res = built
    queries = gen_queries(corpus, n_keyword=5, seed=42)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_index(qds, idx, CFG, mode="taat", concurrency=2).to_pandas()
    oracle = OracleIndex(corpus, CFG)
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_query_preload_shared_state_identical(built, ray_session):
    """query_index with concurrency=2 — pool actors share one
    plasma-backed decoded index (scorer_pool's state rule) — is rank-
    and score-identical to the oracle."""
    import ray.data

    corpus, idx, res = built
    queries = gen_queries(corpus, n_keyword=5, seed=43)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_index(qds, idx, CFG, mode="maxscore", concurrency=2).to_pandas()
    oracle = OracleIndex(corpus, CFG)
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_unknown_mode_raises(built):
    """A mistyped mode fails at construction, naming every valid mode,
    instead of being served as TAAT."""
    from docinsight_ray.scorer import MODES

    corpus, idx, res = built
    with pytest.raises(ValueError, match="'max_score'") as e:
        BM25Scorer(idx, CFG, mode="max_score")
    assert all(m in str(e.value) for m in MODES)


def test_pool_state_sharing_rule(built, ray_session, monkeypatch):
    """query_index decodes the index into the object store
    (load_index_state) once exactly when its eager pool may run more
    than one actor — never for one actor or a partition-lazy pool."""
    import ray.data

    from docinsight_ray import scorer

    corpus, idx, res = built
    calls = []
    real = scorer.load_index_state
    monkeypatch.setattr(scorer, "load_index_state", lambda d: calls.append(d) or real(d))
    qds = ray.data.from_arrow(queries_table(gen_queries(corpus, n_keyword=2, seed=44)))
    query_index(qds, idx, CFG, concurrency=1)
    query_index(qds, idx, CFG, concurrency=2, max_loaded_parts=2)
    assert calls == []
    query_index(qds, idx, CFG, concurrency=2)
    assert calls == [idx]
    assert CFG.scorer_concurrency > 1
    query_index(qds, idx, CFG)  # default: cfg.scorer_concurrency actors
    assert calls == [idx, idx]


def test_determinism_across_parallelism(built, ray_session, tmp_path):
    """Same input at different block counts → byte-identical postings
    content (SURVEY.md §5.2 item 6)."""
    import ray.data

    corpus, idx, res = built
    idx2 = str(tmp_path / "index2")
    ds = ray.data.from_arrow(corpus).repartition(13)
    res2 = build_index(ds, idx2, CFG, fingerprint="test400-alt")
    a = _load_all_postings(idx).sort_by("term")
    b = _load_all_postings(idx2).sort_by("term")
    assert a.num_rows == b.num_rows
    for col in ["term", "df", "doc_ids_vb", "tfs_vb"]:
        assert a[col].to_pylist() == b[col].to_pylist(), f"column {col} differs"
    assert res2.n_docs == res.n_docs and res2.total_len == res.total_len


def test_resume_skips_committed_partitions(built, ray_session, tmp_path, capsys):
    import ray.data

    corpus, idx, res = built
    idx3 = str(tmp_path / "index3")
    ds = ray.data.from_arrow(corpus)
    build_index(ds, idx3, CFG, fingerprint="resume-test")
    # simulate a partial failure: delete one committed partition + manifest
    parts = sorted(glob.glob(os.path.join(idx3, "parts", "g*", "postings.parquet")))
    victim = parts[0]
    gname = os.path.basename(os.path.dirname(victim))
    os.unlink(victim)
    os.unlink(os.path.join(idx3, "manifest", f"{gname}.json"))
    os.unlink(os.path.join(idx3, "manifest", "_SUCCESS.json"))
    before = {p: os.path.getmtime(p) for p in parts if p != victim}
    res3 = build_index(ds, idx3, CFG, fingerprint="resume-test")
    # untouched partitions were not rewritten
    for p, mt in before.items():
        assert os.path.getmtime(p) == mt, f"{p} was rebuilt"
    assert os.path.exists(victim), "missing partition was rebuilt"
    # result identical to the reference build
    a = _load_all_postings(idx).sort_by("term")
    c = _load_all_postings(idx3).sort_by("term")
    for col in ["term", "df", "doc_ids_vb", "tfs_vb"]:
        assert a[col].to_pylist() == c[col].to_pylist()


def test_noop_rebuild(built, ray_session):
    import ray.data

    corpus, idx, res = built
    ds = ray.data.from_arrow(corpus)
    parts = sorted(glob.glob(os.path.join(idx, "parts", "**", "*.parquet"), recursive=True))
    before = {p: os.path.getmtime(p) for p in parts}
    res2 = build_index(ds, idx, CFG, fingerprint="test400")
    for p, mt in before.items():
        assert os.path.getmtime(p) == mt
    assert res2.n_docs == res.n_docs


def test_stored_blockmax_dominates(built):
    """Stored block-max metadata is each block's exact maximum live
    weight rounded UP to float32: it bounds every posting (the
    no-decode WAND scale path must never under-estimate) and is no
    looser than float32 rounding (a term's last block must not take
    the maximum of later terms in its merge group)."""
    from docinsight_ray.bm25 import tf_sat_weight

    corpus, idx, res = built
    docs = pq.ParquetDataset(os.path.join(idx, "docs")).read(columns=["doc_id", "doc_len"])
    did = docs["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    dl = docs["doc_len"].to_numpy(zero_copy_only=False)
    order = np.argsort(did)
    did, dl = did[order], dl[order]
    tbl = _load_all_postings(idx)
    for df, dvb, tvb, bmax, blast in zip(
        tbl["df"].to_pylist(), tbl["doc_ids_vb"].to_pylist(), tbl["tfs_vb"].to_pylist(),
        tbl["block_max_w"].to_pylist(), tbl["block_last_doc"].to_pylist(),
    ):
        doc_ids, tfs = decode_posting(dvb, tvb, df)
        w = tf_sat_weight(tfs, dl[np.searchsorted(did, doc_ids)], res.avgdl, CFG.k1, CFG.b)
        bs = CFG.block_size
        for bi in range(len(bmax)):
            exact = w[bi * bs : (bi + 1) * bs].max()
            up = np.float32(exact)
            if float(up) < exact:
                up = np.nextafter(up, np.float32(np.inf))
            assert np.float32(bmax[bi]) == up
            assert blast[bi] == doc_ids[min((bi + 1) * bs, len(doc_ids)) - 1]


def test_rank_identity_second_scale(ray_session, tmp_path):
    """Oracle conformance at a second corpus scale (SURVEY §5.2 item 2)."""
    import ray.data

    from docinsight_ray.oracle import OracleIndex
    from docinsight_ray.scorer import BM25Scorer

    corpus = gen_corpus(150, seed=99, with_cases=False)
    idx = str(tmp_path / "idx150")
    build_index(ray.data.from_arrow(corpus), idx, CFG, fingerprint="scale150")
    oracle = OracleIndex(corpus, CFG)
    scorer = BM25Scorer(idx, CFG, mode="taat")
    bmw = BM25Scorer(idx, CFG, mode="bmw")
    for qid, text, k in gen_queries(corpus, n_keyword=15, seed=99):
        od, osc = oracle.score(text, k)
        td, tsc = scorer.score_taat(text, k)
        bd, bsc = bmw.score_bmw(text, k)
        np.testing.assert_array_equal(td, od)
        np.testing.assert_array_equal(tsc, osc)
        np.testing.assert_array_equal(bd, od)
        np.testing.assert_array_equal(bsc, osc)


def test_maxscore_rank_identity(built):
    """MaxScore pruning is rank-identical (docs AND bitwise scores) to
    TAAT/oracle on every fixture query."""
    corpus, idx, res = built
    oracle = OracleIndex(corpus, CFG)
    sc = BM25Scorer(idx, CFG, mode="maxscore")
    for qid, text, k in gen_queries(corpus, n_keyword=25, seed=42):
        od, osc = oracle.score(text, k)
        md, msc = sc.score_maxscore(text, k)
        np.testing.assert_array_equal(md, od, err_msg=f"maxscore doc mismatch q{qid}")
        np.testing.assert_array_equal(msc, osc, err_msg=f"maxscore score mismatch q{qid}")


def test_conjunctive_rank_identity(built):
    """Conjunctive (AND) retrieval returns exactly the docs containing
    EVERY query term, with scores bitwise-equal to the other modes."""
    corpus, idx, res = built
    oracle = OracleIndex(corpus, CFG)
    sc = BM25Scorer(idx, CFG, mode="conjunctive")
    for qid, text, k in gen_queries(corpus, n_keyword=15, seed=42):
        terms = sc.query_terms(text)
        raw_missing = any(
            not sc.has_term(t)
            for t in __import__("docinsight_ray.tokenizer", fromlist=["tokenize_text"]).tokenize_text(text, CFG)
        )
        d, s = sc.score_conjunctive(text, k)
        if raw_missing or not terms:
            assert d.size == 0
            continue
        # oracle: exhaustive scores filtered to all-terms docs
        od, osc = oracle.score(text, oracle.n_docs)
        have_all = []
        for di in od:
            have_all.append(all(
                any(int(di) == p[0] for p in oracle.postings[t]) for t in terms
            ))
        keep = np.asarray(have_all, dtype=bool)
        codc, cosc = od[keep], osc[keep]
        from docinsight_ray.bm25 import topk_order

        sel = topk_order(codc, cosc, k)
        np.testing.assert_array_equal(d, codc[sel], err_msg=f"conjunctive docs q{qid}")
        np.testing.assert_array_equal(s, cosc[sel], err_msg=f"conjunctive scores q{qid}")


def test_min_should_match(built):
    """minimum_should_match: m=1 is bitwise-identical to the plain
    disjunction; m=|q| equals the conjunction; intermediate m keeps
    exactly the docs matching >= m distinct indexed query terms, with
    unchanged BM25 scores."""
    corpus, idx, res = built
    from docinsight_ray.bm25 import topk_order

    oracle = OracleIndex(corpus, CFG)
    base = BM25Scorer(idx, CFG)
    conj = BM25Scorer(idx, CFG, mode="conjunctive")
    for qid, text, k in gen_queries(corpus, n_keyword=15, seed=7):
        terms = base.query_terms(text)
        if len(terms) < 2:
            continue
        # m=1 == plain TAAT
        m1 = BM25Scorer(idx, CFG, min_should_match=1)
        np.testing.assert_array_equal(m1.score_taat(text, k)[0], base.score_taat(text, k)[0])
        # m=2: oracle = exhaustive scores filtered by match count >= 2
        m2 = BM25Scorer(idx, CFG, min_should_match=2)
        d2, s2 = m2.score_taat(text, k)
        od, osc = oracle.score(text, oracle.n_docs)
        n_match = np.asarray([
            sum(any(int(di) == p[0] for p in oracle.postings[t]) for t in terms)
            for di in od
        ])
        keep = n_match >= 2
        kd, ks = od[keep], osc[keep]
        sel = topk_order(kd, ks, k)
        np.testing.assert_array_equal(d2, kd[sel], err_msg=f"msm docs q{qid}")
        np.testing.assert_array_equal(s2, ks[sel], err_msg=f"msm scores q{qid}")
        # m=|q| == conjunction (when every raw token is indexed)
        from docinsight_ray.tokenizer import tokenize_text as _tok

        if all(base.has_term(t) for t in _tok(text, CFG)):
            mq = BM25Scorer(idx, CFG, min_should_match=len(terms))
            np.testing.assert_array_equal(
                mq.score_taat(text, k)[0], conj.score_conjunctive(text, k)[0]
            )


def test_synonym_expansion(built):
    """Query-time synonyms: scoring text with a thesaurus equals
    scoring the manually expanded term bag; entries mapping to terms
    absent from the index are no-ops; expansion composes with the
    pruning modes bitwise."""
    corpus, idx, res = built
    sc = BM25Scorer(idx, CFG)
    # pick two real terms from the index vocabulary
    post = _load_all_postings(idx)
    vocab = sorted(post["term"].to_pylist())[:50]
    a, b = vocab[0], vocab[-1]
    syn = {a: (b,), "absentsrc": (a,)}
    s_syn = BM25Scorer(idx, CFG, synonyms=syn)
    d1, s1 = s_syn.score_taat(a, 10)
    d2, s2 = sc.score_taat(f"{a} {b}", 10)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(s1, s2)
    # absent-target synonym is a no-op
    s_noop = BM25Scorer(idx, CFG, synonyms={a: ("zzz_not_in_vocab",)})
    d3, s3 = s_noop.score_taat(a, 10)
    np.testing.assert_array_equal(d3, sc.score_taat(a, 10)[0])
    np.testing.assert_array_equal(s3, sc.score_taat(a, 10)[1])
    # expansion from a RAW token absent from the index still applies
    d4, _ = s_syn.score_taat("absentsrc", 10)
    np.testing.assert_array_equal(d4, sc.score_taat(a, 10)[0])
    # pruning-mode parity under expansion
    s_bmw = BM25Scorer(idx, CFG, mode="bmw", synonyms=syn)
    db, sb = s_bmw.score_bmw(a, 10)
    np.testing.assert_array_equal(db, d1)
    np.testing.assert_array_equal(sb, s1)


def test_query_boosts(built):
    """Per-term boosts: all-1.0 boosts are bitwise-identical to the
    unboosted engine; boosted MaxScore (scaled upper bounds) and
    conjunctive equal boosted TAAT bitwise; bmw/lmdir reject boosts."""
    corpus, idx, res = built
    base = BM25Scorer(idx, CFG)
    post = _load_all_postings(idx)
    vocab = sorted(post["term"].to_pylist())
    a, b = vocab[0], vocab[len(vocab) // 2]
    boosts = {a: 3.0, b: 0.25}
    for qid, text, k in gen_queries(corpus, n_keyword=15, seed=11):
        ones = BM25Scorer(idx, CFG, boosts={t: 1.0 for t in base.query_terms(text)})
        np.testing.assert_array_equal(ones.score_taat(text, k)[1], base.score_taat(text, k)[1])
        t_sc = BM25Scorer(idx, CFG, boosts=boosts)
        m_sc = BM25Scorer(idx, CFG, mode="maxscore", boosts=boosts)
        td, ts = t_sc.score_taat(text, k)
        md, ms = m_sc.score_maxscore(text, k)
        np.testing.assert_array_equal(md, td, err_msg=f"boosted maxscore docs q{qid}")
        np.testing.assert_array_equal(ms, ts, err_msg=f"boosted maxscore scores q{qid}")
    # conjunctive parity on a query of two boosted terms
    c_sc = BM25Scorer(idx, CFG, mode="conjunctive", boosts=boosts)
    t_sc = BM25Scorer(idx, CFG, boosts=boosts)
    cd, cs = c_sc.score_conjunctive(f"{a} {b}", 10)
    if cd.size:
        td, ts = t_sc.score_taat(f"{a} {b}", c_sc.n_docs)
        pos = {int(d): float(s) for d, s in zip(td, ts)}
        assert all(pos[int(d)] == float(s) for d, s in zip(cd, cs))
    for bad in ("bmw", "lmdir"):
        with pytest.raises(ValueError):
            BM25Scorer(idx, CFG, mode=bad, boosts=boosts)


def test_msm_rejects_pruning_modes(built):
    corpus, idx, res = built
    with pytest.raises(ValueError):
        BM25Scorer(idx, CFG, mode="maxscore", min_should_match=2)


def test_build_dup_free_corpus(ray_session, tmp_path):
    """Regression: a corpus with ZERO duplicate contents must build
    (empty dup-sha Dataset loses its schema in to_pandas)."""
    import ray.data

    corpus = gen_corpus(60, seed=123, with_cases=False)
    assert len(set(corpus["content"].to_pylist())) == corpus.num_rows
    res = build_index(ray.data.from_arrow(corpus), str(tmp_path / "idx"), CFG, fingerprint="nodups")
    assert res.n_dup_losers == 0 and res.n_docs == corpus.num_rows


def test_unicode_content_builds_and_matches_oracle(ray_session, tmp_path):
    """Non-ASCII content (identifiers, comments, emoji) must build,
    keep the sha256 invariant, and score rank-identically."""
    import ray.data

    rows = [
        ("r", f"u/{i}.java", "", "java",
         f"class Ünïcode{i} {{ // コメント {i} ✨\n  int café_{i} = {i}; "
         f"String z = \"naïve Σσ {i}\"; }}")
        for i in range(40)
    ]
    corpus = pa.table(
        {
            "repo": pa.array([r[0] for r in rows]),
            "path": pa.array([r[1] for r in rows]),
            "commit": pa.array([r[2] for r in rows]),
            "lang": pa.array([r[3] for r in rows]),
            "content": pa.array([r[4] for r in rows]),
        }
    )
    idx = str(tmp_path / "uni")
    res = build_index(ray.data.from_arrow(corpus), idx, CFG, fingerprint="uni")
    assert res.n_docs == 40
    docs = pq.ParquetDataset(os.path.join(idx, "docs")).read()
    shas = dict(zip(docs["path"].to_pylist(), docs["content_sha256"].to_pylist()))
    for _r, p, _c, _l, content in rows:
        assert shas[p] == hashlib.sha256(content.encode()).hexdigest()
    oracle = OracleIndex(corpus, CFG)
    sc = BM25Scorer(idx, CFG, mode="maxscore")
    for q in ("cafe", "class int", "string naive"):
        od, osc = oracle.score(q, 10)
        d, s = sc.score_maxscore(q, 10)
        np.testing.assert_array_equal(d, od)
        np.testing.assert_array_equal(s, osc)


# sha256 of the postings of gen_corpus(300, seed=42) under CFG; any
# change to the encoder, hot-term salting or dedup that alters a byte
# fails here. Re-pinned when block maxima became exact per term (the
# digest over the other seven columns, 29ba90d2…, did not change)
GOLDEN_POSTINGS_SHA256 = "3be81ec7c0f3a8fa2f8f9ae3244309a24fb39b492e5508794a2570067ae85de8"


def test_golden_postings_digest(ray_session, tmp_path):
    """The postings bytes of a fixed build never change under refactors.
    ``bucket`` is left out: its value depends on the polars hash."""
    import ray.data

    idx = str(tmp_path / "golden")
    build_index(ray.data.from_arrow(gen_corpus(300, seed=42)), idx, CFG, fingerprint="golden")
    cols = ["term", "df", "doc_ids_vb", "tfs_vb", "block_max_w", "block_last_doc",
            "block_doc_off", "block_tf_off"]
    tbl = _load_all_postings(idx).select(cols).sort_by("term")
    h = hashlib.sha256()
    for row in zip(*(tbl[c].to_pylist() for c in cols)):
        h.update(repr(row).encode())
    assert h.hexdigest() == GOLDEN_POSTINGS_SHA256


def test_fragments_dir_uri(ray_session, tmp_path):
    """The SPIMI fragment side-channel works through a pyarrow.fs URI
    (object-store plumbing, exercised via file://) and produces a
    byte-identical index to the plain-path build — the multi-node
    shared-storage contract of build_index."""
    import ray.data

    corpus = gen_corpus(120, seed=61, with_cases=False)
    idx_a = str(tmp_path / "plain")
    idx_b = str(tmp_path / "uri")
    frag_uri = f"file://{tmp_path}/shared_fragments"
    build_index(ray.data.from_arrow(corpus), idx_a, CFG, fingerprint="fs")
    build_index(ray.data.from_arrow(corpus), idx_b, CFG, fingerprint="fs",
                fragments_dir=frag_uri)
    import glob as _glob

    assert _glob.glob(str(tmp_path / "shared_fragments" / "*.parquet"))
    assert not os.path.isdir(os.path.join(idx_b, "fragments"))
    a = _load_all_postings(idx_a).sort_by("term")
    b = _load_all_postings(idx_b).sort_by("term")
    for col in ["term", "df", "doc_ids_vb", "tfs_vb"]:
        assert a[col].to_pylist() == b[col].to_pylist(), f"column {col} differs"


def test_bmw_lazy_block_decode(ray_session, tmp_path):
    """WAND must not decode blocks the shallow check prunes: with a
    selective (rare∧hot) query, the hot list's decoded-block count
    stays below its total block count."""
    import ray.data

    from docinsight_ray.scorer import BM25Scorer

    cfg = EngineConfig(num_buckets=4, block_size=8, hot_df_ratio=0.5, dedup=False)
    corpus = gen_corpus(600, seed=77, with_cases=False)
    idx = str(tmp_path / "lazy")
    build_index(ray.data.from_arrow(corpus), idx, cfg, fingerprint="lazy")
    sc = BM25Scorer(idx, cfg, mode="bmw")
    assert sc._bmax_safe, "single-index build must enable the lazy path"
    # rare term: few-doc df, SPARSE relative to the hot list's block
    # count (below the density rule's 1/8 coverage) so the lazy
    # per-block path is exercised, not the whole-list promotion.
    # a rare∧hot two-term query: once top-k fills from rare∧hot docs,
    # θ > hot-UB, the hot list is never opened, and probes decode only
    # the blocks containing the rare candidates
    def df_of(t):
        part, row = sc._lookup(t)
        return int(part.df[row])

    hot_part, hot_row = sc._lookup("public")
    hot_blocks = len(hot_part.bmax(hot_row))
    all_terms = [t for p in sc._parts.values() for t in p.terms]
    lo, hi = 4, max(4, hot_blocks // 8)
    rare = min((t for t in all_terms if lo <= df_of(t) <= hi), key=df_of)
    q = f"{rare} public"
    d, s = sc.score_bmw(q, 3)
    assert d.size > 0
    hot_tp = sc._tp_cache["public"]
    assert hot_tp.n_blocks >= 10
    assert not hot_tp._promoted, "hot list must not have been promoted to full decode"
    decoded = len(hot_tp._blocks)
    assert 0 < decoded < hot_tp.n_blocks // 4, (
        f"expected sparse lazy decode; got {decoded} of {hot_tp.n_blocks} blocks"
    )
    # and the result is still exact
    from docinsight_ray.oracle import OracleIndex

    od, osc = OracleIndex(corpus, cfg).score(q, 3)
    np.testing.assert_array_equal(d, od)
    np.testing.assert_array_equal(s, osc)


def test_lazy_partition_scorer(built):
    """Partition-lazy serving (ROADMAP §5): with max_loaded_parts set,
    the scorer loads only the partitions its query terms route to,
    keeps at most that many resident, and stays rank- AND score-
    identical to the eager scorer."""
    corpus, idx, res = built
    eager = BM25Scorer(idx, CFG, mode="maxscore")
    n_parts_total = len(eager._part_files)
    assert n_parts_total >= 4, "test needs a multi-partition index"
    lazy = BM25Scorer(idx, CFG, mode="maxscore", max_loaded_parts=2)
    assert lazy.partitions_loaded == 0, "lazy scorer must not load at init"
    # a narrow query set: one rare + one hot term → at most 3 partitions
    q = "public class"
    for mode_fn_e, mode_fn_l in [
        (eager.score_maxscore, lazy.score_maxscore),
        (eager.score_taat, lazy.score_taat),
        (eager.score_bmw, lazy.score_bmw),
    ]:
        d_e, s_e = mode_fn_e(q, 10)
        d_l, s_l = mode_fn_l(q, 10)
        np.testing.assert_array_equal(d_l, d_e)
        np.testing.assert_array_equal(s_l, s_e)
    assert 0 < lazy.partitions_loaded <= 3, (
        f"narrow query set should touch few partitions, loaded {lazy.partitions_loaded}"
    )
    assert len(lazy._parts) <= 2, "resident partitions must respect the LRU cap"
    # a broad sweep still bounded: residency never exceeds the cap and
    # results stay identical even when routing evicts and reloads
    for qid, text, k in gen_queries(corpus, n_keyword=10, seed=9):
        d_e, s_e = eager.score_maxscore(text, k)
        d_l, s_l = lazy.score_maxscore(text, k)
        np.testing.assert_array_equal(d_l, d_e, err_msg=f"lazy doc mismatch q{qid}")
        np.testing.assert_array_equal(s_l, s_e, err_msg=f"lazy score mismatch q{qid}")
        assert len(lazy._parts) <= 2


def test_tp_cache_byte_budget(built):
    """ADVICE r2: _TermPostings per-block decodes are charged against
    the shared byte budget, and promotion holds no strong reference —
    total tracked cache bytes never exceed the budget, with results
    unchanged under a budget small enough to force eviction."""
    import dataclasses

    corpus, idx, res = built
    tight = dataclasses.replace(CFG, decode_cache_mb=1)  # ~1 MB forces churn
    sc = BM25Scorer(idx, tight, mode="bmw")
    ref = BM25Scorer(idx, CFG, mode="bmw")
    budget = sc.cache_budget_bytes
    for qid, text, k in gen_queries(corpus, n_keyword=20, seed=5):
        d, s = sc.score_bmw(text, k)
        d_r, s_r = ref.score_bmw(text, k)
        np.testing.assert_array_equal(d, d_r, err_msg=f"budgeted doc mismatch q{qid}")
        np.testing.assert_array_equal(s, s_r, err_msg=f"budgeted score mismatch q{qid}")
        # accounting invariants: tracked totals match the live entries
        # and never exceed the configured budget (±1 resident entry per
        # pool, the "keep at least one" floor)
        live_tp = sum(tp.blocks_bytes for tp in sc._tp_cache.values())
        assert live_tp == sc._tp_bytes
        live_cache = sum(sum(a.nbytes for a in e) for e in sc._cache.values())
        assert live_cache == sc._cache_bytes
        # a promoted list must pin nothing outside the budgeted LRU
        for tp in sc._tp_cache.values():
            if tp._promoted:
                assert tp.blocks_bytes == 0 and not tp._blocks
    # the budget can only be exceeded by the single-entry floors
    biggest = max(
        (sum(a.nbytes for a in e) for e in sc._cache.values()), default=0
    )
    assert sc._cache_bytes + sc._tp_bytes <= budget + biggest


def test_doc_filter_exact(built):
    """Filtered retrieval (metadata predicate): results equal the
    brute-force "full ranking restricted to allowed docs" reference,
    identically across every pruning mode, with corpus-global BM25
    stats (scores of surviving docs unchanged)."""
    corpus, idx, res = built
    langs = ("py", "go", "rs", "c")  # the fixture's non-java minority
    full = BM25Scorer(idx, CFG, mode="taat")
    allowed_tbl = pq.read_table(os.path.join(idx, "docs"), columns=["doc_id", "lang"])
    allowed = {
        d for d, l in zip(allowed_tbl["doc_id"].to_pylist(), allowed_tbl["lang"].to_pylist())
        if l in langs
    }
    assert 0 < len(allowed) < full.n_docs, "fixture must have a lang minority"
    scorers = {
        m: BM25Scorer(idx, CFG, mode=m, doc_filter=("lang", langs))
        for m in ("taat", "maxscore", "bmw")
    }
    checked = 0
    for qid, text, k in gen_queries(corpus, n_keyword=12, seed=11):
        d_all, s_all = full.score_taat(text, full.n_docs)
        keep = np.array([d in allowed for d in d_all], dtype=bool)
        want_d, want_s = d_all[keep][:k], s_all[keep][:k]
        for m, sc in scorers.items():
            d_f, s_f = {
                "taat": sc.score_taat, "maxscore": sc.score_maxscore, "bmw": sc.score_bmw,
            }[m](text, k)
            np.testing.assert_array_equal(d_f, want_d, err_msg=f"{m} docs q{qid}")
            np.testing.assert_array_equal(s_f, want_s, err_msg=f"{m} scores q{qid}")
        checked += 1 if want_d.size else 0
    assert checked >= 3, "filter test needs queries that hit the minority langs"
    # conjunctive under filter: every result doc is allowed and
    # contains every query term
    conj = BM25Scorer(idx, CFG, mode="conjunctive", doc_filter=("lang", langs))
    d_c, _ = conj.score_conjunctive("public class", 50)
    assert all(d in allowed for d in d_c)
    # an impossible predicate yields empty results in every mode
    none = BM25Scorer(idx, CFG, mode="bmw", doc_filter=("lang", ("cobol",)))
    for fn in (none.score_taat, none.score_maxscore, none.score_bmw):
        d0, s0 = fn("public class", 10)
        assert d0.size == 0 and s0.size == 0


def test_exclude_terms_exact(built):
    """Negated-term retrieval (boolean NOT): results equal the
    brute-force "full ranking minus docs containing any excluded term"
    reference, identically across every pruning mode. The denied-doc
    ground truth comes from single-term TAAT queries (a doc scores > 0
    on a one-term query iff it contains the term) — independent of the
    exclude_terms code path."""
    corpus, idx, res = built
    full = BM25Scorer(idx, CFG, mode="taat")
    neg = ("score", "vabe")  # fixture df ≈ 200/398 and 34/398 — a real split
    denied: set[int] = set()
    for t in neg:
        d_t, _ = full.score_taat(t, full.n_docs)
        denied |= set(d_t.tolist())
    assert 0 < len(denied) < full.n_docs, "fixture must split on the excluded terms"
    scorers = {
        m: BM25Scorer(idx, CFG, mode=m, exclude_terms=neg)
        for m in ("taat", "maxscore", "bmw")
    }
    checked = 0
    for qid, text, k in gen_queries(corpus, n_keyword=12, seed=13):
        d_all, s_all = full.score_taat(text, full.n_docs)
        keep = np.array([d not in denied for d in d_all], dtype=bool)
        want_d, want_s = d_all[keep][:k], s_all[keep][:k]
        for m, sc in scorers.items():
            d_f, s_f = {
                "taat": sc.score_taat, "maxscore": sc.score_maxscore, "bmw": sc.score_bmw,
            }[m](text, k)
            np.testing.assert_array_equal(d_f, want_d, err_msg=f"{m} docs q{qid}")
            np.testing.assert_array_equal(s_f, want_s, err_msg=f"{m} scores q{qid}")
        checked += 1 if want_d.size else 0
    assert checked >= 3
    # an unknown excluded term is a no-op (nothing to deny)
    noop = BM25Scorer(idx, CFG, mode="taat", exclude_terms=("zzzneverindexed",))
    d_n, s_n = noop.score_taat("public class", 25)
    d_0, s_0 = full.score_taat("public class", 25)
    np.testing.assert_array_equal(d_n, d_0)
    np.testing.assert_array_equal(s_n, s_0)
    # composes with the metadata filter: allowed ∧ ¬denied
    langs = ("py", "go", "rs", "c")
    both = BM25Scorer(idx, CFG, mode="maxscore",
                      doc_filter=("lang", langs), exclude_terms=neg)
    flt = BM25Scorer(idx, CFG, mode="taat", doc_filter=("lang", langs))
    d_all, s_all = flt.score_taat("public class", full.n_docs)
    keep = np.array([d not in denied for d in d_all], dtype=bool)
    d_b, s_b = both.score_maxscore("public class", 25)
    np.testing.assert_array_equal(d_b, d_all[keep][:25])
    np.testing.assert_array_equal(s_b, s_all[keep][:25])


def test_expand_prefix(built):
    """Wildcard expansion against the index vocabulary: equals the
    brute-force scan of the corpus tokenizer's output; empty for a
    prefix no term starts with; limit caps the (sorted) expansion."""
    from docinsight_ray.scorer import expand_prefix
    from docinsight_ray.tokenizer import tokenize_text

    corpus, idx, res = built
    vocab = set()
    for content in corpus["content"].to_pylist():
        vocab.update(tokenize_text(content, CFG))
    # the index drops dedup losers, so the index vocab ⊆ corpus vocab;
    # check against the full expansion of a live prefix
    got = expand_prefix(idx, "s")
    want = sorted(v for v in vocab if v.startswith("s"))
    assert set(got) <= set(want) and len(got) > 1
    assert got == sorted(got)
    assert expand_prefix(idx, "zzzzzz") == []
    assert expand_prefix(idx, "s", limit=1) == got[:1]


def test_expand_fuzzy(built):
    """Edit-distance expansion equals a brute-force scan of the corpus
    vocabulary with plain Levenshtein; exact term included at d=0."""
    from docinsight_ray.scorer import _edit_leq, expand_fuzzy
    from docinsight_ray.tokenizer import tokenize_text

    corpus, idx, res = built
    vocab = set()
    for content in corpus["content"].to_pylist():
        vocab.update(tokenize_text(content, CFG))

    def lev(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    for probe in ("public", "merg", "scor", "xyzzy"):
        got = set(expand_fuzzy(idx, probe, 1))
        want = {v for v in vocab if lev(probe, v) <= 1}
        assert got <= want  # index vocab ⊆ corpus vocab (dedup losers)
        # every corpus-vocab neighbor that IS indexed must be found
        from docinsight_ray.scorer import BM25Scorer

        sc = BM25Scorer(idx, CFG)
        assert got == {v for v in want if sc.has_term(v)}
    # _edit_leq agrees with the reference DP on tricky pairs
    for a, b, d, ok in (
        ("tabel", "table", 1, False),  # transposition costs 2 in plain Levenshtein
        ("tabel", "table", 2, True),
        ("", "ab", 1, False),
        ("", "a", 1, True),
        ("same", "same", 0, True),
    ):
        assert _edit_leq(a, b, d) is ok, (a, b, d)


def test_explain_matches_served_score(ray_session, tmp_path):
    """explain(): per-term contributions sum bitwise to the served
    TAAT score; tf/df fields are real; filtered-out docs report
    in_candidate_set=False with zero score; unknown doc_id raises."""
    import math

    import pytest
    import ray.data

    from docinsight_ray.build import build_index
    from docinsight_ray.config import EngineConfig
    from docinsight_ray.fixtures import gen_corpus
    from docinsight_ray.scorer import BM25Scorer

    cfg = EngineConfig(num_buckets=8)
    corpus = gen_corpus(150, seed=91)
    idx = str(tmp_path / "index")
    build_index(ray.data.from_arrow(corpus), idx, cfg, fingerprint="xp")
    sc = BM25Scorer(idx, cfg, mode="taat")
    q = "public static void class"
    d, s = sc.score_taat(q, 5)
    assert d.size > 0
    for did, score in zip(d, s):
        ex = sc.explain(q, int(did))
        assert ex["score"] == float(score)  # bitwise: same adds, same order
        assert ex["in_candidate_set"]
        assert math.isclose(sum(t["contribution"] for t in ex["terms"]), ex["score"],
                            rel_tol=1e-12)
        for t in ex["terms"]:
            if t["contribution"]:
                assert t["tf"] >= 1 and t["df"] >= 1 and t["idf"] > 0
    # a doc removed by the include set explains as out-of-candidate
    import numpy as np

    other = np.asarray([x for x in sc._dl_docid if x != d[0]][:10], dtype=np.uint64)
    sc2 = BM25Scorer(idx, cfg, mode="taat", include_doc_ids=other)
    ex = sc2.explain(q, int(d[0]))
    assert not ex["in_candidate_set"] and ex["score"] == 0.0
    with pytest.raises(ValueError, match="not in this index"):
        sc.explain(q, 12345)


def test_explain_with_boosts(built):
    """explain() on a boosted scorer reports per-term boost and a total
    bitwise-equal to the boosted served score."""
    corpus, idx, res = built
    post = _load_all_postings(idx)
    vocab = sorted(post["term"].to_pylist())
    a, b = vocab[0], vocab[len(vocab) // 3]
    sc = BM25Scorer(idx, CFG, boosts={a: 2.0})
    d, s = sc.score_taat(f"{a} {b}", 5)
    if d.size:
        ex = sc.explain(f"{a} {b}", int(d[0]))
        assert ex["score"] == float(s[0])
        by_term = {t["term"]: t for t in ex["terms"]}
        assert by_term[a].get("boost") == 2.0
        assert "boost" not in by_term[b]


def test_term_dict_sidecar(built, tmp_path):
    """The build writes a globally SORTED term_dict sidecar (one (term,
    df) row per term) whose df totals match the postings partitions,
    and every vocabulary reader returns identical results from the
    sidecar and from the parts-scan fallback."""
    import shutil

    from docinsight_ray.scorer import (
        expand_fuzzy,
        expand_prefix,
        expand_regex,
        suggest_terms,
        vocab_df,
    )

    corpus, idx, res = built
    td_files = sorted(glob.glob(os.path.join(idx, "term_dict", "**", "*.parquet"), recursive=True))
    assert td_files, "build must write the term_dict sidecar"
    td = pa.concat_tables([pq.read_table(f) for f in td_files])
    terms = td["term"].to_pylist()
    assert terms == sorted(terms), "sidecar must be globally sorted"
    assert len(terms) == len(set(terms)), "one row per term"
    parts = _load_all_postings(idx)
    assert sum(td["df"].to_pylist()) == sum(parts["df"].to_pylist())
    assert set(terms) == set(parts["term"].to_pylist())

    # sidecar path == fallback path for every vocabulary reader
    via_dict = {
        "prefix": expand_prefix(idx, "s"),
        "fuzzy": expand_fuzzy(idx, "merg", 1),
        "regex": expand_regex(idx, "s[a-z]+"),
        "suggest": suggest_terms(idx, "p", n=4),
        "vocab": vocab_df(idx),
    }
    hidden = str(tmp_path / "term_dict_moved")
    shutil.move(os.path.join(idx, "term_dict"), hidden)
    try:
        assert expand_prefix(idx, "s") == via_dict["prefix"]
        assert expand_fuzzy(idx, "merg", 1) == via_dict["fuzzy"]
        assert expand_regex(idx, "s[a-z]+") == via_dict["regex"]
        assert suggest_terms(idx, "p", n=4) == via_dict["suggest"]
        assert vocab_df(idx) == via_dict["vocab"]
    finally:
        shutil.move(hidden, os.path.join(idx, "term_dict"))


def test_part_multi_chunk_binary_payloads(built):
    """_Part widens binary payload columns to large_binary before
    combining chunks: a hot-term partition can exceed binary's int32
    offset capacity (observed at the 4M-doc stress rung — 312 hot
    terms, 3.2 GB of varbyte postings in ONE part file → ArrowInvalid
    'offset overflow while concatenating arrays' on scorer load).
    Rechunk a real partition table and assert byte-identical payload
    access vs the single-chunk view."""
    from docinsight_ray.scorer import _Part

    corpus, idx, res = built
    tbl = _load_all_postings(idx).combine_chunks()
    ref = _Part(tbl, None)
    multi = pa.concat_tables(tbl.slice(i, 7) for i in range(0, tbl.num_rows, 7))
    assert multi["doc_ids_vb"].num_chunks > 1
    part = _Part(multi, None)
    assert part._doc_vb_arr.type == pa.large_binary()
    step = max(1, tbl.num_rows // 50)
    for i in range(0, tbl.num_rows, step):
        assert bytes(part.doc_vb(i)) == bytes(ref.doc_vb(i))
        assert bytes(part.tf_vb(i)) == bytes(ref.tf_vb(i))


@pytest.mark.skipif(
    not os.environ.get("STRESS_TESTS"), reason="allocates ~5 GiB (set STRESS_TESTS=1)"
)
def test_part_binary_offset_overflow_guard():
    """True >2 GiB repro of the 4M-doc scorer-load crash: three ~0.8 GiB
    payload rows in separate chunks overflow int32 binary offsets on a
    plain combine_chunks; _Part must load them via large_binary and
    return each value intact."""
    from docinsight_ray.scorer import _Part

    blob = lambda b, n: pa.table({
        "term": pa.array([f"t{b}"]),
        "df": pa.array([1], type=pa.uint32()),
        "doc_ids_vb": pa.array([bytes([b]) * n], type=pa.binary()),
        "tfs_vb": pa.array([b"\x01"], type=pa.binary()),
        "block_max_w": pa.array([[1.0]], type=pa.list_(pa.float32())),
        "block_last_doc": pa.array([[1]], type=pa.list_(pa.uint64())),
    })
    n = 800 << 20
    tbl = pa.concat_tables([blob(1, n), blob(2, n), blob(3, n)])
    part = _Part(tbl, None)
    for i, b in enumerate((1, 2, 3)):
        mv = part.doc_vb(i)
        assert len(mv) == n and mv[0] == b and mv[-1] == b


def test_merge_group_payload_guard(monkeypatch):
    """A merge group whose varbyte payload exceeds Arrow binary's int32
    offsets must fail with the re-partitioning remedy (num_buckets /
    hot_salt), not an opaque ArrowCapacityError from pa.array."""
    from docinsight_ray import build as bmod

    cfg = EngineConfig()
    terms = np.array(["a", "a", "b"], dtype=object)
    args = (
        terms,
        np.array([1, 2, 3], dtype=np.uint64),
        np.array([1, 1, 2], dtype=np.uint32),
        np.array([5, 5, 5], dtype=np.uint32),
        5.0,
        cfg,
    )
    assert bmod._encode_sorted_group(*args).num_rows == 2
    monkeypatch.setattr(bmod, "_BIN_OFFSET_LIMIT", 1)
    with pytest.raises(ValueError, match="num_buckets"):
        bmod._encode_sorted_group(*args)
