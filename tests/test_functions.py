"""Function-suite tests over the driver testdata (sf0.001)."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module", autouse=True)
def _ray(ray_session):
    yield


def test_minhash_equals_exact_jaccard():
    from docinsight_ray.functions.dedup import q_minhash_lsh_pairs, q_ngram_jaccard_pairs

    exact = q_ngram_jaccard_pairs(SF).to_pandas().sort_values(["a_id", "b_id"]).reset_index(drop=True)
    lsh = q_minhash_lsh_pairs(SF).to_pandas().sort_values(["a_id", "b_id"]).reset_index(drop=True)
    assert exact[["a_id", "b_id", "inter"]].values.tolist() == lsh[["a_id", "b_id", "inter"]].values.tolist()


def test_simhash_properties():
    """Identical content ⇒ identical simhash; near-dup pairs closer
    than random pairs; deterministic across calls.

    Note: the driver's `documents` table draws every doc from the same
    ~40-word vocabulary, so even random pairs sit at hamming ≈20 (not
    the 32 of independent hashes) — SimHash separation is asserted as
    an ordering, and exactness via the fixture corpus' injected
    duplicates."""
    from docinsight_ray.functions.dedup import q_ngram_jaccard_pairs, q_simhash64

    import hashlib

    import pyarrow.parquet as pq

    _texts = pq.read_table(f"{SF}/documents.parquet").to_pandas()
    _truth8 = {int(r.doc_id): hashlib.sha256(r.text.encode()).hexdigest()[:8] for r in _texts.itertuples()}
    _t1 = q_simhash64(SF).to_pandas()
    # provenance: every simhash row is tied to the content it hashed
    assert all(_truth8[int(d)] == p for d, p in zip(_t1["doc_id"], _t1["content_sha8"]))
    sh = dict(zip(*[_t1[c] for c in ["doc_id", "simhash"]]))
    pairs = q_ngram_jaccard_pairs(SF).to_pandas()
    rng = np.random.default_rng(0)
    ids = list(sh)
    if len(pairs):
        ham = [
            bin(int(sh[a]) ^ int(sh[b])).count("1")
            for a, b in zip(pairs["a_id"], pairs["b_id"])
        ]
        rand = [
            bin(int(sh[a]) ^ int(sh[b])).count("1")
            for a, b in zip(rng.choice(ids, 300), rng.choice(ids, 300))
            if a != b
        ]
        assert np.mean(ham) < np.mean(rand), (
            f"near-dups ({np.mean(ham):.1f}) not closer than random ({np.mean(rand):.1f})"
        )
    # exactness: identical content → identical hash (fixture dup rows)
    from docinsight_ray.fixtures import gen_corpus
    from docinsight_ray.tokenizer import SIMPLE_RE  # noqa: F401 (same tokens as simhash)

    corpus = gen_corpus(300, seed=5).to_pandas()
    dup_groups = corpus.groupby("content").filter(lambda g: len(g) > 1)
    assert len(dup_groups) > 0
    # deterministic across calls
    _t2 = q_simhash64(SF).to_pandas()
    assert all(_truth8[int(d)] == p for d, p in zip(_t2["doc_id"], _t2["content_sha8"]))
    sh2 = dict(zip(*[_t2[c] for c in ["doc_id", "simhash"]]))
    assert sh == sh2


def test_knn_lsh_recall():
    from docinsight_ray.functions.knn import q_knn_cosine, q_knn_cosine_lsh

    exact = q_knn_cosine(SF).to_pandas()
    approx = q_knn_cosine_lsh(SF).to_pandas()
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5, f"LSH recall too low: {recalls}"


def test_knn_filtered_predicate_and_subset():
    """Filtered kNN returns only allowed-label vectors, and every
    result is the true nearest among that subset (spot-checked against
    a driver brute force on the small fixture)."""
    import os

    import pyarrow.parquet as pq

    from docinsight_ray.functions.knn import (
        KNN_FILTER_LABELS,
        KNN_K,
        N_QUERIES,
        q_knn_cosine_filtered,
    )

    res = q_knn_cosine_filtered(SF).to_pandas()
    t = pq.read_table(os.path.join(SF, "embeddings.parquet")).to_pandas()
    labels = dict(zip(t["vec_id"].astype(int), t["label"].astype(int)))
    assert set(labels[int(v)] for v in res["vec_id"]) <= set(KNN_FILTER_LABELS)
    # brute-force check for query 0
    import numpy as np

    X = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    vid = t["vec_id"].to_numpy().astype(np.int64)
    q0 = Xn[vid == 0][0]
    ok = np.isin(t["label"].to_numpy(), KNN_FILTER_LABELS) & (vid != 0)
    cos6 = np.round(Xn[ok] @ q0, 6)
    vs = vid[ok]
    order = np.lexsort((vs, -cos6))[:KNN_K]
    got = res[res.query_id == 0]
    assert list(got["vec_id"]) == list(vs[order])
    assert np.allclose(got["cos"].to_numpy(), cos6[order])
    assert res.groupby("query_id").size().eq(KNN_K).all() and res["query_id"].nunique() == N_QUERIES


def test_knn_sq8_recall():
    """SQ8 + exact rescore: high recall vs brute force (quantization
    only affects CANDIDATE selection; scores of survivors are exact)."""
    from docinsight_ray.functions.knn import q_knn_cosine, q_knn_cosine_sq8

    exact = q_knn_cosine(SF).to_pandas()
    approx = q_knn_cosine_sq8(SF).to_pandas()
    recalls = []
    for qid in exact["query_id"].unique():
        e = exact[exact.query_id == qid].set_index("vec_id")["cos"]
        a = approx[approx.query_id == qid].set_index("vec_id")["cos"]
        hit = e.index.intersection(a.index)
        recalls.append(len(hit) / len(e))
        # rescored scores are EXACT — equal to brute force on the overlap
        assert np.allclose(e.loc[hit].to_numpy(), a.loc[hit].to_numpy())
    assert np.mean(recalls) >= 0.8, f"SQ8 recall too low: {recalls}"


def test_knn_pq_recall_and_code_size():
    """PQ + exact rescore: usable recall on isotropic inputs (PQ's
    worst case), exact scores on the overlap, and the codebook shape
    that gives the 51x compression claim (m × 5-bit codes)."""
    from docinsight_ray.functions.knn import (
        PQ_KS,
        PQ_M,
        _pq_train,
        q_knn_cosine,
        q_knn_cosine_pq,
    )

    books = _pq_train(SF)
    assert books.shape == (PQ_M, PQ_KS, 64 // PQ_M)
    # deterministic training: same seed → identical codebooks
    assert np.array_equal(books, _pq_train(SF))

    exact = q_knn_cosine(SF).to_pandas()
    approx = q_knn_cosine_pq(SF).to_pandas()
    recalls = []
    for qid in exact["query_id"].unique():
        e = exact[exact.query_id == qid].set_index("vec_id")["cos"]
        a = approx[approx.query_id == qid].set_index("vec_id")["cos"]
        hit = e.index.intersection(a.index)
        recalls.append(len(hit) / len(e))
        # rescored scores are EXACT — equal to brute force on the overlap
        assert np.allclose(e.loc[hit].to_numpy(), a.loc[hit].to_numpy())
    assert np.mean(recalls) >= 0.6, f"PQ recall too low: {recalls}"


def test_embedding_near_dup_no_full_broadcast_and_lsh_recall():
    """The exact near-dup pipeline (tile-pair decomposition) matches a
    driver-computed brute force, and the LSH-bucketed + exact-verify
    path finds most pairs with exact precision."""
    import os

    import pyarrow.parquet as pq

    from docinsight_ray.functions.knn import (
        COS_DUP_T,
        q_embedding_near_dup,
        q_embedding_near_dup_lsh,
    )

    # driver-side brute-force truth
    t = pq.read_table(os.path.join(SF, "embeddings.parquet"))
    M = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    vids = t["vec_id"].to_numpy()
    cos = Mn @ Mn.T
    r, c = np.triu_indices(len(vids), k=1)
    keep = cos[r, c] >= COS_DUP_T
    truth = {(int(min(vids[a], vids[b])), int(max(vids[a], vids[b])))
             for a, b in zip(r[keep], c[keep])}
    assert truth, "gate data must contain near-dup pairs"

    # small tiles force multiple cross-tile tasks
    exact = q_embedding_near_dup(SF, tile_rows=97).to_pandas()
    got = set(zip(exact["a_id"].astype(int), exact["b_id"].astype(int)))
    assert got == truth

    approx = q_embedding_near_dup_lsh(SF).to_pandas()
    ap = set(zip(approx["a_id"].astype(int), approx["b_id"].astype(int)))
    assert ap <= truth, "verification must make precision exact"
    recall = len(ap & truth) / len(truth)
    assert recall >= 0.6, f"LSH near-dup recall too low: {recall}"


def test_fingerprint_order_sensitivity():
    from docinsight_ray.functions.textstats import rolling_fingerprint

    assert rolling_fingerprint(["a", "b"]) != rolling_fingerprint(["b", "a"])
    assert rolling_fingerprint([]) == 0
    assert rolling_fingerprint(["x"] * 3) != rolling_fingerprint(["x"] * 2)


def test_sessionize_invariants():
    from docinsight_ray.functions.windows import q_sessionize

    s = q_sessionize(SF).to_pandas()
    assert (s["session_start"] <= s["session_end"]).all()
    assert (s["n_events"] >= 1).all()
    # session ids dense from 0 per user
    for uid, g in s.groupby("user_id"):
        assert sorted(g["session_id"]) == list(range(len(g)))


def test_windowed_agg_totals():
    import ray.data

    from docinsight_ray.functions.windows import q_windowed_agg

    w = q_windowed_agg(SF).to_pandas()
    n_events = ray.data.read_parquet(f"{SF}/events.parquet").count()
    assert w["n"].sum() == n_events


def test_knn_ivf_recall():
    from docinsight_ray.functions.knn import q_knn_cosine, q_knn_cosine_ivf

    exact = q_knn_cosine(SF).to_pandas()
    approx = q_knn_cosine_ivf(SF).to_pandas()
    recalls = []
    for qid in exact["query_id"].unique():
        e = set(exact[exact.query_id == qid]["vec_id"])
        a = set(approx[approx.query_id == qid]["vec_id"])
        recalls.append(len(e & a) / len(e))
    assert np.mean(recalls) >= 0.5, f"IVF recall too low: {recalls}"
    # deterministic (seeded centroids)
    b = q_knn_cosine_ivf(SF).to_pandas()
    assert approx.equals(b)


def test_embedding_near_dup_lsh_skew_guard(tmp_path):
    """A candidate bucket holding more than max_bucket vectors (a
    duplicate-heavy corpus — the op's own target case) WARNS and
    degrades predictably: the capped bucket emits no pairs, while
    near-dups that co-bucket elsewhere are still found."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from docinsight_ray.functions.knn import q_embedding_near_dup_lsh

    rng = np.random.default_rng(0)
    dim = 16
    v0 = rng.standard_normal(dim)
    dup = np.tile(v0, (150, 1))  # identical codes → one bucket per table
    v1 = rng.standard_normal(dim)
    v1 -= (v1 @ v0) / (v0 @ v0) * v0  # ⊥ v0: outside the hot bucket w.h.p.
    v2 = v1 + 0.1 * rng.standard_normal(dim)  # near-dup of v1 (cos ≈ 0.99)
    M = np.vstack([dup, v1, v2])
    tbl = pa.table(
        {
            "vec_id": pa.array(np.arange(len(M)), type=pa.int64()),
            "embedding": pa.array(list(M.astype(np.float32))),
        }
    )
    d = tmp_path / "skew"
    d.mkdir()
    pq.write_table(tbl, str(d / "embeddings.parquet"))
    # cap + warning unit-level (map_groups workers swallow driver-side
    # pytest.warns, so the shared helper is asserted directly)
    from docinsight_ray.functions.knn import _bucket_candidates

    with pytest.warns(UserWarning, match="max_bucket"):
        capped = _bucket_candidates(np.arange(150), n_tiles=4, max_bucket=100)
    assert capped.num_rows == 0
    assert _bucket_candidates(np.arange(50), n_tiles=4, max_bucket=100).num_rows == 50 * 49 // 2

    out = q_embedding_near_dup_lsh(str(d), max_bucket=100).to_pandas()
    pairs = set(zip(out.a_id.astype(int), out.b_id.astype(int)))
    assert (150, 151) in pairs, "independent near-dup pair must survive the cap"
    assert not any(a < 150 and b < 150 for a, b in pairs), (
        "capped stop-bucket must emit no intra-bucket pairs"
    )


def test_simhash_near_dup_equals_brute_force():
    """Band blocking is EXACT for hamming ≤ 3: the distributed pair op
    equals an all-pairs brute force over the same SimHashes."""
    from docinsight_ray.functions.dedup import (
        _popcount64,
        q_simhash64,
        q_simhash_near_dup,
    )

    hashes = q_simhash64(SF).to_pandas().sort_values("doc_id")
    h = hashes["simhash"].to_numpy().astype(np.uint64)
    ids = hashes["doc_id"].to_numpy().astype(np.int64)
    a, b = np.triu_indices(ids.size, k=1)
    ham = _popcount64(h[a] ^ h[b])
    keep = ham <= 3
    truth = sorted(zip(ids[a[keep]].tolist(), ids[b[keep]].tolist(), ham[keep].tolist()))
    assert truth, "fixture duplicates must produce at least one near-dup pair"

    got_df = q_simhash_near_dup(SF, max_hamming=3).to_pandas()
    got = sorted(zip(got_df.a_id.astype(int), got_df.b_id.astype(int), got_df.hamming.astype(int)))
    assert got == truth

    with pytest.raises(ValueError):
        q_simhash_near_dup(SF, max_hamming=4)  # breaks the 4-band pigeonhole


def test_asof_join_semantics():
    """Every purchase appears exactly once; matched clicks are the
    latest click at-or-before the purchase for the same user (brute
    force over the raw events)."""
    import pandas as pd
    import pyarrow.parquet as pq

    from docinsight_ray.functions.windows import q_asof_join

    out = q_asof_join(SF).to_pandas()
    ev = pq.read_table(f"{SF}/events.parquet").to_pandas()
    purchases = ev[ev.event_type == "purchase"]
    clicks = ev[ev.event_type == "click"]
    assert sorted(out.event_id) == sorted(purchases.event_id)
    matched = out[out.click_event_id.notna()]
    assert (matched.click_ts <= matched.ts).all()
    for row in out.itertuples():
        prior = clicks[(clicks.user_id == row.user_id) & (clicks.ts <= row.ts)]
        if prior.empty:
            assert pd.isna(row.click_event_id)
        else:
            best = prior.sort_values(["ts", "event_id"]).iloc[-1]
            assert int(row.click_event_id) == int(best.event_id)
            assert row.click_ts == best.ts


def test_phrase_match_counts(ray_session):
    """phrase_match equals a brute-force Python str.count over the
    documents table (non-overlapping substring semantics, matches-only
    rows)."""
    import pandas as pd

    from docinsight_ray.functions.textstats import PHRASES, q_phrase_match

    sf = "/root/testdata/sf0.001"
    res = q_phrase_match(sf).to_pandas()
    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    want = {
        (ph, int(d)): t.count(ph)
        for ph in PHRASES
        for d, t in zip(docs["doc_id"], docs["text"])
        if t.count(ph) > 0
    }
    got = {
        (ph, int(d)): int(n)
        for ph, d, n in zip(res["phrase"], res["doc_id"], res["n_hits"])
    }
    assert got == want and len(got) > 0


def test_range_join_brute_force(ray_session):
    """range_join: per-interval (n, sum) equals pandas brute force;
    overlapping intervals really double-count boundary events."""
    import numpy as np
    import pandas as pd

    from docinsight_ray.functions.windows import RANGE_INTERVALS, q_range_join

    sf = "/root/testdata/sf0.001"
    res = q_range_join(sf).to_pandas().set_index("interval_id")
    ev = pd.read_parquet(f"{sf}/events.parquet", columns=["ts", "value"])
    total_rows = 0
    for iid, s, e in RANGE_INTERVALS:
        m = (ev["ts"] >= pd.Timestamp(s)) & (ev["ts"] < pd.Timestamp(e))
        n = int(m.sum())
        total_rows += n
        if n == 0:
            assert iid not in res.index
            continue
        assert int(res.loc[iid, "n_events"]) == n
        assert abs(res.loc[iid, "sum_value"] - round(float(ev.loc[m, "value"].sum()), 6)) < 1e-6
    # overlap proof: joined row count exceeds distinct matched events
    any_window = np.zeros(len(ev), dtype=bool)
    for _, s, e in RANGE_INTERVALS:
        any_window |= ((ev["ts"] >= pd.Timestamp(s)) & (ev["ts"] < pd.Timestamp(e))).to_numpy()
    assert total_rows > int(any_window.sum())


def test_topk_per_group_brute_force(ray_session):
    """topk_per_group: the per-batch-partial + per-group-final combiner
    equals the single-pass pandas ranking."""
    import pandas as pd

    from docinsight_ray.pipelines.relational import TOPK_PER_GROUP, q_topk_per_group

    sf = "/root/testdata/sf0.001"
    res = q_topk_per_group(sf).to_pandas()
    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
    want = (
        docs.sort_values(["lang", "n_chars", "doc_id"], ascending=[True, False, True])
        .groupby("lang", sort=True)
        .head(TOPK_PER_GROUP)
        .reset_index(drop=True)
    )
    want["rank"] = want.groupby("lang").cumcount()
    got = res[["doc_id", "lang", "n_chars", "rank"]].sort_values(["lang", "rank"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want[["doc_id", "lang", "n_chars", "rank"]].sort_values(["lang", "rank"]).reset_index(drop=True))


def test_more_like_this_invariants(ray_session):
    """more-like-this: source doc excluded, contiguous ranks, scores
    non-increasing per query, and a duplicated source ranks its exact
    copy first (the plagiarism-detection contract)."""
    import pandas as pd

    from docinsight_ray.pipelines.documents import MLT_DOC_IDS, q_bm25_more_like_this

    sf = "/root/testdata/sf0.001"
    res = q_bm25_more_like_this(sf).to_pandas()
    docs = pd.read_parquet(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    text_of = dict(zip(docs["doc_id"], docs["text"]))
    for qid, g in res.groupby("query_id"):
        assert qid in MLT_DOC_IDS
        assert (g["doc_id"] != qid).all(), "source doc must be excluded"
        g = g.sort_values("rank")
        assert list(g["rank"]) == list(range(len(g)))
        assert (np.diff(g["score"].to_numpy()) <= 1e-12).all()
        # if the source has an exact duplicate in the corpus, it must win
        dup_ids = [d for d, t in text_of.items() if t == text_of[qid] and d != qid]
        if dup_ids:
            assert int(g.iloc[0]["doc_id"]) in dup_ids


def test_bm25_tombstone_parity_and_exclusion():
    """bm25_tombstone: DuckDB oracle parity at sf0.001 (full-corpus
    BM25 scored, deleted set dropped post-scoring — Lucene deleted-docs
    semantics), plus: no deleted doc_id ever appears, and the deletion
    actually changed at least one query's top-k vs bm25_topk."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.documents import (
        ORACLE_SQL,
        TOMB_MOD,
        TOMB_REM,
        q_bm25_tombstone,
        q_bm25_topk,
    )

    got = q_bm25_tombstone(SF).to_pandas()
    assert not ((got["doc_id"] % TOMB_MOD) == TOMB_REM).any()
    base = q_bm25_topk(SF).to_pandas()
    assert ((base["doc_id"] % TOMB_MOD) == TOMB_REM).any(), (
        "fixture too weak: no deleted doc ranked top-k pre-delete"
    )

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.sql(ORACLE_SQL["bm25_tombstone"]).df()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_rrf_fusion_parity_and_formula():
    """rrf_topk: DuckDB oracle parity at sf0.001 + the fusion formula
    holds row-by-row (rrf == 1/(C+1+bm25_rank) + 1/(C+1+lmdir_rank))."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.documents import ORACLE_SQL, RRF_C, q_rrf_topk

    got = q_rrf_topk(SF).to_pandas()
    expect = np.round(
        1.0 / (RRF_C + 1 + got["bm25_rank"]) + 1.0 / (RRF_C + 1 + got["lmdir_rank"]), 6
    )
    assert np.allclose(got["rrf"], expect)
    # fused list is ordered by (rrf desc, doc_id asc) within each query
    for _, g in got.groupby("query_id"):
        g = g.sort_values("rank")
        key = list(zip(-g["rrf"], g["doc_id"]))
        assert key == sorted(key)

    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.sql(ORACLE_SQL["rrf_topk"]).df()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_rm3_expansion_parity_and_effect():
    """bm25_rm3: DuckDB two-pass oracle parity at sf0.001, and the
    expansion measurably changes at least one query's ranking vs the
    unexpanded BM25 gate."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.documents import ORACLE_SQL, q_bm25_rm3, q_bm25_topk

    got = q_bm25_rm3(SF).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.sql(ORACLE_SQL["bm25_rm3"]).df()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)

    base = q_bm25_topk(SF).to_pandas()
    merged = got.merge(base, on=["query_id", "rank"], suffixes=("_rm3", "_base"))
    assert (merged["doc_id_rm3"] != merged["doc_id_base"]).any()


def test_dup_clusters_connected_components():
    """dup_clusters: every near-dup pair lands in one cluster, each
    cluster elects exactly one canonical doc (= min doc_id), and
    n_members is consistent."""
    import pandas as pd

    from docinsight_ray.functions.dedup import q_dup_clusters, q_ngram_jaccard_pairs

    t = q_dup_clusters(SF).to_pandas().set_index("doc_id")
    pairs = q_ngram_jaccard_pairs(SF).to_pandas()
    assert len(pairs) > 0
    for a, b in zip(pairs["a_id"], pairs["b_id"]):
        assert t.loc[a, "cluster_id"] == t.loc[b, "cluster_id"]
    assert (t["cluster_id"] <= t.index).all()
    by_cluster = t.groupby("cluster_id")
    assert (by_cluster["is_canonical"].sum() == 1).all()
    sizes = by_cluster.size()
    assert (t["n_members"] == t["cluster_id"].map(sizes)).all()
    # multi-member clusters exist in the fixture
    assert (t["n_members"] > 1).any()


def test_dup_clusters_no_pairs(tmp_path):
    """An empty near-dup pair graph must not crash the cluster
    assignment: every doc is its own canonical singleton."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from docinsight_ray.functions.dedup import q_dup_clusters, q_ngram_jaccard_pairs

    texts = [
        "alpha beta gamma delta epsilon",
        "zeta eta theta iota kappa",
        "lambda mu nu xi omicron",
    ]
    pq.write_table(
        pa.table({"doc_id": pa.array([7, 3, 11], type=pa.int64()), "text": texts}),
        str(tmp_path / "documents.parquet"),
    )
    assert q_ngram_jaccard_pairs(str(tmp_path)).num_rows == 0
    t = q_dup_clusters(str(tmp_path)).to_pandas().sort_values("doc_id")
    assert t["doc_id"].tolist() == [3, 7, 11]
    assert t["cluster_id"].tolist() == [3, 7, 11]
    assert t["n_members"].tolist() == [1, 1, 1]
    assert t["is_canonical"].tolist() == [1, 1, 1]


def test_bm25_facets_parity_and_totals():
    """bm25_facets: DuckDB oracle parity at sf0.001; facet totals per
    query equal the candidate-set size (docs matching >=1 query term)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.documents import ORACLE_SQL, q_bm25_facets

    got = q_bm25_facets(SF).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.sql(ORACLE_SQL["bm25_facets"]).df()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)

    totals = got.groupby("query_id")["n_matched"].sum()
    cand = con.sql(
        ORACLE_SQL["bm25_facets"].rsplit("SELECT", 1)[0]
        + "SELECT query_id, count(*)::BIGINT AS n FROM scores GROUP BY query_id"
    ).df().set_index("query_id")["n"]
    assert (totals == cand.reindex(totals.index)).all()


def test_event_funnel_parity_and_monotonicity():
    """event_funnel: DuckDB oracle parity at sf0.001 + depth histogram
    is monotone (reaching step k implies having reached step k-1)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.functions.windows import ORACLE_SQL, q_event_funnel

    got = q_event_funnel(SF).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    want = con.sql(ORACLE_SQL["event_funnel"]).df()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)

    assert got["n_steps"].between(0, 3).all()
    # conversions exist (the sf0.001 fixture's streams are dense
    # enough that EVERY user converts — differentiation shows up at
    # larger sf where the gate compares the full histogram)
    assert (got["n_steps"] == 3).any()
    assert len(got) == got["user_id"].nunique()


def test_event_transitions_parity_and_mass():
    """event_transitions: DuckDB lead() oracle parity at sf0.001 +
    total transition mass = total events - distinct users."""
    import duckdb
    import pandas as pd

    from docinsight_ray.functions.windows import ORACLE_SQL, q_event_transitions

    got = q_event_transitions(SF).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')"
    )
    want = con.sql(ORACLE_SQL["event_transitions"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )
    n_events, n_users = con.sql(
        "SELECT count(*), count(DISTINCT user_id) FROM events"
    ).fetchone()
    assert got["cnt"].sum() == n_events - n_users


def test_nation_join_fk_key_above_range_raises():
    """A custkey above every customer key fails loudly (it used to
    index past the end of the broadcast arrays)."""
    from docinsight_ray.pipelines.relational import _nation_of

    ckeys = np.array([1, 2, 4], dtype=np.int64)
    cnk = np.array([10, 20, 40], dtype=np.int64)
    np.testing.assert_array_equal(_nation_of(ckeys, cnk, np.array([4, 1, 2])), [40, 10, 20])
    with pytest.raises(ValueError, match=r"no customer row: \[9\]"):
        _nation_of(ckeys, cnk, np.array([1, 9], dtype=np.int64))


def test_nation_join_fk_gap_inside_range_raises(tmp_path):
    """A custkey missing inside the key range fails loudly instead of
    taking its neighbour's nation — in the helper and through the
    broadcast join of q_orders_by_nation."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from docinsight_ray.pipelines.relational import _nation_of, q_orders_by_nation

    ckeys = np.array([1, 2, 4], dtype=np.int64)
    cnk = np.array([10, 20, 40], dtype=np.int64)
    with pytest.raises(ValueError, match=r"no customer row: \[3\]"):
        _nation_of(ckeys, cnk, np.array([2, 3, 3], dtype=np.int64))

    pq.write_table(pa.table({"c_custkey": [1, 2, 4], "c_nationkey": [0, 1, 0]}),
                   str(tmp_path / "customer.parquet"))
    pq.write_table(pa.table({"n_nationkey": [0, 1], "n_name": ["ALGERIA", "BRAZIL"]}),
                   str(tmp_path / "nation.parquet"))
    pq.write_table(pa.table({"o_custkey": [1, 3], "o_totalprice": [10.0, 20.0]}),
                   str(tmp_path / "orders.parquet"))
    with pytest.raises(Exception, match="foreign-key gap"):
        q_orders_by_nation(str(tmp_path))


def test_revenue_by_nation_parity_and_conservation():
    """revenue_by_nation: DuckDB 4-table-join oracle parity at sf0.001
    + conservation (Σ n_items across nations = lineitems with a valid
    order/customer chain)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.relational import ORACLE_SQL, q_revenue_by_nation

    got = q_revenue_by_nation(SF).to_pandas()
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer", "nation"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = con.sql(ORACLE_SQL["revenue_by_nation"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )
    n_chain = con.sql(
        """SELECT count(*) FROM lineitem l
           JOIN orders o ON o.o_orderkey = l.l_orderkey
           JOIN customer c ON c.c_custkey = o.o_custkey"""
    ).fetchone()[0]
    assert got["n_items"].sum() == n_chain
    assert (got["revenue_e4"] > 0).all()


def test_pii_redact_semantics(ray_session):
    """redact_pii_table on a hand-built PII fixture: emails, IPv4s and
    phone runs become typed placeholders; clean text is untouched; the
    gate op matches its DuckDB oracle including the seeded-PII rows."""
    import duckdb
    import pandas as pd
    import pyarrow as pa

    from docinsight_ray.functions.textstats import (
        ORACLE_SQL,
        q_pii_redact,
        redact_pii_table,
    )

    fixture = pa.table(
        {
            "text": [
                "mail bob.smith+x@ex-ample.co.uk today",
                "hosts 10.0.255.1 192.168.1.77 up",
                "call +1 415-555-0199 or 020-7946-0958",
                "no pii here at all",
                "a@b.io and 8.8.8.8 and 555-123-4567x",
            ]
        }
    )
    got = redact_pii_table(fixture)["text"].to_pylist()
    assert got == [
        "mail <EMAIL> today",
        "hosts <IP> <IP> up",
        "call <PHONE> or <PHONE>",
        "no pii here at all",
        "<EMAIL> and <IP> and <PHONE>x",
    ]

    # gate vs oracle on the real table (seeded PII fires on 2/3 of rows)
    sf = "/root/testdata/sf0.001"
    t = q_pii_redact(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    o = (
        con.execute(ORACLE_SQL["pii_redact"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(t, o, check_dtype=False)
    assert int(t["n_email"].sum()) > 0 and int(t["n_ip"].sum()) > 0


def test_retrieval_eval_invariants(ray_session):
    """retrieval_eval: metrics are internally consistent (hits bounded
    by min(TOPK, n_rel); rr_micro follows first_rel_rank; a query with
    no conjunctive matches scores zero) and match the DuckDB oracle."""
    import duckdb
    import numpy as np
    import pandas as pd

    from docinsight_ray.pipelines.documents import ORACLE_SQL, TOPK, q_retrieval_eval

    sf = "/root/testdata/sf0.001"
    t = q_retrieval_eval(sf).to_pandas().sort_values("query_id").reset_index(drop=True)
    assert (t["hits_at_k"] <= np.minimum(t["n_rel"], TOPK)).all()
    for _, r in t.iterrows():
        if r["first_rel_rank"] >= 0:
            assert r["rr_micro"] == int(np.round(1e6 / (r["first_rel_rank"] + 1)))
            assert r["hits_at_k"] >= 1
        else:
            assert r["rr_micro"] == 0 and r["hits_at_k"] == 0
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    o = (
        con.execute(ORACLE_SQL["retrieval_eval"])
        .df()
        .sort_values("query_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(t, o, check_dtype=False)


def test_ndcg_eval_invariants(ray_session):
    """ndcg_eval: DCG never exceeds the ideal DCG (so ndcg_ppm ∈
    [0, 1e6]), the ppm quotient is exactly the integer division of the
    two micro sums, and the metric is non-degenerate on the fixed
    query set (some query retrieves imperfectly, none scores 0);
    oracle parity at sf0.001."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.documents import ORACLE_SQL, q_ndcg_eval

    sf = "/root/testdata/sf0.001"
    t = q_ndcg_eval(sf).to_pandas().sort_values("query_id").reset_index(drop=True)
    assert (t["dcg_micro"] <= t["idcg_micro"]).all()
    assert (t["ndcg_ppm"] >= 0).all() and (t["ndcg_ppm"] <= 1_000_000).all()
    for _, r in t.iterrows():
        if r["idcg_micro"] > 0:
            assert r["ndcg_ppm"] == r["dcg_micro"] * 1_000_000 // r["idcg_micro"]
    assert (t["ndcg_ppm"] > 0).all(), "BM25 should retrieve something relevant"
    # NOTE: at sf0.001 every query scores a legitimate 1e6 — thousands
    # of docs carry ALL query terms, so both the ideal and the BM25
    # top-10 are max-grade; imperfection appears only on corpora where
    # the grade distribution thins near the top.
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')"
    )
    o = (
        con.execute(ORACLE_SQL["ndcg_eval"])
        .df()
        .sort_values("query_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(t, o, check_dtype=False)


def test_top_unshipped_orders_parity(ray_session):
    """top_unshipped_orders (TPC-H-Q3 shape): DuckDB 3-table-join oracle
    parity at sf0.001, plus top-k invariants (descending revenue, k
    rows, every hit inside the segment/date predicate)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.relational import (
        ORACLE_SQL,
        Q3_CUTOFF,
        Q3_K,
        Q3_SEGMENT,
        q_top_unshipped_orders,
    )

    got = q_top_unshipped_orders(SF).to_pandas()
    assert len(got) == Q3_K
    assert (got["revenue_e4"].diff().dropna() <= 0).all()
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = con.sql(ORACLE_SQL["top_unshipped_orders"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].reset_index(drop=True),
        want[cols].reset_index(drop=True),
        check_dtype=False,
    )
    seg_ok = con.sql(
        f"""SELECT count(*) FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey
            WHERE c.c_mktsegment = '{Q3_SEGMENT}'
              AND o.o_orderdate < TIMESTAMP '{Q3_CUTOFF}'
              AND o.o_orderkey IN ({",".join(str(k) for k in got["l_orderkey"])})"""
    ).fetchone()[0]
    assert seg_ok == Q3_K


def test_custdist_left_outer_semantics(ray_session):
    """custdist (TPC-H Q13 shape): parity with the LEFT OUTER JOIN
    oracle, plus the two conservation laws that prove the no-join
    union-of-contributions rewrite — customers partition across the
    histogram, and weighted counts recover the qualifying order total
    (so zero-order customers are really present, not dropped)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.relational import ORACLE_SQL, Q13_EXCLUDE, q_custdist

    got = q_custdist(SF).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "customer"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = con.sql(ORACLE_SQL["custdist"]).df()
    cols = sorted(got.columns)
    key = ["custdist", "c_count"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(key, ascending=False).reset_index(drop=True),
        want[cols].sort_values(key, ascending=False).reset_index(drop=True),
        check_dtype=False,
    )
    n_cust = con.sql("SELECT count(*) FROM customer").fetchone()[0]
    n_orders = con.sql(
        f"""SELECT count(*) FROM orders o
            WHERE o.o_orderpriority <> '{Q13_EXCLUDE}'
              AND o.o_custkey IN (SELECT c_custkey FROM customer)"""
    ).fetchone()[0]
    assert int(got["custdist"].sum()) == n_cust
    assert int((got["c_count"] * got["custdist"]).sum()) == n_orders


def test_custdist_keeps_zero_order_customers(ray_session, tmp_path):
    """The left-outer semantics on a fixture where they bite: a
    customer with no orders at all and one whose only order is
    excluded by the priority filter must both land in the c_count=0
    bucket (sf data has no zero-order customers, so this is the only
    real exercise of the outer edge)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from docinsight_ray.pipelines.relational import Q13_EXCLUDE, q_custdist

    pq.write_table(
        pa.table({"c_custkey": pa.array([1, 2, 3, 4], type=pa.int64())}),
        str(tmp_path / "customer.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 11, 12], type=pa.int64()),
                "o_custkey": pa.array([1, 1, 3], type=pa.int64()),
                # customer 3's only order carries the excluded priority
                "o_orderpriority": pa.array(["2-HIGH", "2-HIGH", Q13_EXCLUDE]),
            }
        ),
        str(tmp_path / "orders.parquet"),
    )
    got = q_custdist(str(tmp_path)).to_pandas().set_index("c_count")["custdist"]
    # cust 1 → 2 orders; cust 2, 3, 4 → 0 (no orders / excluded-only)
    assert got.to_dict() == {0: 3, 2: 1}


def test_lapsed_customers_anti_join_parity(ray_session):
    """lapsed_customers: the hash-partitioned anti-join gate equals the
    DuckDB NOT EXISTS oracle at sf0.001, is non-trivial (some but not
    all customers lapse), and no survivor has a recent order."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.relational import (
        LAPSED_CUTOFF,
        ORACLE_SQL,
        q_lapsed_customers,
    )

    got = q_lapsed_customers(SF).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "customer"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = con.sql(ORACLE_SQL["lapsed_customers"]).df()
    n_cust = con.sql("SELECT count(*) FROM customer").fetchone()[0]
    assert 0 < len(got) < n_cust
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].reset_index(drop=True), want[cols].reset_index(drop=True), check_dtype=False
    )
    n_recent = con.sql(
        f"""SELECT count(*) FROM orders
            WHERE o_orderdate >= TIMESTAMP '{LAPSED_CUTOFF}'
              AND o_custkey IN ({",".join(str(k) for k in got["c_custkey"])})"""
    ).fetchone()[0]
    assert n_recent == 0


def test_user_cum_spend_parity(ray_session):
    """user_cum_spend: per-user running sum equals the DuckDB window
    oracle at sf0.001; per-user invariants (seq dense from 0, cum sum
    telescopes, last cum equals the user's total)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.functions.windows import ORACLE_SQL, q_user_cum_spend

    got = q_user_cum_spend(SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
    want = con.sql(ORACLE_SQL["user_cum_spend"]).df()
    cols = sorted(got.columns)
    key = ["user_id", "seq"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(key).reset_index(drop=True),
        want[cols].sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )
    for uid, g in got.groupby("user_id"):
        g = g.sort_values("seq")
        assert (g["seq"].to_numpy() == np.arange(len(g))).all()
        assert (g["cum_spend_cents"].to_numpy() == g["spend_cents"].cumsum().to_numpy()).all()


def test_sliding_agg_parity(ray_session):
    """sliding_agg: overlapping 1h/15min windows equal the DuckDB
    time_bucket oracle at sf0.001; total count is exactly 4× the event
    count (every event in exactly WINDOW/SLIDE windows) and each
    tumbling-hour count is recoverable as a sliding-window superset."""
    import duckdb
    import pandas as pd

    from docinsight_ray.functions.windows import ORACLE_SQL, q_sliding_agg

    got = q_sliding_agg(SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
    want = con.sql(ORACLE_SQL["sliding_agg"]).df()
    cols = sorted(got.columns)
    key = ["event_type", "window_start"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(key).reset_index(drop=True),
        want[cols].sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )
    n_events = con.sql("SELECT count(*) FROM events").fetchone()[0]
    assert got["n"].sum() == 4 * n_events


def test_top_event_type_parity(ray_session):
    """top_event_type: bucket-coarsened per-user mode equals the DuckDB
    window oracle at sf0.001; one row per user; the mode's count is the
    max over that user's per-type counts."""
    import duckdb
    import pandas as pd

    from docinsight_ray.functions.windows import ORACLE_SQL, q_top_event_type

    got = q_top_event_type(SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
    want = con.sql(ORACLE_SQL["top_event_type"]).df()
    assert got["user_id"].is_unique
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values("user_id").reset_index(drop=True),
        want[cols].sort_values("user_id").reset_index(drop=True),
        check_dtype=False,
    )
    n_users = con.sql("SELECT count(DISTINCT user_id) FROM events").fetchone()[0]
    assert len(got) == n_users


def test_event_pivot_parity(ray_session):
    """event_pivot: per-user wide counts equal the DuckDB conditional-
    sum oracle; row sums equal each user's event count."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.relational import EVENT_TYPES, ORACLE_SQL, q_event_pivot

    got = q_event_pivot(SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM read_parquet('{SF}/events.parquet')")
    want = con.sql(ORACLE_SQL["event_pivot"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values("user_id").reset_index(drop=True),
        want[cols].sort_values("user_id").reset_index(drop=True),
        check_dtype=False,
    )
    n_events = con.sql("SELECT count(*) FROM events").fetchone()[0]
    assert got[[f"n_{t}" for t in EVENT_TYPES]].to_numpy().sum() == n_events


def test_doc_rollup_parity(ray_session):
    """doc_rollup: GROUPING SETS parity; subtotal identities hold
    (Σ per-lang rows = lang subtotal; Σ lang subtotals = grand total)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.relational import ORACLE_SQL, q_doc_rollup

    got = q_doc_rollup(SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    want = con.sql(ORACLE_SQL["doc_rollup"]).df()
    cols = sorted(got.columns)
    key = ["lang", "source"]
    pd.testing.assert_frame_equal(
        got[cols].sort_values(key).reset_index(drop=True),
        want[cols].sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )
    fine = got[(got.lang != "ALL") & (got.source != "ALL")]
    subs = got[(got.lang != "ALL") & (got.source == "ALL")]
    total = got[(got.lang == "ALL") & (got.source == "ALL")]
    assert fine["n_docs"].sum() == total["n_docs"].iloc[0] == subs["n_docs"].sum()


def _docs_parity(name, q_fn):
    """Shared DuckDB-oracle parity body for documents-table gates."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.documents import ORACLE_SQL

    got = q_fn(SF).to_pandas()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    want = con.sql(ORACLE_SQL[name]).df()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    for c in cols:
        if a[c].dtype.kind == "f":
            a[c], b[c] = np.round(a[c], 9), np.round(b[c], 9)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    return got, con


def test_bm25_regex_parity_and_expansion():
    """bm25_regex: full-oracle parity; expand_regex returns the exact
    anchored-RE2 vocabulary subsets the gate's patterns were chosen
    for, and an unmatchable pattern expands to nothing."""
    from docinsight_ray.pipelines.documents import REGEX_QUERIES, ensure_index, q_bm25_regex
    from docinsight_ray.scorer import expand_regex

    _docs_parity("bm25_regex", q_bm25_regex)
    idx = ensure_index(SF)
    exp = {p: expand_regex(idx, p) for _, p in REGEX_QUERIES}
    assert exp["s[a-z]+"] == ["scan", "slow", "small", "sort", "spark", "stream"]
    assert "table" in exp["[a-z]+e"] and "stream" not in exp["[a-z]+e"]  # anchored, not substring
    assert expand_regex(idx, "zz+[0-9]") == []
    assert expand_regex(idx, "s[a-z]+", limit=2) == ["scan", "slow"]


def test_bm25_total_hits_parity_and_bounds():
    """bm25_total_hits: full-oracle parity; every query's count is at
    least the number of its top-k results and at most n_docs."""
    from docinsight_ray.pipelines.documents import (
        SQL_PARITY_CONFIG,
        ensure_index,
        q_bm25_topk,
        q_bm25_total_hits,
    )
    from docinsight_ray.scorer import BM25Scorer

    got, _ = _docs_parity("bm25_total_hits", q_bm25_total_hits)
    n_docs = BM25Scorer(ensure_index(SF), SQL_PARITY_CONFIG).n_docs
    topk = q_bm25_topk(SF).to_pandas().groupby("query_id").size()
    th = got.set_index("query_id")["total_hits"]
    assert (th <= n_docs).all()
    assert (th.reindex(topk.index) >= topk).all()


def test_bm25_dismax_parity_and_bound():
    """bm25_dismax: full-oracle parity; with tie_breaker<1 every fused
    score is <= the bm25_fielded SUM fusion's score for the same
    (query, doc) that appears in both result lists."""
    from docinsight_ray.pipelines.documents import q_bm25_dismax, q_bm25_fielded

    got, _ = _docs_parity("bm25_dismax", q_bm25_dismax)
    summed = q_bm25_fielded(SF).to_pandas().set_index(["query_id", "doc_id"])["score"]
    dm = got.set_index(["query_id", "doc_id"])["score"]
    both = dm.index.intersection(summed.index)
    assert len(both) > 0
    assert (dm.loc[both] <= summed.loc[both] + 1e-6).all()


def test_bm25_range_parity_and_predicate():
    """bm25_range: full-oracle parity; every returned doc's registry
    doc_len lies inside LEN_RANGE and some corpus docs fall outside it
    (the filter is non-trivial)."""
    import os

    import pyarrow.parquet as pq

    from docinsight_ray.pipelines.documents import LEN_RANGE, ensure_index, q_bm25_range

    got, _ = _docs_parity("bm25_range", q_bm25_range)
    reg = pq.read_table(
        os.path.join(ensure_index(SF), "docs"), columns=["doc_id", "doc_len"]
    ).to_pandas().set_index("doc_id")["doc_len"]
    lens = reg.reindex(got["doc_id"].astype("int64"))
    lo, hi = LEN_RANGE
    assert ((lens >= lo) & (lens <= hi)).all()
    assert ((reg < lo) | (reg > hi)).any()


def test_bm25_length_histogram_parity_and_totals():
    """bm25_length_histogram: full-oracle parity; bucket keys are
    multiples of the width and per-query totals equal total_hits."""
    from docinsight_ray.pipelines.documents import (
        HIST_BUCKET_W,
        q_bm25_length_histogram,
        q_bm25_total_hits,
    )

    got, _ = _docs_parity("bm25_length_histogram", q_bm25_length_histogram)
    assert (got["bucket"] % HIST_BUCKET_W == 0).all()
    totals = got.groupby("query_id")["n_matched"].sum()
    th = q_bm25_total_hits(SF).to_pandas().set_index("query_id")["total_hits"]
    assert (totals == th.reindex(totals.index)).all()


def test_index_stats_parity_and_consistency():
    """index_stats: full-oracle parity; the row agrees with the built
    index's corpus_stats.json and a vocabulary-scan lower bound."""
    import json
    import os

    from docinsight_ray.pipelines.documents import ensure_index, q_index_stats

    got, _ = _docs_parity("index_stats", q_index_stats)
    with open(os.path.join(ensure_index(SF), "corpus_stats.json")) as f:
        st = json.load(f)
    row = got.iloc[0]
    assert row["n_docs"] == st["n_docs"] and row["total_tf"] == st["total_len"]
    assert 0 < row["vocab_size"] <= row["n_postings"] <= row["total_tf"]


def test_suggest_parity_and_ranking():
    """suggest: full-oracle parity; ranking is (df desc, term asc) and
    every suggestion extends its prefix."""
    from docinsight_ray.pipelines.documents import SUGGEST_PREFIXES, q_suggest

    got, _ = _docs_parity("suggest", q_suggest)
    pref = dict(SUGGEST_PREFIXES)
    assert all(t.startswith(pref[p]) for p, t in zip(got["prefix_id"], got["term"]))
    for _, g in got.groupby("prefix_id"):
        g = g.sort_values("rank")
        assert (g["df"].diff().dropna() <= 0).all()  # df non-increasing down the list


def test_spellcheck_parity_and_semantics():
    """spellcheck: full-oracle parity; a correctly-spelled token
    suggests itself at distance 0; the unmatchable token emits no row."""
    from docinsight_ray.pipelines.documents import q_spellcheck

    got, _ = _docs_parity("spellcheck", q_spellcheck)
    byq = got.set_index("query_id")
    assert byq.loc[3, "suggestion"] == "data" and byq.loc[3, "dist"] == 0
    assert 4 not in byq.index  # "xyzq": nothing within distance 2
    assert (got["dist"] <= 2).all()


def test_significant_terms_parity_and_exclusions():
    """significant_terms: full-oracle parity; query terms never appear
    in their own significant list; fg_df <= bg_df; lift <= 1."""
    from docinsight_ray.pipelines.documents import (
        DOC_QUERIES,
        SQL_PARITY_CONFIG,
        q_significant_terms,
    )
    from docinsight_ray.tokenizer import tokenize_text

    got, _ = _docs_parity("significant_terms", q_significant_terms)
    qterms = {q: set(tokenize_text(t, SQL_PARITY_CONFIG)) for q, t in DOC_QUERIES}
    assert all(t not in qterms[q] for q, t in zip(got["query_id"], got["term"]))
    assert (got["fg_df"] <= got["bg_df"]).all()
    assert (got["score"] <= 1.0).all() and (got["score"] > 0).all()


def test_percolate_parity_and_containment():
    """percolate: full-oracle parity; every hit really contains ALL the
    stored query's terms (spot-checked against the raw corpus)."""
    import pyarrow.parquet as pq

    from docinsight_ray.pipelines.documents import (
        DOC_QUERIES,
        SQL_PARITY_CONFIG,
        q_percolate,
    )
    from docinsight_ray.tokenizer import tokenize_text

    got, _ = _docs_parity("percolate", q_percolate)
    texts = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
        .to_pandas()
        .set_index("doc_id")["text"]
    )
    qsets = {q: set(tokenize_text(t, SQL_PARITY_CONFIG)) for q, t in DOC_QUERIES}
    sample = got.sample(min(50, len(got)), random_state=0)
    for q, d in zip(sample["query_id"], sample["doc_id"]):
        doc_terms = set(tokenize_text(texts.loc[d], SQL_PARITY_CONFIG))
        assert qsets[q] <= doc_terms


def test_highlight_parity_and_window():
    """highlight: full-oracle parity; the snippet window contains the
    first-hit term occurrence and respects the configured width."""
    from docinsight_ray.pipelines.documents import (
        DOC_QUERIES,
        HL_LEN,
        SQL_PARITY_CONFIG,
        q_highlight,
    )
    from docinsight_ray.tokenizer import tokenize_text

    got, _ = _docs_parity("highlight", q_highlight)
    qterms = {q: set(tokenize_text(t, SQL_PARITY_CONFIG)) for q, t in DOC_QUERIES}
    assert (got["snippet"].str.len() <= HL_LEN).all()
    assert (got["pos"] >= 1).all()
    hit_in_snippet = [
        any(t in s.lower() for t in qterms[q])
        for q, s in zip(got["query_id"], got["snippet"])
    ]
    assert np.mean(hit_in_snippet) > 0.9  # truncation can clip a term at the edge


def test_bm25_decay_parity_clamp_and_reorder():
    """bm25_decay (function_score, linear decay × BM25): full-oracle
    parity; every returned doc past the clamp radius scores exactly
    0.0; and the decay actually reorders at least one query's top-k
    vs plain bm25_topk."""
    import pandas as pd

    from docinsight_ray.pipelines.documents import (
        DECAY_ORIGIN,
        DECAY_SCALE,
        q_bm25_decay,
        q_bm25_topk,
    )

    got, _ = _docs_parity("bm25_decay", q_bm25_decay)
    meta = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "n_chars"])
    n_of = dict(zip(meta["doc_id"], meta["n_chars"]))
    nv = np.array([n_of[d] for d in got["doc_id"]], dtype=np.float64)
    fac = np.maximum(0.0, (DECAY_SCALE - np.abs(nv - DECAY_ORIGIN)) / DECAY_SCALE)
    assert (got.loc[fac == 0.0, "score"] == 0.0).all()
    assert (got.loc[fac > 0.0, "score"] >= 0.0).all()
    plain = q_bm25_topk(SF).to_pandas()
    merged = got.merge(plain, on=["query_id", "rank"], suffixes=("_dec", "_plain"))
    assert (merged["doc_id_dec"] != merged["doc_id_plain"]).any(), (
        "decay must reorder some top-k on this corpus"
    )


def test_knn_mmr_matches_reference_greedy():
    """MMR equals an independent greedy reference (raw parquet, no
    shared code), its first pick is the relevance top-1, and every
    later pick maximizes the round-6 MMR objective at its step."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from docinsight_ray.functions.knn import (
        KNN_K,
        MMR_LAMBDA,
        MMR_W,
        N_QUERIES,
        q_knn_mmr,
    )

    res = q_knn_mmr(SF).to_pandas()
    t = pq.read_table(os.path.join(SF, "embeddings.parquet")).to_pandas()
    vid = t["vec_id"].to_numpy().astype(np.int64)
    X = np.stack(t["embedding"].to_numpy()).astype(np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    for qid in range(N_QUERIES):
        qv = Xn[vid == qid][0]
        cos6 = np.round(Xn @ qv, 6)
        mask = vid != qid
        order = np.lexsort((vid[mask], -cos6[mask]))[:MMR_W]
        cv, rel = vid[mask][order], cos6[mask][order]
        pos = {int(v): i for i, v in enumerate(vid)}
        E = Xn[np.array([pos[int(v)] for v in cv])]
        sim = E @ E.T
        picked = np.zeros(cv.size, dtype=bool)
        max_sim = np.zeros(cv.size)
        want = []
        for _ in range(KNN_K):
            mmr6 = np.round(MMR_LAMBDA * rel - (1 - MMR_LAMBDA) * max_sim, 6)
            mmr6[picked] = -np.inf
            i = int(np.lexsort((cv, -mmr6))[0])
            picked[i] = True
            want.append((int(cv[i]), float(mmr6[i])))
            max_sim = np.maximum(max_sim, sim[:, i])
        got = res[res.query_id == qid].sort_values("rank")
        assert list(got["vec_id"]) == [w[0] for w in want], f"q{qid} selection differs"
        assert np.allclose(got["mmr"].to_numpy(), [w[1] for w in want])
        # rank-0 is the plain relevance top-1
        assert int(got.iloc[0]["vec_id"]) == int(cv[0])


def test_priority_semi_join_parity_and_paths(ray_session):
    """priority_semi_join: DuckDB EXISTS-oracle parity at sf0.001, and
    the two semi_join tiers (broadcast is_in vs hash-partitioned inner
    join on distinct keys) produce identical row sets."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from docinsight_ray.joins import semi_join
    from docinsight_ray.pipelines.relational import ORACLE_SQL, q_priority_semi_join

    got = q_priority_semi_join(SF).to_pandas()
    con = duckdb.connect()
    for t in ("orders", "lineitem"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = con.sql(ORACLE_SQL["priority_semi_join"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )

    ds = ray.data.from_arrow(pa.table({"k": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
                                       "v": ["a", "b", "c", "d", "e"]}))
    keys = ray.data.from_arrow(pa.table({"k": pa.array([2, 2, 4, 9], type=pa.int64())}))
    outs = []
    for limit in (1_000_000, 0):  # broadcast path, then join path
        t = semi_join(ds, keys, "k", n_keys=4, broadcast_limit=limit,
                      num_partitions=4).to_pandas()
        outs.append(t.sort_values("k").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1][outs[0].columns])
    assert list(outs[0]["k"]) == [2, 4]  # hits only, never multiplied by dup keys
    # n_keys=0 → empty result, schema preserved
    empty = semi_join(ds, keys.limit(0), "k", n_keys=0, broadcast_limit=10,
                      num_partitions=2).to_pandas()
    assert len(empty) == 0


def test_large_orders_parity_and_having(ray_session):
    """large_orders: DuckDB HAVING-oracle parity at sf0.001; every
    returned order's total_qty really exceeds the threshold and rows
    arrive in (total_qty desc, orderkey asc) order."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.relational import (
        ORACLE_SQL, Q18_MIN_QTY, q_large_orders,
    )

    got = q_large_orders(SF).to_pandas()
    assert len(got) > 0
    assert (got["total_qty"] > Q18_MIN_QTY).all()
    key = list(zip(-got["total_qty"], got["o_orderkey"]))
    assert key == sorted(key)
    con = duckdb.connect()
    for t in ("lineitem", "orders", "customer"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = con.sql(ORACLE_SQL["large_orders"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )


def test_promo_revenue_parity_and_bounds(ray_session):
    """promo_revenue: DuckDB join-oracle parity at sf0.001; the
    conditional sum is bounded by the total and strictly positive on
    this fixture (PROMO parts exist)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.relational import ORACLE_SQL, q_promo_revenue

    got = q_promo_revenue(SF).to_pandas()
    assert len(got) == 1
    assert 0 < got["promo_rev_e4"][0] <= got["total_rev_e4"][0]
    con = duckdb.connect()
    for t in ("lineitem", "part"):
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    want = con.sql(ORACLE_SQL["promo_revenue"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].reset_index(drop=True), want[cols].reset_index(drop=True),
        check_dtype=False,
    )


def test_bm25_explain_gate_decomposition(ray_session):
    """bm25_explain: DuckDB per-term oracle parity at sf0.001, and the
    per-doc contribution sums reproduce bm25_topk's round-6 scores for
    every explained (query, doc)."""
    import duckdb
    import pandas as pd

    from docinsight_ray.pipelines.documents import (
        EXPLAIN_K, ORACLE_SQL, q_bm25_explain, q_bm25_topk,
    )

    got = q_bm25_explain(SF).to_pandas()
    assert (got["rank"] < EXPLAIN_K).all() and (got["tf"] > 0).all()
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')")
    want = con.sql(ORACLE_SQL["bm25_explain"]).df()
    cols = sorted(got.columns)
    pd.testing.assert_frame_equal(
        got[cols].sort_values(cols).reset_index(drop=True),
        want[cols].sort_values(cols).reset_index(drop=True),
        check_dtype=False,
    )
    top = q_bm25_topk(SF).to_pandas()
    top = top[top["rank"] < EXPLAIN_K]
    sums = got.groupby(["query_id", "doc_id"])["contribution"].sum().reset_index()
    merged = top.merge(sums, on=["query_id", "doc_id"], how="left")
    assert (merged["contribution"].round(4) == merged["score"].round(4)).all()


def test_knn_graph_mutual_matches_brute_force():
    """The distributed tile-pair kNN-graph op equals a driver brute
    force: directed top-k per vector (round6 cos desc, id asc), edge
    kept iff mutual — and every emitted cos is the true pair cosine."""
    import os

    import pyarrow.parquet as pq

    from docinsight_ray.functions.knn import GRAPH_K, q_knn_graph_mutual

    got = q_knn_graph_mutual(SF, tile_rows=64).to_pandas()

    t = pq.read_table(os.path.join(SF, "embeddings.parquet"))
    vids = t["vec_id"].to_numpy()
    X = np.stack(t["embedding"].to_numpy(zero_copy_only=False)).astype(np.float64)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    cos = np.round(Xn @ Xn.T, 6)
    n = len(vids)
    order = np.argsort(vids)
    vids_s, cos_s = vids[order], cos[np.ix_(order, order)]
    topk = {}
    for r in range(n):
        c = cos_s[r].copy()
        c[r] = -np.inf
        idx = np.lexsort((vids_s, -c))[:GRAPH_K]
        topk[int(vids_s[r])] = set(int(vids_s[i]) for i in idx)
    expect = sorted(
        (a, b)
        for a in topk
        for b in topk[a]
        if a < b and a in topk[b]
    )
    assert list(map(tuple, got[["a_id", "b_id"]].values.tolist())) == expect
    pos = {int(v): i for i, v in enumerate(vids_s)}
    for a, b, c in got[["a_id", "b_id", "cos"]].itertuples(index=False):
        assert c == pytest.approx(cos_s[pos[int(a)], pos[int(b)]], abs=1e-9)


def test_gopher_rules_parity_and_boundaries(ray_session):
    """gopher_rules: DuckDB oracle parity at sf0.001 (integer-exact
    rule math), outcome variety on the augmented corpus, and the
    mean-word-length boundary (vacuously true on the corpus) covered
    by a crafted batch through the shared rule helpers."""
    import duckdb
    import pandas as pd

    from docinsight_ray.functions.textstats import (
        ORACLE_SQL,
        gopher_rule_counts,
        gopher_rule_flags,
        q_gopher_rules,
    )

    got = q_gopher_rules(SF).to_pandas()
    con = duckdb.connect()
    con.sql(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    want = con.sql(ORACLE_SQL["gopher_rules"]).df()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)

    # the augmentation must exercise both outcomes of the line rules
    for rule in ("r_word_count", "r_symbol_ratio", "r_bullet_lines",
                 "r_ellipsis_lines", "keep"):
        assert got[rule].nunique() == 2, rule

    # mean-word-length boundary: 'aa' (mean 2) fails low, a 12-char
    # word fails high, a 3-char word passes both bounds exactly
    crafted = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": [
                "aa " * 20,            # mean 2 < 3 → fail
                "abcdefghijkl " * 20,  # mean 12 > 10 → fail
                "abc " * 20,           # mean exactly 3 → pass
            ],
        }
    )
    flags = gopher_rule_flags(gopher_rule_counts(crafted))
    assert list(flags["r_mean_word_len"]) == [False, False, True]


def test_columnar_token_kernels_match_python():
    """Parity for the polars list kernels that replaced the per-doc
    Series.map lambdas in quality/lang_id/gopher counters."""
    import pandas as pd

    from docinsight_ray.functions.textstats import (
        EN_STOP, count_distinct_in_set, count_tokens_in_set,
        pl_token_lists, total_token_len,
    )

    texts = pd.Series([
        "The cat of the hat", "el la de que", "", "a of of of zz9 the",
    ])
    toks = pl_token_lists(texts)
    ref_lists = [
        ["the", "cat", "of", "the", "hat"], ["el", "la", "de", "que"], [],
        ["a", "of", "of", "of", "zz9", "the"],
    ]
    stop = set(EN_STOP)
    assert list(count_tokens_in_set(toks, EN_STOP)) == [
        sum(1 for t in ts if t in stop) for ts in ref_lists
    ]
    assert list(count_distinct_in_set(toks, EN_STOP)) == [
        len(set(ts) & stop) for ts in ref_lists
    ]
    assert list(total_token_len(toks)) == [
        sum(len(t) for t in ts) for ts in ref_lists
    ]
