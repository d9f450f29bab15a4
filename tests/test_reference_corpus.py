"""Conformance on the REAL reference corpus (not a synthetic twin).

Closes the round-1 gap: the north rule's "rank-identical top-k on the
reference query set" is asserted here against the 467 Java files the
reference ships at /root/reference/data/sourcecode (7 IR-Plag cases),
end-to-end through the engine.
"""

import numpy as np
import pytest

from docinsight_ray.oracle import OracleIndex
from docinsight_ray.pipelines.conformance import (
    conformance_config,
    conformance_report,
    ensure_reference_index,
    q_reference_topk,
    reference_query_table,
)
from docinsight_ray.scorer import BM25Scorer
from docinsight_ray.sources.sourcecode import case_originals, load_sourcecode_corpus


@pytest.fixture(scope="module")
def ref_built(ray_session):
    index_dir, corpus = ensure_reference_index()
    return index_dir, corpus


def test_corpus_loads_467_files(ref_built):
    _, corpus = ref_built
    assert corpus.num_rows == 467
    assert set(corpus["repo"].to_pylist()) == {f"case-0{i}" for i in range(1, 8)}
    assert len(case_originals(corpus)) == 7
    # deterministic ordering (repo, path)
    again = load_sourcecode_corpus()
    assert again.equals(corpus)


def test_missing_corpus_root_raises(tmp_path):
    """A missing reference corpus is a FileNotFoundError naming the
    root, not an empty corpus that fails later as an empty index."""
    missing = str(tmp_path / "no-such-corpus")
    with pytest.raises(FileNotFoundError, match="no-such-corpus"):
        load_sourcecode_corpus(missing)


def test_rank_identity_on_reference_queries(ref_built):
    """Engine top-k == exhaustive oracle (docs AND bitwise scores) for
    every case-original query, in all three serving modes."""
    index_dir, corpus = ref_built
    cfg = conformance_config()
    oracle = OracleIndex(corpus, cfg)
    scorers = {m: BM25Scorer(index_dir, cfg, mode=m) for m in ("taat", "maxscore", "bmw")}
    for case, _path, content in case_originals(corpus):
        od, osc = oracle.score(content, 10)
        for m, sc in scorers.items():
            fn = {"taat": sc.score_taat, "maxscore": sc.score_maxscore, "bmw": sc.score_bmw}[m]
            d, s = fn(content, 10)
            np.testing.assert_array_equal(d, od, err_msg=f"{m} doc mismatch {case}")
            np.testing.assert_array_equal(s, osc, err_msg=f"{m} score mismatch {case}")


def test_rank_identity_on_keyword_queries(ref_built):
    """Rank-identity also on short keyword queries over the real
    vocabulary (identifier-split code tokens)."""
    index_dir, corpus = ref_built
    cfg = conformance_config()
    oracle = OracleIndex(corpus, cfg)
    sc = BM25Scorer(index_dir, cfg, mode="maxscore")
    queries = [
        "public static void main",
        "scanner input nextint",
        "system out println welcome",
        "array sort loop index",
        "string args class",
    ]
    for q in queries:
        od, osc = oracle.score(q, 10)
        d, s = sc.score_maxscore(q, 10)
        np.testing.assert_array_equal(d, od, err_msg=f"doc mismatch {q!r}")
        np.testing.assert_array_equal(s, osc, err_msg=f"score mismatch {q!r}")


def test_plagiarism_conformance_real_corpus(ref_built, ray_session):
    """The reference's intended behavior on its own data, through the
    actor-pool serving path: per case, top hit same-case, original in
    top-3, ≥8/10 same-case plagiarized variants."""
    top = q_reference_topk()
    report = conformance_report(top)
    assert report["n_cases"] == 7
    for case, rec in report["cases"].items():
        assert rec["ok"], f"{case} failed conformance: {rec['checks']} top={rec['top'][:3]}"
    assert report["ok"]


def test_sharded_serving_on_reference_corpus(ref_built, ray_session, tmp_path):
    """The doc-sharded scale path serves the REAL reference corpus
    rank-identically to the single index (and the oracle)."""
    import ray.data

    from docinsight_ray.fixtures import queries_table
    from docinsight_ray.pipelines.sharded import build_sharded_index, query_sharded

    _, corpus = ref_built
    cfg = conformance_config()
    idx = str(tmp_path / "refsh")
    build_sharded_index(ray.data.from_arrow(corpus), idx, 3, cfg, fingerprint="refsh")
    oracle = OracleIndex(corpus, cfg)
    queries = [
        (i, content, 10) for i, (_case, _p, content) in enumerate(case_originals(corpus))
    ]
    out = query_sharded(
        ray.data.from_arrow(queries_table(queries)), idx, 3, cfg, mode="maxscore"
    ).to_pandas()
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_dedup_on_real_corpus(ref_built):
    """The real corpus contains byte-identical L1 copies of originals;
    exact dedup must fold them (sha256 keep-first)."""
    index_dir, corpus = ref_built
    import json
    import os

    with open(os.path.join(index_dir, "corpus_stats.json")) as f:
        stats = json.load(f)
    n_distinct = len(set(corpus["content"].to_pylist()))
    assert stats["n_docs"] == n_distinct
    assert stats["n_dup_losers"] == corpus.num_rows - n_distinct
    assert stats["n_dup_losers"] > 0


def test_graded_retrieval_quality_floors(ref_built, ray_session):
    """Graded rank-quality on the real corpus (VERDICT r3 #7): nDCG@10
    with L1-L6 graded relevance and per-level recall must stay above
    measured floors (2026-08-20: mean nDCG@10 .748, MAP@50 .788, L1
    recall .984 declining to L6 .651), and recall must degrade with
    obfuscation level (L1 easiest, L6 hardest) — a rank-quality
    regression shows here even while the boolean contract still holds."""
    from docinsight_ray.pipelines.conformance import conformance_quality

    q = conformance_quality()
    assert q["mean_ndcg_at_10"] >= 0.70, q["mean_ndcg_at_10"]
    assert q["map_at_k"] >= 0.74, q["map_at_k"]
    lv = q["by_level"]
    assert lv["L1"]["mean_recall_at_k"] >= 0.93
    assert lv["L6"]["mean_recall_at_k"] >= 0.55
    # graded structure: verbatim copies are easier than heavy obfuscation
    assert lv["L1"]["mean_recall_at_k"] > lv["L6"]["mean_recall_at_k"]
    assert lv["L1"]["map_at_k"] > lv["L6"]["map_at_k"]
    assert set(q["per_case"]) == {f"case-0{i}" for i in range(1, 8)}
