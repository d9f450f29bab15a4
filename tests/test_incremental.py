"""Windowed incremental indexing: appends are rank-identical to a
single build over the concatenated corpus, with exact dedup resolved by
arrival order — across windows the earliest-arriving copy of a content
is kept, even when a later copy has the smaller doc_id."""

import numpy as np
import pytest

from docinsight_ray.config import EngineConfig
from docinsight_ray.fixtures import gen_corpus, gen_queries, queries_table
from docinsight_ray.oracle import OracleIndex
from docinsight_ray.pipelines.incremental import append_window, query_windows

CFG = EngineConfig(num_buckets=8, dedup=True)


def test_incremental_equals_full_build(ray_session, tmp_path):
    import pyarrow as pa
    import ray.data

    corpus = gen_corpus(360, seed=13)
    n = corpus.num_rows
    windows = [corpus.slice(0, n // 3), corpus.slice(n // 3, n // 3), corpus.slice(2 * (n // 3))]
    root = str(tmp_path / "inc")
    for i, w in enumerate(windows):
        dirs = append_window(ray.data.from_arrow(w), root, f"{i:03d}", CFG)
        assert len(dirs) == i + 1

    oracle = OracleIndex(corpus, CFG)  # dedup applied over the full corpus
    queries = gen_queries(corpus, n_keyword=10, seed=13)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_windows(qds, root, CFG, mode="taat").to_pandas()
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(
            sub.doc_id.to_numpy(dtype=np.uint64), od, err_msg=f"windowed doc mismatch q{qid}"
        )
        np.testing.assert_array_equal(sub.score.to_numpy(), osc, err_msg=f"windowed score mismatch q{qid}")


def test_cross_window_dedup(ray_session, tmp_path):
    """A duplicate arriving in a later window is dropped."""
    import ray.data

    corpus = gen_corpus(120, seed=17, with_cases=False)
    root = str(tmp_path / "dd")
    append_window(ray.data.from_arrow(corpus.slice(0, 60)), root, "000", CFG)
    # window 2 repeats window 1's rows (same content, different keys)
    import pyarrow as pa

    w2 = corpus.slice(0, 60).set_column(
        0, "repo", pa.array(["later/" + r for r in corpus.slice(0, 60)["repo"].to_pylist()])
    )
    append_window(ray.data.from_arrow(w2), root, "001", CFG)
    import json
    import os

    s1 = json.load(open(os.path.join(root, "window=001", "corpus_stats.json")))
    assert s1["shard_n_docs"] == 0, "all window-2 rows were duplicates and must be dropped"
    assert s1["n_docs"] == 60  # global count unchanged


def test_append_resume_after_crash(ray_session, tmp_path):
    """Re-appending a window whose previous attempt crashed mid-build
    (docs registry written, corpus_stats missing) must NOT let the
    partial dir's own shas poison the cross-window dedup filter —
    the resumed window keeps all its rows."""
    import json
    import os

    import ray.data

    corpus = gen_corpus(120, seed=19, with_cases=False)
    root = str(tmp_path / "crash")
    append_window(ray.data.from_arrow(corpus.slice(0, 60)), root, "000", CFG)
    append_window(ray.data.from_arrow(corpus.slice(60, 60)), root, "001", CFG)
    w1 = os.path.join(root, "window=001")
    # simulate the crash window: stats + success marker gone, docs kept
    os.unlink(os.path.join(w1, "corpus_stats.json"))
    os.unlink(os.path.join(w1, "manifest", "_SUCCESS.json"))
    dirs = append_window(ray.data.from_arrow(corpus.slice(60, 60)), root, "001", CFG)
    assert len(dirs) == 2
    s1 = json.load(open(os.path.join(w1, "corpus_stats.json")))
    # expected = window-2 distinct contents NOT already in window 1
    # (cross-window dedup legitimately drops those)
    seen_w1 = set(corpus.slice(0, 60)["content"].to_pylist())
    n_expected = len(set(corpus.slice(60, 60)["content"].to_pylist()) - seen_w1)
    assert s1["shard_n_docs"] == n_expected, (
        "resumed window lost rows to its own partial docs registry"
    )


def test_cross_window_dedup_join_path(ray_session, tmp_path):
    """Same contract with broadcast_limit=0: the seen-sha filter runs
    through the hash-partitioned anti-join instead of ray.put."""
    import json
    import os

    import pyarrow as pa
    import ray.data

    cfg = EngineConfig(num_buckets=8, dedup=True, broadcast_limit=0)
    corpus = gen_corpus(120, seed=17, with_cases=False)
    root = str(tmp_path / "ddj")
    append_window(ray.data.from_arrow(corpus.slice(0, 60)), root, "000", cfg)
    w2 = pa.concat_tables([
        corpus.slice(0, 30).set_column(
            0, "repo", pa.array(["later/" + r for r in corpus.slice(0, 30)["repo"].to_pylist()])
        ),
        corpus.slice(60, 30),  # 30 genuinely-new docs
    ])
    append_window(ray.data.from_arrow(w2), root, "001", cfg)
    s1 = json.load(open(os.path.join(root, "window=001", "corpus_stats.json")))
    assert s1["shard_n_docs"] == 30, "only the 30 new docs may survive the join-path filter"
    assert s1["n_docs"] == 90
    # and the merged serving view is rank-identical to one build over
    # the SURVIVING docs (cross-window dedup is keep-first-by-ARRIVAL:
    # the later window's copy is dropped even if its hash doc_id would
    # win a min-doc_id tie-break — the streaming semantics documented
    # in pipelines/incremental.py)
    oracle = OracleIndex(corpus.slice(0, 90), cfg)
    queries = gen_queries(corpus, n_keyword=5, seed=17)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_windows(qds, root, cfg, mode="taat").to_pandas()
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_compaction_rank_identical_and_crash_safe(ray_session, tmp_path):
    """Window compaction: merging the first two windows into one leaves
    query results rank- AND score-identical to both the pre-compaction
    windowed index and the full-corpus oracle; the marker makes the
    cutover double-count-proof even before source deletion; compacting
    everything yields a single window with the same results."""
    import json
    import os

    import ray.data

    from docinsight_ray.pipelines.incremental import (
        _window_dirs,
        compact_windows,
    )

    corpus = gen_corpus(360, seed=29)
    n = corpus.num_rows
    windows = [corpus.slice(0, n // 3), corpus.slice(n // 3, n // 3), corpus.slice(2 * (n // 3))]
    root = str(tmp_path / "cmp")
    for i, w in enumerate(windows):
        append_window(ray.data.from_arrow(w), root, f"{i:03d}", CFG)

    oracle = OracleIndex(corpus, CFG)
    queries = gen_queries(corpus, n_keyword=8, seed=29)
    qds = ray.data.from_arrow(queries_table(queries))

    def check(tag):
        out = query_windows(qds, root, CFG, mode="taat").to_pandas()
        for qid, text, k in queries:
            od, osc = oracle.score(text, k)
            sub = out[out.query_id == qid].sort_values("rank")
            np.testing.assert_array_equal(
                sub.doc_id.to_numpy(dtype=np.uint64), od, err_msg=f"{tag} doc mismatch q{qid}"
            )
            np.testing.assert_array_equal(
                sub.score.to_numpy(), osc, err_msg=f"{tag} score mismatch q{qid}"
            )

    check("pre-compaction")

    # keep sources on disk: the committed marker alone must already
    # exclude them from serving (the crash window between build-commit
    # and source deletion can never double-count)
    out_dir = compact_windows(root, ["000", "001"], out_window_id="c01",
                              cfg=CFG, delete_sources=False)
    names = {os.path.basename(d) for d in _window_dirs(root)}
    assert {"window=000", "window=001", "window=c01", "window=002"} <= names
    check("marker-cutover (sources still on disk)")

    # stats of the compacted window match the sum of its sources
    st = json.load(open(os.path.join(out_dir, "corpus_stats.json")))
    assert st["shard_n_docs"] > 0 and st["n_docs"] == oracle.n_docs

    # now compact EVERYTHING (the remaining live windows) into one
    compact_windows(root, cfg=CFG, delete_sources=True)
    live = [d for d in _window_dirs(root)
            if os.path.exists(os.path.join(d, "corpus_stats.json"))]
    # sources deleted: only compacted windows remain, and serving is
    # still identical through a single sub-index
    assert not any(os.path.basename(d) in ("window=000", "window=001") for d in live)
    check("fully-compacted")


def test_cross_window_dedup_keeps_earliest_arrival(ray_session, tmp_path):
    """Across windows the earliest-arriving copy of a content wins, even
    when a later copy has the smaller doc_id (a single build would keep
    that later copy): query_windows returns the earlier-arrived doc,
    before and after compact_windows."""
    import pyarrow as pa
    import ray.data

    from docinsight_ray.ids import doc_id_from_key
    from docinsight_ray.pipelines.incremental import compact_windows

    corpus = gen_corpus(120, seed=31, with_cases=False)
    contents = corpus["content"].to_pylist()
    i = next(j for j, c in enumerate(contents[:60]) if contents.count(c) == 1)
    row = corpus.slice(i, 1)
    first_id = int(doc_id_from_key(row["repo"].to_pylist(), row["path"].to_pylist(),
                                   row["commit"].to_pylist())[0])
    # a second key for the same content whose doc_id is SMALLER
    repo = next(
        r for r in (f"later{n}/repo" for n in range(1000))
        if int(doc_id_from_key([r], row["path"].to_pylist(), row["commit"].to_pylist())[0])
        < first_id
    )
    late_copy = row.set_column(0, "repo", pa.array([repo]))
    late_id = int(doc_id_from_key([repo], row["path"].to_pylist(), row["commit"].to_pylist())[0])
    w2 = pa.concat_tables([corpus.slice(60), late_copy])

    # the case is real: a single build over the concatenation keeps the
    # later-arriving, smaller-doc_id copy
    text = contents[i]
    od, _ = OracleIndex(pa.concat_tables([corpus.slice(0, 60), w2]), CFG).score(text, 5)
    assert late_id in od.tolist() and first_id not in od.tolist()

    root = str(tmp_path / "arrival")
    append_window(ray.data.from_arrow(corpus.slice(0, 60)), root, "000", CFG)
    append_window(ray.data.from_arrow(w2), root, "001", CFG)
    qds = ray.data.from_arrow(queries_table([(0, text, 5)]))

    def top_ids():
        out = query_windows(qds, root, CFG, mode="taat").to_pandas()
        return out.sort_values("rank").doc_id.astype(np.uint64).tolist()

    before = top_ids()
    assert before[0] == first_id and late_id not in before
    compact_windows(root, cfg=CFG)
    assert top_ids() == before


def test_cross_window_dedup_bloom_path(ray_session, tmp_path):
    """Same contract with broadcast_limit=0 AND a corpus_factory: the
    seen-sha filter runs through the Bloom shuffle-bypass tier
    (definitely-new rows skip the anti-join; maybe-seen rows are
    join-verified) and the result is identical to the join path."""
    import json
    import os

    import pyarrow as pa
    import ray.data

    cfg = EngineConfig(num_buckets=8, dedup=True, broadcast_limit=0)
    corpus = gen_corpus(120, seed=17, with_cases=False)
    root = str(tmp_path / "ddb")
    append_window(ray.data.from_arrow(corpus.slice(0, 60)), root, "000", cfg)
    w2 = pa.concat_tables([
        corpus.slice(0, 30).set_column(
            0, "repo", pa.array(["later/" + r for r in corpus.slice(0, 30)["repo"].to_pylist()])
        ),
        corpus.slice(60, 30),
    ])
    append_window(
        ray.data.from_arrow(w2), root, "001", cfg,
        corpus_factory=lambda: ray.data.from_arrow(w2),
    )
    s1 = json.load(open(os.path.join(root, "window=001", "corpus_stats.json")))
    assert s1["shard_n_docs"] == 30, "only the 30 new docs may survive the bloom-path filter"
    assert s1["n_docs"] == 90
    oracle = OracleIndex(corpus.slice(0, 90), cfg)
    queries = gen_queries(corpus, n_keyword=5, seed=17)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_windows(qds, root, cfg, mode="taat").to_pandas()
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)


def test_windowed_filters_match_single_index(ray_session, tmp_path):
    """doc_filter / exclude_terms / include_doc_ids through the
    windowed fan-out equal the single-index restricted ranking
    (window-local sets union to the global ones — cross-window dedup
    makes windows disjoint)."""
    import ray.data

    from docinsight_ray.build import build_index
    from docinsight_ray.config import EngineConfig
    from docinsight_ray.pipelines.incremental import append_window, query_windows
    from docinsight_ray.scorer import BM25Scorer

    cfg = EngineConfig(num_buckets=8)
    corpus = gen_corpus(240, seed=31)
    root = str(tmp_path / "winflt")
    half = corpus.num_rows // 2
    append_window(ray.data.from_arrow(corpus.slice(0, half)), root, "000", cfg)
    append_window(ray.data.from_arrow(corpus.slice(half)), root, "001", cfg)
    single = str(tmp_path / "single")
    build_index(ray.data.from_arrow(corpus), single, cfg, fingerprint="winflt-single")

    base = BM25Scorer(single, cfg, mode="taat")
    queries = gen_queries(corpus, n_keyword=6, seed=32)
    # query-independent include set: half the registry by sorted order
    include = np.sort(base._dl_docid.astype(np.uint64))[::2]
    langs = ("py", "go", "rs", "c")
    neg = ("score",)
    ref = BM25Scorer(single, cfg, mode="taat", doc_filter=("lang", langs),
                     exclude_terms=neg, include_doc_ids=include)
    qds = ray.data.from_arrow(queries_table(queries))
    out = query_windows(qds, root, cfg, mode="taat", doc_filter=("lang", langs),
                        exclude_terms=neg, include_doc_ids=include).to_pandas()
    checked = 0
    for qid, text, k in queries:
        od, osc = ref.score_taat(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od)
        np.testing.assert_array_equal(sub.score.to_numpy(), osc)
        checked += 1 if od.size else 0
    assert checked >= 2


def test_windowed_msm_synonyms_boosts_match_single_index(ray_session, tmp_path):
    """min_should_match / synonyms / boosts through the windowed
    fan-out equal the single-index engine bitwise (windows are
    doc-disjoint, so match counts and boosted weights are
    window-locally complete)."""
    import ray.data

    from docinsight_ray.build import build_index
    from docinsight_ray.config import EngineConfig
    from docinsight_ray.pipelines.incremental import append_window, query_windows
    from docinsight_ray.scorer import BM25Scorer

    cfg = EngineConfig(num_buckets=8)
    corpus = gen_corpus(200, seed=37)
    root = str(tmp_path / "windsl")
    half = corpus.num_rows // 2
    append_window(ray.data.from_arrow(corpus.slice(0, half)), root, "000", cfg)
    append_window(ray.data.from_arrow(corpus.slice(half)), root, "001", cfg)
    single = str(tmp_path / "single-dsl")
    build_index(ray.data.from_arrow(corpus), single, cfg, fingerprint="windsl-single")
    queries = [q for q in gen_queries(corpus, n_keyword=8, seed=38)
               if len(q[1].split()) >= 2]
    assert len(queries) >= 3
    t0 = queries[0][1].split()[0]
    for kwargs in (
        {"min_should_match": 2},
        {"synonyms": {t0: (queries[1][1].split()[0],)}},
        {"boosts": {t0: 0.5}},
    ):
        ref = BM25Scorer(single, cfg, mode="taat", **kwargs)
        qds = ray.data.from_arrow(queries_table(queries))
        out = query_windows(qds, root, cfg, mode="taat", **kwargs).to_pandas()
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


def test_tiered_compaction_policy(ray_session, tmp_path):
    """plan_compaction (Lucene TieredMergePolicy shape): merges the
    SMALLEST windows down to the fan-out target, leaves big segments
    alone, and serving stays identical after the policy-driven
    compaction."""
    import ray.data

    from docinsight_ray.pipelines.incremental import compact_windows, plan_compaction

    corpus = gen_corpus(320, seed=41)
    root = str(tmp_path / "tier")
    # one big window (200 docs) + four small ones (30 each)
    slices = [(0, 200), (200, 30), (230, 30), (260, 30), (290, 30)]
    for i, (off, ln) in enumerate(slices):
        append_window(ray.data.from_arrow(corpus.slice(off, ln)), root, f"{i:03d}", CFG)

    plan = plan_compaction(root, max_windows=3, tier_factor=4.0)
    # 5 live -> pick 3 smallest to reach 3 windows; the next-smallest
    # (30 docs <= 4x90) folds in too; the 200-doc window stays
    assert sorted(plan) == ["001", "002", "003", "004"]

    queries = gen_queries(corpus, n_keyword=8, seed=3)
    qds = ray.data.from_arrow(queries_table(queries))
    before = query_windows(qds, root, CFG, mode="taat").to_pandas().sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    compact_windows(root, window_ids=plan, cfg=CFG)
    qds = ray.data.from_arrow(queries_table(queries))
    after = query_windows(qds, root, CFG, mode="taat").to_pandas().sort_values(
        ["query_id", "rank"]).reset_index(drop=True)
    assert before.equals(after)
    # fan-out dropped to the target and the policy is now satisfied
    assert plan_compaction(root, max_windows=3, tier_factor=4.0) == []
    # a huge next window would NOT fold in under the tier bound
    assert plan_compaction(root, max_windows=1, tier_factor=1.5) == []


def test_tiered_policy_skips_lone_minnow(ray_session, tmp_path):
    """A lone tier-gapped small window must not stall the policy: the
    mergeable tier ABOVE it still gets planned (review finding)."""
    import ray.data

    from docinsight_ray.pipelines.incremental import plan_compaction

    corpus = gen_corpus(215, seed=43)
    root = str(tmp_path / "minnow")
    # one 5-doc minnow + three 70-doc windows, gapped at factor 4
    slices = [(0, 5), (5, 70), (75, 70), (145, 70)]
    for i, (off, ln) in enumerate(slices):
        append_window(ray.data.from_arrow(corpus.slice(off, ln)), root, f"{i:03d}", CFG)
    plan = plan_compaction(root, max_windows=2, tier_factor=4.0)
    assert sorted(plan) == ["001", "002", "003"]  # minnow skipped, tier merged


def test_append_windows_batched(ray_session, tmp_path, monkeypatch):
    """Deferred-refresh batched appends: (a) rank-identical to the
    per-append refresh path, and (b) exactly ONE global-stats
    redistribution for N appends (VERDICT r3, Next round #5)."""
    import ray.data

    import docinsight_ray.pipelines.incremental as inc
    from docinsight_ray.pipelines.incremental import append_windows

    corpus = gen_corpus(360, seed=13)
    n = corpus.num_rows
    windows = [corpus.slice(0, n // 3), corpus.slice(n // 3, n // 3), corpus.slice(2 * (n // 3))]

    # reference: eager per-append refresh
    root_eager = str(tmp_path / "eager")
    for i, w in enumerate(windows):
        append_window(ray.data.from_arrow(w), root_eager, f"{i:03d}", CFG)

    # batched: count redistributions
    calls = []
    real = inc.distribute_global_stats

    def counting(dirs, appended=None):
        calls.append(appended)
        return real(dirs, appended=appended)

    monkeypatch.setattr(inc, "distribute_global_stats", counting)
    root_batch = str(tmp_path / "batch")
    dirs = append_windows(
        [(ray.data.from_arrow(w), f"{i:03d}") for i, w in enumerate(windows)],
        root_batch, CFG,
    )
    assert len(calls) == 1, f"expected 1 redistribution for 3 appends, got {len(calls)}"
    assert len(dirs) == 3

    queries = gen_queries(corpus, n_keyword=10, seed=13)
    qds = queries_table(queries)
    out_e = query_windows(ray.data.from_arrow(qds), root_eager, CFG, mode="taat").to_pandas()
    out_b = query_windows(ray.data.from_arrow(qds), root_batch, CFG, mode="taat").to_pandas()
    cols = ["query_id", "rank", "doc_id", "score"]
    import pandas as pd

    pd.testing.assert_frame_equal(
        out_e[cols].sort_values(["query_id", "rank"]).reset_index(drop=True),
        out_b[cols].sort_values(["query_id", "rank"]).reset_index(drop=True),
    )


# --------------------------------------------------------------------------
# compaction merges encoded postings: equal to a fresh build, resumable
# --------------------------------------------------------------------------


def _three_windows(corpus):
    n = corpus.num_rows // 3
    return [corpus.slice(0, n), corpus.slice(n, n), corpus.slice(2 * n)]


def _append_all(windows, root):
    import ray.data

    from docinsight_ray.pipelines.incremental import append_windows

    append_windows([(ray.data.from_arrow(w), f"{i:03d}") for i, w in enumerate(windows)], root, CFG)
    return root


def _survivors(windows, dead_contents=()):
    """The docs a windowed index holds: a later window's copy of a
    content an earlier window holds was dropped at append (copies
    within one window stay, for the build's own dedup), and tombstoned
    contents go."""
    import pyarrow as pa

    seen, keep = set(dead_contents), []
    for w in windows:
        wc = w["content"].to_pylist()
        keep += [c not in seen for c in wc]
        seen.update(wc)
    return pa.concat_tables(windows).filter(pa.array(keep))


def _postings(index_dir):
    """Every postings row of an index, sorted by term."""
    import glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(index_dir, "parts", "**", "*.parquet"), recursive=True)
    return pa.concat_tables([pq.read_table(f) for f in files]).sort_by("term")


def _part_bytes(index_dir):
    import glob
    import os

    files = glob.glob(os.path.join(index_dir, "parts", "**", "*.parquet"), recursive=True)
    return {os.path.relpath(f, index_dir): open(f, "rb").read() for f in files}


def _assert_oracle(root, survivors, seed=13):
    import ray.data

    oracle = OracleIndex(survivors, CFG)
    queries = gen_queries(survivors, n_keyword=10, seed=seed)
    out = query_windows(ray.data.from_arrow(queries_table(queries)), root, CFG, mode="taat").to_pandas()
    for qid, text, k in queries:
        od, osc = oracle.score(text, k)
        sub = out[out.query_id == qid].sort_values("rank")
        np.testing.assert_array_equal(sub.doc_id.to_numpy(dtype=np.uint64), od, err_msg=f"q{qid}")
        np.testing.assert_array_equal(sub.score.to_numpy(), osc, err_msg=f"q{qid}")


@pytest.mark.parametrize("tombstones", [False, True])
def test_compaction_equals_fresh_build(ray_session, tmp_path, tombstones):
    """Compacting 3 windows gives, on every postings column, the rows of
    a build_index over exactly the surviving docs — and no staging
    dirs."""
    import json
    import os

    import ray.data

    from docinsight_ray.build import build_index
    from docinsight_ray.ids import sha256_hex
    from docinsight_ray.pipelines.incremental import compact_windows, delete_docs

    corpus = gen_corpus(360, seed=41)
    windows = _three_windows(corpus)
    root = _append_all(windows, str(tmp_path / "w"))
    dead = corpus["content"].to_pylist()[::17] if tombstones else []
    if dead:
        assert delete_docs(root, shas=list(sha256_hex(dead)), cfg=CFG) > 0
    out = compact_windows(root, cfg=CFG)
    fresh = build_index(ray.data.from_arrow(_survivors(windows, dead)), str(tmp_path / "fresh"),
                        CFG, fingerprint="fresh")
    got, want = _postings(out), _postings(fresh.index_dir)
    assert got.num_rows == want.num_rows > 0
    for col in want.column_names:
        assert got[col].equals(want[col]), col
    st = json.load(open(os.path.join(out, "corpus_stats.json")))
    assert (st["n_docs"], st["total_len"], st["avgdl"]) == (fresh.n_docs, fresh.total_len, fresh.avgdl)
    assert set(st["stages"]) == {"docs_union", "dedup", "stats_agg", "merge_shuffle", "term_dict"}
    assert not {"fragments", "fragments-dfstats", "partial"} & set(os.listdir(out))


def test_full_compaction_then_append(ray_session, tmp_path):
    """A full compaction leaves one window, whose own df is the global
    df: no global_df.parquet is written. The next append re-aggregates
    in full and serves the oracle's ranking."""
    import os

    import ray.data

    from docinsight_ray.pipelines.incremental import compact_windows

    corpus = gen_corpus(360, seed=13)
    windows = _three_windows(corpus)
    root = _append_all(windows[:2], str(tmp_path / "w"))
    out = compact_windows(root, cfg=CFG)
    assert not os.path.exists(os.path.join(out, "global_df.parquet"))
    _assert_oracle(root, _survivors(windows[:2]))
    append_window(ray.data.from_arrow(windows[2]), root, "002", CFG)
    _assert_oracle(root, _survivors(windows))


def test_compaction_crash_resume(ray_session, tmp_path, monkeypatch):
    """A compaction that crashes after k committed buckets, or after the
    _COMPACTED_FROM cutover, serves the oracle's ranking meanwhile (no
    double counting), and its rerun writes byte-identical postings —
    skipping the buckets already committed."""
    import glob
    import json
    import os

    from docinsight_ray.pipelines import incremental, merge
    from docinsight_ray.pipelines.incremental import compact_windows

    corpus = gen_corpus(360, seed=13)
    windows = _three_windows(corpus)
    survivors = _survivors(windows)
    clean_dir = compact_windows(_append_all(windows, str(tmp_path / "clean")), cfg=CFG)
    clean = _part_bytes(clean_dir)
    clean_n = json.load(open(os.path.join(clean_dir, "corpus_stats.json")))["n_docs"]

    # 1. the bucket writer raises once k buckets have committed
    k = 2
    base = merge._BucketMerge

    class CrashAfterK(base):
        def __call__(self, group):
            names = os.listdir(os.path.join(self.out_dir, "manifest"))
            if sum(n.startswith("g") for n in names) >= k:
                raise RuntimeError("injected bucket crash")
            return super().__call__(group)

    root = _append_all(windows, str(tmp_path / "crash"))
    monkeypatch.setattr(merge, "_BucketMerge", CrashAfterK)
    with pytest.raises(Exception, match="injected bucket crash"):
        compact_windows(root, cfg=CFG)
    monkeypatch.undo()
    (out,) = glob.glob(os.path.join(root, "window=compact-*"))
    committed = glob.glob(os.path.join(out, "manifest", "g*.json"))
    assert k <= len(committed) < CFG.num_buckets
    assert not os.path.exists(os.path.join(out, "corpus_stats.json"))
    _assert_oracle(root, survivors)  # the uncommitted merge excludes nothing
    kept = {f: os.path.getmtime(f) for m in committed
            for f in glob.glob(os.path.join(out, "parts", os.path.basename(m)[:-5], "*.parquet"))}
    assert compact_windows(root, cfg=CFG) == out
    assert _part_bytes(out) == clean
    assert {f: os.path.getmtime(f) for f in kept} == kept  # committed buckets skipped
    st = json.load(open(os.path.join(out, "corpus_stats.json")))
    assert st["n_docs"] == clean_n and st["stages"]["merge_shuffle"]["skipped"] == len(committed)
    _assert_oracle(root, survivors)

    # 2. the merge committed (sources excluded by the marker) and the
    # crash hits before global stats are redistributed
    root = _append_all(windows, str(tmp_path / "cutover"))

    def crash(*_a, **_k):
        raise RuntimeError("injected stats crash")

    monkeypatch.setattr(incremental, "distribute_global_stats", crash)
    with pytest.raises(RuntimeError, match="injected stats crash"):
        compact_windows(root, cfg=CFG, delete_sources=False)
    monkeypatch.undo()
    _assert_oracle(root, survivors)
    out = compact_windows(root, cfg=CFG)
    assert _part_bytes(out) == clean
    assert json.load(open(os.path.join(out, "corpus_stats.json")))["n_docs"] == clean_n
    assert [os.path.basename(d) for d, _ in incremental._live_windows(root)] == [os.path.basename(out)]
    _assert_oracle(root, survivors)
