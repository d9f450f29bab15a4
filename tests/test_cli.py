"""CLI surface: build → query (--out/--report) → validate."""

import json
import os

import pyarrow.parquet as pq
import pytest

from docinsight_ray.cli import main
from docinsight_ray.fixtures import gen_corpus


@pytest.fixture(scope="module")
def built_cli(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus_path = str(root / "corpus.parquet")
    pq.write_table(gen_corpus(150, seed=71), corpus_path)
    idx = str(root / "index")
    rc = main(["build", corpus_path, idx, "--fingerprint", "cli-test"])
    assert rc == 0
    return corpus_path, idx, root


def test_cli_query_report_and_out(built_cli, capsys):
    corpus_path, idx, root = built_cli
    out_dir = str(root / "results")
    report = str(root / "report.json")
    rc = main([
        "query", idx, "public static void", "class main",
        "--mode", "maxscore", "-k", "5", "--out", out_dir, "--report", report,
        "--corpus", corpus_path,
    ])
    assert rc == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(lines) == 2 and all("hits" in l for l in lines)
    res = pq.read_table(os.path.join(out_dir, "results.parquet"))
    assert res.num_rows == sum(len(l["hits"]) for l in lines)
    rep = json.load(open(report))
    assert rep["n_queries"] == 2
    assert all({"repo", "path", "score"} <= set(h) for q in rep["queries"] for h in q["hits"])
    # --corpus adds content previews (reference preview_text analogue)
    assert all(h.get("preview") for q in rep["queries"] for h in q["hits"])


def test_cli_validate_clean_and_corrupted(built_cli, capsys, tmp_path):
    corpus_path, idx, root = built_cli
    rc = main(["validate", idx, "--corpus", corpus_path, "--spot-checks", "20"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["ok"] and not out["problems"]

    # corrupt one posting partition -> validate must fail loudly
    import glob
    import shutil

    bad = str(tmp_path / "bad_index")
    shutil.copytree(idx, bad)
    victim = sorted(glob.glob(os.path.join(bad, "parts", "**", "*.parquet"), recursive=True))[0]
    t = pq.read_table(victim)
    col = t.column_names.index("df")
    import pyarrow as pa

    wrong = pa.array([int(v.as_py()) + 1 for v in t["df"]], type=pa.uint64())
    pq.write_table(t.set_column(col, "df", wrong), victim)
    rc = main(["validate", bad])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and not out["ok"] and out["problems"]


def test_cli_conjunctive_mode(built_cli, capsys):
    corpus_path, idx, root = built_cli
    rc = main(["query", idx, "public static nosuchtokenxyz", "--mode", "conjunctive"])
    assert rc == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[0])
    assert line["hits"] == []  # unknown term empties a conjunctive query


def test_cli_query_mode_choices(tmp_path, capsys):
    """`query --mode` offers exactly the scorer's MODES; a typo is a
    usage error, not a silent TAAT query."""
    from docinsight_ray.scorer import MODES

    with pytest.raises(SystemExit) as e:
        main(["query", str(tmp_path), "x", "--mode", "max_score"])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice: 'max_score'" in err
    assert f"choose from {', '.join(map(repr, MODES))}" in err


def test_cli_purge_crash_leftovers(built_cli, capsys, tmp_path):
    """purge removes staging dirs, interrupted-write tmp files and
    stale-fingerprint manifests — and the committed index still serves
    identically afterwards. Runs against a COPY of the shared index:
    the cascading --all delete at the end must not destroy the
    module-scoped fixture later tests reuse."""
    import shutil

    import numpy as np

    from docinsight_ray.config import EngineConfig
    from docinsight_ray.scorer import BM25Scorer

    corpus_path, shared_idx, root = built_cli
    idx = str(tmp_path / "purge_index")
    shutil.copytree(shared_idx, idx)
    cfg = EngineConfig()
    before_d, before_s = BM25Scorer(idx, cfg).score_taat("public static void", 5)

    # simulate a crash: leftover staging dirs + a truncated tmp file +
    # a stale-fingerprint manifest
    os.makedirs(os.path.join(idx, "dedup_losers"), exist_ok=True)
    with open(os.path.join(idx, "dedup_losers", "junk.parquet"), "wb") as f:
        f.write(b"partial")
    os.makedirs(os.path.join(idx, "shard_input"), exist_ok=True)
    with open(os.path.join(idx, "parts", ".postings.parquet.deadbeef.tmp"), "wb") as f:
        f.write(b"truncated write")
    with open(os.path.join(idx, "manifest", "g999.json"), "w") as f:
        json.dump({"part_id": "g999", "fingerprint": "OLD-RUN", "status": "committed"}, f)

    rc = main(["purge", idx, "--dry-run"])
    assert rc == 0
    dry = json.loads(capsys.readouterr().out)
    assert any(p.endswith("dedup_losers") for p in dry["staging_dirs"])
    assert os.path.isdir(os.path.join(idx, "dedup_losers")), "dry-run must not delete"

    rc = main(["purge", idx])
    assert rc == 0
    rep = json.loads(capsys.readouterr().out)
    assert not os.path.exists(os.path.join(idx, "dedup_losers"))
    assert not os.path.exists(os.path.join(idx, "shard_input"))
    assert not os.path.exists(os.path.join(idx, "fragments"))
    assert not os.path.exists(os.path.join(idx, "parts", ".postings.parquet.deadbeef.tmp"))
    assert not os.path.exists(os.path.join(idx, "manifest", "g999.json"))
    assert any(p.endswith("g999.json") for p in rep["stale_manifests"])
    # committed state intact: current manifests survive, serving identical
    assert os.path.exists(os.path.join(idx, "manifest", "_SUCCESS.json"))
    after_d, after_s = BM25Scorer(idx, cfg).score_taat("public static void", 5)
    np.testing.assert_array_equal(after_d, before_d)
    np.testing.assert_array_equal(after_s, before_s)

    # cascading delete requires confirmation
    assert main(["purge", idx, "--all"]) == 2
    assert os.path.isdir(idx)
    assert main(["purge", idx, "--all", "--yes"]) == 0
    capsys.readouterr()
    assert not os.path.exists(idx)


def test_cli_compact(ray_session, tmp_path, capsys):
    """CLI compact merges all live windows into one; serving survives.
    The config passed to compact must match the windows' build config
    (scoring params are recorded in the compacted stats)."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from docinsight_ray.config import EngineConfig
    from docinsight_ray.fixtures import gen_corpus
    from docinsight_ray.pipelines.incremental import append_window, query_windows

    cfg = EngineConfig()  # CLI compact uses the default config
    root = str(tmp_path / "croot")
    corpus = gen_corpus(120, seed=31)
    append_window(ray.data.from_arrow(corpus.slice(0, 60)), root, "a", cfg)
    append_window(ray.data.from_arrow(corpus.slice(60)), root, "b", cfg)
    qds = ray.data.from_arrow(
        pa.table({"query_id": pa.array([0], type=pa.int64()),
                  "text": pa.array(["public static void"], type=pa.string()),
                  "k": pa.array([5], type=pa.uint32())})
    )
    before = query_windows(qds, root, cfg).to_pandas().sort_values("rank")
    rc = main(["compact", root, "--out-id", "all"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["compacted_to"].endswith("window=all")
    dirs = [n for n in os.listdir(root) if n.startswith("window=")]
    assert dirs == ["window=all"]
    after = query_windows(qds, root, cfg).to_pandas().sort_values("rank")
    np.testing.assert_array_equal(after.doc_id.to_numpy(), before.doc_id.to_numpy())
    np.testing.assert_array_equal(after.score.to_numpy(), before.score.to_numpy())


def test_cli_validate_sharded_root(ray_session, tmp_path, capsys):
    """validate on a sharded ROOT validates each sub-index plus the
    cross-shard global-stat invariants; a corrupted global count is
    reported."""
    import ray.data

    from docinsight_ray.config import EngineConfig
    from docinsight_ray.fixtures import gen_corpus
    from docinsight_ray.pipelines.sharded import build_sharded_index

    cfg = EngineConfig(num_buckets=4, dedup=False)
    idx = str(tmp_path / "shroot")
    build_sharded_index(
        ray.data.from_arrow(gen_corpus(120, seed=61)), idx, 2, cfg, fingerprint="v"
    )
    rc = main(["validate", idx])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 0 and out["ok"] and out["n_sub_indexes"] == 2

    # corrupt one shard's global count → root validation must fail
    p = os.path.join(idx, "shard=0", "corpus_stats.json")
    st = json.load(open(p))
    st["n_docs"] += 1
    with open(p, "w") as f:
        json.dump(st, f)
    rc = main(["validate", idx])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1 and not out["ok"] and out["problems"]


def test_cli_posbuild_and_phrase(built_cli, capsys):
    """posbuild → phrase (exact + slop) round-trip, checked against the
    PhraseScorer API on the same index."""
    corpus_path, idx, root = built_cli
    pos_dir = str(root / "posidx")
    rc = main(["posbuild", corpus_path, pos_dir, "--fingerprint", "cli-pos"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["phrase", pos_dir, "public static", "-k", "5"])
    assert rc == 0
    out = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(out) == 1 and out[0]["phrase"] == "public static"
    from docinsight_ray.config import EngineConfig
    from docinsight_ray.pipelines.positional import PhraseScorer

    sc = PhraseScorer(pos_dir, EngineConfig())
    d, c = sc.phrase_occurrences("public static", 5)
    assert [h["doc_id"] for h in out[0]["hits"]] == [int(x) for x in d]
    assert [h["n_occ"] for h in out[0]["hits"]] == [int(x) for x in c]
    # slop path returns at least the exact matches
    rc = main(["phrase", pos_dir, "public static", "-k", "5", "--slop", "2"])
    assert rc == 0
    slop_out = json.loads(capsys.readouterr().out.strip())
    assert len(slop_out["hits"]) >= min(5, len(out[0]["hits"]))
    # unbuilt dir errors cleanly
    assert main(["phrase", str(root / "nope"), "xx yy"]) == 2


def test_cli_run_registry(ray_session, tmp_path, capsys):
    """`run --list` prints the full queries() registry; `run <op>` with
    --out writes the op's result parquet."""
    rc = main(["run", "--list"])
    assert rc == 0
    names = capsys.readouterr().out.split()
    assert {"exact_dedup", "mixture_sample", "heavy_hitters_cms"} <= set(names)

    out = str(tmp_path / "mix.parquet")
    rc = main(["run", "mixture_sample", "/root/testdata/sf0.001", "--out", out])
    assert rc == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    t = pq.read_table(out)
    assert t.num_rows == line["rows"] == 500
    assert set(t.column_names) == {"doc_id", "lang", "kept"}

    rc = main(["run", "definitely_not_an_op", "/root/testdata/sf0.001"])
    assert rc == 2


def test_cli_search_structured(ray_session, tmp_path, capsys):
    """search subcommand: structured grammar end-to-end — positive
    terms return hits, a universal negation empties them, phrase
    constraints without --pos-dir fail cleanly with rc=2.

    Builds its own index: the shared built_cli index is cascade-deleted
    by test_cli_purge_crash_leftovers' final `purge --all --yes`."""
    corpus_path = str(tmp_path / "corpus.parquet")
    pq.write_table(gen_corpus(120, seed=77), corpus_path)
    idx = str(tmp_path / "index")
    assert main(["build", corpus_path, idx, "--fingerprint", "cli-search"]) == 0
    capsys.readouterr()
    rc = main(["search", idx, "public static -zzznotaterm", "-k", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert len(out["hits"]) == 5
    # negating a term every generated doc contains empties the result
    rc = main(["search", idx, "public static -import", "-k", "5"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["hits"] == []
    rc = main(["search", idx, 'public "static void"', "-k", "5"])
    assert rc == 2  # phrase needs --pos-dir
    # --min-should-match through the structured path shrinks-or-keeps
    rc = main(["search", idx, "public static void", "-k", "100"])
    assert rc == 0
    all_hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["hits"]
    rc = main(["search", idx, "public static void", "-k", "100",
               "--min-should-match", "3"])
    assert rc == 0
    msm_hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["hits"]
    assert 0 < len(msm_hits) <= len(all_hits)
    scores = {h["doc_id"]: h["score"] for h in all_hits}
    assert all(scores[h["doc_id"]] == h["score"] for h in msm_hits)


def test_cli_validate_positional(ray_session, tmp_path, capsys):
    """validate on a positional index: clean index passes (incl.
    --corpus Σnpos/doc_len spot checks); an injected duplicate
    (term, doc_id) row and a corrupted position blob are reported."""
    import pyarrow as pa

    corpus_path = str(tmp_path / "corpus.parquet")
    pq.write_table(gen_corpus(100, seed=81), corpus_path)
    pos_dir = str(tmp_path / "posidx")
    assert main(["posbuild", corpus_path, pos_dir, "--fingerprint", "v"]) == 0
    capsys.readouterr()
    rc = main(["validate", pos_dir, "--corpus", corpus_path, "--spot-checks", "20"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0 and rep["ok"] and not rep["problems"]
    assert rep["n_rows"] > 0 and rep["n_docs"] > 0

    # corruption: append a duplicate row with a NON-monotonic position
    # blob into an existing bucket dir
    import glob as _glob

    f = sorted(_glob.glob(os.path.join(pos_dir, "bucket=*", "*.parquet")))[0]
    t = pq.read_table(f)
    bad = t.slice(0, 1)
    from docinsight_ray.codec import varbyte_encode
    import numpy as np

    # positions [5, 5] encode as deltas [5, 0] — delta 0 ⇒ non-increasing
    blob = varbyte_encode(np.array([5, 0], dtype=np.uint64))
    bad = pa.table(
        {
            "term": bad["term"],
            "doc_id": bad["doc_id"],
            "npos": pa.array([2], type=pa.uint32()),
            "pos_vb": pa.array([blob], type=pa.binary()),
        }
    )
    pq.write_table(bad, os.path.join(os.path.dirname(f), "zz-corrupt.parquet"))
    rc = main(["validate", pos_dir])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 1 and not rep["ok"]
    assert any("duplicate (term, doc_id)" in p for p in rep["problems"])
    assert any("non-increasing positions" in p for p in rep["problems"])


def test_cli_query_msm_and_synonyms(ray_session, tmp_path, capsys):
    """--min-should-match drops docs matching < M terms (and rejects
    pruning modes cleanly); --synonyms expands the query through a JSON
    thesaurus file."""
    corpus_path = str(tmp_path / "corpus.parquet")
    pq.write_table(gen_corpus(120, seed=94), corpus_path)
    idx = str(tmp_path / "index")
    assert main(["build", corpus_path, idx, "--fingerprint", "cli-msm"]) == 0
    capsys.readouterr()
    q = "public static void"
    rc = main(["query", idx, q, "-k", "100"])
    assert rc == 0
    base = json.loads(capsys.readouterr().out.strip().splitlines()[0])["hits"]
    rc = main(["query", idx, q, "-k", "100", "--min-should-match", "3"])
    assert rc == 0
    msm = json.loads(capsys.readouterr().out.strip().splitlines()[0])["hits"]
    assert 0 < len(msm) <= len(base)
    base_by_id = {h["doc_id"]: h["score"] for h in base}
    assert all(base_by_id[h["doc_id"]] == h["score"] for h in msm)
    # pruning mode + msm → clean rc=2, not a traceback
    rc = main(["query", idx, q, "--mode", "maxscore", "--min-should-match", "2"])
    assert rc == 2
    capsys.readouterr()
    # synonyms: 'public' ALSO contributes 'static' → equals the 2-term query
    syn_path = str(tmp_path / "syn.json")
    with open(syn_path, "w") as f:
        json.dump({"public": ["static"]}, f)
    rc = main(["query", idx, "public", "-k", "10", "--synonyms", syn_path])
    assert rc == 0
    syn_hits = json.loads(capsys.readouterr().out.strip().splitlines()[0])["hits"]
    rc = main(["query", idx, "public static", "-k", "10"])
    assert rc == 0
    two_hits = json.loads(capsys.readouterr().out.strip().splitlines()[0])["hits"]
    assert syn_hits == two_hits
    # --boost: all-1.0 boost is a no-op; malformed spec → rc=2
    rc = main(["query", idx, q, "-k", "10", "--boost", "public=1.0"])
    assert rc == 0
    boosted = json.loads(capsys.readouterr().out.strip().splitlines()[0])["hits"]
    assert boosted == base[:10]
    rc = main(["query", idx, q, "--boost", "public=notanumber"])
    assert rc == 2
    capsys.readouterr()


def test_cli_query_explain(ray_session, tmp_path, capsys):
    """query --explain-doc prints the per-term breakdown whose total is
    the doc's served score. (Private index: the shared built_cli one is
    cascade-deleted by the purge test, which runs earlier.)"""
    corpus_path = str(tmp_path / "corpus.parquet")
    pq.write_table(gen_corpus(120, seed=93), corpus_path)
    idx = str(tmp_path / "index")
    assert main(["build", corpus_path, idx, "--fingerprint", "cli-explain"]) == 0
    capsys.readouterr()
    rc = main(["query", idx, "public static void", "-k", "3"])
    assert rc == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[0])["hits"]
    assert hits
    rc = main(["query", idx, "public static void",
               "--explain-doc", str(hits[0]["doc_id"])])
    assert rc == 0
    ex = json.loads(capsys.readouterr().out.strip())
    assert round(ex["score"], 6) == hits[0]["score"]
    assert ex["in_candidate_set"] and ex["terms"]


def test_cli_suggest_and_spell(built_cli, capsys):
    """suggest: df-ranked prefix completions; spell: did-you-mean per
    token with self-suggestion at distance 0; both rc=2 on an unbuilt
    index path."""
    corpus_path, idx, root = built_cli
    rc = main(["suggest", idx, "pub", "-n", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    dfs = [s["df"] for s in out["suggestions"]]
    assert dfs == sorted(dfs, reverse=True)
    assert all(s["term"].startswith("pub") for s in out["suggestions"])

    # a known vocabulary word (corpus is java-like) and a typo of it
    term = out["suggestions"][0]["term"] if out["suggestions"] else "public"
    typo = term[:-1] + "q"
    rc = main(["spell", idx, f"{term} {typo}"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    by_tok = {c["token"]: c for c in out["corrections"]}
    assert by_tok[term]["dist"] == 0 and by_tok[term]["suggestion"] == term
    assert by_tok[typo]["suggestion"] == term and by_tok[typo]["dist"] == 1

    assert main(["suggest", str(root / "nope"), "x"]) == 2
    capsys.readouterr()
    assert main(["spell", str(root / "nope"), "xyz"]) == 2
    capsys.readouterr()


def test_cli_validate_term_dict(built_cli, capsys, tmp_path):
    """validate checks the term_dict sidecar: a clean index passes; a
    corrupted sidecar (df bumped) is reported, not crashed on."""
    import glob as _glob
    import shutil

    corpus_path, idx, root = built_cli
    rc = main(["validate", idx])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["ok"]

    bad = str(tmp_path / "bad_td")
    shutil.copytree(idx, bad)
    victim = sorted(
        _glob.glob(os.path.join(bad, "term_dict", "**", "*.parquet"), recursive=True)
    )[0]
    import pyarrow as pa

    t = pq.read_table(victim)
    wrong = pa.array([int(v.as_py()) + 1 for v in t["df"]], type=pa.uint64())
    pq.write_table(t.set_column(t.column_names.index("df"), "df", wrong), victim)
    rc = main(["validate", bad])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and any("term_dict" in p for p in out["problems"])


def test_cli_snapshot_restore_roundtrip(built_cli, capsys, tmp_path):
    """snapshot → delete index → restore → bitwise-identical serving;
    corrupt repository aborts restore naming the file; file:// URI
    repository round-trips too."""
    import shutil

    corpus_path, idx, root = built_cli
    # build a PRIVATE index (the shared one is purged by the GC test)
    priv = str(tmp_path / "idx")
    assert main(["build", corpus_path, priv, "--fingerprint", "snap-test"]) == 0
    import ray
    import ray.data

    from docinsight_ray import EngineConfig
    from docinsight_ray.fixtures import gen_queries, queries_table
    from docinsight_ray.scorer import query_index

    qds_tbl = queries_table(gen_queries(gen_corpus(150, seed=71), 4, seed=5))
    cfg = EngineConfig()

    def serve(index_dir):
        return (
            query_index(ray.data.from_arrow(qds_tbl), index_dir, cfg, mode="maxscore")
            .to_pandas()
            .sort_values(["query_id", "rank"])
            .reset_index(drop=True)
        )

    before = serve(priv)
    snap = str(tmp_path / "repo")
    capsys.readouterr()  # drain build/serve output
    assert main(["snapshot", priv, snap, "--verify"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["verified"] and out["fingerprint"].startswith("snap-test")
    shutil.rmtree(priv)
    assert main(["restore", snap, priv]) == 0
    capsys.readouterr()
    after = serve(priv)
    assert before.equals(after)

    # corrupt one repository file → restore aborts, names the file
    victim = None
    for dirpath, _d, files in os.walk(snap):
        for f in files:
            if f.endswith(".parquet"):
                victim = os.path.join(dirpath, f)
                break
        if victim:
            break
    with open(victim, "r+b") as fh:
        fh.seek(0)
        fh.write(b"\x00corrupt\x00")
    dest2 = str(tmp_path / "idx2")
    assert main(["restore", snap, dest2]) == 1
    err = capsys.readouterr().err
    assert "corrupt" in err and os.path.basename(victim) in err
    assert not os.path.exists(dest2)  # nothing promoted

    # file:// URI repository round-trip
    snap_uri = "file://" + str(tmp_path / "repo_uri")
    assert main(["snapshot", priv, snap_uri, "--verify"]) == 0
    capsys.readouterr()
    dest3 = str(tmp_path / "idx3")
    assert main(["restore", snap_uri, dest3]) == 0
    capsys.readouterr()
    assert before.equals(serve(dest3))


def test_cli_annbuild_annquery(ray_session, tmp_path, capsys):
    """annbuild → annquery round trip: exhaustive probe through the
    CLI equals the brute-force gate ranking; missing index is rc=2."""
    emb = "/root/testdata/sf0.001/embeddings.parquet"
    ann_dir = str(tmp_path / "ann")
    rc = main(["annbuild", emb, ann_dir, "--n-centroids", "4"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_centroids"] == 4 and stats["n_vectors"] > 0

    rc = main(["annquery", ann_dir, emb, "--limit", "2", "-k", "5", "--nprobe", "4"])
    assert rc == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 10 and rows[0]["rank"] == 0

    from docinsight_ray.functions.knn import q_knn_cosine

    exact = q_knn_cosine("/root/testdata/sf0.001").to_pandas()
    e0 = exact[exact.query_id == rows[0]["query_id"]].sort_values("rank")
    assert [r["vec_id"] for r in rows[:5]] == e0["vec_id"].head(5).tolist()

    rc = main(["annquery", str(tmp_path / "missing"), emb])
    assert rc == 2


def test_cli_stemmed_build_and_analyzer_adoption(ray_session, tmp_path_factory, capsys):
    """build --stemmer s --stopword: plural queries hit singular docs,
    and `query` adopts the build-time analyzer from corpus_stats.json
    (no flags needed on the query side)."""
    import pyarrow as pa

    root = tmp_path_factory.mktemp("cli_stem")
    corpus_path = str(root / "corpus.parquet")
    tbl = gen_corpus(120, seed=31)
    # plant a uniquely-identifiable singular doc
    content = tbl["content"].to_pylist()
    content[7] = "zebra table window merge " + content[7]
    tbl = tbl.set_column(tbl.schema.get_field_index("content"),
                         "content", pa.array(content, type=pa.string()))
    pq.write_table(tbl, corpus_path)
    idx = str(root / "index")
    assert main(["build", corpus_path, idx, "--stemmer", "s",
                 "--stopword", "the", "--fingerprint", "cli-stem"]) == 0
    stats = json.load(open(os.path.join(idx, "corpus_stats.json")))
    assert stats["stemmer"] == "s" and stats["stopwords"] == ["the"]
    # plural query, NO analyzer flags: the CLI must adopt stemmer="s"
    # from corpus_stats and stem zebras->zebra / tables->table
    assert main(["query", idx, "zebras tables", "-k", "3"]) == 0
    hits = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["hits"]
    assert hits, "stemmed plural query found nothing"
    top = hits[0]["doc_id"]
    # same query in singular form must rank the same doc first
    assert main(["query", idx, "zebra table", "-k", "3"]) == 0
    hits2 = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["hits"]
    assert hits2[0]["doc_id"] == top


def test_snapshot_is_layout_generic(ray_session, tmp_path, capsys):
    """snapshot/restore works for ANY artifact tree, not just BM25
    indexes: a positional index and a persisted tokenizer round-trip
    byte-identically and keep serving after restore."""
    import numpy as np
    import pyarrow.parquet as pqm

    from docinsight_ray.config import EngineConfig
    from docinsight_ray.functions.tokenizer_store import load_tokenizer, save_tokenizer
    from docinsight_ray.pipelines.positional import PhraseScorer, build_positional_index
    from docinsight_ray.state.snapshot import restore_index, snapshot_index

    import ray.data

    corpus_path = str(tmp_path / "corpus.parquet")
    pqm.write_table(gen_corpus(120, seed=9), corpus_path)
    cfg = EngineConfig(num_buckets=8)
    pos = str(tmp_path / "pos")
    build_positional_index(ray.data.read_parquet(corpus_path), pos, cfg, fingerprint="s")
    want_d, want_c = PhraseScorer(pos, cfg).phrase_occurrences("public static", 5)

    snap, dest = str(tmp_path / "snap"), str(tmp_path / "restored")
    snapshot_index(pos, snap)
    restore_index(snap, dest)
    got_d, got_c = PhraseScorer(dest, cfg).phrase_occurrences("public static", 5)
    np.testing.assert_array_equal(got_d, want_d)
    np.testing.assert_array_equal(got_c, want_c)

    tok = str(tmp_path / "tok")
    save_tokenizer("/root/testdata/sf0.001", tok, algo="bpe")
    tsnap, tdest = str(tmp_path / "tsnap"), str(tmp_path / "trestored")
    snapshot_index(tok, tsnap)
    restore_index(tsnap, tdest)
    assert load_tokenizer(tdest) == load_tokenizer(tok)
