"""merge_indexes: N standalone indexes → one, rank-identical to a
single build over the concatenated corpora (Lucene addIndexes shape)."""

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from docinsight_ray.build import build_index
from docinsight_ray.config import EngineConfig
from docinsight_ray.fixtures import gen_corpus, gen_queries
from docinsight_ray.pipelines.merge import merge_indexes
from docinsight_ray.scorer import BM25Scorer

CFG = EngineConfig(num_buckets=8)


@pytest.fixture(scope="module")
def merged(ray_session, tmp_path_factory):
    root = tmp_path_factory.mktemp("merge")
    a = gen_corpus(300, seed=11)
    b = gen_corpus(200, seed=22)
    # plant a cross-source duplicate: one of B's contents equals one of
    # A's — the merged dedup must collapse it exactly like a single
    # build over the union does
    content_b = b["content"].to_pylist()
    content_b[5] = a["content"].to_pylist()[3]
    b = b.set_column(b.schema.get_field_index("content"), "content",
                     pa.array(content_b, type=pa.string()))
    both = pa.concat_tables([a, b])
    pq.write_table(a, str(root / "a.parquet"))
    pq.write_table(b, str(root / "b.parquet"))
    pq.write_table(both, str(root / "both.parquet"))
    ia, ib, iboth, im = (str(root / n) for n in ("ia", "ib", "iboth", "im"))
    build_index(ray.data.read_parquet(str(root / "a.parquet")), ia, CFG, fingerprint="a")
    build_index(ray.data.read_parquet(str(root / "b.parquet")), ib, CFG, fingerprint="b")
    rboth = build_index(
        ray.data.read_parquet(str(root / "both.parquet")), iboth, CFG, fingerprint="both"
    )
    rmerge = merge_indexes([ia, ib], im, CFG)
    return root, both, ia, ib, iboth, im, rboth, rmerge


def test_merge_stats_equal_single_build(merged):
    _, _, _, _, _, _, rboth, rmerge = merged
    assert rmerge.n_docs == rboth.n_docs
    assert rmerge.total_len == rboth.total_len
    assert rmerge.n_dup_losers >= 1  # the planted cross-source dup collapsed


def test_merge_rank_identity_vs_single_build(merged):
    """Every query: merged index serves the SAME docs and BITWISE the
    same scores as the single build over the concatenated corpora, in
    taat and bmw modes."""
    _, both, _, _, iboth, im, _, _ = merged
    s_one = {m: BM25Scorer(iboth, CFG, mode=m) for m in ("taat", "bmw")}
    s_mrg = {m: BM25Scorer(im, CFG, mode=m) for m in ("taat", "bmw")}
    for qid, text, k in gen_queries(both, n_keyword=20, seed=5):
        for m in ("taat", "bmw"):
            od, osc = getattr(s_one[m], f"score_{m}" if m != "bmw" else "score_bmw")(text, k)
            md, msc = getattr(s_mrg[m], f"score_{m}" if m != "bmw" else "score_bmw")(text, k)
            np.testing.assert_array_equal(md, od, err_msg=f"{m} doc mismatch q{qid}")
            np.testing.assert_array_equal(msc, osc, err_msg=f"{m} score mismatch q{qid}")


def test_merge_is_resumable_noop(merged):
    """A second merge_indexes call over the same sources returns the
    committed result without rewriting postings."""
    _, _, ia, ib, _, im, _, first = merged
    parts = sorted(
        os.path.join(dp, f)
        for dp, _, fs in os.walk(os.path.join(im, "parts"))
        for f in fs if f.endswith(".parquet")
    )
    mtimes = [os.path.getmtime(p) for p in parts]
    again = merge_indexes([ia, ib], im, CFG)
    assert again.n_docs == first.n_docs
    assert [os.path.getmtime(p) for p in parts] == mtimes


def test_merge_rejects_config_mismatch(merged, tmp_path):
    _, _, ia, ib, _, _, _, _ = merged
    with pytest.raises(ValueError, match="config_hash"):
        merge_indexes([ia, ib], str(tmp_path / "bad"), EngineConfig(num_buckets=4))


def test_merge_rejects_unbuilt_source(merged, tmp_path):
    _, _, ia, _, _, _, _, _ = merged
    missing = str(tmp_path / "nothere")
    with pytest.raises(FileNotFoundError):
        merge_indexes([ia, missing], str(tmp_path / "out"), CFG)


def test_cli_merge(merged, capsys):
    from docinsight_ray.cli import main

    root, _, ia, ib, _, _, rboth, _ = merged
    out = str(root / "im_cli")
    assert main(["merge", out, ia, ib, "--num-buckets", "8"]) == 0
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert res["n_docs"] == rboth.n_docs
    # config mismatch → rc 2 with a clean error
    assert main(["merge", str(root / "im_bad"), ia, ib]) == 2


def test_merge_postings_equal_single_build(merged):
    """The merge of two overlapping sources (a content both hold) has,
    on every postings column, the rows of the single build over the
    concatenated corpora — and no staging dirs."""
    _, _, _, _, iboth, im, _, _ = merged

    def postings(d):
        files = [os.path.join(dp, f) for dp, _, fs in os.walk(os.path.join(d, "parts"))
                 for f in fs if f.endswith(".parquet")]
        return pa.concat_tables([pq.read_table(f) for f in files]).sort_by("term")

    got, want = postings(im), postings(iboth)
    assert got.num_rows == want.num_rows > 0
    for col in want.column_names:
        assert got[col].equals(want[col]), col
    assert not {"fragments", "fragments-dfstats", "partial"} & set(os.listdir(im))
