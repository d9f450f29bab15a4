"""Windowed serving through the shared fan-out path (sharded.fan_out):
a multi-actor pool per window shares one object-store copy of its
window and returns exactly what one actor per window returns,
tombstones included."""

import os

import numpy as np

from docinsight_ray.config import EngineConfig
from docinsight_ray.fixtures import gen_corpus, gen_queries, queries_table
from docinsight_ray.ids import sha256_hex
from docinsight_ray.pipelines.incremental import append_windows, delete_docs, query_windows

CFG = EngineConfig(num_buckets=8, dedup=True)


def test_windows_shared_state_rank_identity(ray_session, tmp_path, monkeypatch):
    import ray.data

    from docinsight_ray import scorer

    corpus = gen_corpus(240, seed=19)
    n = corpus.num_rows
    root = str(tmp_path / "win")
    dirs = append_windows(
        [(ray.data.from_arrow(corpus.slice(0, n // 2)), "000"),
         (ray.data.from_arrow(corpus.slice(n // 2)), "001")],
        root, CFG,
    )
    assert delete_docs(root, shas=list(sha256_hex(corpus["content"].to_pylist()[:6])), cfg=CFG) > 0

    calls = []
    real = scorer.load_index_state
    monkeypatch.setattr(scorer, "load_index_state", lambda d: calls.append(d) or real(d))
    qt = queries_table(gen_queries(corpus, n_keyword=8, seed=19))
    qds = ray.data.from_arrow([qt.slice(0, 6), qt.slice(6)])  # a block per actor
    one = query_windows(qds, root, CFG, mode="maxscore").to_pandas()
    assert calls == []
    two = query_windows(qds, root, CFG, mode="maxscore", concurrency_per_window=2).to_pandas()
    assert sorted(calls) == sorted(dirs) == sorted(
        os.path.join(root, w) for w in ("window=000", "window=001")
    )

    assert len(one) > 0
    one = one.sort_values(["query_id", "rank"]).reset_index(drop=True)
    two = two.sort_values(["query_id", "rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(two.query_id.to_numpy(), one.query_id.to_numpy())
    np.testing.assert_array_equal(two.doc_id.to_numpy(dtype=np.uint64),
                                  one.doc_id.to_numpy(dtype=np.uint64))
    np.testing.assert_array_equal(two.score.to_numpy(), one.score.to_numpy())
