"""CLI entry points: build / query / validate / bench.

The Ray-Data-native replacement for the reference CLI
(/root/reference/docinsight_cli.py:291-354 — search/validate/embed/
reindex/purge): submit with ``python -m docinsight_ray.cli <cmd>`` (or
``ray job submit -- python -m docinsight_ray.cli ...`` on a cluster).

``validate`` recomputes manifest/invariant checks the way the
reference's validate command checks orphan chunks and coverage
(/root/reference/docinsight_cli.py:209-266): partition manifests
present + committed, postings decode cleanly, df == decoded lengths,
Σ tf == Σ doc_len, sha256 spot-checks against the source table.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import sys


def _analyzer_cfg(index_dir: str, tokenizer_arg: str | None,
                  stats_name: str = "corpus_stats.json"):
    """EngineConfig with the ANALYZER adopted from the index's stats
    file (tokenizer unless --tokenizer was given; stemmer/stopwords
    always) — a query tokenized differently from the index silently
    misses terms. URI-aware via fsio; falls back to defaults when the
    stats file is missing (the per-command existence check still
    reports a clean error)."""
    from .config import EngineConfig
    from .state.fsio import read_bytes

    raw = read_bytes(os.path.join(index_dir, stats_name))
    stats = json.loads(raw) if raw is not None else {}
    return EngineConfig(
        tokenizer=tokenizer_arg or stats.get("tokenizer", "code"),
        stemmer=stats.get("stemmer", "none"),
        stopwords=tuple(stats.get("stopwords", ())),
    )


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        # RAY_ADDRESS decides local vs cluster: unset/"local" starts a
        # local instance (the test/bench default); anything else (e.g.
        # "auto" inside a `ray job submit` driver) CONNECTS to the
        # running cluster — where per-driver num_cpus is not a valid
        # argument, so it is only passed on the local path.
        addr = os.environ.get("RAY_ADDRESS") or "local"
        kwargs = {"num_cpus": num_cpus} if addr == "local" else {}
        if num_cpus is not None and addr != "local":
            print(f"warning: --num-cpus={num_cpus} ignored — RAY_ADDRESS="
                  f"{addr!r} connects to an existing cluster whose CPU "
                  "capacity is fixed by its nodes", file=sys.stderr)
        ray.init(
            address=addr,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
            **kwargs,
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False


def cmd_build(args) -> int:
    _init_ray(args.num_cpus)
    import ray.data

    from .build import build_index
    from .config import EngineConfig

    cfg = EngineConfig(
        tokenizer=args.tokenizer,
        num_buckets=args.num_buckets,
        doc_id_mode=args.doc_id_mode,
        dedup=not args.no_dedup,
        stemmer=args.stemmer,
        stopwords=tuple(args.stopword or ()),
    )
    ds = ray.data.read_parquet(args.corpus)
    res = build_index(ds, args.index_dir, cfg, fingerprint=args.fingerprint or args.corpus)
    print(json.dumps(res.stats, indent=1))
    return 0


def cmd_posbuild(args) -> int:
    _init_ray(args.num_cpus)
    import ray.data

    from .config import EngineConfig
    from .pipelines.positional import build_positional_index

    cfg = EngineConfig(
        tokenizer=args.tokenizer,
        num_buckets=args.num_buckets,
        doc_id_mode=args.doc_id_mode,
        stemmer=args.stemmer,
        stopwords=tuple(args.stopword or ()),
    )
    stats = build_positional_index(
        ray.data.read_parquet(args.corpus), args.pos_dir, cfg,
        fingerprint=args.fingerprint or args.corpus,
    )
    print(json.dumps(stats, indent=1))
    return 0


def cmd_annbuild(args) -> int:
    _init_ray(args.num_cpus)
    import ray.data

    from .pipelines.ann import build_ann_index, build_ivfpq_index

    ds = ray.data.read_parquet(args.embeddings)
    if args.pq_m:
        stats = build_ivfpq_index(
            ds, args.ann_dir, n_centroids=args.n_centroids,
            pq_m=args.pq_m, pq_ks=args.pq_ks, seed=args.seed,
        )
    else:
        stats = build_ann_index(
            ds, args.ann_dir, n_centroids=args.n_centroids, seed=args.seed
        )
    print(json.dumps(stats, indent=1))
    return 0


def cmd_annquery(args) -> int:
    _init_ray(args.num_cpus)
    import numpy as np
    import pyarrow.parquet as pq

    import json as _json
    import os as _os

    from .pipelines.ann import ANN_STATS, AnnIndex, IvfPqIndex
    from .state.fsio import read_bytes

    raw = read_bytes(_os.path.join(args.ann_dir, ANN_STATS))
    if raw is None:
        print(f"error: {args.ann_dir}/{ANN_STATS}: not a built ANN index",
              file=sys.stderr)
        return 2
    kind = _json.loads(raw).get("kind")
    idx = (IvfPqIndex if kind == "ivfpq" else AnnIndex)(args.ann_dir, nprobe=args.nprobe)
    t = pq.read_table(args.queries, columns=["vec_id", "embedding"])
    if args.limit:
        t = t.slice(0, args.limit)
    qids = t["vec_id"].to_numpy(zero_copy_only=False).astype("int64")
    Q = np.stack(t["embedding"].to_numpy(zero_copy_only=False))
    if kind == "ivfpq":
        # ADC candidates; approximate scores (rescore from the source
        # embedding table is a pipeline concern — see ivfpq_search)
        out = idx.candidates(qids, Q, args.k)
    else:
        out = idx.topk(qids, Q, args.k)
    if args.out:
        import pyarrow.parquet as pqw

        pqw.write_table(out, args.out)
        print(json.dumps({"rows": out.num_rows, "out": args.out,
                          "lists_loaded": idx.lists_loaded}))
    else:
        for row in out.to_pylist():
            print(json.dumps(row))
    return 0


def cmd_phrase(args) -> int:
    _init_ray(args.num_cpus)
    from .pipelines.positional import PhraseScorer

    cfg = _analyzer_cfg(args.pos_dir, args.tokenizer, stats_name="pos_stats.json")
    try:
        sc = PhraseScorer(args.pos_dir, cfg)
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if getattr(args, "prefix", False) and args.slop:
        print("error: --prefix does not support --slop (prefix matches are "
              "exact-adjacency)", file=sys.stderr)
        return 2
    for text in args.text:
        if getattr(args, "prefix", False):
            d, c = sc.phrase_prefix_occurrences(text, args.k)
        elif args.slop:
            d, c = sc.proximity_occurrences(text, args.k, slop=args.slop)
        else:
            d, c = sc.phrase_occurrences(text, args.k)
        print(json.dumps({
            "phrase": text, "slop": args.slop,
            "hits": [{"doc_id": int(x), "n_occ": int(y)} for x, y in zip(d, c)],
        }))
    return 0


def cmd_query(args) -> int:
    _init_ray(args.num_cpus)
    from .config import EngineConfig
    from .scorer import BM25Scorer

    if not os.path.exists(os.path.join(args.index_dir, "corpus_stats.json")):
        print(f"error: {args.index_dir!r} is not a built index "
              f"(no corpus_stats.json — run `build` first)", file=sys.stderr)
        return 2
    cfg = _analyzer_cfg(args.index_dir, args.tokenizer)
    synonyms = None
    if getattr(args, "synonyms", None):
        # thesaurus file: JSON object {token: [expansion, ...], ...}
        with open(args.synonyms) as f:
            synonyms = {k: tuple(v) for k, v in json.load(f).items()}
    boosts = None
    if getattr(args, "boost", None):
        try:
            boosts = {t: float(w) for t, _, w in
                      (spec.partition("=") for spec in args.boost)}
        except ValueError:
            print(f"error: --boost expects TERM=WEIGHT, got {args.boost!r}",
                  file=sys.stderr)
            return 2
    try:
        scorer = BM25Scorer(
            args.index_dir, cfg, mode=args.mode,
            exclude_terms=tuple(args.exclude_term or ()),
            min_should_match=getattr(args, "min_should_match", None),
            synonyms=synonyms,
            boosts=boosts,
        )
    except ValueError as e:  # e.g. --min-should-match with a pruning mode
        print(f"error: {e}", file=sys.stderr)
        return 2
    score = {
        "bmw": scorer.score_bmw,
        "maxscore": scorer.score_maxscore,
        "conjunctive": scorer.score_conjunctive,
        "lmdir": scorer.score_lmdir,
        "bm25plus": scorer.score_bm25plus,
    }.get(args.mode, scorer.score_taat)
    if args.explain_doc is not None:
        # Lucene-style per-term breakdown for one (query, doc) pair
        for text in args.text:
            try:
                print(json.dumps(scorer.explain(text, args.explain_doc)))
            except ValueError as e:
                print(f"error: {e}", file=sys.stderr)
                return 2
        return 0
    rows = []
    for qid, text in enumerate(args.text):
        d, s = score(text, args.k)
        print(json.dumps({
            "query": text,
            "hits": [{"doc_id": int(x), "score": round(float(y), 6)} for x, y in zip(d, s)],
        }))
        rows += [(qid, r, int(x), float(y)) for r, (x, y) in enumerate(zip(d, s))]
    if args.out or args.report or args.report_html:
        import pyarrow as pa

        results = pa.table(
            {
                "query_id": pa.array([r[0] for r in rows], type=pa.int64()),
                "rank": pa.array([r[1] for r in rows], type=pa.uint32()),
                "doc_id": pa.array([r[2] for r in rows], type=pa.uint64()),
                "score": pa.array([r[3] for r in rows], type=pa.float64()),
            }
        )
        if args.out:
            # results sink (parquet side of S8)
            import pyarrow.parquet as pq

            os.makedirs(args.out, exist_ok=True)
            pq.write_table(results, os.path.join(args.out, "results.parquet"))
            print(f"wrote {len(rows)} result rows to {args.out}/results.parquet", file=sys.stderr)
        if args.report:
            # per-query JSON report (S8; reference
            # enhanced_pipeline.py:649-672 generate_report_files);
            # --corpus adds content previews per hit
            from .report import write_query_report

            write_query_report(
                results, list(enumerate(args.text)), args.index_dir, args.report,
                corpus_path=args.corpus,
            )
            print(f"wrote JSON report to {args.report}", file=sys.stderr)
        if args.report_html:
            # HTML rendering of the same payload (reference
            # enhanced_pipeline.py:673-721 _generate_html_report)
            from .report import write_html_report

            write_html_report(
                results, list(enumerate(args.text)), args.index_dir, args.report_html,
                corpus_path=args.corpus,
            )
            print(f"wrote HTML report to {args.report_html}", file=sys.stderr)
    return 0


def _validate_positional(args) -> int:
    """Positional-index validator: per-row varbyte decode, strict
    position monotonicity, (term, doc_id) uniqueness, bucket-routing
    agreement; with --corpus, spot-checks that each sampled doc's
    Σnpos equals its token count and max position equals doc_len-1
    (every token position emitted exactly once)."""
    import numpy as np
    import pyarrow.parquet as pq

    from .codec import varbyte_decode
    from .ids import term_bucket
    from .tokenizer import tokenize_text

    idx = args.index_dir
    with open(os.path.join(idx, "pos_stats.json")) as f:
        stats = json.load(f)
    num_buckets = int(stats["num_buckets"])
    problems: list[str] = []
    n_rows = 0
    terms_seen: set[str] = set()
    pair_count = 0
    pair_set: set[tuple[str, int]] = set()
    files = glob.glob(os.path.join(idx, "bucket=*", "*.parquet"))
    if not files:
        problems.append("no bucket=* parquet files")
    doc_npos: dict[int, int] = {}
    doc_maxpos: dict[int, int] = {}
    for fpath in sorted(files):
        b = int(fpath.rsplit("bucket=", 1)[-1].split(os.sep, 1)[0])
        t = pq.read_table(fpath, columns=["term", "doc_id", "npos", "pos_vb"])
        n_rows += t.num_rows
        terms = t["term"].to_pylist()
        docs = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        npos = t["npos"].to_numpy(zero_copy_only=False).astype(np.int64)
        blobs = t["pos_vb"].to_pylist()
        terms_seen.update(terms)
        pair_count += t.num_rows
        pair_set.update(zip(terms, docs.tolist()))
        routed = term_bucket(np.asarray(terms, dtype=object), num_buckets)
        if (routed != b).any():
            problems.append(f"{int((routed != b).sum())} rows mis-bucketed in bucket={b}")
        try:
            deltas = varbyte_decode(b"".join(blobs), int(npos.sum()))
        except ValueError as e:
            problems.append(f"position decode failed in bucket={b}: {e}")
            continue
        starts = np.concatenate(([0], np.cumsum(npos)[:-1]))
        # strictly increasing positions ⇔ every non-first delta ≥ 1
        nonfirst = np.ones(deltas.size, dtype=bool)
        nonfirst[starts] = False
        if (deltas[nonfirst] < 1).any():
            problems.append(f"non-increasing positions in bucket={b}")
        cs = np.cumsum(deltas.astype(np.int64))
        seg_prefix = np.where(starts > 0, cs[starts - 1], 0)
        last = cs[np.cumsum(npos) - 1] - seg_prefix  # final position per row
        for d, n, m in zip(docs.tolist(), npos.tolist(), last.tolist()):
            doc_npos[d] = doc_npos.get(d, 0) + int(n)
            doc_maxpos[d] = max(doc_maxpos.get(d, -1), int(m))
    if pair_count != len(pair_set):
        problems.append(f"{pair_count - len(pair_set)} duplicate (term, doc_id) rows")
    if args.corpus:
        _init_ray(args.num_cpus)
        import ray.data

        from .config import EngineConfig
        from .ids import doc_id_from_key

        cfg = EngineConfig(
            tokenizer=stats.get("tokenizer", "code"),
            stemmer=stats.get("stemmer", "none"),
            stopwords=tuple(stats.get("stopwords", ())),
        )
        sample = ray.data.read_parquet(args.corpus).limit(args.spot_checks).to_pandas()
        for row in sample.itertuples():
            did = int(doc_id_from_key([row.repo], [row.path], [row.commit])[0])
            want = len(tokenize_text(row.content, cfg))
            if doc_npos.get(did, 0) != want:
                problems.append(
                    f"Σnpos {doc_npos.get(did, 0)} != token count {want} for {row.repo}/{row.path}"
                )
            elif want and doc_maxpos.get(did, -1) != want - 1:
                problems.append(
                    f"max position {doc_maxpos.get(did, -1)} != doc_len-1 {want - 1} "
                    f"for {row.repo}/{row.path}"
                )
    report = {
        "pos_dir": idx,
        "n_rows": n_rows,
        "n_terms": len(terms_seen),
        "n_docs": len(doc_npos),
        "problems": problems,
        "ok": not problems,
    }
    print(json.dumps(report, indent=1))
    return 0 if not problems else 1


def cmd_validate(args) -> int:
    import numpy as np
    import pyarrow.parquet as pq

    from .codec import decode_posting

    idx = args.index_dir
    # a positional index (pos_stats.json, no corpus_stats.json) gets
    # its own validator — layout and invariants differ entirely
    if os.path.exists(os.path.join(idx, "pos_stats.json")) and not os.path.exists(
        os.path.join(idx, "corpus_stats.json")
    ):
        return _validate_positional(args)
    # tokenizer artifact dir (tok_stats.json): checksum-verify the vocab
    if os.path.exists(os.path.join(idx, "tok_stats.json")) and not os.path.exists(
        os.path.join(idx, "corpus_stats.json")
    ):
        from .functions.tokenizer_store import load_tokenizer

        try:
            algo, payload = load_tokenizer(idx)
        except (FileNotFoundError, ValueError) as e:
            print(json.dumps({"ok": False, "error": str(e)}))
            return 1
        print(json.dumps({"ok": True, "algo": algo, "n_rows": len(payload)}))
        return 0
    # ANN index root (ann_stats.json): routing/coverage invariants
    if os.path.exists(os.path.join(idx, "ann_stats.json")) and not os.path.exists(
        os.path.join(idx, "corpus_stats.json")
    ):
        from .pipelines.ann import validate_ann_index

        try:
            rep = validate_ann_index(idx)
        except ValueError as e:
            print(json.dumps({"ok": False, "error": str(e)}))
            return 1
        print(json.dumps(rep))
        return 0
    # sharded / windowed ROOT: validate every committed sub-index, plus
    # the cross-sub-index invariants (global stats are sums of locals,
    # every sub-index agrees on the global n_docs/total_len)
    subs = sorted(
        os.path.join(idx, n) for n in (os.listdir(idx) if os.path.isdir(idx) else [])
        if (n.startswith("shard=") or n.startswith("window="))
        and os.path.exists(os.path.join(idx, n, "corpus_stats.json"))
    )
    if subs and not os.path.exists(os.path.join(idx, "corpus_stats.json")):
        import copy

        reports = []
        rc = 0
        for d in subs:
            sub_args = copy.copy(args)
            sub_args.index_dir = d
            sub_args.corpus = None  # sha spot-checks only make sense per-corpus
            rc |= cmd_validate(sub_args)
        root_problems: list[str] = []
        stats = [json.load(open(os.path.join(d, "corpus_stats.json"))) for d in subs]
        if len({s["n_docs"] for s in stats}) != 1:
            root_problems.append("sub-indexes disagree on global n_docs")
        if len({s["total_len"] for s in stats}) != 1:
            root_problems.append("sub-indexes disagree on global total_len")
        n_sum = sum(s.get("shard_n_docs", s["n_docs"]) for s in stats)
        l_sum = sum(s.get("shard_total_len", s["total_len"]) for s in stats)
        if n_sum != stats[0]["n_docs"]:
            root_problems.append(f"Σ shard_n_docs {n_sum} != global n_docs {stats[0]['n_docs']}")
        if l_sum != stats[0]["total_len"]:
            root_problems.append(f"Σ shard_total_len {l_sum} != global total_len {stats[0]['total_len']}")
        # single line: the root summary is the machine-readable tail of
        # the output (sub-index reports above are pretty-printed)
        print(json.dumps({
            "index_root": idx, "n_sub_indexes": len(subs),
            "problems": root_problems, "ok": rc == 0 and not root_problems,
        }))
        return 1 if (rc or root_problems) else 0

    problems: list[str] = []
    man_dir = os.path.join(idx, "manifest")
    manifests = glob.glob(os.path.join(man_dir, "*.json"))
    if not os.path.exists(os.path.join(man_dir, "_SUCCESS.json")):
        problems.append("no _SUCCESS manifest")
    n_uncommitted = 0
    for m in manifests:
        with open(m) as f:
            rec = json.load(f)
        if rec.get("status") != "committed":
            n_uncommitted += 1
    if n_uncommitted:
        problems.append(f"{n_uncommitted} uncommitted manifests")

    with open(os.path.join(idx, "corpus_stats.json")) as f:
        stats = json.load(f)
    # cross-environment routing check: a term-hash canary mismatch means
    # every term lookup on this host would miss — report it as a problem
    # (the scorer would refuse loudly; validate should say WHY up front)
    from .ids import check_term_hash_canary

    try:
        check_term_hash_canary(stats, "validate")
    except RuntimeError as e:
        problems.append(str(e))
    docs = pq.ParquetDataset(os.path.join(idx, "docs")).read(columns=["doc_id", "doc_len"])
    total_tf = 0
    n_terms = 0
    for fpath in glob.glob(os.path.join(idx, "parts", "**", "*.parquet"), recursive=True):
        t = pq.read_table(fpath)
        n_terms += t.num_rows
        for term, df, dvb, tvb in zip(
            t["term"].to_pylist(), t["df"].to_pylist(),
            t["doc_ids_vb"].to_pylist(), t["tfs_vb"].to_pylist(),
        ):
            try:
                d, f = decode_posting(dvb, tvb, df)
            except ValueError as e:
                # corruption must be REPORTED, not crash the validator
                problems.append(f"posting decode failed for {term!r}: {e}")
                continue
            if d.size > 1 and not (d[1:] > d[:-1]).all():
                problems.append("non-increasing doc_ids in a posting")
            total_tf += int(f.sum())
    # sharded/windowed sub-indexes carry corpus-WIDE totals in total_len
    # (distribute_global_stats) — validate against the sub-index's local
    # total, preserved as shard_total_len
    local_total = stats.get("shard_total_len", stats["total_len"])
    if total_tf != local_total:
        problems.append(f"Σtf {total_tf} != total_len {local_total}")

    # term_dict sidecar (when present): globally sorted, one row per
    # term, df totals equal the postings partitions'
    td_files = sorted(glob.glob(os.path.join(idx, "term_dict", "**", "*.parquet"), recursive=True))
    if td_files:
        import pyarrow as pa

        td = pa.concat_tables([pq.read_table(f, columns=["term", "df"]) for f in td_files])
        td_terms = td["term"].to_pylist()
        if td.num_rows != n_terms:
            problems.append(f"term_dict rows {td.num_rows} != postings terms {n_terms}")
        if td_terms != sorted(td_terms):
            problems.append("term_dict not globally sorted")
        parts_df_sum = 0
        for fpath in glob.glob(os.path.join(idx, "parts", "**", "*.parquet"), recursive=True):
            parts_df_sum += sum(pq.read_table(fpath, columns=["df"])["df"].to_pylist())
        td_df_sum = sum(td["df"].to_pylist())
        if td_df_sum != parts_df_sum:
            problems.append(f"term_dict Σdf {td_df_sum} != parts Σdf {parts_df_sum}")

    if args.corpus:
        _init_ray(args.num_cpus)
        import ray.data

        sample = ray.data.read_parquet(args.corpus).limit(args.spot_checks).to_pandas()
        docs_full = pq.ParquetDataset(os.path.join(idx, "docs")).read().to_pandas()
        by_key = {
            (r, p, c): s
            for r, p, c, s in zip(docs_full["repo"], docs_full["path"], docs_full["commit"], docs_full["content_sha256"])
        }
        for row in sample.itertuples():
            want = hashlib.sha256(row.content.encode()).hexdigest()
            got = by_key.get((row.repo, row.path, row.commit))
            if got != want:
                problems.append(f"sha256 mismatch for {row.repo}/{row.path}")

    report = {
        "index_dir": idx,
        "n_manifests": len(manifests),
        "n_terms": n_terms,
        "n_docs": stats["n_docs"],
        "total_len": stats["total_len"],
        "problems": problems,
        "ok": not problems,
    }
    print(json.dumps(report, indent=1))
    return 0 if not problems else 1


def cmd_stats(args) -> int:
    """One-look index inspection (no Ray session): corpus stats, build
    stage metrics, postings/docs on-disk sizes, partition and hot-term
    counts — the `_cat/indices`-style summary for any index dir."""
    from .state.fsio import glob_parquet, read_bytes

    idx = args.index_dir
    raw = read_bytes(os.path.join(idx, "corpus_stats.json"))
    if raw is None:
        print(f"error: {idx!r} is not a built index (no corpus_stats.json)",
              file=sys.stderr)
        return 2
    stats = json.loads(raw)

    def _tree_bytes(sub: str) -> tuple[int, int]:
        files = glob_parquet(os.path.join(idx, sub))
        total = 0
        for f in files:
            try:
                total += os.path.getsize(f)
            except OSError:  # URI paths: size via read is wasteful; skip
                return len(files), -1
        return len(files), total

    n_parts, parts_bytes = _tree_bytes("parts")
    n_docs_files, docs_bytes = _tree_bytes("docs")
    out = {
        "n_docs": stats.get("n_docs"),
        "total_len": stats.get("total_len"),
        "avgdl": stats.get("avgdl"),
        "n_dup_losers": stats.get("n_dup_losers"),
        "tokenizer": stats.get("tokenizer"),
        "stemmer": stats.get("stemmer"),
        "num_buckets": stats.get("num_buckets"),
        "hot_terms": len(stats.get("hot_terms", [])),
        "fingerprint": stats.get("fingerprint"),
        "postings_files": n_parts,
        "postings_bytes": parts_bytes,
        "docs_files": n_docs_files,
        "docs_bytes": docs_bytes,
        "stages": stats.get("stages"),
    }
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def cmd_append(args) -> int:
    """Append one or more corpus windows to a windowed index root
    (pipelines/incremental.py) — N corpora pay ONE global-stats
    redistribution (append_windows). The analyzer is adopted from the
    existing windows unless --tokenizer overrides; window ids default
    to the next free zero-padded integers."""
    _init_ray(args.num_cpus)
    import ray.data

    from .pipelines.incremental import (
        _window_dirs,
        _window_stats,
        append_windows,
    )

    cfg = None
    for d in _window_dirs(args.index_root):
        if _window_stats(d) is not None:
            cfg = _analyzer_cfg(d, args.tokenizer)
            break
    if cfg is None:  # first window of a fresh root
        from .config import EngineConfig

        cfg = EngineConfig(tokenizer=args.tokenizer or "code")
    if args.window_id and len(args.corpus) > 1:
        print("error: --window-id needs exactly one corpus (ids are "
              "auto-assigned for multi-corpus appends)", file=sys.stderr)
        return 2
    existing = {
        os.path.basename(d.rstrip("/")).split("=", 1)[1]
        for d in _window_dirs(args.index_root)
    }
    if args.window_id and args.window_id in existing:
        # Window fingerprints are id-based ('window:<id>'), so an
        # append onto a committed id would silently RESUME the old
        # window (manifest match) and never index the new corpus.
        if not args.overwrite:
            print(f"error: window id {args.window_id!r} already committed "
                  f"under {args.index_root} (pass --overwrite to replace it)",
                  file=sys.stderr)
            return 2
        import shutil

        shutil.rmtree(os.path.join(args.index_root, f"window={args.window_id}"))
    ids: list[str] = []
    if args.window_id:
        ids = [args.window_id]
    else:
        i = 0
        while len(ids) < len(args.corpus):
            cand = f"{i:03d}"
            if cand not in existing:
                ids.append(cand)
                existing.add(cand)
            i += 1
    windows = [
        # corpus_factory lets the dedup stage re-read the window through
        # the Bloom shuffle-bypass tier when the seen-sha set is large
        (ray.data.read_parquet(c), wid, (lambda c=c: ray.data.read_parquet(c)))
        for c, wid in zip(args.corpus, ids)
    ]
    live = append_windows(windows, args.index_root, cfg)
    print(json.dumps({
        "appended": ids,
        "live_windows": sorted(os.path.basename(d.rstrip("/")) for d in live),
    }))
    return 0


def cmd_compact(args) -> int:
    """Merge committed window sub-indexes into one (crash-safe segment
    compaction; pipelines/incremental.py:compact_windows)."""
    _init_ray(args.num_cpus)
    from .pipelines.incremental import (
        _window_dirs,
        _window_stats,
        compact_windows,
        plan_compaction,
    )

    # the compacted rebuild must run under the ANALYZER the windows
    # were built with (else the new corpus_stats would claim the
    # default analyzer and query-side adoption would mis-tokenize) —
    # adopt from the first committed window
    cfg = None
    for d in _window_dirs(args.index_root):
        if _window_stats(d) is not None:
            cfg = _analyzer_cfg(d, args.tokenizer)
            break
    if cfg is None:
        print(f"error: no committed windows under {args.index_root!r}",
              file=sys.stderr)
        return 2
    windows = args.windows or None
    if args.policy:
        if windows:
            print("error: --policy and --windows are mutually exclusive "
                  "(the policy picks the window set)", file=sys.stderr)
            return 2
        plan = plan_compaction(
            args.index_root, max_windows=args.max_windows,
            tier_factor=args.tier_factor,
        )
        if not plan:
            print(json.dumps({"plan": [], "compacted_to": None}))
            return 0
        windows = plan
    out = compact_windows(
        args.index_root,
        window_ids=windows,
        out_window_id=args.out_id,
        cfg=cfg,
        delete_sources=not args.keep_sources,
    )
    print(json.dumps({"plan": windows, "compacted_to": out}
                     if args.policy else {"compacted_to": out}))
    return 0


def cmd_delete(args) -> int:
    """Tombstone documents in a windowed index by content sha256 or
    doc_id (Lucene-style deletes: excluded from every query
    immediately, removed physically at the next compaction;
    pipelines/incremental.py:delete_docs). The operational analogue of
    the reference's cascading purge
    (/root/reference/docinsight_cli.py:184-207), without a rebuild."""
    _init_ray(args.num_cpus)
    from .pipelines.incremental import delete_docs

    n = delete_docs(
        args.index_root,
        doc_ids=[int(d) for d in args.doc_ids] or None,
        shas=args.shas or None,
    )
    print(json.dumps({"tombstoned": n}))
    return 0


def cmd_purge(args) -> int:
    """GC an index directory: staging leftovers, interrupted-write tmp
    files, stale-fingerprint manifests; ``--all`` cascades to a full
    delete (reference cmd_purge analogue,
    /root/reference/docinsight_cli.py:184-207). No Ray session needed."""
    from .state.gc import purge

    if args.all and not args.yes and not args.dry_run:
        print("error: --all deletes the whole index dir; pass --yes to confirm",
              file=sys.stderr)
        return 2
    report = purge(args.index_dir, remove_all=args.all, dry_run=args.dry_run)
    print(json.dumps(report, indent=1))
    return 0


def cmd_snapshot(args) -> int:
    """Snapshot an index tree into a repository dir/URI (per-file
    sha256 manifest written last); ``--verify`` re-hashes after the
    copy. No Ray session needed."""
    from .state.snapshot import snapshot_index, verify_snapshot

    m = snapshot_index(args.index_dir, args.dest, incremental=not args.full)
    out = {"ok": True, "n_files": m["n_files"],
           "n_skipped_unchanged": m["n_skipped_unchanged"],
           "fingerprint": m["fingerprint"]}
    if args.verify:
        v = verify_snapshot(args.dest)
        out["verified"] = v["ok"]
        if not v["ok"]:
            print(json.dumps({**out, **v}, indent=1), file=sys.stderr)
            return 1
    print(json.dumps(out, indent=1))
    return 0


def cmd_restore(args) -> int:
    """Verified restore of a snapshot repository into an index path —
    every file is hash-checked against SNAPSHOT.json before promotion;
    a corrupt repository aborts with the offending file named."""
    from .state.snapshot import restore_index

    try:
        out = restore_index(args.snapshot, args.dest)
    except (IOError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out, indent=1))
    return 0


def cmd_run(args) -> int:
    """Run ANY registered pipeline op from the contract registry over a
    table directory — the operational front door to the full operator
    surface (dedup, sampling, sketches, retrieval gates, ...)."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, repo_root)
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    if args.list or args.op is None:
        for name in sorted(qs):
            print(name)
        return 0
    if args.op not in qs:
        print(f"unknown op {args.op!r}; `run --list` prints the registry", file=sys.stderr)
        return 2
    _init_ray(args.num_cpus)
    res = qs[args.op](args.sf_dir)
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pa.Table):
        tbl = res
    elif isinstance(res, pd.DataFrame):
        tbl = pa.Table.from_pandas(res, preserve_index=False)
    else:  # a ray.data.Dataset
        tbl = pa.Table.from_pandas(res.to_pandas(), preserve_index=False)
    if args.out:
        import pyarrow.parquet as pq

        pq.write_table(tbl, args.out)
        print(json.dumps({"op": args.op, "rows": tbl.num_rows, "out": args.out}))
    else:
        print(tbl.to_pandas().head(args.head).to_string(index=False))
        print(json.dumps({"op": args.op, "rows": tbl.num_rows}))
    return 0


def cmd_search(args) -> int:
    """Structured query: terms, -negations, col:value filters and
    "quoted phrases" in one string (querylang grammar)."""
    _init_ray(args.num_cpus)
    from .querylang import structured_search

    cfg = _analyzer_cfg(args.index_dir, args.tokenizer)
    synonyms = None
    if getattr(args, "synonyms", None):
        with open(args.synonyms) as f:
            synonyms = {k: tuple(v) for k, v in json.load(f).items()}
    try:
        d, s = structured_search(
            args.query, args.index_dir, cfg,
            k=args.k, mode=args.mode, pos_dir=args.pos_dir,
            min_should_match=getattr(args, "min_should_match", None),
            synonyms=synonyms,
        )
    except (ValueError, FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({
        "query": args.query,
        "hits": [{"doc_id": int(x), "score": round(float(y), 6)} for x, y in zip(d, s)],
    }))
    return 0


def cmd_suggest(args) -> int:
    """Autocomplete: top-n vocabulary completions of a prefix, ranked
    by document frequency (pure index-side column scan). With
    --pos-dir, the argument is a PHRASE whose last word is the prefix
    and completions rank by completed-phrase occurrence count
    (search_as_you_type)."""
    try:
        if getattr(args, "pos_dir", None):
            from .pipelines.positional import PhraseScorer

            cfg = _analyzer_cfg(args.pos_dir, None, stats_name="pos_stats.json")
            out = PhraseScorer(args.pos_dir, cfg).phrase_prefix_completions(
                args.prefix, n=args.n
            )
            key = "n_occ"
        else:
            from .scorer import suggest_terms

            out = suggest_terms(args.index_dir, args.prefix, n=args.n)
            key = "df"
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({
        "prefix": args.prefix,
        "suggestions": [{"term": t, key: c} for t, c in out],
    }))
    return 0


def cmd_spell(args) -> int:
    """Did-you-mean: best vocabulary correction per query token
    (edit distance ≤ --max-dist, Lucene DirectSpellChecker ranking)."""
    from .scorer import spell_suggest
    from .tokenizer import tokenize_text

    cfg = _analyzer_cfg(args.index_dir, args.tokenizer)
    out = []
    try:
        for tok in tokenize_text(args.text, cfg):
            best = spell_suggest(args.index_dir, tok, args.max_dist)
            if best is not None:
                out.append({
                    "token": tok, "suggestion": best[0],
                    "dist": best[1], "df": best[2],
                })
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"text": args.text, "corrections": out}))
    return 0


def cmd_tokbuild(args) -> int:
    """Train a subword tokenizer (BPE or unigram-LM) over a documents
    table and persist the artifact (vocab.parquet + verified stats
    sidecar; functions/tokenizer_store.py)."""
    _init_ray(args.num_cpus)
    from .functions.tokenizer_store import save_tokenizer

    try:
        stats = save_tokenizer(args.sf_dir, args.out_dir, algo=args.algo,
                               fingerprint=args.fingerprint)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"out_dir": args.out_dir, **stats}))
    return 0


def cmd_merge(args) -> int:
    """Merge N committed indexes into one standalone index (Lucene
    addIndexes shape; pipelines/merge.py). Flags mirror `build`: the
    config must match what the sources were built with (checked via
    config_hash)."""
    _init_ray(args.num_cpus)
    from .config import EngineConfig
    from .pipelines.merge import merge_indexes

    cfg = EngineConfig(
        tokenizer=args.tokenizer,
        num_buckets=args.num_buckets,
        doc_id_mode=args.doc_id_mode,
        dedup=not args.no_dedup,
        stemmer=args.stemmer,
        stopwords=tuple(args.stopword or ()),
    )
    try:
        res = merge_indexes(args.sources, args.out_dir, cfg)
    except (FileNotFoundError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps({
        "out_dir": args.out_dir, "sources": args.sources,
        "n_docs": res.n_docs, "total_len": res.total_len,
        "n_dup_losers": res.n_dup_losers,
    }))
    return 0


def cmd_reindex(args) -> int:
    """Rebuild from the source lake into a new dir, verify the content
    digest vs the old index, optionally swap the serving alias — the
    reference's ``reindex`` (force_rebuild=True,
    /root/reference/docinsight_cli.py:87-106) as a zero-downtime
    lifecycle: the old index serves until the verified swap."""
    _init_ray(args.num_cpus)
    import ray.data

    from .config import EngineConfig
    from .pipelines.reindex import reindex

    cfg = EngineConfig(
        tokenizer=args.tokenizer,
        num_buckets=args.num_buckets,
        doc_id_mode=args.doc_id_mode,
        dedup=not args.no_dedup,
    )
    ds = ray.data.read_parquet(args.corpus)
    out = reindex(
        ds, args.old_index, args.new_index, cfg,
        fingerprint=args.fingerprint or args.corpus,
        alias_dir=args.alias,
    )
    print(json.dumps(out, indent=1))
    return 0 if out["verified"] else 1


def cmd_alias(args) -> int:
    """Show or atomically set a serving alias."""
    from .pipelines.reindex import get_alias, set_alias

    if args.index_dir is None:
        target = get_alias(args.alias_dir)
        if target is None:
            print(f"{args.alias_dir}: not an alias", file=sys.stderr)
            return 1
        print(json.dumps({"alias": args.alias_dir, "index_dir": target}))
        return 0
    prev = set_alias(args.alias_dir, args.index_dir)
    print(json.dumps({"alias": args.alias_dir, "index_dir": args.index_dir,
                      "previous": prev}))
    return 0


def cmd_bench(args) -> int:
    os.environ.setdefault("RAY_GRAFT_CPUS", str(args.num_cpus or 32))
    sys.argv = ["bench.py"] + (["--scaling"] if args.scaling else [])
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, repo_root)
    import bench

    bench.main()
    return 0


def main(argv=None) -> int:
    from .scorer import MODES

    p = argparse.ArgumentParser(prog="docinsight_ray", description=__doc__)
    p.add_argument("--num-cpus", type=int, default=None)
    # also accepted after the subcommand (common first-use stumble)
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS: don't let the subparser's default overwrite a value
    # already parsed at the top level
    common.add_argument("--num-cpus", type=int, default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", parents=[common],
                       help="build index from a corpus parquet path")
    b.add_argument("corpus")
    b.add_argument("index_dir")
    b.add_argument("--tokenizer", default="code", choices=["code", "simple"])
    b.add_argument("--num-buckets", type=int, default=32)
    b.add_argument("--doc-id-mode", default="hash", choices=["hash", "column"])
    b.add_argument("--no-dedup", action="store_true")
    b.add_argument("--stemmer", default="none", choices=["none", "s"],
                   help="analyzer stemming stage (Harman S-stemmer); "
                        "query with the same --stemmer")
    b.add_argument("--stopword", action="append", default=None,
                   help="analyzer stopword (repeatable); query with the "
                        "same --stopword set")
    b.add_argument("--fingerprint", default="")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", parents=[common], help="run BM25 queries against an index")
    q.add_argument("index_dir")
    q.add_argument("text", nargs="+")
    q.add_argument("-k", type=int, default=10)
    q.add_argument("--mode", default="taat", choices=MODES)
    q.add_argument("--tokenizer", default=None, choices=["code", "simple"],
                   help="default: the index's build-time tokenizer")
    q.add_argument("--exclude-term", action="append", default=None,
                   help="boolean NOT: drop every doc containing this term "
                        "(repeatable; unknown terms are no-ops)")
    q.add_argument("--min-should-match", type=int, default=None,
                   help="keep only docs matching >= M distinct query terms "
                        "(Elasticsearch minimum_should_match; taat mode only)")
    q.add_argument("--synonyms", default=None,
                   help="JSON thesaurus file {token: [expansion, ...]} applied "
                        "at query time")
    q.add_argument("--boost", action="append", default=None, metavar="TERM=W",
                   help="per-term score multiplier (Lucene term^W; repeatable; "
                        "taat/maxscore/conjunctive only)")
    q.add_argument("--out", default=None, help="directory to write results.parquet")
    q.add_argument("--report", default=None, help="path to write a per-query JSON report")
    q.add_argument("--report-html", default=None,
                   help="path to write an HTML rendering of the report")
    q.add_argument("--explain-doc", type=int, default=None,
                   help="print the per-term BM25 breakdown for this doc_id instead of ranking")
    q.add_argument("--corpus", default=None,
                   help="source corpus parquet for content previews in --report")
    q.set_defaults(fn=cmd_query)

    v = sub.add_parser("validate", parents=[common], help="check index invariants + manifests")
    v.add_argument("index_dir")
    v.add_argument("--corpus", default=None, help="source corpus for sha256 spot checks")
    v.add_argument("--spot-checks", type=int, default=50)
    v.set_defaults(fn=cmd_validate)

    st = sub.add_parser("stats", parents=[common],
                        help="print index summary (stats, stage metrics, sizes)")
    st.add_argument("index_dir")
    st.set_defaults(fn=cmd_stats)

    ap = sub.add_parser("append", parents=[common],
                        help="append corpus window(s) to a windowed index root "
                             "(one global-stats refresh for the whole batch)")
    ap.add_argument("index_root")
    ap.add_argument("corpus", nargs="+",
                    help="corpus parquet path(s), one window each")
    ap.add_argument("--window-id", default=None,
                    help="window id (single corpus only; default: next "
                         "free zero-padded integer)")
    ap.add_argument("--overwrite", action="store_true",
                    help="allow --window-id to replace an existing "
                         "committed window (destructive)")
    # default=None: adopt the existing windows' build-time tokenizer
    ap.add_argument("--tokenizer", default=None, choices=["code", "simple"])
    ap.set_defaults(fn=cmd_append)

    c = sub.add_parser("compact", parents=[common],
                       help="merge window=* sub-indexes into one (segment compaction)")
    c.add_argument("index_root")
    c.add_argument("--windows", nargs="*", default=None,
                   help="window ids to merge (default: all live windows)")
    c.add_argument("--out-id", default=None, help="id for the compacted window")
    c.add_argument("--keep-sources", action="store_true",
                   help="leave source windows on disk (query-excluded by marker)")
    c.add_argument("--policy", action="store_true",
                   help="tiered merge policy: pick the smallest windows so "
                        "fan-out drops to --max-windows (Lucene "
                        "TieredMergePolicy shape); no-op when already under")
    c.add_argument("--max-windows", type=int, default=4)
    c.add_argument("--tier-factor", type=float, default=4.0)
    # default=None: adopt the windows' build-time tokenizer (a "code"
    # default would silently override a simple-tokenized window set and
    # record the wrong analyzer in the compacted corpus_stats)
    c.add_argument("--tokenizer", default=None, choices=["code", "simple"])
    c.set_defaults(fn=cmd_compact)

    dl = sub.add_parser("delete", parents=[common],
                        help="tombstone docs in a windowed index (applied at compaction)")
    dl.add_argument("index_root")
    dl.add_argument("--sha", dest="shas", action="append", default=[],
                    help="content sha256 to delete (repeatable)")
    dl.add_argument("--doc-id", dest="doc_ids", action="append", default=[],
                    help="doc_id to delete (repeatable)")
    dl.set_defaults(fn=cmd_delete)

    g = sub.add_parser("purge", parents=[common],
                       help="GC staging leftovers / stale manifests from an index dir")
    g.add_argument("index_dir")
    g.add_argument("--all", action="store_true",
                   help="cascading delete of the whole index dir (needs --yes)")
    g.add_argument("--yes", action="store_true", help="confirm --all")
    g.add_argument("--dry-run", action="store_true",
                   help="report what would be removed without removing")
    g.set_defaults(fn=cmd_purge)

    sn = sub.add_parser("snapshot", parents=[common],
                        help="copy an index tree into a snapshot repository (path or URI)")
    sn.add_argument("index_dir")
    sn.add_argument("dest")
    sn.add_argument("--verify", action="store_true",
                    help="re-hash the repository after the copy")
    sn.add_argument("--full", action="store_true",
                    help="force a full copy (default: incremental — "
                         "files unchanged since the repo's last "
                         "snapshot are not re-uploaded)")
    sn.set_defaults(fn=cmd_snapshot)

    rs = sub.add_parser("restore", parents=[common],
                        help="verified restore of a snapshot into an index path")
    rs.add_argument("snapshot")
    rs.add_argument("dest")
    rs.set_defaults(fn=cmd_restore)

    pb = sub.add_parser("posbuild", parents=[common],
                        help="build a positional index from a corpus parquet path")
    pb.add_argument("corpus")
    pb.add_argument("pos_dir")
    pb.add_argument("--tokenizer", default="code", choices=["code", "simple"])
    pb.add_argument("--num-buckets", type=int, default=32)
    pb.add_argument("--doc-id-mode", default="hash", choices=["hash", "column"])
    pb.add_argument("--stemmer", default="none", choices=["none", "s"])
    pb.add_argument("--stopword", action="append", default=None)
    pb.add_argument("--fingerprint", default="")
    pb.set_defaults(fn=cmd_posbuild)

    ab = sub.add_parser("annbuild", parents=[common],
                        help="build a persisted IVF ANN index from an embeddings parquet")
    ab.add_argument("embeddings")
    ab.add_argument("ann_dir")
    ab.add_argument("--n-centroids", type=int, default=8)
    ab.add_argument("--seed", type=int, default=42)
    ab.add_argument("--pq-m", type=int, default=0,
                    help="store pq_m-byte PQ codes instead of vectors (IVF-PQ)")
    ab.add_argument("--pq-ks", type=int, default=32,
                    help="codewords per PQ subspace (≤256)")
    ab.set_defaults(fn=cmd_annbuild)

    aq = sub.add_parser("annquery", parents=[common],
                        help="cosine top-k from a persisted ANN index")
    aq.add_argument("ann_dir")
    aq.add_argument("queries", help="parquet with (vec_id, embedding) query rows")
    aq.add_argument("-k", type=int, default=10)
    aq.add_argument("--nprobe", type=int, default=4)
    aq.add_argument("--limit", type=int, default=0, help="use only the first N query rows")
    aq.add_argument("--out", help="write result parquet here instead of printing")
    aq.set_defaults(fn=cmd_annquery)

    ph = sub.add_parser("phrase", parents=[common],
                        help="phrase / proximity search against a positional index")
    ph.add_argument("pos_dir")
    ph.add_argument("text", nargs="+")
    ph.add_argument("-k", type=int, default=10)
    ph.add_argument("--slop", type=int, default=0,
                    help="max extra tokens allowed in each gap (0 = exact phrase)")
    ph.add_argument("--prefix", action="store_true",
                    help="match_phrase_prefix: the LAST word is a term prefix "
                         "(autocomplete-as-you-type)")
    ph.add_argument("--tokenizer", default=None, choices=["code", "simple"])
    ph.set_defaults(fn=cmd_phrase)

    r = sub.add_parser("run", parents=[common],
                       help="run any registered pipeline op over a table dir")
    r.add_argument("op", nargs="?", help="op name from the registry (see --list)")
    r.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.001",
                   help="directory holding the parquet tables")
    r.add_argument("--out", help="write result parquet here instead of printing")
    r.add_argument("--head", type=int, default=20, help="rows to print without --out")
    r.add_argument("--list", action="store_true", help="print the op registry and exit")
    r.set_defaults(fn=cmd_run)

    se = sub.add_parser("search", parents=[common],
                        help='structured query: terms -neg col:v1,v2 "phrase"')
    se.add_argument("index_dir")
    se.add_argument("query")
    se.add_argument("-k", type=int, default=10)
    se.add_argument("--mode", default="maxscore",
                    choices=["taat", "maxscore", "bmw", "conjunctive"])
    se.add_argument("--tokenizer", default=None, choices=["code", "simple"])
    se.add_argument("--pos-dir", default=None,
                    help="positional index dir (required for phrase constraints)")
    se.add_argument("--min-should-match", type=int, default=None,
                    help="keep only docs matching >= M distinct positive terms")
    se.add_argument("--synonyms", default=None,
                    help="JSON thesaurus file {token: [expansion, ...]}")
    se.set_defaults(fn=cmd_search)

    be = sub.add_parser("bench", parents=[common], help="run the bench suite")
    be.add_argument("--scaling", action="store_true")
    be.set_defaults(fn=cmd_bench)

    sg = sub.add_parser("suggest", parents=[common],
                        help="autocomplete a prefix from the index vocabulary")
    sg.add_argument("index_dir")
    sg.add_argument("prefix",
                    help="prefix, or with --pos-dir a phrase whose last word "
                         "is the prefix (context-aware completion)")
    sg.add_argument("-n", type=int, default=5)
    sg.add_argument("--pos-dir", default=None,
                    help="positional index: rank completions by completed-"
                         "phrase occurrence count (search_as_you_type)")
    sg.set_defaults(fn=cmd_suggest)

    sp = sub.add_parser("spell", parents=[common],
                        help="did-you-mean corrections for query tokens")
    sp.add_argument("index_dir")
    sp.add_argument("text")
    sp.add_argument("--max-dist", type=int, default=2)
    sp.add_argument("--tokenizer", default=None, choices=["code", "simple"])
    sp.set_defaults(fn=cmd_spell)

    tb = sub.add_parser("tokbuild", parents=[common],
                        help="train + persist a subword tokenizer (BPE/unigram)")
    tb.add_argument("sf_dir", help="directory containing documents.parquet")
    tb.add_argument("out_dir")
    tb.add_argument("--algo", default="bpe", choices=["bpe", "unigram"])
    tb.add_argument("--fingerprint", default="")
    tb.set_defaults(fn=cmd_tokbuild)

    mg = sub.add_parser("merge", parents=[common],
                        help="merge N committed indexes into one standalone index")
    mg.add_argument("out_dir")
    mg.add_argument("sources", nargs="+")
    mg.add_argument("--tokenizer", default="code", choices=["code", "simple"])
    mg.add_argument("--num-buckets", type=int, default=32)
    mg.add_argument("--doc-id-mode", default="hash", choices=["hash", "column"])
    mg.add_argument("--no-dedup", action="store_true")
    mg.add_argument("--stemmer", default="none", choices=["none", "s"])
    mg.add_argument("--stopword", action="append", default=None)
    mg.set_defaults(fn=cmd_merge)

    ri = sub.add_parser("reindex", parents=[common],
                        help="rebuild into a new dir, verify content digest, swap alias")
    ri.add_argument("corpus")
    ri.add_argument("old_index")
    ri.add_argument("new_index")
    ri.add_argument("--alias", default=None,
                    help="serving alias dir to cut over on verified success")
    ri.add_argument("--tokenizer", default="code", choices=["code", "simple"])
    ri.add_argument("--num-buckets", type=int, default=32)
    ri.add_argument("--doc-id-mode", default="hash", choices=["hash", "column"])
    ri.add_argument("--no-dedup", action="store_true")
    ri.add_argument("--fingerprint", default="")
    ri.set_defaults(fn=cmd_reindex)

    al = sub.add_parser("alias", parents=[common],
                        help="show or set a serving alias (atomic cutover)")
    al.add_argument("alias_dir")
    al.add_argument("index_dir", nargs="?", default=None)
    al.set_defaults(fn=cmd_alias)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
