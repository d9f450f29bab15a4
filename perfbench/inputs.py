"""Seeded inputs: a synthetic source-code corpus and a query stream.

Kept apart from ``docinsight_ray.fixtures`` on purpose, so that an edit to
the program's own fixtures cannot change what the benchmark measures. The
make-up follows the same recipe:

- identifiers drawn Zipf(alpha=1.1) from a 20k vocabulary in camelCase,
  snake_case, SCREAMING_CASE and PascalCase-with-digits shapes;
- Java-like keywords ("public", "class", "static", ...) in more than half
  of the files, so hot-term salting engages;
- 1% exact duplicates of earlier files under distinct (repo, path, commit);
- about 2% long files (200-400 lines);
- a query stream in the mix of the engine's own ``bench.py`` (7 whole-file
  queries and 400 keyword queries from ``docinsight_ray.fixtures.gen_queries``,
  3 of them hot-words-only): whole-file queries are 7/407 of the stream and
  come from files as long as the fixtures' case originals (20 + 3k lines,
  k = 1..7), each with a quarter of its identifiers renamed, as in the
  fixtures' level-4 plagiarism variant; keyword queries are 2-5 Zipf
  identifiers, 30% of them with a keyword appended.

The same (n_docs, seed) gives byte-identical tables on every run.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

VOCAB_SIZE = 20_000
ZIPF_ALPHA = 1.1
HOT_WORDS = ("public", "static", "return", "class", "void", "new", "final", "import")
_ROOTS = (
    "get", "set", "load", "store", "parse", "emit", "scan", "merge", "split",
    "index", "query", "token", "score", "block", "node", "tree", "hash", "file",
    "buffer", "stream", "count", "value", "item", "cache", "batch", "shard",
)
_ONSETS = "bdfghklmnprstvwz"
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ou", "ie")


def _atom(i: int) -> str:
    """A unique lowercase pronounceable word for ``i``: it survives
    identifier splitting whole, so split vocabulary size tracks the
    identifier vocabulary."""
    n = len(_ONSETS) * len(_NUCLEI)
    s = ""
    while True:
        s += _ONSETS[(i % n) // len(_NUCLEI)] + _NUCLEI[i % len(_NUCLEI)]
        i //= n
        if not i:
            return s + "x"


def vocabulary(size: int = VOCAB_SIZE) -> np.ndarray:
    out = []
    for i in range(size):
        a, b = _atom(2 * i), _atom(2 * i + 1)
        root = _ROOTS[i % len(_ROOTS)]
        shape = i % 4
        if shape == 0:
            out.append(a + root.capitalize() + b.capitalize())
        elif shape == 1:
            out.append(f"{a}_{root}_{b}")
        elif shape == 2:
            out.append(f"{a.upper()}_{b.upper()}{i % 37}")
        else:
            out.append(f"{a.capitalize()}{i % 83}{b.capitalize()}")
    return np.asarray(out, dtype=object)


def _zipf(size: int) -> np.ndarray:
    p = np.arange(1, size + 1, dtype=np.float64) ** -ZIPF_ALPHA
    return p / p.sum()


_LINE_SHAPES = (
    "    public static {a} {b}({c} arg) {{ return {c}.of(arg); }}",
    "    private {a} {b} = new {a}({c});",
    "    void {a}() {{ {b}.apply({c}); }}",
    "    static final String {a} = \"{b}-{c}\";",
    "    if ({a} != null) {{ {b} = {c}; }}",
)


def _body(ids: np.ndarray, kinds: np.ndarray, cls: str) -> str:
    lines = [f"import lib.{ids[0]};", f"public class {cls} {{"]
    for j, kind in enumerate(kinds):
        lines.append(_LINE_SHAPES[kind].format(a=ids[3 * j], b=ids[3 * j + 1], c=ids[3 * j + 2]))
    lines.append("}")
    return "\n".join(lines)


def gen_corpus(n_docs: int, seed: int) -> pa.Table:
    """``(repo, path, commit, lang, content)`` rows, deterministic in
    ``(n_docs, seed)``."""
    rng = np.random.default_rng([seed, 1])
    vocab = vocabulary()
    probs = _zipf(len(vocab))
    long_file = rng.random(n_docs) < 0.02
    n_lines = np.where(long_file, rng.integers(LONG_LINES, 2 * LONG_LINES, n_docs),
                       rng.integers(6, 50, n_docs))
    is_dup = np.zeros(n_docs, dtype=bool)
    is_dup[np.arange(50, n_docs, 100)] = True  # 1% exact copies of earlier files
    n_lines[is_dup] = 0
    ids = vocab[rng.choice(len(vocab), size=int(n_lines.sum()) * 3, p=probs)]
    kinds = rng.integers(0, len(_LINE_SHAPES), size=int(n_lines.sum()))
    dup_src = rng.integers(0, np.maximum(np.arange(n_docs), 1))
    langs = np.where(rng.random(n_docs) < 0.85, "java", "kt")
    contents: list[str] = []
    off = 0
    for i in range(n_docs):
        if is_dup[i]:
            contents.append(contents[int(dup_src[i])])
            continue
        nl = int(n_lines[i])
        contents.append(_body(ids[3 * off: 3 * (off + nl)], kinds[off: off + nl], f"Unit{i}"))
        off += nl
    repos = [f"org{i % 89:02d}/repo{i % 41:03d}" for i in range(n_docs)]
    paths = [
        f"src/dup{i}/Copy.java" if is_dup[i] else f"src/pkg{i % 13}/Unit{i}.java"
        for i in range(n_docs)
    ]
    commits = [
        hashlib.sha1(f"{seed}:{i}".encode()).hexdigest() for i in range(n_docs)
    ]
    return pa.table(
        {
            "repo": pa.array(repos, type=pa.string()),
            "path": pa.array(paths, type=pa.string()),
            "commit": pa.array(commits, type=pa.string()),
            "lang": pa.array(langs.tolist(), type=pa.string()),
            "content": pa.array(contents, type=pa.string()),
        }
    )


KEYWORD, WHOLE_FILE = 0, 1
LONG_LINES = 200
K = 10
# The query mix of bench.py: fixtures.gen_queries(n_keyword=400) gives the
# 7 case originals plus 400 keyword queries, the first 3 of them hot-only.
WHOLE_FILE_SHARE = 7 / 407
HOT_ONLY_SHARE = 3 / 407
WHOLE_FILE_LINES = (23, 41)  # the fixtures' case originals: 20 + 3k lines, k = 1..7
RENAME_SHARE = 0.25  # identifiers renamed in the fixtures' level-4 plagiarism variant
KEYWORD_TERMS = (2, 5)
KEYWORD_HOT_SHARE = 0.3  # keyword queries with one keyword appended


def gen_queries(corpus: pa.Table, n_queries: int, seed: int) -> pa.Table:
    """``(query_id, text, k, kind, src)`` rows in bench.py's mix: whole-file
    queries (corpus row ``src`` with ``RENAME_SHARE`` of its distinct
    identifiers renamed; ``src`` is -1 for the others), hot-only keyword
    queries, and keyword queries of ``KEYWORD_TERMS`` Zipf identifiers. The
    counts of each kind are fixed by ``n_queries``, whatever the seed."""
    rng = np.random.default_rng([seed, 2])
    vocab = vocabulary()
    probs = _zipf(len(vocab))
    contents = corpus["content"].to_pylist()
    # fixed counts per kind: whole-file queries cost 100-200x a keyword
    # query, so their number must not vary with the seed
    n_lines = np.array([c.count("\n") - 2 for c in contents])
    band = np.flatnonzero((n_lines >= WHOLE_FILE_LINES[0]) & (n_lines <= WHOLE_FILE_LINES[1]))
    n_whole = round(n_queries * WHOLE_FILE_SHARE)
    n_hot = round(n_queries * HOT_ONLY_SHARE)
    order = rng.permutation(n_queries)
    srcs = np.full(n_queries, -1, dtype=np.int64)
    srcs[order[:n_whole]] = rng.choice(band, n_whole, replace=False)
    hot_only = np.zeros(n_queries, dtype=bool)
    hot_only[order[n_whole:n_whole + n_hot]] = True
    kinds = np.where(srcs >= 0, WHOLE_FILE, KEYWORD)
    hot_words = np.asarray(HOT_WORDS, dtype=object)
    texts = []
    for qi, kind in enumerate(kinds):
        if kind == WHOLE_FILE:
            src = contents[srcs[qi]]
            words = src.replace("(", " ").replace(")", " ").replace(";", " ").split()
            uniq = sorted({w for w in words if w.isidentifier() and w not in HOT_WORDS})
            victims = rng.choice(len(uniq), size=int(len(uniq) * RENAME_SHARE), replace=False)
            repl = vocab[rng.choice(len(vocab), size=len(victims), p=probs)]
            text = src
            for v, r in zip(victims, repl):
                text = text.replace(uniq[int(v)], str(r))
            texts.append(text)
        elif hot_only[qi]:
            texts.append(" ".join(rng.choice(hot_words, 3, replace=False)))
        else:
            n_terms = int(rng.integers(KEYWORD_TERMS[0], KEYWORD_TERMS[1] + 1))
            toks = list(vocab[rng.choice(len(vocab), size=n_terms, p=probs)])
            if rng.random() < KEYWORD_HOT_SHARE:
                toks.append(HOT_WORDS[int(rng.integers(0, len(HOT_WORDS)))])
            texts.append(" ".join(toks))
    return pa.table(
        {
            "query_id": pa.array(np.arange(n_queries, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
            "k": pa.array(np.full(n_queries, K, dtype=np.uint32)),
            "kind": pa.array(kinds.astype(np.int8)),
            "src": pa.array(srcs),
        }
    )
