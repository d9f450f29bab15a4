"""Source-code directory loader → north-rule corpus schema.

Loads a tree of source files (the reference's conformance corpus at
/root/reference/data/sourcecode: 7 cases × {original, plagiarized
L1-L6, non-plagiarized}, 467 Java files — the IR-Plag layout the
reference ships but never wires to tests) into the
(repo, path, commit, lang, content) Parquet corpus shape the engine
indexes. ``repo`` = the case id (top-level dir), ``path`` = the
case-relative file path, ``commit`` = "" (the snapshot has no VCS),
``lang`` = file extension.

Driver-side directory walk by design: file discovery is metadata-only
(467 paths here; at cluster scale the listing feeds
``ray.data.read_binary_files`` / a parquet manifest instead — the
engine proper only ever sees the Parquet corpus schema).
"""

from __future__ import annotations

import os

import pyarrow as pa

CORPUS_FIELDS = ("repo", "path", "commit", "lang", "content")

#: the reference conformance corpus shipped with DocInsight
#: (/root/reference/data/sourcecode/case-0{1..7}/)
REFERENCE_SOURCECODE_DIR = "/root/reference/data/sourcecode"

_EXT_LANG = {".java": "java", ".py": "python", ".c": "c", ".cpp": "cpp", ".go": "go"}


def load_sourcecode_corpus(root: str = REFERENCE_SOURCECODE_DIR) -> pa.Table:
    """Walk ``root`` and return the corpus table, deterministically
    ordered by (repo, path). Non-source artifacts (e.g. Windows
    ``*Zone.Identifier`` alternate-data-stream droppings in the
    reference snapshot) are skipped. Raises FileNotFoundError when
    ``root`` is not a directory (os.walk would yield an empty corpus)."""
    if not os.path.isdir(root):
        raise FileNotFoundError(f"reference source-code corpus not found: {root}")
    rows: list[tuple[str, str, str, str]] = []  # (repo, path, lang, content)
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fn in sorted(filenames):
            ext = os.path.splitext(fn)[1]
            lang = _EXT_LANG.get(ext)
            if lang is None:
                continue
            full = os.path.join(dirpath, fn)
            rel = os.path.relpath(full, root)
            repo, _, path = rel.partition(os.sep)
            with open(full, encoding="utf-8", errors="replace") as f:
                content = f.read()
            rows.append((repo, path, lang, content))
    rows.sort(key=lambda r: (r[0], r[1]))
    return pa.table(
        {
            "repo": pa.array([r[0] for r in rows], type=pa.string()),
            "path": pa.array([r[1] for r in rows], type=pa.string()),
            "commit": pa.array([""] * len(rows), type=pa.string()),
            "lang": pa.array([r[2] for r in rows], type=pa.string()),
            "content": pa.array([r[3] for r in rows], type=pa.string()),
        }
    )


def case_originals(corpus: pa.Table) -> list[tuple[str, str, str]]:
    """The reference query set: one (case_id, path, content) per case's
    ``original/`` file, ordered by case id."""
    out = []
    for repo, path, content in zip(
        corpus["repo"].to_pylist(), corpus["path"].to_pylist(), corpus["content"].to_pylist()
    ):
        parts = path.split(os.sep)
        if parts and parts[0] == "original":
            out.append((repo, path, content))
    out.sort(key=lambda r: r[0])
    return out
