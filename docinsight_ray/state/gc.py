"""Index garbage collection: purge staging leftovers and stale state.

The operational answer to crash leftovers — the Ray-Data-native
analogue of the reference's ``cmd_purge`` cascading delete
(/root/reference/docinsight_cli.py:184-207). A build that crashes
mid-run can leave behind:

- staging side-channels (``fragments``/``fragments-dfstats`` SPIMI
  runs, ``shard_input`` sharded split, ``dedup_losers`` join-path
  spill, ``partial`` salted runs);
- dot-prefixed ``.*.tmp`` files from interrupted atomic writes
  (invisible to parquet discovery, but they hold bytes);
- manifests whose fingerprint no longer matches the committed build
  (a re-build under a different (input, config) identity wipes these
  itself; a crash between wipe and commit can strand them).

``purge`` removes all of the above while leaving the committed index
(docs/, parts/, corpus_stats.json, current manifests, global_df)
untouched, recursing into ``shard=*`` / ``window=*`` sub-indexes.
``purge(..., remove_all=True)`` deletes the whole index directory —
the cascading-delete mode.
"""

from __future__ import annotations

import json
import os
from typing import Any

from .fsio import exists, listdir_names, read_bytes, remove_path, rmtree

# staging dirs that are pure build intermediates once a build has
# committed (or has crashed): safe to delete, always rebuildable.
# NOTE: `partial` (salted hot runs) is consumed by the hot merge and
# only re-created on a full rebuild — purging it is safe because resume
# of a COMMITTED build short-circuits on _SUCCESS, and resume of an
# uncommitted build re-runs from the docs manifest forward.
STAGING_SUBDIRS = (
    "fragments",
    "fragments-dfstats",
    "shard_input",
    "dedup_losers",
    "dedup_global",
    "partial",
)


def _index_roots(index_dir: str) -> list[str]:
    """The dir itself plus any shard=* / window=* sub-indexes."""
    roots = [index_dir]
    for n in listdir_names(index_dir):
        if n.startswith("shard=") or n.startswith("window="):
            roots.append(os.path.join(index_dir, n))
    return roots


def _tmp_leftovers(root: str) -> list[str]:
    """Dot-prefixed .*.tmp files from interrupted atomic writes,
    anywhere under the committed layout."""
    out: list[str] = []
    stack = [root]
    while stack:
        d = stack.pop()
        for n in listdir_names(d):
            p = os.path.join(d, n)
            if n.startswith(".") and n.endswith(".tmp"):
                out.append(p)
            elif "." not in n or n.startswith(("shard=", "window=", "tile=")):
                # plain subdirectory names in this layout carry no dot
                # (docs, parts, g12, hot, manifest, hive partitions)
                stack.append(p)
    return out


def _stale_manifests(root: str) -> list[str]:
    """Manifest files whose fingerprint differs from the committed
    _SUCCESS fingerprint (only meaningful when _SUCCESS exists)."""
    man_dir = os.path.join(root, "manifest")
    succ = read_bytes(os.path.join(man_dir, "_SUCCESS.json"))
    if succ is None:
        return []
    current = json.loads(succ).get("fingerprint")
    stale = []
    for n in listdir_names(man_dir):
        if not n.endswith(".json") or n == "_SUCCESS.json":
            continue
        data = read_bytes(os.path.join(man_dir, n))
        if data is None:
            continue
        try:
            rec = json.loads(data)
        except json.JSONDecodeError:
            stale.append(os.path.join(man_dir, n))  # corrupt → leftover
            continue
        if rec.get("fingerprint") != current:
            stale.append(os.path.join(man_dir, n))
    return stale


def purge(index_dir: str, remove_all: bool = False, dry_run: bool = False) -> dict[str, Any]:
    """Remove build leftovers under ``index_dir`` (see module doc).

    Returns a report dict: what was (or would be, with ``dry_run``)
    removed, per category."""
    report: dict[str, Any] = {
        "index_dir": index_dir,
        "remove_all": remove_all,
        "dry_run": dry_run,
        "staging_dirs": [],
        "tmp_files": [],
        "stale_manifests": [],
    }
    if not exists(index_dir):
        report["missing"] = True
        return report
    if remove_all:
        report["staging_dirs"] = [index_dir]
        if not dry_run:
            rmtree(index_dir)
        return report
    # windows superseded by a COMMITTED compaction (_COMPACTED_FROM
    # marker in a committed window, pipelines/incremental.py) are
    # query-excluded leftovers — reclaim them
    superseded: set[str] = set()
    for n in listdir_names(index_dir):
        if not n.startswith("window="):
            continue
        d = os.path.join(index_dir, n)
        if read_bytes(os.path.join(d, "corpus_stats.json")) is None:
            continue
        data = read_bytes(os.path.join(d, "_COMPACTED_FROM"))
        if data:
            try:
                superseded.update(json.loads(data))
            except json.JSONDecodeError:
                pass
    report["superseded_windows"] = []
    for n in sorted(superseded):
        p = os.path.join(index_dir, n)
        if exists(p):
            report["superseded_windows"].append(p)
            if not dry_run:
                rmtree(p)

    report["reset_manifests"] = []
    any_reset_child = False
    for root in _index_roots(index_dir):
        for sub in STAGING_SUBDIRS:
            p = os.path.join(root, sub)
            if exists(p):
                report["staging_dirs"].append(p)
                if not dry_run:
                    rmtree(p)
        committed = read_bytes(os.path.join(root, "manifest", "_SUCCESS.json")) is not None
        if committed:
            # committed build: resume short-circuits on _SUCCESS, so
            # removing staging is safe; only stale (other-fingerprint)
            # manifests are leftovers
            for p in _stale_manifests(root):
                report["stale_manifests"].append(p)
                if not dry_run:
                    remove_path(p)
        else:
            # UNCOMMITTED build: its partial manifests (e.g. the docs
            # manifest) exist to resume from the staging we just
            # deleted — keeping them would make the next run resume
            # into missing fragments and fail. Purge means "give up
            # partial builds, keep committed state": clean-slate the
            # manifest dir so the next run rebuilds from scratch.
            man = os.path.join(root, "manifest")
            if exists(man):
                report["reset_manifests"].append(man)
                if not dry_run:
                    rmtree(man)
            if root != index_dir:
                any_reset_child = True
        for p in _tmp_leftovers(root):
            report["tmp_files"].append(p)
            if not dry_run:
                remove_path(p)
    # a reset shard/window invalidates the parent's split marker: the
    # sharded build must re-split rather than trust staged state that
    # no longer exists
    split_marker = os.path.join(index_dir, "_SPLIT_DONE")
    if any_reset_child and exists(split_marker):
        report["reset_manifests"].append(split_marker)
        if not dry_run:
            remove_path(split_marker)
    return report
