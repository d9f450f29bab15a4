"""Index snapshot / restore — the operational backup surface.

Elasticsearch-parity semantics (snapshot to a repository, restore
into a live path), built on the same pyarrow.fs-aware primitives as
the rest of the index lifecycle (``state/fsio.py``), so both ends may
be plain paths or URIs (``file://``, ``s3://``):

- ``snapshot_index(src, dest)`` copies every file under the index
  root and writes ``SNAPSHOT.json``: per-file sha256 + size, the
  index fingerprint (when a build manifest is present), and the file
  count. The manifest is written LAST — a crashed snapshot is
  trivially detectable (no manifest) and a re-run overwrites it.
- ``restore_index(snap, dest)`` verifies every file against the
  manifest WHILE copying (a corrupted repository never half-restores
  silently: verification failures abort before anything is promoted)
  and stages into ``<dest>.restore-tmp`` first, promoting with one
  rename on local paths. URI destinations are written in place
  (object stores have no rename): each object is verified BEFORE its
  PUT, so a corrupt repository aborts the copy — restore into a
  fresh prefix when the destination must never hold partial state.
- ``verify_snapshot(snap)`` re-hashes the repository in place.

Reference provenance: the reference persists its state as SQLite +
FAISS files with no backup tooling (/root/reference/database/*.py);
this is the missing ops surface scaled to URI storage.
"""

from __future__ import annotations

import hashlib
import json
import os

from . import fsio

MANIFEST = "SNAPSHOT.json"


def _walk_files(root: str) -> list[str]:
    """Relative paths of every file under root (recursive), sorted."""
    fs, p = fsio.resolve(root)
    if fs is None:
        out = []
        for dirpath, _dirnames, filenames in os.walk(p):
            rel = os.path.relpath(dirpath, p)
            for f in filenames:
                out.append(f if rel == "." else os.path.join(rel, f))
        return sorted(out)
    from pyarrow import fs as pafs

    sel = pafs.FileSelector(p, recursive=True, allow_not_found=False)
    infos = fs.get_file_info(sel)
    base = p.rstrip("/") + "/"
    return sorted(
        i.path[len(base):] for i in infos if i.type == pafs.FileType.File
    )


def snapshot_index(src: str, dest: str, incremental: bool = True) -> dict:
    """Copy an index tree to a snapshot repository; returns the
    manifest dict (also written as ``dest/SNAPSHOT.json``, last).

    ``incremental`` (Elasticsearch snapshot semantics): when the
    repository already holds a completed snapshot, files whose
    (path, sha256, size) match the prior manifest are NOT re-uploaded
    — for a multi-TB index where an append/compaction touched a few
    partitions, the repository PUT traffic is proportional to the
    delta, not the index. Source bytes are still fully read and
    hashed (the manifest's integrity contract is content, never
    mtimes). Repository files dropped from the source are GC'd after
    the new manifest commits — a crash before GC leaves harmless
    extras that the next snapshot removes."""
    files = _walk_files(src)
    if not files:
        raise FileNotFoundError(f"{src}: empty or missing index dir")
    prior: dict[str, dict] = {}
    if incremental:
        try:
            prior = _load_manifest(dest).get("files", {})
        except (FileNotFoundError, ValueError):
            prior = {}  # empty/foreign/crashed repo → full snapshot
    entries: dict[str, dict] = {}
    n_skipped = 0
    for rel in files:
        data = fsio.read_bytes(f"{src.rstrip('/')}/{rel}")
        if data is None:
            raise FileNotFoundError(f"{src}/{rel}")
        sha = hashlib.sha256(data).hexdigest()
        p = prior.get(rel)
        # The prior manifest may assert hashes for repo files that were
        # since deleted or corrupted externally; skipping on manifest
        # evidence alone would commit a manifest the repository can't
        # back. An existence probe is cheap; full re-hash stays opt-in
        # via --verify.
        if (p is not None and p.get("sha256") == sha and p.get("size") == len(data)
                and fsio.exists(f"{dest.rstrip('/')}/{rel}")):
            n_skipped += 1  # byte-identical in the repository already
        else:
            fsio.write_bytes_atomic(f"{dest.rstrip('/')}/{rel}", data)
        entries[rel] = {
            "sha256": sha,
            "size": len(data),
        }
    fingerprint = None
    stats = fsio.read_bytes(f"{src.rstrip('/')}/corpus_stats.json")
    if stats is not None:
        try:
            fingerprint = json.loads(stats).get("fingerprint")
        except (ValueError, AttributeError):
            fingerprint = None
    manifest = {
        "version": 1,
        "n_files": len(entries),
        "n_skipped_unchanged": n_skipped,
        "fingerprint": fingerprint,
        "files": entries,
    }
    fsio.write_bytes_atomic(
        f"{dest.rstrip('/')}/{MANIFEST}",
        json.dumps(manifest, indent=1, sort_keys=True).encode(),
    )
    # post-commit GC: repository files no longer in the source (stale
    # partitions from a prior snapshot generation). The manifest above
    # is already the authority, so a crash mid-GC is harmless.
    for rel in set(prior) - set(entries):
        fsio.remove_path(f"{dest.rstrip('/')}/{rel}")
    return manifest


def _load_manifest(snap: str) -> dict:
    raw = fsio.read_bytes(f"{snap.rstrip('/')}/{MANIFEST}")
    if raw is None:
        raise FileNotFoundError(
            f"{snap}/{MANIFEST}: not a snapshot repository (or an "
            f"incomplete snapshot — the manifest is written last)"
        )
    return json.loads(raw)


def verify_snapshot(snap: str) -> dict:
    """Re-hash every repository file against the manifest. Returns
    {"ok": bool, "bad": [rel...], "missing": [rel...], "n_files": n}."""
    m = _load_manifest(snap)
    bad, missing = [], []
    for rel, meta in m["files"].items():
        data = fsio.read_bytes(f"{snap.rstrip('/')}/{rel}")
        if data is None:
            missing.append(rel)
        elif hashlib.sha256(data).hexdigest() != meta["sha256"]:
            bad.append(rel)
    return {
        "ok": not bad and not missing,
        "bad": sorted(bad),
        "missing": sorted(missing),
        "n_files": m["n_files"],
    }


def restore_index(snap: str, dest: str) -> dict:
    """Verified restore: every file is hash-checked against the
    snapshot manifest during the copy; nothing is promoted unless ALL
    files verify. Local dest promotes atomically via rename."""
    m = _load_manifest(snap)
    fs, dest_local = fsio.resolve(dest)
    staging = (
        dest_local.rstrip("/") + ".restore-tmp" if fs is None else dest.rstrip("/")
    )
    if fs is None and os.path.exists(staging):
        import shutil

        shutil.rmtree(staging)
    copied = 0
    for rel, meta in m["files"].items():
        data = fsio.read_bytes(f"{snap.rstrip('/')}/{rel}")
        if data is None:
            raise IOError(f"restore aborted: {rel} missing from snapshot")
        if hashlib.sha256(data).hexdigest() != meta["sha256"]:
            raise IOError(
                f"restore aborted: {rel} corrupt in snapshot "
                f"(sha mismatch, expected {meta['sha256'][:12]}...)"
            )
        fsio.write_bytes_atomic(f"{staging}/{rel}", data)
        copied += 1
    if fs is None:
        if os.path.exists(dest_local):
            import shutil

            shutil.rmtree(dest_local)
        os.replace(staging, dest_local)
    return {"ok": True, "n_files": copied, "fingerprint": m.get("fingerprint")}
