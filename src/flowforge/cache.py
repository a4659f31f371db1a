"""Content-addressed store for file blobs and task results.

Layout:
    cache/objects/<first2>/<digest>   blob, named by SHA-256 of content
    cache/tasks/<fingerprint>.json    task result entry

put_blob is the one place that reads an artifact into the store. It
hashes a file while copying it into a temp file, then installs the copy
by atomic rename under the digest of the bytes copied, so a blob's name
is its content's hash even if the source changes meanwhile, and
concurrent writers are safe. Stored blobs are made read-only because
task sandboxes and linked workspaces hard-link them. Directory outputs
are stored as a tree-manifest blob (canonical bytes, own digest) plus
one blob per member file. gc keeps the entries of kept runs, the inputs
those runs recorded and every blob either references; it takes an
exclusive lock file and refuses to run when it is already held.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .canon import canon_bytes, canon_decode, file_digest, tree_manifest

log = logging.getLogger(__name__)

BLOB_MODE = 0o444


class CacheError(Exception):
    pass


class GcLockError(CacheError):
    """Another process holds the gc lock."""


@dataclass(frozen=True)
class CacheEntry:
    fingerprint: str
    run_id: str
    file_outputs: dict[str, str]  # port -> blob digest (tree digest for dirs)
    value_outputs: dict[str, object]
    created: str = ""

    def to_data(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "run": self.run_id,
            "files": dict(self.file_outputs),
            "values": dict(self.value_outputs),
            "created": self.created,
        }

    @classmethod
    def from_data(cls, data: dict) -> "CacheEntry":
        return cls(data["fingerprint"], data["run"], dict(data["files"]),
                   dict(data["values"]), data.get("created", ""))


@dataclass
class GcReport:
    removed_entries: list[str] = field(default_factory=list)
    removed_blobs: list[str] = field(default_factory=list)
    kept_entries: int = 0
    kept_blobs: int = 0


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat()


class CacheStore:
    """Content-addressed store. Reads never touch the filesystem layout;
    directories appear lazily on first write, so read-only users (plan
    previews, dry runs) leave no trace."""

    def __init__(self, root):
        self.root = os.fspath(root)
        self.objects_dir = os.path.join(self.root, "objects")
        self.tasks_dir = os.path.join(self.root, "tasks")

    # -- blobs ------------------------------------------------------------

    def blob_path(self, digest: str) -> str:
        return os.path.join(self.objects_dir, digest[:2], digest)

    def has_blob(self, digest: str) -> bool:
        return os.path.isfile(self.blob_path(digest))

    def put_blob(self, source) -> str:
        """Store bytes, or a file by path, hashed while it is copied;
        returns the digest of the bytes stored. Idempotent: content
        already present is not rewritten."""
        if isinstance(source, bytes):
            digest = hashlib.sha256(source).hexdigest()
            if self.has_blob(digest):
                return digest
        os.makedirs(self.objects_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.objects_dir, prefix=".ingest-")
        try:
            with os.fdopen(fd, "wb") as fh:
                if isinstance(source, bytes):
                    fh.write(source)
                else:
                    digest = file_digest(source, out=fh)
            dest = self.blob_path(digest)
            if not os.path.exists(dest):
                os.makedirs(os.path.dirname(dest), exist_ok=True)
                os.chmod(tmp, BLOB_MODE)
                os.replace(tmp, dest)
            return digest
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def put_tree(self, root) -> str:
        """Store a directory: every member file as a blob plus the
        canonical tree manifest; returns the tree digest."""
        return self.put_blob(canon_bytes(tree_manifest(root, self.put_blob)))

    def open_blob(self, digest: str):
        try:
            return open(self.blob_path(digest), "rb")
        except OSError as exc:
            raise CacheError("blob %s missing from store" % digest) from exc

    def read_tree_manifest(self, digest: str) -> dict:
        with self.open_blob(digest) as fh:
            data = fh.read()
        try:
            manifest = canon_decode(data)
        except (ValueError, RecursionError) as exc:
            # Any file may sit here: CanonError, UnicodeDecodeError and
            # deep nesting all mean "not a manifest".
            raise CacheError("blob %s is not a tree manifest" % digest) from exc
        if not isinstance(manifest, dict) or manifest.get("kind") != "tree":
            raise CacheError("blob %s is not a tree manifest" % digest)
        return manifest

    def materialize_blob(self, digest: str, dest: str):
        """Place blob content at dest. Linked files share the store's
        read-only inode, which is the write protection."""
        src = self.blob_path(digest)
        if not os.path.isfile(src):
            raise CacheError("blob %s missing from store" % digest)
        link_file(src, dest)

    def materialize_tree(self, digest: str, dest: str):
        manifest = self.read_tree_manifest(digest)
        os.makedirs(dest, exist_ok=True)
        for rel, member in manifest["entries"].items():
            self.materialize_blob(member, os.path.join(dest, rel.replace("/", os.sep)))

    # -- task entries -----------------------------------------------------

    def entry_path(self, fingerprint: str) -> str:
        return os.path.join(self.tasks_dir, fingerprint + ".json")

    def put_entry(self, entry: CacheEntry):
        """Store a task result. Last writer wins for equal fingerprints;
        the outputs are by construction equivalent."""
        for digest in entry.file_outputs.values():
            if not self.has_blob(digest):
                raise CacheError("entry references missing blob %s" % digest)
        if not entry.created:
            entry = CacheEntry(entry.fingerprint, entry.run_id,
                               entry.file_outputs, entry.value_outputs, _utcnow())
        os.makedirs(self.tasks_dir, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.tasks_dir, prefix=".entry-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry.to_data(), fh, indent=1)
            fh.write("\n")
        os.replace(tmp, self.entry_path(entry.fingerprint))

    def get_entry(self, fingerprint: str) -> CacheEntry | None:
        """Fetch a verified entry, or None. An entry whose blobs are
        missing or unparseable is corrupt: warn and treat as a miss."""
        path = self.entry_path(fingerprint)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = CacheEntry.from_data(json.load(fh))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            log.warning("cache entry %s unreadable (%s); treating as miss",
                        fingerprint, exc)
            return None
        for digest in entry.file_outputs.values():
            if not self.has_blob(digest):
                log.warning("cache entry %s references missing blob %s; "
                            "treating as miss", fingerprint, digest)
                return None
        return entry

    def entries(self):
        try:
            names = sorted(os.listdir(self.tasks_dir))
        except OSError:
            return
        for name in names:
            if not name.endswith(".json") or name.startswith("."):
                continue
            entry = self.get_entry(name[:-len(".json")])
            if entry is not None:
                yield entry

    # -- garbage collection ------------------------------------------------

    def _blob_closure(self, digests) -> set[str]:
        """`digests` plus the members of those that name tree manifests."""
        refs = set(digests)
        for digest in digests:
            if self.has_blob(digest):
                try:
                    manifest = self.read_tree_manifest(digest)
                except CacheError:
                    continue
                refs.update(manifest["entries"].values())
        return refs

    def gc(self, keep_runs, keep_blobs=()) -> GcReport:
        """Drop entries not produced by a kept run, then blobs that
        neither a kept entry nor `keep_blobs` (the recorded inputs of the
        kept runs) references. Requires the exclusive lock; never
        removes data an entry still points at."""
        keep_runs = set(keep_runs)
        os.makedirs(self.root, exist_ok=True)
        lock = os.path.join(self.root, "gc.lock")
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise GcLockError("gc lock held (%s); another gc in progress?" % lock)
        os.close(fd)
        try:
            report = GcReport()
            roots = set(keep_blobs)
            for name in sorted(_listdir_or_empty(self.tasks_dir)):
                if not name.endswith(".json") or name.startswith("."):
                    continue
                fingerprint = name[:-len(".json")]
                path = os.path.join(self.tasks_dir, name)
                try:
                    with open(path, encoding="utf-8") as fh:
                        entry = CacheEntry.from_data(json.load(fh))
                except (json.JSONDecodeError, KeyError, TypeError, OSError):
                    os.unlink(path)
                    report.removed_entries.append(fingerprint)
                    continue
                if entry.run_id in keep_runs:
                    report.kept_entries += 1
                    roots.update(entry.file_outputs.values())
                else:
                    os.unlink(path)
                    report.removed_entries.append(fingerprint)

            live_blobs = self._blob_closure(roots)
            for shard in sorted(_listdir_or_empty(self.objects_dir)):
                shard_dir = os.path.join(self.objects_dir, shard)
                if not os.path.isdir(shard_dir):
                    continue
                for digest in sorted(os.listdir(shard_dir)):
                    path = os.path.join(shard_dir, digest)
                    if digest in live_blobs:
                        report.kept_blobs += 1
                    else:
                        os.chmod(path, 0o644)
                        os.unlink(path)
                        report.removed_blobs.append(digest)
            return report
        finally:
            os.unlink(lock)


def link_file(src: str, dest: str):
    """Hard-link src at dest, replacing dest; copy it, mode included,
    where the filesystem has no hard links."""
    os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
    if os.path.lexists(dest):
        os.unlink(dest)
    try:
        os.link(src, dest)
    except OSError:
        shutil.copy(src, dest)


def _listdir_or_empty(path: str) -> list:
    try:
        return os.listdir(path)
    except OSError:
        return []
