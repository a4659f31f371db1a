"""Content-addressed store for file blobs and task results.

Layout:
    cache/objects/<first2>/<digest>   blob, named by SHA-256 of content
    cache/tasks/<fingerprint>.json    task result entry

A task result is a CacheEntry: fingerprint, producing run, file outputs
by digest and value outputs. The workspace stamp that the update policy
reads is the same record, the entry of the outputs a task last placed
in the workspace, plus one key that only a stamp carries: the stat of
each file placed (scheduler.Stamp), so an entry holds no workspace
data. Both are compact JSON (encode_record), read by read_entry; those
written indented by earlier versions read the same.

put_blob is the one place that installs a blob. A file a task produced,
which the engine owns (a regular file with one link), is adopted: made
read-only, hashed in place, hard-linked under its digest and stat'ed
again, so its bytes are written once, by the task, and stored once; a
size or mtime that moved means a writer was still at work, and the blob
goes (executors.spawn kills what a task leaves running). Anything else
(an external input, a symlink, a hard link to a file outside the
sandbox) is copied: hashed while it is read, into memory when it fits in
one read chunk and into a temp file otherwise, and installed by atomic
rename under the digest of the bytes read, so a file the engine does not
own is never made read-only or shared with the store. Content already
stored costs no create and is not rewritten, so the hard links to a blob
(sandboxes, workspace outputs) keep sharing its inode; only a blob whose
size is not that of the bytes just hashed is replaced. The scheduler
finds the edits of placed outputs that ignore the read-only mode
(checked_stamp). Every other small file the engine keeps (entries,
stamps, provenance, spool states) is replaced whole through
replace_file. Temp files are dot-files named for the target and their
writer (process, thread and call), so concurrent writers never share one
and no listing of records sees them. Directories are made on the first
write that misses them, not checked before each write. Directory outputs
are stored as a tree-manifest blob (canonical bytes, own digest) plus
one blob per member file. Placing (materialize_*) has one rule for a
file output and a directory member alike: keep a file whose stat record
from the stamp check (stat_record) is its blob's stat, and hard-link any
other (link_file); a directory output first loses what scan_tree finds
beside its members (_prune), unless the stamp check's reading of it,
made by scan_tree too, shows nothing there but files the manifest names.
gc keeps the entries of kept runs, the inputs those runs recorded and
every blob either references; it reads the 13-byte head of each kept
blob and only tree manifests whole, so its memory does not grow with
output size. It unlinks a blob without making it writable, since a
placed output may share its inode. It holds an flock on cache/gc.lock
while it runs and refuses to start when another gc holds it; the file
stays, and one left by a killed gc holds no lock.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import io
import itertools
import json
import logging
import os
import shutil
import stat
import threading
from dataclasses import dataclass, field

from .canon import (CHUNK, MANIFEST_HEAD, canon_bytes, canon_decode,
                    file_digest, tree_manifest)
from .provenance import record_sections

log = logging.getLogger(__name__)

BLOB_MODE = 0o444
_NEW_FILE = os.O_WRONLY | os.O_CREAT | os.O_EXCL


class CacheError(Exception):
    pass


class GcLockError(CacheError):
    """Another process holds the gc lock."""


@dataclass(frozen=True)
class CacheEntry:
    fingerprint: str
    run_id: str | None  # None in a stamp written before stamps were entries
    file_outputs: dict[str, str]  # port -> blob digest (tree digest for dirs)
    value_outputs: dict[str, object]

    def to_data(self) -> dict:
        return {"fingerprint": self.fingerprint, "run": self.run_id,
                "files": self.file_outputs, "values": self.value_outputs}

    def to_bytes(self) -> bytes:
        return encode_record(self.to_data())

    @classmethod
    def from_data(cls, data: dict) -> "CacheEntry":
        files, values = record_sections(data, "entry")
        if not isinstance(data.get("run", ""), str):
            raise ValueError("entry run is no string")
        return cls(data["fingerprint"], data.get("run"), files, values)


@dataclass
class GcReport:
    removed_entries: list[str] = field(default_factory=list)
    removed_blobs: list[str] = field(default_factory=list)
    kept_entries: int = 0
    kept_blobs: int = 0


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

    def put_blob(self, source, adopt: bool = False) -> str:
        """Store bytes, or a file by path, hashed while it is read;
        returns the digest of the bytes stored. Idempotent: content
        already present is left in place, not rewritten, unless the
        stored blob's size is not that of the bytes hashed. A file that
        fits in one CHUNK is hashed into memory, so storing it again
        creates nothing; a larger one is hashed while it is copied.

        With `adopt`, a file the engine owns (a regular file with one
        link: a task's own output) is not copied but becomes the blob:
        made read-only, hashed in place and hard-linked under its
        digest. Raises CacheError when it changed while being stored."""
        if adopt:
            digest = self._adopt(source)
            if digest is not None:
                return digest
        data = None
        if isinstance(source, bytes):
            data, digest = source, hashlib.sha256(source).hexdigest()
        elif os.stat(source).st_size <= CHUNK:
            buf = io.BytesIO()
            digest = file_digest(source, out=buf)
            data = buf.getvalue()
        if data is not None and self._stored_size(digest) == len(data):
            return digest
        tmp, fd = _create_temp(self.objects_dir, "ingest", BLOB_MODE)
        try:
            with os.fdopen(fd, "wb") as fh:
                if data is not None:
                    fh.write(data)
                else:
                    digest = file_digest(source, out=fh)
                size = fh.tell()
            if self._stored_size(digest) == size:
                os.unlink(tmp)
            else:
                _making_shard(os.replace, tmp, self.blob_path(digest))
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
        return digest

    def _adopt(self, path) -> str | None:
        """Make the file at `path` the blob of its bytes; returns their
        digest, or None when `path` is not the engine's to adopt or
        cannot be linked into the store (the caller copies it then)."""
        before = os.lstat(path)
        if not stat.S_ISREG(before.st_mode) or before.st_nlink != 1:
            return None
        os.chmod(path, BLOB_MODE)
        digest = file_digest(path)
        blob = self.blob_path(digest)
        try:
            _making_shard(os.link, path, blob)
            linked = True
        except FileExistsError:  # stored already: placed from the store
            linked = False
        except OSError:
            return None
        after = os.lstat(path)
        if (after.st_size, after.st_mtime_ns) != (before.st_size, before.st_mtime_ns):
            if linked:
                os.unlink(blob)
            raise CacheError("output changed while being stored: %s" % path)
        if not linked and self._stored_size(digest) != before.st_size:
            return None  # a damaged blob, which the copy replaces
        return digest

    def _stored_size(self, digest: str) -> int | None:
        try:
            return os.stat(self.blob_path(digest)).st_size
        except FileNotFoundError:
            return None

    def put_tree(self, root, adopt: bool = False) -> str:
        """Store a directory: every member file as a blob plus the
        canonical tree manifest; returns the tree digest. With `adopt`,
        each member the engine owns becomes its blob (see put_blob);
        materialize_tree places the tree."""
        return self.put_blob(canon_bytes(tree_manifest(
            os.fspath(root), lambda path: self.put_blob(path, adopt=adopt))))

    def open_blob(self, digest: str):
        """The blob, open unbuffered: a read of n bytes reads n, no more."""
        try:
            return open(self.blob_path(digest), "rb", buffering=0)
        except OSError as exc:
            raise CacheError("blob %s missing from store" % digest) from exc

    def read_tree_manifest(self, digest: str) -> dict:
        """The tree manifest stored as `digest`. Only a blob that starts
        with MANIFEST_HEAD is read past its first 13 bytes, so rejecting
        a file output costs no memory."""
        with self.open_blob(digest) as fh:
            head = fh.read(len(MANIFEST_HEAD))
            if head != MANIFEST_HEAD:
                raise CacheError("blob %s is not a tree manifest" % digest)
            data = head + fh.read()
        try:
            manifest = canon_decode(data)
        except (ValueError, RecursionError) as exc:
            # Any file may sit here: CanonError, UnicodeDecodeError and
            # deep nesting all mean "not a manifest".
            raise CacheError("blob %s is not a tree manifest" % digest) from exc
        if not isinstance(manifest, dict) or manifest.get("kind") != "tree":
            raise CacheError("blob %s is not a tree manifest" % digest)
        return manifest

    def materialize_blob(self, digest: str, dest: str, found=None) -> os.stat_result:
        """Place blob content at dest, keeping a file there whose stat
        record `found` is the blob's stat; returns the stat of the file
        placed. Linked files share the store's read-only inode, which is
        the write protection."""
        blob = self.blob_path(digest)
        try:
            st = os.stat(blob)
            if found == stat_record(st) or link_file(blob, dest):
                return st
        except FileNotFoundError as exc:
            raise CacheError("blob %s missing from store" % digest) from exc
        return os.lstat(dest)  # a copy

    def materialize_tree(self, digest: str, dest: str, found=None) -> dict:
        """Make dest hold a stored directory and nothing else: remove
        what the manifest lacks (_prune), then place each member as
        materialize_blob does, with its record in `found` (member relpath
        -> stat_record). `found` is the stamp check's reading of dest,
        which holds those files and nothing else; without one (None), or
        with a file the manifest lacks, dest is scanned again to prune.
        Returns member relpath -> (path, stat) of each file placed."""
        entries = self.read_tree_manifest(digest)["entries"]
        if found is None or not found.keys() <= entries.keys():
            _prune(dest, entries)
        found, placed = found or {}, {}
        for rel, member in entries.items():
            path = os.path.join(dest, rel.replace("/", os.sep))
            placed[rel] = path, self.materialize_blob(member, path, found.get(rel))
        return placed

    # -- task entries -----------------------------------------------------

    def entry_path(self, fingerprint: str) -> str:
        return os.path.join(self.tasks_dir, fingerprint + ".json")

    def put_entry(self, entry: CacheEntry):
        """Store a task result. Last writer wins for equal fingerprints;
        the outputs are by construction equivalent; get_entry checks
        its blobs."""
        replace_file(self.entry_path(entry.fingerprint), entry.to_bytes())

    def get_entry(self, fingerprint: str) -> CacheEntry | None:
        """Fetch a verified entry, or None. An entry whose blobs are
        missing or unparseable is corrupt: warn and treat as a miss."""
        try:
            entry = read_entry(self.entry_path(fingerprint))
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError) as exc:
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
        for fingerprint, _ in self._entry_files():
            entry = self.get_entry(fingerprint)
            if entry is not None:
                yield entry

    def _entry_files(self):
        """(fingerprint, path) of each stored entry, in name order."""
        for name in sorted(_listdir_or_empty(self.tasks_dir)):
            if name.endswith(".json") and not name.startswith("."):
                yield name[:-len(".json")], os.path.join(self.tasks_dir, name)

    # -- garbage collection ------------------------------------------------

    def _blob_closure(self, digests) -> set[str]:
        """`digests` plus the members of those that name tree manifests."""
        refs = set(digests)
        for digest in digests:
            try:  # a missing blob is no manifest either
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
        with os.fdopen(os.open(lock, os.O_WRONLY | os.O_CREAT, 0o644), "wb") as held:
            try:
                fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise GcLockError("gc lock held (%s); another gc in progress?"
                                  % lock) from None
            report = GcReport()
            roots = set(keep_blobs)
            for fingerprint, path in self._entry_files():
                try:
                    entry = read_entry(path)
                except (ValueError, KeyError, TypeError, OSError):
                    entry = None
                if entry is not None and entry.run_id in keep_runs:
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
                    else:  # no chmod: a placed output may share the inode
                        os.unlink(path)
                        report.removed_blobs.append(digest)
            return report


_temp_serial = itertools.count()


def _create_temp(directory: str, name: str, mode: int):
    """(path, fd) of a new file `.<name>.<pid>-<tid>-<n>` in `directory`,
    open for writing and named for this process, thread and call, so no
    other writer uses it. `directory` is made only when the first create
    misses it."""
    made = False
    while True:
        path = os.path.join(directory, ".%s.%d-%d-%d" % (
            name, os.getpid(), threading.get_ident(), next(_temp_serial)))
        try:
            return path, os.open(path, _NEW_FILE, mode)
        except FileNotFoundError:
            if made:
                raise
            os.makedirs(directory, exist_ok=True)
            made = True
        except FileExistsError:
            pass  # left by a dead writer that had this pid and thread id


def replace_file(path: str, data: bytes):
    """Replace `path` with `data` by atomic rename of a temp file beside
    it, created with the mode a plain open() gives. Readers see the old
    bytes or the new, never a part."""
    tmp, fd = _create_temp(os.path.dirname(path), os.path.basename(path), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def encode_record(data: dict) -> bytes:
    """The bytes of an entry or stamp: compact JSON and a newline."""
    return (json.dumps(data, separators=(",", ":")) + "\n").encode()


def read_entry(path: str, kind=CacheEntry):
    """The entry or stamp stored at `path`, read as `kind`: CacheEntry,
    or a subclass whose from_data reads more of the record. Raises
    OSError, or ValueError, KeyError or TypeError for bytes that are no
    entry."""
    with open(path, encoding="utf-8") as fh:
        return kind.from_data(json.load(fh))


def _making_shard(move, src: str, dest: str):
    """move(src, dest), making dest's directory when the move misses it."""
    try:
        move(src, dest)
    except FileNotFoundError:  # first blob in this shard
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        move(src, dest)


def link_file(src: str, dest: str) -> bool:
    """Hard-link src at dest, replacing dest; copy it, mode included,
    where the filesystem has no hard links. A dest that is src's inode
    already is left as it is. An old dest is removed, and a missing
    parent directory made, only when the link meets one. Returns
    whether dest is src's inode, False for a copy."""
    try:
        os.link(src, dest)
        return True
    except FileExistsError:
        if os.path.samestat(os.lstat(dest), os.stat(src)):
            return True
        os.unlink(dest)
    except FileNotFoundError:
        os.makedirs(os.path.dirname(dest) or ".", exist_ok=True)
    except OSError:
        shutil.copy(src, dest)
        return False
    try:
        os.link(src, dest)
        return True
    except OSError:
        shutil.copy(src, dest)
        return False


def scan_tree(root: str, members) -> tuple[dict, list]:
    """The one reading of a placed directory, following no symlink:
    member -> DirEntry of each regular file at a relpath in `members`,
    and the DirEntry of all else but a directory on a member's path. A
    symlink or a file at `root` raises NotADirectoryError."""
    if not stat.S_ISDIR(os.lstat(root).st_mode):
        raise NotADirectoryError("not a directory: %s" % root)
    found, others, dirs, pending = {}, [], None, [("", root)]
    while pending:
        prefix, path = pending.pop()
        with os.scandir(path) as listing:
            for item in listing:
                rel = prefix + item.name
                if rel in members and item.is_file(follow_symlinks=False):
                    found[rel] = item
                    continue
                if item.is_dir(follow_symlinks=False):
                    if dirs is None:  # those members sit in, once one is met
                        dirs = {m.rsplit("/", i)[0] for m in members
                                for i in range(1, m.count("/") + 1)}
                    if rel in dirs:
                        pending.append((rel + "/", item.path))
                        continue
                others.append(item)
    return found, others


def _prune(root: str, entries: dict):
    """Remove all that scan_tree finds in `root` beside the tree `entries`."""
    try:
        others = scan_tree(root, entries)[1]
    except FileNotFoundError:  # nothing is there
        os.makedirs(root)
        return
    for item in others:
        (shutil.rmtree if item.is_dir(follow_symlinks=False) else os.unlink)(item.path)


def stat_record(st: os.stat_result) -> list:
    """The record of a placed file's stat, as a stamp holds it."""
    return [st.st_ino, st.st_size, st.st_mtime_ns]


def _listdir_or_empty(path: str) -> list:
    try:
        return os.listdir(path)
    except OSError:
        return []
