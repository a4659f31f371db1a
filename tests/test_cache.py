"""Content-addressed store: digests, atomicity, corruption, gc."""

import fcntl
import hashlib
import json
import os
import stat
import sys
import threading

import pytest

from flowforge import cache
from flowforge.cache import CacheEntry, CacheStore, GcLockError
from flowforge.canon import CHUNK, canon_bytes, file_digest, tree_digest, tree_manifest


@pytest.fixture
def store(tmp_path):
    return CacheStore(str(tmp_path / "cache"))


def put_bytes(store, data, tmp_path, name="blob.bin"):
    src = tmp_path / name
    src.write_bytes(data)
    return store.put_blob(str(src))


def test_reads_make_no_directories(tmp_path):
    root = tmp_path / "cache"
    store = CacheStore(str(root))
    assert not store.has_blob("0" * 64)
    assert store.get_entry("0" * 64) is None
    assert list(store.entries()) == []
    assert not root.exists()


def test_put_get_round_trip(store, tmp_path):
    digest = put_bytes(store, b"payload", tmp_path)
    assert digest == file_digest(str(tmp_path / "blob.bin"))
    assert store.has_blob(digest)
    with store.open_blob(digest) as fh:
        assert fh.read() == b"payload"


def test_put_is_idempotent(store, tmp_path):
    d1 = put_bytes(store, b"same", tmp_path, "a.bin")
    d2 = put_bytes(store, b"same", tmp_path, "b.bin")
    assert d1 == d2


def test_concurrent_puts_of_same_content(store, tmp_path):
    sources = []
    for i in range(4):
        p = tmp_path / ("s%d.bin" % i)
        p.write_bytes(b"racy content")
        sources.append(str(p))
    digests = []
    threads = [threading.Thread(target=lambda s=s: digests.append(store.put_blob(s)))
               for s in sources]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(digests)) == 1
    with store.open_blob(digests[0]) as fh:
        assert fh.read() == b"racy content"


def current_umask():
    mask = os.umask(0)
    os.umask(mask)
    return mask


def test_concurrent_writes_into_a_fresh_store(store, tmp_path):
    """Writers racing to make objects/, a shard and tasks/ all succeed:
    one that loses a makedirs race retries instead of raising."""
    nthreads = 16
    sources = []
    for i in range(nthreads):
        same = tmp_path / ("same%d.bin" % i)
        same.write_bytes(b"identical bytes")
        distinct = tmp_path / ("distinct%d.bin" % i)
        distinct.write_bytes(b"distinct bytes %d" % i)
        sources.append((str(same), str(distinct)))
    start = threading.Barrier(nthreads)
    digests, errors = [], []

    def writer(i):
        try:
            start.wait()
            same, distinct = sources[i]
            put = [store.put_blob(same), store.put_blob(distinct),
                   store.put_blob(b"bytes %d" % (i % 4))]
            store.put_entry(CacheEntry("%064x" % i, "r1", {"o": put[1]}, {}))
            digests.extend(put)
        except BaseException as exc:  # collected: a thread cannot fail the test
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(nthreads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(set(digests)) == 1 + nthreads + 4
    assert len(list(store.entries())) == nthreads
    mode = cache.BLOB_MODE & ~current_umask()
    blobs = set()
    for dirpath, _, names in os.walk(store.root):
        for name in names:
            assert not name.startswith("."), name  # no temp file left
            path = os.path.join(dirpath, name)
            if dirpath.startswith(store.objects_dir):
                with open(path, "rb") as fh:
                    assert hashlib.sha256(fh.read()).hexdigest() == name
                assert stat.S_IMODE(os.stat(path).st_mode) == mode
                blobs.add(name)
    assert blobs == set(digests)


def test_a_stored_blob_is_never_replaced(store, tmp_path):
    """Workspaces and sandboxes hard-link blobs: storing the same bytes
    again must keep the one inode they share."""
    digest = store.put_blob(b"shared bytes")
    inode = os.stat(store.blob_path(digest)).st_ino
    assert store.put_blob(b"shared bytes") == digest
    assert put_bytes(store, b"shared bytes", tmp_path) == digest
    assert os.stat(store.blob_path(digest)).st_ino == inode


class CreateCountingOs:
    """Stands in for `os` inside flowforge.cache: records each open
    with O_CREAT that succeeds."""

    def __init__(self):
        self.creates = []

    def __getattr__(self, name):
        return getattr(os, name)

    def open(self, path, flags, *args, **kwargs):
        fd = os.open(path, flags, *args, **kwargs)
        if flags & os.O_CREAT:
            self.creates.append(path)
        return fd


def blob_inodes(store):
    return {name: os.stat(os.path.join(dirpath, name)).st_ino
            for dirpath, _, names in os.walk(store.objects_dir) for name in names}


def test_restoring_stored_content_creates_nothing(store, tmp_path, monkeypatch):
    """Storing a directory costs one create per new member and for its
    manifest; storing it again creates no file and keeps every inode
    that sandboxes and workspaces may have linked."""
    n = 200
    src = tmp_path / "tree"
    src.mkdir()
    for i in range(n):
        (src / ("m%d" % i)).write_bytes(b"member %d\n" % i)
    counting = CreateCountingOs()
    monkeypatch.setattr(cache, "os", counting)
    digest = store.put_tree(str(src))
    assert len(counting.creates) == n + 1
    inodes = blob_inodes(store)
    assert len(inodes) == n + 1
    counting.creates.clear()
    assert store.put_tree(str(src)) == digest
    assert counting.creates == []
    assert blob_inodes(store) == inodes


def test_blob_is_named_by_the_bytes_it_holds(store, tmp_path, monkeypatch):
    """A source rewritten just after it was hashed must not be stored
    under the old digest: the store names the bytes it copied."""
    src = tmp_path / "racy.bin"
    src.write_bytes(b"first version")
    real = cache.file_digest

    def hash_then_rewrite(path, *args, **kwargs):
        digest = real(path, *args, **kwargs)
        with open(path, "wb") as fh:
            fh.write(b"second, longer version")
        return digest

    monkeypatch.setattr(cache, "file_digest", hash_then_rewrite)
    digest = store.put_blob(str(src))
    with store.open_blob(digest) as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_no_partial_blob_on_failed_put(store, tmp_path):
    with pytest.raises(OSError):
        store.put_blob(str(tmp_path / "missing.bin"))
    objects = os.path.join(store.root, "objects")
    leftovers = []
    for dirpath, _, files in os.walk(objects):
        leftovers.extend(os.path.join(dirpath, f) for f in files)
    assert leftovers == []


def test_materialize_blob(store, tmp_path):
    digest = put_bytes(store, b"abc", tmp_path)
    dest = tmp_path / "out" / "copy.bin"
    store.materialize_blob(digest, str(dest))
    assert dest.read_bytes() == b"abc"


def test_corrupt_blob_detected_as_miss(store, tmp_path):
    digest = put_bytes(store, b"good bytes", tmp_path)
    entry = CacheEntry("f" * 64, "r1", {"out": digest}, {})
    store.put_entry(entry)
    assert store.get_entry("f" * 64) is not None
    path = store.blob_path(digest)
    os.chmod(path, 0o644)
    os.unlink(path)
    assert store.get_entry("f" * 64) is None  # missing blob poisons the entry


def test_unparseable_entry_is_miss(store, tmp_path):
    fp = "e" * 64
    store.put_entry(CacheEntry(fp, "r1", {}, {"n": 1}))
    with open(store.entry_path(fp), "w", encoding="utf-8") as fh:
        fh.write("{not json")
    assert store.get_entry(fp) is None


def test_entry_round_trip(store, tmp_path):
    digest = put_bytes(store, b"artifact", tmp_path)
    entry = CacheEntry("a" * 64, "r42", {"out": digest}, {"n": 9})
    store.put_entry(entry)
    back = store.get_entry("a" * 64)
    assert back.run_id == "r42"
    assert back.file_outputs == {"out": digest}
    assert back.value_outputs == {"n": 9}
    assert [e.fingerprint for e in store.entries()] == ["a" * 64]


def test_tree_round_trip(store, tmp_path):
    src = tmp_path / "tree"
    (src / "sub").mkdir(parents=True)
    (src / "top.txt").write_bytes(b"t")
    (src / "sub" / "leaf.txt").write_bytes(b"l")
    digest = store.put_tree(str(src))
    assert digest == tree_digest(str(src))
    dest = tmp_path / "restored"
    store.materialize_tree(digest, str(dest))
    assert tree_digest(str(dest)) == digest
    assert (dest / "sub" / "leaf.txt").read_bytes() == b"l"


def test_gc_keeps_by_producing_run(store, tmp_path):
    d_keep = put_bytes(store, b"keep me", tmp_path, "k.bin")
    d_drop = put_bytes(store, b"drop me", tmp_path, "d.bin")
    store.put_entry(CacheEntry("1" * 64, "r-keep", {"o": d_keep}, {}))
    store.put_entry(CacheEntry("2" * 64, "r-old", {"o": d_drop}, {}))
    report = store.gc(keep_runs={"r-keep"})
    assert report.kept_entries == 1
    assert report.removed_entries == ["2" * 64]
    assert d_drop in report.removed_blobs
    assert store.has_blob(d_keep)
    assert not store.has_blob(d_drop)
    assert store.get_entry("1" * 64) is not None


def test_gc_keeps_tree_members(store, tmp_path):
    src = tmp_path / "tree"
    src.mkdir()
    (src / "member.txt").write_bytes(b"member bytes")
    tdigest = store.put_tree(str(src))
    member = file_digest(str(src / "member.txt"))
    store.put_entry(CacheEntry("3" * 64, "r1", {"o": tdigest}, {}))
    report = store.gc(keep_runs={"r1"})
    assert not report.removed_blobs
    assert store.has_blob(member)


@pytest.mark.parametrize("data", [
    b"i\xf5 binary output;", b"s99999:" + bytes(range(256)), b"l" * 5000],
    ids=["number-tag", "string-tag", "deep-list"])
def test_gc_keeps_binary_file_outputs(store, tmp_path, data):
    digest = put_bytes(store, data, tmp_path)
    store.put_entry(CacheEntry("5" * 64, "r1", {"o": digest}, {}))
    report = store.gc(keep_runs={"r1"})
    assert report.kept_entries == 1
    assert report.removed_entries == [] and report.removed_blobs == []
    assert store.has_blob(digest)


class ReadCountingFile:
    """A blob handle that adds the bytes each read returns to a count."""

    def __init__(self, fh, counts):
        self._fh, self._counts = fh, counts

    def read(self, *args):
        data = self._fh.read(*args)
        self._counts[self._fh.name] = self._counts.get(self._fh.name, 0) + len(data)
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def test_gc_reads_only_the_head_of_a_file_output(store, tmp_path, monkeypatch):
    """gc tells a file output from a tree manifest by its first 13 bytes:
    a 4 MiB output is not read whole into memory."""
    src = tmp_path / "big.out"
    with open(src, "wb") as fh:
        fh.write(b"ms7:entries;")  # a manifest's head, short by one byte
        fh.truncate(4 << 20)
    digest = store.put_blob(str(src))
    store.put_entry(CacheEntry("6" * 64, "r1", {"o": digest}, {}))
    counts = {}
    monkeypatch.setattr(cache, "open", lambda *a, **k: ReadCountingFile(open(*a, **k), counts),
                        raising=False)
    report = store.gc(keep_runs={"r1"})
    assert (report.kept_entries, report.kept_blobs, report.removed_blobs) == (1, 1, [])
    assert counts[store.blob_path(digest)] <= 13


def stored_tree(store, tmp_path):
    """(tree digest, its manifest bytes, its member digests)."""
    src = tmp_path / "tree"
    src.mkdir()
    (src / "a.txt").write_bytes(b"member a")
    (src / "b.txt").write_bytes(b"member b")
    digest = store.put_tree(str(src))
    members = sorted(file_digest(str(p)) for p in (src / "a.txt", src / "b.txt"))
    return digest, canon_bytes(tree_manifest(str(src))), members


@pytest.mark.parametrize("case", [
    "truncated-manifest", "kind-blob", "output-equals-manifest", "missing-root"])
def test_gc_verdicts_on_manifest_lookalikes(store, tmp_path, case):
    """Which kept outputs gc treats as trees: only a whole, decodable
    manifest of kind "tree" keeps its members; a missing root is skipped."""
    tree, manifest, members = stored_tree(store, tmp_path)
    if case == "truncated-manifest":
        output = put_bytes(store, manifest[:-3], tmp_path)
    elif case == "kind-blob":
        output = put_bytes(store, canon_bytes(
            {"entries": {"a.txt": members[0]}, "kind": "blob"}), tmp_path)
    elif case == "output-equals-manifest":
        output = put_bytes(store, manifest, tmp_path)
    else:
        output = put_bytes(store, b"to be lost", tmp_path)
    store.put_entry(CacheEntry("7" * 64, "r1", {"o": output}, {}))
    if case == "missing-root":
        os.unlink(store.blob_path(output))
    report = store.gc(keep_runs={"r1"})
    assert report.kept_entries == 1 and report.removed_entries == []
    if case == "output-equals-manifest":
        assert output == tree
        assert (report.kept_blobs, report.removed_blobs) == (3, [])
    elif case == "missing-root":
        assert report.kept_blobs == 0
        assert sorted(report.removed_blobs) == sorted(members + [tree])
    else:
        assert report.kept_blobs == 1
        assert sorted(report.removed_blobs) == sorted(members + [tree])
        assert store.has_blob(output)


def test_gc_removes_corrupt_entries(store, tmp_path):
    store.put_entry(CacheEntry("4" * 64, "r1", {}, {}))
    with open(store.entry_path("4" * 64), "w", encoding="utf-8") as fh:
        fh.write("garbage")
    report = store.gc(keep_runs={"r1"})
    assert "4" * 64 in report.removed_entries


def test_gc_lock_exclusive(store):
    os.makedirs(store.root, exist_ok=True)
    lock = os.path.join(store.root, "gc.lock")
    with open(lock, "w") as other_gc:
        fcntl.flock(other_gc, fcntl.LOCK_EX | fcntl.LOCK_NB)
        with pytest.raises(GcLockError):
            store.gc(keep_runs=set())
    store.gc(keep_runs=set())  # released when the other gc closed the file


def test_a_lock_file_left_by_a_killed_gc_does_not_block_gc(store):
    """The lock is an flock, which dies with its holder; the file stays."""
    os.makedirs(store.root, exist_ok=True)
    lock = os.path.join(store.root, "gc.lock")
    with open(lock, "w"):
        pass
    store.put_entry(CacheEntry("5" * 64, "r-gone", {}, {}))
    report = store.gc(keep_runs=set())
    assert report.removed_entries == ["5" * 64]
    assert os.path.exists(lock)


@pytest.mark.parametrize("adopt", [False, True])
@pytest.mark.parametrize("size", [10, CHUNK + 10])  # into memory, through a temp file
def test_a_stored_blob_of_the_wrong_size_is_replaced(store, tmp_path, size, adopt):
    (tmp_path / "first").write_bytes(b"x" * size)
    digest = store.put_blob(str(tmp_path / "first"))
    blob = store.blob_path(digest)
    os.chmod(blob, 0o644)
    with open(blob, "ab") as fh:
        fh.write(b"damage")
    (tmp_path / "again").write_bytes(b"x" * size)
    assert store.put_blob(str(tmp_path / "again"), adopt=adopt) == digest
    assert file_digest(blob) == digest
    assert stat.S_IMODE(os.stat(blob).st_mode) == 0o444


def test_an_output_that_changes_while_adopted_is_not_stored(store, tmp_path, monkeypatch):
    src = tmp_path / "out"
    src.write_bytes(b"first\n")
    real = cache.file_digest

    def digest_then_write(path, **kwargs):
        digest = real(path, **kwargs)
        writer.write(b"late\n")
        writer.flush()
        return digest

    monkeypatch.setattr(cache, "file_digest", digest_then_write)
    # opened before the file was made read-only, as by a task's leftover process
    with open(src, "ab") as writer:
        with pytest.raises(cache.CacheError, match="output changed while being stored"):
            store.put_blob(str(src), adopt=True)
    assert not store.has_blob(hashlib.sha256(b"first\n").hexdigest())


def test_entries_are_compact_and_indented_ones_still_read(store, tmp_path):
    entry = CacheEntry("e" * 64, "r1", {}, {"n": 1})
    store.put_entry(entry)
    with open(store.entry_path("e" * 64), "rb") as fh:
        assert fh.read() == b'{"fingerprint":"%s","run":"r1","files":{},"values":{"n":1}}\n' % (
            b"e" * 64)
    with open(store.entry_path("e" * 64), "w") as fh:  # as earlier versions wrote it
        json.dump(entry.to_data(), fh, indent=1)
    assert store.get_entry("e" * 64) == entry
