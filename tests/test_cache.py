"""Content-addressed store: digests, atomicity, corruption, gc."""

import hashlib
import json
import os
import threading

import pytest

from flowforge import cache
from flowforge.cache import CacheEntry, CacheStore, GcLockError
from flowforge.canon import file_digest, tree_digest


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


def test_gc_removes_corrupt_entries(store, tmp_path):
    store.put_entry(CacheEntry("4" * 64, "r1", {}, {}))
    with open(store.entry_path("4" * 64), "w", encoding="utf-8") as fh:
        fh.write("garbage")
    report = store.gc(keep_runs={"r1"})
    assert "4" * 64 in report.removed_entries


def test_gc_lock_exclusive(store):
    os.makedirs(store.root, exist_ok=True)
    lock = os.path.join(store.root, "gc.lock")
    with open(lock, "w"):
        pass
    with pytest.raises(GcLockError):
        store.gc(keep_runs=set())
    os.unlink(lock)
    store.gc(keep_runs=set())  # lock released by the failed attempt's owner
