import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest
from hypothesis import settings

from flowforge.fixtures import fixture_path

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")

USECASE_DIR = fixture_path("usecase")
NEGATIVE_DIR = fixture_path("negative")


def cli(*args, cwd=None, env_extra=None, timeout=120):
    """Run the command-line interface in a subprocess.

    Exercises the installed entry point end to end: argument parsing,
    exit codes, and output exactly as a user sees them.
    """
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "flowforge", *[str(a) for a in args]],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout)


@pytest.fixture
def ws(tmp_path):
    path = tmp_path / "ws"
    return str(path)


@pytest.fixture
def usecase_copy(tmp_path):
    """A private, mutable copy of the six-step example for perturbation."""
    dest = tmp_path / "usecase"
    shutil.copytree(USECASE_DIR, dest)
    return str(dest)


def run_ids(ws):
    runs_dir = os.path.join(ws, "runs")
    if not os.path.isdir(runs_dir):
        return []
    return sorted(n for n in os.listdir(runs_dir)
                  if os.path.isdir(os.path.join(runs_dir, n)))


def read_journal(ws, run_id):
    from flowforge.runstate import read_events
    events, _ = read_events(os.path.join(ws, "runs", run_id, "events.ndjson"))
    return events


def started_tasks(events):
    return [e.task for e in events if e.kind == "task-started"]


def finished_states(events):
    return {e.task: e.payload.get("state")
            for e in events if e.kind == "task-finished"}


def load_prov(ws, run_id):
    path = os.path.join(ws, "runs", run_id, "provenance.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def assert_blobs_match_names(ws):
    """Every blob in the workspace's store hashes to the name it is
    filed under; hashed here with hashlib, independently of the engine."""
    objects = os.path.join(ws, "cache", "objects")
    for dirpath, _, names in os.walk(objects):
        for name in names:
            if name.startswith("."):
                continue
            with open(os.path.join(dirpath, name), "rb") as fh:
                actual = hashlib.sha256(fh.read()).hexdigest()
            assert actual == name, "blob %s holds bytes hashing to %s" % (
                name, actual)


def assert_store_sealed(ws):
    """assert_blobs_match_names, and the seal that keeps placed outputs
    from reaching the store: every blob is read-only, and every file
    placed in the workspace (outside cache/, runs/ and .flowforge/) is
    recorded by a stamp and shares its inode with a blob that stamp
    names, a file output or a member of a directory output; and no file
    under runs/ (the tasks' sandboxes) or .flowforge/ shares its inode
    with a blob."""
    from flowforge.cache import CacheError, CacheStore

    assert_blobs_match_names(ws)
    store = CacheStore(os.path.join(ws, "cache"))
    blobs = {}  # (device, inode) -> digest
    for dirpath, _, names in os.walk(store.objects_dir):
        for name in names:
            if not name.startswith("."):
                st = os.stat(os.path.join(dirpath, name))
                assert st.st_mode & 0o222 == 0, "blob %s is writable" % name
                blobs[st.st_dev, st.st_ino] = name
    named = {}  # workspace relpath -> the digests of the stamp recording it
    stamps = os.path.join(ws, ".flowforge", "stamps")
    for task in os.listdir(stamps) if os.path.isdir(stamps) else ():
        with open(os.path.join(stamps, task), encoding="utf-8") as fh:
            stamp = json.load(fh)
        digests = set(stamp["files"].values())
        for digest in stamp["files"].values():
            try:
                digests.update(store.read_tree_manifest(digest)["entries"].values())
            except CacheError:
                pass  # a file output
        named.update(dict.fromkeys(stamp.get("placed", {}), digests))
    for dirpath, dirnames, filenames in os.walk(ws):
        if dirpath == ws:
            dirnames[:] = [d for d in dirnames if d != "cache"]
        for name in filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, ws).replace(os.sep, "/")
            st = os.lstat(path)
            digest = blobs.get((st.st_dev, st.st_ino))
            if rel.split("/")[0] in ("runs", ".flowforge"):
                assert digest is None, "%s is a link to blob %s" % (rel, digest)
                continue
            assert rel in named, "no stamp records the placed file %s" % rel
            assert digest in named[rel], (
                "%s shares no inode with a blob its stamp names" % rel)
