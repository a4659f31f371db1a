"""Provenance records, the run index, lineage queries, DOT export."""

import json
import os
import re
import shutil
import threading
import time

import pytest

from flowforge.cache import CacheEntry, CacheStore
from flowforge.executors.batch import _read_state, _write_state
from flowforge.model import WorkflowLoader, flatten, parse_workflow
from flowforge.provenance import (ProvenanceDoc, TaskProvRecord, export_dot,
                                  lineage, load_doc, record, update_index,
                                  write_doc)
from flowforge.runstate import RunEvent
from flowforge.scheduler import read_stamp, stamp_path, write_stamp

from conftest import USECASE_DIR, cli, load_prov, read_journal
from dot_checker import DotError, parse_dot


def seq_events(specs):
    return [RunEvent(i + 1, "2026-08-19T00:00:%02d+00:00" % i, kind, task,
                     payload)
            for i, (kind, task, payload) in enumerate(specs)]


def sample_events(finished=True):
    specs = [
        ("run-started", None, {
            "run_id": "r-one", "tasks": ["gen", "use"],
            "workflow_digest": "w" * 64, "engine": "flowforge 0.1.0",
            "user": "tester", "hostname": "box",
            "params": {"size": 2.0},
            "sinks": {"final": ["use", "out"]}}),
        ("task-started", "gen", {"fingerprint": "a" * 64}),
        ("task-finished", "gen", {
            "state": "succeeded", "fingerprint": "a" * 64, "exit_code": 0,
            "outputs": {"files": {"out": "1" * 64}, "values": {}},
            "env": {"fingerprint": "e" * 64, "spec": "none"},
            "executor": "local",
            "inputs": {"literals": {}, "files": {}, "sources": {}}}),
        ("task-started", "use", {"fingerprint": "b" * 64}),
        ("task-finished", "use", {
            "state": "succeeded", "fingerprint": "b" * 64, "exit_code": 0,
            "outputs": {"files": {"out": "2" * 64}, "values": {"n": 9}},
            "env": {"fingerprint": "e" * 64, "spec": "none"},
            "executor": "local",
            "inputs": {"literals": {}, "files": {"x": "1" * 64},
                       "sources": {"x": "gen.out"}}}),
    ]
    if finished:
        specs.append(("run-finished", None, {"state": "succeeded"}))
    return seq_events(specs)


def test_record_builds_document():
    doc = record(sample_events())
    assert doc.run_id == "r-one"
    assert doc.workflow_digest == "w" * 64
    assert not doc.incomplete
    assert [r.task for r in doc.records] == ["gen", "use"]
    gen, use = doc.records
    assert gen.action == "Execute"
    assert gen.output_files == {"out": "1" * 64}
    assert gen.started == "2026-08-19T00:00:01+00:00"
    assert gen.finished == "2026-08-19T00:00:02+00:00"
    assert use.input_sources == {"x": "gen.out"}
    assert doc.workflow_outputs == {
        "final": {"task": "use", "port": "out", "digest": "2" * 64}}


def test_record_is_pure():
    events = sample_events()
    assert record(events).to_data() == record(events).to_data()


def test_unfinished_run_marked_incomplete():
    doc = record(sample_events(finished=False))
    assert doc.incomplete


def test_actions_for_states():
    events = seq_events([
        ("run-started", None, {"run_id": "r-x", "tasks": list("abcd")}),
        ("task-started", "a", {}),
        ("task-finished", "a", {"state": "failed", "exit_code": 3,
                                "fingerprint": "a" * 64}),
        ("task-finished", "b", {"state": "cached", "fingerprint": "b" * 64,
                                "cached_from": "r-old"}),
        ("task-finished", "c", {"state": "blocked"}),
        ("task-finished", "d", {"state": "aborted"}),
        ("run-finished", None, {"state": "failed"}),
    ])
    doc = record(events)
    records = {r.task: r for r in doc.records}
    assert {t: r.action for t, r in records.items()} == {
        "a": "Execute", "b": "LinkCached", "c": "Blocked", "d": "Aborted"}
    assert records["a"].exit_code == 3
    assert records["b"].cached_from == "r-old"


def test_skipped_tasks_carry_no_record():
    events = seq_events([
        ("run-started", None, {"run_id": "r-s", "tasks": ["a"]}),
        ("task-finished", "a", {"state": "skipped-up-to-date",
                                "fingerprint": "a" * 64}),
        ("run-finished", None, {"state": "succeeded"}),
    ])
    assert record(events).records == []


def store_doc(runs, doc):
    run_dir = runs / doc.run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    write_doc(str(run_dir), doc)
    update_index(str(runs), doc)


def test_write_load_round_trip(tmp_path):
    runs = tmp_path / "runs"
    doc = record(sample_events())
    store_doc(runs, doc)
    again = load_doc(str(runs), "r-one")
    assert again.to_data() == doc.to_data()


def test_index_fold_and_rebuild(tmp_path):
    runs = tmp_path / "runs"
    doc = record(sample_events())
    store_doc(runs, doc)
    with open(runs / "index.json", encoding="utf-8") as fh:
        index = json.load(fh)
    assert index["artifacts"]["1" * 64] == [["r-one", "gen"]]
    assert index["artifacts"]["2" * 64] == [["r-one", "use"]]
    # corrupt index rebuilds from documents
    (runs / "index.json").write_text("}{ broken")
    update_index(str(runs), doc)
    with open(runs / "index.json", encoding="utf-8") as fh:
        rebuilt = json.load(fh)
    assert rebuilt == index


def second_run_events():
    return seq_events([
        ("run-started", None, {
            "run_id": "r-two", "tasks": ["refine"],
            "params": {}, "sinks": {}}),
        ("task-started", "refine", {"fingerprint": "c" * 64}),
        ("task-finished", "refine", {
            "state": "succeeded", "fingerprint": "c" * 64, "exit_code": 0,
            "outputs": {"files": {"out": "3" * 64}, "values": {}},
            "env": {"fingerprint": "e" * 64, "spec": "none"},
            "executor": "local",
            "inputs": {"literals": {}, "files": {"x": "2" * 64},
                       "sources": {"x": "use.out"}}}),
        ("run-finished", None, {"state": "succeeded"}),
    ])


def test_lineage_walks_files_values_and_runs(tmp_path):
    runs = tmp_path / "runs"
    for events in (sample_events(), second_run_events()):
        store_doc(runs, record(events))

    # from the terminal artifact back through both runs
    result = lineage(str(runs), "3" * 64)
    assert result.found
    assert {t for _, t in result.tasks} == {"refine", "use", "gen"}
    assert set(result.artifacts) >= {"3" * 64, "2" * 64, "1" * 64}
    # a root artifact implicates only its producer
    assert {t for _, t in lineage(str(runs), "1" * 64).tasks} == {"gen"}
    # unknown digests come back empty
    missing = lineage(str(runs), "f" * 64)
    assert not missing.found and {t for _, t in missing.tasks} == set()


def test_lineage_crosses_value_edges(tmp_path):
    runs = tmp_path / "runs"
    events = seq_events([
        ("run-started", None, {"run_id": "r-v", "tasks": ["sim", "macro"],
                               "params": {}, "sinks": {}}),
        ("task-started", "sim", {}),
        ("task-finished", "sim", {
            "state": "succeeded", "fingerprint": "a" * 64, "exit_code": 0,
            "outputs": {"files": {}, "values": {"n": 9}},
            "env": {"fingerprint": "e" * 64, "spec": "none"},
            "executor": "local",
            "inputs": {"literals": {}, "files": {}, "sources": {}}}),
        ("task-started", "macro", {}),
        ("task-finished", "macro", {
            "state": "succeeded", "fingerprint": "b" * 64, "exit_code": 0,
            "outputs": {"files": {"out": "9" * 64}, "values": {}},
            "env": {"fingerprint": "e" * 64, "spec": "none"},
            "executor": "local",
            "inputs": {"literals": {"n": 9}, "files": {},
                       "sources": {"n": "sim.n"}}}),
        ("run-finished", None, {"state": "succeeded"}),
    ])
    store_doc(runs, record(events))
    result = lineage(str(runs), "9" * 64)
    # the value-only edge still pulls the producing task in
    assert {t for _, t in result.tasks} == {"macro", "sim"}


# -- DOT export ----------------------------------------------------------------

def usecase_flat(name="usecase.wf"):
    path = os.path.join(USECASE_DIR, name)
    with open(path, encoding="utf-8") as fh:
        wf = parse_workflow(fh.read(), source=path)
    return flatten(wf, WorkflowLoader(), os.path.dirname(path), path)


def test_workflow_dot_structure():
    text = export_dot(usecase_flat())
    graph = parse_dot(text)
    assert graph.graph_attrs.get("rankdir") == "LR"
    assert set(graph.nodes) == {"mesh", "convert", "simulate",
                                "postproc", "macros", "paper"}
    assert all(attrs.get("shape") == "box" for attrs in graph.nodes.values())
    assert len(graph.edges) == 6
    dashed = [(s, d, a) for s, d, a in graph.edges
              if a.get("style") == "dashed"]
    assert len(dashed) == 1
    src, dst, attrs = dashed[0]
    assert (src, dst, attrs["label"]) == ("simulate", "macros", "num_dofs")


def test_workflow_dot_literal_line():
    text = export_dot(usecase_flat())
    assert 'simulate -> macros [label="num_dofs", style=dashed];' in text
    assert text.startswith("digraph {\n")


def test_composed_ids_are_quoted():
    text = export_dot(usecase_flat("usecase_sub.wf"))
    assert '"meshing.mesh"' in text
    assert '"meshing.convert" -> simulate' in text
    graph = parse_dot(text)
    assert "meshing.mesh" in graph.nodes


def test_doc_dot_marks_cached_nodes():
    events = seq_events([
        ("run-started", None, {"run_id": "r-d", "tasks": ["gen", "use"],
                               "params": {}, "sinks": {}}),
        ("task-finished", "gen", {
            "state": "cached", "fingerprint": "a" * 64,
            "outputs": {"files": {"out": "1" * 64}, "values": {}},
            "cached_from": "r-one",
            "env": {"fingerprint": "e" * 64, "spec": "none"},
            "inputs": {"literals": {}, "files": {}, "sources": {}}}),
        ("task-started", "use", {}),
        ("task-finished", "use", {
            "state": "succeeded", "fingerprint": "b" * 64, "exit_code": 0,
            "outputs": {"files": {}, "values": {}},
            "env": {"fingerprint": "e" * 64, "spec": "none"},
            "executor": "local",
            "inputs": {"literals": {}, "files": {"x": "1" * 64},
                       "sources": {"x": "gen.out"}}}),
        ("run-finished", None, {"state": "succeeded"}),
    ])
    text = export_dot(record(events))
    graph = parse_dot(text)
    assert graph.nodes["gen"]["label"] == "gen\n(cached)"
    assert ("gen", "use", {"label": "out"}) in graph.edges


# -- the checker itself ---------------------------------------------------------

def test_checker_accepts_the_subset():
    graph = parse_dot("""
digraph flow {
  rankdir=LR;
  node [shape=box];
  "dotted.id" [shape=box, label="two\\nlines"];
  plain;
  a -> b [label="x", style=dashed]
  "dotted.id" -> a;
}
""")
    assert graph.defaults["node"] == {"shape": "box"}
    assert graph.nodes["dotted.id"]["label"] == "two\nlines"
    assert ("a", "b", {"label": "x", "style": "dashed"}) in graph.edges


@pytest.mark.parametrize("bad", [
    "graph { a -- b }",          # undirected
    "digraph {",                 # unterminated
    'digraph { a -> }',          # missing target
    'digraph { a [label="x] }',  # unterminated string
    "digraph { a -> b } trailing",
    "digraph { a @ b }",
])
def test_checker_rejects_malformed(bad):
    with pytest.raises(DotError):
        parse_dot(bad)


# -- atomic writes ---------------------------------------------------------------

def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# writer(root) -> (write, the path it replaces, a reader of that path)
def stamp_writer(root):
    return (lambda: write_stamp(str(root), "t", CacheEntry("f" * 64, "r1", {}, {})),
            stamp_path(str(root), "t"), load_json)


def doc_writer(root):
    root.mkdir()
    return (lambda: write_doc(str(root), ProvenanceDoc("r1")),
            str(root / "provenance.json"), load_json)


def index_writer(root):
    root.mkdir()
    return (lambda: update_index(str(root), ProvenanceDoc("r1")),
            str(root / "index.json"), load_json)


def entry_writer(root):
    store = CacheStore(str(root))
    entry = CacheEntry("f" * 64, "r1", {}, {"n": 1})
    return (lambda: store.put_entry(entry), store.entry_path("f" * 64), load_json)


def state_writer(root):
    path = str(root / "job.state")
    return lambda: _write_state(path, "pending"), path, _read_state


@pytest.mark.parametrize("writer", [stamp_writer, doc_writer, index_writer,
                                    entry_writer, state_writer])
def test_concurrent_writers_of_one_file_use_their_own_temp_files(
        tmp_path, monkeypatch, writer):
    """A second thread writes the same file while the first has written
    its temp file but not yet renamed it into place."""
    write, target, read = writer(tmp_path / "root")
    real_replace = os.replace
    errors, others = [], []

    def second_writer():
        try:
            write()
        except Exception as exc:
            errors.append(exc)

    def replace(src, dst):
        if os.fspath(dst) == target and not others:
            others.append(threading.Thread(target=second_writer))
            others[0].start()
            others[0].join(timeout=30)
            assert not others[0].is_alive()
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    write()
    assert others and not errors
    assert os.listdir(os.path.dirname(target)) == [os.path.basename(target)]
    assert read(target)
    plain = tmp_path / "plain"
    plain.write_text("")
    assert os.stat(target).st_mode == os.stat(plain).st_mode


def test_a_failed_write_leaves_the_old_file_and_no_temp_file(tmp_path):
    write_stamp(str(tmp_path), "t", CacheEntry("a" * 64, "r1", {}, {}))
    with pytest.raises(TypeError):
        write_stamp(str(tmp_path), "t",
                    CacheEntry("b" * 64, "r1", {}, {"v": object()}))
    assert read_stamp(str(tmp_path), "t").fingerprint == "a" * 64
    assert os.listdir(tmp_path / ".flowforge" / "stamps") == ["t"]


@pytest.mark.parametrize("reader", ["get_entry", "entries", "gc", "read_stamp",
                                    "lineage"])
def test_a_record_with_undecodable_bytes_is_ignored(tmp_path, reader):
    """A byte that is no UTF-8 makes a record unreadable, as bad JSON
    does: its reader passes over it (gc removes it) and does not raise."""
    store = CacheStore(str(tmp_path / "cache"))
    store.put_entry(CacheEntry("e" * 64, "r1", {}, {}))
    write_stamp(str(tmp_path), "t", CacheEntry("f" * 64, "r1", {}, {}))
    runs = tmp_path / "runs"
    store_doc(runs, ProvenanceDoc("r1", records=[
        TaskProvRecord("t", "Execute", output_files={"o": "1" * 64})]))
    for path in (store.entry_path("e" * 64), stamp_path(str(tmp_path), "t"),
                 runs / "r1" / "provenance.json"):
        with open(path, "ab") as fh:
            fh.write(b"\xff")
    if reader == "get_entry":
        assert store.get_entry("e" * 64) is None
    elif reader == "entries":
        assert list(store.entries()) == []
    elif reader == "gc":
        assert store.gc({"r1"}).removed_entries == ["e" * 64]
        assert not os.path.exists(store.entry_path("e" * 64))
    elif reader == "read_stamp":
        assert read_stamp(str(tmp_path), "t") is None
    else:
        assert not lineage(str(runs), "1" * 64).found


def test_lineage_is_linear_in_chain_length(tmp_path):
    n = 20000
    digests = ["%064x" % i for i in range(n + 1)]
    doc = ProvenanceDoc("r-long", records=[
        TaskProvRecord("t%d" % i, "Execute",
                       input_files={"x": digests[i]} if i else {},
                       output_files={"o": digests[i + 1]})
        for i in range(n)])
    store_doc(tmp_path / "runs", doc)
    started = time.perf_counter()
    result = lineage(str(tmp_path / "runs"), digests[n])
    elapsed = time.perf_counter() - started
    assert len(result.tasks) == n
    # 0.7 s on 2 CPUs; a linear scan per visited task took 10 s there
    assert elapsed < 3.0, elapsed


# -- documents of real runs ------------------------------------------------------

SCHEMA_DOC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "docs", "provenance-schema.md")


def documented_record_fields():
    """The top-level fields of a task record, from the field table in
    the schema document's "Task records" section."""
    with open(SCHEMA_DOC, encoding="utf-8") as fh:
        section = fh.read().split("\n## Task records\n", 1)[1].split("\n## ", 1)[0]
    return {name.split(".")[0]
            for name in re.findall(r"^\| `([a-z_.]+)`", section, re.M)}


@pytest.fixture(scope="module")
def usecase_runs(tmp_path_factory):
    """(workspace, [executed run, linked run]): the use case run with
    every task executed, then again with every task linked from the
    cache."""
    ws = str(tmp_path_factory.mktemp("usecase") / "ws")
    runs = []
    for policy in ("recompute", "link"):
        proc = cli("run", os.path.join(USECASE_DIR, "usecase.wf"),
                   "--workdir", ws, "--policy", policy)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split()[1])  # "run <id> finished: ..."
    return ws, runs


def copy_of(usecase_runs, tmp_path):
    ws, runs = usecase_runs
    shutil.copytree(ws, tmp_path / "ws", symlinks=True)
    return str(tmp_path / "ws"), runs


def test_the_document_is_the_record_of_the_journal(usecase_runs):
    """provenance.json is record() of the run's journal, and a
    task-finished payload holds nothing but a documented record's
    fields, its state and its error."""
    ws, runs = usecase_runs
    fields = documented_record_fields()
    assert fields == set(TaskProvRecord("t", "Execute").to_data())
    for rid in runs:
        events = read_journal(ws, rid)
        assert load_prov(ws, rid) == record(events).to_data()
        payloads = [ev.payload for ev in events if ev.kind == "task-finished"]
        assert len(payloads) == 6
        for payload in payloads:
            assert set(payload) - {"state", "error"} <= fields, payload
        assert not os.path.exists(os.path.join(ws, "runs", rid, "pid"))


def first_task(**fields):
    """An edit that sets these fields in a document's first task record."""
    return lambda doc: dict(doc, tasks=[dict(doc["tasks"][0], **fields)]
                            + doc["tasks"][1:])


# name -> (edit of the document, bytes written after it)
MALFORMED = {
    "tasks-hold-a-string": (lambda doc: dict(doc, tasks=["x"]), b""),
    "env-is-a-string": (first_task(env="none"), b""),
    "inputs-is-a-list": (first_task(inputs=[]), b""),
    "outputs-is-a-list": (first_task(outputs=[]), b""),
    "task-is-a-number": (first_task(task=5), b""),
    "not-utf-8": (lambda doc: doc, b"\xff"),
}


@pytest.mark.parametrize("command", ["lineage", "gc", "export"])
@pytest.mark.parametrize("damage", sorted(MALFORMED))
def test_a_malformed_document_is_passed_over(usecase_runs, tmp_path, damage,
                                             command):
    """lineage and gc read the other run's document; export rebuilds the
    damaged one from its journal."""
    ws, (executed, linked) = copy_of(usecase_runs, tmp_path)
    original = load_prov(ws, executed)
    edit, tail = MALFORMED[damage]
    with open(os.path.join(ws, "runs", executed, "provenance.json"), "wb") as fh:
        fh.write(json.dumps(edit(original)).encode() + tail)
    if command == "lineage":
        digest = original["workflow_outputs"]["paper"]["digest"]
        proc = cli("prov", "lineage", digest, "--workdir", ws)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["found"]
        assert {t["run"] for t in result["tasks"]} == {linked}
    elif command == "gc":
        proc = cli("cache", "gc", "--workdir", ws)
        assert proc.returncode == 0, proc.stderr
        assert "kept 6 entries" in proc.stdout
        assert "removed 0 entries, 0 blobs" in proc.stdout
    else:
        proc = cli("prov", "export", executed, "--workdir", ws)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == original


def corrupt_middle_line(lines):
    lines[1] = b"!!! not json\n"


def old_payload_layout(lines):
    """Task-finished payloads as journals held them before they took the
    record's layout."""
    for i, line in enumerate(lines):
        event = json.loads(line)
        payload = event.get("payload", {})
        if event["kind"] == "task-finished" and "env" in payload:
            outputs, env = payload.pop("outputs"), payload.pop("env")
            payload.update(files=outputs["files"], values=outputs["values"],
                           env=env["fingerprint"], env_spec=env["spec"])
            lines[i] = (json.dumps(event) + "\n").encode()


def payload_is_a_list(lines):
    event = json.loads(lines[0])
    assert event["kind"] == "run-started"
    event["payload"] = []
    lines[0] = (json.dumps(event) + "\n").encode()


@pytest.mark.parametrize("command,damage", [
    ("status", corrupt_middle_line),
    ("export", corrupt_middle_line),
    ("export", old_payload_layout),
    ("status", payload_is_a_list),
    ("export", payload_is_a_list),
])
def test_an_unreadable_journal_exits_2(usecase_runs, tmp_path, command, damage):
    ws, (executed, _) = copy_of(usecase_runs, tmp_path)
    run_dir = os.path.join(ws, "runs", executed)
    os.unlink(os.path.join(run_dir, "provenance.json"))
    with open(os.path.join(run_dir, "events.ndjson"), "rb") as fh:
        lines = fh.readlines()
    damage(lines)
    with open(os.path.join(run_dir, "events.ndjson"), "wb") as fh:
        fh.writelines(lines)
    if command == "status":
        proc = cli("status", executed, "--workdir", ws)
    else:
        proc = cli("prov", "export", executed, "--workdir", ws)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("Error: ") and "Traceback" not in proc.stderr
