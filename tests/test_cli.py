"""Command-line surface: exit codes, output shapes, subcommands."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import (NEGATIVE_DIR, USECASE_DIR, assert_blobs_match_names,
                      cli, load_prov, read_journal, run_ids, started_tasks)

WF = os.path.join(USECASE_DIR, "usecase.wf")


def test_validate_ok():
    proc = cli("validate", WF)
    assert proc.returncode == 0, proc.stderr
    assert "ok: usecase (6 processes, 7 params)" in proc.stdout


@pytest.mark.parametrize("name", [
    "cycle.wf", "dangling.wf", "dup_id.wf",
    "mismatch_value.wf", "mismatch_format.wf", "nested_output.wf",
    "reserved_cache.wf", "reserved_runs.wf", "reserved_state.wf"])
def test_validate_negative_exits_2(name):
    proc = cli("validate", os.path.join(NEGATIVE_DIR, name))
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_deep_chain_validates_and_plans(tmp_path):
    n = 5000
    procs = [{"id": "c%04d" % i,
              "command": ["sh", "-c", "cat {inputs.x} > {outputs.o}"],
              "inputs": {"x": {"type": "file", "from": "c%04d.o" % (i - 1)}},
              "outputs": {"o": {"type": "file", "path": "c%04d.txt" % i}}}
             for i in range(n)]
    procs[0]["command"] = ["sh", "-c", "echo > {outputs.o}"]
    del procs[0]["inputs"]
    wf = tmp_path / "deep.wf"
    wf.write_text(json.dumps({"name": "deep", "processes": procs,
                              "outputs": {"o": "c%04d.o" % (n - 1)}}))
    proc = cli("validate", wf)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.startswith("ok: deep (5000 processes")
    proc = cli("run", wf, "--dry-run", "--workdir", tmp_path / "ws")
    assert proc.returncode == 0, proc.stderr[-500:]
    plan = [line.split() for line in proc.stdout.splitlines()]
    assert plan == [["execute", "c%04d" % i] for i in range(n)]


@pytest.mark.parametrize("args", [
    ["validate"], ["graph"], ["run", "--dry-run", "--workdir", "{ws}"]])
def test_each_command_flattens_the_workflow_once(monkeypatch, tmp_path, args):
    from click.testing import CliRunner

    from flowforge import cli as cli_module, model

    calls = []
    real = model.flatten

    def counting(*a, **kw):
        calls.append(a)
        return real(*a, **kw)

    monkeypatch.setattr(model, "flatten", counting)
    monkeypatch.setattr(cli_module, "flatten", counting)
    argv = [args[0], WF] + [a.format(ws=tmp_path / "ws") for a in args[1:]]
    result = CliRunner().invoke(cli_module.main, argv)
    assert result.exit_code == 0, result.output
    assert len(calls) == 1


def test_missing_file_exits_2(tmp_path):
    proc = cli("validate", str(tmp_path / "absent.wf"))
    assert proc.returncode == 2


def test_graph_to_stdout_and_file(tmp_path):
    proc = cli("graph", WF)
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph {")
    out = tmp_path / "g.dot"
    proc = cli("graph", WF, "--out", str(out))
    assert proc.returncode == 0
    assert out.read_text().startswith("digraph {")


def test_run_dry_run_prints_plan_without_running(ws):
    proc = cli("run", WF, "--dry-run", "--workdir", ws)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert [ln.split()[0] for ln in lines] == ["execute"] * 6
    assert [ln.split()[1] for ln in lines] == [
        "mesh", "convert", "simulate", "macros", "postproc", "paper"]
    assert run_ids(ws) == []  # nothing happened
    assert not os.path.exists(os.path.join(ws, "cache"))


def test_run_and_status_and_logs(ws):
    proc = cli("run", WF, "--workdir", ws, "--param", "domain_size=2.0")
    assert proc.returncode == 0, proc.stderr
    assert "finished: succeeded 6" in proc.stdout
    (rid,) = run_ids(ws)

    proc = cli("status", rid, "--workdir", ws)
    assert proc.returncode == 0
    assert "done: 6/6" in proc.stdout

    proc = cli("logs", rid, "mesh", "--workdir", ws)
    assert proc.returncode == 0
    assert "stdout.txt" in proc.stdout


def test_status_unknown_run_exits_2(ws):
    os.makedirs(ws, exist_ok=True)
    proc = cli("status", "r-nope", "--workdir", ws)
    assert proc.returncode == 2


def test_bad_param_value_exits_2(ws):
    proc = cli("run", WF, "--workdir", ws, "--param", "domain_size=abc")
    assert proc.returncode == 2
    proc = cli("run", WF, "--workdir", ws, "--param", "nosuch=1")
    assert proc.returncode == 2


def test_bad_policy_flag_exits_2(ws):
    proc = cli("run", WF, "--workdir", ws, "--policy", "yolo")
    assert proc.returncode == 2


def test_failed_run_exits_1(ws, tmp_path):
    doc = {
        "name": "boom",
        "processes": [
            {"id": "ok", "command": ["sh", "-c", "echo fine > {outputs.o}"],
             "outputs": {"o": {"type": "file", "path": "ok.txt"}}},
            {"id": "bad", "command": ["sh", "-c", "exit 5"],
             "inputs": {"x": {"type": "file", "from": "ok.o"}},
             "outputs": {"o": {"type": "file", "path": "bad.txt"}}},
        ],
        "outputs": {"o": "bad.o"},
    }
    wf = tmp_path / "boom.wf"
    wf.write_text(json.dumps(doc))
    proc = cli("run", str(wf), "--workdir", ws)
    assert proc.returncode == 1
    assert "failed" in proc.stdout


def test_prov_export_json_and_dot(ws):
    cli("run", WF, "--workdir", ws)
    (rid,) = run_ids(ws)
    proc = cli("prov", "export", rid, "--workdir", ws)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["schema"] == "flowforge-prov-v1"
    assert len(doc["tasks"]) == 6
    proc = cli("prov", "export", rid, "--workdir", ws, "--format", "dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph {")


def test_an_unused_file_param_is_recorded_with_its_digest(tmp_path):
    (tmp_path / "notes.txt").write_bytes(b"notes\n")
    wf = tmp_path / "spare.wf"
    wf.write_text(json.dumps({
        "formatVersion": 1, "name": "spare",
        "params": {"notes": {"type": "file", "default": "notes.txt"}},
        "processes": [{"id": "gen", "command": ["sh", "-c", "echo > {outputs.o}"],
                       "outputs": {"o": {"type": "file", "path": "o.txt"}}}],
        "outputs": {"o": "gen.o"}}))
    ws = str(tmp_path / "ws")
    proc = cli("run", wf, "--workdir", ws)
    assert proc.returncode == 0, proc.stderr
    assert load_prov(ws, run_ids(ws)[0])["params"] == {"notes": {
        "path": "notes.txt", "digest": hashlib.sha256(b"notes\n").hexdigest()}}


def test_prov_lineage_rejects_bad_digest(ws):
    os.makedirs(ws, exist_ok=True)
    proc = cli("prov", "lineage", "not-a-digest", "--workdir", ws)
    assert proc.returncode == 2


def test_cache_ls_and_gc(ws):
    cli("run", WF, "--workdir", ws)
    proc = cli("cache", "ls", "--workdir", ws)
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 6
    proc = cli("cache", "gc", "--workdir", ws)
    assert proc.returncode == 0
    assert "kept 6 entries" in proc.stdout


def test_cache_gc_keeps_recorded_inputs_of_kept_runs(ws):
    assert cli("run", WF, "--workdir", ws).returncode == 0
    proc = cli("cache", "gc", "--workdir", ws)
    assert proc.returncode == 0, proc.stderr
    assert "removed 0 entries, 0 blobs" in proc.stdout
    doc = load_prov(ws, run_ids(ws)[0])
    inputs = {d for rec in doc["tasks"] for d in rec["inputs"]["files"].values()}
    assert inputs
    for digest in inputs:
        assert os.path.isfile(os.path.join(ws, "cache", "objects", digest[:2],
                                           digest)), digest
    assert_blobs_match_names(ws)


def test_cache_gc_leaves_the_mode_of_a_placed_output_alone(tmp_path, ws):
    """A blob that gc removes may share its inode with a workspace output
    placed from it: gc unlinks it without making it writable first."""
    wf = tmp_path / "one.wf"
    wf.write_text(json.dumps({"name": "one", "processes": [
        {"id": "a", "command": ["sh", "-c", "echo a > {outputs.o}"],
         "outputs": {"o": {"type": "file", "path": "a.txt"}}}],
        "outputs": {"o": "a.o"}}))
    assert cli("run", wf, "--workdir", ws, "--policy", "recompute").returncode == 0
    proc = cli("run", wf, "--workdir", ws, "--policy", "link")
    assert proc.returncode == 0, proc.stderr
    linked = proc.stdout.split()[1]  # "run <id> finished: ..."
    placed = os.path.join(ws, "a.txt")
    digest = hashlib.sha256(b"a\n").hexdigest()
    assert os.path.samestat(os.stat(placed), os.stat(
        os.path.join(ws, "cache", "objects", digest[:2], digest)))
    # the link run produced no entry: keeping only it drops a's blob
    proc = cli("cache", "gc", "--workdir", ws, "--keep-run", linked)
    assert proc.returncode == 0, proc.stderr
    assert "removed 1 entries, 1 blobs" in proc.stdout
    assert os.stat(placed).st_mode & 0o777 == 0o444


# Reaps its command with os.wait4 and prints the exit code, the peak RSS
# in KiB and the output. Linux carries the exec'ing process's peak into
# the child's ru_maxrss, so the command is started from this small
# process rather than from the test runner.
RSS_PROBE = """
import json, os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
out = proc.stdout.read().decode()
_, status, usage = os.wait4(proc.pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss, out]))
"""


def gc_peak_rss_kb(root, output_size):
    """Peak RSS of `cache gc` on a store whose one kept entry has a file
    output of `output_size` bytes."""
    from flowforge.cache import CacheEntry, CacheStore
    root.mkdir()
    src, ws = str(root / "out.bin"), str(root / "ws")
    with open(src, "wb") as fh:
        fh.write(b"output\n")
        fh.truncate(output_size)
    store = CacheStore(os.path.join(ws, "cache"))
    store.put_entry(CacheEntry("8" * 64, "r1", {"o": store.put_blob(src)}, {}))
    probe = subprocess.run(
        [sys.executable, "-c", RSS_PROBE, sys.executable, "-m", "flowforge",
         "cache", "gc", "--keep-run", "r1", "--workdir", ws],
        capture_output=True, text=True, timeout=120)
    code, peak_kb, out = json.loads(probe.stdout)
    assert code == 0, out
    assert "kept 1 entries, 1 blobs" in out
    return peak_kb


def test_gc_memory_does_not_grow_with_output_size(tmp_path):
    small = gc_peak_rss_kb(tmp_path / "small", 1 << 10)
    large = gc_peak_rss_kb(tmp_path / "large", 64 << 20)
    assert abs(large - small) <= 4 * 1024, (small, large)  # ru_maxrss is in KiB


def test_link_run_executes_a_task_whose_tree_member_is_gone(ws, tmp_path):
    doc = {
        "name": "tree",
        "processes": [
            {"id": "tree", "command": [
                "sh", "-c", "mkdir {outputs.o} && echo 1 > {outputs.o}/a"
                            " && echo 2 > {outputs.o}/b"],
             "outputs": {"o": {"type": "directory", "path": "d"}}},
            {"id": "cat", "command": ["sh", "-c",
                                      "cat {inputs.d}/a {inputs.d}/b > {outputs.o}"],
             "inputs": {"d": {"type": "directory", "from": "tree.o"}},
             "outputs": {"o": {"type": "file", "path": "cat.txt"}}},
            {"id": "other", "command": ["sh", "-c", "echo x > {outputs.o}"],
             "outputs": {"o": {"type": "file", "path": "other.txt"}}},
        ],
        "outputs": {"o": "cat.o"},
    }
    wf = tmp_path / "tree.wf"
    wf.write_text(json.dumps(doc))
    assert cli("run", wf, "--workdir", ws, "--policy", "recompute").returncode == 0
    (first,) = run_ids(ws)
    member = hashlib.sha256(b"2\n").hexdigest()
    os.unlink(os.path.join(ws, "cache", "objects", member[:2], member))

    proc = cli("run", wf, "--workdir", ws, "--policy", "link")
    assert proc.returncode == 0, proc.stderr
    assert "finished: cached 2, succeeded 1" in proc.stdout
    (link_run,) = set(run_ids(ws)) - {first}
    assert started_tasks(read_journal(ws, link_run)) == ["tree"]
    assert sorted(os.listdir(os.path.join(ws, "d"))) == ["a", "b"]
    with open(os.path.join(ws, "d", "b")) as fh:
        assert fh.read() == "2\n"
    assert_blobs_match_names(ws)


TWO_STEP = {
    "name": "two",
    "processes": [
        {"id": "a", "command": ["sh", "-c", "echo hi > {outputs.o}"],
         "outputs": {"o": {"type": "file", "path": "a.txt"}}},
        {"id": "b", "command": ["sh", "-c", "cat {inputs.s} > {outputs.o}"],
         "inputs": {"s": {"type": "file", "from": "a.o"}},
         "outputs": {"o": {"type": "file", "path": "b.txt"}}},
    ],
    "outputs": {"b": "b.o"},
}


def task_record(doc, task):
    return next(rec for rec in doc["tasks"] if rec["task"] == task)


# name -> (record edited, edit of its JSON document)
DAMAGE = {
    "stamp-files-is-a-list": ("stamp", lambda d: d.update(files=["x"])),
    "stamp-lacks-an-output": ("stamp", lambda d: d.update(files={})),
    "entry-lacks-an-output": ("entry", lambda d: d.update(files={})),
    "entry-digest-is-a-number": ("entry", lambda d: d.update(files={"o": 5})),
    "entry-run-is-a-list": ("entry", lambda d: d.update(run=[])),
    "input-digest-is-a-number": (
        "provenance",
        lambda d: task_record(d, "b")["inputs"].update(files={"s": 5})),
}


@pytest.mark.parametrize("damage,command", [
    ("stamp-files-is-a-list", "run"),
    ("stamp-files-is-a-list", "dry-run"),
    ("stamp-lacks-an-output", "run"),
    ("entry-lacks-an-output", "link"),
    ("entry-digest-is-a-number", "link"),
    ("entry-digest-is-a-number", "ls"),
    ("entry-run-is-a-list", "gc"),
    ("input-digest-is-a-number", "gc"),
    ("input-digest-is-a-number", "lineage"),
])
def test_a_record_that_does_not_read_as_one_is_no_record(tmp_path, damage,
                                                         command):
    """A hand-damaged stamp or entry of `a` is a miss, so `a` executes;
    a damaged provenance document is passed over."""
    wf = tmp_path / "two.wf"
    wf.write_text(json.dumps(TWO_STEP))
    ws = str(tmp_path / "ws")
    assert cli("run", wf, "--workdir", ws).returncode == 0
    (first,) = run_ids(ws)
    doc = load_prov(ws, first)
    record, edit = DAMAGE[damage]
    path = {"stamp": os.path.join(ws, ".flowforge", "stamps", "a"),
            "entry": os.path.join(ws, "cache", "tasks",
                                  task_record(doc, "a")["fingerprint"] + ".json"),
            "provenance": os.path.join(ws, "runs", first, "provenance.json"),
            }[record]
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)

    args = {"run": ["run", wf], "dry-run": ["run", wf, "--dry-run"],
            "link": ["run", wf, "--policy", "link"], "ls": ["cache", "ls"],
            "gc": ["cache", "gc"],
            "lineage": ["prov", "lineage", doc["workflow_outputs"]["b"]["digest"]],
            }[command]
    proc = cli(*args, "--workdir", ws)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    if command in ("run", "link"):
        latest = run_ids(ws)[-1]
        assert "a" in started_tasks(read_journal(ws, latest))
        assert (tmp_path / "ws" / "b.txt").read_text() == "hi\n"
    elif command == "dry-run":
        plan = [line.split() for line in proc.stdout.splitlines()]
        assert plan == [["execute", "a"], ["execute", "b"]]
    elif command == "ls":
        listed = {line.split()[0] for line in proc.stdout.splitlines()}
        assert listed == {task_record(doc, "b")["fingerprint"]}
    elif command == "gc":
        assert "removed %d entries" % (record == "entry") in proc.stdout
    else:
        assert json.loads(proc.stdout)["found"] is False


def test_capabilities_text():
    proc = cli("capabilities")
    assert proc.returncode == 0
    assert proc.stdout == (
        "scheduling: 3/3\n"
        "monitoring: 2/2\n"
        "visualization: 2/3\n"
        "provenance: 2/2\n"
        "environment: 3/3\n"
        "composition: 3/3\n"
        "interfaces: 3/3\n"
        "up-to-dateness: R,L,U\n")


def test_usage_error_exits_2():
    proc = cli("run")  # missing workflow argument
    assert proc.returncode == 2
