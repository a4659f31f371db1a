"""Command-line surface: exit codes, output shapes, subcommands."""

import hashlib
import json
import os

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
    "mismatch_value.wf", "mismatch_format.wf"])
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
