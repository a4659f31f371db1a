"""Acceptance gate: thirteen end-to-end criteria over the shipped CLI.

Each criterion is one test named test_criterion_NN_*, so a verbose
pytest run shows one pass/fail line per criterion. Everything here
drives the installed command line in subprocesses; nothing reaches
into engine internals except to read journals and provenance files,
which are documented on-disk formats.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

from conftest import (USECASE_DIR, assert_blobs_match_names, cli, load_prov,
                      read_journal, run_ids, started_tasks)
from dot_checker import parse_dot

EDGES = [("mesh", "convert"), ("convert", "simulate"),
         ("simulate", "postproc"), ("simulate", "macros"),
         ("postproc", "paper"), ("macros", "paper")]
ALL_TASKS = {"mesh", "convert", "simulate", "postproc", "macros", "paper"}


def ok(criterion, text):
    print("PASS criterion %d: %s" % (criterion, text))


def run_usecase(ws, *extra, wf="usecase.wf", src=USECASE_DIR):
    return cli("run", os.path.join(src, wf), "--workdir", ws, *extra)


def single_run_id(ws):
    ids = run_ids(ws)
    assert len(ids) == 1, ids
    return ids[0]


def newest_run(ws, before):
    """Run id created since `before`; ids within one second sort by their
    random suffix, so a set difference is the only reliable 'latest'."""
    new = set(run_ids(ws)) - set(before)
    assert len(new) == 1, new
    return new.pop()


def actions_by_task(ws, rid):
    doc = load_prov(ws, rid)
    return {rec["task"]: rec["action"] for rec in doc["tasks"]}


def output_digests(ws, rid):
    doc = load_prov(ws, rid)
    return {rec["task"]: rec["outputs"]["files"] for rec in doc["tasks"]}


def reachability_oracle(wf_path, dirty_params):
    """Independent ground truth for which tasks an input change reaches.

    Reads the workflow file directly and walks consumer edges by brute
    force; shares no code with the planner or scheduler.
    """
    with open(wf_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    consumers = {}
    dirty = set()
    for proc in doc["processes"]:
        for decl in proc.get("inputs", {}).values():
            src = decl["from"]
            if src.startswith("params."):
                if src[len("params."):] in dirty_params:
                    dirty.add(proc["id"])
            else:
                producer = src.rsplit(".", 1)[0]
                consumers.setdefault(producer, set()).add(proc["id"])
    expected = set(dirty)
    frontier = list(dirty)
    while frontier:
        for consumer in consumers.get(frontier.pop(), ()):
            if consumer not in expected:
                expected.add(consumer)
                frontier.append(consumer)
    return expected


def write_workflow(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def sleepy_chain(n, secs):
    procs = []
    for i in range(n):
        pid = "s%02d" % i
        if i == 0:
            cmd = ["sh", "-c", "sleep %s && echo start > {outputs.o}" % secs]
            inputs = {}
        else:
            cmd = ["sh", "-c", "sleep %s && cat {inputs.x} > {outputs.o}" % secs]
            inputs = {"x": {"type": "file", "from": "s%02d.o" % (i - 1)}}
        procs.append({"id": pid, "command": cmd, "inputs": inputs,
                      "outputs": {"o": {"type": "file",
                                        "path": "%s.txt" % pid}}})
    return {"name": "sleepy", "processes": procs,
            "outputs": {"last": "s%02d.o" % (n - 1)}}


def independent_sleepers(n, secs):
    procs = [{"id": "t%d" % i,
              "command": ["sh", "-c", "sleep %s && echo t%d > {outputs.o}"
                          % (secs, i)],
              "outputs": {"o": {"type": "file", "path": "t%d.txt" % i}}}
             for i in range(n)]
    return {"name": "par", "processes": procs,
            "outputs": {"o0": "t0.o"}}


# -- criterion 1 ---------------------------------------------------------------

def test_criterion_01_recompute_end_to_end(ws):
    proc = run_usecase(ws, "--policy", "recompute",
                       "--param", "domain_size=2.0")
    assert proc.returncode == 0, proc.stderr + proc.stdout
    rid = single_run_id(ws)
    events = read_journal(ws, rid)
    started = started_tasks(events)
    assert len(started) == 6 and set(started) == ALL_TASKS
    position = {t: i for i, t in enumerate(started)}
    for producer, consumer in EDGES:
        assert position[producer] < position[consumer], (producer, consumer)
    paper = os.path.join(ws, "paper.pdf")
    assert os.path.isfile(paper)
    content = open(paper, encoding="utf-8").read()
    assert "\\newcommand{\\numdofs}{9}" in content
    assert "\\newcommand{\\domainsize}{2.0}" in content
    assert_blobs_match_names(ws)
    ok(1, "recompute executed all 6 tasks in dependency order; "
          "num_dofs=9 landed in the final artifact")


# -- criterion 2 ---------------------------------------------------------------

def test_criterion_02_update_minimality_vs_oracle(ws, usecase_copy):
    wf_path = os.path.join(usecase_copy, "usecase.wf")

    proc = cli("run", wf_path, "--workdir", ws, "--param", "domain_size=2.0")
    assert proc.returncode == 0, proc.stderr
    first = single_run_id(ws)
    assert len(started_tasks(read_journal(ws, first))) == 6

    # unchanged rerun: nothing may execute
    seen = set(run_ids(ws))
    proc = cli("run", wf_path, "--workdir", ws, "--param", "domain_size=2.0")
    assert proc.returncode == 0, proc.stderr
    rid2 = newest_run(ws, seen)
    assert started_tasks(read_journal(ws, rid2)) == []

    # perturb the postproc script: expect exactly its reachable set
    with open(os.path.join(usecase_copy, "bin", "postproc.py"), "a") as fh:
        fh.write("\n# nudge one\n")
    expected = reachability_oracle(wf_path, {"postproc_tool"})
    assert expected == {"postproc", "paper"}  # oracle sanity
    seen = set(run_ids(ws))
    proc = cli("run", wf_path, "--workdir", ws, "--param", "domain_size=2.0")
    assert proc.returncode == 0, proc.stderr
    rid3 = newest_run(ws, seen)
    assert set(started_tasks(read_journal(ws, rid3))) == expected

    # perturb the root mesh script: everything downstream of mesh reruns
    with open(os.path.join(usecase_copy, "bin", "mesh.py"), "a") as fh:
        fh.write("\n# nudge two\n")
    expected = reachability_oracle(wf_path, {"mesh_tool"})
    assert expected == ALL_TASKS  # oracle sanity
    seen = set(run_ids(ws))
    proc = cli("run", wf_path, "--workdir", ws, "--param", "domain_size=2.0")
    assert proc.returncode == 0, proc.stderr
    rid4 = newest_run(ws, seen)
    assert set(started_tasks(read_journal(ws, rid4))) == expected

    assert_blobs_match_names(ws)
    ok(2, "update policy re-executed exactly the oracle's reachable sets "
          "(none / {postproc,paper} / all 6)")


# -- criterion 3 ---------------------------------------------------------------

def test_criterion_03_link_reruns_nothing(ws):
    proc = run_usecase(ws, "--policy", "recompute")
    assert proc.returncode == 0, proc.stderr
    first = single_run_id(ws)

    proc = run_usecase(ws, "--policy", "link")
    assert proc.returncode == 0, proc.stderr
    second = newest_run(ws, {first})
    events = read_journal(ws, second)
    assert started_tasks(events) == []
    actions = actions_by_task(ws, second)
    assert actions == {t: "LinkCached" for t in ALL_TASKS}
    assert output_digests(ws, second) == output_digests(ws, first)
    assert_blobs_match_names(ws)
    ok(3, "link rerun executed nothing, linked all 6 tasks, "
          "digests identical to the producing run")


# -- criterion 4 ---------------------------------------------------------------

def test_criterion_04_recompute_ignores_cache(ws):
    assert run_usecase(ws, "--policy", "recompute").returncode == 0
    seen = set(run_ids(ws))
    proc = run_usecase(ws, "--policy", "recompute")
    assert proc.returncode == 0, proc.stderr
    second = newest_run(ws, seen)
    assert len(started_tasks(read_journal(ws, second))) == 6
    assert_blobs_match_names(ws)
    ok(4, "recompute re-executed all 6 tasks despite warm cache and stamps")


# -- criterion 5 ---------------------------------------------------------------

def test_criterion_05_typed_validation_failures(tmp_path):
    from conftest import NEGATIVE_DIR
    expectations = {
        "cycle.wf": "cycle",
        "dangling.wf": "unresolved",
        "dup_id.wf": "duplicate",
        "mismatch_value.wf": "cannot feed",
        "mismatch_format.wf": "cannot feed",
    }
    for name, needle in expectations.items():
        proc = cli("validate", os.path.join(NEGATIVE_DIR, name))
        assert proc.returncode == 2, (name, proc.returncode, proc.stderr)
        assert needle in proc.stderr, (name, proc.stderr)
    # run refuses the same files before executing anything
    ws = str(tmp_path / "ws")
    proc = cli("run", os.path.join(NEGATIVE_DIR, "cycle.wf"), "--workdir", ws)
    assert proc.returncode == 2
    assert run_ids(ws) == []
    ok(5, "all five malformed workflows rejected with exit 2 "
          "and named findings")


# -- criterion 6 ---------------------------------------------------------------

def test_criterion_06_composition_equivalence(tmp_path):
    ws_flat = str(tmp_path / "flat")
    ws_sub = str(tmp_path / "sub")
    assert run_usecase(ws_flat, "--param", "domain_size=2.0").returncode == 0
    assert run_usecase(ws_sub, "--param", "domain_size=2.0",
                       wf="usecase_sub.wf").returncode == 0

    flat_doc = load_prov(ws_flat, single_run_id(ws_flat))
    sub_doc = load_prov(ws_sub, single_run_id(ws_sub))
    flat_final = flat_doc["workflow_outputs"]["paper"]["digest"]
    sub_final = sub_doc["workflow_outputs"]["paper"]["digest"]
    assert flat_final == sub_final

    sub_tasks = {rec["task"] for rec in sub_doc["tasks"]}
    assert sub_tasks == {"meshing.mesh", "meshing.convert", "simulate",
                         "postproc", "macros", "paper"}
    env_fps = {rec["env"]["fingerprint"] for rec in sub_doc["tasks"]}
    assert len(env_fps) == 6  # each step kept its own declared environment
    ok(6, "composed workflow produced a byte-identical final artifact "
          "with 6 distinct task environments")


# -- criterion 7 ---------------------------------------------------------------

def test_criterion_07_environment_invalidates(ws, usecase_copy):
    wf_path = os.path.join(usecase_copy, "usecase.wf")
    assert cli("run", wf_path, "--workdir", ws).returncode == 0
    seen = set(run_ids(ws))
    proc = cli("run", wf_path, "--workdir", ws)
    rid = newest_run(ws, seen)
    assert started_tasks(read_journal(ws, rid)) == []  # fully up to date

    text = open(wf_path, encoding="utf-8").read()
    assert '"version": "2019.1"' in text
    open(wf_path, "w").write(text.replace('"version": "2019.1"',
                                          '"version": "2019.2"'))
    seen = set(run_ids(ws))
    proc = cli("run", wf_path, "--workdir", ws)
    assert proc.returncode == 0, proc.stderr
    rid = newest_run(ws, seen)
    started = set(started_tasks(read_journal(ws, rid)))
    assert started == {"simulate", "postproc", "macros", "paper"}
    assert_blobs_match_names(ws)
    ok(7, "bumping one manifest version re-executed exactly simulate "
          "and its dependents")


# -- criterion 8 ---------------------------------------------------------------

def test_criterion_08_executor_equivalence(tmp_path):
    digests = {}
    for executor in ("local", "batch:mock", "remote:loopback"):
        ws = str(tmp_path / executor.replace(":", "-"))
        proc = run_usecase(ws, "--policy", "recompute",
                           "--param", "domain_size=2.0",
                           "--executor", executor)
        assert proc.returncode == 0, (executor, proc.stderr, proc.stdout)
        rid = single_run_id(ws)
        digests[executor] = output_digests(ws, rid)
        if executor == "remote:loopback":
            task_dir = os.path.join(ws, "runs", rid, "tasks", "simulate")
            with open(os.path.join(task_dir, "transfer.json")) as fh:
                transfer = json.load(fh)
            assert transfer == {
                "in": ["inputs/mesh/mesh.xdmf", "inputs/tool/simulate.py"],
                "out": ["result.vtk", "outputs.json"]}

    assert digests["local"] == digests["batch:mock"] == digests["remote:loopback"]
    ok(8, "local, mock batch, and loopback remote produced identical "
          "digests; the staging log matches exactly")


# -- criterion 9 ---------------------------------------------------------------

def test_criterion_09_detached_run_monitoring(tmp_path):
    ws = str(tmp_path / "ws")
    wf = write_workflow(tmp_path, "sleepy.wf", sleepy_chain(6, "0.4"))
    proc = cli("run", wf, "--workdir", ws, "--policy", "recompute", "--detach")
    assert proc.returncode == 0, proc.stderr
    rid = proc.stdout.strip().splitlines()[-1]
    assert re.fullmatch(r"r[0-9]{8}-[0-9]{6}-[0-9a-f]+", rid), rid

    saw_mid_run = None
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        status = cli("status", rid, "--workdir", ws)
        assert status.returncode == 0, status.stderr
        text = status.stdout
        m = re.search(r"done: (\d)/6\s+running: (\d)\s+pending: (\d)", text)
        assert m, text
        done, running, pending = map(int, m.groups())
        assert done + running + pending == 6  # coherent at every moment
        if "in progress" in text and running == 1 and 1 <= done <= 5:
            saw_mid_run = (done, running, pending)
        if "run %s: succeeded" % rid in text:
            assert done == 6 and running == 0 and pending == 0
            break
        time.sleep(0.1)
    else:
        pytest.fail("detached run did not finish in time")
    assert saw_mid_run is not None, "never observed a mid-run snapshot"
    ok(9, "status reported a coherent mid-run split %r and the terminal "
          "6/6 succeeded state" % (saw_mid_run,))


# -- criterion 10 --------------------------------------------------------------

def test_criterion_10_lineage_and_dot(ws):
    assert run_usecase(ws, "--param", "domain_size=2.0").returncode == 0
    rid = single_run_id(ws)
    doc = load_prov(ws, rid)
    paper_digest = doc["workflow_outputs"]["paper"]["digest"]
    mesh_rec = next(rec for rec in doc["tasks"] if rec["task"] == "mesh")
    mesh_digest = mesh_rec["outputs"]["files"]["mesh"]

    proc = cli("prov", "lineage", paper_digest, "--workdir", ws)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["found"]
    assert {t["task"] for t in result["tasks"]} == ALL_TASKS

    proc = cli("prov", "lineage", mesh_digest, "--workdir", ws)
    result = json.loads(proc.stdout)
    assert {t["task"] for t in result["tasks"]} == {"mesh"}

    graph_text = cli("graph", os.path.join(USECASE_DIR, "usecase.wf")).stdout
    graph = parse_dot(graph_text)
    assert set(graph.nodes) == ALL_TASKS
    assert len(graph.edges) == 6
    dashed = [e for e in graph.edges if e[2].get("style") == "dashed"]
    assert [(s, d, a["label"]) for s, d, a in dashed] == [
        ("simulate", "macros", "num_dofs")]
    assert graph.graph_attrs["rankdir"] == "LR"

    prov_dot = cli("prov", "export", rid, "--workdir", ws,
                   "--format", "dot").stdout
    assert set(parse_dot(prov_dot).nodes) == ALL_TASKS
    ok(10, "lineage recovered all 6 producers of the final artifact and "
           "both DOT exports parse with the right structure")


# -- criterion 11 --------------------------------------------------------------

def max_concurrency(events):
    running = peak = 0
    for event in events:
        if event.kind == "task-started":
            running += 1
            peak = max(peak, running)
        elif event.kind == "task-finished":
            running -= 1
    return peak


def wall_seconds(events):
    from datetime import datetime
    start = datetime.fromisoformat(events[0].ts)
    end = datetime.fromisoformat(events[-1].ts)
    return (end - start).total_seconds()


def test_criterion_11_jobs_limit_and_speedup(tmp_path):
    walls = {}
    peaks = {}
    for jobs in (1, 2, 4):
        ws = str(tmp_path / ("j%d" % jobs))
        wf = write_workflow(tmp_path, "par.wf", independent_sleepers(4, "0.6"))
        proc = cli("run", wf, "--workdir", ws, "--policy", "recompute",
                   "--jobs", str(jobs))
        assert proc.returncode == 0, proc.stderr
        events = read_journal(ws, single_run_id(ws))
        peaks[jobs] = max_concurrency(events)
        walls[jobs] = wall_seconds(events)

    assert peaks[1] == 1
    assert peaks[2] == 2  # saturates the limit, never exceeds it
    assert 2 <= peaks[4] <= 4
    assert walls[4] < walls[1] * 0.7, walls
    ok(11, "concurrency peaked at %r under --jobs 1/2/4 and four sleeps "
           "finished %.1fx faster at jobs=4" % (peaks, walls[1] / walls[4]))


# -- criterion 12 --------------------------------------------------------------

def test_criterion_12_fingerprint_vectors(tmp_path):
    from flowforge.envprov import resolve_env
    from flowforge.planner import task_fingerprint
    from test_fingerprints import VECTORS, env_spec_for, task_for

    assert len(VECTORS) == 20
    for vector in VECTORS:
        resolved = resolve_env(env_spec_for(vector["env"], tmp_path))
        assert resolved.fingerprint == vector["env_fingerprint"], vector["name"]
        task = task_for(vector, resolved.fingerprint)
        assert task_fingerprint(task) == vector["fingerprint"], vector["name"]
    ok(12, "engine reproduced all 20 externally computed fingerprints")


# -- criterion 13 --------------------------------------------------------------

def test_criterion_13_capabilities_matrix():
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
    ok(13, "capabilities output matches the published matrix byte for byte")
