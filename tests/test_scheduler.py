"""Run policies, failure handling, propagation, journal effects."""

import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
import threading

import pytest

from flowforge import cache, canon, executors, planner, runstate, scheduler
from flowforge.cache import CacheEntry, CacheError, CacheStore
from flowforge.model import WorkflowLoader, flatten, parse_workflow
from flowforge.planner import Blob, Literal, build_graph, task_fingerprint
from flowforge.scheduler import (EXECUTE, Policy, Runner, SchedulerError,
                                 checked_stamp, decide_action, generate_run_id,
                                 read_stamp, stamp_path, write_stamp)
from flowforge.runstate import read_events

from conftest import (USECASE_DIR, assert_blobs_match_names, assert_store_sealed,
                      finished_states, load_prov, read_journal, started_tasks)


def graph_for(tmp_path, doc, params=None):
    flat = flatten(parse_workflow(json.dumps(doc)), WorkflowLoader(),
                   str(tmp_path))
    return build_graph(flat, params or {})


def usecase_graph(usecase_dir, params):
    path = os.path.join(usecase_dir, "usecase.wf")
    with open(path, encoding="utf-8") as fh:
        wf = parse_workflow(fh.read(), source=path)
    return build_graph(flatten(wf, WorkflowLoader(), usecase_dir, path), params)


def two_chains(fail_a1=False):
    """a1 -> a2 and b1 -> b2, independent chains."""
    def gen(task, fail=False):
        return ["sh", "-c",
                "exit 3" if fail else "echo %s > {outputs.o}" % task]
    def consume():
        return ["sh", "-c", "cat {inputs.x} > {outputs.o}"]
    return {
        "name": "chains",
        "processes": [
            {"id": "a1", "command": gen("a1", fail_a1),
             "outputs": {"o": {"type": "file", "path": "a1.txt"}}},
            {"id": "a2", "command": consume(),
             "inputs": {"x": {"type": "file", "from": "a1.o"}},
             "outputs": {"o": {"type": "file", "path": "a2.txt"}}},
            {"id": "b1", "command": gen("b1"),
             "outputs": {"o": {"type": "file", "path": "b1.txt"}}},
            {"id": "b2", "command": consume(),
             "inputs": {"x": {"type": "file", "from": "b1.o"}},
             "outputs": {"o": {"type": "file", "path": "b2.txt"}}},
        ],
        "outputs": {"a": "a2.o", "b": "b2.o"},
    }


def run_once(ws, graph, policy, **kw):
    runner = Runner(str(ws), **kw)
    return runner.run(graph, policy)


def test_recompute_always_executes(tmp_path):
    ws = tmp_path / "ws"
    for expected_round in range(2):
        graph = graph_for(tmp_path, two_chains())
        result = run_once(ws, graph, Policy.RECOMPUTE)
        assert result.ok
        assert result.counts == {"succeeded": 4}
        events = read_journal(str(ws), result.run_id)
        assert len(started_tasks(events)) == 4
    assert (ws / "a2.txt").read_text() == "a1\n"


def test_update_skips_everything_on_rerun(tmp_path):
    ws = tmp_path / "ws"
    run_once(ws, graph_for(tmp_path, two_chains()), Policy.UPDATE)
    result = run_once(ws, graph_for(tmp_path, two_chains()), Policy.UPDATE)
    assert result.counts == {"skipped-up-to-date": 4}
    events = read_journal(str(ws), result.run_id)
    assert started_tasks(events) == []  # zero executions journaled


def test_link_serves_from_cache(tmp_path):
    ws = tmp_path / "ws"
    first = run_once(ws, graph_for(tmp_path, two_chains()), Policy.RECOMPUTE)
    (ws / "a2.txt").unlink()  # even with outputs gone, the cache serves
    result = run_once(ws, graph_for(tmp_path, two_chains()), Policy.LINK)
    assert result.counts == {"cached": 4}
    assert all(r.cached_from == first.run_id for r in result.states.values())
    assert started_tasks(read_journal(str(ws), result.run_id)) == []
    assert (ws / "a2.txt").read_text() == "a1\n"


def knobbed():
    """b1 takes a knob that changes its fingerprint but not its output."""
    doc = two_chains()
    doc["params"] = {"knob": {"type": "string", "default": "v1"}}
    doc["processes"][2]["command"] = [
        "sh", "-c", "true {inputs.knob} && echo b1 > {outputs.o}"]
    doc["processes"][2]["inputs"] = {
        "knob": {"type": "string", "from": "params.knob"}}
    return doc


def test_update_propagates_through_unchanged_bytes(tmp_path):
    ws = tmp_path / "ws"
    run_once(ws, graph_for(tmp_path, knobbed()), Policy.UPDATE)
    # flip the knob: b1 must re-execute; its output bytes are identical,
    # yet b2 re-executes too because its dependency actually ran
    result = run_once(ws, graph_for(tmp_path, knobbed(), {"knob": "v2"}),
                      Policy.UPDATE)
    started = set(started_tasks(read_journal(str(ws), result.run_id)))
    assert started == {"b1", "b2"}
    assert result.states["a1"].state == "skipped-up-to-date"
    assert result.states["a2"].state == "skipped-up-to-date"


def test_linked_dependencies_do_not_force(tmp_path):
    ws = tmp_path / "ws"
    run_once(ws, graph_for(tmp_path, two_chains()), Policy.RECOMPUTE)
    result = run_once(ws, graph_for(tmp_path, two_chains()), Policy.LINK)
    assert result.counts == {"cached": 4}
    # an update pass right after still finds everything stamped
    result = run_once(ws, graph_for(tmp_path, two_chains()), Policy.UPDATE)
    assert result.counts == {"skipped-up-to-date": 4}


def test_stop_on_failure(tmp_path):
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, two_chains(fail_a1=True)),
                      Policy.RECOMPUTE, jobs=1)
    states = {t: r.state for t, r in result.states.items()}
    assert states["a1"] == "failed"
    assert states["a2"] == "blocked"
    # with jobs=1 the failure lands before the b chain is dispatched
    assert states["b1"] == "aborted" and states["b2"] == "aborted"
    assert result.states["a1"].exit_code == 3
    assert not result.ok


def test_keep_going_finishes_independent_work(tmp_path):
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, two_chains(fail_a1=True)),
                      Policy.RECOMPUTE, keep_going=True)
    states = {t: r.state for t, r in result.states.items()}
    assert states == {"a1": "failed", "a2": "blocked",
                      "b1": "succeeded", "b2": "succeeded"}
    assert not result.ok


def test_an_undecodable_value_manifest_fails_only_its_task(tmp_path):
    """Bytes that are no UTF-8 in outputs.json are a bad value, as bad
    JSON is: the task fails and an independent task still runs."""
    doc = {
        "name": "undecodable",
        "processes": [
            {"id": "bad", "command": ["sh", "-c", "printf '\\377\\376' > outputs.json"],
             "outputs": {"n": {"type": "integer"}}},
            {"id": "good", "command": ["sh", "-c", "echo ok > {outputs.o}"],
             "outputs": {"o": {"type": "file", "path": "good.txt"}}},
        ],
        "outputs": {"n": "bad.n", "o": "good.o"},
    }
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE, keep_going=True)
    states = {t: r.state for t, r in result.states.items()}
    assert states == {"bad": "failed", "good": "succeeded"}
    assert result.states["bad"].error.startswith("BadValue(n): manifest unparseable")
    assert finished_states(read_journal(str(ws), result.run_id)) == states


def test_resume_after_mid_chain_failure(tmp_path):
    doc = {
        "name": "resume",
        "params": {"knob": {"type": "string", "default": "bad"}},
        "processes": [
            {"id": "c1", "command": ["sh", "-c", "echo c1 > {outputs.o}"],
             "outputs": {"o": {"type": "file", "path": "c1.txt"}}},
            {"id": "c2", "command": [
                "sh", "-c",
                "test {inputs.knob} = good && cat {inputs.x} > {outputs.o}"],
             "inputs": {"x": {"type": "file", "from": "c1.o"},
                        "knob": {"type": "string", "from": "params.knob"}},
             "outputs": {"o": {"type": "file", "path": "c2.txt"}}},
            {"id": "c3", "command": ["sh", "-c", "cat {inputs.x} > {outputs.o}"],
             "inputs": {"x": {"type": "file", "from": "c2.o"}},
             "outputs": {"o": {"type": "file", "path": "c3.txt"}}},
        ],
        "outputs": {"o": "c3.o"},
    }
    ws = tmp_path / "ws"
    first = run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE)
    assert {t: r.state for t, r in first.states.items()} == {
        "c1": "succeeded", "c2": "failed", "c3": "blocked"}
    # fix the input and update: finished work stays done, the rest runs
    second = run_once(ws, graph_for(tmp_path, doc, {"knob": "good"}),
                      Policy.UPDATE)
    started = started_tasks(read_journal(str(ws), second.run_id))
    assert started == ["c2", "c3"]
    assert second.ok
    assert (ws / "c3.txt").read_text() == "c1\n"


class WritingExecutor:
    """In-process executor: writes each declared file output, or exits 3
    for a task in `failing`."""

    name = "writing"

    def __init__(self, failing):
        self.failing = failing

    def execute(self, spec):
        if spec.task_id in self.failing:
            return executors.collect_outcome(spec, 3)
        for out in spec.outputs:
            with open(os.path.join(spec.workdir, out.path), "w") as fh:
                fh.write(spec.task_id)
        return executors.collect_outcome(spec, 0)


@pytest.mark.parametrize("seed", range(40))
def test_stopped_run_settles_blocked_below_failures_else_aborted(tmp_path, seed):
    rng = random.Random(seed)
    n = rng.randint(2, 9)
    names = ["t%d" % i for i in rng.sample(range(n), n)]  # ids not in topo order
    deps = {names[i]: [names[j] for j in range(i) if rng.random() < 0.4]
            for i in range(n)}
    failing = set(rng.sample(names, rng.randint(1, 2)))
    doc = {"name": "dag", "processes": [
        {"id": tid, "command": ["true"],
         "inputs": {"i" + dep: {"type": "file", "from": dep + ".o"}
                    for dep in deps[tid]},
         "outputs": {"o": {"type": "file", "path": tid + ".txt"}}}
        for tid in names]}
    result = run_once(tmp_path / "ws", graph_for(tmp_path, doc),
                      Policy.RECOMPUTE, jobs=rng.choice([1, 2]),
                      executor=WritingExecutor(failing))
    states = {t: r.state for t, r in result.states.items()}
    failed = {t for t, s in states.items() if s == "failed"}
    assert failed and failed <= failing
    below, frontier = set(), list(failed)  # reachable from a failed task
    while frontier:
        tid = frontier.pop()
        for child in (c for c in names if tid in deps[c]):
            if child not in below:
                below.add(child)
                frontier.append(child)
    events = read_journal(str(tmp_path / "ws"), result.run_id)
    started = set(started_tasks(events))
    assert {t for t, s in states.items() if s == "blocked"} == below
    assert {t for t, s in states.items() if s == "aborted"} == \
        set(names) - started - below
    # the wind-down settles last, in ascending id, in journal and results
    finished = [e.task for e in events if e.kind == "task-finished"]
    wound = sorted(set(names) - started)
    assert finished[len(names) - len(wound):] == wound
    assert list(result.states)[len(names) - len(wound):] == wound


def test_run_id_collision_rejected(tmp_path):
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, two_chains())
    runner = Runner(str(ws))
    result = runner.run(graph, Policy.RECOMPUTE, run_id="r-fixed")
    assert result.ok
    with pytest.raises(SchedulerError):
        runner.run(graph_for(tmp_path, two_chains()), Policy.RECOMPUTE,
                   run_id="r-fixed")


def test_generate_run_id_shape():
    a, b = generate_run_id(), generate_run_id()
    assert a != b
    assert a.startswith("r2") and "-" in a


def test_plan_preview_is_pure_and_accurate(tmp_path):
    ws = tmp_path / "ws"
    runner = Runner(str(ws))
    preview = runner.plan_preview(graph_for(tmp_path, two_chains()),
                                  Policy.UPDATE)
    assert {t: a.kind for t, a in preview.items()} == {
        "a1": "execute", "a2": "execute", "b1": "execute", "b2": "execute"}
    assert not os.path.exists(os.path.join(str(ws), "runs"))
    assert not os.path.exists(os.path.join(str(ws), "cache"))

    run_once(ws, graph_for(tmp_path, two_chains()), Policy.UPDATE)
    before = sorted(os.listdir(os.path.join(str(ws), "runs")))
    preview = runner.plan_preview(graph_for(tmp_path, two_chains()),
                                  Policy.UPDATE)
    assert {a.kind for a in preview.values()} == {"skip"}
    assert sorted(os.listdir(os.path.join(str(ws), "runs"))) == before


def test_journal_passes_verification(tmp_path):
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, two_chains(fail_a1=True)),
                      Policy.RECOMPUTE, keep_going=True)
    from flowforge.runstate import verify_journal
    events = read_journal(str(ws), result.run_id)
    assert verify_journal(events) == []
    finals = finished_states(events)
    assert finals == {t: r.state for t, r in result.states.items()}


# -- decide_action matrix -----------------------------------------------------

def resolved_task(tmp_path):
    doc = {
        "name": "single",
        "processes": [{"id": "one", "command": ["sh", "-c",
                                                "echo x > {outputs.o}"],
                       "outputs": {"o": {"type": "file", "path": "one.txt"}}}],
        "outputs": {"o": "one.o"},
    }
    return graph_for(tmp_path, doc).tasks["one"]


def test_decide_action_matrix(tmp_path):
    ws = str(tmp_path / "ws")
    os.makedirs(ws)
    cache = CacheStore(os.path.join(ws, "cache"))
    task = resolved_task(tmp_path)
    fp = task_fingerprint(task)

    assert decide_action(task, Policy.RECOMPUTE, cache) == EXECUTE

    # link: miss executes, hit links to the producing run
    assert decide_action(task, Policy.LINK, cache).kind == "execute"
    src = tmp_path / "blob.txt"
    src.write_text("x\n")
    digest = cache.put_blob(str(src))
    cache.put_entry(CacheEntry(fp, "r-prior", {"o": digest}, {}))
    action = decide_action(task, Policy.LINK, cache)
    assert action.kind == "link" and action.entry.run_id == "r-prior"

    # update: stamp + outputs present skips; either missing executes
    def update():
        return decide_action(task, Policy.UPDATE, cache,
                             stamp=checked_stamp(task, cache, ws, dry=True)[0]).kind

    assert update() == "execute"
    write_stamp(ws, "one", CacheEntry(fp, "r-prior", {"o": digest}, {}))
    assert update() == "execute"
    with open(os.path.join(ws, "one.txt"), "w") as fh:
        fh.write("x\n")
    assert update() == "skip"
    write_stamp(ws, "one", CacheEntry("0" * 64, "r-prior", {"o": digest}, {}))
    assert update() == "execute"


# -- the event-driven core ----------------------------------------------------

def layered(layers, width):
    """`layers` rows of `width` tasks; each reads two tasks of the row above."""
    procs = []
    for row in range(layers):
        for col in range(width):
            proc = {"id": "t%d_%02d" % (row, col),
                    "outputs": {"o": {"type": "file",
                                      "path": "t%d_%02d.txt" % (row, col)}}}
            if row == 0:
                proc["command"] = ["sh", "-c", "echo %d > {outputs.o}" % col]
            else:
                proc["command"] = ["sh", "-c",
                                   "cat {inputs.a} {inputs.b} > {outputs.o}"]
                proc["inputs"] = {
                    port: {"type": "file",
                           "from": "t%d_%02d.o" % (row - 1, (col + k) % width)}
                    for k, port in enumerate("ab")}
            procs.append(proc)
    return {"name": "layered", "processes": procs,
            "outputs": {"last": "t%d_00.o" % (layers - 1)}}


def test_each_task_fingerprinted_once(tmp_path, monkeypatch):
    graph = graph_for(tmp_path, layered(4, 15))
    assert len(graph.tasks) == 60
    calls = []
    real = scheduler.task_fingerprint

    def counting(task):
        calls.append(task.id)
        return real(task)

    monkeypatch.setattr(scheduler, "task_fingerprint", counting)
    result = run_once(tmp_path / "ws", graph, Policy.RECOMPUTE, jobs=2)
    assert result.counts == {"succeeded": 60}
    assert sorted(calls) == sorted(graph.tasks)


def test_jobs_one_starts_smallest_ready_id_first(tmp_path):
    ws = tmp_path / "ws"
    result = run_once(ws, usecase_graph(USECASE_DIR, {}), Policy.RECOMPUTE,
                      jobs=1)
    assert result.ok
    assert started_tasks(read_journal(str(ws), result.run_id)) == [
        "mesh", "convert", "simulate", "macros", "postproc", "paper"]


@pytest.mark.parametrize("error", [CacheError, OSError])
def test_publish_failure_on_worker_fails_the_task(tmp_path, monkeypatch, error):
    publishers = []
    real = Runner._publish_outputs

    def failing(self, task, workdir):
        publishers.append(threading.current_thread())
        if task.id == "a1":
            raise error("disk trouble")
        return real(self, task, workdir)

    monkeypatch.setattr(Runner, "_publish_outputs", failing)
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, two_chains()),
                      Policy.RECOMPUTE, jobs=2, keep_going=True)
    assert {t: r.state for t, r in result.states.items()} == {
        "a1": "failed", "a2": "blocked", "b1": "succeeded", "b2": "succeeded"}
    assert "publishing outputs failed" in result.states["a1"].error
    assert threading.main_thread() not in publishers
    events = read_journal(str(ws), result.run_id)
    assert events[-1].kind == "run-finished"
    assert events[-1].payload["state"] == "failed"
    assert "publishing outputs failed" in [
        e for e in events if e.kind == "task-finished" and e.task == "a1"
    ][0].payload["error"]
    assert load_prov(str(ws), result.run_id)["run"] == result.run_id


def test_noop_rerun_fsyncs_journal_once(tmp_path, monkeypatch):
    doc = layered(5, 10)
    ws = tmp_path / "ws"
    run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE, jobs=2)

    fsyncs = []
    real_fsync = os.fsync
    monkeypatch.setattr(runstate.os, "fsync",
                        lambda fd: (fsyncs.append(fd), real_fsync(fd)))
    visible = []
    real_append = runstate.Journal.append_event

    def append_then_read(self, event):
        real_append(self, event)
        events, _ = read_events(self.path)
        visible.append(events[-1] == event)

    monkeypatch.setattr(runstate.Journal, "append_event", append_then_read)
    result = run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE, jobs=2)
    assert result.counts == {"skipped-up-to-date": 50}
    assert 1 <= len(fsyncs) <= 2
    assert len(visible) == 52 and all(visible)


def test_link_run_reads_each_entry_once(tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    run_once(ws, graph_for(tmp_path, two_chains()), Policy.RECOMPUTE)
    lookups = []
    real = CacheStore.get_entry

    def counting(self, fingerprint):
        lookups.append(fingerprint)
        return real(self, fingerprint)

    monkeypatch.setattr(CacheStore, "get_entry", counting)
    result = run_once(ws, graph_for(tmp_path, two_chains()), Policy.LINK)
    assert result.counts == {"cached": 4}
    assert len(lookups) == 4


def test_workers_publish_shared_content_concurrently(tmp_path):
    """Many workers at once put the same blob, stamp and link outputs."""
    procs = [{"id": "w%02d" % i,
              "command": ["sh", "-c", "echo same > {outputs.o}"],
              "outputs": {"o": {"type": "file", "path": "w%02d.txt" % i}}}
             for i in range(24)]
    doc = {"name": "shared", "processes": procs, "outputs": {"o": "w00.o"}}
    ws = tmp_path / "ws"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE,
                          jobs=8)
    finally:
        sys.setswitchinterval(interval)
    assert result.counts == {"succeeded": 24}
    assert len({r.file_digests["o"] for r in result.states.values()}) == 1
    cache = CacheStore(os.path.join(str(ws), "cache"))
    for tid, r in result.states.items():
        assert (ws / ("%s.txt" % tid)).read_text() == "same\n"
        assert cache.get_entry(r.fingerprint).run_id == result.run_id
    rerun = run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE, jobs=8)
    assert rerun.counts == {"skipped-up-to-date": 24}


def test_a_stamp_written_before_stamps_were_entries_still_skips(tmp_path):
    """Such a stamp is compact and has no `run`; upgrading must not
    re-execute the workspace."""
    doc = layered(2, 3)
    ws = tmp_path / "ws"
    run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE)
    stamps = ws / ".flowforge" / "stamps"
    for path in stamps.iterdir():
        entry = json.loads(path.read_text())
        path.write_text(json.dumps({"fingerprint": entry["fingerprint"],
                                    "files": entry["files"],
                                    "values": entry["values"]}) + "\n")
    result = run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE)
    assert result.counts == {"skipped-up-to-date": 6}


def test_noop_update_reads_each_stamp_once(tmp_path, monkeypatch):
    doc = layered(3, 10)
    ws = tmp_path / "ws"
    run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE, jobs=2)
    reads = []
    real = scheduler.read_stamp

    def counting(workspace, task_id):
        reads.append(task_id)
        return real(workspace, task_id)

    monkeypatch.setattr(scheduler, "read_stamp", counting)
    result = run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE, jobs=2)
    assert result.counts == {"skipped-up-to-date": 30}
    assert sorted(reads) == sorted(result.states)
    reads.clear()
    preview = Runner(str(ws)).plan_preview(graph_for(tmp_path, doc),
                                           Policy.UPDATE)
    assert {a.kind for a in preview.values()} == {"skip"}
    assert sorted(reads) == sorted(preview)


# -- dry-run agrees with run ---------------------------------------------------

def edit_domain_size(usecase_dir, ws, params):
    params["domain_size"] = 2.0


def edit_postproc_script(usecase_dir, ws, params):
    with open(os.path.join(usecase_dir, "bin", "postproc.py"), "a") as fh:
        fh.write("\n# edited\n")


def delete_simulate_output(usecase_dir, ws, params):
    os.remove(os.path.join(ws, "result.vtk"))


@pytest.mark.parametrize("policy", [Policy.UPDATE, Policy.LINK])
@pytest.mark.parametrize("edit", [edit_domain_size, edit_postproc_script,
                                  delete_simulate_output])
def test_dry_run_agrees_with_next_run(usecase_copy, tmp_path, policy, edit):
    """Under update the preview's execute set is exactly what the next run
    starts; under link, where an executed task's new outputs cannot be
    predicted, it is a superset."""
    ws = str(tmp_path / "ws")
    params = {}
    assert run_once(ws, usecase_graph(usecase_copy, params), Policy.UPDATE).ok
    edit(usecase_copy, ws, params)
    preview = Runner(ws).plan_preview(usecase_graph(usecase_copy, params),
                                      policy)
    planned = {t for t, a in preview.items() if a.is_execute}
    result = run_once(ws, usecase_graph(usecase_copy, params), policy)
    assert result.ok
    started = set(started_tasks(read_journal(ws, result.run_id)))
    if policy == Policy.UPDATE:
        assert planned == started
    else:
        assert planned >= started


# -- artifact hashing and store integrity ---------------------------------------

def test_each_output_byte_is_hashed_once(tmp_path, monkeypatch):
    hashed = []
    for mod in (canon, cache, executors, planner, scheduler):
        real = mod.file_digest

        def counting(path, *args, _real=real, **kwargs):
            hashed.append(os.path.getsize(path))
            return _real(path, *args, **kwargs)

        monkeypatch.setattr(mod, "file_digest", counting)
    doc = {
        "name": "bytes",
        "processes": [{
            "id": "make",
            "command": ["sh", "-c",
                        "head -c 100000 /dev/zero > {outputs.big} && mkdir d"
                        " && printf ab > d/a && printf cde > d/b"],
            "outputs": {"big": {"type": "file", "path": "big.bin"},
                        "dir": {"type": "directory", "path": "d"}}}],
        "outputs": {"big": "make.big"},
    }
    result = run_once(tmp_path / "ws", graph_for(tmp_path, doc), Policy.RECOMPUTE)
    assert result.ok
    assert sum(hashed) == 100005

    def sha(data):
        return hashlib.sha256(data).hexdigest()

    assert result.states["make"].file_digests == {
        "big": sha(bytes(100000)),
        "dir": sha(canon.canon_bytes({"kind": "tree", "entries": {
            "a": sha(b"ab"), "b": sha(b"cde")}})),
    }


def tainting_chain(kind):
    """`taint` appends to its staged input file, or to the one member of
    its staged input directory: a hard link to a blob in the store. With
    the param `tag` set to `good` it leaves its input alone."""
    if kind == "file":
        make, target = "echo clean > {outputs.o}", "{inputs.i}"
    else:
        make = "mkdir {outputs.o} && echo clean > {outputs.o}/f"
        target = "{inputs.i}/f"
    return {
        "name": "taint",
        "params": {"tag": {"type": "string", "default": "bad"}},
        "processes": [
            {"id": "make", "command": ["sh", "-c", make],
             "outputs": {"o": {"type": kind, "path": "a"}}},
            {"id": "taint",
             "command": ["sh", "-c", "(test {inputs.tag} = good ||"
                         " (chmod u+w %s && echo x >> %s))"
                         " && echo > {outputs.o}" % (target, target)],
             "inputs": {"i": {"type": kind, "from": "make.o"},
                        "tag": {"type": "string", "from": "params.tag"}},
             "outputs": {"o": {"type": "file", "path": "b.txt"}}},
        ],
        "outputs": {"b": "taint.o"},
    }


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_task_cannot_poison_the_store_through_its_input(tmp_path, kind):
    ws = tmp_path / "ws"
    made = ws / "a" if kind == "file" else ws / "a" / "f"
    result = run_once(ws, graph_for(tmp_path, tainting_chain(kind)), Policy.UPDATE)
    assert result.states["make"].state == "succeeded"
    assert result.states["taint"].state == "failed"
    assert "ModifiedInput(i)" in result.states["taint"].error
    assert_blobs_match_names(str(ws))

    result = run_once(ws, graph_for(tmp_path, tainting_chain(kind)), Policy.LINK)
    assert result.states["make"].state == "succeeded"  # the entry became a miss
    assert result.states["taint"].state == "failed"
    assert_blobs_match_names(str(ws))
    # A placed output, executed or linked, shares its inode with the
    # store, and so with the input staged from it: the bytes `make`
    # placed exist nowhere once `taint` wrote its input, so `a` leaves
    # the workspace with make's stamp instead of keeping taint's bytes.
    assert not made.exists()
    assert not os.path.exists(stamp_path(str(ws), "make"))

    good = graph_for(tmp_path, tainting_chain(kind), {"tag": "good"})
    result = run_once(ws, good, Policy.UPDATE)
    assert result.states["make"].state == "succeeded"
    assert result.ok
    assert made.read_text() == "clean\n"
    assert_store_sealed(str(ws))

    ws = tmp_path / "linked"
    made = ws / "a" if kind == "file" else ws / "a" / "f"
    assert run_once(ws, good, Policy.UPDATE).ok
    result = run_once(ws, graph_for(tmp_path, tainting_chain(kind)), Policy.LINK)
    assert result.states["make"].state == "cached"
    assert "ModifiedInput(i)" in result.states["taint"].error
    assert not made.exists()
    assert not os.path.exists(stamp_path(str(ws), "make"))
    result = run_once(ws, good, Policy.UPDATE)
    assert result.states["make"].state == "succeeded"
    assert result.ok
    assert made.read_text() == "clean\n"
    assert_store_sealed(str(ws))


def test_a_task_that_replaces_its_input_leaves_the_blob(tmp_path):
    """A task that removes its staged input and writes a new file there
    still fails, but the blob it was staged from is intact: it stays in
    the store, so the producer's output and entry stay valid."""
    doc = reader_chain()
    doc["processes"][1]["command"] = [
        "sh", "-c", "cat {inputs.x} > {outputs.o}; rm -f {inputs.x};"
        " echo other > {inputs.x}"]
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, doc), Policy.UPDATE)
    assert result.states["a"].state == "succeeded"
    assert result.states["b"].state == "failed"
    assert "ModifiedInput(x)" in result.states["b"].error
    assert (ws / "a.txt").read_text() == "hi\n"
    assert_store_sealed(str(ws))
    preview = Runner(str(ws)).plan_preview(graph_for(tmp_path, doc), Policy.LINK)
    assert preview["a"].kind == "link"


class CountingOs:
    """Stands in for `os` inside flowforge.cache: counts the calls that
    set the per-member cost of moving a directory through the engine."""

    WATCHED = ("link", "chmod", "fchmod", "makedirs", "open")

    def __init__(self):
        self.calls = {name: [] for name in self.WATCHED}

    def __getattr__(self, name):
        real = getattr(os, name)
        if name not in self.WATCHED:
            return real

        def counted(*args, **kwargs):
            # (whether args[0] was a directory already, args)
            self.calls[name].append((os.path.isdir(args[0]), args))
            return real(*args, **kwargs)
        return counted

    def created_under(self, root: str) -> list:
        """The files opened for creation under `root`."""
        return [args[0] for _, args in self.calls["open"]
                if args[0].startswith(root) and args[1] & os.O_CREAT]


def test_directory_artifact_file_operation_budget(tmp_path, monkeypatch):
    """A deterministic guard beside the benchmark. Publishing a
    200-member directory adopts each member produced: one chmod, one
    hash and one link into the store; the one file created under
    cache/objects is the new tree manifest's. Placing and staging cost one link per member placed;
    no mkstemp, and a makedirs only for a directory that does not exist
    yet. A second round reproduces the same bytes, so the workspace
    already holds every blob's inode: it is left as it is, and only the
    staging links into count's sandbox remain."""
    n = 200
    doc = {
        "name": "budget",
        "processes": [
            {"id": "make",
             "command": ["sh", "-c", "mkdir {outputs.d} && for i in $(seq %d);"
                         " do echo $i > {outputs.d}/m$i; done" % n],
             "outputs": {"d": {"type": "directory", "path": "d"}}},
            {"id": "count",
             "command": ["sh", "-c", "ls {inputs.d} | wc -l > {outputs.n}"],
             "inputs": {"d": {"type": "directory", "from": "make.d"}},
             "outputs": {"n": {"type": "file", "path": "n.txt"}}},
        ],
        "outputs": {"n": "count.n"},
    }
    mkstemps, hashed = [], []
    real_mkstemp, real_digest = tempfile.mkstemp, cache.file_digest
    monkeypatch.setattr(tempfile, "mkstemp",
                        lambda *a, **k: mkstemps.append(a) or real_mkstemp(*a, **k))
    monkeypatch.setattr(cache, "file_digest",
                        lambda path, **k: hashed.append(path) or real_digest(path, **k))
    ws = tmp_path / "ws"
    objects = os.path.join(str(ws), "cache", "objects")
    for fresh in (True, False):
        counting = CountingOs()
        hashed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cache, "os", counting)
            result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
        assert result.ok, result.states
        assert (ws / "n.txt").read_text().strip() == str(n)
        sandboxes = os.path.join(str(ws), "runs", result.run_id, "tasks")
        produced = sorted([os.path.join(sandboxes, "make", "d", "m%d" % i)
                           for i in range(1, n + 1)]
                          + [os.path.join(sandboxes, "count", "n.txt")])
        assert sorted(args[0] for _, args in counting.calls["chmod"]) == produced
        assert counting.calls["fchmod"] == []
        assert sorted(hashed) == produced
        assert len(counting.created_under(objects)) == fresh and mkstemps == []
        # a link that misses its shard directory is made again after makedirs
        made = [args[0] for existed, args in counting.calls["makedirs"]]
        into_store = [args[0] for _, args in counting.calls["link"]
                      if args[1].startswith(objects)]
        assert sorted(set(into_store)) == produced
        assert len(into_store) == len(produced) + sum(
            path.startswith(objects) for path in made)
        # n members into the workspace, n into count's sandbox, and n.txt;
        # the second round finds the workspace's n + 1 in place
        placed = [args[1] for _, args in counting.calls["link"]
                  if not args[1].startswith(objects)]
        assert len(placed) == len(set(placed)) == (2 * n + 1 if fresh else n)
        assert sum(path.startswith(sandboxes) for path in placed) == n
        assert not any(existed for existed, _ in counting.calls["makedirs"])
        assert len(made) == len(set(made))
        if not fresh:  # the store's directories and d exist: count's sandbox
            assert len(made) == 1
    assert_store_sealed(str(ws))


def test_a_produced_file_is_adopted_not_copied(tmp_path, monkeypatch):
    """An 8 MiB output is hashed once, in place, and becomes its blob:
    the workspace output and the blob are one inode, and no file is
    created under cache/objects."""
    size = 8 << 20
    doc = {
        "name": "adopt",
        "processes": [{
            "id": "make",
            "command": ["sh", "-c", "head -c %d /dev/zero > {outputs.o}" % size],
            "outputs": {"o": {"type": "file", "path": "big.bin"}}}],
        "outputs": {"o": "make.o"},
    }
    hashed = []
    for mod in (canon, cache, executors, planner, scheduler):
        real = mod.file_digest

        def counting(path, *args, _real=real, **kwargs):
            hashed.append(os.path.getsize(path))
            return _real(path, *args, **kwargs)

        monkeypatch.setattr(mod, "file_digest", counting)
    ws = tmp_path / "ws"
    counting_os = CountingOs()
    with monkeypatch.context() as patch:
        patch.setattr(cache, "os", counting_os)
        result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
    assert result.ok
    assert hashed == [size]
    assert counting_os.created_under(os.path.join(str(ws), "cache", "objects")) == []
    digest = result.states["make"].file_digests["o"]
    assert digest == hashlib.sha256(bytes(size)).hexdigest()
    assert os.path.samestat(os.stat(ws / "big.bin"), os.stat(
        CacheStore(str(ws / "cache")).blob_path(digest)))
    assert_store_sealed(str(ws))


@pytest.mark.parametrize("policy", [Policy.RECOMPUTE, Policy.LINK])
def test_an_edit_in_an_old_sandbox_does_not_reach_the_store(tmp_path, policy):
    """A succeeded task leaves no sandbox, so no file remains at an
    earlier run's output or staged input path to reach the blob that a
    later run places, by executing or by linking."""
    doc = {
        "name": "tagged",
        "params": {"tag": {"type": "string", "default": "a"}},
        "processes": [
            {"id": "make",
             "command": ["sh", "-c", "echo {inputs.t} > {outputs.o}"],
             "inputs": {"t": {"type": "string", "from": "params.tag"}},
             "outputs": {"o": {"type": "file", "path": "o.txt"}}},
            {"id": "use", "command": ["sh", "-c", "cat {inputs.i} > {outputs.c}"],
             "inputs": {"i": {"type": "file", "from": "make.o"}},
             "outputs": {"c": {"type": "file", "path": "c.txt"}}}],
        "outputs": {"c": "use.c"},
    }
    ws = tmp_path / "ws"
    first = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
    assert run_once(ws, graph_for(tmp_path, doc, {"tag": "b"}), Policy.UPDATE).ok
    sandboxes = ws / "runs" / first.run_id / "tasks"
    for old in (sandboxes / "make" / "o.txt",
                sandboxes / "use" / "inputs" / "i" / "o.txt"):
        assert not old.exists() and not old.parent.exists()
    result = run_once(ws, graph_for(tmp_path, doc), policy)
    assert result.ok
    assert (ws / "o.txt").read_text() == (ws / "c.txt").read_text() == "a\n"
    assert result.states["make"].file_digests["o"] == hashlib.sha256(b"a\n").hexdigest()
    assert_store_sealed(str(ws))


def test_only_a_file_the_task_made_is_adopted(tmp_path):
    """A symlink to a file outside the sandbox and a hard link to one are
    stored by copy: the outside files keep their inode and mode."""
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "s.txt").write_text("reached by a symlink\n")
    (outside / "h.txt").write_text("reached by a hard link\n")
    before = {name: os.stat(outside / name) for name in ("s.txt", "h.txt")}
    doc = {
        "name": "foreign",
        "processes": [{
            "id": "make",
            "command": ["sh", "-c", "ln -s %s {outputs.s} && ln %s {outputs.h}"
                        % (outside / "s.txt", outside / "h.txt")],
            "outputs": {"s": {"type": "file", "path": "s.txt"},
                        "h": {"type": "file", "path": "h.txt"}}}],
        "outputs": {"s": "make.s"},
    }
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
    assert result.ok, result.states
    store = CacheStore(str(ws / "cache"))
    for port, name in (("s", "s.txt"), ("h", "h.txt")):
        now = os.stat(outside / name)
        assert (now.st_ino, now.st_mode) == (before[name].st_ino, before[name].st_mode)
        blob = os.stat(store.blob_path(result.states["make"].file_digests[port]))
        assert not os.path.samestat(now, blob)
        assert blob.st_mode & 0o777 == 0o444
        assert (ws / name).read_text() == (outside / name).read_text()
    assert_store_sealed(str(ws))


def test_no_file_reached_through_a_symlink_is_taken(tmp_path):
    """A directory output that is a symlink to an outside directory, and
    a file output in a directory that is one, are stored by copy: the
    outside files stay where they were, with their inode and mode."""
    outside = tmp_path / "outside"
    (outside / "sub").mkdir(parents=True)
    (outside / "sub" / "m.txt").write_text("member\n")
    (outside / "f.txt").write_text("file\n")
    names = ("sub/m.txt", "f.txt")
    before = {name: os.stat(outside / name) for name in names}
    doc = {
        "name": "reached",
        "processes": [{
            "id": "make",
            "command": ["sh", "-c", "ln -s %s {outputs.d} && ln -s %s via"
                        % (outside / "sub", outside)],
            "outputs": {"d": {"type": "directory", "path": "d"},
                        "f": {"type": "file", "path": "via/f.txt"}}}],
        "outputs": {"d": "make.d"},
    }
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
    assert result.ok, result.states
    for name in names:
        now = os.stat(outside / name)
        assert (now.st_ino, now.st_mode) == (before[name].st_ino, before[name].st_mode)
    assert (ws / "d" / "m.txt").read_text() == "member\n"
    assert (ws / "via" / "f.txt").read_text() == "file\n"
    assert_store_sealed(str(ws))


def test_a_task_that_makes_its_inputs_a_symlink_keeps_the_files_it_reaches(tmp_path):
    """Unlinking the staged inputs when a task ends does not follow an
    `inputs` that the task replaced by a symlink."""
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "keep.txt").write_text("keep\n")
    doc = reader_chain()
    doc["processes"][1]["command"] = [
        "sh", "-c", "cat {inputs.x} > {outputs.o} && rm -r inputs && ln -s %s inputs"
        % outside]
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
    assert result.ok, result.states
    assert (outside / "keep.txt").read_text() == "keep\n"
    assert_store_sealed(str(ws))


# -- a placed output edited in place ---------------------------------------------

def reader_chain():
    """`a` writes `hi`; `b` reads it twice."""
    return {
        "name": "reader",
        "processes": [
            {"id": "a", "command": ["sh", "-c", "echo hi > {outputs.o}"],
             "outputs": {"o": {"type": "file", "path": "a.txt"}}},
            {"id": "b", "command": ["sh", "-c", "cat {inputs.x} {inputs.x} > {outputs.o}"],
             "inputs": {"x": {"type": "file", "from": "a.o"}},
             "outputs": {"o": {"type": "file", "path": "b.txt"}}},
        ],
        "outputs": {"b": "b.o"},
    }


def edit_in_place(path, data: bytes, append: bool = False):
    """Write through the inode at `path`, as an editor that keeps it does.
    The owner must lift the read-only mode first; root need not."""
    os.chmod(path, 0o644)
    with open(path, "ab" if append else "r+b") as fh:
        fh.write(data)


@pytest.mark.parametrize("edit, policy", [
    ("append", Policy.UPDATE), ("same size", Policy.UPDATE),
    ("same size", Policy.RECOMPUTE)])
def test_an_output_edited_in_place_cannot_poison_the_store(tmp_path, edit, policy):
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, reader_chain()), Policy.RECOMPUTE).ok
    assert run_once(ws, graph_for(tmp_path, reader_chain()), Policy.LINK).ok
    edit_in_place(ws / "a.txt", b"EDIT\n" if edit == "append" else b"HI\n",
                  append=edit == "append")
    result = run_once(ws, graph_for(tmp_path, reader_chain()), policy)
    assert started_tasks(read_journal(str(ws), result.run_id)) == ["a", "b"]
    assert result.ok
    assert (ws / "a.txt").read_text() == "hi\n"
    assert (ws / "b.txt").read_text() == "hi\nhi\n"
    assert_store_sealed(str(ws))


@pytest.mark.parametrize("policy", [Policy.UPDATE, Policy.LINK])
def test_a_dry_run_sees_an_output_edited_in_place(tmp_path, policy):
    """The preview makes the run's check but changes nothing: the changed
    blob and the stamp stay until the run drops them."""
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, reader_chain()), Policy.RECOMPUTE).ok
    edit_in_place(ws / "a.txt", b"EDIT\n", append=True)
    before = sorted(p.name for p in (ws / "cache" / "objects").rglob("*")) + sorted(
        p.name for p in (ws / ".flowforge" / "stamps").iterdir())
    preview = Runner(str(ws)).plan_preview(graph_for(tmp_path, reader_chain()), policy)
    planned = {t for t, a in preview.items() if a.is_execute}
    assert planned == {"a", "b"}  # a's outputs are unknown until it runs
    assert before == sorted(p.name for p in (ws / "cache" / "objects").rglob("*")) + sorted(
        p.name for p in (ws / ".flowforge" / "stamps").iterdir())
    result = run_once(ws, graph_for(tmp_path, reader_chain()), policy)
    started = set(started_tasks(read_journal(str(ws), result.run_id)))
    # link finds b's entry again once a has reproduced its output
    assert started == ({"a", "b"} if policy == Policy.UPDATE else {"a"})
    assert started <= planned
    assert (ws / "b.txt").read_text() == "hi\nhi\n"
    assert_store_sealed(str(ws))


def test_an_output_replaced_by_a_directory_is_found(tmp_path):
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, reader_chain()), Policy.UPDATE).ok
    os.unlink(ws / "a.txt")
    os.mkdir(ws / "a.txt")
    for policy in (Policy.UPDATE, Policy.RECOMPUTE, Policy.LINK):
        result = run_once(ws, graph_for(tmp_path, reader_chain()), policy)
        assert result.states["a"].state == "failed"
        assert "publishing outputs failed" in result.states["a"].error
    assert_blobs_match_names(str(ws))


def test_a_directory_output_replaced_by_a_file_is_found(tmp_path):
    """The reverse of the test above: the file stays, and the task that
    places a directory there fails under every policy."""
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, dir_chain()), Policy.UPDATE).ok
    shutil.rmtree(ws / "d")
    (ws / "d").write_text("mine\n")
    for policy in (Policy.UPDATE, Policy.RECOMPUTE, Policy.LINK):
        result = run_once(ws, graph_for(tmp_path, dir_chain()), policy)
        assert result.states["d"].state == "failed"
        assert "publishing outputs failed" in result.states["d"].error
        assert (ws / "d").read_text() == "mine\n"
    assert_blobs_match_names(str(ws))


def test_an_edit_in_the_stamps_own_tick_is_found(tmp_path):
    """A record whose mtime is not older than its stamp proves nothing
    (git's racy rule): a same-size edit that restores the mtime, and so
    every recorded field, is still found."""
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, reader_chain()), Policy.RECOMPUTE).ok
    assert run_once(ws, graph_for(tmp_path, reader_chain()), Policy.LINK).ok
    placed = os.stat(ws / "a.txt")
    stamp = ws / ".flowforge" / "stamps" / "a"
    assert json.loads(stamp.read_text())["placed"] == {
        "a.txt": [placed.st_ino, placed.st_size, placed.st_mtime_ns]}
    os.utime(stamp, ns=(placed.st_atime_ns, placed.st_mtime_ns))
    edit_in_place(ws / "a.txt", b"HI\n")
    os.utime(ws / "a.txt", ns=(placed.st_atime_ns, placed.st_mtime_ns))
    edited = os.stat(ws / "a.txt")
    assert (edited.st_ino, edited.st_size, edited.st_mtime_ns) == (
        placed.st_ino, placed.st_size, placed.st_mtime_ns)
    result = run_once(ws, graph_for(tmp_path, reader_chain()), Policy.UPDATE)
    assert started_tasks(read_journal(str(ws), result.run_id)) == ["a", "b"]
    assert (ws / "b.txt").read_text() == "hi\nhi\n"
    assert_store_sealed(str(ws))


def strip_stat_records(ws):
    """Rewrite every stamp as one written before stamps recorded stat data."""
    for path in (ws / ".flowforge" / "stamps").iterdir():
        entry = json.loads(path.read_text())
        entry.pop("placed", None)
        path.write_text(json.dumps(entry))


def dir_chain():
    doc = reader_chain()
    doc["processes"].append(
        {"id": "d", "command": ["sh", "-c", "mkdir -p {outputs.o}/s && echo x > {outputs.o}/s/m"],
         "outputs": {"o": {"type": "directory", "path": "d"}}})
    return doc


def file_and_tree():
    """`t` writes a file and a directory with a nested member; with
    keep=no it drops the directory's member `top`."""
    return {
        "name": "both",
        "params": {"keep": {"type": "string", "default": "yes"}},
        "processes": [{
            "id": "t",
            "command": ["sh", "-c", "echo f > {outputs.f}; mkdir -p {outputs.d}/s;"
                        " echo m > {outputs.d}/s/m; if [ {inputs.keep} = yes ];"
                        " then echo top > {outputs.d}/top; fi"],
            "inputs": {"keep": {"type": "string", "from": "params.keep"}},
            "outputs": {"f": {"type": "file", "path": "f.txt"},
                        "d": {"type": "directory", "path": "d"}}}],
        "outputs": {"f": "t.f", "d": "t.d"},
    }


def test_executed_and_linked_outputs_are_placed_alike(tmp_path):
    """An executed task's outputs are placed as a linked task's are: the
    same files, recorded alike in the stamp, and no member that the
    outputs placed last no longer hold."""
    ws = tmp_path / "ws"

    def run(policy, keep="yes"):
        result = run_once(ws, graph_for(tmp_path, file_and_tree(), {"keep": keep}),
                          policy)
        assert result.ok, result.states
        assert_store_sealed(str(ws))
        return result.states["t"].state, json.loads(
            (ws / ".flowforge" / "stamps" / "t").read_text())

    def members():
        return sorted(p.relative_to(ws).as_posix() for p in (ws / "d").rglob("*")
                      if p.is_file())

    state, executed = run(Policy.RECOMPUTE)
    assert state == "succeeded"
    state, linked = run(Policy.LINK)
    assert state == "cached"
    assert linked["files"] == executed["files"]
    assert sorted(linked["placed"]) == sorted(executed["placed"]) == [
        "d/s/m", "d/top", "f.txt"]
    assert linked["placed"] == executed["placed"]  # the same inodes: the blobs
    assert members() == ["d/s/m", "d/top"]
    for policy in (Policy.RECOMPUTE, Policy.LINK):
        state, stamp = run(policy, keep="no")
        assert state == ("succeeded" if policy == Policy.RECOMPUTE else "cached")
        assert sorted(stamp["placed"]) == ["d/s/m", "f.txt"]
        assert members() == ["d/s/m"]
        assert run(Policy.LINK)[0] == "cached"
        assert members() == ["d/s/m", "d/top"]


def file_and_wide_tree(n=200):
    """`t` writes a file and a directory of n + 1 members, one nested."""
    return {
        "name": "wide",
        "processes": [{
            "id": "t",
            "command": ["sh", "-c", "echo f > {outputs.f}; mkdir -p {outputs.d}/s;"
                        " echo m > {outputs.d}/s/m; for i in $(seq %d);"
                        " do echo $i > {outputs.d}/m$i; done" % n],
            "outputs": {"f": {"type": "file", "path": "f.txt"},
                        "d": {"type": "directory", "path": "d"}}}],
        "outputs": {"f": "t.f", "d": "t.d"},
    }


def workspace_state(ws, run_id=None):
    """path -> (st_ino, st_nlink, st_mtime_ns, st_ctime_ns) of every file,
    directory and stamp in the workspace but the records of run `run_id`:
    its directory, the run index and the runs/ directory that lists it."""
    state = {}
    for dirpath, dirnames, filenames in os.walk(ws):
        for name in dirnames + filenames:
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, ws).replace(os.sep, "/")
            if rel in ("runs", "runs/index.json", "runs/%s" % run_id) \
                    or rel.startswith("runs/%s/" % run_id):
                continue
            st = os.lstat(path)
            state[rel] = (st.st_ino, st.st_nlink, st.st_mtime_ns, st.st_ctime_ns)
    return state


def test_an_unchanged_link_run_leaves_the_workspace_as_it_was(tmp_path):
    """Outputs that already are their blobs, and a stamp that already
    records them, are left as they are: no link, unlink, rename or
    directory made or removed, so no inode, link count or time moves."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, file_and_wide_tree())
    assert run_once(ws, graph, Policy.RECOMPUTE).ok
    assert run_once(ws, graph, Policy.LINK).ok  # refreshes a stamp of its files' tick
    before = workspace_state(str(ws))
    assert len(before) > 200
    result = run_once(ws, graph, Policy.LINK)
    assert result.counts == {"cached": 1}
    assert workspace_state(str(ws), result.run_id) == before
    assert_store_sealed(str(ws))


class CountingStats(CountingOs):
    """Stands in for `os` inside flowforge.cache and flowforge.scheduler:
    counts the stat-family calls, DirEntry.stat of os.scandir's entries
    included."""

    WATCHED = ("stat", "lstat")

    def __init__(self):
        super().__init__()
        self.calls["DirEntry.stat"] = []

    def __getattr__(self, name):
        if name != "scandir":
            return super().__getattr__(name)
        calls = self.calls["DirEntry.stat"]

        class Entry:
            def __init__(self, entry):
                self.entry = entry

            def __getattr__(self, attr):
                return getattr(self.entry, attr)

            def stat(self, **kwargs):
                calls.append((False, (self.entry.path,)))
                return self.entry.stat(**kwargs)

        class Listing:
            def __init__(self, *args):
                self.listing = os.scandir(*args)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.listing.close()

            def __iter__(self):
                return (Entry(entry) for entry in self.listing)
        return Listing


def test_an_unchanged_link_run_stats_each_placed_file_twice(tmp_path, monkeypatch):
    """A link run over an unchanged workspace looks at each placed file
    once, when its stamp is checked, and at its blob once, when placing
    keeps it: no third stat of either, and none through a listing."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, file_and_wide_tree())
    assert run_once(ws, graph, Policy.RECOMPUTE).ok
    assert run_once(ws, graph, Policy.LINK).ok  # refreshes a stamp of its files' tick
    placed = len(read_stamp(str(ws), "t").placed)
    assert placed == 202
    counting = CountingStats()
    with monkeypatch.context() as patch:
        patch.setattr(cache, "os", counting)
        patch.setattr(scheduler, "os", counting)
        assert run_once(ws, graph, Policy.LINK).counts == {"cached": 1}
    calls = {name: len(made) for name, made in counting.calls.items()}
    assert sum(calls.values()) <= 2 * placed + 4, calls


def test_an_unchanged_update_run_stats_each_placed_file_once(tmp_path, monkeypatch):
    """An update run over an unchanged workspace looks at each placed
    file once, through the scan of its directory output or the lstat of
    a file output, and besides at each directory output's own path and
    the stamp."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, file_and_wide_tree())
    assert run_once(ws, graph, Policy.RECOMPUTE).ok
    assert run_once(ws, graph, Policy.LINK).ok  # refreshes a stamp of its files' tick
    placed = len(read_stamp(str(ws), "t").placed)
    assert placed == 202
    counting = CountingStats()
    with monkeypatch.context() as patch:
        patch.setattr(cache, "os", counting)
        patch.setattr(scheduler, "os", counting)
        assert run_once(ws, graph, Policy.UPDATE).counts == {"skipped-up-to-date": 1}
    calls = {name: len(made) for name, made in counting.calls.items()}
    assert sum(calls.values()) <= placed + 1 + 1, calls


def test_an_unchanged_link_run_scans_each_directory_output_once(tmp_path, monkeypatch):
    """The stamp check's reading of a directory output is the run's one
    reading of it: placing trusts it and scans the directory no more."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, file_and_wide_tree())
    assert run_once(ws, graph, Policy.RECOMPUTE).ok
    scanned = []
    real = cache.scan_tree
    monkeypatch.setattr(cache, "scan_tree",
                        lambda root, members: scanned.append(root) or real(root, members))
    monkeypatch.setattr(scheduler, "scan_tree", cache.scan_tree)
    for _ in range(2):
        scanned.clear()
        assert run_once(ws, graph, Policy.LINK).counts == {"cached": 1}
        assert scanned == [str(ws / "d")]


@pytest.mark.parametrize("dry", [False, True])
def test_an_unchanged_update_looks_for_no_output_again(tmp_path, monkeypatch, dry):
    """Update skips on the checked stamp alone, in a run as in its
    preview: no isfile or isdir call looks for a declared output again."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, file_and_wide_tree())
    assert run_once(ws, graph, Policy.RECOMPUTE).ok
    looked = []
    with monkeypatch.context() as patch:
        for name in ("isfile", "isdir"):
            real = getattr(os.path, name)
            patch.setattr(os.path, name, lambda path, real=real:
                          looked.append(os.fspath(path)) or real(path))
        if dry:
            assert Runner(str(ws)).plan_preview(graph, Policy.UPDATE)["t"].kind == "skip"
        else:
            assert run_once(ws, graph, Policy.UPDATE).counts == {"skipped-up-to-date": 1}
    assert not {str(ws / "f.txt"), str(ws / "d")} & set(looked)


def test_a_changed_blob_that_cannot_leave_the_store_is_not_linked(tmp_path, monkeypatch):
    """A blob that an edit in place changed is linked by no task of the
    run, even when the check cannot remove it from the store: the task
    executes, and the store and workspace get its bytes back."""
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, reader_chain()), Policy.RECOMPUTE).ok
    blob = CacheStore(str(ws / "cache")).blob_path(
        read_stamp(str(ws), "a").file_outputs["o"])
    edit_in_place(ws / "a.txt", b"EDIT\n", append=True)
    real = os.unlink

    def unlink(path, *args, **kwargs):
        if os.fspath(path) == blob:
            raise PermissionError(13, "Permission denied", path)
        return real(path, *args, **kwargs)
    with monkeypatch.context() as patch:
        patch.setattr(os, "unlink", unlink)
        result = run_once(ws, graph_for(tmp_path, reader_chain()), Policy.LINK)
    assert result.ok
    assert started_tasks(read_journal(str(ws), result.run_id)) == ["a"]
    assert result.states["a"].state == "succeeded"
    assert (ws / "a.txt").read_text() == "hi\n"
    assert_store_sealed(str(ws))


def test_a_link_that_fails_part_way_is_placed_anew(tmp_path):
    """A link that fails after placing part of a directory voids the
    check's reading of it: the task executes, and its placement removes
    what the failed link left, so the directory holds its members only."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, {
        "name": "one-member",
        "processes": [{"id": "t",
                       "command": ["sh", "-c", "mkdir {outputs.d}; echo a > {outputs.d}/a"],
                       "outputs": {"d": {"type": "directory", "path": "d"}}}],
        "outputs": {"d": "t.d"}})
    assert run_once(ws, graph, Policy.RECOMPUTE).ok
    store = CacheStore(str(ws / "cache"))
    planted = tmp_path / "planted"
    planted.mkdir()
    for name in "abc":
        (planted / name).write_text(name + "\n")
    tree = store.put_tree(str(planted))
    os.unlink(store.blob_path(store.read_tree_manifest(tree)["entries"]["c"]))
    store.put_entry(CacheEntry(read_stamp(str(ws), "t").fingerprint, "r-planted",
                               {"d": tree}, {}))
    result = run_once(ws, graph, Policy.LINK)
    assert result.states["t"].state == "succeeded"
    assert sorted(os.listdir(ws / "d")) == ["a"]
    assert run_once(ws, graph, Policy.UPDATE).counts == {"skipped-up-to-date": 1}


class FileOperations:
    """While active, records the (event, path) of each link, unlink,
    mkdir, rmdir, rename and rmtree the process makes. Python keeps an
    audit hook for the life of the process, so one hook is added, the
    first time it is needed, and records for the active instance only."""

    EVENTS = ("os.link", "os.remove", "os.mkdir", "os.rmdir", "os.rename",
              "shutil.rmtree")
    active = None  # the instance recording, if any
    hooked = False

    def __init__(self):
        self.seen = []

    def __enter__(self):
        if not FileOperations.hooked:
            sys.addaudithook(FileOperations.hook)
            FileOperations.hooked = True
        FileOperations.active = self
        return self

    def __exit__(self, *exc):
        FileOperations.active = None

    @staticmethod
    def hook(event, args):
        recorder = FileOperations.active
        if recorder is not None and event in FileOperations.EVENTS:
            path = args[1 if event == "os.link" else 0]
            recorder.seen.append((event, os.fsdecode(path)))

    def under(self, ws) -> list:
        """Those made under the workspace `ws`, outside runs/."""
        root = os.path.join(str(ws), "")
        return [(event, path) for event, path in self.seen
                if path.startswith(root) and not path.startswith(root + "runs" + os.sep)]


def wide_tree_with_param(n=201, changed=4):
    """`t` writes a directory of n members; the first `changed` hold the
    param `k`."""
    return {
        "name": "wide-param",
        "params": {"k": {"type": "string", "default": "a"}},
        "processes": [{
            "id": "t",
            "command": ["sh", "-c", "mkdir {outputs.d}; for i in $(seq %d); do"
                        " if [ $i -le %d ]; then echo $i-{inputs.k}; else echo $i; fi"
                        " > {outputs.d}/m$i; done" % (n, changed)],
            "inputs": {"k": {"type": "string", "from": "params.k"}},
            "outputs": {"d": {"type": "directory", "path": "d"}}}],
        "outputs": {"d": "t.d"},
    }


def test_a_link_run_replaces_only_the_members_that_differ(tmp_path):
    """Linking a result whose directory differs from the placed one in 4
    of 201 members relinks those 4 and nothing else: the directory and
    every other member keep their inode and change time, and no
    directory is made or removed."""
    ws = tmp_path / "ws"
    for k in ("a", "b"):
        assert run_once(ws, graph_for(tmp_path, wide_tree_with_param(), {"k": k}),
                        Policy.RECOMPUTE).ok
    d = ws / "d"
    before = {name: os.lstat(d / name) for name in os.listdir(d)}
    inode = os.lstat(d).st_ino
    with FileOperations() as recorded:
        result = run_once(ws, graph_for(tmp_path, wide_tree_with_param(), {"k": "a"}),
                          Policy.LINK)
    assert result.counts == {"cached": 1}
    ops = recorded.under(ws)
    changed = {str(d / ("m%d" % i)) for i in range(1, 5)}
    assert {path for event, path in ops if event == "os.link"} == changed
    assert sorted(path for event, path in ops if event == "os.remove") == sorted(changed)
    assert [op for op in ops if op[0] in ("os.mkdir", "os.rmdir", "shutil.rmtree")] == []
    assert os.lstat(d).st_ino == inode
    assert sorted(os.listdir(d)) == sorted(before)
    for name, st in before.items():
        now = os.lstat(d / name)
        assert ((now.st_ino, now.st_ctime_ns) == (st.st_ino, st.st_ctime_ns)) \
            == (str(d / name) not in changed), name
    assert (d / "m1").read_text() == "1-a\n"
    assert_store_sealed(str(ws))


def test_a_symlink_at_a_directory_outputs_path_fails_the_task(tmp_path):
    """Placing a directory output follows no symlink at its path: the
    task fails under every policy, and nothing under the symlink's
    target is removed or linked."""
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, dir_chain()), Policy.UPDATE).ok
    outside = tmp_path / "outside"
    outside.mkdir()
    os.link(ws / "d" / "s" / "m", outside / "m")  # a hard link to a member's blob
    (outside / "stray").write_text("mine\n")
    shutil.rmtree(ws / "d")
    os.symlink(outside, ws / "d")
    before = workspace_state(str(outside))
    for policy in (Policy.UPDATE, Policy.RECOMPUTE, Policy.LINK):
        result = run_once(ws, graph_for(tmp_path, dir_chain()), policy)
        assert result.states["d"].state == "failed"
        assert "publishing outputs failed" in result.states["d"].error
        assert os.path.islink(ws / "d")
        assert workspace_state(str(outside)) == before
    assert_blobs_match_names(str(ws))


def add_file(d):
    (d / "extra").write_text("extra\n")


def add_empty_dir(d):
    (d / "empty").mkdir()


def member_to_symlink(d):
    target = os.path.realpath(d / "s" / "m")
    os.unlink(d / "s" / "m")
    os.symlink(target, d / "s" / "m")


def delete_member(d):
    os.unlink(d / "top")


def member_to_copy(d):
    data = (d / "s" / "m").read_bytes()
    os.unlink(d / "s" / "m")
    (d / "s" / "m").write_bytes(data)


def file_to_copy(d):
    f = d.parent / "f.txt"
    data = f.read_bytes()
    os.unlink(f)
    f.write_bytes(data)


def member_dir_to_file(d):
    shutil.rmtree(d / "s")
    (d / "s").write_text("mine\n")


def member_to_dir(d):
    os.unlink(d / "top")
    (d / "top").mkdir()
    (d / "top" / "x").write_text("mine\n")


def member_dir_to_symlink(d):
    """`s` becomes a symlink to an outside directory that holds a hard
    link to s/m's blob, so the stamp check, which follows it, finds s/m
    to be its blob; placing removes the symlink, and with it s/m."""
    outside = d.parent.parent / "outside"
    outside.mkdir()
    os.link(d / "s" / "m", outside / "m")
    shutil.rmtree(d / "s")
    os.symlink(outside, d / "s")


@pytest.mark.parametrize("policy", [Policy.LINK, Policy.RECOMPUTE])
@pytest.mark.parametrize("change", [add_file, add_empty_dir, member_to_symlink,
                                    delete_member, member_to_copy, file_to_copy,
                                    member_dir_to_file, member_to_dir,
                                    member_dir_to_symlink])
def test_placing_keeps_only_outputs_that_are_their_blobs(tmp_path, change, policy):
    """However a placed output was changed, placing it again leaves
    exactly what removing it and placing it anew gives: the directory
    holds the manifest's members and nothing else, each file a link to
    its blob."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, file_and_tree())
    assert run_once(ws, graph, Policy.RECOMPUTE).ok
    change(ws / "d")
    assert run_once(ws, graph, policy).ok
    store = CacheStore(str(ws / "cache"))
    stamp = read_stamp(str(ws), "t")
    members = store.read_tree_manifest(stamp.file_outputs["d"])["entries"]
    assert sorted(p.relative_to(ws / "d").as_posix() for p in (ws / "d").rglob("*")) \
        == sorted(set(members) | {"s"})
    for rel, digest in members.items():
        assert os.path.samestat(os.lstat(ws / "d" / rel), os.stat(store.blob_path(digest)))
    assert os.path.samestat(os.lstat(ws / "f.txt"),
                            os.stat(store.blob_path(stamp.file_outputs["f"])))
    assert_store_sealed(str(ws))


@pytest.mark.parametrize("policy", [Policy.UPDATE, Policy.LINK])
def test_a_directory_output_that_lost_a_member_is_placed_again(tmp_path, policy):
    """A member gone from a placed directory output is a change, as a
    gone file output is: update executes the task, and its preview says
    so."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, file_and_tree())
    assert run_once(ws, graph, Policy.UPDATE).ok
    os.unlink(ws / "d" / "top")
    preview = Runner(str(ws)).plan_preview(graph, policy)
    result = run_once(ws, graph, policy)
    assert result.ok
    started = started_tasks(read_journal(str(ws), result.run_id))
    assert started == (["t"] if policy == Policy.UPDATE else [])
    assert {t for t, a in preview.items() if a.is_execute} == set(started)
    assert (ws / "d" / "top").read_text() == "top\n"
    assert_store_sealed(str(ws))


def dir_to_symlink(d):
    """`d` becomes a symlink to an outside directory that holds a hard
    link to each member's blob, each at its member's path."""
    outside = d.parent.parent / "outside"
    shutil.copytree(d, outside, copy_function=os.link)
    shutil.rmtree(d)
    os.symlink(outside, d)


@pytest.mark.parametrize("change", [add_file, add_empty_dir, member_dir_to_symlink,
                                    dir_to_symlink])
def test_update_executes_a_task_whose_directory_output_placing_would_change(
        tmp_path, change):
    """A directory output that holds anything placing would remove has
    changed, as one that lost a member has: update executes its task,
    and its preview says so. Then the directory holds exactly the
    manifest's members, each a link to its blob; at a symlink the task
    fails, as it does under every policy."""
    ws = tmp_path / "ws"
    graph = graph_for(tmp_path, file_and_tree())
    assert run_once(ws, graph, Policy.UPDATE).ok
    change(ws / "d")
    assert Runner(str(ws)).plan_preview(graph, Policy.UPDATE)["t"].kind == "execute"
    result = run_once(ws, graph, Policy.UPDATE)
    assert started_tasks(read_journal(str(ws), result.run_id)) == ["t"]
    if change is dir_to_symlink:
        assert result.states["t"].state == "failed"
        assert "publishing outputs failed" in result.states["t"].error
        assert os.path.islink(ws / "d")
        return
    assert result.ok
    store = CacheStore(str(ws / "cache"))
    stamp = read_stamp(str(ws), "t")
    members = store.read_tree_manifest(stamp.file_outputs["d"])["entries"]
    assert sorted(p.relative_to(ws / "d").as_posix() for p in (ws / "d").rglob("*")) \
        == sorted(set(members) | {"s"})
    assert_store_sealed(str(ws))


def test_a_stamp_without_a_stat_record_skips_while_the_bytes_match(tmp_path):
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, dir_chain()), Policy.UPDATE).ok
    strip_stat_records(ws)
    result = run_once(ws, graph_for(tmp_path, dir_chain()), Policy.UPDATE)
    assert result.counts == {"skipped-up-to-date": 3}


def test_a_checked_stamp_is_refreshed_so_its_files_are_hashed_once(tmp_path, monkeypatch):
    """A check that hashes a placed file and finds its bytes writes the
    stamp again with the file's stat, as git refreshes its index."""
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, dir_chain()), Policy.UPDATE).ok
    strip_stat_records(ws)
    hashed = []
    real = scheduler.file_digest
    monkeypatch.setattr(scheduler, "file_digest",
                        lambda path: hashed.append(path) or real(path))
    for expected in (3, 0):
        hashed.clear()
        result = run_once(ws, graph_for(tmp_path, dir_chain()), Policy.UPDATE)
        assert result.counts == {"skipped-up-to-date": 3}
        assert len(hashed) == expected


def test_an_output_that_cannot_be_read_counts_as_changed(tmp_path, monkeypatch):
    """A replaced output the check cannot hash fails no run: its task
    re-executes. Mode 0 stands for a file this user cannot read, which
    root can."""
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, reader_chain()), Policy.UPDATE).ok
    os.unlink(ws / "a.txt")
    (ws / "a.txt").write_text("hi\n")
    os.chmod(ws / "a.txt", 0)
    real = scheduler.file_digest

    def digest(path):
        if not os.stat(path).st_mode & 0o777:
            raise PermissionError(13, "Permission denied", path)
        return real(path)
    monkeypatch.setattr(scheduler, "file_digest", digest)
    result = run_once(ws, graph_for(tmp_path, reader_chain()), Policy.UPDATE)
    assert started_tasks(read_journal(str(ws), result.run_id)) == ["a", "b"]
    assert result.ok
    assert (ws / "a.txt").read_text() == "hi\n"
    assert_store_sealed(str(ws))


def test_a_stamp_without_a_stat_record_is_checked_by_hashing(tmp_path):
    ws = tmp_path / "ws"
    assert run_once(ws, graph_for(tmp_path, dir_chain()), Policy.UPDATE).ok
    strip_stat_records(ws)
    edit_in_place(ws / "d" / "s" / "m", b"y\n")
    result = run_once(ws, graph_for(tmp_path, dir_chain()), Policy.UPDATE)
    assert started_tasks(read_journal(str(ws), result.run_id)) == ["d"]
    assert (ws / "d" / "s" / "m").read_text() == "x\n"
    assert_blobs_match_names(str(ws))


# -- a task's sandbox once it ends -------------------------------------------------

def silent_wide(n):
    """`n` independent tasks that each write a file and print nothing."""
    return {"name": "wide", "processes": [
        {"id": "t%02d" % i, "command": ["sh", "-c", "echo %d > {outputs.o}" % i],
         "outputs": {"o": {"type": "file", "path": "o%02d.txt" % i}}}
        for i in range(n)]}


def silent_chain(n):
    """`n` tasks, each after the first copying its predecessor's file."""
    procs = [{"id": "c00", "command": ["sh", "-c", "echo 0 > {outputs.o}"],
              "outputs": {"o": {"type": "file", "path": "c00.txt"}}}]
    procs += [{"id": "c%02d" % i, "command": ["sh", "-c", "cat {inputs.x} > {outputs.o}"],
               "inputs": {"x": {"type": "file", "from": "c%02d.o" % (i - 1)}},
               "outputs": {"o": {"type": "file", "path": "c%02d.txt" % i}}}
              for i in range(1, n)]
    return {"name": "chain", "processes": procs}


@pytest.mark.parametrize("doc", [silent_wide(20), silent_wide(60), silent_chain(20)],
                         ids=["wide-20", "wide-60", "chain-20"])
def test_the_run_directory_does_not_grow_per_task(tmp_path, doc):
    """A succeeded task that printed nothing leaves no sandbox, so a run
    leaves its journal and provenance document and nothing else."""
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE, jobs=2)
    assert result.ok, result.states
    assert sorted(os.listdir(ws / "runs" / result.run_id)) == [
        "events.ndjson", "provenance.json"]
    assert_store_sealed(str(ws))


def test_a_task_that_prints_keeps_its_logs_alone(tmp_path):
    """A succeeded task that printed keeps stdout.txt and stderr.txt,
    and loses its staged inputs, its emptied output directories, its
    value manifest and any file it left undeclared."""
    doc = reader_chain()
    doc["processes"][1].update(
        command=["sh", "-c", "echo said; echo spare > spare.txt; mkdir -p {outputs.d}/s"
                 " && cat {inputs.x} > {outputs.d}/s/m && cat {inputs.x} > {outputs.o}"
                 " && echo '{\"n\": 1}' > outputs.json"],
        outputs={"o": {"type": "file", "path": "b.txt"},
                 "d": {"type": "directory", "path": "bd"},
                 "n": {"type": "integer"}})
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
    assert result.ok, result.states
    tasks = ws / "runs" / result.run_id / "tasks"
    assert os.listdir(tasks) == ["b"]
    assert sorted(os.listdir(tasks / "b")) == ["stderr.txt", "stdout.txt"]
    assert (tasks / "b" / "stdout.txt").read_text() == "said\n"
    assert_store_sealed(str(ws))


@pytest.mark.parametrize("tail,state", [
    ("&& cat {inputs.i} > {outputs.c}", "succeeded"), ("; exit 1", "failed")])
def test_a_link_the_task_made_to_its_input_does_not_outlive_it(tmp_path, tail, state):
    """A file the task hard-linked to a staged input leaves with the
    sandbox of a task that succeeded, and in the sandbox a failed task
    keeps for debugging it becomes a copy of its own."""
    doc = {"name": "keeper", "processes": [
        {"id": "make", "command": ["sh", "-c", "echo hi > {outputs.o}"],
         "outputs": {"o": {"type": "file", "path": "o.txt"}}},
        {"id": "use", "command": ["sh", "-c", "ln {inputs.i} keep.txt " + tail],
         "inputs": {"i": {"type": "file", "from": "make.o"}},
         "outputs": {"c": {"type": "file", "path": "c.txt"}}}]}
    ws = tmp_path / "ws"
    result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
    assert result.states["use"].state == state
    sandbox = ws / "runs" / result.run_id / "tasks" / "use"
    if state == "succeeded":
        assert not sandbox.exists()
    else:
        assert (sandbox / "keep.txt").read_text() == "hi\n"
        assert [path for _, path in canon.regular_files(sandbox / "inputs")] == []
    assert_store_sealed(str(ws))


def test_an_input_changed_before_the_run_leaves_no_run_directory(tmp_path):
    """An input file that changed between build_graph and run() fails
    the run before it makes its directory, so no run lacks a journal."""
    data = tmp_path / "in.txt"
    data.write_text("one\n")
    doc = {"name": "ingest", "params": {"x": {"type": "file"}},
           "processes": [{"id": "use", "command": ["sh", "-c", "cat {inputs.i} > {outputs.c}"],
                          "inputs": {"i": {"type": "file", "from": "params.x"}},
                          "outputs": {"c": {"type": "file", "path": "c.txt"}}}]}
    graph = graph_for(tmp_path, doc, {"x": str(data)})
    data.write_text("two\n")
    ws = tmp_path / "ws"
    with pytest.raises(CacheError, match="changed since the graph was built"):
        Runner(str(ws)).run(graph)
    assert not (ws / "runs").exists()
