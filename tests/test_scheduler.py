"""Run policies, failure handling, propagation, journal effects."""

import hashlib
import json
import os
import random
import sys
import tempfile
import threading

import pytest

from flowforge import cache, canon, executors, planner, runstate, scheduler
from flowforge.cache import CacheEntry, CacheError, CacheStore
from flowforge.model import WorkflowLoader, flatten, parse_workflow
from flowforge.planner import Blob, Literal, build_graph, task_fingerprint
from flowforge.scheduler import (EXECUTE, Policy, Runner, SchedulerError,
                                 decide_action, generate_run_id, write_stamp)
from flowforge.runstate import read_events

from conftest import (USECASE_DIR, assert_blobs_match_names, finished_states,
                      load_prov, read_journal, started_tasks)


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

    assert decide_action(task, Policy.RECOMPUTE, cache, ws) == EXECUTE

    # link: miss executes, hit links to the producing run
    assert decide_action(task, Policy.LINK, cache, ws).kind == "execute"
    src = tmp_path / "blob.txt"
    src.write_text("x\n")
    digest = cache.put_blob(str(src))
    cache.put_entry(CacheEntry(fp, "r-prior", {"o": digest}, {}))
    action = decide_action(task, Policy.LINK, cache, ws)
    assert action.kind == "link" and action.entry.run_id == "r-prior"

    # update: stamp + outputs present skips; either missing executes
    assert decide_action(task, Policy.UPDATE, cache, ws).kind == "execute"
    write_stamp(ws, "one", fp, {"o": digest}, {})
    assert decide_action(task, Policy.UPDATE, cache, ws).kind == "execute"
    with open(os.path.join(ws, "one.txt"), "w") as fh:
        fh.write("x\n")
    assert decide_action(task, Policy.UPDATE, cache, ws).kind == "skip"
    write_stamp(ws, "one", "0" * 64, {"o": digest}, {})
    assert decide_action(task, Policy.UPDATE, cache, ws).kind == "execute"


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
    its staged input directory: a hard link to a blob in the store."""
    if kind == "file":
        make, target = "echo clean > {outputs.o}", "{inputs.i}"
    else:
        make = "mkdir {outputs.o} && echo clean > {outputs.o}/f"
        target = "{inputs.i}/f"
    return {
        "name": "taint",
        "processes": [
            {"id": "make", "command": ["sh", "-c", make],
             "outputs": {"o": {"type": kind, "path": "a"}}},
            {"id": "taint",
             "command": ["sh", "-c", "chmod u+w %s && echo x >> %s"
                         " && echo > {outputs.o}" % (target, target)],
             "inputs": {"i": {"type": kind, "from": "make.o"}},
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
    assert made.read_text() == "clean\n"
    assert_blobs_match_names(str(ws))


class CountingOs:
    """Stands in for `os` inside flowforge.cache: counts the calls that
    set the per-member cost of moving a directory through the engine."""

    WATCHED = ("link", "chmod", "fchmod", "makedirs")

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


def test_directory_artifact_file_operation_budget(tmp_path, monkeypatch):
    """A deterministic guard beside the benchmark: publishing and staging
    a 200-member directory costs one link per member placed, one hash
    per member stored, no chmod, no mkstemp, and a makedirs only for a
    directory that does not exist yet."""
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
    for fresh in (True, False):
        counting = CountingOs()
        hashed.clear()
        with monkeypatch.context() as patch:
            patch.setattr(cache, "os", counting)
            result = run_once(ws, graph_for(tmp_path, doc), Policy.RECOMPUTE)
        assert result.ok, result.states
        assert (ws / "n.txt").read_text().strip() == str(n)
        # n members into the workspace, n into count's sandbox, and n.txt;
        # replacing the first round's n.txt takes a second link after unlink
        links = [args[1] for _, args in counting.calls["link"]]
        assert len(set(links)) == 2 * n + 1
        assert len(links) == 2 * n + 1 + (not fresh)
        assert counting.calls["chmod"] == counting.calls["fchmod"] == []
        assert mkstemps == []
        assert len(hashed) == n + 1
        made = [args[0] for existed, args in counting.calls["makedirs"]]
        assert not any(existed for existed, _ in counting.calls["makedirs"])
        assert len(made) == len(set(made))
        if not fresh:  # the store's directories exist: only count's sandbox
            assert len(made) == 1
