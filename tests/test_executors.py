"""Executor backends: local, mock batch spool, loopback remote."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

import flowforge
from flowforge import runstate
from flowforge.executors import (OutputSpec, TaskSpec, batch, collect_outcome,
                                 make_executor)
from flowforge.executors.batch import (MOCK_TEMPLATE, BatchExecutor,
                                       MockBatchBackend, render_job_script,
                                       run_spool)
from flowforge.executors.local import LocalExecutor
from flowforge.model import WorkflowLoader, flatten, parse_type, parse_workflow
from flowforge.planner import build_graph
from flowforge.scheduler import Policy, Runner

from conftest import assert_store_sealed


def spec_for(workdir, argv, outputs=()):
    os.makedirs(workdir, exist_ok=True)
    return TaskSpec("t1", tuple(argv), str(workdir), tuple(outputs))


def within(seconds, call, *args):
    """call(*args) run in a daemon thread, so that a call that hangs fails
    the test after `seconds` instead of stalling the suite."""
    result = {}

    def target():
        try:
            result["value"] = call(*args)
        except BaseException as exc:  # re-raised in the test's own thread
            result["error"] = exc

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "%s still waiting after %s s" % (
        call.__name__, seconds)
    if "error" in result:
        raise result["error"]
    return result["value"]


def file_out(port, path):
    return OutputSpec(port, parse_type("file"), path)


def value_out(port, kind="integer"):
    return OutputSpec(port, parse_type(kind), None)


def gone(pid: int) -> bool:
    """Whether process `pid` has ended; a zombie counts as ended."""
    try:
        with open("/proc/%d/stat" % pid) as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def ends_within(seconds: float, pid: int) -> bool:
    deadline = time.monotonic() + seconds
    while not gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def kill_if_alive(pid: int):
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


# -- local --------------------------------------------------------------------

def test_local_success(tmp_path):
    spec = spec_for(tmp_path / "w", ["sh", "-c", "echo made > out.txt"],
                    [file_out("o", "out.txt")])
    outcome = LocalExecutor().execute(spec)
    assert outcome.success and outcome.exit_code == 0
    assert (tmp_path / "w" / "out.txt").read_text() == "made\n"


def test_local_captures_streams(tmp_path):
    spec = spec_for(tmp_path / "w", ["sh", "-c", "echo to-out; echo to-err >&2"])
    assert LocalExecutor().execute(spec).success
    assert (tmp_path / "w" / "stdout.txt").read_text() == "to-out\n"
    assert (tmp_path / "w" / "stderr.txt").read_text() == "to-err\n"


def test_local_failure_exit_code(tmp_path):
    spec = spec_for(tmp_path / "w", ["sh", "-c", "exit 3"])
    outcome = LocalExecutor().execute(spec)
    assert outcome.exit_code == 3 and not outcome.success


def test_local_missing_command(tmp_path):
    spec = spec_for(tmp_path / "w", ["/no/such/interpreter-xyz"])
    outcome = LocalExecutor().execute(spec)
    assert not outcome.success and outcome.error


def test_value_manifest_parsed(tmp_path):
    spec = spec_for(
        tmp_path / "w",
        ["sh", "-c", "echo '{\"n\": 9, \"r\": 1.5}' > outputs.json"],
        [value_out("n"), value_out("r", "float")])
    outcome = LocalExecutor().execute(spec)
    assert outcome.success
    assert outcome.value_outputs == {"n": 9, "r": 1.5}


# -- outcome collection ---------------------------------------------------------

def test_missing_artifact_fails(tmp_path):
    spec = spec_for(tmp_path / "w", ["true"], [file_out("o", "never.txt")])
    outcome = collect_outcome(spec, 0)
    assert not outcome.success and "MissingOutput(o)" in outcome.error


def test_missing_manifest_fails(tmp_path):
    spec = spec_for(tmp_path / "w", ["true"], [value_out("n")])
    outcome = collect_outcome(spec, 0)
    assert not outcome.success and "MissingOutput(n)" in outcome.error


def test_value_type_mismatch_fails(tmp_path):
    w = tmp_path / "w"
    spec = spec_for(w, ["true"], [value_out("n")])
    (w / "outputs.json").write_text('{"n": "nine"}')
    outcome = collect_outcome(spec, 0)
    assert not outcome.success and "BadValue(n)" in outcome.error


def test_bool_is_not_integer(tmp_path):
    w = tmp_path / "w"
    spec = spec_for(w, ["true"], [value_out("n")])
    (w / "outputs.json").write_text('{"n": true}')
    assert not collect_outcome(spec, 0).success


def test_nonzero_exit_skips_collection(tmp_path):
    spec = spec_for(tmp_path / "w", ["true"], [file_out("o", "never.txt")])
    outcome = collect_outcome(spec, 2)
    assert outcome.exit_code == 2 and outcome.error is None
    assert not outcome.success


# -- batch templates and spool ----------------------------------------------------

def test_mock_template_golden():
    rendered = render_job_script(MOCK_TEMPLATE, "echo body\n", "myjob",
                                 {"cpus": 2})
    assert rendered == (
        "#!/bin/sh\n"
        "# job myjob (cpus=2 mem=1024M walltime=00:10:00)\n"
        "echo body\n\n")


def test_slurm_template_golden():
    path = os.path.join(os.path.dirname(flowforge.__file__),
                        "templates", "slurm.sbatch")
    with open(path, encoding="utf-8") as fh:
        template = fh.read()
    rendered = render_job_script(
        template, "srun ./solve\n", "sim42",
        {"memory": "8G", "walltime": "01:00:00"})
    assert "#SBATCH --job-name=sim42" in rendered
    assert "#SBATCH --cpus-per-task=1" in rendered
    assert "#SBATCH --mem=8G" in rendered
    assert "#SBATCH --time=01:00:00" in rendered
    assert rendered.rstrip().endswith("srun ./solve")


def test_unknown_template_placeholder():
    from flowforge.executors.batch import BatchError
    with pytest.raises(BatchError):
        render_job_script("#!/bin/sh\n{nope}\n", "body", "j")


def test_spool_runs_fifo(tmp_path):
    spool = tmp_path / "spool"
    backend = MockBatchBackend(str(spool))
    log = tmp_path / "order.log"
    jobs = [backend.submit("#!/bin/sh\necho %d >> %s\n" % (i, log))
            for i in range(3)]
    assert all(backend.poll(j).phase == "pending" for j in jobs)
    run_spool(str(spool), concurrency=1, drain=True)
    assert all(backend.poll(j).phase == "done" and backend.poll(j).exit_code == 0
               for j in jobs)
    assert log.read_text() == "0\n1\n2\n"


def test_spool_runs_at_most_concurrency_jobs_and_drains(tmp_path):
    spool = tmp_path / "spool"
    backend = MockBatchBackend(str(spool))
    log = tmp_path / "spans.log"
    # each start line also counts the jobs whose state reads `running`
    script = ("#!/bin/sh\necho start $(grep -lx running %s/*.state | wc -l) >> %s\n"
              "sleep 0.3\necho end >> %s\n" % (spool, log, log))
    jobs = [backend.submit(script) for _ in range(4)]
    run_spool(str(spool), concurrency=2, drain=True)
    # drain returned: every job is done, and each one wrote both of its lines
    assert all(backend.poll(j).phase == "done" and backend.poll(j).exit_code == 0
               for j in jobs)
    lines = log.read_text().splitlines()
    starts = [int(line.split()[1]) for line in lines if line.startswith("start")]
    assert len(starts) == lines.count("end") == 4
    assert max(starts) <= 2
    depth, peak = 0, 0
    for line in lines:
        depth += 1 if line.startswith("start") else -1
        peak = max(peak, depth)
    assert peak == 2


def test_poll_is_idempotent_and_lost_for_unknown(tmp_path):
    backend = MockBatchBackend(str(tmp_path / "spool"))
    assert backend.poll("nope").phase == "lost"
    job = backend.submit("#!/bin/sh\nexit 7\n")
    run_spool(str(tmp_path / "spool"), drain=True)
    first = backend.poll(job)
    second = backend.poll(job)
    assert first == second
    assert first.phase == "done" and first.exit_code == 7


def test_cancel_pending_job(tmp_path):
    backend = MockBatchBackend(str(tmp_path / "spool"))
    job = backend.submit("#!/bin/sh\nexit 0\n")
    backend.cancel(job)
    state = backend.poll(job)
    assert state.phase == "done" and state.exit_code == 143
    backend.cancel(job)  # idempotent on settled jobs
    assert backend.poll(job) == state


def test_batch_executor_end_to_end(tmp_path):
    with BatchExecutor(str(tmp_path / "spool")) as executor:
        spec = spec_for(tmp_path / "w", ["sh", "-c", "echo batched > out.txt"],
                        [file_out("o", "out.txt")])
        outcome = executor.execute(spec)
    assert outcome.success
    assert (tmp_path / "w" / "out.txt").read_text() == "batched\n"


def test_batch_executor_reports_failure(tmp_path):
    with BatchExecutor(str(tmp_path / "spool")) as executor:
        outcome = executor.execute(spec_for(tmp_path / "w", ["sh", "-c", "exit 9"]))
    assert outcome.exit_code == 9 and not outcome.success


def test_batch_executor_leaves_no_job_files(tmp_path):
    spool = tmp_path / "spool"
    with BatchExecutor(str(spool)) as executor:
        for n in range(2):
            outcome = executor.execute(
                spec_for(tmp_path / ("w%d" % n), ["sh", "-c", "exit %d" % n]))
            assert outcome.exit_code == n
    assert os.listdir(spool) == []


def test_batch_executor_waits_for_no_tick(tmp_path, monkeypatch):
    # A submit wakes the runner, a job's end wakes the submitter, and
    # close() wakes the runner to stop: with a 30-s tick all of it still
    # takes well under a second.
    monkeypatch.setattr(batch, "POLL_INTERVAL", 30.0)

    def three_jobs_then_close():
        executor = BatchExecutor(str(tmp_path / "spool"))
        codes = [executor.execute(spec_for(tmp_path / ("w%d" % n),
                                           ["sh", "-c", "exit %d" % n])).exit_code
                 for n in range(3)]
        executor.close()
        return codes, executor._runner

    codes, runner = within(10, three_jobs_then_close)
    assert codes == [0, 1, 2]
    assert not runner.is_alive()


def test_batch_wakes_are_not_lost_under_concurrent_submitters(tmp_path, monkeypatch):
    # More submitting threads than cores, switching often: a wake or a
    # notify lost between a check and its wait would stall for the tick.
    monkeypatch.setattr(batch, "POLL_INTERVAL", 30.0)

    def six_submitters():
        codes = {}
        with BatchExecutor(str(tmp_path / "spool")) as executor:
            def submit(n):
                codes[n] = [executor.execute(spec_for(
                    tmp_path / ("w%d-%d" % (n, k)), ["sh", "-c", "exit %d" % k])).exit_code
                    for k in range(3)]

            threads = [threading.Thread(target=submit, args=(n,), daemon=True)
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        return [codes.get(n) for n in range(6)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        codes = within(20, six_submitters)
    finally:
        sys.setswitchinterval(interval)
    assert codes == [[0, 1, 2]] * 6


def test_spool_drain_waits_for_no_tick(tmp_path, monkeypatch):
    # With one slot, each job's end must free the slot for the next at once.
    monkeypatch.setattr(batch, "POLL_INTERVAL", 30.0)
    spool = tmp_path / "spool"
    backend = MockBatchBackend(str(spool))
    log = tmp_path / "order.log"
    for i in range(3):
        backend.submit("#!/bin/sh\necho %d >> %s\n" % (i, log))
    within(10, run_spool, str(spool), 1, True)
    assert log.read_text() == "0\n1\n2\n"


def test_batch_job_whose_runner_side_raises_fails(tmp_path, monkeypatch):
    def broken_spawn(*args):
        raise RuntimeError("spawn broke")

    monkeypatch.setattr(batch, "spawn", broken_spawn)
    spool = tmp_path / "spool"
    with BatchExecutor(str(spool)) as executor:
        outcome = within(10, executor.execute,
                         spec_for(tmp_path / "w", ["sh", "-c", "exit 0"]))
    assert outcome.exit_code == -1 and not outcome.success
    # execute() takes a job's files only once its state reads done
    assert os.listdir(spool) == []


def test_batch_executor_fails_jobs_once_its_runner_ended(tmp_path):
    executor = BatchExecutor(str(tmp_path / "spool"))
    executor.close()
    outcome = within(10, executor.execute,
                     spec_for(tmp_path / "w", ["sh", "-c", "exit 0"]))
    assert not outcome.success and "runner ended" in outcome.error


def test_simbatch_drains_a_spool_another_process_filled(tmp_path):
    # Nothing in simbatch's process sets its wake: only the tick finds
    # these jobs.
    spool = tmp_path / "spool"
    backend = MockBatchBackend(str(spool))
    jobs = [backend.submit("#!/bin/sh\nexit 0\n") for _ in range(3)]
    proc = subprocess.run(
        [sys.executable, "-m", "flowforge.executors.batch", "--spool", str(spool),
         "--concurrency", "2", "--drain"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert [backend.poll(j) for j in jobs] == [batch.BatchJobState("done", 0)] * 3


# -- remote loopback ---------------------------------------------------------------

def remote_pair(tmp_path):
    ws = str(tmp_path / "ws")
    os.makedirs(ws, exist_ok=True)
    return make_executor("remote:loopback", ws), ws


def test_remote_stages_and_collects(tmp_path):
    executor, ws = remote_pair(tmp_path)
    w = tmp_path / "w"
    (w / "inputs" / "data").mkdir(parents=True)
    (w / "inputs" / "data" / "in.txt").write_text("payload\n")
    spec = TaskSpec(
        "t-remote", ("sh", "-c", "cp inputs/data/in.txt out.txt"), str(w),
        (OutputSpec("o", parse_type("file"), "out.txt"),))
    outcome = executor.execute(spec)
    assert outcome.success
    assert (w / "out.txt").read_text() == "payload\n"


def test_remote_transfer_log_lists_stage_directions(tmp_path):
    executor, ws = remote_pair(tmp_path)
    w = tmp_path / "w"
    (w / "inputs" / "data").mkdir(parents=True)
    (w / "inputs" / "data" / "in.txt").write_text("x")
    spec = TaskSpec(
        "t-log",
        ("sh", "-c", "cp inputs/data/in.txt out.txt; echo '{\"n\": 1}' > outputs.json"),
        str(w),
        (OutputSpec("o", parse_type("file"), "out.txt"),
         OutputSpec("n", parse_type("integer"), None)))
    outcome = executor.execute(spec)
    assert outcome.success
    log = json.loads((w / "transfer.json").read_text())
    assert log == {"in": ["inputs/data/in.txt"],
                   "out": ["out.txt", "outputs.json"]}


def test_remote_workdir_is_isolated(tmp_path):
    executor, ws = remote_pair(tmp_path)
    w = tmp_path / "w"
    w.mkdir()
    (w / "leak.txt").write_text("should not travel")
    spec = TaskSpec(
        "t-isolated",
        ("sh", "-c", "test ! -e leak.txt && echo isolated > verdict.txt"),
        str(w),
        (OutputSpec("v", parse_type("file"), "verdict.txt"),))
    outcome = executor.execute(spec)
    assert outcome.success, outcome.error
    assert (w / "verdict.txt").read_text() == "isolated\n"
    # the same command under the local executor sees the leak and fails
    local_spec = TaskSpec(
        "t-local",
        ("sh", "-c", "test ! -e leak.txt && echo isolated > verdict.txt"),
        str(w), (OutputSpec("v", parse_type("file"), "verdict.txt"),))
    assert LocalExecutor().execute(local_spec).exit_code != 0


def test_remote_missing_output_stays_absent(tmp_path):
    executor, ws = remote_pair(tmp_path)
    w = tmp_path / "w"
    w.mkdir()
    spec = TaskSpec("t-miss", ("sh", "-c", "true"), str(w),
                    (OutputSpec("o", parse_type("file"), "never.txt"),))
    outcome = executor.execute(spec)
    assert not outcome.success and "MissingOutput" in outcome.error
    assert not (w / "never.txt").exists()


def test_remote_missing_command_fails_as_on_local(tmp_path):
    executor, ws = remote_pair(tmp_path)
    spec = spec_for(tmp_path / "w", ["/no/such/interpreter-xyz"])
    remote, local = executor.execute(spec), LocalExecutor().execute(spec)
    assert (remote.exit_code, remote.error) == (local.exit_code, local.error)
    assert local.exit_code == 127 and local.error.startswith("spawn failure: ")


@pytest.mark.parametrize("script,output", [
    # n files into a directory: a rerun with n=1 must not keep f1
    ("mkdir d; i=0; while [ $i -lt {inputs.n} ]; do"
     " echo $i > d/f$i; i=$((i+1)); done", {"type": "directory", "path": "d"}),
    # a file only for n=2: a rerun with n=1 must miss it
    ("test {inputs.n} -lt 2 || echo x > f", {"type": "file", "path": "f"}),
])
def test_remote_rerun_sees_no_output_of_an_earlier_run(tmp_path, script, output):
    doc = {"name": "rerun", "params": {"n": {"type": "integer"}},
           "processes": [{"id": "t", "command": ["sh", "-c", script],
                          "inputs": {"n": {"type": "integer", "from": "params.n"}},
                          "outputs": {"o": output}}]}
    flat = flatten(parse_workflow(json.dumps(doc)), WorkflowLoader(),
                   str(tmp_path))
    seen = {}
    for name in ("local", "remote:loopback"):
        ws = str(tmp_path / name.replace(":", "-"))
        os.makedirs(ws)
        runner = Runner(ws, executor=make_executor(name, ws))
        seen[name] = []
        for n in (2, 1):
            state = runner.run(build_graph(flat, {"n": n}),
                               Policy.RECOMPUTE).states["t"]
            seen[name].append((state.state, state.file_digests, state.error))
    assert seen["local"][1][0] == ("succeeded" if output["path"] == "d"
                                   else "failed")
    assert seen["remote:loopback"] == seen["local"]


def test_loopback_paths_stay_under_the_transport_root(tmp_path):
    from flowforge.executors.remote import LoopbackTransport, TransportError

    root = tmp_path / "remote"
    transport = LoopbackTransport(str(root))
    assert transport._resolve("a/b") == os.path.join(str(root), "a", "b")
    assert transport._resolve(".") == str(root)
    # a sibling whose name starts with the root's name is still outside
    for rel in ("../remote2/a", "../other/a", ".."):
        with pytest.raises(TransportError):
            transport._resolve(rel)


def test_make_executor_names():
    from flowforge.executors import ExecutorError
    assert make_executor("local", ".").__class__.__name__ == "LocalExecutor"
    with pytest.raises(ExecutorError):
        make_executor("batch:slurm", ".")
    with pytest.raises(ExecutorError):
        make_executor("teleport", ".")


def test_symlink_in_a_directory_output_is_no_member_on_any_executor(tmp_path):
    """docs/canonical-encoding.md: symlinks are not tree members. Every
    executor records the same members and digest, and stages the same
    tree into the consumer."""
    doc = {"name": "links", "processes": [
        {"id": "make",
         "command": ["sh", "-c", "mkdir {outputs.d} && echo a > {outputs.d}/a"
                     " && ln -s a {outputs.d}/b"],
         "outputs": {"d": {"type": "directory", "path": "d"}}},
        {"id": "list", "command": ["sh", "-c", "ls {inputs.d} > {outputs.o}"],
         "inputs": {"d": {"type": "directory", "from": "make.d"}},
         "outputs": {"o": {"type": "file", "path": "list.txt"}}}]}
    flat = flatten(parse_workflow(json.dumps(doc)), WorkflowLoader(),
                   str(tmp_path))
    seen = {}
    for name in ("local", "batch:mock", "remote:loopback"):
        ws = str(tmp_path / name.replace(":", "-"))
        os.makedirs(ws)
        executor = make_executor(name, ws)
        try:
            result = Runner(ws, executor=executor).run(
                build_graph(flat, {}), Policy.RECOMPUTE)
        finally:
            getattr(executor, "close", lambda: None)()
        assert result.ok, result.states
        with open(os.path.join(ws, "list.txt")) as fh:
            listing = fh.read()
        seen[name] = (result.states["make"].file_digests["d"],
                      sorted(os.listdir(os.path.join(ws, "d"))), listing)
    assert seen["local"][1:] == (["a"], "a\n")
    assert seen["local"] == seen["batch:mock"] == seen["remote:loopback"]


def links_into_the_store(ws):
    """The relpath of each file under runs/ that shares its inode with
    a blob of the workspace's store."""
    blobs = set()
    for dirpath, _, names in os.walk(os.path.join(ws, "cache", "objects")):
        for name in names:
            st = os.stat(os.path.join(dirpath, name))
            blobs.add((st.st_dev, st.st_ino))
    found = []
    for dirpath, _, names in os.walk(os.path.join(ws, "runs")):
        for name in names:
            st = os.lstat(os.path.join(dirpath, name))
            if (st.st_dev, st.st_ino) in blobs:
                found.append(os.path.relpath(os.path.join(dirpath, name), ws))
    return found


@pytest.mark.parametrize("name", ["local", "batch:mock", "remote:loopback"])
def test_no_sandbox_file_is_a_link_into_the_store(tmp_path, name):
    """Once a task ends its sandbox shares no inode with a blob, on every
    executor: its staged inputs, a file and a directory, are unlinked,
    also for a task that failed, and the store takes each output the
    task made, also one it hard-linked from its input. Only after every
    output is stored, so an output that is a symlink to a staged input,
    or to a member of a directory output with an earlier port, is
    stored by copy."""
    doc = {"name": "sandbox", "processes": [
        {"id": "make",
         "command": ["sh", "-c", "echo a > {outputs.o} && mkdir {outputs.d}"
                     " && echo b > {outputs.d}/b"],
         "outputs": {"o": {"type": "file", "path": "o.txt"},
                     "d": {"type": "directory", "path": "d"}}},
        {"id": "use", "command": ["sh", "-c", "ln {inputs.o} {outputs.c}"
                                  " && ln -s {inputs.o} {outputs.p} && mkdir {outputs.box}"
                                  " && cat {inputs.d}/b > {outputs.box}/e.txt"
                                  " && ln -s box/e.txt {outputs.latest}"],
         "inputs": {"o": {"type": "file", "from": "make.o"},
                    "d": {"type": "directory", "from": "make.d"}},
         "outputs": {"c": {"type": "file", "path": "c.txt"},
                     "p": {"type": "file", "path": "p.txt"},
                     "box": {"type": "directory", "path": "box"},
                     "latest": {"type": "file", "path": "latest.txt"}}},
        {"id": "fail", "command": ["sh", "-c", "cat {inputs.d}/b; exit 3"],
         "inputs": {"d": {"type": "directory", "from": "make.d"}},
         "outputs": {"f": {"type": "file", "path": "f.txt"}}}]}
    flat = flatten(parse_workflow(json.dumps(doc)), WorkflowLoader(),
                   str(tmp_path))
    ws = str(tmp_path / "ws")
    os.makedirs(ws)
    executor = make_executor(name, ws)
    try:
        result = Runner(ws, executor=executor, keep_going=True).run(
            build_graph(flat, {}), Policy.RECOMPUTE)
    finally:
        getattr(executor, "close", lambda: None)()
    assert {t: r.state for t, r in result.states.items()} == {
        "make": "succeeded", "use": "succeeded", "fail": "failed"}
    for rel, text in (("c.txt", "a\n"), ("p.txt", "a\n"), ("box/e.txt", "b\n"),
                      ("latest.txt", "b\n")):
        with open(os.path.join(ws, rel)) as fh:
            assert fh.read() == text
    assert links_into_the_store(ws) == []


@pytest.mark.parametrize("name", ["local", "batch:mock", "remote:loopback"])
def test_a_succeeded_task_leaves_a_sandbox_only_to_show_something(tmp_path, name):
    """On every executor a succeeded task's sandbox goes, but for the
    logs of one that printed or ran remotely, and a failed task's stays
    for debugging; the remote side keeps no job directory."""
    doc = {"name": "leave", "processes": [
        {"id": "make", "command": ["sh", "-c", "echo a > {outputs.o}"],
         "outputs": {"o": {"type": "file", "path": "o.txt"}}},
        {"id": "use", "command": ["sh", "-c", "cat {inputs.i} > {outputs.c}"],
         "inputs": {"i": {"type": "file", "from": "make.o"}},
         "outputs": {"c": {"type": "file", "path": "c.txt"}}},
        {"id": "loud", "command": ["sh", "-c", "echo said >&2 && cat {inputs.i} > {outputs.c}"],
         "inputs": {"i": {"type": "file", "from": "make.o"}},
         "outputs": {"c": {"type": "file", "path": "l.txt"}}},
        {"id": "fail", "command": ["sh", "-c", "cat {inputs.i}; exit 3"],
         "inputs": {"i": {"type": "file", "from": "make.o"}},
         "outputs": {"f": {"type": "file", "path": "f.txt"}}}]}
    flat = flatten(parse_workflow(json.dumps(doc)), WorkflowLoader(), str(tmp_path))
    ws = str(tmp_path / "ws")
    os.makedirs(ws)
    executor = make_executor(name, ws)
    try:
        result = Runner(ws, executor=executor, keep_going=True).run(
            build_graph(flat, {}), Policy.RECOMPUTE)
    finally:
        getattr(executor, "close", lambda: None)()
    assert result.tasks_in_state("failed") == ["fail"]
    tasks = os.path.join(ws, "runs", result.run_id, "tasks")
    logs = ["stderr.txt", "stdout.txt"] + (["transfer.json"] if name.startswith("remote") else [])
    kept = {"loud": logs, **({"make": logs, "use": logs} if name.startswith("remote") else {})}
    assert {tid: sorted(os.listdir(os.path.join(tasks, tid)))
            for tid in os.listdir(tasks) if tid != "fail"} == kept
    with open(os.path.join(tasks, "loud", "stderr.txt")) as fh:
        assert fh.read() == "said\n"
    with open(os.path.join(tasks, "fail", "stdout.txt")) as fh:
        assert fh.read() == "a\n"
    jobs = os.path.join(ws, ".flowforge", "remote", "jobs")
    assert not os.path.isdir(jobs) or os.listdir(jobs) == []
    assert_store_sealed(ws)


def test_a_remote_job_directory_goes_once_its_outputs_are_back(tmp_path):
    """The loopback transport keeps no copy of what a task staged in or
    made once the executor has pulled its outputs and logs back."""
    doc = {"name": "pair", "processes": [
        {"id": "make", "command": ["sh", "-c", "echo a > {outputs.o}"],
         "outputs": {"o": {"type": "file", "path": "o.txt"}}},
        {"id": "use", "command": ["sh", "-c", "cat {inputs.i} > {outputs.c}"],
         "inputs": {"i": {"type": "file", "from": "make.o"}},
         "outputs": {"c": {"type": "file", "path": "c.txt"}}}]}
    flat = flatten(parse_workflow(json.dumps(doc)), WorkflowLoader(), str(tmp_path))
    ws = str(tmp_path / "ws")
    os.makedirs(ws)
    result = Runner(ws, executor=make_executor("remote:loopback", ws)).run(
        build_graph(flat, {}), Policy.RECOMPUTE)
    assert result.ok, result.states
    assert os.listdir(os.path.join(ws, ".flowforge", "remote", "jobs")) == []


# -- process groups ------------------------------------------------------------

def test_a_task_leaves_no_process_behind(tmp_path):
    """What a task starts in the background is killed once the task ends,
    so nothing writes its outputs after the store adopted them."""
    doc = {"name": "bg", "processes": [
        {"id": "t", "command": ["sh", "-c", "sleep 30 & echo $! > {outputs.o}"],
         "outputs": {"o": {"type": "file", "path": "pid.txt"}}}]}
    flat = flatten(parse_workflow(json.dumps(doc)), WorkflowLoader(), str(tmp_path))
    ws = tmp_path / "ws"
    result = Runner(str(ws)).run(build_graph(flat, {}), Policy.RECOMPUTE)
    assert result.ok, result.states
    pid = int((ws / "pid.txt").read_text())
    try:
        assert ends_within(5, pid)
    finally:
        kill_if_alive(pid)


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGHUP, signal.SIGTERM],
                         ids=["SIGINT", "SIGHUP", "SIGTERM"])
def test_a_signal_ends_a_run_and_its_tasks(tmp_path, signum):
    """A task leads a process group of its own, so neither a terminal's
    Ctrl-C nor its hangup reaches it; the interrupted run kills it, and
    still closes its journal."""
    pid_file = tmp_path / "pid"
    wf = tmp_path / "sleep.wf"
    wf.write_text(json.dumps({"name": "sleep", "processes": [
        {"id": "t", "command": ["sh", "-c", "echo $$ > %s && exec sleep 30" % pid_file],
         "outputs": {"o": {"type": "file", "path": "never.txt"}}}]}))
    # SIGINT raises KeyboardInterrupt only where it is not ignored, as a
    # shell ignores it for the jobs it starts in the background; nohup
    # ignores SIGHUP the same way
    proc = subprocess.Popen(
        [sys.executable, "-m", "flowforge", "run", str(wf), "--workdir",
         str(tmp_path / "ws")], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=lambda: signal.signal(signum, signal.SIG_DFL))
    pid = None
    try:
        deadline = time.monotonic() + 30
        while pid is None and time.monotonic() < deadline:
            with contextlib.suppress(FileNotFoundError, ValueError):
                pid = int(pid_file.read_text())
            time.sleep(0.05)
        assert pid is not None, "the task never started"
        proc.send_signal(signum)
        assert proc.wait(timeout=10) != 0
        assert ends_within(5, pid)
        (run_dir,) = (tmp_path / "ws" / "runs").iterdir()
        events, _ = runstate.read_events(str(run_dir / runstate.JOURNAL_NAME))
        assert events[-1].kind == "run-finished"
    finally:
        proc.kill()
        proc.wait()
        if pid is not None:
            kill_if_alive(pid)
