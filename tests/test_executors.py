"""Executor backends: local, mock batch spool, loopback remote."""

import json
import os
import time

import pytest

import flowforge
from flowforge.executors import (OutputSpec, StagedInput, TaskSpec,
                                 collect_outcome, make_executor)
from flowforge.executors.batch import (MOCK_TEMPLATE, BatchExecutor,
                                       MockBatchBackend, render_job_script,
                                       run_spool)
from flowforge.executors.local import LocalExecutor
from flowforge.model import WorkflowLoader, flatten, parse_type, parse_workflow
from flowforge.planner import build_graph
from flowforge.scheduler import Policy, Runner


def spec_for(workdir, argv, outputs=(), inputs=()):
    os.makedirs(workdir, exist_ok=True)
    return TaskSpec("t1", tuple(argv), str(workdir),
                    tuple(inputs), tuple(outputs))


def file_out(port, path):
    return OutputSpec(port, parse_type("file"), path)


def value_out(port, kind="integer"):
    return OutputSpec(port, parse_type(kind), None)


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
        (StagedInput("data", "inputs/data/in.txt"),),
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
        (StagedInput("data", "inputs/data/in.txt"),),
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
        str(w), (),
        (OutputSpec("v", parse_type("file"), "verdict.txt"),))
    outcome = executor.execute(spec)
    assert outcome.success, outcome.error
    assert (w / "verdict.txt").read_text() == "isolated\n"
    # the same command under the local executor sees the leak and fails
    local_spec = TaskSpec(
        "t-local",
        ("sh", "-c", "test ! -e leak.txt && echo isolated > verdict.txt"),
        str(w), (), (OutputSpec("v", parse_type("file"), "verdict.txt"),))
    assert LocalExecutor().execute(local_spec).exit_code != 0


def test_remote_missing_output_stays_absent(tmp_path):
    executor, ws = remote_pair(tmp_path)
    w = tmp_path / "w"
    w.mkdir()
    spec = TaskSpec("t-miss", ("sh", "-c", "true"), str(w), (),
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
