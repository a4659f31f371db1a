"""Batch-system adapter: template-rendered job scripts over a spool.

The normative test target is the mock backend plus the bundled
`simbatch` runner. Spool protocol: `submit` writes `<jobid>.sh` and a
`<jobid>.state` file holding one of `pending`, `running`, or
`done:<exit>`; `_job_files` is the one place that spells this layout.
A runner claims pending scripts FIFO by job id and executes them with
configurable concurrency, tracking the jobs it claimed by their futures.
The runner sleeps on an event that a submit or a job's end sets, and a
job's end wakes the submitters waiting on a condition, so in-process
nothing waits for a tick; `POLL_INTERVAL` is only the fallback for a
submitter in another process, which cannot set the event.
A real site template (Slurm-style) ships as configuration only and is
exercised by rendering tests, never by submission.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import shlex
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from ..cache import replace_file
from ..model import STDERR_NAME, STDOUT_NAME
from . import Outcome, TaskSpec, collect_outcome, spawn

DEFAULT_RESOURCES = {"cpus": 1, "memory": "1024M", "walltime": "00:10:00"}
RUNNER_CONCURRENCY = 8  # jobs BatchExecutor's in-process runner runs at once
POLL_INTERVAL = 0.02  # seconds a runner or submitter waits at most for a wake

# The mock template is a plain shell script; {script} carries the body.
MOCK_TEMPLATE = """#!/bin/sh
# job {jobname} (cpus={cpus} mem={memory} walltime={walltime})
{script}
"""


class BatchError(Exception):
    pass


@dataclass(frozen=True)
class BatchJobState:
    phase: str  # pending | running | done | lost
    exit_code: int | None = None


def render_job_script(template: str, script: str, jobname: str,
                      resources: dict | None = None) -> str:
    """Interpolate {script}/{jobname}/{cpus}/{memory}/{walltime} into a
    site template. Missing hints take documented defaults."""
    subs = dict(DEFAULT_RESOURCES)
    subs.update(resources or {})
    subs["script"] = script
    subs["jobname"] = jobname
    try:
        return template.format(**subs)
    except (KeyError, IndexError) as exc:
        raise BatchError("unknown placeholder in batch template: %s" % exc) from exc


class MockBatchBackend:
    """Spool-directory queue standing in for a batch system."""

    _seq = itertools.count(1)

    def __init__(self, spool_dir: str):
        self.spool_dir = os.fspath(spool_dir)
        os.makedirs(self.spool_dir, exist_ok=True)

    def submit(self, script: str) -> str:
        # Zero-padded nanosecond prefix keeps lexicographic order FIFO.
        job_id = "%020d-%06d" % (time.time_ns(), next(self._seq) % 1000000)
        script_path, state_path = _job_files(self.spool_dir, job_id)
        # The state first: a runner takes up a script once it appears.
        _write_state(state_path, "pending")
        replace_file(script_path, script.encode())
        return job_id

    def poll(self, job_id: str) -> BatchJobState:
        raw = _read_state(_job_files(self.spool_dir, job_id)[1])
        if raw in ("pending", "running"):
            return BatchJobState(raw)
        if raw is not None and raw.startswith("done:"):
            try:
                return BatchJobState("done", int(raw.split(":", 1)[1]))
            except ValueError:
                return BatchJobState("lost")
        return BatchJobState("lost")

    def cancel(self, job_id: str):
        """Idempotent: pending jobs are marked done with the conventional
        SIGTERM exit; running/done jobs are left alone."""
        script_path, state_path = _job_files(self.spool_dir, job_id)
        if self.poll(job_id).phase == "pending":
            _write_state(state_path, "done:143")
            if os.path.exists(script_path):
                os.unlink(script_path)


def _job_files(spool_dir: str, job_id: str) -> tuple[str, str]:
    """A job's script and state file in the spool."""
    base = os.path.join(spool_dir, job_id)
    return base + ".sh", base + ".state"


def _write_state(path: str, value: str):
    replace_file(path, (value + "\n").encode())


def _read_state(path: str) -> str | None:
    """The phase a job's state file holds, or None if it cannot be read."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except (OSError, ValueError):
        return None


def run_spool(spool_dir: str, concurrency: int = 1, drain: bool = False,
              stop_event: threading.Event | None = None,
              wake: threading.Event | None = None,
              job_ended: threading.Condition | None = None):
    """Execute spooled scripts FIFO with at most `concurrency` at once.

    With drain=True returns once the spool is empty and all claimed
    jobs finished; otherwise loops until stop_event is set. Single
    runner per spool directory. Between scans the runner waits on
    `wake`, at most POLL_INTERVAL; setting it (after a submit, or to
    stop) makes the runner scan at once. Once a job's `done:` state is
    written, the runner sets `wake` and notifies `job_ended`.
    """
    os.makedirs(spool_dir, exist_ok=True)
    slots = max(1, concurrency)
    running: set = set()  # futures of the jobs claimed and not yet done
    wake = wake or threading.Event()

    def execute(script_path: str, state_path: str):
        exit_code = -1  # the state a job gets if it ends with no exit code
        try:
            exit_code, _ = spawn(["sh", script_path], None, os.devnull, os.devnull)
        finally:
            _write_state(state_path, "done:%d" % exit_code)

    def ended(job):
        # Set from the future, not the job body: a scan the wake starts
        # then sees this job done and frees its slot.
        wake.set()
        if job_ended is not None:
            with job_ended:
                job_ended.notify_all()
        if job.exception() is not None:
            print("simbatch: job failed: %s" % job.exception(), file=sys.stderr)

    with ThreadPoolExecutor(max_workers=slots) as pool:
        while stop_event is None or not stop_event.is_set():
            running = {job for job in running if not job.done()}
            scripts = [name[:-3] for name in sorted(os.listdir(spool_dir))
                       if name.endswith(".sh") and not name.startswith(".")]
            pending = [job_id for job_id in scripts
                       if _read_state(_job_files(spool_dir, job_id)[1]) == "pending"]
            if drain and not pending and not running:
                break
            for job_id in pending[:slots - len(running)]:
                script_path, state_path = _job_files(spool_dir, job_id)
                _write_state(state_path, "running")
                job = pool.submit(execute, script_path, state_path)
                running.add(job)
                job.add_done_callback(ended)
            # Cleared after the wait, before the stop check and the scan,
            # so a wake set during a scan is seen by the next wait.
            wake.wait(POLL_INTERVAL)
            wake.clear()


def simbatch_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simbatch",
        description="FIFO runner for flowforge's mock batch spool")
    parser.add_argument("--spool", required=True, help="spool directory")
    parser.add_argument("--concurrency", type=int, default=1)
    parser.add_argument("--drain", action="store_true",
                        help="exit when the spool is empty")
    args = parser.parse_args(argv)
    run_spool(args.spool, args.concurrency, drain=args.drain)
    return 0


class BatchExecutor:
    """Executes TaskSpecs by spooling job scripts and polling their state.

    An in-process simbatch loop runs in a daemon thread, so a single
    command covers the whole submit/run/poll cycle. A submit wakes that
    runner, and a job's end wakes the submitters, so neither waits out
    POLL_INTERVAL. A finished job's script and state file leave the
    spool once read, so the loop scans only live jobs.
    """

    name = "batch:mock"

    def __init__(self, spool_dir: str):
        self.backend = MockBatchBackend(spool_dir)
        self._stop = threading.Event()
        self._wake = threading.Event()
        self._job_ended = threading.Condition()
        self._runner = threading.Thread(
            target=run_spool, args=(spool_dir, RUNNER_CONCURRENCY),
            kwargs={"stop_event": self._stop, "wake": self._wake,
                    "job_ended": self._job_ended}, daemon=True)
        self._runner.start()

    def close(self):
        self._stop.set()
        self._wake.set()
        self._runner.join(timeout=5)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def execute(self, spec: TaskSpec) -> Outcome:
        body = "cd %s || exit 190\nexec %s > %s 2> %s\n" % (
            shlex.quote(spec.workdir),
            " ".join(shlex.quote(tok) for tok in spec.full_argv),
            shlex.quote(STDOUT_NAME), shlex.quote(STDERR_NAME))
        script = render_job_script(MOCK_TEMPLATE, body, spec.task_id, spec.resources)
        job_id = self.backend.submit(script)
        self._wake.set()
        # Polled under the lock the runner notifies with, so its notify
        # cannot fall between a poll and the wait.
        with self._job_ended:
            while True:
                # Asked before the poll: a runner that ended has written
                # every state it will write.
                runner_alive = self._runner.is_alive()
                state = self.backend.poll(job_id)
                if state.phase in ("done", "lost") or not runner_alive:
                    break
                self._job_ended.wait(POLL_INTERVAL)
        if state.phase == "done":
            for path in _job_files(self.backend.spool_dir, job_id):
                with contextlib.suppress(FileNotFoundError):  # cancel() took it
                    os.unlink(path)
            return collect_outcome(spec, state.exit_code)
        if state.phase == "lost":
            return collect_outcome(spec, -1, error="batch job %s lost" % job_id)
        return collect_outcome(
            spec, -1, error="batch runner ended before job %s did" % job_id)


if __name__ == "__main__":
    sys.exit(simbatch_main())
