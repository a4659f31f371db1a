"""Batch-system adapter: template-rendered job scripts over a spool.

The normative test target is the mock backend plus the bundled
`simbatch` runner. Spool protocol: `submit` writes `<jobid>.sh` and a
`<jobid>.state` file holding one of `pending`, `running`, or
`done:<exit>`; a runner claims pending scripts FIFO by job id and
executes them with configurable concurrency. A real site template
(Slurm-style) ships as configuration only and is exercised by rendering
tests, never by submission.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import shlex
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from . import (Outcome, STDERR_NAME, STDOUT_NAME, TaskSpec, collect_outcome,
               spawn)

DEFAULT_RESOURCES = {"cpus": 1, "memory": "1024M", "walltime": "00:10:00"}
RUNNER_CONCURRENCY = 8  # jobs BatchExecutor's in-process runner runs at once
POLL_INTERVAL = 0.02  # seconds between spool scans and job-state polls

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

    def _paths(self, job_id: str):
        return (os.path.join(self.spool_dir, job_id + ".sh"),
                os.path.join(self.spool_dir, job_id + ".state"))

    def submit(self, script: str) -> str:
        # Zero-padded nanosecond prefix keeps lexicographic order FIFO.
        job_id = "%020d-%06d" % (time.time_ns(), next(self._seq) % 1000000)
        script_path, state_path = self._paths(job_id)
        fd, tmp = tempfile.mkstemp(dir=self.spool_dir, prefix=".submit-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(script)
        _write_state(state_path, "pending")
        os.replace(tmp, script_path)
        return job_id

    def poll(self, job_id: str) -> BatchJobState:
        _, state_path = self._paths(job_id)
        try:
            with open(state_path, encoding="utf-8") as fh:
                raw = fh.read().strip()
        except OSError:
            return BatchJobState("lost")
        if raw == "pending":
            return BatchJobState("pending")
        if raw == "running":
            return BatchJobState("running")
        if raw.startswith("done:"):
            try:
                return BatchJobState("done", int(raw.split(":", 1)[1]))
            except ValueError:
                return BatchJobState("lost")
        return BatchJobState("lost")

    def cancel(self, job_id: str):
        """Idempotent: pending jobs are marked done with the conventional
        SIGTERM exit; running/done jobs are left alone."""
        script_path, state_path = self._paths(job_id)
        if self.poll(job_id).phase == "pending":
            _write_state(state_path, "done:143")
            if os.path.exists(script_path):
                os.unlink(script_path)


def _write_state(path: str, value: str):
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".state-")
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        fh.write(value + "\n")
    os.replace(tmp, path)


def run_spool(spool_dir: str, concurrency: int = 1, drain: bool = False,
              stop_event: threading.Event | None = None,
              poll_interval: float = POLL_INTERVAL):
    """Execute spooled scripts FIFO with at most `concurrency` at once.

    With drain=True returns once the spool is empty and all claimed
    jobs finished; otherwise loops until stop_event is set. Single
    runner per spool directory.
    """
    os.makedirs(spool_dir, exist_ok=True)
    active: set = set()
    lock = threading.Lock()

    def execute(job_id: str, script_path: str, state_path: str):
        try:
            exit_code, _ = spawn(["sh", script_path], None, os.devnull, os.devnull)
            _write_state(state_path, "done:%d" % exit_code)
        finally:
            with lock:
                active.discard(job_id)

    with ThreadPoolExecutor(max_workers=max(1, concurrency)) as pool:
        while True:
            if stop_event is not None and stop_event.is_set():
                break
            pending = []
            for name in sorted(os.listdir(spool_dir)):
                if not name.endswith(".sh") or name.startswith("."):
                    continue
                job_id = name[:-3]
                state_path = os.path.join(spool_dir, job_id + ".state")
                try:
                    with open(state_path, encoding="utf-8") as fh:
                        if fh.read().strip() != "pending":
                            continue
                except OSError:
                    continue
                pending.append(job_id)

            claimed = False
            for job_id in pending:
                with lock:
                    if len(active) >= max(1, concurrency):
                        break
                    active.add(job_id)
                script_path = os.path.join(spool_dir, job_id + ".sh")
                state_path = os.path.join(spool_dir, job_id + ".state")
                _write_state(state_path, "running")
                pool.submit(execute, job_id, script_path, state_path)
                claimed = True

            with lock:
                idle = not active
            if drain and idle and not pending and not claimed:
                break
            time.sleep(poll_interval)


def simbatch_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="simbatch",
        description="FIFO runner for flowforge's mock batch spool")
    parser.add_argument("--spool", required=True, help="spool directory")
    parser.add_argument("--concurrency", type=int, default=1)
    parser.add_argument("--drain", action="store_true",
                        help="exit when the spool is empty")
    parser.add_argument("--interval", type=float, default=POLL_INTERVAL)
    args = parser.parse_args(argv)
    run_spool(args.spool, args.concurrency, drain=args.drain,
              poll_interval=args.interval)
    return 0


class BatchExecutor:
    """Executes TaskSpecs by spooling job scripts and polling their state.

    An in-process simbatch loop runs in a daemon thread, so a single
    command covers the whole submit/run/poll cycle. A finished job's
    script and state file leave the spool once read, so the loop scans
    only live jobs.
    """

    name = "batch:mock"

    def __init__(self, spool_dir: str):
        self.backend = MockBatchBackend(spool_dir)
        self._stop = threading.Event()
        self._runner = threading.Thread(
            target=run_spool, args=(spool_dir, RUNNER_CONCURRENCY),
            kwargs={"stop_event": self._stop}, daemon=True)
        self._runner.start()

    def close(self):
        self._stop.set()
        if self._runner is not None:
            self._runner.join(timeout=5)
            self._runner = None

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
        while True:
            state = self.backend.poll(job_id)
            if state.phase == "done":
                for path in self.backend._paths(job_id):
                    with contextlib.suppress(FileNotFoundError):  # cancel() took it
                        os.unlink(path)
                return collect_outcome(spec, state.exit_code)
            if state.phase == "lost":
                return collect_outcome(
                    spec, -1, error="batch job %s lost" % job_id)
            time.sleep(POLL_INTERVAL)


if __name__ == "__main__":
    sys.exit(simbatch_main())
