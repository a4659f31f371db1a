"""One client that runs flowforge commands one after another.

Every command waits for the previous one (a closed loop with a single
client). A timed client spawns `python -m flowforge` with the checkout's
`src/` on PYTHONPATH, exactly as a user runs it, and reaps each process
with os.wait4 to read its peak RSS. A traced client runs the same
commands in this process through `flowforge.cli.main`, so the layer
wrappers in layers.py see every call.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

COMMAND_TIMEOUT_S = 150
RUN_ID_RE = re.compile(r"^run (\S+) finished:", re.M)


class CheckFailed(Exception):
    """A flowforge output disagrees with the benchmark's own computation."""


@dataclass
class Reply:
    code: int
    out: str
    err: str
    seconds: float

    @property
    def run_id(self) -> str:
        match = RUN_ID_RE.search(self.out)
        if match is None:
            raise CheckFailed("no run id in output: %r" % self.out[-300:])
        return match.group(1)


class Client:
    """Runs commands, counts operations and keeps time samples by metric."""

    def __init__(self, root: str, scratch: str):
        self.root = root
        self.scratch = scratch
        self.jobs = len(os.sched_getaffinity(0))
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.label = None  # the metric the current command feeds

    def ff(self, args, metric: str | None = None, may_fail: bool = False) -> Reply:
        """Run one flowforge command. Its time goes to `metric` when
        given. A nonzero exit counts as a failed operation; unless
        `may_fail`, it also fails the correctness check."""
        self.label = metric
        reply = self._invoke([str(a) for a in args])
        self.label = None
        self.attempted += 1
        if reply.code != 0:
            self.failed += 1
            if not may_fail:
                raise CheckFailed("flowforge %s exited %d: %s"
                                  % (" ".join(map(str, args[:2])), reply.code,
                                     reply.err.strip()[-500:]))
        elif metric is not None:
            self.samples[metric].append(reply.seconds)
        return reply

    def _invoke(self, args) -> Reply:
        raise NotImplementedError


class ProcessClient(Client):
    """Spawns each command as its own process, the way a user runs it."""

    def __init__(self, root: str, scratch: str):
        super().__init__(root, scratch)
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")

    def _invoke(self, args) -> Reply:
        out_path = os.path.join(self.scratch, "stdout.txt")
        err_path = os.path.join(self.scratch, "stderr.txt")
        # Start every command with no dirty pages left by earlier ones,
        # so its fsyncs do not pay for their write-back.
        os.sync()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "flowforge", *args], cwd=self.root,
                env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            guard = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            guard.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                guard.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            out_text = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            err_text = fh.read()
        return Reply(proc.returncode, out_text, err_text, seconds)


class InProcessClient(Client):
    """Runs each command through flowforge.cli.main in this process."""

    def __init__(self, root: str, scratch: str):
        super().__init__(root, scratch)
        from click.testing import CliRunner

        from flowforge import cli

        self.main = cli.main
        self.runner = CliRunner()

    def _invoke(self, args) -> Reply:
        start = time.perf_counter()
        result = self.runner.invoke(self.main, args, catch_exceptions=True)
        seconds = time.perf_counter() - start
        err = result.stderr
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            err += "%s: %s" % (type(result.exception).__name__, result.exception)
        return Reply(result.exit_code, result.stdout, err, seconds)


# ---------------------------------------------------------------------------
# reading a workspace without the engine's code

def journal_events(workspace: str, run_id: str) -> list[dict]:
    path = os.path.join(workspace, "runs", run_id, "events.ndjson")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def started_tasks(workspace: str, run_id: str) -> set[str]:
    return {e["task"] for e in journal_events(workspace, run_id)
            if e["kind"] == "task-started"}


def finished_states(workspace: str, run_id: str) -> dict[str, str]:
    return {e["task"]: e["payload"]["state"]
            for e in journal_events(workspace, run_id)
            if e["kind"] == "task-finished"}


def provenance_outputs(workspace: str, run_id: str) -> dict[str, dict]:
    """task -> {port: digest} as the run's provenance document records it."""
    path = os.path.join(workspace, "runs", run_id, "provenance.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {rec["task"]: rec["outputs"]["files"] for rec in doc["tasks"]}


def disk_usage_mb(path: str) -> float:
    """Allocated size of a tree, each inode counted once."""
    seen = set()
    total = 0
    for dirpath, dirnames, filenames in os.walk(path):
        for name in dirnames + filenames:
            st = os.lstat(os.path.join(dirpath, name))
            if (st.st_dev, st.st_ino) in seen:
                continue
            seen.add((st.st_dev, st.st_ino))
            total += st.st_blocks * 512
    return total / (1 << 20)


def expect(condition: bool, message: str, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)
