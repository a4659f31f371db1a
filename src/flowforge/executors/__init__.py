"""Pluggable task execution backends.

A TaskSpec is fully self-contained and workdir-relative: argv never
mentions absolute paths, inputs are already staged in the workdir's
model.INPUTS_DIR, outputs appear at declared relative paths, and value
outputs are written by the command to a manifest file in the workdir.
That is what makes local, batch, and remote execution interchangeable.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import subprocess
import threading
from dataclasses import dataclass, field

from ..canon import file_digest  # noqa: F401  (perfbench's tracer wraps it)
from ..model import PortType, check_value

MANIFEST_NAME = "outputs.json"


class ExecutorError(Exception):
    pass


@dataclass(frozen=True)
class OutputSpec:
    port: str
    type: PortType
    path: str | None = None  # workdir-relative; None for value ports


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    argv: tuple[str, ...]
    workdir: str
    outputs: tuple[OutputSpec, ...]
    wrapper: tuple[str, ...] = ()
    resources: dict | None = None

    @property
    def full_argv(self) -> list[str]:
        return list(self.wrapper) + list(self.argv)

    @property
    def value_ports(self) -> list[OutputSpec]:
        return [o for o in self.outputs if o.path is None]


@dataclass
class Outcome:
    exit_code: int
    value_outputs: dict[str, object] = field(default_factory=dict)
    error: str | None = None

    @property
    def success(self) -> bool:
        return self.exit_code == 0 and self.error is None


_live_groups: set[int] = set()  # process groups of the tasks running now
_groups_lock = threading.Lock()


def spawn(argv, cwd: str | None, stdout_path: str,
          stderr_path: str) -> tuple[int, str | None]:
    """Run argv to completion with its streams in the two files and no
    stdin. Returns (exit code, None), or (127, error) when it cannot
    start; the reason is then also written to stderr_path.

    The command leads a process group of its own. Once it exits, and
    before it is reaped (so its pid, the group's id, cannot be reused),
    whatever it left running in that group is killed: no process of a
    task outlives it to write the outputs the store then adopts."""
    with open(stdout_path, "wb") as out_fh, open(stderr_path, "wb") as err_fh:
        try:
            proc = subprocess.Popen(list(argv), cwd=cwd, stdout=out_fh,
                                    stderr=err_fh, stdin=subprocess.DEVNULL,
                                    start_new_session=True)
        except OSError as exc:
            err_fh.write(("%s\n" % exc).encode())
            return 127, "spawn failure: %s" % exc
    with _groups_lock:
        _live_groups.add(proc.pid)
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
    finally:
        with _groups_lock:
            _live_groups.discard(proc.pid)
    return proc.wait(), None


def kill_live_groups():
    """Kill the process group of every task running now, as an
    interrupted run must: its tasks do not share the terminal's group,
    so Ctrl-C does not reach them."""
    with _groups_lock:
        for pgid in _live_groups:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)


def artifact_present(root: str, decl) -> bool:
    """Whether the file or directory that `decl` (an OutputDecl or
    OutputSpec) declares exists at its path under `root`."""
    full = os.path.join(root, decl.path.replace("/", os.sep))
    is_dir = decl.type.kind == "directory"
    return os.path.isdir(full) if is_dir else os.path.isfile(full)


def collect_outcome(spec: TaskSpec, exit_code: int, error: str | None = None) -> Outcome:
    """Observe a finished command: check that the declared artifacts
    exist, parse and type-check the value manifest.

    Success requires exit 0, every declared artifact present, and every
    declared value present in the manifest with the right type. The
    cache store hashes artifacts as it copies them in, over local files,
    which for remote execution means after stage-out.
    """
    outcome = Outcome(exit_code, error=error)
    if exit_code != 0 or error is not None:
        return outcome

    for out in spec.outputs:
        if out.path is not None and not artifact_present(spec.workdir, out):
            outcome.error = "MissingOutput(%s): expected %s %s" % (
                out.port, out.type.kind, out.path)
            return outcome

    value_ports = spec.value_ports
    if value_ports:
        manifest_path = os.path.join(spec.workdir, MANIFEST_NAME)
        if not os.path.isfile(manifest_path):
            outcome.error = "MissingOutput(%s): no %s manifest" % (
                value_ports[0].port, MANIFEST_NAME)
            return outcome
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except ValueError as exc:  # bad JSON or bytes that are no UTF-8
            outcome.error = "BadValue(%s): manifest unparseable: %s" % (
                value_ports[0].port, exc)
            return outcome
        if not isinstance(manifest, dict):
            outcome.error = "BadValue(%s): manifest must be a flat mapping" % (
                value_ports[0].port)
            return outcome
        for out in value_ports:
            if out.port not in manifest:
                outcome.error = "MissingOutput(%s): port absent from manifest" % out.port
                return outcome
            value = manifest[out.port]
            if not check_value(value, out.type):
                outcome.error = "BadValue(%s): %r does not inhabit %s" % (
                    out.port, value, out.type.render())
                return outcome
            outcome.value_outputs[out.port] = value

    return outcome


def make_executor(spec: str, workspace: str):
    """Build an executor from its CLI name.

    local | batch:mock | remote:loopback; batch/remote state lives
    under the workspace's .flowforge directory.
    """
    if spec == "local":
        from .local import LocalExecutor
        return LocalExecutor()
    if spec.startswith("batch:"):
        name = spec.split(":", 1)[1]
        if name != "mock":
            raise ExecutorError(
                "unknown batch backend %r (the mock backend is the only bundled one)"
                % name)
        from .batch import BatchExecutor
        return BatchExecutor(os.path.join(workspace, ".flowforge", "spool"))
    if spec.startswith("remote:"):
        name = spec.split(":", 1)[1]
        if name != "loopback":
            raise ExecutorError(
                "unknown remote transport %r (loopback is the only bundled one)"
                % name)
        from .remote import LoopbackTransport, RemoteExecutor
        return RemoteExecutor(LoopbackTransport(
            os.path.join(workspace, ".flowforge", "remote")))
    raise ExecutorError("unknown executor %r" % spec)
