"""Pluggable task execution backends.

A TaskSpec is fully self-contained and workdir-relative: argv never
mentions absolute paths, inputs are already materialized inside the
workdir, outputs appear at declared relative paths, and value outputs
are written by the command to a manifest file in the workdir. That is
what makes local, batch, and remote execution interchangeable.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ..canon import file_digest  # noqa: F401  (perfbench's tracer wraps it)
from ..model import PortType, check_value

MANIFEST_NAME = "outputs.json"
STDOUT_NAME = "stdout.txt"
STDERR_NAME = "stderr.txt"


class ExecutorError(Exception):
    pass


@dataclass(frozen=True)
class StagedInput:
    """A materialized input file (or directory tree) inside the workdir."""

    port: str
    path: str  # workdir-relative, /-separated
    tree: bool = False


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
    inputs: tuple[StagedInput, ...]
    outputs: tuple[OutputSpec, ...]
    wrapper: tuple[str, ...] = ()
    resources: dict | None = None
    manifest_name: str = MANIFEST_NAME

    @property
    def full_argv(self) -> list[str]:
        return list(self.wrapper) + list(self.argv)

    @property
    def value_ports(self) -> list[OutputSpec]:
        return [o for o in self.outputs if o.path is None]


@dataclass
class Outcome:
    exit_code: int
    stdout_path: str | None = None
    stderr_path: str | None = None
    value_outputs: dict[str, object] = field(default_factory=dict)
    error: str | None = None

    @property
    def success(self) -> bool:
        return self.exit_code == 0 and self.error is None


def collect_outcome(spec: TaskSpec, exit_code: int, error: str | None = None) -> Outcome:
    """Observe a finished command: check that the declared artifacts
    exist, parse and type-check the value manifest.

    Success requires exit 0, every declared artifact present, and every
    declared value present in the manifest with the right type. The
    cache store hashes artifacts as it copies them in, over local files,
    which for remote execution means after stage-out.
    """
    outcome = Outcome(
        exit_code,
        os.path.join(spec.workdir, STDOUT_NAME),
        os.path.join(spec.workdir, STDERR_NAME),
        error=error,
    )
    if exit_code != 0 or error is not None:
        return outcome

    for out in spec.outputs:
        if out.path is None:
            continue
        full = os.path.join(spec.workdir, out.path.replace("/", os.sep))
        is_dir = out.type.kind == "directory"
        if not (os.path.isdir(full) if is_dir else os.path.isfile(full)):
            outcome.error = "MissingOutput(%s): expected %s %s" % (
                out.port, "directory" if is_dir else "file", out.path)
            return outcome

    value_ports = spec.value_ports
    if value_ports:
        manifest_path = os.path.join(spec.workdir, spec.manifest_name)
        if not os.path.isfile(manifest_path):
            outcome.error = "MissingOutput(%s): no %s manifest" % (
                value_ports[0].port, spec.manifest_name)
            return outcome
        try:
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
        except json.JSONDecodeError as exc:
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
    from .batch import BatchExecutor
    from .local import LocalExecutor
    from .remote import LoopbackTransport, RemoteExecutor

    if spec == "local":
        return LocalExecutor()
    if spec.startswith("batch:"):
        name = spec.split(":", 1)[1]
        if name != "mock":
            raise ExecutorError(
                "unknown batch backend %r (the mock backend is the only bundled one)"
                % name)
        spool = os.path.join(workspace, ".flowforge", "spool")
        return BatchExecutor(spool)
    if spec.startswith("remote:"):
        name = spec.split(":", 1)[1]
        if name != "loopback":
            raise ExecutorError(
                "unknown remote transport %r (loopback is the only bundled one)"
                % name)
        root = os.path.join(workspace, ".flowforge", "remote")
        return RemoteExecutor(LoopbackTransport(root), name="remote:loopback")
    raise ExecutorError("unknown executor %r" % spec)
