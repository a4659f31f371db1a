"""Remote execution over a pluggable transport with stage-in/stage-out.

The bundled LoopbackTransport is a second directory tree on the same
machine; it exercises every staging path without needing a network.
Stage-in pushes each file of the workdir's model.INPUTS_DIR at its own
relpath. The executor records data transfers (staged inputs, retrieved
declared outputs, the value manifest) in model.TRANSFER_LOG inside the
local workdir; stdout/stderr retrieval is bookkeeping, not data
transfer, and is not listed.
"""

from __future__ import annotations

import contextlib
import json
import os
import posixpath
import shutil

from ..cache import replace_file
from ..canon import regular_files
from ..model import INPUTS_DIR, STDERR_NAME, STDOUT_NAME, TRANSFER_LOG
from . import MANIFEST_NAME, Outcome, TaskSpec, collect_outcome, spawn

REMOTE_BASE = "jobs"  # task workdirs live at <transport root>/jobs/<task id>


class TransportError(Exception):
    pass


class LoopbackTransport:
    """Filesystem 'remote': all operations rooted at a directory tree."""

    name = "loopback"

    def __init__(self, root: str):
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def _resolve(self, rel: str) -> str:
        root = os.path.abspath(self.root)
        full = os.path.normpath(os.path.join(root, rel.replace("/", os.sep)))
        # root + os.sep, so a sibling named like the root does not pass
        if full != root and not full.startswith(os.path.join(root, "")):
            raise TransportError("path escapes transport root: %s" % rel)
        return full

    def push(self, local: str, remote_rel: str):
        dest = self._resolve(remote_rel)
        os.makedirs(os.path.dirname(dest), exist_ok=True)
        shutil.copyfile(local, dest)
        # Preserve exec bits so staged scripts stay runnable.
        shutil.copymode(local, dest)

    def pull(self, remote_rel: str, local: str) -> bool:
        src = self._resolve(remote_rel)
        if not os.path.isfile(src):
            return False
        os.makedirs(os.path.dirname(local) or ".", exist_ok=True)
        shutil.copyfile(src, local)
        return True

    def pull_tree(self, remote_rel: str, local: str) -> list[str] | None:
        """Retrieve a directory's regular files; returns their relpaths,
        or None if the directory does not exist remotely."""
        src = self._resolve(remote_rel)
        if not os.path.isdir(src):
            return None
        members = []
        for rel, full in regular_files(src):
            dest = os.path.join(local, rel.replace("/", os.sep))
            os.makedirs(os.path.dirname(dest), exist_ok=True)
            shutil.copyfile(full, dest)
            members.append(rel)
        os.makedirs(local, exist_ok=True)
        return members

    def clear(self, remote_rel: str):
        """Remove a remote directory and everything under it."""
        with contextlib.suppress(FileNotFoundError):
            shutil.rmtree(self._resolve(remote_rel))

    def run(self, argv, cwd_rel: str, stdout_rel: str,
            stderr_rel: str) -> tuple[int, str | None]:
        cwd = self._resolve(cwd_rel)
        os.makedirs(cwd, exist_ok=True)
        return spawn(argv, cwd, self._resolve(stdout_rel), self._resolve(stderr_rel))


class RemoteExecutor:
    """Stage inputs out, run remotely, stage outputs back, observe locally.

    Outputs are hashed by the cache store as the scheduler copies the
    retrieved local files in, after stage-out, so a lying or lossy
    transport cannot corrupt the cache. A declared output
    the transport cannot retrieve simply stays absent locally and
    surfaces as MissingOutput; nothing partial is ever cached. Once the
    outputs, the value manifest and the logs are back, the task's remote
    directory is cleared, so the transport keeps no copy of them.
    """

    def __init__(self, transport):
        self.transport = transport
        self.name = "remote:" + transport.name

    def execute(self, spec: TaskSpec) -> Outcome:
        remote_dir = posixpath.join(REMOTE_BASE, spec.task_id)
        staged_in: list[str] = []
        staged_out: list[str] = []

        try:
            self.transport.clear(remote_dir)  # no output of an earlier run
            for member, full in regular_files(os.path.join(spec.workdir, INPUTS_DIR)):
                rel = posixpath.join(INPUTS_DIR, member)
                self.transport.push(full, posixpath.join(remote_dir, rel))
                staged_in.append(rel)

            exit_code, error = self.transport.run(
                spec.full_argv, remote_dir,
                posixpath.join(remote_dir, STDOUT_NAME),
                posixpath.join(remote_dir, STDERR_NAME))

            for out in spec.outputs:
                if out.path is None:
                    continue
                local = os.path.join(spec.workdir, out.path.replace("/", os.sep))
                if out.type.kind == "directory":
                    members = self.transport.pull_tree(
                        posixpath.join(remote_dir, out.path), local)
                    if members is not None:
                        staged_out.extend(posixpath.join(out.path, m) for m in members)
                else:
                    if self.transport.pull(posixpath.join(remote_dir, out.path), local):
                        staged_out.append(out.path)

            if spec.value_ports:
                if self.transport.pull(
                        posixpath.join(remote_dir, MANIFEST_NAME),
                        os.path.join(spec.workdir, MANIFEST_NAME)):
                    staged_out.append(MANIFEST_NAME)

            # Log retrieval: diagnostics, not data transfer.
            self.transport.pull(posixpath.join(remote_dir, STDOUT_NAME),
                                os.path.join(spec.workdir, STDOUT_NAME))
            self.transport.pull(posixpath.join(remote_dir, STDERR_NAME),
                                os.path.join(spec.workdir, STDERR_NAME))
            self.transport.clear(remote_dir)  # all it holds is local now
        except TransportError as exc:
            exit_code, error = -1, "transport failure: %s" % exc

        replace_file(os.path.join(spec.workdir, TRANSFER_LOG), (json.dumps(
            {"in": staged_in, "out": staged_out}, indent=1) + "\n").encode())
        return collect_outcome(spec, exit_code, error)
