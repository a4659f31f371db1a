"""Run orchestration: up-to-dateness policies, bounded-parallel dispatch,
failure propagation, and the journal/cache/provenance bookkeeping around
task execution.

One decision walk serves both run() and plan_preview(). It keeps an
in-degree count per task and decides each task exactly once, when its
last dependency settles: blocked check, binding resolution, one
fingerprint, the policy. Ready tasks leave it smallest id first, which
keeps the journal deterministic. run() settles skipped, linked and
blocked tasks on the spot, and queues tasks to execute until one of the
`jobs` worker threads is free; plan_preview() settles every task with
its predicted outcome instead.

In run() the scheduler thread owns the results and the journal. A
worker stages, executes and then publishes its own task: outputs into
the cache and workspace, the stamp, the cache entry. That is safe
without locks because output paths are unique per task, the cache
installs blobs and entries by atomic rename, and stamps are per task. A
worker hands back only a TaskResult; the journal is fsynced once before
each blocking wait.

Policy semantics (per task):
  recompute  always Execute.
  link       LinkCached when the cache holds the fingerprint, else Execute.
  update     SkipUpToDate when declared outputs exist in the workspace,
             the stored stamp matches the current fingerprint, and no
             dependency executed this run; else Execute. The "no
             dependency executed" clause makes the executed set exactly
             {fingerprint changed} plus downstream, the make-like
             reading of the update policy.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import logging
import os
import shutil
import socket
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from enum import Enum

from . import provenance, runstate
from .cache import CacheEntry, CacheError, CacheStore, link_file
from .canon import file_digest
from .executors import OutputSpec, StagedInput, TaskSpec
from .executors.local import LocalExecutor
from .model import env_to_data
from .planner import (
    Blob,
    Literal,
    Pending,
    TaskGraph,
    TaskInstance,
    task_fingerprint,
    resolve_argv,
)

log = logging.getLogger(__name__)

OK_STATES = frozenset({"succeeded", "cached", "skipped-up-to-date"})
BAD_STATES = frozenset({"failed", "blocked", "aborted"})

STAMPS_DIR = os.path.join(".flowforge", "stamps")


class SchedulerError(Exception):
    pass


class Policy(str, Enum):
    RECOMPUTE = "recompute"
    LINK = "link"
    UPDATE = "update"


@dataclass(frozen=True)
class TaskAction:
    kind: str  # "execute" | "link" | "skip" | "blocked"
    fingerprint: str | None = None
    entry: CacheEntry | None = field(default=None, compare=False)  # link's hit
    stamp: dict | None = field(default=None, compare=False)  # the stamp update read

    @property
    def is_execute(self) -> bool:
        return self.kind == "execute"


EXECUTE = TaskAction("execute")
BLOCKED = TaskAction("blocked")


@dataclass
class TaskResult:
    state: str  # succeeded|failed|cached|skipped-up-to-date|blocked|aborted
    exit_code: int | None = None
    fingerprint: str | None = None
    file_digests: dict[str, str] = field(default_factory=dict)
    value_outputs: dict[str, object] = field(default_factory=dict)
    cached_from: str | None = None
    error: str | None = None


@dataclass
class RunResult:
    run_id: str
    states: dict[str, TaskResult]
    wall_seconds: float

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for result in self.states.values():
            out[result.state] = out.get(result.state, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return all(r.state in OK_STATES for r in self.states.values())

    def tasks_in_state(self, state: str) -> list[str]:
        return sorted(t for t, r in self.states.items() if r.state == state)


# ---------------------------------------------------------------------------
# workspace stamps (update policy bookkeeping; workspace-scoped on purpose:
# up-to-dateness is a property of a workspace, linking of the cache)

def stamp_path(workspace: str, task_id: str) -> str:
    return os.path.join(workspace, STAMPS_DIR, task_id)


def read_stamp(workspace: str, task_id: str) -> dict | None:
    try:
        with open(stamp_path(workspace, task_id), encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or "fingerprint" not in data:
        return None
    data.setdefault("files", {})
    data.setdefault("values", {})
    return data


def write_stamp(workspace: str, task_id: str, fingerprint: str,
                files: dict, values: dict):
    path = stamp_path(workspace, task_id)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    provenance.write_json(
        path, {"fingerprint": fingerprint, "files": files, "values": values})


def _outputs_present(task: TaskInstance, workspace: str) -> bool:
    for port, rel in task.file_output_paths.items():
        full = os.path.join(workspace, rel.replace("/", os.sep))
        if task.output_decls[port].type.kind == "directory":
            if not os.path.isdir(full):
                return False
        elif not os.path.isfile(full):
            return False
    return True


def decide_action(task: TaskInstance, policy: Policy, cache: CacheStore,
                  workspace: str, fingerprint: str | None = None) -> TaskAction:
    """Per-task policy decision. Requires resolved bindings (the
    fingerprint must be computable). Cache corruption counts as a miss;
    the cache layer warns."""
    if policy == Policy.RECOMPUTE:
        return TaskAction("execute", fingerprint)
    fp = fingerprint or task_fingerprint(task)
    if policy == Policy.LINK:
        entry = cache.get_entry(fp)
        if entry is not None:
            return TaskAction("link", fp, entry)
        return TaskAction("execute", fp)
    # update
    stamp = read_stamp(workspace, task.id)
    if stamp is not None and stamp["fingerprint"] == fp \
            and _outputs_present(task, workspace):
        return TaskAction("skip", fp, stamp=stamp)
    return TaskAction("execute", fp, stamp=stamp)


def generate_run_id() -> str:
    """Sortable-by-start-time and collision-proof within a workspace."""
    return "r%s-%s" % (time.strftime("%Y%m%d-%H%M%S"), uuid.uuid4().hex[:6])


def _settled_result(action: TaskAction, predicted: dict | None = None) -> TaskResult:
    """The result of a task settled without running it here: a link from
    its cache entry, a skip from its stamp, and an execute from
    `predicted`, the stamp of the outputs it is expected to reproduce.
    Without one an execute's outputs are unknown, and every task that
    reads them resolves to None."""
    if action.kind == "link":
        entry = action.entry
        return TaskResult("cached", fingerprint=action.fingerprint,
                          file_digests=dict(entry.file_outputs),
                          value_outputs=dict(entry.value_outputs),
                          cached_from=entry.run_id)
    if action.kind == "skip":
        return TaskResult("skipped-up-to-date", fingerprint=action.fingerprint,
                          file_digests=dict(action.stamp["files"]),
                          value_outputs=dict(action.stamp["values"]))
    predicted = predicted or {"files": {}, "values": {}}
    return TaskResult("succeeded", fingerprint=action.fingerprint,
                      file_digests=dict(predicted["files"]),
                      value_outputs=dict(predicted["values"]))


class _Walk:
    """The decision walk behind run() and plan_preview(). next() decides
    the smallest ready task; settle() records a task's result and readies
    the children whose last dependency it was."""

    def __init__(self, runner: "Runner", graph: TaskGraph, policy: Policy):
        self.runner, self.graph, self.policy = runner, graph, policy
        self.results: dict[str, TaskResult] = {}
        self.children = graph.children()
        self.waiting = {tid: len(task.deps) for tid, task in graph.tasks.items()}
        self.ready = sorted(tid for tid, n in self.waiting.items() if not n)  # sorted is a heap
        self.executed: set[str] = set()  # tasks whose action was Execute

    def next(self) -> tuple[TaskInstance, TaskInstance | None, TaskAction] | None:
        """(task, resolved task, action) for the smallest ready task, or
        None when no task is ready. A task with a failed, blocked or
        aborted dependency gets BLOCKED. The resolved task is None when an
        upstream output is unknown; the action is then EXECUTE."""
        if not self.ready:
            return None
        task = self.graph.tasks[heapq.heappop(self.ready)]
        if any(self.results[dep].state in BAD_STATES for dep in task.deps):
            return task, task, BLOCKED
        resolved = self.runner._resolve_bindings(self.graph, task, self.results)
        if resolved is None:
            action = EXECUTE
        else:
            fp = task_fingerprint(resolved)
            if self.policy == Policy.UPDATE and task.deps & self.executed:
                action = TaskAction("execute", fp)
            else:
                action = decide_action(resolved, self.policy, self.runner.cache,
                                       self.runner.workspace, fp)
        if action.is_execute:
            self.executed.add(task.id)
        return task, resolved, action

    def settle(self, tid: str, result: TaskResult):
        self.results[tid] = result
        for child in self.children[tid]:
            self.waiting[child] -= 1
            if not self.waiting[child]:
                heapq.heappush(self.ready, child)


class Runner:
    """Owns one workspace + cache pair and executes task graphs in it."""

    def __init__(self, workspace: str, cache: CacheStore | None = None,
                 executor=None, jobs: int = 1, keep_going: bool = False):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.workspace = os.path.abspath(os.fspath(workspace))
        self.cache = cache or CacheStore(os.path.join(self.workspace, "cache"))
        self.executor = executor or LocalExecutor()
        self.jobs = jobs
        self.keep_going = keep_going

    # -- public surface ----------------------------------------------------

    def run(self, graph: TaskGraph, policy: Policy = Policy.UPDATE,
            run_id: str | None = None, meta: dict | None = None) -> RunResult:
        policy = Policy(policy)
        run_id = run_id or generate_run_id()
        run_dir = os.path.join(self.workspace, "runs", run_id)
        if os.path.exists(run_dir):
            raise SchedulerError("run directory already exists: %s" % run_dir)
        os.makedirs(run_dir)
        with open(os.path.join(run_dir, runstate.PID_NAME), "w",
                  encoding="utf-8") as fh:
            fh.write("%d\n" % os.getpid())
        started = time.monotonic()

        self._ingest_external_inputs(graph)

        journal = runstate.Journal.create(run_dir)
        meta = meta or {}
        journal.append("run-started", payload={
            "run_id": run_id,
            "tasks": sorted(graph.tasks),
            "policy": policy.value,
            "jobs": self.jobs,
            "keep_going": self.keep_going,
            "executor": getattr(self.executor, "name", "local"),
            "workflow": meta.get("workflow"),
            "workflow_digest": meta.get("workflow_digest"),
            "params": meta.get("params", {}),
            "sinks": {name: list(ref) for name, ref in graph.sinks.items()},
            "engine": _engine_version(),
            "user": _username(),
            "hostname": socket.gethostname(),
        })

        walk = _Walk(self, graph, policy)
        result = RunResult(run_id, walk.results, 0.0)
        results = result.states
        runnable: list[tuple[str, TaskInstance, str]] = []  # heap by id
        futures: dict = {}
        stop = False

        def finish(tid: str, task_result: TaskResult, payload: dict):
            walk.settle(tid, task_result)
            journal.append("task-finished", tid, payload)

        pool = ThreadPoolExecutor(max_workers=self.jobs)
        try:
            while True:
                while not stop and (decision := walk.next()) is not None:
                    task, resolved, action = decision
                    tid, fp = task.id, action.fingerprint
                    if action.kind == "blocked":
                        finish(tid, TaskResult("blocked"), {"state": "blocked"})
                    elif resolved is None:
                        raise SchedulerError(
                            "task %s needs an output its upstream result lacks"
                            % tid)
                    elif action.kind == "execute":
                        heapq.heappush(runnable, (tid, resolved, fp))
                    elif action.kind == "skip":
                        finish(tid, _settled_result(action),
                               {"state": "skipped-up-to-date", "fingerprint": fp})
                    else:
                        try:
                            self._link_outputs(resolved, action.entry)
                        except CacheError as exc:
                            log.warning("task %s cannot be linked, executing "
                                        "it instead: %s", tid, exc)
                            heapq.heappush(runnable, (tid, resolved, fp))
                            continue
                        linked = _settled_result(action)
                        finish(tid, linked, self._finish_payload(resolved, linked))

                while runnable and len(futures) < self.jobs and not stop:
                    tid, resolved, fp = heapq.heappop(runnable)
                    journal.append("task-started", tid, {
                        "fingerprint": fp,
                        "executor": getattr(self.executor, "name", "local"),
                    })
                    futures[pool.submit(self._execute_task, resolved, fp,
                                        run_dir)] = resolved

                if not futures:
                    break
                journal.sync()
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for fut in sorted(done, key=lambda f: futures[f].id):
                    task = futures.pop(fut)
                    task_result = fut.result()
                    finish(task.id, task_result,
                           self._finish_payload(task, task_result))
                    if task_result.state == "failed" and not self.keep_going:
                        stop = True

            if stop:
                self._wind_down(walk, runnable, journal)
            elif len(results) != len(graph.tasks):
                raise SchedulerError(
                    "scheduler stalled; remaining tasks %s"
                    % sorted(set(graph.tasks) - set(results)))
        finally:
            pool.shutdown(wait=True)
            complete = result.ok and len(results) == len(graph.tasks)
            try:
                journal.append("run-finished", payload={
                    "state": "succeeded" if complete else "failed",
                    "counts": result.counts,
                })
            finally:
                journal.close()

        self._write_provenance(run_dir)
        result.wall_seconds = time.monotonic() - started
        return result

    def plan_preview(self, graph: TaskGraph, policy: Policy = Policy.UPDATE) -> dict[str, TaskAction]:
        """The actions run() would take, decided by the same walk. A skip
        settles from its stamp and a link from its cache entry, as in
        run(). A task to execute settles from its stamp when the stamp
        holds its current fingerprint, as if it reproduced those outputs;
        otherwise its outputs are unknown and every task that reads them
        executes too. Pure: touches neither workspace nor cache nor
        journals."""
        walk = _Walk(self, graph, Policy(policy))
        actions: dict[str, TaskAction] = {}
        while (decision := walk.next()) is not None:
            task, _, action = decision
            actions[task.id] = action
            stamp = None
            if action.is_execute and action.fingerprint is not None:
                stamp = action.stamp or read_stamp(self.workspace, task.id)
                if stamp and stamp["fingerprint"] != action.fingerprint:
                    stamp = None
            walk.settle(task.id, _settled_result(action, stamp))
        return actions

    # -- dispatch helpers ----------------------------------------------------

    def _wind_down(self, walk: _Walk, runnable, journal):
        """Settle what a stopped run left. A queued task is aborted; each
        task readied since is blocked when a dependency failed or is
        blocked, else aborted. The heap is popped directly, so nothing is
        resolved, linked or skipped. Results and events follow in
        ascending id, which keeps the journal's `counts` in its order."""
        results = walk.results
        left = sorted(set(walk.graph.tasks) - set(results))
        for tid, _, _ in runnable:
            walk.settle(tid, TaskResult("aborted"))
        while walk.ready:
            tid = heapq.heappop(walk.ready)
            blocked = any(results[dep].state in ("failed", "blocked")
                          for dep in walk.graph.tasks[tid].deps)
            walk.settle(tid, TaskResult("blocked" if blocked else "aborted"))
        for tid in left:
            results[tid] = results.pop(tid)
            journal.append("task-finished", tid, {"state": results[tid].state})

    # -- binding resolution and materialization ------------------------------

    def _resolve_bindings(self, graph, task: TaskInstance,
                          results) -> TaskInstance | None:
        """`task` with each upstream output bound to its producer's
        result; None when a producer's result lacks the output."""
        new_bindings: dict[str, object] = {}
        for port, binding in task.input_bindings.items():
            if not isinstance(binding, Pending):
                new_bindings[port] = binding
                continue
            upstream = results[binding.producer]
            port_type = task.input_types[port]
            if port_type.is_artifact:
                if binding.port not in upstream.file_digests:
                    return None
                decl = graph.tasks[binding.producer].output_decls[binding.port]
                new_bindings[port] = Blob(
                    upstream.file_digests[binding.port],
                    name=os.path.basename(decl.path),
                    source=os.path.join(self.workspace,
                                        decl.path.replace("/", os.sep)),
                    tree=port_type.kind == "directory")
            else:
                if binding.port not in upstream.value_outputs:
                    return None
                new_bindings[port] = Literal(upstream.value_outputs[binding.port])
        return replace(task, input_bindings=new_bindings)

    def _ingest_external_inputs(self, graph):
        """Copy param-supplied artifacts into the cache up front, so
        lineage sees external inputs as first-class artifacts."""
        for task in graph.tasks.values():
            for binding in task.input_bindings.values():
                if isinstance(binding, Blob) and binding.source is not None:
                    self._ingest_input(binding)

    def _ingest_input(self, binding: Blob):
        """Copy `binding`'s source into the cache unless it holds the
        digest already. The store names the copy, so another digest
        means the source changed since the graph was built."""
        if self.cache.has_blob(binding.digest):
            return
        if binding.source is None:
            raise CacheError("no source for input %s" % binding.digest[:12])
        actual = self.cache.put_tree(binding.source) if binding.tree \
            else self.cache.put_blob(binding.source)
        if actual != binding.digest:
            raise CacheError(
                "input %s changed since the graph was built "
                "(expected %s, got %s)"
                % (binding.source, binding.digest[:12], actual[:12]))

    def _materialize_input(self, port: str, binding: Blob, workdir: str):
        """Stage an input under workdir. Returns its relpath and, for
        each file staged, path -> (port, path within a directory input
        or None, stat); a directory input gives each member the manifest
        placed, so the sandbox is not walked again."""
        rel = "inputs/%s/%s" % (port, binding.name or binding.digest[:12])
        dest = os.path.join(workdir, rel.replace("/", os.sep))
        self._ingest_input(binding)
        if binding.tree:
            placed = self.cache.materialize_tree(binding.digest, dest).items()
        else:
            self.cache.materialize_blob(binding.digest, dest)
            placed = [(None, dest)]
        return rel, {path: (port, member, os.stat(path)) for member, path in placed}

    def _execute_task(self, task: TaskInstance, fp: str,
                      run_dir: str) -> TaskResult:
        """Worker-thread body: hermetic workdir, staged inputs, executor
        call, then this task's outputs, stamp and cache entry.
        Infrastructure problems become failed results rather than
        exceptions so the run can keep accounting."""
        workdir = os.path.join(run_dir, "tasks", task.id)
        try:
            os.makedirs(workdir)

            staged: list[StagedInput] = []
            input_paths: dict[str, str] = {}
            before: dict[str, tuple] = {}
            for port in sorted(task.input_bindings):
                binding = task.input_bindings[port]
                if isinstance(binding, Blob):
                    rel, files = self._materialize_input(port, binding, workdir)
                    input_paths[port] = rel
                    staged.append(StagedInput(port, rel, binding.tree))
                    before.update(files)

            argv = resolve_argv(task, input_paths)
            outputs = tuple(
                OutputSpec(port, decl.type, decl.path)
                for port, decl in sorted(task.output_decls.items()))
            spec = TaskSpec(
                task_id=task.id,
                argv=tuple(argv),
                workdir=workdir,
                inputs=tuple(staged),
                outputs=outputs,
                wrapper=task.wrapper,
                resources=task.resources)
            outcome = self.executor.execute(spec)
            rewritten = self._rewritten_input(task, before)
        except (CacheError, OSError) as exc:
            log.warning("task %s could not be staged: %s", task.id, exc)
            return TaskResult("failed", exit_code=-1, fingerprint=fp,
                              error="staging failure: %s" % exc)
        if rewritten or not outcome.success:
            return TaskResult("failed", exit_code=outcome.exit_code,
                              fingerprint=fp, error=rewritten or outcome.error)
        values = dict(outcome.value_outputs)
        try:
            files = self._publish_outputs(task, workdir)
            write_stamp(self.workspace, task.id, fp, files, values)
            self.cache.put_entry(CacheEntry(
                fp, os.path.basename(run_dir), files, values))
        except (CacheError, OSError) as exc:
            return TaskResult("failed", exit_code=outcome.exit_code,
                              fingerprint=fp,
                              error="publishing outputs failed: %s" % exc)
        return TaskResult("succeeded", exit_code=0, fingerprint=fp,
                          file_digests=files, value_outputs=values)

    def _rewritten_input(self, task: TaskInstance, before: dict) -> str | None:
        """An error naming the first input whose staged bytes the task
        changed, or None; only files whose size or mtime moved are
        rehashed. A changed blob leaves the store with the tree that
        holds it, so entries that name them become misses."""
        for path, (port, member, stat) in sorted(before.items()):
            try:
                now = os.stat(path)
            except FileNotFoundError:
                continue  # unlinking a staged link leaves the store alone
            if (now.st_size, now.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns):
                continue
            tree = task.input_bindings[port].digest
            digest = tree if member is None else \
                self.cache.read_tree_manifest(tree)["entries"][member]
            if file_digest(path) != digest:
                for name in {digest, tree}:
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(self.cache.blob_path(name))
                return "ModifiedInput(%s): the task rewrote its input %s" % (
                    port, os.path.basename(path))
        return None

    def _publish_outputs(self, task: TaskInstance, workdir: str) -> dict[str, str]:
        """Ingest declared outputs into the cache and hard-link each
        produced file, as it is ingested, to its workspace path (not to
        the store, so that a task that rewrites its staged input, a link
        into the store, cannot reach them). Returns port -> digest."""
        files: dict[str, str] = {}
        for port, rel in sorted(task.file_output_paths.items()):
            produced = os.path.join(workdir, rel.replace("/", os.sep))
            dest = os.path.join(self.workspace, rel.replace("/", os.sep))
            if task.output_decls[port].type.kind != "directory":
                files[port] = self.cache.put_blob(produced)
                link_file(produced, dest)
                continue
            if os.path.isdir(dest):
                shutil.rmtree(dest)
            os.makedirs(dest)
            files[port] = self.cache.put_tree(produced, dest)
        return files

    def _link_outputs(self, task: TaskInstance, entry: CacheEntry):
        """Materialize a cached result into the workspace without executing."""
        for port, rel in sorted(task.file_output_paths.items()):
            dest = os.path.join(self.workspace, rel.replace("/", os.sep))
            if task.output_decls[port].type.kind == "directory":
                if os.path.isdir(dest):
                    shutil.rmtree(dest)
                self.cache.materialize_tree(entry.file_outputs[port], dest)
            else:
                self.cache.materialize_blob(entry.file_outputs[port], dest)
        write_stamp(self.workspace, task.id, entry.fingerprint,
                    dict(entry.file_outputs), dict(entry.value_outputs))

    # -- journal payloads ----------------------------------------------------

    def _finish_payload(self, task: TaskInstance, result: TaskResult) -> dict:
        literal_inputs = {}
        input_files = {}
        sources = {}
        for port, binding in task.input_bindings.items():
            if isinstance(binding, Literal):
                literal_inputs[port] = binding.value
            elif isinstance(binding, Blob):
                input_files[port] = binding.digest
            src = task.input_sources.get(port, "")
            if src and not src.startswith("params."):
                sources[port] = src  # full "<producer>.<port>" ref
        payload = {
            "state": result.state,
            "fingerprint": result.fingerprint,
            "exit_code": result.exit_code,
            "files": dict(result.file_digests),
            "values": dict(result.value_outputs),
            "cached_from": result.cached_from,
            "error": result.error,
            "env": task.env_fingerprint,
            "env_spec": env_to_data(task.env_spec),
            "executor": getattr(self.executor, "name", "local"),
            "inputs": {
                "literals": literal_inputs,
                "files": input_files,
                "sources": sources,
            },
        }
        return payload

    def _write_provenance(self, run_dir: str):
        events, _ = runstate.read_events(
            os.path.join(run_dir, runstate.JOURNAL_NAME))
        doc = provenance.record(events)
        provenance.write_doc(run_dir, doc)
        provenance.update_index(os.path.dirname(run_dir), doc)


def _engine_version() -> str:
    from . import __version__

    return __version__


def _username() -> str:
    try:
        import getpass

        return getpass.getuser()
    except Exception:
        return os.environ.get("USER", "unknown")
