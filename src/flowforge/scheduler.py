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
worker stages and executes its own task, then stores its outputs in the
cache and places them in the workspace as a link does (_link_outputs,
which writes the stamp), then stores the cache entry. That is safe
without locks because output paths are unique per task, the cache
installs blobs and entries by atomic rename, and stamps are per task. A
worker hands back only a TaskResult; the journal is fsynced once before
each blocking wait. A task runs in a process group of its own; a run
that leaves by an exception, Ctrl-C included, kills the groups still
running.

A placed file output is a read-only hard link to its blob, and so is the
file the task produced (the store adopts it), so an edit in place would
reach the store. Stamps therefore record each placed file's (st_ino,
st_size, st_mtime_ns), and before the walk decides any task, under every
policy, it checks every task's placed outputs against its stamp
(checked_stamp), reading a directory output by cache.scan_tree: the
run's one reading of them. One that is gone, or holds anything placing
would remove, has changed. A changed file costs one hash, a blob it
changed leaves the store and no task links it, and the stamp goes, so
the task re-executes; a stamp whose files hashed unchanged is written
again with their stat. The checked stamp travels with the task's action
until a link fails: update skips on it, and placing keeps a file whose
record is its blob's stat and rescans a directory only for a file the
manifest lacks. A staged input is a link into the store as well; a task
that writes one fails, and the producer's output that shared its inode
leaves the workspace with the producer's stamp.

Policy semantics (per task):
  recompute  always Execute.
  link       LinkCached when the cache holds the fingerprint, else Execute.
  update     SkipUpToDate when the checked stamp, which proves every
             declared output in place, holds the current fingerprint and
             no dependency executed this run; else Execute. The "no
             dependency executed" clause makes the executed set exactly
             {fingerprint changed} plus downstream, the make-like
             reading of the update policy.
"""

from __future__ import annotations

import contextlib
import heapq
import logging
import os
import socket
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from enum import Enum
from stat import S_ISREG

from . import provenance, runstate
from .cache import (CacheEntry, CacheError, CacheStore, encode_record,
                    read_entry, replace_file, scan_tree, stat_record)
from .canon import file_digest
from .executors import OutputSpec, StagedInput, TaskSpec, kill_live_groups
from .executors.local import LocalExecutor
from .model import env_to_data, param_ref, split_ref
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
    # the task's stamp, as checked_stamp returned it
    stamp: Stamp | None = field(default=None, compare=False)
    hit: CacheEntry | None = field(default=None, compare=False)  # link's

    @property
    def is_execute(self) -> bool:
        return self.kind == "execute"

    @property
    def entry(self) -> CacheEntry | None:
        """The outputs the action settles from: link's cache hit, else
        the task's checked stamp."""
        return self.hit if self.kind == "link" else self.stamp


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
# up-to-dateness is a property of a workspace, linking of the cache). A
# stamp is the cache entry of the outputs a task last placed there, plus
# a record of the stat of each file placed, which no cache entry holds.

@dataclass(frozen=True)
class Stamp(CacheEntry):
    # workspace relpath -> [st_ino, st_size, st_mtime_ns] of each file
    # placed; empty in a stamp written without the record
    placed: dict = field(default_factory=dict)
    written_ns: int = 0  # the stamp file's mtime

    @classmethod
    def from_data(cls, data: dict) -> "Stamp":
        entry = CacheEntry.from_data(data)
        placed = data.get("placed")
        return cls(entry.fingerprint, entry.run_id, entry.file_outputs,
                   entry.value_outputs, placed if isinstance(placed, dict) else {})


def stamp_path(workspace: str, task_id: str) -> str:
    return os.path.join(workspace, STAMPS_DIR, task_id)


def read_stamp(workspace: str, task_id: str) -> Stamp | None:
    path = stamp_path(workspace, task_id)
    try:
        # stat first: a stamp replaced meanwhile is newer than it says,
        # which makes its records look racier, never less
        written_ns = os.stat(path).st_mtime_ns
        return replace(read_entry(path, Stamp), written_ns=written_ns)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def write_stamp(workspace: str, task_id: str, entry: CacheEntry, placed=None):
    """Write the stamp of `entry`, the one writer of stamps; `placed`,
    workspace relpath -> [st_ino, st_size, st_mtime_ns] of each file the
    task placed, is recorded with it (see Stamp)."""
    data = entry.to_data()
    if placed is not None:
        data["placed"] = placed
    replace_file(stamp_path(workspace, task_id), encode_record(data))


def checked_stamp(task: TaskInstance, cache: CacheStore, workspace: str,
                  dry: bool = False) -> tuple[Stamp | None, set[str]]:
    """The task's stamp, or None when it has none, when it does not name
    every output the task declares, or when a placed output has changed
    since; and the digests of the blobs changed with it.

    A file output is lstat'ed, and a directory output read by
    cache.scan_tree against the members the stamp records (its
    manifest's when it records none), as placing reads it: an output
    gone, or holding anything placing would remove, has changed. A
    placed file whose stat moved from the stamp's record, or whose mtime
    is not older than the stamp (git's "racy" rule: the stamp's own tick
    may hide a later edit), or that the stamp has no record of, is
    hashed; one that cannot be read has changed. If its bytes are not
    its blob's and it shares the blob's inode, the blob leaves the store
    with the tree that holds it, so entries naming them become misses.
    Either way the stamp goes, and the task re-executes. When every file
    hashed holds its bytes, the stamp is written again with their stat,
    as git refreshes its index, so they are not hashed again. The stamp
    returned holds in `placed` the stat of each placed file as the check
    found it. With `dry`, nothing on disk changes."""
    stamp = read_stamp(workspace, task.id)
    if stamp is None or not _names_every_output(task, stamp):
        return None, set()
    placed = stamp.placed
    changed, hashed, gone = False, False, set()
    record = {}  # workspace relpath -> the stat record of the file now
    for port, decl in task.output_decls.items():
        if decl.path is None:
            continue
        digest = stamp.file_outputs[port]
        path = os.path.join(workspace, decl.path.replace("/", os.sep))
        members = None  # the tree's member -> digest, read once needed
        try:
            if decl.type.kind != "directory":
                files = [(decl.path, None, path, os.lstat(path))]
            else:
                prefix = decl.path + "/"
                names = {rel[len(prefix):] for rel in placed
                         if rel.startswith(prefix)} or _tree_members(cache, digest)
                found, others = scan_tree(path, names)
                changed |= bool(others) or len(found) < len(names)
                files = [(prefix + m, m, e.path, e.stat(follow_symlinks=False))
                         for m, e in found.items()]
        except OSError:  # gone, or no directory
            changed = True
            continue
        for rel, member, path, st in files:
            record[rel] = stat_record(st)
            if placed.get(rel) == record[rel] and st.st_mtime_ns < stamp.written_ns:
                continue
            if member is not None and members is None:
                members = _tree_members(cache, digest)
            expected = digest if member is None else members.get(member)
            hashed = True
            with contextlib.suppress(OSError):
                if expected is not None and S_ISREG(st.st_mode) \
                        and file_digest(path) == expected:
                    continue
            changed = True
            with contextlib.suppress(OSError):
                if expected is not None and os.path.samestat(
                        st, os.stat(cache.blob_path(expected))):
                    gone |= {expected, digest}
    if changed and not dry:
        for blob in gone:
            try:
                os.unlink(cache.blob_path(blob))
            except FileNotFoundError:
                pass
            except OSError as exc:
                log.warning("blob %s changed in place and cannot leave the "
                            "store: %s", blob[:12], exc)
        with contextlib.suppress(OSError):
            os.unlink(stamp_path(workspace, task.id))
    elif hashed and not dry:
        with contextlib.suppress(OSError):
            write_stamp(workspace, task.id, stamp, record)
    return (None if changed else replace(stamp, placed=record)), gone


def _tree_members(cache: CacheStore, digest: str) -> dict:
    try:
        return cache.read_tree_manifest(digest)["entries"]
    except (CacheError, OSError):
        return {}


def _names_every_output(task: TaskInstance, entry: CacheEntry) -> bool:
    """Whether `entry` names every output the task declares; one that
    does not is damaged, and counts as none."""
    return all(port in (entry.value_outputs if decl.path is None else entry.file_outputs)
               for port, decl in task.output_decls.items())


def decide_action(task: TaskInstance, policy: Policy, cache: CacheStore,
                  fingerprint: str | None = None, stamp: Stamp | None = None) -> TaskAction:
    """Per-task policy decision. Requires resolved bindings (the
    fingerprint must be computable). `stamp` is the task's checked
    stamp: update skips on it alone, and an execute carries it. Cache
    corruption counts as a miss; the cache layer warns."""
    if policy == Policy.RECOMPUTE:
        return TaskAction("execute", fingerprint, stamp)
    fp = fingerprint or task_fingerprint(task)
    if policy == Policy.LINK:
        entry = cache.get_entry(fp)
        if entry is not None and _names_every_output(task, entry):
            return TaskAction("link", fp, stamp, entry)
    elif stamp is not None and stamp.fingerprint == fp:
        return TaskAction("skip", fp, stamp)
    return TaskAction("execute", fp, stamp)


def generate_run_id() -> str:
    """Sortable-by-start-time and collision-proof within a workspace."""
    return "r%s-%s" % (time.strftime("%Y%m%d-%H%M%S"), uuid.uuid4().hex[:6])


def _settled_result(action: TaskAction, entry: CacheEntry | None) -> TaskResult:
    """The result of a task settled without running it here, with the
    outputs `entry` records: a link's cache entry, a skip's stamp, or for
    an execute the stamp of the outputs it is expected to reproduce.
    Without one an execute's outputs are unknown, and every task that
    reads them resolves to None."""
    entry = entry or CacheEntry(action.fingerprint, None, {}, {})
    return TaskResult(
        {"link": "cached", "skip": "skipped-up-to-date"}.get(action.kind, "succeeded"),
        fingerprint=action.fingerprint, file_digests=dict(entry.file_outputs),
        value_outputs=dict(entry.value_outputs),
        cached_from=entry.run_id if action.kind == "link" else None)


class _Walk:
    """The decision walk behind run() and plan_preview(). next() decides
    the smallest ready task; settle() records a task's result and readies
    the children whose last dependency it was."""

    def __init__(self, runner: "Runner", graph: TaskGraph, policy: Policy,
                 dry: bool = False):
        self.runner, self.graph, self.policy = runner, graph, policy
        self.results: dict[str, TaskResult] = {}
        self.children = graph.children()
        self.waiting = {tid: len(task.deps) for tid, task in graph.tasks.items()}
        self.ready = sorted(tid for tid, n in self.waiting.items() if not n)  # sorted is a heap
        self.executed: set[str] = set()  # tasks whose action was Execute
        # Every task's placed outputs are checked before any is decided,
        # so no decision uses a blob that an edited output changed.
        self.stamps: dict[str, Stamp | None] = {}
        self.gone: set[str] = set()  # digests of the blobs so changed
        for tid in sorted(graph.tasks):
            self.stamps[tid], gone = checked_stamp(
                graph.tasks[tid], runner.cache, runner.workspace, dry)
            self.gone |= gone

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
        stamp = self.stamps.pop(task.id)
        if resolved is None:
            action = EXECUTE
        else:
            fp = task_fingerprint(resolved)
            if self.policy == Policy.UPDATE and task.deps & self.executed:
                action = TaskAction("execute", fp, stamp)
            else:
                action = decide_action(resolved, self.policy, self.runner.cache, fp, stamp)
            if action.kind == "link" \
                    and self.gone.intersection(action.entry.file_outputs.values()):
                action = TaskAction("execute", fp, stamp)  # an edit changed them
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
            "executor": self.executor.name,
            "workflow": meta.get("workflow"),
            "workflow_digest": meta.get("workflow_digest"),
            "params": meta.get("params", {}),
            "sinks": {name: list(ref) for name, ref in graph.sinks.items()},
            "engine": _engine_version(),
            "user": _username(),
            "hostname": socket.gethostname(),
            "pid": os.getpid(),
        })

        walk = _Walk(self, graph, policy)
        result = RunResult(run_id, walk.results, 0.0)
        results = result.states
        runnable: list[tuple[str, TaskInstance, TaskAction]] = []  # heap by id
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
                        heapq.heappush(runnable, (tid, resolved, action))
                    elif action.kind == "skip":
                        finish(tid, _settled_result(action, action.entry),
                               {"state": "skipped-up-to-date", "fingerprint": fp})
                    else:
                        try:
                            self._link_outputs(resolved, action.entry, action.stamp)
                        except (CacheError, OSError) as exc:
                            log.warning("task %s cannot be linked, executing "
                                        "it instead: %s", tid, exc)
                            # what it placed voids the check's reading
                            action = replace(action, stamp=None)
                            heapq.heappush(runnable, (tid, resolved, action))
                            continue
                        linked = _settled_result(action, action.entry)
                        finish(tid, linked, self._finish_payload(resolved, linked))

                while runnable and len(futures) < self.jobs and not stop:
                    tid, resolved, action = heapq.heappop(runnable)
                    journal.append("task-started", tid, {
                        "fingerprint": action.fingerprint,
                        "executor": self.executor.name,
                    })
                    futures[pool.submit(self._execute_task, resolved,
                                        action.fingerprint, run_dir,
                                        action.stamp)] = resolved

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
        except BaseException:  # Ctrl-C included: the tasks run in groups of their own
            kill_live_groups()
            raise
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
        """The actions run() would take, decided by the same walk, which
        checks placed outputs as run() does but changes nothing on disk. A
        skip settles from its stamp and a link from its cache entry, as in
        run(). A task to execute settles from its stamp when the stamp
        holds its current fingerprint, as if it reproduced those outputs;
        otherwise its outputs are unknown and every task that reads them
        executes too. Pure: touches neither workspace nor cache nor
        journals."""
        walk = _Walk(self, graph, Policy(policy), dry=True)
        actions: dict[str, TaskAction] = {}
        while (decision := walk.next()) is not None:
            task, _, action = decision
            actions[task.id] = action
            entry = action.entry
            if action.is_execute and entry is not None \
                    and entry.fingerprint != action.fingerprint:
                entry = None
            walk.settle(task.id, _settled_result(action, entry))
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
        or None, stat), as placing it found them, so the sandbox is not
        walked again."""
        rel = "inputs/%s/%s" % (port, binding.name or binding.digest[:12])
        dest = os.path.join(workdir, rel.replace("/", os.sep))
        self._ingest_input(binding)
        if binding.tree:
            placed = self.cache.materialize_tree(binding.digest, dest).items()
        else:
            placed = [(None, (dest, self.cache.materialize_blob(binding.digest, dest)))]
        return rel, {path: (port, member, st) for member, (path, st) in placed}

    def _execute_task(self, task: TaskInstance, fp: str, run_dir: str,
                      stamp: Stamp | None) -> TaskResult:
        """Worker-thread body: hermetic workdir, staged inputs, executor
        call, then this task's outputs, stamp and cache entry; `stamp` is
        the task's checked stamp (see _link_outputs).
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
                    staged.append(StagedInput(rel, binding.tree))
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
        try:
            entry = CacheEntry(fp, os.path.basename(run_dir),
                               self._publish_outputs(task, workdir),
                               dict(outcome.value_outputs))
            self._link_outputs(task, entry, stamp)
            self.cache.put_entry(entry)
        except (CacheError, OSError) as exc:
            return TaskResult("failed", exit_code=outcome.exit_code,
                              fingerprint=fp,
                              error="publishing outputs failed: %s" % exc)
        return TaskResult("succeeded", exit_code=0, fingerprint=fp,
                          file_digests=entry.file_outputs,
                          value_outputs=entry.value_outputs)

    def _rewritten_input(self, task: TaskInstance, before: dict) -> str | None:
        """An error naming the first input whose staged bytes the task
        changed, or None; only files whose size or mtime moved are
        rehashed. A blob whose inode the staged file still shares leaves
        the store with the tree that holds it, so entries that name them
        become misses. When the staged file is also the producer's
        workspace output (both linked from the store, as every placed
        output is), that output changed too, and the bytes the producer
        placed exist nowhere now: the output leaves the workspace with
        the producer's stamp, so that no stamp claims the task's bytes
        and the next update re-executes the producer."""
        for path, (port, member, stat) in sorted(before.items()):
            try:
                now = os.stat(path)
            except FileNotFoundError:
                continue  # unlinking a staged link leaves the store alone
            if (now.st_size, now.st_mtime_ns) == (stat.st_size, stat.st_mtime_ns):
                continue
            binding = task.input_bindings[port]
            digest = binding.digest if member is None else \
                self.cache.read_tree_manifest(binding.digest)["entries"][member]
            if file_digest(path) != digest:
                with contextlib.suppress(FileNotFoundError):
                    if os.path.samestat(now, os.stat(self.cache.blob_path(digest))):
                        for name in dict.fromkeys((digest, binding.digest)):
                            os.unlink(self.cache.blob_path(name))
                producer = split_ref(task.input_sources[port])[0]
                if producer in task.deps:
                    output = binding.source if member is None else os.path.join(
                        binding.source, member.replace("/", os.sep))
                    with contextlib.suppress(OSError):
                        if os.path.samestat(now, os.lstat(output)):
                            os.unlink(output)
                            os.unlink(stamp_path(self.workspace, producer))
                return "ModifiedInput(%s): the task rewrote its input %s" % (
                    port, os.path.basename(path))
        return None

    def _publish_outputs(self, task: TaskInstance, workdir: str) -> dict[str, str]:
        """Store declared outputs, adopting each file the task produced
        (CacheStore.put_blob); returns port -> digest. _link_outputs
        places them."""
        files: dict[str, str] = {}
        for port, rel in sorted(task.file_output_paths.items()):
            produced = os.path.join(workdir, rel.replace("/", os.sep))
            if task.output_decls[port].type.kind == "directory":
                files[port] = self.cache.put_tree(produced, adopt=True)
            else:
                files[port] = self.cache.put_blob(produced, adopt=True)
        return files

    def _link_outputs(self, task: TaskInstance, entry: CacheEntry,
                      stamp: Stamp | None):
        """Place the outputs `entry` records in the workspace, each file
        a hard link to its blob, by the one rule of
        CacheStore.materialize_*, trusting the reading of `stamp`, the
        task's checked stamp, or None. A file output replaces no
        directory, nor a directory output a file or symlink. The stamp
        records the stat of every file placed, and one that records this
        entry and placement already is kept."""
        found = stamp.placed if stamp is not None else {}
        placed = {}  # workspace relpath -> stat record, as Stamp.placed
        for port, rel in sorted(task.file_output_paths.items()):
            dest = os.path.join(self.workspace, rel.replace("/", os.sep))
            digest = entry.file_outputs[port]
            if task.output_decls[port].type.kind == "directory":
                prefix = rel + "/"
                records = None if stamp is None else {
                    name[len(prefix):]: record for name, record in found.items()
                    if name.startswith(prefix)}
                members = self.cache.materialize_tree(digest, dest, records)
                placed.update((prefix + member, stat_record(st))
                              for member, (_, st) in members.items())
            else:
                placed[rel] = stat_record(
                    self.cache.materialize_blob(digest, dest, found.get(rel)))
        if stamp is None or stamp.placed != placed or stamp.to_data() != entry.to_data():
            write_stamp(self.workspace, task.id, entry, placed)

    # -- journal payloads ----------------------------------------------------

    def _finish_payload(self, task: TaskInstance, result: TaskResult) -> dict:
        """The task-finished payload: `state` and `error`, and the task's
        provenance record in the layout of docs/provenance-schema.md."""
        literal_inputs = {}
        input_files = {}
        sources = {}
        for port, binding in task.input_bindings.items():
            if isinstance(binding, Literal):
                literal_inputs[port] = binding.value
            elif isinstance(binding, Blob):
                input_files[port] = binding.digest
            src = task.input_sources.get(port, "")
            if src and param_ref(src) is None:
                sources[port] = src  # full "<producer>.<port>" ref
        return {
            "state": result.state,
            "error": result.error,
            "fingerprint": result.fingerprint,
            "inputs": {
                "literals": literal_inputs,
                "files": input_files,
                "sources": sources,
            },
            "outputs": {
                "files": dict(result.file_digests),
                "values": dict(result.value_outputs),
            },
            "env": {
                "fingerprint": task.env_fingerprint,
                "spec": env_to_data(task.env_spec),
            },
            "executor": self.executor.name,
            "exit_code": result.exit_code,
            "cached_from": result.cached_from,
        }

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
