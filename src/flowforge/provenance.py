"""Per-run provenance documents, lineage queries, and DOT export.

A provenance document is derived purely from the run journal, written
once as `runs/<run-id>/provenance.json`, and never mutated afterwards.
A small index file, rewritten after each run, maps artifact digests to
their producing (run, task) pairs. Lineage queries do not read it: they
scan every run document.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import threading
from dataclasses import dataclass, field

from .model import FlatWorkflow, ProcessDef

PROV_SCHEMA = "flowforge-prov-v1"
PROV_NAME = "provenance.json"
INDEX_NAME = "index.json"

# journal task states -> provenance action names; skipped tasks get no
# record at all (nothing was produced, the prior record still stands)
ACTION_FOR_STATE = {
    "succeeded": "Execute",
    "failed": "Execute",
    "cached": "LinkCached",
    "blocked": "Blocked",
    "aborted": "Aborted",
}


@dataclass
class TaskProvRecord:
    """How one task's results came to be, in one run."""

    task: str
    action: str
    fingerprint: str | None = None
    literal_inputs: dict = field(default_factory=dict)
    input_files: dict = field(default_factory=dict)
    input_sources: dict = field(default_factory=dict)  # port -> "producer.port"
    output_files: dict = field(default_factory=dict)
    value_outputs: dict = field(default_factory=dict)
    env: str | None = None
    env_spec: object = None
    executor: str | None = None
    started: str | None = None
    finished: str | None = None
    exit_code: int | None = None
    cached_from: str | None = None

    def to_data(self) -> dict:
        return {
            "task": self.task,
            "action": self.action,
            "fingerprint": self.fingerprint,
            "inputs": {
                "literals": self.literal_inputs,
                "files": self.input_files,
                "sources": self.input_sources,
            },
            "outputs": {
                "files": self.output_files,
                "values": self.value_outputs,
            },
            "env": {"fingerprint": self.env, "spec": self.env_spec},
            "executor": self.executor,
            "started": self.started,
            "finished": self.finished,
            "exit_code": self.exit_code,
            "cached_from": self.cached_from,
        }

    @classmethod
    def from_data(cls, data: dict) -> "TaskProvRecord":
        inputs = data.get("inputs", {})
        outputs = data.get("outputs", {})
        env = data.get("env", {})
        return cls(
            task=data["task"],
            action=data["action"],
            fingerprint=data.get("fingerprint"),
            literal_inputs=dict(inputs.get("literals", {})),
            input_files=dict(inputs.get("files", {})),
            input_sources=dict(inputs.get("sources", {})),
            output_files=dict(outputs.get("files", {})),
            value_outputs=dict(outputs.get("values", {})),
            env=env.get("fingerprint"),
            env_spec=env.get("spec"),
            executor=data.get("executor"),
            started=data.get("started"),
            finished=data.get("finished"),
            exit_code=data.get("exit_code"),
            cached_from=data.get("cached_from"),
        )


@dataclass
class ProvenanceDoc:
    run_id: str
    workflow_digest: str | None = None
    engine: str | None = None
    user: str | None = None
    hostname: str | None = None
    params: dict = field(default_factory=dict)
    records: list[TaskProvRecord] = field(default_factory=list)
    workflow_outputs: dict = field(default_factory=dict)
    incomplete: bool = False

    def to_data(self) -> dict:
        return {
            "schema": PROV_SCHEMA,
            "run": self.run_id,
            "workflow_digest": self.workflow_digest,
            "engine": self.engine,
            "user": self.user,
            "hostname": self.hostname,
            "params": self.params,
            "incomplete": self.incomplete,
            "tasks": [rec.to_data() for rec in self.records],
            "workflow_outputs": self.workflow_outputs,
        }

    @classmethod
    def from_data(cls, data: dict) -> "ProvenanceDoc":
        return cls(
            run_id=data["run"],
            workflow_digest=data.get("workflow_digest"),
            engine=data.get("engine"),
            user=data.get("user"),
            hostname=data.get("hostname"),
            params=dict(data.get("params", {})),
            records=[TaskProvRecord.from_data(r) for r in data.get("tasks", [])],
            workflow_outputs=dict(data.get("workflow_outputs", {})),
            incomplete=bool(data.get("incomplete", False)),
        )


def record(events) -> ProvenanceDoc:
    """Derive a provenance document from journal events.

    Deterministic: the document is a pure function of the event list.
    A journal without a run-finished event yields incomplete=True.
    """
    run_meta: dict = {}
    started_at: dict[str, str] = {}
    records: list[TaskProvRecord] = []
    saw_finish = False

    for ev in events:
        if ev.kind == "run-started":
            run_meta = ev.payload
        elif ev.kind == "task-started" and ev.task is not None:
            started_at[ev.task] = ev.ts
        elif ev.kind == "task-finished" and ev.task is not None:
            state = ev.payload.get("state")
            action = ACTION_FOR_STATE.get(state)
            if action is None:
                continue  # skipped-up-to-date and anything unknown
            inputs = ev.payload.get("inputs", {})
            env = ev.payload.get("env")
            records.append(TaskProvRecord(
                task=ev.task,
                action=action,
                fingerprint=ev.payload.get("fingerprint"),
                literal_inputs=dict(inputs.get("literals", {})),
                input_files=dict(inputs.get("files", {})),
                input_sources=dict(inputs.get("sources", {})),
                output_files=dict(ev.payload.get("files", {})),
                value_outputs=dict(ev.payload.get("values", {})),
                env=env,
                env_spec=ev.payload.get("env_spec"),
                executor=ev.payload.get("executor"),
                started=started_at.get(ev.task, ev.ts),
                finished=ev.ts,
                exit_code=ev.payload.get("exit_code"),
                cached_from=ev.payload.get("cached_from"),
            ))
        elif ev.kind == "run-finished":
            saw_finish = True

    by_task = {rec.task: rec for rec in records}
    workflow_outputs: dict = {}
    for name, ref in sorted(run_meta.get("sinks", {}).items()):
        task, port = ref[0], ref[1]
        rec = by_task.get(task)
        if rec is None:
            continue
        if port in rec.output_files:
            workflow_outputs[name] = {
                "task": task, "port": port, "digest": rec.output_files[port]}
        elif port in rec.value_outputs:
            workflow_outputs[name] = {
                "task": task, "port": port, "value": rec.value_outputs[port]}

    return ProvenanceDoc(
        run_id=run_meta.get("run_id", "unknown"),
        workflow_digest=run_meta.get("workflow_digest"),
        engine=run_meta.get("engine"),
        user=run_meta.get("user"),
        hostname=run_meta.get("hostname"),
        params=dict(run_meta.get("params", {})),
        records=records,
        workflow_outputs=workflow_outputs,
        incomplete=not saw_finish,
    )


# ---------------------------------------------------------------------------
# document store

def doc_path(runs_dir: str, run_id: str) -> str:
    return os.path.join(runs_dir, run_id, PROV_NAME)


def write_json(path: str, data, indent=None):
    """Replace `path` with `data` as one JSON line, or indented, by
    atomic rename. The temp file is named for this process and thread,
    so concurrent writers of one path never share it, and is created
    with the mode a plain open() gives."""
    tmp = "%s.%d-%d.tmp" % (path, os.getpid(), threading.get_ident())
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=indent)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_doc(run_dir: str, doc: ProvenanceDoc):
    write_json(os.path.join(run_dir, PROV_NAME), doc.to_data(), indent=2)


def load_doc(runs_dir: str, run_id: str) -> ProvenanceDoc:
    with open(doc_path(runs_dir, run_id), encoding="utf-8") as fh:
        return ProvenanceDoc.from_data(json.load(fh))


def iter_docs(runs_dir: str):
    """All readable provenance documents, oldest run id first.
    Unreadable or half-written documents are ignored, not fatal."""
    try:
        run_ids = sorted(os.listdir(runs_dir))
    except OSError:
        return
    for run_id in run_ids:
        try:
            yield load_doc(runs_dir, run_id)
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            continue


def update_index(runs_dir: str, doc: ProvenanceDoc):
    """Fold one run's output digests into runs/index.json.

    The index is an acceleration structure only; a corrupt or missing
    file is rebuilt from the documents on disk.
    """
    index = _read_index(runs_dir)
    if index is None:
        index = {}
        for existing in iter_docs(runs_dir):
            _fold_into_index(index, existing)
    else:
        _fold_into_index(index, doc)
    write_json(os.path.join(runs_dir, INDEX_NAME),
               {"schema": PROV_SCHEMA, "artifacts": index})


def _read_index(runs_dir: str) -> dict | None:
    try:
        with open(os.path.join(runs_dir, INDEX_NAME), encoding="utf-8") as fh:
            data = json.load(fh)
        artifacts = data["artifacts"]
        if not isinstance(artifacts, dict):
            return None
        return artifacts
    except (OSError, json.JSONDecodeError, KeyError, TypeError):
        return None


def _fold_into_index(index: dict, doc: ProvenanceDoc):
    for rec in doc.records:
        for digest in rec.output_files.values():
            entries = index.setdefault(digest, [])
            pair = [doc.run_id, rec.task]
            if pair not in entries:
                entries.append(pair)


# ---------------------------------------------------------------------------
# lineage

@dataclass
class LineageResult:
    """Upstream closure of one artifact: who made it, from what."""

    digest: str
    tasks: list  # sorted (run_id, task_id) pairs
    artifacts: list  # sorted digests participating in the derivation

    @property
    def task_ids(self) -> set:
        return {task for _, task in self.tasks}

    @property
    def found(self) -> bool:
        return bool(self.tasks)

    def to_data(self) -> dict:
        return {
            "digest": self.digest,
            "found": self.found,
            "tasks": [{"run": r, "task": t} for r, t in self.tasks],
            "artifacts": self.artifacts,
        }


def lineage(runs_dir: str, digest: str) -> LineageResult:
    """Transitive upstream closure of the artifact with this digest.

    Loads every provenance document under runs_dir to map each output
    digest to its producing tasks, then walks file edges across runs and
    value edges via recorded input sources within a run. An unknown
    digest yields an empty result.
    """
    records: dict[tuple, TaskProvRecord] = {}
    producers: dict[str, list] = {}
    for doc in iter_docs(runs_dir):
        for rec in doc.records:
            records.setdefault((doc.run_id, rec.task), rec)
            for out_digest in rec.output_files.values():
                producers.setdefault(out_digest, []).append((doc.run_id, rec.task))

    tasks: set = set()
    artifacts: set = set()
    seen_digests: set = set()
    digest_frontier = [digest]
    task_frontier: list = []

    while digest_frontier or task_frontier:
        while digest_frontier:
            d = digest_frontier.pop()
            if d in seen_digests:
                continue
            seen_digests.add(d)
            for pair in producers.get(d, ()):
                artifacts.add(d)
                if pair not in tasks:
                    task_frontier.append(pair)
        while task_frontier:
            run_id, task_id = task_frontier.pop()
            if (run_id, task_id) in tasks:
                continue
            tasks.add((run_id, task_id))
            rec = records.get((run_id, task_id))
            if rec is None:
                continue
            for d in rec.input_files.values():
                artifacts.add(d)
                digest_frontier.append(d)
            # value edges stay within the run: the upstream task computed
            # a literal this task consumed
            for port, src in rec.input_sources.items():
                if port in rec.literal_inputs:
                    upstream = src.rpartition(".")[0]
                    task_frontier.append((run_id, upstream))

    return LineageResult(digest, sorted(tasks), sorted(artifacts))


# ---------------------------------------------------------------------------
# DOT export

_BARE_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _dot_id(name: str) -> str:
    if _BARE_ID.match(name):
        return name
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(text: str) -> str:
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(obj) -> str:
    """Render a workflow definition or a provenance document as a DOT
    digraph: boxed process nodes, edges labeled with the producing port,
    dashed for value edges and solid for files."""
    if isinstance(obj, FlatWorkflow):
        return _dot_workflow(obj)
    if isinstance(obj, ProvenanceDoc):
        return _dot_doc(obj)
    raise TypeError("cannot export %r as DOT" % type(obj).__name__)


def _dot_workflow(fw: FlatWorkflow) -> str:
    lines = ["digraph {"]
    if fw.processes:
        lines.append("  rankdir=LR;")
    outputs_by_proc: dict[str, ProcessDef] = {p.id: p for p in fw.processes}
    for proc in fw.processes:
        lines.append("  %s [shape=box];" % _dot_id(proc.id))
    for proc in fw.processes:
        for port, decl in proc.inputs.items():
            producer, _, out_port = decl.source.rpartition(".")
            if producer not in outputs_by_proc:
                continue  # param-fed input: no node for it
            out_decl = outputs_by_proc[producer].outputs.get(out_port)
            dashed = out_decl is not None and not out_decl.type.is_artifact
            lines.append(_edge(producer, proc.id, out_port, dashed))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_doc(doc: ProvenanceDoc) -> str:
    lines = ["digraph {"]
    if doc.records:
        lines.append("  rankdir=LR;")
    known = {rec.task for rec in doc.records}
    for rec in doc.records:
        if rec.action == "LinkCached":
            # \n is graphviz's line-break escape; it must reach the
            # output as a single backslash, so it bypasses _dot_label.
            esc = rec.task.replace("\\", "\\\\").replace('"', '\\"')
            lines.append('  %s [shape=box, label="%s\\n(cached)"];'
                         % (_dot_id(rec.task), esc))
        else:
            lines.append("  %s [shape=box];" % _dot_id(rec.task))
    for rec in doc.records:
        for port in sorted(rec.input_sources):
            src = rec.input_sources[port]
            producer, _, out_port = src.rpartition(".")
            if producer not in known:
                continue
            dashed = port in rec.literal_inputs
            lines.append(_edge(producer, rec.task, out_port, dashed))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _edge(src: str, dst: str, label: str, dashed: bool) -> str:
    attrs = "label=%s" % _dot_label(label)
    if dashed:
        attrs += ", style=dashed"
    return "  %s -> %s [%s];" % (_dot_id(src), _dot_id(dst), attrs)
