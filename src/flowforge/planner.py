"""Task graph construction and task fingerprints.

Everything here is a pure function over immutable inputs. Fingerprints
are SHA-256 digests over the canonical encoding documented in
docs/canonical-encoding.md; the schema literal below is the
engine-version salt that deliberately invalidates caches when the
observation semantics change.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass

from .canon import canon_digest, file_digest, tree_digest
from .envprov import ProviderRegistry, resolve_env
from .model import (
    ENV_NONE,
    EnvSpec,
    FlatWorkflow,
    OutputDecl,
    PortType,
    WorkflowError,
    check_value,
    render_value_text,
    param_ref,
    split_ref,
)

TASK_SCHEMA = "flowforge-task-v1"
WORKFLOW_SCHEMA = "flowforge-workflow-v1"


class PlanError(WorkflowError):
    """Graph construction failure (bad params, missing files, bad refs)."""


class MissingParamError(PlanError):
    pass


class MissingInputError(PlanError):
    pass


class ParamTypeError(PlanError):
    pass


class UnresolvedBindingError(PlanError):
    """A fingerprint was requested while an upstream result is unknown."""


@dataclass(frozen=True)
class Literal:
    """A value binding: the literal itself enters the fingerprint."""

    value: object


@dataclass(frozen=True)
class Blob:
    """An artifact binding by content digest.

    `source` is a local path the bytes can be materialized from when
    they are not (yet) in the cache; `tree` marks directory artifacts,
    whose digest is over the canonical tree manifest.
    """

    digest: str
    name: str = ""
    source: str | None = None
    tree: bool = False


@dataclass(frozen=True)
class Pending:
    """An upstream output that has not been produced or resolved yet."""

    producer: str
    port: str


@dataclass(frozen=True)
class TaskInstance:
    id: str
    argv: tuple[str, ...]
    input_bindings: dict[str, object]
    input_types: dict[str, PortType]
    input_sources: dict[str, str]
    output_decls: dict[str, OutputDecl]
    env_fingerprint: str
    deps: frozenset[str]
    env_spec: EnvSpec = ENV_NONE
    wrapper: tuple[str, ...] = ()
    resources: dict | None = None

    @property
    def file_output_paths(self) -> dict[str, str]:
        return {p: d.path for p, d in self.output_decls.items()
                if d.path is not None}


@dataclass(frozen=True)
class TaskGraph:
    tasks: dict[str, TaskInstance]
    edges: tuple[tuple[str, str], ...]
    sinks: dict[str, tuple[str, str]]

    def children(self) -> dict[str, list[str]]:
        """Direct consumers of every task, in edge order."""
        children: dict[str, list[str]] = {tid: [] for tid in self.tasks}
        for producer, consumer in self.edges:
            children[producer].append(consumer)
        return children

    def topo_order(self) -> list[str]:
        """Dependency-respecting order, smallest ready id first."""
        children = self.children()
        waiting = {tid: len(t.deps) for tid, t in self.tasks.items()}
        ready = sorted(tid for tid, n in waiting.items() if not n)
        order = []
        while ready:
            tid = heapq.heappop(ready)
            order.append(tid)
            for child in children[tid]:
                waiting[child] -= 1
                if not waiting[child]:
                    heapq.heappush(ready, child)
        if len(order) != len(self.tasks):
            raise PlanError("task graph has a cycle")
        return order


def digest_artifact(path: str, is_dir: bool) -> str:
    return tree_digest(path) if is_dir else file_digest(path)


def build_graph(fw: FlatWorkflow, param_values: dict | None,
                workspace: str | None = None,
                providers: ProviderRegistry | None = None) -> TaskGraph:
    """Instantiate one task per process with resolved param bindings.

    External file params are digested here (content, never timestamps);
    wiring between processes stays Pending until the scheduler resolves
    actual outcomes. Deterministic: identical inputs give structurally
    identical graphs.
    """
    param_values = dict(param_values or {})
    providers = providers or ProviderRegistry()
    anchor = fw.base_dir or workspace or "."

    unknown = set(param_values) - set(fw.params)
    if unknown:
        raise MissingParamError(
            "unknown param%s: %s" % ("s" if len(unknown) > 1 else "",
                                     ", ".join(sorted(unknown))))

    param_bindings: dict[str, object] = {}
    for name, decl in fw.params.items():
        if name in param_values:
            value = param_values[name]
        elif decl.has_default:
            value = decl.default
        else:
            raise MissingParamError("param %r has no default and was not supplied" % name)
        if not check_value(value, decl.type):
            raise ParamTypeError(
                "param %r: %r does not inhabit %s" % (name, value, decl.type.render()))
        if decl.type.is_artifact:
            path = value if os.path.isabs(value) else os.path.join(anchor, value)
            is_dir = decl.type.kind == "directory"
            exists = os.path.isdir(path) if is_dir else os.path.isfile(path)
            if not exists:
                raise MissingInputError(
                    "param %r: %s %s does not exist" % (name, decl.type.kind, path))
            param_bindings[name] = Blob(
                digest_artifact(path, is_dir),
                name=os.path.basename(path.rstrip("/")),
                source=os.path.abspath(path), tree=is_dir)
        else:
            param_bindings[name] = Literal(value)

    ids = {p.id for p in fw.processes}
    tasks: dict[str, TaskInstance] = {}
    edges: list[tuple[str, str]] = []

    for proc in fw.processes:
        if proc.command is None:
            raise PlanError("process %r is not flattened" % proc.id)
        bindings: dict[str, object] = {}
        types: dict[str, PortType] = {}
        sources: dict[str, str] = {}
        deps: set[str] = set()
        for port, decl in proc.inputs.items():
            pname = param_ref(decl.source)
            if pname is not None:
                if pname not in param_bindings:
                    raise PlanError("process %r references unknown param %r"
                                    % (proc.id, pname))
                bindings[port] = param_bindings[pname]
            else:
                head, ref_port = split_ref(decl.source)
                if head not in ids:
                    raise PlanError("process %r references unknown process %r"
                                    % (proc.id, head))
                bindings[port] = Pending(head, ref_port)
                deps.add(head)
                edges.append((head, proc.id))
            types[port] = decl.type
            sources[port] = decl.source

        env = resolve_env(proc.env, providers, fw.base_dir)
        tasks[proc.id] = TaskInstance(
            id=proc.id,
            argv=proc.command,
            input_bindings=bindings,
            input_types=types,
            input_sources=sources,
            output_decls=dict(proc.outputs),
            env_fingerprint=env.fingerprint,
            deps=frozenset(deps),
            env_spec=proc.env if proc.env is not None else ENV_NONE,
            wrapper=env.wrapper,
            resources=proc.resources,
        )

    sinks = {}
    for name, ref in fw.outputs.items():
        head, port = split_ref(ref)
        if head not in tasks or port not in tasks[head].output_decls:
            raise PlanError("workflow output %r references unknown %r" % (name, ref))
        sinks[name] = (head, port)

    return TaskGraph(tasks, tuple(sorted(set(edges))), sinks)


# ---------------------------------------------------------------------------
# fingerprints

def fingerprint_preimage(task: TaskInstance) -> dict:
    """The exact structure hashed for a task, per the published encoding."""
    inputs = {}
    for port, binding in task.input_bindings.items():
        if isinstance(binding, Pending):
            raise UnresolvedBindingError(
                "task %r input %r depends on %s.%s, which is unresolved"
                % (task.id, port, binding.producer, binding.port))
        if isinstance(binding, Blob):
            inputs[port] = ["dir" if binding.tree else "file", binding.digest]
        else:
            inputs[port] = ["value", binding.value]
    outputs = {}
    for port, decl in task.output_decls.items():
        if decl.path is not None:
            outputs[port] = [decl.type.render(), decl.path]
        else:
            outputs[port] = [decl.type.render()]
    return {
        "schema": TASK_SCHEMA,
        "argv": list(task.argv),
        "env": task.env_fingerprint,
        "inputs": inputs,
        "outputs": outputs,
    }


def task_fingerprint(task: TaskInstance) -> str:
    return canon_digest(fingerprint_preimage(task))


def workflow_digest(fw: FlatWorkflow) -> str:
    """Digest of the flattened structure (encoding per docs/canonical-encoding.md)."""
    from .model import NO_DEFAULT

    params = {}
    for name, decl in fw.params.items():
        params[name] = [decl.type.render(), decl.has_default,
                        None if decl.default is NO_DEFAULT else decl.default]
    processes = {}
    for proc in fw.processes:
        processes[proc.id] = {
            "argv": list(proc.command),
            "inputs": {port: [d.type.render(), d.source]
                       for port, d in proc.inputs.items()},
            "outputs": {port: [d.type.render(), d.path]
                        for port, d in proc.outputs.items()},
            "env": _env_form(proc.env or ENV_NONE),
        }
    return canon_digest({
        "schema": WORKFLOW_SCHEMA,
        "name": fw.name,
        "params": params,
        "processes": processes,
        "outputs": dict(fw.outputs),
    })


def _env_form(env: EnvSpec):
    if env.variant == "none":
        return ["none"]
    if env.variant == "image":
        return ["image", env.ref]
    if env.variant == "recipe":
        return ["recipe", env.recipe]
    return ["manifest", [[n, v] for n, v in sorted(env.packages)]]


# ---------------------------------------------------------------------------
# argv resolution

def resolve_argv(task: TaskInstance, input_paths: dict[str, str]) -> list[str]:
    """Substitute placeholders with workdir-relative paths and value text.

    File input placeholders take the materialized path from
    input_paths; value inputs interpolate their canonical text
    rendering; output placeholders take the declared relative path.
    The result is identical on every executor because it never
    mentions absolute locations.
    """
    from .model import PLACEHOLDER_RE

    def substitute(match):
        space, port = match.group(1), match.group(2)
        if space == "inputs":
            binding = task.input_bindings[port]
            if isinstance(binding, Blob):
                return input_paths[port]
            if isinstance(binding, Literal):
                return render_value_text(binding.value, task.input_types[port])
            raise UnresolvedBindingError(
                "task %r input %r is unresolved" % (task.id, port))
        return task.output_decls[port].path

    return [PLACEHOLDER_RE.sub(substitute, token) for token in task.argv]
