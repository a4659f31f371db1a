"""Workflow data model: port types, definitions, parsing, validation, flattening.

A workflow file is a tree of mappings/sequences/scalars. The canonical
encoding is UTF-8 JSON; an equivalent indentation-based encoding (YAML
subset via safe_load) is accepted interchangeably. Everything here is
pure or read-only over its inputs; parsed values are immutable and safe
to share between threads.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field, replace

FORMAT_VERSION = 1

ID_RE = re.compile(r"[A-Za-z0-9_-]+")  # an identifier, matched whole
# `params` is the reserved source-reference namespace, never a process id.
RESERVED_IDS = frozenset({"params"})
# The names in a task's sandbox, runs/<run>/tasks/<task>/, spelled here alone.
INPUTS_DIR = "inputs"  # staged inputs, one directory per port
STDOUT_NAME = "stdout.txt"
STDERR_NAME = "stderr.txt"
TRANSFER_LOG = "transfer.json"  # what a remote executor transferred
# The engine's own state in a workspace or a sandbox, where no output path may lead.
RESERVED_PATHS = frozenset({"cache", "runs", ".flowforge", INPUTS_DIR,
                            STDOUT_NAME, STDERR_NAME, TRANSFER_LOG})
PLACEHOLDER_RE = re.compile(r"\{(inputs|outputs)\.(%s)\}" % ID_RE.pattern)

VALUE_KINDS = frozenset({"string", "integer", "float", "boolean"})
ARTIFACT_KINDS = frozenset({"file", "directory"})
SCALAR_KINDS = VALUE_KINDS | ARTIFACT_KINDS


class WorkflowError(Exception):
    """Base class for definition-level failures."""


class ParseError(WorkflowError):
    """Malformed workflow text or structure.

    For syntax errors `line` and `column` locate the problem; for
    structural errors `where` names the offending node instead.
    """

    def __init__(self, message, *, source=None, line=None, column=None, where=None):
        self.source = source
        self.line = line
        self.column = column
        self.where = where
        super().__init__(message)

    def __str__(self):
        prefix = self.source or ""
        if self.line is not None:
            prefix += ":%d" % self.line
            if self.column is not None:
                prefix += ":%d" % self.column
        text = super().__str__()
        if self.where:
            text = "%s: %s" % (self.where, text)
        return "%s: %s" % (prefix, text) if prefix else text


class FlattenError(WorkflowError):
    """Composition cannot be inlined; `code` is the finding it validates as:
    include-cycle, missing-file or mapping-mismatch."""

    def __init__(self, message, code="mapping-mismatch"):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class PortType:
    """A port's declared type.

    kind is one of string/integer/float/boolean/file/directory/array;
    array carries its element type (never itself an array); format is
    an IRI and only meaningful for file kinds.
    """

    kind: str
    format: str | None = None
    element: PortType | None = None

    def render(self) -> str:
        if self.kind == "array":
            return "array[%s]" % self.element.render()
        if self.kind == "file" and self.format:
            return "file{%s}" % self.format
        return self.kind

    @property
    def is_artifact(self) -> bool:
        return self.kind in ARTIFACT_KINDS


def parse_type(spec, format=None, *, where=""):
    """Turn a type string (plus optional format IRI) into a PortType."""
    if not isinstance(spec, str):
        raise ParseError("type must be a string", where=where)
    m = re.fullmatch(r"array\[\s*([a-z]+)\s*\]", spec)
    if m:
        inner = m.group(1)
        if inner not in VALUE_KINDS:
            # File outputs declare one relative path, which an array
            # cannot carry, so arrays hold value kinds only.
            raise ParseError(
                "array element must be a value kind, got %r" % inner, where=where)
        if format is not None:
            raise ParseError("format applies only to file ports", where=where)
        return PortType("array", element=PortType(inner))
    if spec not in SCALAR_KINDS:
        raise ParseError("unknown port type %r" % spec, where=where)
    if format is not None:
        if spec != "file":
            raise ParseError("format applies only to file ports", where=where)
        if not isinstance(format, str) or not format:
            raise ParseError("format must be a nonempty IRI string", where=where)
    return PortType(spec, format=format)


def types_compatible(producer: PortType, consumer: PortType) -> bool:
    """Connection rule: kinds equal, no numeric promotion, exact-IRI formats.

    A consumer that declares no file format accepts any producer format;
    a consumer that declares one requires a byte-identical producer IRI.
    """
    if producer.kind != consumer.kind:
        return False
    if producer.kind == "array":
        return types_compatible(producer.element, consumer.element)
    if producer.kind == "file" and consumer.format is not None:
        return producer.format == consumer.format
    return True


def check_value(value, t: PortType) -> bool:
    """Does a literal inhabit the port type? Strict, no promotion."""
    if t.kind == "string":
        return isinstance(value, str)
    if t.kind == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if t.kind == "float":
        return isinstance(value, float) and math.isfinite(value)
    if t.kind == "boolean":
        return isinstance(value, bool)
    if t.kind == "array":
        return isinstance(value, list) and all(
            check_value(item, t.element) for item in value)
    if t.kind in ARTIFACT_KINDS:
        # Path literal; existence is checked at graph build time.
        return isinstance(value, str) and bool(value)
    return False


def render_value_text(value, t: PortType) -> str:
    """Canonical text a value port interpolates into argv placeholders."""
    if t.kind == "string":
        return value
    if t.kind == "boolean":
        return "true" if value else "false"
    if t.kind == "integer":
        return str(value)
    if t.kind == "float":
        return repr(value)
    if t.kind == "array":
        return "[%s]" % ",".join(
            json.dumps(item) if isinstance(item, str)
            else render_value_text(item, t.element)
            for item in value)
    raise ValueError("no text rendering for %s ports" % t.kind)


@dataclass(frozen=True)
class EnvSpec:
    """Compute-environment declaration for a process."""

    variant: str  # none | manifest | image | recipe
    packages: tuple[tuple[str, str], ...] = ()
    ref: str = ""
    recipe: str = ""


ENV_NONE = EnvSpec("none")


NO_DEFAULT = object()


@dataclass(frozen=True)
class ParamDecl:
    type: PortType
    default: object = NO_DEFAULT

    @property
    def has_default(self) -> bool:
        return self.default is not NO_DEFAULT


@dataclass(frozen=True)
class InputDecl:
    type: PortType
    source: str  # "params.<name>" or "<process>.<port>"


@dataclass(frozen=True)
class OutputDecl:
    type: PortType
    path: str | None = None  # set iff file/directory kind


@dataclass(frozen=True)
class ProcessDef:
    id: str
    command: tuple[str, ...] | None
    subworkflow: str | None
    inputs: dict[str, InputDecl]
    outputs: dict[str, OutputDecl]
    env: EnvSpec | None = None
    resources: dict | None = None


@dataclass(frozen=True)
class WorkflowDef:
    name: str
    params: dict[str, ParamDecl]
    processes: tuple[ProcessDef, ...]
    outputs: dict[str, str]
    env: EnvSpec | None = None


@dataclass(frozen=True)
class FlatWorkflow:
    """A workflow with every subworkflow inlined.

    Process ids are dot-namespaced (`meshing.mesh`); every process has
    a command and an explicit EnvSpec; relative file references are
    anchored at base_dir.
    """

    name: str
    params: dict[str, ParamDecl]
    processes: tuple[ProcessDef, ...]
    outputs: dict[str, str]
    base_dir: str | None = None


# ---------------------------------------------------------------------------
# parsing

def _reject_nonfinite(token):
    raise ParseError("non-finite number %r not allowed" % token)


def _load_document(text: str, source: str):
    try:
        return json.loads(text, parse_constant=_reject_nonfinite)
    except json.JSONDecodeError as json_err:
        import yaml  # only here: a JSON workflow never pays for PyYAML

        try:
            return yaml.safe_load(text)
        except yaml.YAMLError as yaml_err:
            if text.lstrip()[:1] in ("{", "["):
                raise ParseError(
                    json_err.msg, source=source,
                    line=json_err.lineno, column=json_err.colno) from json_err
            mark = getattr(yaml_err, "problem_mark", None)
            raise ParseError(
                getattr(yaml_err, "problem", None) or str(yaml_err),
                source=source,
                line=mark.line + 1 if mark else None,
                column=mark.column + 1 if mark else None) from yaml_err


def parse_workflow(text: str, source: str = "<workflow>") -> WorkflowDef:
    """Parse workflow text (JSON or the indented encoding) into a WorkflowDef.

    Pure: no filesystem access; subworkflow paths are kept as written.
    Raises ParseError with line/column for syntax problems and with a
    node path for structural ones.
    """
    data = _load_document(text, source)
    return _build_def(data, source)


def _require_map(node, where):
    if not isinstance(node, dict):
        raise ParseError("expected a mapping", where=where)
    for key in node:
        if not isinstance(key, str):
            raise ParseError("mapping keys must be strings", where=where)
    return node


def _check_keys(node, allowed, where):
    unknown = set(node) - set(allowed)
    if unknown:
        raise ParseError(
            "unknown key%s %s" % ("s" if len(unknown) > 1 else "",
                                  ", ".join(sorted(repr(k) for k in unknown))),
            where=where)


def _check_id(name, where):
    if not isinstance(name, str) or not ID_RE.fullmatch(name):
        raise ParseError(
            "identifier must match %s, got %r" % (ID_RE.pattern, name), where=where)
    if name in RESERVED_IDS:
        raise ParseError("%r is a reserved identifier" % name, where=where)
    return name


def _parse_env(node, where) -> EnvSpec:
    if node is None or node == "none":
        return ENV_NONE
    node = _require_map(node, where)
    _check_keys(node, {"manifest", "image", "recipe"}, where)
    if len(node) != 1:
        raise ParseError(
            "environment must have exactly one of manifest/image/recipe", where=where)
    if "image" in node:
        ref = node["image"]
        if not isinstance(ref, str) or not ref:
            raise ParseError("image must be a nonempty reference string", where=where)
        return EnvSpec("image", ref=ref)
    if "recipe" in node:
        path = node["recipe"]
        if not isinstance(path, str) or not path:
            raise ParseError("recipe must be a nonempty path", where=where)
        return EnvSpec("recipe", recipe=path)
    entries = node["manifest"]
    if not isinstance(entries, list):
        raise ParseError("manifest must be a list of {name, version}", where=where)
    packages = []
    for i, entry in enumerate(entries):
        entry = _require_map(entry, "%s.manifest[%d]" % (where, i))
        _check_keys(entry, {"name", "version"}, "%s.manifest[%d]" % (where, i))
        name = entry.get("name")
        version = entry.get("version")
        if not isinstance(name, str) or not name:
            raise ParseError("manifest entry needs a nonempty name",
                             where="%s.manifest[%d]" % (where, i))
        if not isinstance(version, str) or not version:
            raise ParseError("manifest entry needs a nonempty version",
                             where="%s.manifest[%d]" % (where, i))
        packages.append((name, version))
    return EnvSpec("manifest", packages=tuple(packages))


def _parse_param(name, node, where) -> ParamDecl:
    node = _require_map(node, where)
    _check_keys(node, {"type", "format", "default"}, where)
    ptype = parse_type(node.get("type"), node.get("format"), where=where)
    if "default" not in node:
        return ParamDecl(ptype)
    default = node["default"]
    if not check_value(default, ptype):
        raise ParseError(
            "default %r does not inhabit type %s" % (default, ptype.render()),
            where=where)
    return ParamDecl(ptype, default)


def _parse_source_ref(ref, where) -> str:
    if not isinstance(ref, str) or "." not in ref:
        raise ParseError(
            "source reference must be 'params.<name>' or '<process>.<port>', got %r"
            % (ref,), where=where)
    return ref


def _parse_resources(node, where):
    node = _require_map(node, where)
    _check_keys(node, {"cpus", "memory", "walltime"}, where)
    if "cpus" in node and (not isinstance(node["cpus"], int)
                           or isinstance(node["cpus"], bool) or node["cpus"] < 1):
        raise ParseError("cpus must be a positive integer", where=where)
    for key in ("memory", "walltime"):
        if key in node and not isinstance(node[key], str):
            raise ParseError("%s must be a string" % key, where=where)
    return dict(node)


def _parse_process(node, index) -> ProcessDef:
    where = "processes[%d]" % index
    node = _require_map(node, where)
    _check_keys(node, {"id", "command", "subworkflow", "inputs", "outputs",
                       "env", "resources"}, where)
    pid = _check_id(node.get("id"), where + ".id")
    where = "processes[%s]" % pid

    has_command = "command" in node
    has_sub = "subworkflow" in node
    if has_command == has_sub:
        raise ParseError("exactly one of command/subworkflow required", where=where)

    command = None
    if has_command:
        raw = node["command"]
        if (not isinstance(raw, list) or not raw
                or not all(isinstance(tok, str) for tok in raw)):
            raise ParseError("command must be a nonempty list of strings", where=where)
        command = tuple(raw)

    subworkflow = None
    if has_sub:
        subworkflow = node["subworkflow"]
        if not isinstance(subworkflow, str) or not subworkflow:
            raise ParseError("subworkflow must be a nonempty path", where=where)

    inputs = {}
    for port, decl in _require_map(node.get("inputs", {}), where + ".inputs").items():
        pwhere = "%s.inputs.%s" % (where, port)
        _check_id(port, pwhere)
        decl = _require_map(decl, pwhere)
        _check_keys(decl, {"type", "format", "from"}, pwhere)
        if "from" not in decl:
            raise ParseError("input needs a 'from' source reference", where=pwhere)
        inputs[port] = InputDecl(
            parse_type(decl.get("type"), decl.get("format"), where=pwhere),
            _parse_source_ref(decl["from"], pwhere))

    outputs = {}
    for port, decl in _require_map(node.get("outputs", {}), where + ".outputs").items():
        pwhere = "%s.outputs.%s" % (where, port)
        _check_id(port, pwhere)
        decl = _require_map(decl, pwhere)
        _check_keys(decl, {"type", "format", "path"}, pwhere)
        ptype = parse_type(decl.get("type"), decl.get("format"), where=pwhere)
        path = decl.get("path")
        if ptype.is_artifact:
            if not isinstance(path, str) or not path:
                raise ParseError("%s output needs a relative path" % ptype.kind,
                                 where=pwhere)
            norm = os.path.normpath(path)
            if os.path.isabs(path) or norm.startswith("..") or norm == ".":
                raise ParseError("output path must stay inside the workspace",
                                 where=pwhere)
            path = norm.replace(os.sep, "/")
            if path.split("/")[0] in RESERVED_PATHS:
                raise ParseError("output path must stay outside the engine's "
                                 "state (%s)" % ", ".join(sorted(RESERVED_PATHS)),
                                 where=pwhere)
        elif path is not None:
            raise ParseError("value outputs carry no path", where=pwhere)
        else:
            path = None
        outputs[port] = OutputDecl(ptype, path)

    if subworkflow is not None and outputs:
        raise ParseError("subworkflow processes declare no outputs; "
                         "the inner workflow's outputs are used", where=where)

    env = _parse_env(node["env"], where + ".env") if "env" in node else None
    resources = (_parse_resources(node["resources"], where + ".resources")
                 if "resources" in node else None)

    if command is not None:
        for token in command:
            for m in PLACEHOLDER_RE.finditer(token):
                space, port = m.group(1), m.group(2)
                declared = inputs if space == "inputs" else outputs
                if port not in declared:
                    raise ParseError(
                        "placeholder {%s.%s} names an undeclared port"
                        % (space, port), where=where)
                if space == "outputs" and outputs[port].path is None:
                    # Value outputs travel via the manifest, not paths.
                    raise ParseError(
                        "placeholder {outputs.%s} names a value port" % port,
                        where=where)

    return ProcessDef(pid, command, subworkflow, inputs, outputs, env, resources)


def _build_def(data, source) -> WorkflowDef:
    data = _require_map(data, "workflow")
    _check_keys(data, {"formatVersion", "name", "params", "processes",
                       "outputs", "env"}, "workflow")

    version = data.get("formatVersion", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError("unsupported formatVersion %r (expected %d)"
                         % (version, FORMAT_VERSION), where="workflow")

    name = data.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("workflow needs a nonempty name", where="workflow")

    params = {}
    for pname, node in _require_map(data.get("params", {}), "params").items():
        _check_id(pname, "params.%s" % pname)
        params[pname] = _parse_param(pname, node, "params.%s" % pname)

    raw_processes = data.get("processes", [])
    if not isinstance(raw_processes, list):
        raise ParseError("processes must be a list", where="workflow")
    processes = []
    seen = set()
    for i, node in enumerate(raw_processes):
        proc = _parse_process(node, i)
        if proc.id in seen:
            raise ParseError("duplicate process id %r" % proc.id,
                             where="processes[%d]" % i)
        seen.add(proc.id)
        processes.append(proc)

    outputs = {}
    for oname, ref in _require_map(data.get("outputs", {}), "outputs").items():
        _check_id(oname, "outputs.%s" % oname)
        outputs[oname] = _parse_source_ref(ref, "outputs.%s" % oname)

    env = _parse_env(data["env"], "env") if "env" in data else None

    return WorkflowDef(name, params, tuple(processes), outputs, env)


# ---------------------------------------------------------------------------
# serialization

def env_to_data(env: EnvSpec):
    """EnvSpec in its on-disk form (also echoed into provenance)."""
    if env.variant == "none":
        return "none"
    if env.variant == "image":
        return {"image": env.ref}
    if env.variant == "recipe":
        return {"recipe": env.recipe}
    return {"manifest": [{"name": n, "version": v} for n, v in env.packages]}


# ---------------------------------------------------------------------------
# loading and flattening

class WorkflowLoader:
    """Resolves subworkflow references against the including file's directory."""

    def load(self, ref: str, from_dir: str | None):
        """Return (WorkflowDef, canonical key, directory of the file)."""
        path = ref if os.path.isabs(ref) else os.path.join(from_dir or ".", ref)
        path = os.path.abspath(path)
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise FlattenError("subworkflow file not found: %s" % path,
                               "missing-file") from exc
        return parse_workflow(text, source=path), os.path.realpath(path), os.path.dirname(path)


def split_ref(ref: str) -> tuple[str, str]:
    """Split a source reference at its last dot: (head, port).

    Port names contain no dots, so the last dot is unambiguous even for
    namespaced process ids. Param references must be tested with
    param_ref() before splitting: hoisted param names are themselves
    namespaced, so the whole remainder after "params." is the name.
    """
    head, _, port = ref.rpartition(".")
    return head, port


def param_ref(ref: str) -> str | None:
    """The param name when ref targets the param namespace, else None."""
    if ref.startswith("params."):
        return ref[len("params."):]
    return None


def _rebase(path: str, cur_dir: str | None, top_dir: str | None) -> str:
    if os.path.isabs(path):
        return path
    if cur_dir is None:
        return path
    resolved = os.path.abspath(os.path.join(cur_dir, path))
    if top_dir is None:
        return resolved
    return os.path.relpath(resolved, os.path.abspath(top_dir))


def flatten(wf: WorkflowDef, loader: WorkflowLoader | None = None,
            base_dir: str | None = None, source_path: str | None = None) -> FlatWorkflow:
    """Inline every subworkflow process into a single flat namespace.

    Inner process ids gain a `<parent-id>.` prefix. Parent input
    mappings are rewired onto the inner params they map; unmapped inner
    params with defaults are hoisted into the flat param map under
    their namespaced name. Each inlined process keeps its own EnvSpec
    (or its defining workflow's default). Relative file references are
    rebased onto base_dir.
    """
    loader = loader or WorkflowLoader()
    stack = (os.path.realpath(source_path),) if source_path else ()
    processes, params, outputs = _flatten_level(wf, base_dir, base_dir, loader, stack)
    return FlatWorkflow(wf.name, params, tuple(processes), outputs, base_dir)


def _flatten_level(wf, cur_dir, top_dir, loader, stack):
    default_env = wf.env if wf.env is not None else ENV_NONE

    params = {}
    for name, decl in wf.params.items():
        if decl.type.is_artifact and decl.has_default:
            decl = ParamDecl(decl.type, _rebase(decl.default, cur_dir, top_dir))
        params[name] = decl

    processes = []
    sub_outputs: dict[str, dict[str, str]] = {}

    for proc in wf.processes:
        if proc.command is not None:
            env = proc.env if proc.env is not None else default_env
            if env.variant == "recipe":
                env = replace(env, recipe=_rebase(env.recipe, cur_dir, top_dir))
            processes.append(replace(proc, env=env))
            continue

        inner_def, key, inner_dir = loader.load(proc.subworkflow, cur_dir)
        if key in stack:
            chain = " -> ".join(list(stack) + [key])
            raise FlattenError("include cycle: %s" % chain, "include-cycle")
        inner_procs, inner_params, inner_outs = _flatten_level(
            inner_def, inner_dir, top_dir, loader, stack + (key,))

        for port in proc.inputs:
            if port not in inner_params:
                raise FlattenError(
                    "process %r maps %r, which is not a param of %s"
                    % (proc.id, port, proc.subworkflow))
            if not types_compatible(proc.inputs[port].type, inner_params[port].type):
                raise FlattenError(
                    "mapping %s.%s: %s does not match inner param type %s"
                    % (proc.id, port, proc.inputs[port].type.render(),
                       inner_params[port].type.render()))

        # Rewire inner param references: mapped ones onto the parent
        # source, unmapped ones onto a hoisted namespaced param.
        source_map = {}
        for pname, pdecl in inner_params.items():
            if pname in proc.inputs:
                source_map["params." + pname] = proc.inputs[pname].source
            else:
                if not pdecl.has_default:
                    raise FlattenError(
                        "process %r leaves required param %r of %s unmapped"
                        % (proc.id, pname, proc.subworkflow))
                hoisted = "%s.%s" % (proc.id, pname)
                params[hoisted] = pdecl
                source_map["params." + pname] = "params." + hoisted

        for inner in inner_procs:
            new_inputs = {}
            for port, decl in inner.inputs.items():
                src = decl.source
                if src in source_map:
                    src = source_map[src]
                elif param_ref(src) is None:
                    src = "%s.%s" % (proc.id, src)
                new_inputs[port] = InputDecl(decl.type, src)
            processes.append(replace(
                inner, id="%s.%s" % (proc.id, inner.id), inputs=new_inputs))

        sub_outputs[proc.id] = {
            name: "%s.%s" % (proc.id, ref) for name, ref in inner_outs.items()}

    def resolve(ref, context):
        if param_ref(ref) is not None:
            return ref
        head, port = split_ref(ref)
        if head in sub_outputs:
            try:
                return sub_outputs[head][port]
            except KeyError:
                raise FlattenError(
                    "%s references %r, which %s does not export"
                    % (context, ref, head)) from None
        return ref

    resolved = []
    for proc in processes:
        new_inputs = {
            port: InputDecl(decl.type, resolve(decl.source, "process %r" % proc.id))
            for port, decl in proc.inputs.items()}
        resolved.append(replace(proc, inputs=new_inputs))

    outputs = {name: resolve(ref, "workflow output %r" % name)
               for name, ref in wf.outputs.items()}
    return resolved, params, outputs


# ---------------------------------------------------------------------------
# validation

@dataclass
class Finding:
    code: str
    message: str
    where: str = ""

    def __str__(self):
        loc = " (%s)" % self.where if self.where else ""
        return "[%s] %s%s" % (self.code, self.message, loc)


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)
    flat: FlatWorkflow | None = None  # the workflow checked, once flattened

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, code, message, where=""):
        self.findings.append(Finding(code, message, where))

    def render(self) -> str:
        if self.ok:
            return "ok: no findings"
        return "\n".join(str(f) for f in self.findings)


def dependency_edges(fw: FlatWorkflow):
    """(producer, consumer) pairs induced by port wiring."""
    ids = {p.id for p in fw.processes}
    edges = []
    for proc in fw.processes:
        for decl in proc.inputs.values():
            head, _ = split_ref(decl.source)
            if head != "params" and head in ids:
                edges.append((head, proc.id))
    return edges


def find_cycle(fw: FlatWorkflow):
    """Return one dependency cycle as an id list, or None."""
    adjacency: dict[str, list[str]] = {p.id: [] for p in fw.processes}
    for producer, consumer in dependency_edges(fw):
        adjacency[producer].append(consumer)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {pid: WHITE for pid in adjacency}
    for root in sorted(adjacency):
        if color[root] != WHITE:
            continue
        # Depth-first with an explicit stack, so chain depth is not
        # bounded by the interpreter's recursion limit.
        color[root] = GREY
        path = [root]
        pending = [iter(adjacency[root])]
        while pending:
            for nxt in pending[-1]:
                if color[nxt] == GREY:
                    return path[path.index(nxt):] + [nxt]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    pending.append(iter(adjacency[nxt]))
                    break
            else:
                color[path.pop()] = BLACK
                pending.pop()
    return None


def validate(wf: WorkflowDef, base_dir: str | None = None,
             loader: WorkflowLoader | None = None,
             source_path: str | None = None) -> ValidationReport:
    """Static checks over the whole definition tree.

    Success means every reference resolves, the graph is acyclic, all
    connections typecheck, and referenced recipe/subworkflow files
    exist. Structural problems inside subworkflows surface as findings
    rather than exceptions. The report carries the flat workflow it
    checked, unless flattening failed.
    """
    report = ValidationReport()
    try:
        flat = flatten(wf, loader, base_dir, source_path)
    except FlattenError as exc:
        report.add(exc.code, str(exc))
        return report
    except ParseError as exc:
        report.add("parse-error", str(exc))
        return report
    report.flat = flat
    procs = {p.id: p for p in flat.processes}

    def check_ref(ref, consumer_type, where):
        pname = param_ref(ref)
        if pname is not None:
            decl = flat.params.get(pname)
            if decl is None:
                report.add("unresolved-ref", "unknown param %r" % pname, where)
                return
            if consumer_type is not None and not types_compatible(decl.type, consumer_type):
                report.add("type-mismatch",
                           "param %s: %s cannot feed %s"
                           % (pname, decl.type.render(), consumer_type.render()), where)
            return
        head, port = split_ref(ref)
        producer = procs.get(head)
        if producer is None:
            report.add("unresolved-ref", "unknown process %r in %r" % (head, ref), where)
            return
        out = producer.outputs.get(port)
        if out is None:
            report.add("unresolved-ref",
                       "process %r declares no output %r" % (head, port), where)
            return
        if consumer_type is not None and not types_compatible(out.type, consumer_type):
            report.add("type-mismatch",
                       "%s (%s) cannot feed %s (%s)"
                       % (ref, out.type.render(), where, consumer_type.render()), where)

    for proc in flat.processes:
        for port, decl in proc.inputs.items():
            check_ref(decl.source, decl.type, "%s.%s" % (proc.id, port))
        if proc.env and proc.env.variant == "recipe":
            path = proc.env.recipe
            if not os.path.isabs(path):
                path = os.path.join(base_dir or ".", path)
            if not os.path.isfile(path):
                report.add("missing-file", "recipe %s does not exist" % path,
                           proc.id)

    for name, ref in flat.outputs.items():
        head, port = split_ref(ref)
        if head == "params" or head not in procs:
            report.add("unresolved-ref",
                       "workflow output %r references unknown process %r" % (name, head))
        else:
            check_ref(ref, None, "outputs.%s" % name)

    cycle = find_cycle(flat)
    if cycle:
        report.add("cycle", "dependency cycle: %s" % " -> ".join(cycle))

    seen_paths: dict[str, str] = {}
    for proc in flat.processes:
        for port, out in proc.outputs.items():
            if out.path is None:
                continue
            owner = seen_paths.setdefault(out.path, proc.id)
            if owner != proc.id:
                report.add("duplicate-output-path",
                           "path %r declared by both %s and %s"
                           % (out.path, owner, proc.id), proc.id)
    for path, owner in seen_paths.items():
        parts = path.split("/")
        for outer in ("/".join(parts[:n]) for n in range(1, len(parts))):
            if seen_paths.get(outer, owner) != owner:
                report.add("duplicate-output-path", "path %r of %s lies inside "
                           "path %r of %s" % (path, owner, outer, seen_paths[outer]),
                           owner)

    return report
