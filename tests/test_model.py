"""Workflow parsing, typing, flattening, validation."""

import json
import os
import re
import time
from dataclasses import replace

import pytest

from flowforge.model import (ID_RE, EnvSpec, FlattenError, ParseError,
                             WorkflowLoader, check_value, flatten, param_ref,
                             parse_type, parse_workflow, render_value_text,
                             split_ref, types_compatible, validate)
from conftest import NEGATIVE_DIR, USECASE_DIR

FORMAT_DOC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                          "docs", "workflow-format.md")


def load_usecase():
    path = os.path.join(USECASE_DIR, "usecase.wf")
    with open(path, encoding="utf-8") as fh:
        return parse_workflow(fh.read(), source=path), path


# -- types ------------------------------------------------------------------

def test_parse_type_scalars():
    for kind in ("string", "integer", "float", "boolean", "file", "directory"):
        assert parse_type(kind).kind == kind
    t = parse_type("array[integer]")
    assert t.kind == "array" and t.element.kind == "integer"
    assert t.render() == "array[integer]"


def test_format_is_separate_and_file_only():
    iri = "https://example.org/formats/msh"
    t = parse_type("file", iri)
    assert t.format == iri
    assert t.render() == "file{%s}" % iri
    with pytest.raises(ParseError):
        parse_type("integer", iri)
    with pytest.raises(ParseError):
        parse_type("array[integer]", iri)
    with pytest.raises(ParseError):
        parse_type("file{%s}" % iri)  # never embedded in the type string


def test_array_elements_are_value_kinds_only():
    with pytest.raises(ParseError):
        parse_type("array[file]")
    with pytest.raises(ParseError):
        parse_type("array[array]")


def test_types_compatible_no_promotion():
    assert not types_compatible(parse_type("integer"), parse_type("float"))
    assert not types_compatible(parse_type("float"), parse_type("integer"))
    assert types_compatible(parse_type("integer"), parse_type("integer"))


def test_types_compatible_format_rules():
    a = "https://example.org/formats/a"
    b = "https://example.org/formats/b"
    assert types_compatible(parse_type("file", a), parse_type("file"))
    assert types_compatible(parse_type("file", a), parse_type("file", a))
    assert not types_compatible(parse_type("file", a), parse_type("file", b))
    # A producer without a format cannot satisfy a consumer demanding one.
    assert not types_compatible(parse_type("file"), parse_type("file", a))


def test_check_value_strictness():
    assert check_value(3, parse_type("integer"))
    assert not check_value(True, parse_type("integer"))
    assert not check_value(3, parse_type("float"))
    assert check_value(3.0, parse_type("float"))
    assert not check_value(float("nan"), parse_type("float"))
    assert check_value([1, 2], parse_type("array[integer]"))
    assert not check_value([1, 2.0], parse_type("array[integer]"))


def test_render_value_text():
    assert render_value_text(True, parse_type("boolean")) == "true"
    assert render_value_text(2.0, parse_type("float")) == "2.0"
    assert render_value_text(9, parse_type("integer")) == "9"
    assert render_value_text([1, 2], parse_type("array[integer]")) == "[1,2]"
    assert render_value_text(["a,b"], parse_type("array[string]")) == '["a,b"]'


def test_ref_helpers():
    assert param_ref("params.x") == "x"
    assert param_ref("params.meshing.mesh_tool") == "meshing.mesh_tool"
    assert param_ref("proc.port") is None
    assert split_ref("meshing.mesh.out") == ("meshing.mesh", "out")


# -- parsing ----------------------------------------------------------------

def test_parse_usecase_structure():
    wf, _ = load_usecase()
    assert wf.name == "usecase"
    assert [p.id for p in wf.processes] == [
        "mesh", "convert", "simulate", "postproc", "macros", "paper"]
    sim = wf.processes[2]
    assert sim.outputs["num_dofs"].type.kind == "integer"
    assert sim.outputs["num_dofs"].path is None
    assert sim.outputs["result"].path == "result.vtk"
    assert sim.env.variant == "manifest"
    assert wf.outputs == {"paper": "paper.paper"}


def test_parse_yaml_document():
    text = """
name: mini
processes:
  - id: only
    command: ["true"]
    outputs:
      out: {type: file, path: out.txt}
outputs:
  out: only.out
"""
    wf = parse_workflow(text)
    assert wf.processes[0].id == "only"
    assert wf.processes[0].outputs["out"].path == "out.txt"


def test_the_documented_identifier_rule_is_the_code_rule():
    with open(FORMAT_DOC, encoding="utf-8") as fh:
        rule = re.search(r"identifiers \(([^)]*)\)\s+match `([^`]+)`", fh.read(),
                         re.I)
    assert "workflow name" not in rule.group(1)
    assert rule.group(2) == ID_RE.pattern
    wf = parse_workflow(json.dumps({
        "name": "x y",
        "processes": [{"id": "9-a", "command": ["true"],
                       "outputs": {"o": {"type": "file", "path": "o.txt"}}}]}))
    assert (wf.name, wf.processes[0].id) == ("x y", "9-a")
    with pytest.raises(ParseError, match=re.escape(ID_RE.pattern)):
        parse_workflow(json.dumps({
            "name": "w", "processes": [{"id": "a.b", "command": ["true"]}]}))


@pytest.mark.parametrize("mutate,message", [
    (lambda d: d.update(formatVersion=2), "formatVersion"),
    (lambda d: d.update(bogus=1), "unknown"),
    (lambda d: d.pop("name"), "name"),
    (lambda d: d["processes"][0].pop("id"), "id"),
    (lambda d: d["processes"][0].update(subworkflow="x.wf"), "exactly one"),
    (lambda d: d["processes"][0].update(command=[]), "nonempty"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].pop("path"), "path"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path="../up"),
     "inside the workspace"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path="/abs"),
     "inside the workspace"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path="./cache"),
     "outside the engine's state"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path="runs/r1/m"),
     "outside the engine's state"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path=".flowforge/stamps/a"),
     "outside the engine's state"),
    # a task's sandbox: its staged inputs, its streams, the transfer log
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path="inputs/mesh"),
     "outside the engine's state"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path="stdout.txt"),
     "outside the engine's state"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path="./stderr.txt"),
     "outside the engine's state"),
    (lambda d: d["processes"][0]["outputs"]["mesh"].update(path="transfer.json"),
     "outside the engine's state"),
    (lambda d: d["processes"][0]["inputs"]["size"].pop("from"), "from"),
    (lambda d: d["processes"][0]["command"].append("{inputs.nope}"),
     "undeclared"),
    (lambda d: d["processes"][2]["command"].append("{outputs.num_dofs}"),
     "value port"),
])
def test_parse_rejections(mutate, message):
    with open(os.path.join(USECASE_DIR, "usecase.wf"), encoding="utf-8") as fh:
        doc = json.load(fh)
    mutate(doc)
    with pytest.raises(ParseError) as err:
        parse_workflow(json.dumps(doc))
    assert message in str(err.value)


def test_duplicate_process_id_rejected():
    text = json.dumps({
        "name": "dup",
        "processes": [
            {"id": "step", "command": ["true"],
             "outputs": {"o": {"type": "file", "path": "a.txt"}}},
            {"id": "step", "command": ["true"],
             "outputs": {"o": {"type": "file", "path": "b.txt"}}},
        ],
    })
    with pytest.raises(ParseError) as err:
        parse_workflow(text)
    assert "duplicate process id" in str(err.value)


def test_nonfinite_numbers_rejected():
    text = '{"name": "x", "processes": [], "params": {"p": {"type": "float", "default": NaN}}}'
    with pytest.raises(ParseError):
        parse_workflow(text)


def test_syntax_error_carries_location():
    # unterminated flow mapping: invalid as JSON and as YAML
    with pytest.raises(ParseError) as err:
        parse_workflow('{"name": "x"', source="bad.wf")
    assert err.value.source == "bad.wf"
    assert err.value.line is not None


def test_env_forms():
    wf = parse_workflow(json.dumps({
        "name": "envs",
        "env": {"manifest": [{"name": "p", "version": "1"}]},
        "processes": [
            {"id": "a", "command": ["true"], "env": "none"},
            {"id": "b", "command": ["true"],
             "env": {"image": "reg.example.org/img:1"}},
            {"id": "c", "command": ["true"], "env": {"recipe": "env.def"}},
            {"id": "d", "command": ["true"]},
        ],
    }))
    assert wf.processes[0].env == EnvSpec("none")
    assert wf.processes[1].env.variant == "image"
    assert wf.processes[2].env.recipe == "env.def"
    assert wf.processes[3].env is None  # inherits at flatten time
    assert wf.env.variant == "manifest"


# -- flattening ---------------------------------------------------------------

def test_flatten_flat_workflow_is_identity_like():
    wf, path = load_usecase()
    flat = flatten(wf, base_dir=os.path.dirname(path))
    assert [p.id for p in flat.processes] == [p.id for p in wf.processes]
    # every process now carries an explicit environment
    assert all(p.env is not None for p in flat.processes)


def test_flatten_composition():
    path = os.path.join(USECASE_DIR, "usecase_sub.wf")
    with open(path, encoding="utf-8") as fh:
        wf = parse_workflow(fh.read(), source=path)
    flat = flatten(wf, WorkflowLoader(), os.path.dirname(path), path)
    ids = [p.id for p in flat.processes]
    assert "meshing.mesh" in ids and "meshing.convert" in ids
    assert "simulate" in ids
    # unmapped inner params with defaults are hoisted under dotted names
    assert "meshing.mesh_tool" in flat.params
    assert "meshing.convert_tool" in flat.params
    # the mapped param rewires onto the parent source
    mesh = next(p for p in flat.processes if p.id == "meshing.mesh")
    assert mesh.inputs["size"].source == "params.domain_size"
    assert mesh.inputs["tool"].source == "params.meshing.mesh_tool"
    # references to inner outputs resolve through the namespace
    sim = next(p for p in flat.processes if p.id == "simulate")
    assert sim.inputs["mesh"].source == "meshing.convert.converted"


def test_flatten_include_cycle_detected(tmp_path):
    a = tmp_path / "a.wf"
    b = tmp_path / "b.wf"
    a.write_text(json.dumps({
        "name": "a",
        "processes": [{"id": "inb", "subworkflow": "b.wf", "inputs": {}}]}))
    b.write_text(json.dumps({
        "name": "b",
        "processes": [{"id": "ina", "subworkflow": "a.wf", "inputs": {}}]}))
    wf = parse_workflow(a.read_text(), source=str(a))
    with pytest.raises(FlattenError) as err:
        flatten(wf, WorkflowLoader(), str(tmp_path), str(a))
    assert "include cycle" in str(err.value)


def test_flatten_unmapped_required_param(tmp_path):
    inner = tmp_path / "inner.wf"
    inner.write_text(json.dumps({
        "name": "inner",
        "params": {"need": {"type": "string"}},
        "processes": [{"id": "p", "command": ["true"],
                       "inputs": {"x": {"type": "string", "from": "params.need"}},
                       "outputs": {"o": {"type": "file", "path": "o.txt"}}}],
        "outputs": {"o": "p.o"}}))
    outer = parse_workflow(json.dumps({
        "name": "outer",
        "processes": [{"id": "sub", "subworkflow": "inner.wf", "inputs": {}}]}))
    with pytest.raises(FlattenError) as err:
        flatten(outer, WorkflowLoader(), str(tmp_path))
    assert "required param" in str(err.value)


def test_flatten_mapping_type_mismatch(tmp_path):
    inner = tmp_path / "inner.wf"
    inner.write_text(json.dumps({
        "name": "inner",
        "params": {"n": {"type": "integer", "default": 1}},
        "processes": [{"id": "p", "command": ["true"],
                       "outputs": {"o": {"type": "file", "path": "o.txt"}}}],
        "outputs": {"o": "p.o"}}))
    outer = parse_workflow(json.dumps({
        "name": "outer",
        "params": {"x": {"type": "float", "default": 1.0}},
        "processes": [{"id": "sub", "subworkflow": "inner.wf",
                       "inputs": {"n": {"type": "float", "from": "params.x"}}}]}))
    with pytest.raises(FlattenError) as err:
        flatten(outer, WorkflowLoader(), str(tmp_path))
    assert "does not match inner param type" in str(err.value)


@pytest.mark.parametrize("subdir", ["not found", "include cycle"])
def test_a_mapping_error_is_a_mapping_mismatch_whatever_the_path(tmp_path, subdir):
    inner = tmp_path / subdir / "sub.wf"
    inner.parent.mkdir()
    inner.write_text(json.dumps({
        "name": "sub",
        "processes": [{"id": "p", "command": ["true"],
                       "outputs": {"o": {"type": "file", "path": "o.txt"}}}]}))
    outer = parse_workflow(json.dumps({
        "name": "outer",
        "params": {"x": {"type": "string", "default": "v"}},
        "processes": [{"id": "m", "subworkflow": subdir + "/sub.wf",
                       "inputs": {"zz": {"type": "string", "from": "params.x"}}}]}))
    report = validate(outer, str(tmp_path))
    assert [f.code for f in report.findings] == ["mapping-mismatch"]
    assert "'zz', which is not a param of" in report.findings[0].message


def test_validate_files_missing_and_cyclic_subworkflows(tmp_path):
    missing = parse_workflow(json.dumps({
        "name": "outer",
        "processes": [{"id": "m", "subworkflow": "gone.wf", "inputs": {}}]}))
    assert [f.code for f in validate(missing, str(tmp_path)).findings] == ["missing-file"]
    a = tmp_path / "a.wf"
    a.write_text(json.dumps({
        "name": "a",
        "processes": [{"id": "self", "subworkflow": "a.wf", "inputs": {}}]}))
    cyclic = parse_workflow(a.read_text(), source=str(a))
    report = validate(cyclic, str(tmp_path), source_path=str(a))
    assert [f.code for f in report.findings] == ["include-cycle"]


# -- validation ----------------------------------------------------------------

def read_negative(name):
    path = os.path.join(NEGATIVE_DIR, name)
    with open(path, encoding="utf-8") as fh:
        return parse_workflow(fh.read(), source=path)


def codes(report):
    return {f.code for f in report.findings}


def test_validate_usecase_clean():
    wf, path = load_usecase()
    report = validate(wf, os.path.dirname(path), source_path=path)
    assert report.ok, report.render()


def test_validate_cycle():
    report = validate(read_negative("cycle.wf"), NEGATIVE_DIR)
    assert "cycle" in codes(report)
    assert [f.message for f in report.findings if f.code == "cycle"] == [
        "dependency cycle: ping -> pong -> ping"]


def recursive_find_cycle(adjacency):
    """Reference: the recursive depth-first search find_cycle unrolls."""
    color = {pid: 0 for pid in adjacency}
    stack = []

    def visit(node):
        color[node] = 1
        stack.append(node)
        for nxt in adjacency[node]:
            if color[nxt] == 1:
                return stack[stack.index(nxt):] + [nxt]
            if color[nxt] == 0:
                cycle = visit(nxt)
                if cycle:
                    return cycle
        stack.pop()
        color[node] = 2
        return None

    for pid in sorted(adjacency):
        if color[pid] == 0:
            cycle = visit(pid)
            if cycle:
                return cycle
    return None


def wired(edges, nodes):
    """A flat workflow whose dependency edges are exactly `edges`."""
    procs = []
    for node in nodes:
        sources = sorted(p for p, c in edges if c == node)
        procs.append({
            "id": node,
            "command": ["true"],
            "inputs": {"i%d" % k: {"type": "file", "from": "%s.o" % src}
                       for k, src in enumerate(sources)},
            "outputs": {"o": {"type": "file", "path": "%s.txt" % node}}})
    doc = {"name": "wired", "processes": procs,
           "outputs": {"o": "%s.o" % nodes[0]}}
    return flatten(parse_workflow(json.dumps(doc)), WorkflowLoader(), ".")


def test_find_cycle_matches_recursive_reference():
    import random

    from flowforge.model import dependency_edges, find_cycle

    rng = random.Random(7)
    for _ in range(200):
        nodes = ["n%d" % i for i in range(rng.randint(1, 7))]
        edges = {(a, b) for a in nodes for b in nodes
                 if a != b and rng.random() < 0.25}
        fw = wired(edges, nodes)
        adjacency = {p.id: [] for p in fw.processes}
        for producer, consumer in dependency_edges(fw):
            adjacency[producer].append(consumer)
        assert find_cycle(fw) == recursive_find_cycle(adjacency)


def test_validate_deep_chain():
    n = 5000
    edges = {("c%04d" % i, "c%04d" % (i + 1)) for i in range(n - 1)}
    nodes = ["c%04d" % i for i in range(n)]
    from flowforge.model import find_cycle

    assert find_cycle(wired(edges, nodes)) is None
    assert find_cycle(wired(edges | {(nodes[-1], nodes[0])}, nodes)) == \
        nodes + [nodes[0]]


def test_validate_is_linear_in_chain_length():
    n = 20000
    procs = [{"id": "c%05d" % i, "command": ["true"],
              "inputs": {"x": {"type": "file", "from": "c%05d.o" % (i - 1)}},
              "outputs": {"o": {"type": "file", "path": "c%05d.txt" % i}}}
             for i in range(n)]
    del procs[0]["inputs"]
    wf = parse_workflow(json.dumps({"name": "chain", "processes": procs}))
    started = time.perf_counter()
    report = validate(wf)
    elapsed = time.perf_counter() - started
    assert report.ok and len(report.flat.processes) == n
    # 0.6 s on 2 CPUs; a linear scan per reference took 11 s there
    assert elapsed < 3.0, elapsed


def test_validate_dangling_ref():
    report = validate(read_negative("dangling.wf"), NEGATIVE_DIR)
    assert "unresolved-ref" in codes(report)


def test_validate_value_type_mismatch():
    report = validate(read_negative("mismatch_value.wf"), NEGATIVE_DIR)
    assert "type-mismatch" in codes(report)


def test_validate_format_mismatch():
    report = validate(read_negative("mismatch_format.wf"), NEGATIVE_DIR)
    assert "type-mismatch" in codes(report)


def test_validate_duplicate_output_path():
    wf = parse_workflow(json.dumps({
        "name": "clash",
        "processes": [
            {"id": "a", "command": ["true"],
             "outputs": {"o": {"type": "file", "path": "same.txt"}}},
            {"id": "b", "command": ["true"],
             "outputs": {"o": {"type": "file", "path": "same.txt"}}},
        ]}))
    report = validate(wf)
    assert "duplicate-output-path" in codes(report)


@pytest.mark.parametrize("order", ["outer first", "inner first"])
def test_validate_output_path_inside_another_process_output(order):
    """No task places a file inside another task's output, whichever
    process is declared first; one process may nest its own outputs."""
    wf = read_negative("nested_output.wf")
    if order == "inner first":
        wf = replace(wf, processes=wf.processes[::-1])
    report = validate(wf, NEGATIVE_DIR)
    assert [(f.code, f.where) for f in report.findings] == [
        ("duplicate-output-path", "b")], report.render()
    own = parse_workflow(json.dumps({
        "name": "own",
        "processes": [{"id": "a", "command": ["true"], "outputs": {
            "d": {"type": "directory", "path": "d"},
            "x": {"type": "file", "path": "d/x.txt"},
            "y": {"type": "file", "path": "dx.txt"}}}]}))
    assert validate(own).ok


def test_validate_missing_recipe(tmp_path):
    wf = parse_workflow(json.dumps({
        "name": "r",
        "processes": [{"id": "a", "command": ["true"],
                       "env": {"recipe": "nowhere.def"},
                       "outputs": {"o": {"type": "file", "path": "o.txt"}}}]}))
    report = validate(wf, str(tmp_path))
    assert "missing-file" in codes(report)
