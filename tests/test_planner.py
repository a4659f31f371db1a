"""Graph building, bindings, placeholder handling, fingerprints."""

import json
import os

import pytest

from flowforge.model import WorkflowLoader, flatten, parse_workflow
from flowforge.planner import (Blob, Literal, Pending, PlanError,
                               UnresolvedBindingError, build_graph,
                               fingerprint_preimage, resolve_argv,
                               task_fingerprint, workflow_digest)
from conftest import USECASE_DIR


def usecase_graph(params=None, wf_name="usecase.wf"):
    path = os.path.join(USECASE_DIR, wf_name)
    with open(path, encoding="utf-8") as fh:
        wf = parse_workflow(fh.read(), source=path)
    flat = flatten(wf, WorkflowLoader(), os.path.dirname(path), path)
    return build_graph(flat, params or {})


def test_usecase_graph_shape():
    graph = usecase_graph()
    assert sorted(graph.tasks) == [
        "convert", "macros", "mesh", "paper", "postproc", "simulate"]
    assert set(graph.edges) == {
        ("mesh", "convert"), ("convert", "simulate"),
        ("simulate", "postproc"), ("simulate", "macros"),
        ("postproc", "paper"), ("macros", "paper")}
    assert graph.sinks == {"paper": ("paper", "paper")}


def test_topo_order_is_linear_extension():
    graph = usecase_graph()
    order = graph.topo_order()
    pos = {tid: i for i, tid in enumerate(order)}
    for producer, consumer in graph.edges:
        assert pos[producer] < pos[consumer]


def test_param_bindings():
    graph = usecase_graph({"domain_size": 2.0})
    mesh = graph.tasks["mesh"]
    assert mesh.input_bindings["size"] == Literal(2.0)
    tool = mesh.input_bindings["tool"]
    assert isinstance(tool, Blob)
    assert tool.source and os.path.isfile(tool.source)
    assert len(tool.digest) == 64


def test_inter_task_bindings_stay_pending():
    graph = usecase_graph()
    conv = graph.tasks["convert"]
    assert conv.input_bindings["mesh"] == Pending("mesh", "mesh")
    assert graph.tasks["macros"].input_bindings["num_dofs"] == Pending(
        "simulate", "num_dofs")


def test_placeholders_survive_into_preimage():
    graph = usecase_graph({"domain_size": 2.0})
    argv = fingerprint_preimage(graph.tasks["mesh"])["argv"]
    assert "{inputs.tool}" in argv and "{inputs.size}" in argv
    assert "{outputs.mesh}" in argv


def test_resolve_argv_substitutes():
    graph = usecase_graph({"domain_size": 2.0})
    mesh = graph.tasks["mesh"]
    argv = resolve_argv(mesh, {"tool": "inputs/tool/mesh.py"})
    assert list(argv) == ["python3", "inputs/tool/mesh.py", "--size", "2.0",
                          "--out", "mesh.msh"]


def test_unknown_param_rejected():
    with pytest.raises(PlanError) as err:
        usecase_graph({"bogus": 1})
    assert "bogus" in str(err.value)


def test_param_type_enforced():
    with pytest.raises(PlanError):
        usecase_graph({"domain_size": 2})  # integer cannot feed a float param


def test_missing_required_param(tmp_path):
    wf = parse_workflow(json.dumps({
        "name": "req",
        "params": {"must": {"type": "string"}},
        "processes": [{"id": "p", "command": ["echo", "{inputs.x}"],
                       "inputs": {"x": {"type": "string", "from": "params.must"}},
                       "outputs": {"o": {"type": "file", "path": "o.txt"}}}],
        "outputs": {"o": "p.o"}}))
    flat = flatten(wf, base_dir=str(tmp_path))
    with pytest.raises(PlanError) as err:
        build_graph(flat, {})
    assert "must" in str(err.value)
    build_graph(flat, {"must": "given"})  # satisfied


def test_missing_param_file(tmp_path):
    wf = parse_workflow(json.dumps({
        "name": "f",
        "params": {"data": {"type": "file"}},
        "processes": [{"id": "p", "command": ["cat", "{inputs.d}"],
                       "inputs": {"d": {"type": "file", "from": "params.data"}},
                       "outputs": {"o": {"type": "file", "path": "o.txt"}}}]}))
    flat = flatten(wf, base_dir=str(tmp_path))
    with pytest.raises(PlanError):
        build_graph(flat, {"data": str(tmp_path / "absent.bin")})


def test_dotted_param_resolution_in_composition():
    graph = usecase_graph(wf_name="usecase_sub.wf")
    mesh = graph.tasks["meshing.mesh"]
    assert isinstance(mesh.input_bindings["tool"], Blob)
    assert mesh.input_sources["tool"] == "params.meshing.mesh_tool"
    # the composed graph is wired as the flat one, with namespaced ids
    rename = {"mesh": "meshing.mesh", "convert": "meshing.convert"}
    assert sorted(graph.edges) == sorted(
        (rename.get(p, p), rename.get(c, c)) for p, c in usecase_graph().edges)


def test_distinct_env_fingerprints_per_task():
    graph = usecase_graph()
    fps = {t.env_fingerprint for t in graph.tasks.values()}
    assert len(fps) == 6


# -- fingerprint sensitivity ---------------------------------------------------

def test_fingerprint_deterministic():
    a = usecase_graph({"domain_size": 2.0})
    b = usecase_graph({"domain_size": 2.0})
    assert task_fingerprint(a.tasks["mesh"]) == task_fingerprint(b.tasks["mesh"])


def test_fingerprint_sensitive_to_params():
    a = usecase_graph({"domain_size": 2.0})
    b = usecase_graph({"domain_size": 3.0})
    assert task_fingerprint(a.tasks["mesh"]) != task_fingerprint(b.tasks["mesh"])
    # convert has no value inputs; its fingerprint only moves once the
    # upstream artifact digest does, which is unknowable before running
    with pytest.raises(UnresolvedBindingError):
        task_fingerprint(a.tasks["convert"])


def test_fingerprint_sensitive_to_each_field():
    from dataclasses import replace
    base = usecase_graph({"domain_size": 2.0}).tasks["mesh"]
    fp = task_fingerprint(base)
    assert task_fingerprint(replace(base, argv=base.argv + ("-v",))) != fp
    assert task_fingerprint(replace(base, env_fingerprint="0" * 64)) != fp
    rebound = dict(base.input_bindings, size=Literal(2.5))
    assert task_fingerprint(replace(base, input_bindings=rebound)) != fp
    # task identity does not enter the fingerprint: equal work, equal key
    assert task_fingerprint(replace(base, id="renamed")) == fp


def test_workflow_digest_stability():
    path = os.path.join(USECASE_DIR, "usecase.wf")
    with open(path, encoding="utf-8") as fh:
        wf = parse_workflow(fh.read(), source=path)
    flat = flatten(wf, WorkflowLoader(), os.path.dirname(path), path)
    d1 = workflow_digest(flat)
    d2 = workflow_digest(flat)
    assert d1 == d2 and len(d1) == 64
