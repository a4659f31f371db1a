"""Each command loads only the engine modules it runs."""

import json
import os
import subprocess
import sys

import pytest

import flowforge
from flowforge import cli as cli_module
from flowforge.scheduler import Policy

from conftest import cli, run_ids

# Runs one command through flowforge.cli.main, then writes the names in
# sys.modules to the file named by its first argument.
PROBE = """
import json, sys
from flowforge import cli
out = sys.argv.pop(1)
code = None
try:
    cli.main(sys.argv[1:], prog_name="flowforge")
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""

ENGINE = {"flowforge.scheduler", "flowforge.planner", "flowforge.executors",
          "concurrent.futures", "yaml"}

ONE_STEP = {
    "name": "one",
    "processes": [{"id": "make", "command": ["sh", "-c", "echo hi > {outputs.o}"],
                   "outputs": {"o": {"type": "file", "path": "o.txt"}}}],
    "outputs": {"o": "make.o"},
}


def loaded(tmp_path, *args):
    """(exit code, loaded module names) of one command in a fresh
    interpreter."""
    out = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out), *map(str, args)],
                          capture_output=True, text=True, timeout=120)
    assert out.exists(), proc.stderr
    data = json.loads(out.read_text())
    return data["code"], set(data["modules"])


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """(workflow path, workspace, run id, output digest) of one finished run."""
    root = tmp_path_factory.mktemp("imports")
    wf = root / "one.wf"
    wf.write_text(json.dumps(ONE_STEP))
    ws = str(root / "ws")
    proc = cli("run", wf, "--workdir", ws)
    assert proc.returncode == 0, proc.stderr
    (rid,) = run_ids(ws)
    with open(os.path.join(ws, "runs", rid, "provenance.json")) as fh:
        digest = json.load(fh)["tasks"][0]["outputs"]["files"]["o"]
    return wf, ws, rid, digest


@pytest.mark.parametrize("command", ["status", "logs", "lineage", "validate"])
def test_read_only_commands_load_no_engine(tmp_path, finished, command):
    wf, ws, rid, digest = finished
    args = {"status": ["status", rid, "--workdir", ws],
            "logs": ["logs", rid, "make", "--workdir", ws],
            "lineage": ["prov", "lineage", digest, "--workdir", ws],
            "validate": ["validate", wf]}[command]
    code, modules = loaded(tmp_path, *args)
    assert code in (None, 0)
    assert modules & ENGINE == set()


def test_status_loads_only_the_journal_reader(tmp_path, finished):
    _, ws, rid, _ = finished
    code, modules = loaded(tmp_path, "status", rid, "--workdir", ws)
    assert code in (None, 0)
    assert {m for m in modules if m.split(".")[0] == "flowforge"} == {
        "flowforge", "flowforge.cli", "flowforge.model", "flowforge.runstate"}


def test_cache_gc_loads_no_scheduler(tmp_path, finished):
    _, ws, _, _ = finished
    code, modules = loaded(tmp_path, "cache", "gc", "--workdir", ws)
    assert code in (None, 0)
    assert modules & {"flowforge.scheduler", "yaml"} == set()


def test_every_export_resolves():
    for name in flowforge.__all__:
        assert getattr(flowforge, name) is not None, name
    from flowforge import Runner, validate
    from flowforge import model, scheduler
    assert Runner is scheduler.Runner and validate is model.validate
    with pytest.raises(AttributeError):
        flowforge.no_such_name


def test_cli_policies_are_the_scheduler_policies():
    assert list(cli_module.POLICIES) == [p.value for p in Policy]


def test_yaml_workflow_validates_through_the_cli(tmp_path):
    wf = tmp_path / "mini.wf"
    wf.write_text("name: mini\n"
                  "processes:\n"
                  "  - id: only\n"
                  "    command: [\"true\"]\n"
                  "    outputs:\n"
                  "      out: {type: file, path: out.txt}\n"
                  "outputs:\n"
                  "  out: only.out\n")
    proc = cli("validate", wf)
    assert proc.returncode == 0, proc.stderr
    assert "ok: mini (1 processes, 0 params)" in proc.stdout
    wf.write_text("name: x\nprocesses:\n  - id: a\n   command: [true]\n")
    proc = cli("validate", wf)
    assert proc.returncode == 2
    assert "mini.wf:4:4: expected <block end>" in proc.stderr
