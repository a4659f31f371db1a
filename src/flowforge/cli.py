"""Command-line interface.

Exit codes: 0 when every task ended well (succeeded, cached, or
skipped), 1 when any task failed, was blocked, or was aborted, 2 for
usage and validation problems detected before anything executes.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import __version__
from .model import (
    WorkflowError,
    WorkflowLoader,
    check_value,
    flatten,  # noqa: F401  (validate flattens; perfbench's tracer wraps this name)
    validate,
)

# Each command imports the engine modules it runs where it runs them, so
# that `status` or `validate` does not load the planner and the scheduler.
# The model names above stay here: perfbench's tracer wraps them in this
# module.

PROVIDERS_NAME = os.path.join(".flowforge", "providers.json")

# Rubric self-report: what this engine does, stated as achieved/ceiling
# per requirement, plus the recomputation policies it offers.
CAPABILITIES = [
    ("scheduling", 3, 3),
    ("monitoring", 2, 2),
    ("visualization", 2, 3),
    ("provenance", 2, 2),
    ("environment", 3, 3),
    ("composition", 3, 3),
    ("interfaces", 3, 3),
]
POLICY_LETTERS = "R,L,U"
# scheduler.Policy's values, spelled out so that `run --help` and option
# parsing need not import the scheduler
POLICIES = ("recompute", "link", "update")


class CliError(click.ClickException):
    """Failure before any execution: reported on stderr, exit 2."""

    exit_code = 2


@click.group(name="flowforge")
@click.version_option(__version__, prog_name="flowforge")
def main():
    """Execute, inspect, and visualize typed file-and-value workflows."""


def _load_flat(wf_path: str):
    """Parse + validate, which flattens once, turning every defect into
    exit 2."""
    wf_path = os.path.abspath(wf_path)
    if not os.path.isfile(wf_path):
        raise CliError("no workflow file at %s" % wf_path)
    loader = WorkflowLoader()
    try:
        wf, _, base_dir = loader.load(wf_path, None)
    except WorkflowError as exc:
        raise CliError(str(exc)) from exc
    report = validate(wf, base_dir, loader, wf_path)
    if not report.ok:
        raise CliError("workflow invalid:\n" + report.render())
    return report.flat


def _parse_params(fw, pairs) -> dict:
    values: dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise CliError("--param takes name=value, got %r" % pair)
        name, text = pair.split("=", 1)
        if name not in fw.params:
            raise CliError("unknown param %r; workflow declares: %s"
                           % (name, ", ".join(sorted(fw.params)) or "none"))
        values[name] = _parse_param_value(name, text, fw.params[name].type)
    return values


def _parse_param_value(name: str, text: str, port_type):
    kind = port_type.kind
    if kind in ("file", "directory"):
        return os.path.abspath(text)
    if kind == "string":
        return text
    if kind == "boolean":
        lowered = text.lower()
        if lowered in ("true", "1", "yes"):
            return True
        if lowered in ("false", "0", "no"):
            return False
        raise CliError("param %s: %r is not a boolean" % (name, text))
    if kind == "integer":
        try:
            return int(text, 10)
        except ValueError:
            raise CliError("param %s: %r is not an integer" % (name, text)) from None
    if kind == "float":
        try:
            value = float(text)
        except ValueError:
            raise CliError("param %s: %r is not a float" % (name, text)) from None
        return value
    if kind == "array":
        try:
            value = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError("param %s: %r is not a JSON array" % (name, text)) from exc
        if not check_value(value, port_type):
            raise CliError("param %s: %r does not inhabit %s"
                           % (name, value, port_type.render()))
        return value
    raise CliError("param %s has unsupported kind %s" % (name, kind))


def _providers_for(workspace: str):
    from . import envprov

    path = os.path.join(workspace, PROVIDERS_NAME)
    if os.path.isfile(path):
        try:
            return envprov.ProviderRegistry.from_file(path)
        except (OSError, ValueError, envprov.EnvResolutionError) as exc:
            raise CliError("provider config %s unusable: %s" % (path, exc)) from exc
    return envprov.ProviderRegistry()


def build_graph(fw, params, **kwargs):
    """planner.build_graph, imported on first call; a name of this
    module so that perfbench's tracer can wrap it here."""
    from . import planner

    return planner.build_graph(fw, params, **kwargs)


def _build_graph(fw, params, workspace):
    from .envprov import EnvResolutionError
    from .planner import PlanError

    providers = _providers_for(workspace)
    try:
        return build_graph(fw, params, workspace=workspace, providers=providers)
    except (PlanError, EnvResolutionError) as exc:
        raise CliError(str(exc)) from exc


# ---------------------------------------------------------------------------
# commands

@main.command("validate")
@click.argument("workflow", metavar="WORKFLOW")
def validate_cmd(workflow):
    """Check a workflow file; exit 2 with findings when invalid."""
    fw = _load_flat(workflow)
    click.echo("ok: %s (%d processes, %d params)"
               % (fw.name, len(fw.processes), len(fw.params)))


@main.command()
@click.argument("workflow", metavar="WORKFLOW")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write DOT here instead of stdout.")
def graph(workflow, out):
    """Export the workflow's process graph as GraphViz DOT."""
    from . import provenance

    fw = _load_flat(workflow)
    dot = provenance.export_dot(fw)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(dot)
        click.echo("wrote %s" % out, err=True)
    else:
        click.echo(dot, nl=False)


@main.command()
@click.argument("workflow", metavar="WORKFLOW")
@click.option("--param", "params", multiple=True, metavar="NAME=VALUE",
              help="Set a workflow parameter; repeatable.")
@click.option("--policy", type=click.Choice(POLICIES),
              default="update", show_default=True,
              help="Up-to-dateness policy.")
@click.option("--jobs", type=click.IntRange(min=1), default=None,
              help="Concurrent task bound [default: logical CPUs].")
@click.option("--executor", default="local", show_default=True,
              metavar="local|batch:mock|remote:loopback")
@click.option("--keep-going", is_flag=True,
              help="After a failure, still run tasks not downstream of it.")
@click.option("--workdir", type=click.Path(file_okay=False), default=".",
              show_default=True, help="Workspace directory.")
@click.option("--detach", is_flag=True,
              help="Start the run in the background; print its run id.")
@click.option("--dry-run", is_flag=True,
              help="Print the per-task plan without executing anything.")
def run(workflow, params, policy, jobs, executor, keep_going, workdir,
        detach, dry_run):
    """Execute a workflow."""
    from . import scheduler
    from .planner import workflow_digest

    workspace = os.path.abspath(workdir)
    fw = _load_flat(workflow)
    param_values = _parse_params(fw, params)
    graph = _build_graph(fw, param_values, workspace)
    policy = scheduler.Policy(policy)
    jobs = jobs or os.cpu_count() or 1

    if dry_run:
        from .cache import CacheStore

        cache = CacheStore(os.path.join(workspace, "cache"))
        actions = scheduler.Runner(workspace, cache).plan_preview(graph, policy)
        for tid, action in actions.items():
            click.echo("%-10s %s" % (action.kind, tid))
        return

    meta = {
        "workflow": os.path.abspath(workflow),
        "workflow_digest": workflow_digest(fw),
        "params": _params_for_journal(fw, param_values, graph),
    }

    if detach:
        run_id = scheduler.generate_run_id()
        pid = os.fork()
        if pid > 0:
            click.echo(run_id)
            return
        # Child: own session, quiet stdio; never return into click.
        code = 1
        try:
            os.setsid()
            devnull = os.open(os.devnull, os.O_RDWR)
            for fd in (0, 1, 2):
                os.dup2(devnull, fd)
            code = _do_run(graph, policy, executor, jobs, keep_going,
                           workspace, run_id, meta)
        finally:
            os._exit(code)

    code = _do_run(graph, policy, executor, jobs, keep_going, workspace,
                   None, meta, echo=True)
    if code:
        sys.exit(code)


def _params_for_journal(fw, param_values, graph) -> dict:
    """Journal-friendly param map: files as {path, digest}, values as-is."""
    from .planner import Blob

    merged = dict(param_values)
    for name, decl in fw.params.items():
        if name not in merged and decl.has_default:
            merged[name] = decl.default
    rendered: dict[str, object] = {}
    digests: dict[str, str] = {}
    for task in graph.tasks.values():
        for port, binding in task.input_bindings.items():
            if isinstance(binding, Blob) and binding.source:
                src = task.input_sources.get(port, "")
                if src.startswith("params."):
                    digests[src.split(".", 1)[1]] = binding.digest
    for name, value in merged.items():
        if fw.params[name].type.kind in ("file", "directory"):
            rendered[name] = {"path": str(value), "digest": digests.get(name)}
        else:
            rendered[name] = value
    return rendered


def _do_run(graph, policy, executor_name, jobs, keep_going, workspace,
            run_id, meta, echo=False) -> int:
    from .executors import ExecutorError, make_executor
    from .scheduler import Runner

    try:
        exec_backend = make_executor(executor_name, workspace)
    except ExecutorError as exc:
        raise CliError(str(exc)) from exc
    try:
        runner = Runner(workspace, None, exec_backend, jobs, keep_going)
        result = runner.run(graph, policy, run_id=run_id, meta=meta)
    finally:
        close = getattr(exec_backend, "close", None)
        if close is not None:
            close()
    if echo:
        counts = ", ".join("%s %d" % (state, n)
                           for state, n in sorted(result.counts.items()))
        click.echo("run %s finished: %s (%.1fs)"
                   % (result.run_id, counts, result.wall_seconds))
        for tid in result.tasks_in_state("failed"):
            click.echo("failed: %s (%s)" % (tid, result.states[tid].error or
                                            "exit %s" % result.states[tid].exit_code),
                       err=True)
    return 0 if result.ok else 1


@main.command()
@click.argument("run_id", metavar="RUN-ID")
@click.option("--workdir", type=click.Path(file_okay=False), default=".",
              show_default=True)
def status(run_id, workdir):
    """Show a run's progress, live, finished or crashed."""
    from . import runstate

    run_dir = os.path.join(os.path.abspath(workdir), "runs", run_id)
    try:
        snapshot = runstate.status(run_dir)
    except runstate.NoRunError as exc:
        raise CliError(str(exc)) from exc
    click.echo(snapshot.render())


@main.command()
@click.argument("run_id", metavar="RUN-ID")
@click.argument("task_id", metavar="TASK-ID")
@click.option("--workdir", type=click.Path(file_okay=False), default=".",
              show_default=True)
def logs(run_id, task_id, workdir):
    """Print a task's captured stdout and stderr."""
    task_dir = os.path.join(os.path.abspath(workdir), "runs", run_id,
                            "tasks", task_id)
    if not os.path.isdir(task_dir):
        raise CliError("no logs for task %s in run %s" % (task_id, run_id))
    for name in ("stdout.txt", "stderr.txt"):
        path = os.path.join(task_dir, name)
        click.echo("==> %s <==" % name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8", errors="replace") as fh:
                content = fh.read()
            click.echo(content, nl=False)
            if content and not content.endswith("\n"):
                click.echo()
        else:
            click.echo("(absent)")


@main.group()
def prov():
    """Provenance queries and export."""


@prov.command("export")
@click.argument("run_id", metavar="RUN-ID")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]),
              default="json", show_default=True)
@click.option("--workdir", type=click.Path(file_okay=False), default=".",
              show_default=True)
def prov_export(run_id, fmt, workdir):
    """Print one run's provenance document (or its DOT graph)."""
    from . import provenance, runstate

    runs_dir = os.path.join(os.path.abspath(workdir), "runs")
    try:
        doc = provenance.load_doc(runs_dir, run_id)
    except (OSError, json.JSONDecodeError):
        # No written document (live or interrupted run): derive from the
        # journal so the command still answers.
        journal = os.path.join(runs_dir, run_id, runstate.JOURNAL_NAME)
        try:
            events, _ = runstate.read_events(journal)
        except runstate.NoRunError as exc:
            raise CliError("no run %s under %s" % (run_id, runs_dir)) from exc
        doc = provenance.record(events)
    if fmt == "dot":
        click.echo(provenance.export_dot(doc), nl=False)
    else:
        click.echo(json.dumps(doc.to_data(), indent=2))


@prov.command("lineage")
@click.argument("digest", metavar="DIGEST")
@click.option("--workdir", type=click.Path(file_okay=False), default=".",
              show_default=True)
def prov_lineage(digest, workdir):
    """Upstream closure of the artifact with this sha256 digest."""
    from . import provenance

    digest = digest.lower()
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        raise CliError("%r is not a sha256 hex digest" % digest)
    runs_dir = os.path.join(os.path.abspath(workdir), "runs")
    result = provenance.lineage(runs_dir, digest)
    click.echo(json.dumps(result.to_data(), indent=2))


@main.group()
def cache():
    """Inspect and prune the content-addressed cache."""


@cache.command("ls")
@click.option("--workdir", type=click.Path(file_okay=False), default=".",
              show_default=True)
def cache_ls(workdir):
    """List cached task results."""
    from .cache import CacheStore

    store = CacheStore(os.path.join(os.path.abspath(workdir), "cache"))
    count = 0
    for entry in store.entries():
        count += 1
        click.echo("%s  run=%s  files=%d  values=%d"
                   % (entry.fingerprint, entry.run_id,
                      len(entry.file_outputs), len(entry.value_outputs)))
    if count == 0:
        click.echo("(cache is empty)", err=True)


@cache.command("gc")
@click.option("--keep-run", "keep", multiple=True, metavar="RUN-ID",
              help="Keep entries produced by this run; repeatable. "
                   "Default: every run still present under runs/.")
@click.option("--workdir", type=click.Path(file_okay=False), default=".",
              show_default=True)
def cache_gc(keep, workdir):
    """Drop cache entries from forgotten runs, then blobs that neither a
    kept entry nor a kept run's recorded inputs reference."""
    from . import provenance
    from .cache import CacheStore, GcLockError

    workspace = os.path.abspath(workdir)
    store = CacheStore(os.path.join(workspace, "cache"))
    runs_dir = os.path.join(workspace, "runs")
    if keep:
        keep_runs = set(keep)
    else:
        try:
            keep_runs = {d for d in os.listdir(runs_dir)
                         if os.path.isdir(os.path.join(runs_dir, d))}
        except OSError:
            keep_runs = set()
    inputs = {digest for doc in provenance.iter_docs(runs_dir)
              if doc.run_id in keep_runs
              for rec in doc.records for digest in rec.input_files.values()}
    try:
        report = store.gc(keep_runs, inputs)
    except GcLockError as exc:
        raise CliError(str(exc)) from exc
    click.echo("kept %d entries, %d blobs; removed %d entries, %d blobs"
               % (report.kept_entries, report.kept_blobs,
                  len(report.removed_entries), len(report.removed_blobs)))


@main.command()
def capabilities():
    """Self-report the engine's feature levels."""
    for name, achieved, ceiling in CAPABILITIES:
        click.echo("%s: %d/%d" % (name, achieved, ceiling))
    click.echo("up-to-dateness: %s" % POLICY_LETTERS)
