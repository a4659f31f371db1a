"""flowforge: a workflow management engine for file-and-value task graphs.

Workflows are declared in a small JSON/YAML format with typed process
interfaces, executed with content-addressed caching under three
up-to-dateness policies, on local, batch, or remote backends, with full
run journals and exportable provenance.

The exports other than __version__ load their module on first use
(PEP 562), so a command that reads only a journal does not import the
planner or the scheduler.
"""

from importlib import import_module

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    "EnvSpec": "model",
    "FlatWorkflow": "model",
    "ParseError": "model",
    "Policy": "scheduler",
    "PortType": "model",
    "Runner": "scheduler",
    "RunResult": "scheduler",
    "TaskGraph": "planner",
    "WorkflowDef": "model",
    "WorkflowError": "model",
    "WorkflowLoader": "model",
    "build_graph": "planner",
    "flatten": "model",
    "parse_type": "model",
    "parse_workflow": "model",
    "task_fingerprint": "planner",
    "validate": "model",
    "workflow_digest": "planner",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + _EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
