"""Direct subprocess execution in the task workdir."""

from __future__ import annotations

import os

from . import (Outcome, STDERR_NAME, STDOUT_NAME, TaskSpec, collect_outcome,
               spawn)


class LocalExecutor:
    name = "local"

    def execute(self, spec: TaskSpec) -> Outcome:
        exit_code, error = spawn(spec.full_argv, spec.workdir,
                                 os.path.join(spec.workdir, STDOUT_NAME),
                                 os.path.join(spec.workdir, STDERR_NAME))
        return collect_outcome(spec, exit_code, error)
