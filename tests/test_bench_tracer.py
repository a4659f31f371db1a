"""The benchmark's per-layer tracer must still find every name it wraps."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_the_current_engine(tmp_path):
    # -B: leave no bytecode behind in perfbench/
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-B", "-c",
         "from layers import Tracer; Tracer(client=None).install()"],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
