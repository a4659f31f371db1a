#!/usr/bin/env python3
"""Self-test of the benchmark, run from the root of a flowforge checkout:

    python3 perfbench/selftest.py

1. Every workload runs one round at a tiny size, timed and traced, with
   all checks on; each must report correct, with the deep-chain
   validate of wide-noop as the only failed operation, and every metric.
2. Each workload runs again against a corrupted expected output, and the
   checks must catch it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from client import ProcessClient  # noqa: E402
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, UsecaseSweep  # noqa: E402

SEED = 7
FAILED = {"wide-noop": 1, "bulk-artifacts": 0, "usecase-sweep": 0}


def run_small(name: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace), "--small"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s"
                             % (name, trace, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(name: str, trace: int, result: dict):
    expected = [m for m, _ in (PER_LAYER if trace else run.END_TO_END)]
    problems = []
    if not result["correct"]:
        problems.append("not correct")
    rounds = 2 if trace else 1  # a traced run plays an untraced round first
    if result["failed"] != FAILED[name] * rounds:
        problems.append("%d failed operations" % result["failed"])
    if sorted(result["metrics"]) != sorted(expected):
        problems.append("metrics differ: %s" % sorted(set(result["metrics"]) ^ set(expected)))
    if problems:
        raise AssertionError("%s trace=%d: %s" % (name, trace, "; ".join(problems)))


def corrupt(workload):
    """Flip one byte in one expected output of the workload."""
    if isinstance(workload, UsecaseSweep):
        paper = workload.reference[workload.points[0], None]
        paper["paper.pdf"] = _flip(paper["paper.pdf"])
        return
    real = workload.expected

    def expected(inputs_dir, edit=None):
        out = {task: dict(ports) for task, ports in real(inputs_dir, edit).items()}
        task, port = workload.sink
        content = out[task][port]
        if isinstance(content, dict):
            first = sorted(content)[0]
            out[task][port] = dict(content, **{first: _flip(content[first])})
        else:
            out[task][port] = _flip(content)
        return out

    workload.expected = expected


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def caught(name: str, root: str) -> bool:
    """Whether the round fails on the corrupted output, and on nothing else."""
    work = os.path.join(root, run.WORK_DIR, "selftest-%s" % name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = run.make_workload(name, SEED, root, small=True)
        workload.prepare(os.path.join(work, "prepare"))
        corrupt(workload)
        failure = run.play(workload, ProcessClient(root, work), work, 0, rounds=1)
        return failure is not None and "differs" in str(failure)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    root = os.getcwd()
    failures = []
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            try:
                check_result(name, trace, run_small(name, trace))
                print("ok    %s trace=%d" % (name, trace))
            except AssertionError as exc:
                failures.append(str(exc))
                print("FAIL  %s" % exc)
        if caught(name, root):
            print("ok    %s: a corrupted expected output is caught" % name)
        else:
            failures.append("%s: corrupted expected output not caught" % name)
            print("FAIL  %s: corrupted expected output not caught" % name)
    try:
        os.rmdir(os.path.join(root, run.WORK_DIR))
    except OSError:
        pass
    print("selftest: %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
