#!/usr/bin/env python3
"""Benchmark of the flowforge engine, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round makes a fresh workspace, generates the workload's inputs from
the seed, runs the workload's command sequence one command after another
and checks every output. Rounds repeat until --seconds have passed (at
least one round). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, each the median of
its samples, measured on `python -m flowforge` processes. With --trace 1
the same sequence runs in this process through flowforge.cli.main: once
untraced, then once with every layer wrapped, and the metrics are the
per-layer ones (see layers.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from client import CheckFailed, ProcessClient  # noqa: E402
from workloads import WORKLOADS, UsecaseSweep  # noqa: E402

WORK_DIR = ".perfbench_work"
RESULTS_DIR = ".perfbench_results"
# Spare set-ups before each round: at least this many, and for at least
# this long, so that even a set-up of a millisecond gets its median from
# many samples taken at several points of the run.
SPARE_SETUPS = 2
SPARE_SETUP_S = 0.1

END_TO_END = [
    ("setup_s", "s"), ("cold_run_s", "s"), ("noop_rerun_s", "s"),
    ("edit_rerun_s", "s"), ("link_run_s", "s"), ("dry_run_s", "s"),
    ("validate_s", "s"), ("lineage_s", "s"), ("status_s", "s"), ("gc_s", "s"),
    ("peak_rss_mb", "MB"), ("workspace_mb", "MB"),
]


def make_workload(name: str, seed: int, root: str, small: bool = False):
    cls = WORKLOADS[name]
    if cls is UsecaseSweep:
        fixture = os.path.join(root, "src", "flowforge", "fixtures", "usecase")
        return cls(seed, points=2 if small else 5, fixture_dir=fixture)
    if small:
        return cls(seed, **({"width": 10, "depth": 3} if name == "wide-noop"
                            else {"input_mb": 1, "files": 50}))
    return cls(seed)


def timed_setup(workload, inputs_dir: str) -> float:
    os.makedirs(inputs_dir)
    os.sync()  # as before every command: no write-back left from earlier work
    start = time.perf_counter()
    workload.setup(inputs_dir)
    return time.perf_counter() - start


def play(workload, client, work: str, seconds: float, rounds: int | None = None):
    """Run whole rounds until `seconds` have passed, or exactly `rounds`.
    Returns the first failed check, or None when every check passed."""
    deadline = time.monotonic() + seconds
    n = 0
    while True:
        started = time.monotonic()
        spares = 0
        while spares < SPARE_SETUPS or time.monotonic() - started < SPARE_SETUP_S:
            spare = os.path.join(work, "setup-%d" % spares)
            client.samples["setup_s"].append(timed_setup(workload, spare))
            shutil.rmtree(spare)
            spares += 1
        round_dir = os.path.join(work, "round-%d" % n)
        inputs = os.path.join(round_dir, "inputs")
        client.samples["setup_s"].append(timed_setup(workload, inputs))
        try:
            workload.round(client, round_dir, inputs)
        except CheckFailed as exc:
            print("perfbench: check failed: %s" % exc, file=sys.stderr)
            return exc
        finally:
            shutil.rmtree(round_dir, ignore_errors=True)
        n += 1
        print("perfbench: round %d took %.1fs" % (n, time.monotonic() - started),
              file=sys.stderr)
        if rounds is not None:
            if n >= rounds:
                return None
        elif time.monotonic() + (time.monotonic() - started) > deadline:
            return None


def medians(samples: dict) -> dict:
    return {name: statistics.median(values) for name, values in samples.items() if values}


def measure(name: str, seed: int, seconds: float, root: str, work: str,
            small: bool) -> dict:
    workload = make_workload(name, seed, root, small)
    workload.prepare(os.path.join(work, "prepare"))
    client = ProcessClient(root, work)
    correct = play(workload, client, work, seconds) is None
    values = medians(client.samples)
    values["peak_rss_mb"] = client.peak_rss_kb / 1024
    return {"correct": correct, "attempted": client.attempted, "failed": client.failed,
            "metrics": {m: {"value": values.get(m, 0.0), "unit": u} for m, u in END_TO_END}}


def traced(name: str, seed: int, root: str, work: str, small: bool) -> dict:
    """One untraced and one traced in-process round; per-layer metrics."""
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import flowforge.cli  # noqa: F401  (timed: the CLI's import cost)
    import_s = time.perf_counter() - start

    from client import InProcessClient
    from layers import PER_LAYER, Tracer

    workload = make_workload(name, seed, root, small)
    workload.prepare(os.path.join(work, "prepare"))
    plain = InProcessClient(root, work)
    failure = play(workload, plain, work, 0, rounds=1)

    client = InProcessClient(root, work)
    tracer = Tracer(client)
    tracer.install()
    failure = play(workload, client, work, 0, rounds=1) or failure

    values = tracer.metrics()
    values["cli.import_s"] = import_s
    values["trace.overhead_s"] = (statistics.median(client.samples["cold_run_s"])
                                  - statistics.median(plain.samples["cold_run_s"]))
    values["bare.commands_s"] = bare_seconds(workload, work)
    os.makedirs(os.path.join(root, RESULTS_DIR), exist_ok=True)
    tracer.dump(os.path.join(root, RESULTS_DIR, "spans-%s-%d.jsonl" % (name, seed)))
    return {"correct": failure is None,
            "attempted": plain.attempted + client.attempted,
            "failed": plain.failed + client.failed,
            "metrics": {m: {"value": values[m], "unit": u} for m, u in PER_LAYER}}


def bare_seconds(workload, work: str) -> float:
    """The workload's own task commands run directly, without the engine."""
    if isinstance(workload, UsecaseSweep):
        return workload.bare_s
    inputs = os.path.join(work, "bare-inputs")
    bare_dir = os.path.join(work, "bare")
    os.makedirs(inputs)
    os.makedirs(bare_dir)
    workload.setup(inputs)
    return workload.bare(inputs, bare_dir)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs, for perfbench/selftest.py")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "flowforge", "cli.py")):
        print("perfbench: no flowforge sources under %s/src; run from the root "
              "of a flowforge checkout" % root, file=sys.stderr)
        return 2

    work = os.path.join(root, WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        if args.trace:
            result = traced(args.workload, args.seed, root, work, args.small)
        else:
            result = measure(args.workload, args.seed, args.seconds, root, work,
                             args.small)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
