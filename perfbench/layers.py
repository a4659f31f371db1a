"""Per-layer tracing of an in-process flowforge run.

The layers are flowforge's modules. Tracer.install() replaces the public
functions of each layer with wrappers that record one span per call:
name, start, end, parent span and the end-to-end metric whose command
was running. Spans stay in memory until the run ends. Names that a
module binds with `from ... import` are wrapped in the module that looks
them up, or their calls would go unseen.

Nothing under src/ changes: the wrappers are set from outside, in this
process only.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict

# (metric, unit); every metric is lower-is-better. Times are summed
# inclusive span durations over one traced round of the workload.
PER_LAYER = [
    ("cli.import_s", "s"),
    ("model.load_s", "s"), ("model.validate_s", "s"), ("model.flatten_s", "s"),
    ("planner.build_graph_s", "s"), ("planner.fingerprint_calls", "count"),
    ("planner.fingerprint_s", "s"), ("planner.fingerprints_per_task", "ratio"),
    ("planner.topo_order_s", "s"),
    ("scheduler.self_s", "s"), ("scheduler.wait_s", "s"),
    ("scheduler.decide_calls", "count"), ("scheduler.stamp_io_s", "s"),
    ("scheduler.plan_preview_s", "s"),
    ("executors.execute_calls", "count"), ("executors.execute_s", "s"),
    ("executors.collect_s", "s"), ("executors.batch_polls", "count"),
    ("canon.file_digest_calls", "count"), ("canon.bytes_hashed", "B"),
    ("canon.hash_passes", "ratio"), ("canon.file_digest_s", "s"),
    ("canon.tree_manifest_s", "s"), ("canon.decode_s", "s"),
    ("cache.put_blob_calls", "count"), ("cache.put_blob_s", "s"),
    ("cache.put_tree_s", "s"), ("cache.materialize_calls", "count"),
    ("cache.materialize_s", "s"), ("cache.get_entry_calls", "count"),
    ("cache.get_entry_s", "s"), ("cache.get_entry_per_link", "ratio"),
    ("cache.put_entry_s", "s"), ("cache.gc_s", "s"),
    ("runstate.append_calls", "count"), ("runstate.append_s", "s"),
    ("runstate.read_events_s", "s"), ("runstate.status_s", "s"),
    ("provenance.record_s", "s"), ("provenance.write_doc_s", "s"),
    ("provenance.update_index_s", "s"), ("provenance.docs_loaded", "count"),
    ("provenance.lineage_s", "s"),
    ("bare.commands_s", "s"), ("trace.overhead_s", "s"),
]

# metric -> span names whose summed time it reports
TIMES = {
    "model.load_s": ["model.load"],
    "model.validate_s": ["model.validate"],
    "model.flatten_s": ["model.flatten"],
    "planner.build_graph_s": ["planner.build_graph"],
    "planner.fingerprint_s": ["planner.fingerprint"],
    "planner.topo_order_s": ["planner.topo_order"],
    "scheduler.wait_s": ["scheduler.wait"],
    "scheduler.stamp_io_s": ["scheduler.read_stamp", "scheduler.write_stamp"],
    "scheduler.plan_preview_s": ["scheduler.plan_preview"],
    "executors.execute_s": ["executors.execute"],
    "executors.collect_s": ["executors.collect"],
    "canon.file_digest_s": ["canon.file_digest"],
    "canon.tree_manifest_s": ["canon.tree_manifest"],
    "canon.decode_s": ["canon.decode"],
    "cache.put_blob_s": ["cache.put_blob"],
    "cache.put_tree_s": ["cache.put_tree"],
    "cache.materialize_s": ["cache.materialize_blob", "cache.materialize_tree"],
    "cache.get_entry_s": ["cache.get_entry"],
    "cache.put_entry_s": ["cache.put_entry"],
    "cache.gc_s": ["cache.gc"],
    "runstate.append_s": ["runstate.append"],
    "runstate.read_events_s": ["runstate.read_events"],
    "runstate.status_s": ["runstate.status"],
    "provenance.record_s": ["provenance.record"],
    "provenance.write_doc_s": ["provenance.write_doc"],
    "provenance.update_index_s": ["provenance.update_index"],
    "provenance.lineage_s": ["provenance.lineage"],
}
# metric -> span name whose calls it counts
CALLS = {
    "planner.fingerprint_calls": "planner.fingerprint",
    "scheduler.decide_calls": "scheduler.decide",
    "executors.execute_calls": "executors.execute",
    "executors.batch_polls": "executors.batch_poll",
    "canon.file_digest_calls": "canon.file_digest",
    "cache.put_blob_calls": "cache.put_blob",
    "cache.materialize_calls": "cache.materialize_blob",
    "cache.get_entry_calls": "cache.get_entry",
    "runstate.append_calls": "runstate.append",
    "provenance.docs_loaded": "provenance.load_doc",
}


def _tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Tracer:
    def __init__(self, client):
        self.client = client  # its .label names the running command's metric
        self.spans: list[tuple] = []  # (id, name, start, end, parent, label)
        self.counters: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._run_span = None  # worker-thread spans hang under Runner.run

    def wrap(self, owner, attr: str, name: str, after=None, run_span=False):
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else tracer._run_span
            span = next(tracer._ids)
            stack.append(span)
            if run_span:
                tracer._run_span = span
            start = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if run_span:
                    tracer._run_span = None
                tracer.spans.append((span, name, start, end, parent, tracer.client.label))
            if after is not None:
                after(tracer.counters, args, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        from flowforge import (cache, canon, cli, model, planner, provenance,
                               runstate, scheduler)
        from flowforge import executors
        from flowforge.executors import batch, local

        w = self.wrap
        w(model.WorkflowLoader, "load", "model.load")
        for mod in (model, cli):
            w(mod, "validate", "model.validate")
            w(mod, "flatten", "model.flatten")

        w(cli, "build_graph", "planner.build_graph", after=_count_planned)
        for mod in (planner, scheduler):
            w(mod, "task_fingerprint", "planner.fingerprint")
        w(planner.TaskGraph, "topo_order", "planner.topo_order")
        w(planner, "digest_artifact", "planner.digest_artifact", after=_count_ingested)

        w(scheduler.Runner, "run", "scheduler.run", run_span=True)
        w(scheduler.Runner, "plan_preview", "scheduler.plan_preview")
        w(scheduler.Runner, "_execute_task", "scheduler.execute_task")
        w(scheduler.Runner, "_link_outputs", "scheduler.link_outputs")
        w(scheduler, "wait", "scheduler.wait")
        w(scheduler, "decide_action", "scheduler.decide")
        w(scheduler, "read_stamp", "scheduler.read_stamp")
        w(scheduler, "write_stamp", "scheduler.write_stamp")

        w(local.LocalExecutor, "execute", "executors.execute")
        w(batch.BatchExecutor, "execute", "executors.execute")
        for mod in (executors, local, batch):
            w(mod, "collect_outcome", "executors.collect", after=_count_produced)
        w(batch.MockBatchBackend, "poll", "executors.batch_poll")

        for mod in (canon, planner, scheduler, executors, cache):
            w(mod, "file_digest", "canon.file_digest", after=_count_hashed)
        for mod in (canon, cache):
            w(mod, "tree_manifest", "canon.tree_manifest")
            w(mod, "canon_decode", "canon.decode")

        store = cache.CacheStore
        for attr in ("put_blob", "put_tree", "materialize_blob", "materialize_tree",
                     "get_entry", "put_entry", "gc"):
            w(store, attr, "cache." + attr)

        w(runstate.Journal, "append_event", "runstate.append")
        w(runstate, "read_events", "runstate.read_events")
        w(runstate, "status", "runstate.status")

        for attr in ("record", "write_doc", "update_index", "load_doc", "lineage"):
            w(provenance, attr, "provenance." + attr)

    # -- reduction -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        by_name = defaultdict(list)
        for span in self.spans:
            by_name[span[1]].append(span)
        names = {s[0]: s[1] for s in self.spans}
        parents = {s[0]: s[4] for s in self.spans}

        def outermost(span, group) -> bool:
            parent = span[4]
            while parent is not None:
                if names.get(parent) in group:
                    return False
                parent = parents.get(parent)
            return True

        out: dict[str, float] = {}
        for metric, group in TIMES.items():
            out[metric] = sum(s[3] - s[2] for n in group for s in by_name[n]
                              if len(group) == 1 or outermost(s, group))
        for metric, name in CALLS.items():
            out[metric] = len(by_name[name])
        out["scheduler.self_s"] = self._self_time(by_name["scheduler.run"])

        planned = self.counters["tasks_planned"]
        out["planner.fingerprints_per_task"] = (
            out["planner.fingerprint_calls"] / planned if planned else 0.0)
        out["canon.bytes_hashed"] = self.counters["bytes_hashed"]
        moved = self.counters["bytes_produced"] + self.counters["bytes_ingested"]
        out["canon.hash_passes"] = self.counters["bytes_hashed"] / moved if moved else 0.0
        links = sum(1 for s in by_name["scheduler.link_outputs"] if s[5] == "link_run_s")
        lookups = sum(1 for s in by_name["cache.get_entry"] if s[5] == "link_run_s")
        out["cache.get_entry_per_link"] = lookups / links if links else 0.0
        return out

    def _self_time(self, runs) -> float:
        """Runner.run spans minus the union of their descendants' spans."""
        children = defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        total = 0.0
        for run in runs:
            intervals = []
            frontier = list(children[run[0]])
            while frontier:
                span = frontier.pop()
                intervals.append((span[2], span[3]))
                frontier.extend(children[span[0]])
            covered, reach = 0.0, run[2]
            for start, end in sorted(intervals):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            total += (run[3] - run[2]) - covered
        return total

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_planned(counters, args, graph):
    counters["tasks_planned"] += len(graph.tasks)


def _count_ingested(counters, args, digest):
    counters["bytes_ingested"] += _tree_bytes(args[0])


def _count_hashed(counters, args, digest):
    counters["bytes_hashed"] += os.path.getsize(args[0])


def _count_produced(counters, args, outcome):
    spec = args[0]
    if outcome.success:
        for out in spec.outputs:
            if out.path is not None:
                counters["bytes_produced"] += _tree_bytes(
                    os.path.join(spec.workdir, out.path.replace("/", os.sep)))
