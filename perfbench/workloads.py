"""The benchmark's three workloads.

Each workload makes its inputs from a seed, runs one round of flowforge
commands through a client, and checks every output against a
computation made apart from the engine: a formula for the generated
workloads, the bare tools for the use case.

    wide-noop       ~150 tiny shell tasks: per-task engine cost
    bulk-artifacts  a large file and a many-file directory: bytes
    usecase-sweep   the paper's six-step use case over many points:
                    batch executor, composition, accumulated history
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import string
import subprocess
import time
from dataclasses import dataclass

import refcanon
from client import (CheckFailed, disk_usage_mb, expect, finished_states,
                    provenance_outputs, started_tasks)

PLACEHOLDER = re.compile(r"\{(inputs|outputs)\.([A-Za-z0-9_-]+)\}")
DEEP_CHAIN_STEPS = 1200  # above Python's default recursion limit of 1000
MAGIC = b"FFBULK1\n"  # first bytes of the bulk input
# `cache gc` runs GC_CALLS times at the end of a round.
GC_CALLS = 2


def _word(rng: random.Random, n: int = 8) -> str:
    return "".join(rng.choice(string.ascii_lowercase + string.digits)
                   for _ in range(n))


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _param_args(params: dict) -> list[str]:
    out = []
    for name in sorted(params):
        out += ["--param", "%s=%s" % (name, params[name])]
    return out


# ---------------------------------------------------------------------------
# expected contents

class Pieces(tuple):
    """File content as byte strings and file paths in order, so a large
    expected output is streamed and never held in memory."""

    def chunks(self):
        for piece in self:
            if isinstance(piece, bytes):
                yield piece
                continue
            with open(piece, "rb") as fh:
                while chunk := fh.read(1 << 20):
                    yield chunk


def content_digest(content) -> str:
    if isinstance(content, Pieces):
        import hashlib

        h = hashlib.sha256()
        for chunk in content.chunks():
            h.update(chunk)
        return h.hexdigest()
    return refcanon.artifact_digest(content)


def _file_matches(path: str, content) -> bool:
    if not os.path.isfile(path):
        return False
    with open(path, "rb") as fh:
        if isinstance(content, bytes):
            return fh.read() == content
        for chunk in content.chunks():
            if fh.read(len(chunk)) != chunk:
                return False
        return fh.read(1) == b""


def check_content(path: str, content, what: str):
    if isinstance(content, dict):
        expect(os.path.isdir(path), "%s: no directory at %s", what, path)
        found = set()
        for dirpath, _, filenames in os.walk(path):
            for name in filenames:
                found.add(os.path.relpath(os.path.join(dirpath, name), path)
                          .replace(os.sep, "/"))
        expect(found == set(content), "%s: directory members differ", what)
        for rel, data in content.items():
            expect(_file_matches(os.path.join(path, rel), data),
                   "%s: member %s differs", what, rel)
    else:
        expect(_file_matches(path, content), "%s: %s differs", what, path)


# ---------------------------------------------------------------------------
# generated workflows

@dataclass(frozen=True)
class Proc:
    id: str
    script: str  # body of `sh -c`, with flowforge placeholders
    inputs: dict  # port -> (type, source ref)
    outputs: dict  # port -> (type, workspace path)


class Graph:
    """The benchmark's own view of a workflow's processes and edges."""

    def __init__(self, procs):
        self.procs = {p.id: p for p in procs}
        edges = {(src.split(".")[0], p.id) for p in procs
                 for _, src in p.inputs.values() if not src.startswith("params.")}
        self.children, self.parents = _adjacency(self.procs, edges)

    def consumers_of(self, param: str) -> set:
        return {p.id for p in self.procs.values()
                if any(src == "params." + param for _, src in p.inputs.values())}

    def downstream(self, roots) -> set:
        return _closure(roots, self.children)

    def upstream(self, roots) -> set:
        return _closure(roots, self.parents)

    def topo_order(self) -> list:
        order, done = [], set()
        while len(order) < len(self.procs):
            ready = sorted(t for t in self.procs
                           if t not in done and self.parents[t] <= done)
            order += ready
            done.update(ready)
        return order


def _adjacency(nodes, edges) -> tuple[dict, dict]:
    """(children, parents) of every node over (producer, consumer) edges."""
    children: dict[str, set] = {t: set() for t in nodes}
    parents: dict[str, set] = {t: set() for t in nodes}
    for producer, consumer in edges:
        children[producer].add(consumer)
        parents[consumer].add(producer)
    return children, parents


def _closure(roots, links) -> set:
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        for nxt in links[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def workflow_doc(name: str, params: dict, graph: Graph, outputs: dict) -> dict:
    return {
        "formatVersion": 1,
        "name": name,
        "params": {n: {"type": t, "default": d} for n, (t, d) in params.items()},
        "processes": [
            {"id": p.id,
             "command": ["sh", "-c", p.script],
             "inputs": {port: {"type": t, "from": src}
                        for port, (t, src) in p.inputs.items()},
             "outputs": {port: {"type": t, "path": path}
                         for port, (t, path) in p.outputs.items()}}
            for p in graph.procs.values()],
        "outputs": outputs,
    }


class GeneratedWorkload:
    """A workflow whose every output follows from a formula.

    Subclasses set `graph`, `sink` (task, port) and the edited param,
    and implement setup(), params() and expected(). `edit` selects the
    inputs: None for the base state, r for the r-th edit of a round."""

    name = ""
    deep_chain = False
    edit_param = ""
    # Cycles of warm commands a round runs, each with an edit of its
    # own. Rounds stay short, so that a run holds several of them and so
    # several samples of every metric spread over the whole run.
    cycles = 1

    def prepare(self, scratch: str):
        """Work done once per run, before any timing: none here."""

    def setup(self, inputs_dir: str):
        raise NotImplementedError

    def params(self, inputs_dir: str, edit: int | None = None) -> dict:
        raise NotImplementedError

    def expected(self, inputs_dir: str, edit: int | None = None) -> dict:
        """task -> {port: bytes | Pieces | {relpath: bytes}}"""
        raise NotImplementedError

    # -- checks ------------------------------------------------------------

    def check_state(self, ws: str, run_id: str, inputs_dir: str, edit: int | None):
        """Workspace files and the run's recorded digests against the
        formula; recorded digests also against hashlib."""
        expected = self.expected(inputs_dir, edit)
        for task, ports in expected.items():
            for port, content in ports.items():
                path = os.path.join(ws, self.graph.procs[task].outputs[port][1])
                check_content(path, content, "%s.%s" % (task, port))
        digests = self.digests(inputs_dir, edit)
        for task, files in provenance_outputs(ws, run_id).items():
            for port, digest in files.items():
                expect(digest == digests[task][port],
                       "recorded digest of %s.%s differs", task, port)

    def digests(self, inputs_dir: str, edit: int | None) -> dict:
        """task -> {port: digest}, hashed once per inputs and edit."""
        memo = self.__dict__.setdefault("_digests", {})
        key = (inputs_dir, edit)
        if key not in memo:
            memo[key] = {task: {port: content_digest(c) for port, c in ports.items()}
                         for task, ports in self.expected(inputs_dir, edit).items()}
        return memo[key]

    # -- the round -----------------------------------------------------------

    def round(self, client, round_dir: str, inputs_dir: str):
        ws = os.path.join(round_dir, "ws")
        wf = os.path.join(inputs_dir, "workflow.wf")
        run = ["run", wf, "--workdir", ws, "--jobs", client.jobs]
        base = _param_args(self.params(inputs_dir))
        every = set(self.graph.procs)
        cone = self.graph.downstream(self.graph.consumers_of(self.edit_param))

        cold = client.ff(run + ["--policy", "recompute"] + base, "cold_run_s")
        expect(started_tasks(ws, cold.run_id) == every,
               "cold run did not execute every task")
        self.check_state(ws, cold.run_id, inputs_dir, None)

        task, port = self.sink
        digest = self.digests(inputs_dir, None)[task][port]
        for r in range(self.cycles):
            noop = client.ff(run + base, "noop_rerun_s")
            expect(not started_tasks(ws, noop.run_id), "no-op rerun executed tasks")

            edited = client.ff(run + _param_args(self.params(inputs_dir, r)), "edit_rerun_s")
            ran = started_tasks(ws, edited.run_id)
            expect(ran == cone, "edit rerun executed %d tasks, the edit reaches %d",
                   len(ran), len(cone))
            self.check_state(ws, edited.run_id, inputs_dir, r)

            link = client.ff(run + ["--policy", "link"] + base, "link_run_s")
            expect(not started_tasks(ws, link.run_id), "link run executed tasks")
            expect(set(finished_states(ws, link.run_id).values()) == {"cached"},
                   "link run left tasks uncached")
            self.check_state(ws, link.run_id, inputs_dir, None)

            check_validate(client.ff(["validate", wf], "validate_s"))
            check_status(client.ff(["status", cold.run_id, "--workdir", ws],
                                   "status_s"), cold.run_id, len(every))
            check_dry_run(client.ff(run + ["--dry-run"] + base, "dry_run_s"), every)
            check_lineage(client.ff(["prov", "lineage", digest, "--workdir", ws],
                                    "lineage_s"), self.graph.upstream({task}))

        if self.deep_chain:
            # Crashes with RecursionError in model.find_cycle: one failed
            # operation per round until the validator stops recursing.
            client.ff(["validate", os.path.join(inputs_dir, "deep.wf")],
                      may_fail=True)

        # gc runs last; the first call removes what it will, the later
        # ones only scan, which gives gc_s more than one sample a round.
        for _ in range(GC_CALLS):
            check_gc(client.ff(["cache", "gc", "--workdir", ws], "gc_s"))
        client.samples["workspace_mb"].append(disk_usage_mb(ws))

    # -- the same commands without the engine ---------------------------------

    def bare(self, inputs_dir: str, bare_dir: str) -> float:
        """Run every task's command directly, one after another, in
        dependency order; return the summed command time. The outputs
        are checked against the formula too."""
        params = self.params(inputs_dir)
        total = 0.0
        for tid in self.graph.topo_order():
            proc = self.graph.procs[tid]

            def fill(match, proc=proc):
                space, port = match.groups()
                if space == "outputs":
                    return proc.outputs[port][1]
                src = proc.inputs[port][1]
                if src.startswith("params."):
                    return params[src[len("params."):]]
                head, out_port = src.split(".")
                return self.graph.procs[head].outputs[out_port][1]

            script = PLACEHOLDER.sub(fill, proc.script)
            start = time.perf_counter()
            subprocess.run(["sh", "-c", script], cwd=bare_dir, check=True,
                           stdin=subprocess.DEVNULL)
            total += time.perf_counter() - start
        for task, ports in self.expected(inputs_dir).items():
            for port, content in ports.items():
                check_content(os.path.join(bare_dir, self.graph.procs[task].outputs[port][1]),
                              content, "bare %s.%s" % (task, port))
        return total


def check_validate(reply):
    expect(reply.out.startswith("ok: "), "validate said %r", reply.out)


def check_status(reply, run_id: str, tasks: int):
    expect(("run %s: succeeded" % run_id) in reply.out
           and ("done: %d/%d" % (tasks, tasks)) in reply.out,
           "status said %r", reply.out[:200])


def check_dry_run(reply, every: set):
    plan = dict(reversed(line.split()) for line in reply.out.splitlines() if line)
    expect(plan == {t: "skip" for t in every},
           "dry run after link plans %r", sorted(set(plan.values())))


def check_lineage(reply, cone: set):
    found = {entry["task"] for entry in json.loads(reply.out)["tasks"]}
    expect(found == cone, "lineage names %d tasks, the upstream cone has %d",
           len(found), len(cone))


def check_gc(reply):
    expect("removed 0 entries" in reply.out, "gc of every run said %r", reply.out)


# ---------------------------------------------------------------------------
# wide-noop

class WideNoop(GeneratedWorkload):
    """A layered diamond: `depth` layers of `width` tasks, task (k, i)
    reading tasks (k-1, i) and (k-1, i+1 mod width), then one sink that
    writes a small directory. Every task is one `sh` using builtins only,
    so the engine's own cost dominates. The edited param feeds a tenth of
    the first layer, so the edit reaches width/10 + k tasks of layer k: a set
    that is the same size for every seed."""

    name = "wide-noop"
    deep_chain = True
    edit_param = "edit_tag"

    def __init__(self, seed: int, width: int = 30, depth: int = 5):
        rng = random.Random(seed)
        self.width, self.depth = width, depth
        self.base_tag, self.edit_tag = _word(rng), _word(rng)
        self.new_tags = [_word(rng) for _ in range(self.cycles)]
        offset = rng.randrange(width)
        self.edited = {(offset + j) % width for j in range(max(1, width // 10))}
        procs = []
        for i in range(width):
            tag = "edit_tag" if i in self.edited else "base_tag"
            procs.append(Proc(
                self.tid(0, i),
                'printf "%%s %%s\\n" "{inputs.tag}" %s > {outputs.o}' % self.tid(0, i),
                {"tag": ("string", "params." + tag)},
                {"o": ("file", self.tid(0, i) + ".txt")}))
        for k in range(1, depth):
            for i in range(width):
                tid = self.tid(k, i)
                procs.append(Proc(
                    tid,
                    'read -r a x < {inputs.a} && read -r b x < {inputs.b} && '
                    'printf "%%s %%s %%s\\n" "$a" "$b" %s > {outputs.o}' % tid,
                    {"a": ("file", self.tid(k - 1, i) + ".o"),
                     "b": ("file", self.tid(k - 1, (i + 1) % width) + ".o")},
                    {"o": ("file", tid + ".txt")}))
        last = [self.tid(depth - 1, i) for i in range(width)]
        body = " && ".join(
            'read -r l < {inputs.i%03d} && printf "%%s\\n" "$l" > {outputs.d}/p%03d'
            % (i, i) for i in range(width))
        procs.append(Proc(
            "sink", "mkdir -p {outputs.d} && " + body,
            {"i%03d" % i: ("file", tid + ".o") for i, tid in enumerate(last)},
            {"d": ("directory", "summary")}))
        self.graph = Graph(procs)
        self.sink = ("sink", "d")
        self._memo = {}

    @staticmethod
    def tid(k: int, i: int) -> str:
        return "t%02d_%03d" % (k, i)

    def setup(self, inputs_dir: str):
        params = {"base_tag": ("string", self.base_tag),
                  "edit_tag": ("string", self.edit_tag)}
        _write_json(os.path.join(inputs_dir, "workflow.wf"),
                    workflow_doc("wide_noop", params, self.graph, {"summary": "sink.d"}))
        chain = [Proc("c%04d" % n,
                      "cat {inputs.x} > {outputs.y}" if n else "echo 0 > {outputs.y}",
                      {"x": ("file", "c%04d.y" % (n - 1))} if n else {},
                      {"y": ("file", "c%04d.txt" % n)})
                 for n in range(DEEP_CHAIN_STEPS)]
        _write_json(os.path.join(inputs_dir, "deep.wf"),
                    workflow_doc("deep_chain", {}, Graph(chain),
                                 {"last": "c%04d.y" % (DEEP_CHAIN_STEPS - 1)}))

    def params(self, inputs_dir: str, edit: int | None = None) -> dict:
        return {"base_tag": self.base_tag,
                "edit_tag": self.edit_tag if edit is None else self.new_tags[edit]}

    def expected(self, inputs_dir: str, edit: int | None = None) -> dict:
        if edit in self._memo:
            return self._memo[edit]
        edit_tag = self.params(inputs_dir, edit)["edit_tag"]
        layer = [("%s %s\n" % (edit_tag if i in self.edited else self.base_tag,
                               self.tid(0, i))).encode() for i in range(self.width)]
        out = {self.tid(0, i): {"o": layer[i]} for i in range(self.width)}
        for k in range(1, self.depth):
            first = [line.split(b" ")[0] for line in layer]
            layer = [b"%s %s %s\n" % (first[i], first[(i + 1) % self.width],
                                        self.tid(k, i).encode())
                     for i in range(self.width)]
            out.update({self.tid(k, i): {"o": layer[i]} for i in range(self.width)})
        out["sink"] = {"d": {"p%03d" % i: data.split(b"\n")[0] + b"\n"
                             for i, data in enumerate(layer)}}
        self._memo[edit] = out
        return out


# ---------------------------------------------------------------------------
# bulk-artifacts

class BulkArtifacts(GeneratedWorkload):
    """One large external input, a task that writes it out again with a
    seed line appended, a task that writes a directory of many small
    files, and a task that consumes both. The edit changes the seed line,
    so the large file and its consumer re-run; the directory is staged
    again.

    The input is a binary file that opens with a magic line, as data
    formats do. `cache gc` reads every file output as a would-be tree
    manifest and crashes on a blob whose first byte is a canonical tag
    followed by bytes it cannot decode, so with a random first byte gc
    would fail on some seeds only (see CHANGES.md, FOUND)."""

    name = "bulk-artifacts"
    edit_param = "seed"

    def __init__(self, seed: int, input_mb: int = 16, files: int = 2000):
        rng = random.Random(seed)
        self.seed = seed
        self.input_bytes = input_mb << 20
        self.files = files
        self.seed_text, self.tag = _word(rng), _word(rng)
        self.new_seed_texts = [_word(rng) for _ in range(self.cycles)]
        self.pad = _word(rng, 96)
        last = "s%d" % (100000 + files - 1)
        self.graph = Graph([
            Proc("blob",
                 '{ cat {inputs.src}; printf "%s\\n" "{inputs.seed}"; } > {outputs.big}',
                 {"src": ("file", "params.src"), "seed": ("string", "params.seed")},
                 {"big": ("file", "big.out")}),
            Proc("shards",
                 'mkdir -p {outputs.d} && i=0 && while [ $i -lt %d ]; do '
                 'printf "%%s %%d %%s\\n" "{inputs.tag}" $i %s '
                 '> {outputs.d}/s$((100000 + i)); i=$((i + 1)); done'
                 % (files, self.pad),
                 {"tag": ("string", "params.tag")},
                 {"d": ("directory", "shards")}),
            Proc("combine",
                 "{ head -c 4096 {inputs.big}; cat {inputs.shards}/s100000 "
                 "{inputs.shards}/%s; } > {outputs.o}" % last,
                 {"big": ("file", "blob.big"), "shards": ("directory", "shards.d")},
                 {"o": ("file", "combined.txt")}),
        ])
        self.sink = ("combine", "o")
        self._memo = {}

    def setup(self, inputs_dir: str):
        rng = random.Random(self.seed)
        with open(os.path.join(inputs_dir, "big.bin"), "wb") as fh:
            fh.write(MAGIC)
            left = self.input_bytes - len(MAGIC)
            while left:
                n = min(left, 1 << 20)
                fh.write(rng.randbytes(n))
                left -= n
        params = {"src": ("file", "big.bin"), "seed": ("string", self.seed_text),
                  "tag": ("string", self.tag)}
        _write_json(os.path.join(inputs_dir, "workflow.wf"),
                    workflow_doc("bulk_artifacts", params, self.graph,
                                 {"combined": "combine.o"}))

    def params(self, inputs_dir: str, edit: int | None = None) -> dict:
        return {"src": os.path.join(inputs_dir, "big.bin"), "tag": self.tag,
                "seed": self.seed_text if edit is None else self.new_seed_texts[edit]}

    def expected(self, inputs_dir: str, edit: int | None = None) -> dict:
        key = (inputs_dir, edit)
        if key in self._memo:
            return self._memo[key]
        src = os.path.join(inputs_dir, "big.bin")
        tail = (self.params(inputs_dir, edit)["seed"] + "\n").encode()
        shards = {"s%d" % (100000 + i): ("%s %d %s\n" % (self.tag, i, self.pad)).encode()
                  for i in range(self.files)}
        with open(src, "rb") as fh:
            prefix = (fh.read(4096) + tail)[:4096]
        combined = prefix + shards["s100000"] + shards["s%d" % (100000 + self.files - 1)]
        out = {"blob": {"big": Pieces((src, tail))},
               "shards": {"d": shards},
               "combine": {"o": combined}}
        self._memo[key] = out
        return out


# ---------------------------------------------------------------------------
# usecase-sweep

USECASE_FILES = {  # flattened task -> (port, workspace path)
    "meshing.mesh": ("mesh", "mesh.msh"),
    "meshing.convert": ("converted", "mesh.xdmf"),
    "simulate": ("result", "result.vtk"),
    "postproc": ("table", "table.csv"),
    "macros": ("macros", "macros.tex"),
    "paper": ("paper", "paper.pdf"),
}
USECASE_EDGES = [("meshing.mesh", "meshing.convert"), ("meshing.convert", "simulate"),
                 ("simulate", "postproc"), ("simulate", "macros"),
                 ("postproc", "paper"), ("macros", "paper")]
POSTPROC_HEADER = 'fh.write("index,value\\n")'
POSTPROC_EDITED = 'fh.write("index,value,edit%d\\n")'


class UsecaseSweep:
    """The six-step use case through its composed form, swept over many
    domain_size points in one workspace on the batch executor, then
    every point linked again from the cache."""

    name = "usecase-sweep"
    cycles = 2  # one edit and one relink of every point per cycle

    def __init__(self, seed: int, points: int = 5, fixture_dir: str = ""):
        rng = random.Random(seed)
        self.points = rng.sample(sorted({round(rng.uniform(1.0, 8.0), 2)
                                         for _ in range(points * 4)}), points)
        self.fixture_dir = fixture_dir
        self.reference: dict = {}  # (point, edit) -> {file: bytes}
        self.bare_s = 0.0
        self.children, self.parents = _adjacency(USECASE_FILES, USECASE_EDGES)

    def setup(self, inputs_dir: str):
        shutil.copytree(self.fixture_dir, os.path.join(inputs_dir, "usecase"),
                        ignore=shutil.ignore_patterns("__pycache__"))

    def bare(self, tools_dir: str, work: str, point: float) -> tuple[dict, float]:
        """The six tools chained directly; returns their outputs and time."""
        os.makedirs(work)
        size = repr(point)
        steps = [
            ["mesh", "--size", size, "--out", "mesh.msh"],
            ["convert", "--mesh", "mesh.msh", "--out", "mesh.xdmf"],
            ["simulate", "--mesh", "mesh.xdmf", "--out", "result.vtk"],
            ["postproc", "--result", "result.vtk", "--out", "table.csv"],
            None,  # macros needs the dof count simulate reported
            ["paper", "--table", "table.csv", "--macros", "macros.tex",
             "--out", "paper.pdf"],
        ]
        total = 0.0
        for step in steps:
            if step is None:
                with open(os.path.join(work, "outputs.json"), encoding="utf-8") as fh:
                    dofs = json.load(fh)["num_dofs"]
                step = ["macros", "--dofs", str(dofs), "--size", size, "--out", "macros.tex"]
            tool = os.path.join(tools_dir, "bin", step[0] + ".py")
            start = time.perf_counter()
            subprocess.run(["python3", tool] + step[1:], cwd=work, check=True,
                           stdin=subprocess.DEVNULL)
            total += time.perf_counter() - start
        outputs = {}
        for _, path in USECASE_FILES.values():
            with open(os.path.join(work, path), "rb") as fh:
                outputs[path] = fh.read()
        return outputs, total

    def prepare(self, scratch: str):
        """Reference outputs for every point, and for each edit of the
        last point. The time of the unedited chains is the bare time."""
        tools = os.path.join(scratch, "bare-tools")
        shutil.copytree(self.fixture_dir, tools, ignore=shutil.ignore_patterns("__pycache__"))
        for n, point in enumerate(self.points):
            self.reference[point, None], seconds = self.bare(
                tools, os.path.join(scratch, "bare-%d" % n), point)
            self.bare_s += seconds
        for r in range(self.cycles):
            edit_postproc(tools, r)
            self.reference[self.points[-1], r], _ = self.bare(
                tools, os.path.join(scratch, "bare-edit-%d" % r), self.points[-1])

    def check_point(self, ws: str, run_id: str, point: float, edit: int | None = None):
        expected = self.reference[point, edit]
        for path, data in expected.items():
            check_content(os.path.join(ws, path), data, "point %r %s" % (point, path))
        for task, files in provenance_outputs(ws, run_id).items():
            port, path = USECASE_FILES[task]
            expect(files == {port: refcanon.sha256_hex(expected[path])},
                   "recorded digest of %s differs at point %r", task, point)

    def round(self, client, round_dir: str, inputs_dir: str):
        wf_dir = os.path.join(inputs_dir, "usecase")
        wf = os.path.join(wf_dir, "usecase_sub.wf")
        ws = os.path.join(round_dir, "ws")
        run = ["run", wf, "--workdir", ws, "--jobs", client.jobs,
               "--executor", "batch:mock"]
        at = lambda point: ["--param", "domain_size=%r" % point]  # noqa: E731
        every = set(USECASE_FILES)
        last = self.points[-1]

        total = 0.0
        for point in self.points:
            cold = client.ff(run + ["--policy", "recompute"] + at(point))
            total += cold.seconds
            expect(started_tasks(ws, cold.run_id) == every,
                   "cold run at %r did not execute every task", point)
            self.check_point(ws, cold.run_id, point)
        client.samples["cold_run_s"].append(total)

        # Composition: the flat form gives a byte-identical paper.
        flat_ws = os.path.join(round_dir, "flat-ws")
        client.ff(["run", os.path.join(wf_dir, "usecase.wf"), "--workdir", flat_ws,
                   "--jobs", client.jobs, "--executor", "batch:mock"] + at(last))
        with open(os.path.join(flat_ws, "paper.pdf"), "rb") as fh:
            expect(fh.read() == self.reference[last, None]["paper.pdf"],
                   "usecase.wf and usecase_sub.wf papers differ")

        cone = _closure({"postproc"}, self.children)
        digest = refcanon.sha256_hex(self.reference[last, None]["paper.pdf"])
        for r in range(self.cycles):
            noop = client.ff(run + at(last), "noop_rerun_s")
            expect(not started_tasks(ws, noop.run_id), "no-op rerun executed tasks")

            edit_postproc(wf_dir, r)
            edited = client.ff(run + at(last), "edit_rerun_s")
            ran = started_tasks(ws, edited.run_id)
            expect(ran == cone, "edit rerun executed %s", sorted(ran))
            self.check_point(ws, edited.run_id, last, r)
            edit_postproc(wf_dir, None)

            for point in self.points:
                link = client.ff(run + ["--policy", "link"] + at(point), "link_run_s")
                expect(not started_tasks(ws, link.run_id), "link run at %r executed", point)
                self.check_point(ws, link.run_id, point)

            check_validate(client.ff(["validate", wf], "validate_s"))
            check_status(client.ff(["status", cold.run_id, "--workdir", ws],
                                   "status_s"), cold.run_id, len(every))
            check_dry_run(client.ff(run + ["--dry-run"] + at(last), "dry_run_s"), every)
            check_lineage(client.ff(["prov", "lineage", digest, "--workdir", ws],
                                    "lineage_s"), _closure({"paper"}, self.parents))

        # gc runs last; the first call removes what it will, the later
        # ones only scan, which gives gc_s more than one sample a round.
        for _ in range(GC_CALLS):
            check_gc(client.ff(["cache", "gc", "--workdir", ws], "gc_s"))
        client.samples["workspace_mb"].append(disk_usage_mb(ws))


def edit_postproc(tools_dir: str, edit: int | None):
    """Make the copied postproc tool write the r-th edited header, or
    the original one for edit None."""
    path = os.path.join(tools_dir, "bin", "postproc.py")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    current = re.search(r'fh\.write\("index,value(,edit\d+)?\\n"\)', text)
    if current is None:
        raise CheckFailed("postproc.py no longer writes the header the edit changes")
    wanted = POSTPROC_HEADER if edit is None else POSTPROC_EDITED % edit
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(current.group(0), wanted))


WORKLOADS = {cls.name: cls for cls in (WideNoop, BulkArtifacts, UsecaseSweep)}
