"""Append-only run journal and status snapshots derived from it.

One JSON document per line (`runs/<run-id>/events.ndjson`), so the file
tails cleanly and a torn final line is recoverable. Exactly one writer
per run appends; any number of readers may parse a prefix at any time
and get a consistent snapshot.

Event kinds: run-started, task-started, task-finished, run-finished.
task-started marks the beginning of an actual execution; tasks resolved
without executing (cached, skipped-up-to-date, blocked, aborted) emit
only task-finished, which is what lets a fully-cached rerun journal
contain zero task-started events.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

EVENT_KINDS = ("run-started", "task-started", "task-finished", "run-finished")

# task-finished states that imply the task actually ran
EXECUTED_STATES = frozenset({"succeeded", "failed"})

JOURNAL_NAME = "events.ndjson"


class JournalError(Exception):
    pass


class SequenceGapError(JournalError):
    pass


class NoRunError(JournalError):
    pass


@dataclass(frozen=True)
class RunEvent:
    seq: int
    ts: str
    kind: str
    task: str | None = None
    payload: dict = field(default_factory=dict)

    def to_line(self) -> str:
        doc = {"seq": self.seq, "ts": self.ts, "kind": self.kind}
        if self.task is not None:
            doc["task"] = self.task
        if self.payload:
            doc["payload"] = self.payload
        return json.dumps(doc, sort_keys=False)

    @classmethod
    def from_doc(cls, doc: dict) -> "RunEvent":
        event = cls(doc["seq"], doc["ts"], doc["kind"], doc.get("task"),
                    doc.get("payload", {}))
        if not isinstance(event.payload, dict):
            raise TypeError("event payload is no mapping")
        return event


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


class Journal:
    """Single-writer event log with strict sequence numbering.

    Each append is flushed to the file before it returns; `sync` and
    `close` fsync it."""

    def __init__(self, path: str):
        self.path = os.fspath(path)
        self._last_seq = 0
        self._fh = None

    @classmethod
    def create(cls, run_dir: str) -> "Journal":
        os.makedirs(run_dir, exist_ok=True)
        journal = cls(os.path.join(run_dir, JOURNAL_NAME))
        journal._fh = open(journal.path, "a", encoding="utf-8")
        return journal

    def append(self, kind: str, task: str | None = None,
               payload: dict | None = None) -> RunEvent:
        event = RunEvent(self._last_seq + 1, _now(), kind, task, payload or {})
        self.append_event(event)
        return event

    def append_event(self, event: RunEvent):
        if event.kind not in EVENT_KINDS:
            raise JournalError("unknown event kind %r" % event.kind)
        if event.seq != self._last_seq + 1:
            raise SequenceGapError(
                "event seq %d does not follow %d" % (event.seq, self._last_seq))
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(event.to_line() + "\n")
        self._fh.flush()
        self._last_seq = event.seq

    def sync(self):
        """Make every appended event durable with one fsync (group
        commit). Appends are already visible to readers once flushed."""
        if self._fh is not None:
            os.fsync(self._fh.fileno())

    def close(self):
        if self._fh is not None:
            try:
                self.sync()
            finally:
                self._fh.close()
                self._fh = None


def read_events(path: str):
    """Parse a journal file.

    Returns (events, warnings). Each line is decoded on its own, so a
    malformed final line, undecodable bytes included, is a torn write:
    dropped with a warning. Malformed content anywhere else is real
    corruption and raises JournalError.
    """
    events: list[RunEvent] = []
    warnings: list[str] = []
    try:
        with open(path, "rb") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise NoRunError("cannot read journal %s" % path) from exc
    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            events.append(RunEvent.from_doc(json.loads(stripped.decode("utf-8"))))
        except (ValueError, KeyError, TypeError) as exc:
            if i == len(lines) - 1:
                warnings.append("ignored torn trailing journal line: %s" % exc)
            else:
                raise JournalError(
                    "%s:%d: corrupt journal line: %s" % (path, i + 1, exc)) from exc
    return events, warnings


def verify_journal(events) -> list[str]:
    """Well-formedness problems, empty when the journal is clean.

    Executed outcomes (succeeded/failed) must have a prior start; other
    terminal states finish without ever starting, by design.
    """
    problems: list[str] = []
    if not events:
        return ["journal is empty"]
    expected_seq = 1
    started: set[str] = set()
    finished: set[str] = set()
    for i, e in enumerate(events):
        if e.seq != expected_seq:
            problems.append("seq %d found where %d expected" % (e.seq, expected_seq))
        expected_seq = e.seq + 1
        if i == 0 and e.kind != "run-started":
            problems.append("first event is %s, not run-started" % e.kind)
        if i > 0 and e.kind == "run-started":
            problems.append("duplicate run-started at seq %d" % e.seq)
        if e.kind == "run-finished" and i != len(events) - 1:
            problems.append("run-finished at seq %d is not last" % e.seq)
        if e.kind == "task-started":
            if e.task in started:
                problems.append("task %s started twice" % e.task)
            started.add(e.task)
        if e.kind == "task-finished":
            if e.task in finished:
                problems.append("task %s finished twice" % e.task)
            finished.add(e.task)
            state = e.payload.get("state")
            if state in EXECUTED_STATES and e.task not in started:
                problems.append(
                    "task %s finished %s without a start event" % (e.task, state))
    return problems


@dataclass
class StatusSnapshot:
    run_id: str
    total: int
    counts: dict[str, int]
    running: tuple[str, ...]
    pending: tuple[str, ...]
    terminal: bool
    run_state: str | None
    elapsed: float
    warnings: tuple[str, ...] = ()

    @property
    def done(self) -> int:
        return sum(self.counts.values())

    def render(self) -> str:
        lines = ["run %s: %s" % (self.run_id,
                                 self.run_state if self.terminal else "in progress")]
        lines.append("  done: %d/%d  running: %d  pending: %d  elapsed: %.1fs"
                     % (self.done, self.total, len(self.running),
                        len(self.pending), self.elapsed))
        for state in sorted(self.counts):
            lines.append("    %s: %d" % (state, self.counts[state]))
        if self.running:
            lines.append("  running tasks: %s" % ", ".join(self.running))
        if self.pending:
            lines.append("  pending tasks: %s" % ", ".join(self.pending))
        for w in self.warnings:
            lines.append("  warning: %s" % w)
        return "\n".join(lines)


def _parse_ts(ts: str) -> datetime:
    return datetime.fromisoformat(ts)


def _orphaned(pid, hostname) -> bool:
    """True when the run started on this host and no process has its pid
    any more. A pid taken over by a new process reads as alive."""
    if not isinstance(pid, int) or hostname != os.uname().nodename:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, another user's
        pass
    return False


def status(run_dir: str) -> StatusSnapshot:
    """Snapshot of a run derived from its journal prefix. A run without
    run-finished whose process died on this host is terminal, in state
    "crashed"."""
    run_dir = os.fspath(run_dir)
    path = os.path.join(run_dir, JOURNAL_NAME)
    if not os.path.isfile(path):
        raise NoRunError("no run at %s" % run_dir)
    events, warnings = read_events(path)
    if not events:
        raise NoRunError("run at %s has an empty journal" % run_dir)

    tasks: list[str] = []
    run_id = os.path.basename(run_dir.rstrip(os.sep))
    counts: dict[str, int] = {}
    started: list[str] = []
    finished: set[str] = set()
    terminal = False
    run_state = None
    hostname = pid = None

    for e in events:
        if e.kind == "run-started":
            tasks = list(e.payload.get("tasks", []))
            run_id = e.payload.get("run_id", run_id)
            hostname = e.payload.get("hostname")
            pid = e.payload.get("pid")
        elif e.kind == "task-started":
            started.append(e.task)
        elif e.kind == "task-finished":
            finished.add(e.task)
            state = e.payload.get("state", "unknown")
            counts[state] = counts.get(state, 0) + 1
        elif e.kind == "run-finished":
            terminal = True
            run_state = e.payload.get("state")

    running = tuple(t for t in started if t not in finished)
    known = set(started) | finished
    pending = tuple(t for t in tasks if t not in known)

    if not terminal and _orphaned(pid, hostname):
        terminal, run_state = True, "crashed"

    start_ts = _parse_ts(events[0].ts)
    if terminal:
        elapsed = (_parse_ts(events[-1].ts) - start_ts).total_seconds()
    else:
        elapsed = (datetime.now(timezone.utc) - start_ts).total_seconds()

    return StatusSnapshot(run_id, len(tasks), counts, running, pending,
                          terminal, run_state, max(elapsed, 0.0),
                          tuple(warnings))
