"""Journal integrity and status snapshots."""

import json
import os
import subprocess
import sys

import pytest

from flowforge.runstate import (Journal, JournalError, NoRunError,
                                SequenceGapError, read_events, status,
                                verify_journal)


def make_run(tmp_path, events):
    run_dir = tmp_path / "r1"
    journal = Journal.create(str(run_dir))
    for kind, task, payload in events:
        journal.append(kind, task, payload)
    journal.close()
    return str(run_dir)


BASIC = [
    ("run-started", None, {"run_id": "r1", "tasks": ["a", "b"], "policy": "update"}),
    ("task-started", "a", {}),
    ("task-finished", "a", {"state": "succeeded"}),
    ("task-started", "b", {}),
    ("task-finished", "b", {"state": "failed", "exit_code": 3}),
    ("run-finished", None, {"state": "failed"}),
]


def test_append_read_round_trip(tmp_path):
    run_dir = make_run(tmp_path, BASIC)
    events, warnings = read_events(os.path.join(run_dir, "events.ndjson"))
    assert warnings == []
    assert [e.kind for e in events] == [k for k, _, _ in BASIC]
    assert [e.seq for e in events] == list(range(1, len(BASIC) + 1))
    assert events[2].payload == {"state": "succeeded"}
    assert verify_journal(events) == []


def test_sequence_gap_rejected_at_write(tmp_path):
    journal = Journal.create(str(tmp_path / "r2"))
    journal.append("run-started")
    from flowforge.runstate import RunEvent
    with pytest.raises(SequenceGapError):
        journal.append_event(RunEvent(5, "2026-01-01T00:00:00+00:00",
                                      "run-finished"))
    journal.close()


def test_unknown_kind_rejected(tmp_path):
    journal = Journal.create(str(tmp_path / "r3"))
    with pytest.raises(JournalError):
        journal.append("task-exploded")
    journal.close()


def test_torn_trailing_line_is_recoverable(tmp_path):
    run_dir = make_run(tmp_path, BASIC[:3])
    path = os.path.join(run_dir, "events.ndjson")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"seq": 4, "ts": "2026-01-01T00:0')  # torn mid-write
    events, warnings = read_events(path)
    assert len(events) == 3
    assert len(warnings) == 1 and "torn" in warnings[0]


def test_corruption_in_the_middle_raises(tmp_path):
    run_dir = make_run(tmp_path, BASIC)
    path = os.path.join(run_dir, "events.ndjson")
    lines = open(path, encoding="utf-8").read().splitlines()
    lines[2] = "!!! not json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(JournalError):
        read_events(path)


def test_verify_flags_structural_problems(tmp_path):
    run_dir = make_run(tmp_path, [
        ("run-started", None, {"tasks": ["a"]}),
        ("task-finished", "a", {"state": "succeeded"}),
        ("run-finished", None, {"state": "succeeded"}),
    ])
    events, _ = read_events(os.path.join(run_dir, "events.ndjson"))
    problems = verify_journal(events)
    assert any("without a start event" in p for p in problems)


def test_verify_accepts_unstarted_nonexecuted_states(tmp_path):
    run_dir = make_run(tmp_path, [
        ("run-started", None, {"tasks": ["a", "b"]}),
        ("task-finished", "a", {"state": "cached"}),
        ("task-finished", "b", {"state": "skipped-up-to-date"}),
        ("run-finished", None, {"state": "succeeded"}),
    ])
    events, _ = read_events(os.path.join(run_dir, "events.ndjson"))
    assert verify_journal(events) == []


def test_status_mid_run_split(tmp_path):
    run_dir = make_run(tmp_path, [
        ("run-started", None, {"run_id": "r9", "tasks": ["a", "b", "c"]}),
        ("task-started", "a", {}),
        ("task-finished", "a", {"state": "succeeded"}),
        ("task-started", "b", {}),
    ])
    snap = status(run_dir)
    assert not snap.terminal
    assert snap.run_id == "r9"
    assert snap.done == 1
    assert snap.running == ("b",)
    assert snap.pending == ("c",)
    assert snap.counts == {"succeeded": 1}
    text = snap.render()
    assert "in progress" in text and "done: 1/3" in text


def test_status_terminal(tmp_path):
    run_dir = make_run(tmp_path, BASIC)
    snap = status(run_dir)
    assert snap.terminal and snap.run_state == "failed"
    assert snap.done == 2 and snap.pending == () and snap.running == ()
    assert "run r1: failed" in snap.render()


def test_status_missing_run(tmp_path):
    with pytest.raises(NoRunError):
        status(str(tmp_path / "nope"))


def reaped_pid() -> int:
    """The pid of a child that has exited and been reaped: no process
    has it now."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def orphan_candidate(tmp_path, hostname, pid):
    """A run that started on `hostname` as process `pid` and never
    journaled run-finished."""
    run_dir = make_run(tmp_path, [
        ("run-started", None, {"run_id": "r1", "tasks": ["a", "b"],
                               "hostname": hostname}),
        ("task-started", "a", {}),
    ])
    with open(os.path.join(run_dir, "pid"), "w") as fh:
        fh.write("%d\n" % pid)
    return run_dir


def test_status_reports_crashed_when_the_run_process_is_gone(tmp_path):
    snap = status(orphan_candidate(tmp_path, os.uname().nodename, reaped_pid()))
    assert snap.terminal and snap.run_state == "crashed"
    assert snap.render().startswith("run r1: crashed\n")
    assert "running tasks: a" in snap.render()


@pytest.mark.parametrize("where", ["live here", "dead elsewhere"])
def test_status_keeps_a_live_or_foreign_run_in_progress(tmp_path, where):
    if where == "live here":
        run_dir = orphan_candidate(tmp_path, os.uname().nodename, os.getpid())
    else:
        run_dir = orphan_candidate(tmp_path, "elsewhere", reaped_pid())
    snap = status(run_dir)
    assert not snap.terminal
    assert snap.render().startswith("run r1: in progress\n")
