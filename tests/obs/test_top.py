"""`repro top`: folding the event log, rendering, exit behaviour.

The log is appended to while ``repro top`` reads it, so the reader is
pinned on the awkward cases: several runs in one file, a line caught
mid-append, a malformed line and a log that does not exist (yet).
"""

import io

import pytest

from repro.obs import events as ev
from repro.obs.top import (
    EventLog,
    MalformedEventLog,
    ProgressUnavailable,
    load_progress,
    render_top,
    run_top,
)


def _write_run(path, run_id, total, finish=True):
    """Append one sweep of ``total`` healthy workloads to the log."""
    bus = ev.EventBus(run_id=run_id)
    bus.attach_jsonl(str(path))
    bus.publish(ev.RUN_STARTED, run_id, run_id=run_id, stage="evaluate",
                total=total, todo=total)
    for i in range(total):
        bus.publish(ev.TASK_STARTED, "w%d" % i, attempt=1)
        bus.publish(ev.TASK_FINISHED, "w%d" % i, ok=True)
    if finish:
        bus.publish(ev.RUN_FINISHED, run_id, status="finished")
    bus.close()


def _progress(**overrides):
    base = {
        "run_id": "run-42",
        "stage": "evaluate",
        "state": "running",
        "total": 10,
        "done": 4,
        "resumed": 2,
        "failed": 0,
        "queued": 3,
        "running": [
            {"task": "470.lbm", "worker": "proc-0", "elapsed": 12.0,
             "attempt": 1},
        ],
        "quarantined": ["bad.one"],
        "retries": 1,
        "stalls": 1,
        "workers": [
            {"worker": "proc-0", "task": "470.lbm", "idle_for": 0.2,
             "stalled": False},
            {"worker": "proc-1", "task": "164.gzip", "idle_for": 9.0,
             "stalled": True},
        ],
        "cache": {"hits": 6, "misses": 2, "hit_rate": 0.75},
        "elapsed_seconds": 65.0,
        "eta_seconds": 90.0,
        "rate_per_second": 0.07,
        "last_seq": 99,
    }
    base.update(overrides)
    return base


# -- reading the log ------------------------------------------------------------


def test_load_progress_from_events_log(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_run(path, "run-42", total=3)
    snap = load_progress(str(path))
    assert snap["run_id"] == "run-42" and snap["state"] == "finished"
    assert snap["done"] == snap["total"] == 3


def test_load_progress_raises_cleanly(tmp_path):
    with pytest.raises(ProgressUnavailable, match="cannot read event log"):
        load_progress(str(tmp_path / "absent.jsonl"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{nope\n")
    with pytest.raises(MalformedEventLog, match="bad.jsonl:1: not an event"):
        load_progress(str(bad))


def test_two_appended_runs_fold_to_the_second_only(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_run(path, "first", total=5)
    _write_run(path, "second", total=2, finish=False)
    snap = load_progress(str(path))
    assert snap["run_id"] == "second"
    assert snap["state"] == "running"
    assert (snap["done"], snap["total"]) == (2, 2)


def test_partial_trailing_line_waits_for_its_newline(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_run(path, "r", total=2, finish=False)
    log = EventLog(str(path))
    assert log.poll()["state"] == "running"
    line = ev.Event(seq=5, ts=1.0, kind=ev.RUN_FINISHED, key="r",
                    data={"status": "finished"}).to_json()
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[:17])  # a writer caught mid-append
    snap = log.poll()  # must neither fold nor raise
    assert snap["state"] == "running" and snap["last_seq"] == 4
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[17:] + "\n")
    snap = log.poll()
    assert snap["state"] == "finished" and snap["last_seq"] == 5


def test_run_top_once_malformed_line_exits_one(tmp_path, capsys):
    path = tmp_path / "events.jsonl"
    _write_run(path, "r", total=1)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"seq": 9}\n')  # complete, but not an event
    assert run_top(str(path), once=True, stream=io.StringIO()) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0] == "repro top: %s:5: not an event (missing 'ts')" % path


def test_run_top_tolerates_a_missing_log_for_five_polls(tmp_path, capsys,
                                                        monkeypatch):
    path = tmp_path / "late.jsonl"
    polls = []
    real_poll = EventLog.poll

    def counting_poll(self):
        polls.append(1)
        if len(polls) == 3:  # the sweep starts writing after two misses
            _write_run(path, "late", total=1)
        return real_poll(self)

    monkeypatch.setattr(EventLog, "poll", counting_poll)
    assert run_top(str(path), interval=0.0, stream=io.StringIO()) == 0
    assert len(polls) == 3

    polls.clear()
    assert run_top(str(tmp_path / "never.jsonl"), interval=0.0,
                   stream=io.StringIO()) == 1
    assert len(polls) == 5
    assert "cannot read event log" in capsys.readouterr().err


# -- rendering ----------------------------------------------------------------


def test_render_top_one_screen():
    text = render_top(_progress())
    assert "run-42" in text and "[running]" in text
    assert "4/10 (40%)" in text
    assert "resumed from journal: 2 workloads" in text
    assert "hit-rate 75%" in text
    assert "470.lbm" in text and "proc-0" in text
    assert "PHASE" not in text
    assert "STALLED" in text and "ok" in text
    assert "quarantined: bad.one" in text
    assert "eta" in text and "1m30s" in text


def test_render_top_survives_minimal_snapshot():
    text = render_top({})
    assert "repro top" in text


def test_run_top_once_renders_and_exits_zero(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_run(path, "r", total=10)
    out = io.StringIO()
    assert run_top(str(path), once=True, stream=out) == 0
    assert "10/10 (100%)" in out.getvalue()


def test_run_top_stops_on_terminal_state(tmp_path):
    path = tmp_path / "events.jsonl"
    _write_run(path, "r", total=1, finish=False)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(ev.Event(seq=3, ts=1.0, kind=ev.RUN_FINISHED, key="r",
                              data={"status": "drained"}).to_json() + "\n")
    out = io.StringIO()
    assert run_top(str(path), interval=0.01, stream=out) == 0
    assert "[drained]" in out.getvalue()


def test_run_top_once_missing_source_exits_one(tmp_path, capsys):
    assert run_top(str(tmp_path / "never.jsonl"), once=True) == 1
    assert "repro top:" in capsys.readouterr().err
