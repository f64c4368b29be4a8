"""Live progress folded from the event log, and the recording session.

Every test here writes a real ``events.jsonl`` through a bus and reads
it back with :class:`repro.obs.top.EventLog` — the same path ``repro
top`` takes — so the fold is tested on the one durable record.
"""

import json
import threading

import pytest

from repro.obs import events as ev
from repro.obs.top import EventLog


def _log(tmp_path, run_id=""):
    """A bus appending to ``events.jsonl`` and a reader of that file."""
    path = str(tmp_path / "events.jsonl")
    bus = ev.EventBus(run_id=run_id)
    bus.attach_jsonl(path)
    return bus, EventLog(path)


# -- folding ------------------------------------------------------------------


def test_model_folds_a_plain_run(tmp_path):
    bus, log = _log(tmp_path, run_id="r1")

    bus.publish(ev.RUN_STARTED, "r1", run_id="r1", stage="evaluate",
                total=3, todo=3, backend="thread", jobs=2)
    for name in ("a", "b", "c"):
        bus.publish(ev.TASK_SCHEDULED, name, attempt=1)
    bus.publish(ev.TASK_STARTED, "a", attempt=1)
    bus.publish(ev.TASK_FINISHED, "a", ok=True, attempts=1, worker="w0")
    bus.publish(ev.TASK_STARTED, "b", attempt=1)

    snap = log.poll()
    assert snap["run_id"] == "r1"
    assert snap["state"] == "running"
    assert snap["stage"] == "evaluate"
    assert (snap["total"], snap["done"], snap["queued"]) == (3, 1, 1)
    assert [r["task"] for r in snap["running"]] == ["b"]

    bus.publish(ev.TASK_FINISHED, "b", ok=True, attempts=1)
    bus.publish(ev.TASK_STARTED, "c", attempt=1)
    bus.publish(ev.TASK_FINISHED, "c", ok=True, attempts=1)
    last = bus.publish(ev.RUN_FINISHED, "r1", status="finished")

    snap = log.poll()
    assert snap["state"] == "finished"
    assert snap["done"] == 3
    assert snap["queued"] == 0 and snap["running"] == []
    assert snap["last_seq"] == last.seq


def test_resumed_workloads_count_as_cumulative_progress(tmp_path):
    """A --resume run reports suite-wide progress, not just its share."""
    bus, log = _log(tmp_path, run_id="r2")
    bus.publish(ev.RUN_STARTED, "r2", run_id="r2", total=4, todo=2)
    bus.publish(ev.RUN_RESUMED, "a")
    bus.publish(ev.RUN_RESUMED, "b")
    snap = log.poll()
    assert snap["done"] == 2 and snap["resumed"] == 2
    # resumed completions say nothing about live throughput
    assert snap["rate_per_second"] is None

    bus.publish(ev.TASK_STARTED, "c", attempt=1)
    bus.publish(ev.TASK_FINISHED, "c", ok=True)
    bus.publish(ev.TASK_STARTED, "d", attempt=1)
    bus.publish(ev.TASK_FINISHED, "d", ok=True)
    snap = log.poll()
    assert snap["done"] == 4 and snap["resumed"] == 2


def test_retry_and_quarantine_bookkeeping(tmp_path):
    bus, log = _log(tmp_path)
    bus.publish(ev.RUN_STARTED, "r", total=2, todo=2)
    bus.publish(ev.TASK_STARTED, "bad", attempt=1)
    bus.publish(ev.RETRY, "bad", kind="exception", attempt=1)
    bus.publish(ev.TASK_STARTED, "bad", attempt=2)
    bus.publish(ev.QUARANTINED, "bad", kind="exception", attempts=2)
    snap = log.poll()
    assert snap["retries"] == 1
    assert snap["quarantined"] == ["bad"]
    assert snap["running"] == []


def test_heartbeats_and_stalls_shape_worker_table(tmp_path):
    bus, log = _log(tmp_path)
    bus.publish(ev.RUN_STARTED, "r", total=1, todo=1)
    bus.publish(ev.TASK_STARTED, "slow", attempt=1)
    bus.publish(ev.WORKER_HEARTBEAT, "slow", worker="proc-1",
                task="slow", elapsed=2.5)
    snap = log.poll()
    (worker,) = snap["workers"]
    assert worker["worker"] == "proc-1"
    assert worker["task"] == "slow"
    assert worker["stalled"] is False
    (running,) = snap["running"]
    assert running["worker"] == "proc-1"

    bus.publish(ev.WORKER_STALLED, "slow", worker="proc-1",
                silent_for=9.0, attempt=1)
    snap = log.poll()
    assert snap["stalls"] == 1
    assert snap["workers"][0]["stalled"] is True
    # a fresh beat clears the stall flag
    bus.publish(ev.WORKER_HEARTBEAT, "slow", worker="proc-1",
                task="slow", elapsed=11.0)
    assert log.poll()["workers"][0]["stalled"] is False


def test_cache_hit_rate(tmp_path):
    bus, log = _log(tmp_path)
    for _ in range(3):
        bus.publish(ev.CACHE_HIT, "profile")
    bus.publish(ev.CACHE_MISS, "evaluation")
    cache = log.poll()["cache"]
    assert (cache["hits"], cache["misses"]) == (3, 1)
    assert cache["hit_rate"] == 0.75


def test_model_folds_a_log_written_by_concurrent_publishers(tmp_path):
    bus, log = _log(tmp_path)
    bus.publish(ev.RUN_STARTED, "r", total=400, todo=400)

    def work(tid):
        for i in range(100):
            key = "t%d-%d" % (tid, i)
            bus.publish(ev.TASK_STARTED, key, attempt=1)
            bus.publish(ev.TASK_FINISHED, key, ok=True)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = log.poll()
    assert snap["done"] == 400 and snap["running"] == []
    assert snap["last_seq"] == 800


# -- session ------------------------------------------------------------------


def test_telemetry_session_lifecycle(tmp_path):
    path = tmp_path / "events.jsonl"
    with ev.session(str(path), run_id="s1") as bus:
        assert ev.active() is bus and bus.run_id == "s1"
        ev.publish(ev.RUN_STARTED, "s1", run_id="s1", total=1, todo=1)
        ev.publish(ev.TASK_STARTED, "w", attempt=1)
        ev.publish(ev.TASK_FINISHED, "w", ok=True)
    assert ev.active() is None
    snap = EventLog(str(path)).poll()
    assert snap["state"] == "finished" and snap["done"] == 1
    events = [json.loads(line) for line in path.read_text().splitlines()]
    assert [e["seq"] for e in events] == [0, 1, 2, 3]
    assert (events[-1]["kind"], events[-1]["key"]) == ("run_finished", "s1")


def test_telemetry_session_marks_drain_and_abort(tmp_path):
    class FakeDrain(KeyboardInterrupt):
        pass

    outer = ev.EventBus()
    ev.install(outer)
    try:
        for exc_type, status in ((FakeDrain, "drained"),
                                 (ValueError, "aborted")):
            path = tmp_path / ("%s.jsonl" % status)
            with pytest.raises(exc_type):
                with ev.session(str(path), run_id="x"):
                    ev.publish(ev.RUN_STARTED, "x", run_id="x", total=1)
                    raise exc_type("boom")
            assert EventLog(str(path)).poll()["state"] == status
            assert ev.active() is outer  # the previous bus is restored
    finally:
        ev.uninstall(None)
    assert ev.active() is None
