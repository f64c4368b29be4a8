"""Live telemetry end to end: the wall-clock-only invariant.

The contract: turning the event log and worker heartbeats on must not
perturb semantic output.  Evaluation records and semantic metric
snapshots are byte-identical with telemetry on or off, on every pool
backend, healthy or under an injected chaos plan — and a resumed sweep's
log folds to *cumulative* progress (journal-restored workloads count as
completed).
"""

from __future__ import annotations

import json
import os

import pytest

from repro import obs
from repro.obs import events as ev
from repro.obs import export
from repro.obs.top import load_progress, render_top
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.resilience.faults import (
    SITE_WORKER_CRASH,
    SITE_WORKER_HANG,
    FaultPlan,
    FaultSpec,
)
from repro.workloads import get
from repro.workloads.base import clear_profile_cache

from tests.test_pools import SUBSET, _flatten


def _suite(names=SUBSET):
    return [get(n) for n in names]


def _sweep(pool, fault_plan=None, telemetry_dir=None, **extra):
    """(flattened rows, semantic JSON) with telemetry on or off.

    ``telemetry_dir`` switches telemetry on: the events JSONL and fast
    heartbeats, exactly as the CLI flags would.
    """
    clear_profile_cache()
    obs.enable(reset=True)
    kwargs = dict(no_cache=True, jobs=2, pool=pool, retries=1,
                  fault_plan=fault_plan)
    if telemetry_dir is not None:
        kwargs.update(
            events_out=os.path.join(str(telemetry_dir), "events.jsonl"),
            heartbeat=0.05,
        )
    kwargs.update(extra)
    rows = NeedlePipeline(options=PipelineOptions(**kwargs)) \
        .evaluate_all(_suite())
    semantic = export.semantic_json(None)
    obs.disable()
    obs.registry().clear()
    return [_flatten(r) for r in rows], semantic


# -- byte-identity, telemetry on vs off ---------------------------------------


@pytest.mark.parametrize("pool", ["serial", "process", "thread"])
def test_semantic_output_identical_with_telemetry_on(pool, tmp_path):
    base_rows, base_sem = _sweep(pool)
    live_rows, live_sem = _sweep(pool, telemetry_dir=tmp_path)
    assert live_rows == base_rows
    assert live_sem == base_sem
    # the telemetry actually ran: the log folds to a terminal state
    progress = load_progress(str(tmp_path / "events.jsonl"))
    assert progress["state"] == "finished"
    assert progress["done"] == len(SUBSET) == progress["total"]


@pytest.mark.chaos
@pytest.mark.parametrize("pool", ["serial", "process", "thread"])
def test_semantic_output_identical_under_crash_plan(pool, tmp_path):
    plan = FaultPlan(seed=11, specs=(
        FaultSpec(site=SITE_WORKER_CRASH, key="164.gzip", times=-1),
    ))
    base_rows, base_sem = _sweep(pool, fault_plan=plan)
    live_rows, live_sem = _sweep(pool, fault_plan=plan,
                                 telemetry_dir=tmp_path)
    assert live_rows == base_rows
    assert live_sem == base_sem
    progress = load_progress(str(tmp_path / "events.jsonl"))
    assert progress["quarantined"] == ["164.gzip"]
    kinds = {json.loads(line)["kind"]
             for line in (tmp_path / "events.jsonl").read_text().splitlines()}
    assert "quarantined" in kinds and "retry" in kinds


# -- the event stream itself --------------------------------------------------


def test_pooled_sweep_emits_gapless_lifecycle_and_heartbeats(tmp_path):
    # a bounded hang holds one task for several 50 ms beats, so a beat
    # surfaces however fast the rest of the sweep runs
    plan = FaultPlan(seed=3, specs=(
        FaultSpec(site=SITE_WORKER_HANG, key=SUBSET[0],
                  payload={"seconds": 0.3}),
    ))
    _sweep("thread", fault_plan=plan, telemetry_dir=tmp_path)
    lines = (tmp_path / "events.jsonl").read_text().splitlines()
    events = [json.loads(line) for line in lines]
    assert [e["seq"] for e in events] == list(range(len(events)))
    kinds = [e["kind"] for e in events]
    assert kinds[0] == "run_started"
    assert kinds[-1] == "run_finished"
    for name in SUBSET:
        assert {"task_scheduled", "task_started", "task_finished"} <= {
            e["kind"] for e in events if e["key"] == name
        }
    beats = [e for e in events if e["kind"] == "worker_heartbeat"]
    assert beats, "a 50ms heartbeat must surface during a 300ms hang"
    for beat in beats:
        assert beat["data"]["worker"].startswith("thread-")
        assert beat["data"]["elapsed"] >= 0


def test_sweep_leaves_no_ambient_bus_behind(tmp_path):
    assert ev.active() is None
    _sweep("serial", telemetry_dir=tmp_path)
    assert ev.active() is None


# -- resumed sweeps report cumulative progress --------------------------------


def test_resumed_sweep_reports_cumulative_progress(tmp_path):
    """Journal-restored workloads count as completed in the folded log.

    First pass: a journaled sweep in which one workload is quarantined
    by an always-crash plan (so the journal holds the other two).
    Second pass: resume without the plan, with telemetry on — the two
    restored workloads must show up as done+resumed, the re-run one as
    live progress, and ``repro top`` must render the cumulative view.
    """
    journal_dir = tmp_path / "journal"
    plan = FaultPlan(seed=7, specs=(
        FaultSpec(site=SITE_WORKER_CRASH, key="470.lbm", times=-1),
    ))
    clear_profile_cache()
    first = PipelineOptions(no_cache=True, jobs=2, pool="thread", retries=0,
                            journal_dir=str(journal_dir), run_id="tele",
                            fault_plan=plan)
    NeedlePipeline(options=first).evaluate_all(_suite())

    events_path = tmp_path / "events.jsonl"
    clear_profile_cache()
    second = PipelineOptions(no_cache=True, jobs=2, pool="thread", retries=0,
                             journal_dir=str(journal_dir), resume="tele",
                             events_out=str(events_path))
    rows = NeedlePipeline(options=second).evaluate_all(_suite())
    assert not any(hasattr(r, "kind") for r in rows)  # all healthy now

    progress = load_progress(str(events_path))
    assert progress["run_id"] == "tele"
    assert progress["state"] == "finished"
    assert progress["total"] == len(SUBSET)
    assert progress["done"] == len(SUBSET)   # cumulative, not this-run-only
    assert progress["resumed"] == len(SUBSET) - 1

    screen = render_top(progress)
    assert "3/3 (100%)" in screen
    assert "resumed from journal: 2 workloads" in screen
