"""The backend-agnostic pool layer (`repro.exec`).

Locks the tentpole contract of the pool redesign: suite output is
byte-identical on every backend — evaluation records, semantic metrics
and the attribution ledger, healthy or under an injected fault plan —
while warm workers are actually reused, unattributable pool failures
fall back to counted careful-mode reruns, and crash blame names the
workload it charged.
"""

import json
import logging
import os
import threading

import pytest

from repro import obs
from repro.exec import (
    POOL_BACKENDS,
    Pool,
    ProcessPool,
    SerialPool,
    ThreadPool,
    make_pool,
)
from repro.exec import worker as exec_worker
from repro.exec.pools import PoolBroken
from repro.obs import export
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.resilience.faults import SITE_WORKER_CRASH, FaultPlan, FaultSpec
from repro.resilience.runner import FailurePolicy, run_failsafe
from repro.workloads import get
from repro.workloads.base import clear_profile_cache

SUBSET = ["164.gzip", "470.lbm", "dwt53"]

#: fast retry pacing for toy scenarios
FAST = dict(backoff_base=0.01, backoff_cap=0.05)


def _suite(names=SUBSET):
    return [get(n) for n in names]


def _outcome_fields(outcome):
    return None if outcome is None else vars(outcome).copy()


def _flatten(row):
    """Everything an evaluation (or failure record) carries, comparable."""
    if not hasattr(row, "summary"):
        return vars(row).copy()  # WorkloadFailure dataclass
    return {
        "summary": vars(row.summary).copy(),
        "path_oracle": _outcome_fields(row.path_oracle),
        "path_history": _outcome_fields(row.path_history),
        "braid": _outcome_fields(row.braid),
        "hls": _outcome_fields(row.hls),
        "braid_schedule": _outcome_fields(row.braid_schedule),
    }


# -- construction and selection ------------------------------------------------


def test_backend_registry_and_make_pool():
    assert POOL_BACKENDS == ("serial", "process", "thread")
    assert isinstance(make_pool("serial", jobs=1), SerialPool)
    assert isinstance(make_pool("process", jobs=2), ProcessPool)
    assert isinstance(make_pool("thread", jobs=2), ThreadPool)
    for backend in POOL_BACKENDS:
        assert isinstance(make_pool(backend, jobs=2), Pool)
    with pytest.raises(ValueError, match="unknown pool backend"):
        make_pool("fibers", jobs=2)


def test_env_var_steers_backend_selection(monkeypatch):
    monkeypatch.setenv("REPRO_POOL", "thread")
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True))
    assert pipe._execution_plan(4, 4) == ("thread", 4)
    # an explicit option beats the environment
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True, pool="process"))
    assert pipe._execution_plan(4, 4) == ("process", 4)


# -- cross-backend byte-identity -----------------------------------------------


def _sweep(pool, fault_plan=None):
    """(flattened rows, semantic-metrics JSON) for one pooled sweep."""
    clear_profile_cache()
    obs.enable(reset=True)
    opts = PipelineOptions(
        no_cache=True, jobs=2, pool=pool, retries=1, fault_plan=fault_plan,
    )
    rows = NeedlePipeline(options=opts).evaluate_all(_suite())
    semantic = export.semantic_json(None)
    obs.disable()
    obs.registry().clear()
    return [_flatten(r) for r in rows], semantic


def test_evaluations_metrics_and_ledger_identical_across_backends():
    serial_rows, serial_sem = _sweep("serial")
    for backend in ("process", "thread"):
        rows, sem = _sweep(backend)
        assert rows == serial_rows, backend
        # semantic_json embeds the attribution ledger, so this is the
        # metrics *and* ledger byte-identity check in one comparison
        assert sem == serial_sem, backend
    assert json.loads(serial_sem)["ledger"]["entries"]


@pytest.mark.chaos
def test_quarantine_records_identical_across_backends_under_crash_plan():
    plan = FaultPlan(seed=11, specs=(
        FaultSpec(site=SITE_WORKER_CRASH, key="164.gzip", times=-1),
    ))
    serial_rows, serial_sem = _sweep("serial", fault_plan=plan)
    crashed = serial_rows[0]
    assert (crashed["kind"], crashed["attempts"]) == ("crash", 2)
    assert crashed["error"] == "worker exited with code 13"
    for backend in ("process", "thread"):
        rows, sem = _sweep(backend, fault_plan=plan)
        assert rows == serial_rows, backend
        assert sem == serial_sem, backend


# -- warm worker reuse ---------------------------------------------------------


def _where(item, plan, attempt):
    """Picklable probe: which worker (pid, thread) ran this task?"""
    return (os.getpid(), threading.get_ident(), exec_worker.kind())


@pytest.mark.parametrize("backend,kind", [
    ("serial", "serial"), ("thread", "thread"), ("process", "process"),
])
def test_workers_stay_warm_across_many_tasks(backend, kind):
    rows = run_failsafe(_where, list(range(8)), jobs=2, pool=backend)
    assert len(rows) == 8
    assert {k for _p, _t, k in rows} == {kind}
    workers = {(p, t) for p, t, _k in rows}
    # 8 tasks never see more than the 2 pool workers: nothing respawned,
    # nothing spun up per task
    assert len(workers) <= (1 if backend == "serial" else 2)
    if backend == "process":
        assert os.getpid() not in {p for p, _t, _k in rows}
    else:
        assert {p for p, _t, _k in rows} == {os.getpid()}


# -- careful-mode fallback and blame ------------------------------------------


class _FlakyPool(SerialPool):
    """A backend that breaks once with nothing to blame, then recovers."""

    def __init__(self):
        super().__init__(jobs=1)
        self.broke = False

    def wait(self, timeout=None):
        if not self.broke:
            self.broke = True
            raise PoolBroken("transient backend failure")
        return super().wait(timeout)


def test_unattributable_pool_failure_enters_counted_careful_mode(caplog):
    obs.enable(reset=True)
    with caplog.at_level(logging.WARNING, logger="repro.resilience.runner"):
        rows = run_failsafe(
            lambda item, plan, attempt: "ok:%s" % item, ["a", "b"],
            pool=_FlakyPool(), policy=FailurePolicy(**FAST),
        )
    assert rows == ["ok:a", "ok:b"]  # no task was charged for the break
    entries = obs.registry().get("resilience.careful_mode_entries")
    assert entries is not None
    assert sum(v for _k, v in entries.series()) == 1
    assert any("careful mode" in r.getMessage() for r in caplog.records)
    obs.disable()
    obs.registry().clear()


def _crash_once(item, plan, attempt):
    if item == "b" and attempt == 0:
        exec_worker.crash(11)
    return "ok:%s:%d" % (item, attempt)


def test_crash_blame_log_names_the_workload(caplog):
    with caplog.at_level(logging.WARNING, logger="repro.resilience.runner"):
        rows = run_failsafe(
            _crash_once, ["a", "b"], jobs=2, pool="process",
            policy=FailurePolicy(retries=1, **FAST),
        )
    assert rows == ["ok:a:0", "ok:b:1"]
    blames = [
        r.getMessage() for r in caplog.records
        if "worker crash blamed on workload" in r.getMessage()
    ]
    assert blames and all("'b'" in m for m in blames)
