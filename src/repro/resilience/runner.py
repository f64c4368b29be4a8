"""Fail-safe suite execution: the pool fan-out that survives its workers.

A bare pool is brittle in exactly the ways a long suite sweep cannot
afford: one worker exception unwinds the whole run, one hung workload
stalls it forever, and one hard-killed child used to break the whole
``ProcessPoolExecutor`` and poison every in-flight future.
:func:`run_failsafe` wraps the fan-out so the sweep *always completes*:

* **per-task timeouts** — a task past its deadline is charged a
  ``timeout`` failure and *only its* worker is evicted (killed or
  abandoned) and replaced; other in-flight tasks keep running;
* **bounded retries** — each failed attempt backs off exponentially
  with deterministic seeded jitter before the task runs again;
* **crash blame** — pool workers announce each task before executing
  it, so when one dies the backend knows exactly which task it was
  running and charges a ``crash`` to that task alone (named in the
  log); the one-at-a-time "careful mode" survives only as the fallback
  for :class:`~repro.exec.PoolBroken` — a backend failure with no task
  to blame — and is counted via ``resilience.careful_mode_entries``;
* **quarantine** — a task that exhausts its retries is replaced in the
  result list by a structured :class:`WorkloadFailure` record, and the
  sweep moves on.

Where tasks run is the caller's choice: the runner drives any
:class:`repro.exec.Pool` (``pool="serial" | "process" | "thread"``, a
backend name or an instance) with identical retry/quarantine/blame
semantics — the serial backend simply has no preemption, so deadlines
are not enforced there (a thread cannot interrupt itself).

Blame is only ever assigned on evidence (an exception from the task
itself, its own missed deadline, or a worker found dead beneath it),
which is what makes the final record set a deterministic function of
the workloads and the installed :class:`~repro.resilience.faults.FaultPlan`
— rerunning a chaos scenario with the same seed reproduces the same
outcome, byte for byte.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .. import obs
from ..exec.pools import Pool, PoolBroken, WorkerCrashed, make_pool
from ..obs import events as bus
from . import faults as _faults
from .faults import FaultPlan, _unit
from .shutdown import DrainController, SweepDrained

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FailurePolicy:
    """How the runner reacts when a task misbehaves.

    ``timeout``       per-attempt wall-clock budget in seconds (``None``
                      = unlimited; preemptive pools only — a serial run
                      cannot interrupt its own thread).
    ``retries``       failed attempts retried before quarantine, so a
                      task runs at most ``retries + 1`` times.
    ``backoff_base``  first-retry delay; doubles per attempt.
    ``backoff_cap``   upper bound on any single delay.
    ``fail_fast``     propagate the first failure as
                      :class:`WorkloadExecutionError` instead of
                      retrying/quarantining (the pre-resilience crash
                      behaviour, now with the workload name attached).
    ``seed``          jitter seed; chaos runs reuse the fault plan's.
    ``max_total_failures``        circuit breaker: trip after this many
                      failed attempts across the whole sweep (``None``
                      = never) — a doomed suite aborts instead of
                      grinding through every retry budget.
    ``max_consecutive_failures``  trip after this many failed attempts
                      with no success in between (a success resets the
                      streak).  Tripping quarantines all outstanding
                      work as ``kind="aborted"`` records and journals
                      the abort when a run journal is attached.
    """

    timeout: Optional[float] = None
    retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    fail_fast: bool = False
    seed: int = 0
    max_total_failures: Optional[int] = None
    max_consecutive_failures: Optional[int] = None

    def breaker_reason(self, total: int, consecutive: int) -> Optional[str]:
        """Why the circuit breaker trips at these counts (``None`` = no)."""
        if self.max_total_failures is not None and \
                total >= self.max_total_failures:
            return "max_total_failures=%d reached" % self.max_total_failures
        if self.max_consecutive_failures is not None and \
                consecutive >= self.max_consecutive_failures:
            return ("max_consecutive_failures=%d reached"
                    % self.max_consecutive_failures)
        return None

    def backoff(self, failed_attempts: int, key: str) -> float:
        """Delay before the next attempt of ``key`` (deterministic)."""
        if self.backoff_base <= 0:
            return 0.0
        delay = min(self.backoff_cap, self.backoff_base * (2 ** max(0, failed_attempts - 1)))
        # +-25% seeded jitter de-synchronises retry herds without
        # sacrificing replayability
        return delay * (0.75 + 0.5 * _unit(self.seed, "backoff", key, failed_attempts))


@dataclass
class WorkloadFailure:
    """Structured record of a task that exhausted its failure budget.

    Appears in suite results *in place of* the evaluation it failed to
    produce, so ``zip(workloads, results)`` stays aligned.  Fields are
    deliberately wall-clock-free: the record of a seeded chaos run is
    bit-identical across reruns — and across pool backends, which all
    normalise a dead worker to the same :class:`WorkerCrashed` error.
    """

    workload: str
    kind: str  #: ``exception`` | ``timeout`` | ``crash`` | ``aborted``
    attempts: int
    error_type: str = ""
    error: str = ""

    @property
    def name(self) -> str:
        return self.workload

    @property
    def ok(self) -> bool:
        return False


class WorkloadExecutionError(RuntimeError):
    """A task failure surfaced under ``fail_fast`` (names its workload)."""

    def __init__(self, workload: str, kind: str):
        super().__init__("workload %r failed (%s)" % (workload, kind))
        self.workload = workload
        self.kind = kind


def split_failures(results: Sequence) -> Tuple[list, List[WorkloadFailure]]:
    """Partition mixed suite results into (successes, failures)."""
    good, bad = [], []
    for r in results:
        (bad if isinstance(r, WorkloadFailure) else good).append(r)
    return good, bad


class _Task:
    """Mutable per-item scheduling state."""

    __slots__ = ("index", "item", "key", "attempt", "ticket", "not_before")

    def __init__(self, index, item, key):
        self.index = index
        self.item = item
        self.key = key
        self.attempt = 0  #: failed attempts so far
        self.ticket = None  #: pool ticket while in flight
        self.not_before = 0.0


def _default_key(item) -> str:
    return getattr(item, "name", str(item))


def run_failsafe(
    task: Callable,
    items: Sequence,
    *,
    jobs: Optional[int] = None,
    pool=None,
    policy: Optional[FailurePolicy] = None,
    task_args: tuple = (),
    plan: Optional[FaultPlan] = None,
    key_fn: Callable = _default_key,
    on_result: Optional[Callable] = None,
    on_event: Optional[Callable] = None,
    drain: Optional[DrainController] = None,
    heartbeat: Optional[float] = None,
    stall_after: Optional[float] = None,
) -> List:
    """Run ``task(item, *task_args, plan, attempt)`` for every item.

    ``pool`` selects where tasks run: a backend name from
    :data:`repro.exec.POOL_BACKENDS`, an already-built
    :class:`repro.exec.Pool` instance, or ``None`` for the historical
    default (warm worker processes, ``jobs`` wide).  ``task`` must be a
    module-level callable for the process backend (it is pickled by
    reference); the serial and thread backends accept any callable.

    Returns one entry per item, in item order: the task's return value,
    or a :class:`WorkloadFailure`.  ``on_result`` fires as each success
    lands — before any later failure can abort the sweep — so callers
    can fold in side data (obs snapshots) without losing the work
    already done.

    ``on_event(event, key, **data)`` receives lifecycle notifications —
    ``attempt_started`` (at submission, so a journal records intent
    before execution; at-least-once under careful-mode resubmission),
    ``quarantined`` and ``circuit_open``.  ``drain`` attaches a
    :class:`~repro.resilience.shutdown.DrainController`: once a drain is
    requested, no new work is submitted and the runner waits (bounded by
    the controller's timeout) for in-flight tasks, then raises
    :class:`~repro.resilience.shutdown.SweepDrained` listing the
    outstanding keys.  On every exit path — clean, drained, interrupted
    — the pool is closed and the caller thread's ambient fault injector
    is restored.

    ``heartbeat`` (seconds) turns on worker heartbeats where the
    backend supports them (preemptive pools): each worker reports its
    running (task, elapsed) on that period, surfaced as
    ``worker_heartbeat`` events on the ambient event bus.  A worker
    silent for longer than ``stall_after`` seconds (default 5x the
    heartbeat period) is flagged once per attempt with a
    ``worker_stalled`` event and an ``obs.worker_stalled`` counter —
    advisory visibility that *complements* the hang-deadline eviction
    above, never replaces it.  All of it is wall-clock telemetry with
    no influence on scheduling, retries or results.
    """
    items = list(items)
    policy = policy or FailurePolicy()
    results: List[object] = [None] * len(items)
    tasks = [_Task(i, item, key_fn(item)) for i, item in enumerate(items)]
    incomplete = {t.index: t for t in tasks}

    emit = on_event if on_event is not None else (lambda event, key, **d: None)

    if isinstance(pool, Pool):
        backend = pool
    else:
        width = max(1, min(jobs if jobs is not None else 1, max(1, len(items))))
        backend = make_pool(pool if pool is not None else "process", jobs=width)

    pending: Dict[int, _Task] = {}  # ticket -> task
    careful = False  # one-at-a-time after an unattributable pool failure
    total_failures = 0
    consecutive_failures = 0
    trip_reason: Optional[str] = None
    draining = False
    drain_started = drain_deadline = 0.0

    def enter_careful(why: BaseException) -> None:
        nonlocal careful
        for t in pending.values():
            t.ticket = None
        pending.clear()
        try:
            backend.reset()
        except Exception:
            pass
        if obs.enabled():
            obs.counter("resilience.careful_mode_entries", 1,
                        help="pool failures with no task to blame; "
                             "outstanding work rerun one task at a time")
        log.warning(
            "pool %r broke with no task to blame (%s); entering careful "
            "mode: %d outstanding task(s) rerun one at a time",
            backend.name, why, len(incomplete))
        careful = True

    def charge(t: _Task, kind: str, exc: Optional[BaseException]) -> None:
        """One failed attempt for ``t``: retry with backoff or quarantine."""
        nonlocal total_failures, consecutive_failures, trip_reason
        t.attempt += 1
        t.ticket = None
        total_failures += 1
        consecutive_failures += 1
        if policy.fail_fast:
            raise WorkloadExecutionError(t.key, kind) from exc
        if t.attempt > policy.retries:
            results[t.index] = WorkloadFailure(
                workload=t.key,
                kind=kind,
                attempts=t.attempt,
                error_type=type(exc).__name__ if exc is not None else "",
                error=str(exc) if exc is not None else "",
            )
            del incomplete[t.index]
            emit("quarantined", t.key, kind=kind, attempts=t.attempt,
                 error_type=type(exc).__name__ if exc is not None else "")
            bus.publish(bus.QUARANTINED, t.key, kind=kind,
                        attempts=t.attempt)
            if obs.enabled():
                obs.counter("resilience.quarantined", 1,
                            help="tasks that exhausted their retry budget",
                            kind=kind)
        else:
            t.not_before = time.monotonic() + policy.backoff(t.attempt, t.key)
            bus.publish(bus.RETRY, t.key, kind=kind, attempt=t.attempt)
            if obs.enabled():
                obs.counter("resilience.retries", 1,
                            help="failed attempts scheduled for retry",
                            kind=kind)
        if trip_reason is None:
            trip_reason = policy.breaker_reason(
                total_failures, consecutive_failures)

    deadlines = policy.timeout is not None and backend.preemptive

    # -- live telemetry (advisory; publish() no-ops without a bus) ---------
    beats_on = bool(heartbeat) and backend.preemptive \
        and hasattr(backend, "set_heartbeat")
    if beats_on:
        backend.set_heartbeat(heartbeat)
        beats_on = backend.heartbeat_period is not None
    stall_deadline = None
    if beats_on:
        stall_deadline = (float(stall_after) if stall_after
                          else 5.0 * float(heartbeat))
    started_pub: set = set()   # tickets whose task_started went out
    last_beats: Dict[int, float] = {}
    stalled: set = set()

    def fold_telemetry(now: float) -> None:
        """Publish task_started / worker_heartbeat / worker_stalled."""
        running = backend.running()
        for ticket, started in running.items():
            t = pending.get(ticket)
            if t is None or ticket in started_pub:
                continue
            started_pub.add(ticket)
            bus.publish(bus.TASK_STARTED, t.key, attempt=t.attempt + 1)
        if not beats_on:
            return
        hb = backend.heartbeats()
        for ticket, (seen, payload, worker_name) in hb.items():
            t = pending.get(ticket)
            if t is None:
                continue
            if last_beats.get(ticket) != seen:
                last_beats[ticket] = seen
                stalled.discard(ticket)  # a fresh beat clears the flag
                bus.publish(
                    bus.WORKER_HEARTBEAT, t.key, worker=worker_name,
                    task=t.key, elapsed=payload.get("elapsed", 0.0))
        for ticket, started in running.items():
            t = pending.get(ticket)
            if t is None or ticket in stalled:
                continue
            last = max(last_beats.get(ticket, started), started)
            silent = now - last
            if silent > stall_deadline:
                stalled.add(ticket)
                worker_name = hb[ticket][2] if ticket in hb else ""
                bus.publish(bus.WORKER_STALLED, t.key, worker=worker_name,
                            silent_for=round(silent, 3),
                            attempt=t.attempt + 1)
                if obs.enabled():
                    obs.counter("obs.worker_stalled", 1,
                                help="workers silent past the heartbeat "
                                     "stall threshold (advisory)")
                log.warning(
                    "worker %s silent for %.1fs under task %r "
                    "(heartbeat %.3gs, stall threshold %.3gs)",
                    worker_name or "?", silent, t.key,
                    backend.heartbeat_period, stall_deadline)

    def drop_telemetry(ticket: int) -> None:
        started_pub.discard(ticket)
        last_beats.pop(ticket, None)
        stalled.discard(ticket)

    ambient = _faults.active()
    backend.start()
    try:
        while incomplete:
            now = time.monotonic()

            if drain is not None and not draining and drain.requested():
                draining = True
                drain_started = now
                drain_deadline = now + drain.timeout
                log.warning(
                    "shutdown requested: draining %d in-flight task(s) "
                    "(%d outstanding, %.1fs deadline)",
                    len(pending), len(incomplete), drain.timeout)

            if trip_reason is not None:
                break
            if draining and (not pending or now >= drain_deadline):
                break

            # submit eligible tasks in deterministic index order; careful
            # mode keeps exactly one in flight; a draining sweep submits
            # nothing more (retries included)
            try:
                if not draining:
                    for t in sorted(incomplete.values(), key=lambda t: t.index):
                        if t.ticket is not None or t.not_before > now:
                            continue
                        if careful and pending:
                            break
                        emit("attempt_started", t.key, attempt=t.attempt)
                        bus.publish(bus.TASK_SCHEDULED, t.key,
                                    attempt=t.attempt + 1)
                        t.ticket = backend.submit(
                            task,
                            (t.item,) + tuple(task_args) + (plan, t.attempt),
                            key=t.key)
                        pending[t.ticket] = t
                        if careful:
                            break
            except PoolBroken as exc:
                enter_careful(exc)
                continue

            if not pending:
                if draining:
                    continue  # only backed-off retries left: drain now
                # everyone is backing off; sleep until the earliest retry
                wake = min(
                    t.not_before for t in incomplete.values() if t.ticket is None
                )
                delay = max(0.0, min(wake - now, policy.backoff_cap))
                if drain is not None:
                    # stay responsive to a drain request during backoff
                    delay = min(delay, 0.2)
                time.sleep(delay)
                continue

            horizon = []
            if deadlines:
                horizon += [
                    started + policy.timeout
                    for ticket, started in backend.running().items()
                    if ticket in pending
                ]
            horizon += [
                t.not_before
                for t in incomplete.values()
                if t.ticket is None and t.not_before > now
            ]
            wait_for = max(0.01, min(horizon) - now) if horizon else None
            if beats_on:
                # wake at least once per beat period so heartbeats fold
                # and stalls surface even when nothing completes
                period = backend.heartbeat_period
                wait_for = period if wait_for is None \
                    else min(wait_for, period)
            if drain is not None:
                # blocking waits are PEP 475-restarted after a signal
                # handler returns, so an unbounded wait would never
                # notice the drain flag; poll instead
                wait_for = 0.25 if wait_for is None else min(wait_for, 0.25)
                if draining:
                    wait_for = max(0.01, min(wait_for, drain_deadline - now))
            try:
                completions = backend.wait(wait_for)
            except PoolBroken as exc:
                enter_careful(exc)
                continue
            now = time.monotonic()
            if bus.active() is not None:
                fold_telemetry(now)

            if not completions:
                if not deadlines:
                    continue
                expired = [
                    pending[ticket]
                    for ticket, started in backend.running().items()
                    if ticket in pending and started + policy.timeout <= now
                ]
                if expired:
                    if obs.enabled():
                        obs.counter("resilience.timeouts", len(expired),
                                    help="attempts that exceeded the per-task "
                                         "deadline")
                    for t in expired:
                        ticket, t.ticket = t.ticket, None
                        pending.pop(ticket, None)
                        drop_telemetry(ticket)
                        # only the wedged task's worker dies; its queued
                        # neighbours are requeued by the pool, uncharged
                        backend.evict(ticket)
                        log.warning(
                            "task %r exceeded its %.3gs deadline "
                            "(attempt %d); worker evicted",
                            t.key, policy.timeout, t.attempt)
                        charge(t, "timeout", None)
                continue

            for c in completions:
                t = pending.pop(c.ticket, None)
                if t is None:
                    continue  # stale: lost a race with a timeout charge
                t.ticket = None
                drop_telemetry(c.ticket)
                if c.error is None:
                    results[t.index] = c.result
                    del incomplete[t.index]
                    consecutive_failures = 0
                    if on_result is not None:
                        on_result(t.item, results[t.index])
                    bus.publish(bus.TASK_FINISHED, t.key, ok=True,
                                attempts=t.attempt + 1, worker=c.worker)
                elif isinstance(c.error, WorkerCrashed):
                    log.warning(
                        "worker crash blamed on workload %r "
                        "(attempt %d, %s)", t.key, t.attempt, c.error)
                    charge(t, "crash", c.error)
                else:
                    charge(t, "exception", c.error)

        if trip_reason is not None and incomplete:
            outstanding = sorted(t.key for t in incomplete.values())
            log.error(
                "circuit breaker tripped (%s): aborting %d outstanding "
                "task(s)", trip_reason, len(outstanding))
            if obs.enabled():
                obs.counter("resilience.circuit_breaker_trips", 1,
                            help="sweeps aborted by the failure circuit "
                                 "breaker")
            emit("circuit_open", "", reason=trip_reason,
                 outstanding=outstanding)
            for t in list(incomplete.values()):
                results[t.index] = WorkloadFailure(
                    workload=t.key, kind="aborted", attempts=t.attempt,
                    error_type="CircuitBreaker", error=trip_reason)
                del incomplete[t.index]
        elif draining and incomplete:
            drain_seconds = time.monotonic() - drain_started
            if obs.enabled():
                obs.gauge("resilience.drain_seconds", drain_seconds,
                          help="wall time spent draining in-flight tasks "
                               "after a shutdown request")
            raise SweepDrained(
                outstanding=sorted(t.key for t in incomplete.values()),
                completed=len(items) - len(incomplete),
                drain_seconds=drain_seconds)
    finally:
        # every exit path — clean, drained, fail_fast, KeyboardInterrupt —
        # restores the caller's ambient fault injector and closes the pool
        if _faults.active() is not ambient:
            _faults.restore(ambient)
        try:
            backend.close(graceful=not pending)
        except BaseException:
            log.debug("pool close failed during teardown", exc_info=True)

    return results


__all__ = [
    "FailurePolicy",
    "WorkloadExecutionError",
    "WorkloadFailure",
    "run_failsafe",
    "split_failures",
]
