"""NeedlePipeline: the end-to-end flow of Figure 1.

Step 1 — *what to specialise*: profile the workload, rank Ball–Larus paths
by Pwt, and merge same-entry/exit paths into Braids.

Step 2 — *software frames*: lower the chosen region (top path or top Braid)
into a guarded, fully speculative frame.

Step 3 — *accelerator design analysis*: map the frame onto the Table V CGRA,
simulate whole-workload offload under Oracle and history invocation
prediction, and price energy — producing exactly the per-workload numbers
behind Figs. 9 and 10, plus the HLS feasibility estimate of §VI.

Suite sweeps scale two ways:

* ``PipelineOptions(jobs=N, pool=...)`` shards the suite across a
  :mod:`repro.exec` worker pool — warm forked processes by default,
  threads or inline-serial by choice (``--pool`` / ``$REPRO_POOL``);
  results come back in deterministic suite order regardless of which
  worker finished first, and are bitwise-identical across backends.
  Evaluation records are flat, picklable summaries, and workers ship
  *delta* memo snapshots, so per-task transport stays compact.
* an optional :class:`~repro.artifacts.ArtifactCache` persists profiles
  and evaluation summaries on disk keyed by (IR text, run args, config,
  format version), so a second CLI/bench/test run skips re-profiling
  entirely.

Suite sweeps are *fail-safe*: instead of a bare fan-out that dies with
its first worker, every path (the serial one included) runs through
:mod:`repro.resilience` — per-workload timeouts, bounded retries with
seeded backoff, precise dead-worker blame with single-worker respawn,
and quarantine.  A sweep always returns one entry per workload: the
evaluation, or a structured
:class:`~repro.resilience.WorkloadFailure` record.  ``fail_fast=True``
restores propagate-first-error semantics, now with the workload name
attached (:class:`~repro.resilience.WorkloadExecutionError`).
"""

from __future__ import annotations

import contextlib
import functools
import logging
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from . import obs
from .accel.cgra import CGRAScheduler, ScheduleResult
from .accel.hls import HLSEstimator, HLSReport
from .artifacts import (
    EVALUATION_KIND,
    ArtifactCache,
    config_fingerprint,
    workload_key,
)
from .exec import worker as _exec_worker
from .exec.pools import SerialPool
from .frames.frame import Frame, build_frame
from .obs.instruments import publish_workload_evaluation
from .options import PipelineOptions, validate_pool
from .profiling.ranking import RankedPath, rank_paths
from .resilience import faults as _faults
from .resilience.faults import (
    SITE_WORKER_CRASH,
    SITE_WORKER_EXCEPTION,
    SITE_WORKER_HANG,
    FaultInjected,
    FaultPlan,
)
from .resilience.journal import (
    JournalError,
    RunJournal,
    resolve_journal_dir,
    sweep_fingerprint,
)
from .resilience.runner import (
    WorkloadExecutionError,
    WorkloadFailure,
    run_failsafe,
)
from .resilience.shutdown import (
    DrainController,
    SweepDrained,
    drain_on_signals,
)
from .regions.braid import Braid, build_braids
from .regions.path_region import path_to_region
from .sim.config import DEFAULT_CONFIG, SystemConfig
from .sim.memo import SimulationMemo
from .sim.offload import OffloadOutcome, OffloadSimulator
from .sim.trace_kernels import KERNEL_MODE_LABELS
from .workloads.base import ProfiledWorkload, Workload, profile_workload

log = logging.getLogger(__name__)


@dataclass
class WorkloadAnalysis:
    """Step 1 + 2 products for one workload."""

    profiled: ProfiledWorkload
    ranked: List[RankedPath]
    braids: List[Braid]
    path_frame: Optional[Frame]
    braid_frame: Optional[Frame]

    @property
    def name(self) -> str:
        return self.profiled.workload.name

    @property
    def top_path(self) -> Optional[RankedPath]:
        return self.ranked[0] if self.ranked else None

    @property
    def top_braid(self) -> Optional[Braid]:
        return self.braids[0] if self.braids else None


@dataclass
class FrameSummary:
    """Flat record of a frame's shape (no IR references)."""

    op_count: int
    compute_op_count: int
    guard_count: int
    psi_count: int
    live_in_count: int
    live_out_count: int
    store_count: int

    @classmethod
    def from_frame(cls, frame: Frame) -> "FrameSummary":
        return cls(
            op_count=frame.op_count,
            compute_op_count=frame.compute_op_count,
            guard_count=frame.guard_count,
            psi_count=len(frame.psis),
            live_in_count=len(frame.live_ins),
            live_out_count=len(frame.live_outs),
            store_count=frame.store_count,
        )


@dataclass
class ScheduleSummary:
    """Flat record of a CGRA schedule (no ScheduledOp/IR references)."""

    cycles: int
    n_configs: int
    initiation_interval: int
    resource_ii: int
    recurrence_ii: int
    total_ops: int
    int_ops: int
    fp_ops: int
    mem_ops: int
    guard_ops: int
    edges: int
    fu_utilization: float
    ilp: float

    @classmethod
    def from_schedule(cls, sched: ScheduleResult) -> "ScheduleSummary":
        return cls(
            cycles=sched.cycles,
            n_configs=sched.n_configs,
            initiation_interval=sched.initiation_interval,
            resource_ii=sched.resource_ii,
            recurrence_ii=sched.recurrence_ii,
            total_ops=sched.total_ops,
            int_ops=sched.int_ops,
            fp_ops=sched.fp_ops,
            mem_ops=sched.mem_ops,
            guard_ops=sched.guard_ops,
            edges=sched.edges,
            fu_utilization=sched.fu_utilization,
            ilp=sched.ilp,
        )


@dataclass
class AnalysisSummary:
    """Flat, picklable record of the step-1/2 analysis of one workload."""

    name: str
    suite: str
    flavor: str
    executed_paths: int
    total_executions: int
    top_path_coverage: float
    top_path_ops: int
    braid_n_paths: int
    braid_coverage: float
    path_frame: Optional[FrameSummary]
    braid_frame: Optional[FrameSummary]
    #: dynamic instructions / memory events of the profiling run, carried
    #: on the record so cache-served evaluations report the same semantic
    #: counters as cold runs (the obs determinism contract)
    dynamic_instructions: int = 0
    memory_events: int = 0

    @classmethod
    def from_analysis(cls, analysis: WorkloadAnalysis) -> "AnalysisSummary":
        w = analysis.profiled.workload
        top = analysis.top_path
        braid = analysis.top_braid
        return cls(
            name=w.name,
            suite=w.suite,
            flavor=w.flavor,
            executed_paths=analysis.profiled.paths.executed_paths,
            total_executions=analysis.profiled.paths.total_executions,
            dynamic_instructions=analysis.profiled.trace.dynamic_instructions,
            memory_events=len(analysis.profiled.trace.memory),
            top_path_coverage=top.coverage if top else 0.0,
            top_path_ops=top.ops if top else 0,
            braid_n_paths=braid.n_paths if braid else 0,
            braid_coverage=braid.coverage if braid else 0.0,
            path_frame=(
                FrameSummary.from_frame(analysis.path_frame)
                if analysis.path_frame is not None
                else None
            ),
            braid_frame=(
                FrameSummary.from_frame(analysis.braid_frame)
                if analysis.braid_frame is not None
                else None
            ),
        )


@dataclass
class WorkloadEvaluation:
    """Step 3 products: the Fig. 9 / Fig. 10 data points.

    Every field is a flat summary dataclass, so evaluations pickle cheaply
    — that is what lets a ``jobs=N`` sweep ship them between worker
    processes and the artifact cache persist them verbatim.
    """

    summary: AnalysisSummary
    path_oracle: Optional[OffloadOutcome]
    path_history: Optional[OffloadOutcome]
    braid: Optional[OffloadOutcome]
    hls: Optional[HLSReport]
    braid_schedule: Optional[ScheduleSummary]

    @property
    def name(self) -> str:
        return self.summary.name

    @property
    def flavor(self) -> str:
        return self.summary.flavor


class NeedlePipeline:
    """Caches analyses/evaluations so every benchmark shares one pass.

    ``cache`` layers a persistent on-disk artifact store under the
    in-memory dictionaries: pass an :class:`ArtifactCache`, a directory
    path, or ``None`` (in-memory only, the default).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        cache: "Optional[ArtifactCache | str]" = None,
        options: Optional[PipelineOptions] = None,
    ):
        if options is not None:
            config = config or options.config
            if cache is None and not options.no_cache:
                cache = options.build_cache()
        self.options = options or PipelineOptions(config=config)
        self.config = config or DEFAULT_CONFIG
        if isinstance(cache, str):
            cache = ArtifactCache(cache)
        self.cache = cache
        # one simulation memo per pipeline: the three strategies of each
        # evaluation share calibration/path-cost/schedule sub-simulations,
        # and (with an artifact cache) the tables persist across runs
        self.sim_memo: Optional[SimulationMemo] = (
            None if self.options.no_sim_memo
            else SimulationMemo(cache=self.cache)
        )
        self.simulator = OffloadSimulator(
            self.config,
            memo=False if self.sim_memo is None else self.sim_memo,
            trace_kernels=self.options.trace_kernels,
        )
        self._analyses: Dict[str, WorkloadAnalysis] = {}
        self._evaluations: Dict[str, WorkloadEvaluation] = {}

    # -- step 1 + 2 -------------------------------------------------------------

    def analyse(self, workload: Workload) -> WorkloadAnalysis:
        cached = self._analyses.get(workload.name)
        if cached is not None:
            return cached
        with obs.span("analyse", workload=workload.name):
            profiled = profile_workload(workload, artifact_cache=self.cache)
            ranked = rank_paths(profiled.paths)
            # offload braids merge hot same-entry/exit paths only (cold
            # siblings would waste fabric area and energy under predication)
            braids = build_braids(
                profiled.function, ranked, min_weight_ratio=0.02
            )

            path_frame = None
            if ranked:
                path_frame = build_frame(
                    path_to_region(profiled.function, ranked[0])
                )
            braid_frame = None
            if braids:
                braid_frame = build_frame(braids[0].region)

        analysis = WorkloadAnalysis(
            profiled=profiled,
            ranked=ranked,
            braids=braids,
            path_frame=path_frame,
            braid_frame=braid_frame,
        )
        self._analyses[workload.name] = analysis
        return analysis

    # -- step 3 ---------------------------------------------------------------------

    def evaluate(self, workload: Workload) -> WorkloadEvaluation:
        cached = self._evaluations.get(workload.name)
        if cached is not None:
            return cached
        t0 = time.perf_counter()
        with obs.span("evaluate", workload=workload.name):
            evaluation = None
            source = "computed"
            key = None
            if self.cache is not None:
                key, _built = workload_key(workload, self.config)
                stored = self.cache.get(EVALUATION_KIND, key)
                if isinstance(stored, WorkloadEvaluation):
                    evaluation = stored
                    source = "artifact-cache"
            if evaluation is None:
                evaluation = self._evaluate_uncached(workload)
                if self.cache is not None and key is not None:
                    self.cache.put(EVALUATION_KIND, key, evaluation)
        if obs.enabled():
            obs.counter("pipeline.cache_outcome", 1,
                        help="where each evaluation record came from",
                        workload=workload.name, outcome=source)
            obs.gauge("pipeline.evaluate_seconds",
                      time.perf_counter() - t0,
                      help="wall time to produce one evaluation",
                      workload=workload.name)
            # recorded here as well as in the simulator so cache-served
            # evaluations still state which kernel tier is configured
            obs.gauge("sim.kernel_mode", 1.0,
                      help="which trace-kernel tier produced this "
                           "simulation (value is always 1; the label "
                           "carries the information)",
                      workload=workload.name,
                      mode=KERNEL_MODE_LABELS[self.simulator.trace_kernels])
            publish_workload_evaluation(evaluation)
        self._evaluations[workload.name] = evaluation
        return evaluation

    def _evaluate_uncached(self, workload: Workload) -> WorkloadEvaluation:
        analysis = self.analyse(workload)
        profiled = analysis.profiled

        # the profile's content key upgrades the simulation memo to
        # persistent, cross-process entries (None = identity keys only)
        akey = profiled.artifact_key

        path_oracle = path_history = braid_outcome = None
        if analysis.path_frame is not None:
            path_oracle = self.simulator.simulate_offload(
                workload.name,
                profiled.paths,
                analysis.path_frame,
                "oracle",
                profiled.trace,
                artifact_key=akey,
            )
            path_history = self.simulator.simulate_offload(
                workload.name,
                profiled.paths,
                analysis.path_frame,
                "history",
                profiled.trace,
                artifact_key=akey,
            )
        if analysis.braid_frame is not None:
            braid_outcome = self.simulator.simulate_offload(
                workload.name,
                profiled.paths,
                analysis.braid_frame,
                "oracle",
                profiled.trace,
                coverage=analysis.top_braid.coverage,
                artifact_key=akey,
            )

        hls = None
        braid_sched = None
        if analysis.braid_frame is not None:
            hls = HLSEstimator().estimate(analysis.braid_frame)
            braid_sched = ScheduleSummary.from_schedule(
                CGRAScheduler(self.config.cgra).schedule(analysis.braid_frame)
            )

        return WorkloadEvaluation(
            summary=AnalysisSummary.from_analysis(analysis),
            path_oracle=path_oracle,
            path_history=path_history,
            braid=braid_outcome,
            hls=hls,
            braid_schedule=braid_sched,
        )

    # -- simulated timelines ----------------------------------------------------------

    def timeline(self, workload: Workload) -> Dict[str, List]:
        """Simulated-cycle timelines, one track per offload strategy.

        Returns ``{strategy: [TimelineEvent, ...]}`` for the same three
        strategies :meth:`evaluate` prices, replayed through the offload
        simulator's segment charges — ready for
        :func:`repro.obs.timeline.chrome_trace` under track names like
        ``"<workload>/braid"``.
        """
        analysis = self.analyse(workload)
        profiled = analysis.profiled
        akey = profiled.artifact_key
        tracks: Dict[str, List] = {}
        with obs.span("timeline", workload=workload.name):
            if analysis.path_frame is not None:
                for kind in ("oracle", "history"):
                    tracks["bl-path-%s" % kind] = (
                        self.simulator.invocation_timeline(
                            workload.name, profiled.paths,
                            analysis.path_frame, kind,
                            profiled.trace, artifact_key=akey,
                        )
                    )
            if analysis.braid_frame is not None:
                tracks["braid"] = self.simulator.invocation_timeline(
                    workload.name, profiled.paths, analysis.braid_frame,
                    "oracle", profiled.trace, artifact_key=akey,
                )
        return tracks

    # -- suite sweeps -----------------------------------------------------------------

    def analyse_all(self, workloads) -> List[WorkloadAnalysis]:
        """Analyse a suite; :class:`~repro.options.PipelineOptions`
        decides the pool backend and width (see :meth:`evaluate_all`)."""
        return self._sweep("analyse", _analyse_worker, self._analyses,
                           workloads)

    def evaluate_all(self, workloads) -> List[WorkloadEvaluation]:
        """Evaluate a suite, sharded over the configured worker pool.

        ``PipelineOptions(jobs=N, pool=...)`` drives execution: ``pool``
        names a :mod:`repro.exec` backend (``serial`` | ``process`` |
        ``thread``; default ``auto`` = warm worker processes when
        ``jobs > 1``), overridable per-environment via ``$REPRO_POOL``.
        Rows come back in suite order and are bitwise-identical on every
        backend: workers run the same deterministic pipeline, and the
        pool only changes *where* a workload is computed.  Invalid
        ``jobs`` values (< 1) warn and fall back to serial.

        A workload that keeps failing (exception, timeout, worker crash)
        is retried per :class:`~repro.options.PipelineOptions` and then
        quarantined: its slot in the returned list holds a
        :class:`~repro.resilience.WorkloadFailure` instead of crashing
        the sweep.  With ``fail_fast`` the first failure raises
        :class:`~repro.resilience.WorkloadExecutionError`.
        """
        return self._sweep("evaluate", _evaluate_worker, self._evaluations,
                           workloads)

    # -- fan-out helpers ----------------------------------------------------

    def _execution_plan(self, jobs: Optional[int], n_todo: int):
        """Resolve ``(backend name, pool width)`` for a sweep with
        ``n_todo`` not-yet-memoised workloads.

        ``jobs`` decides *whether* to pool — ``None``/``1`` (and a sweep
        with at most one workload to run) stay inline-serial, keeping
        the documented contract whatever the backend.  ``pool`` decides
        *where* pooled sweeps run: ``auto`` means warm worker processes,
        and a forced ``serial`` routes even ``jobs=N`` sweeps through
        the in-line backend (how the CI matrix proves backend
        equivalence).
        """
        backend = validate_pool(self.options.pool)
        if jobs is None or jobs <= 1 or n_todo <= 1:
            return "serial", 1
        if backend == "auto":
            backend = "process"
        if backend == "serial":
            return "serial", 1
        return backend, min(jobs, n_todo)

    def _sweep(self, method, worker_fn, memo: Dict, workloads) -> List:
        workloads = list(workloads)
        jobs = self.options.normalized_jobs()
        # journaling (and therefore resume) applies to evaluation sweeps:
        # those are the long batch jobs whose partial results are worth
        # keeping; analyse memos are a cheap byproduct of evaluation
        journal = self._open_journal(workloads, memo) \
            if method == "evaluate" else None
        # memoised results never re-run, so they cannot re-fail; on a
        # resumed run this is exactly what skips completed workloads
        todo = [w for w in workloads if w.name not in memo]
        backend, width = self._execution_plan(jobs, len(todo))
        drain = None
        signal_scope = contextlib.nullcontext()
        if journal is not None:
            journal.scheduled([w.name for w in todo])
            drain = DrainController(timeout=self.options.drain_timeout)
            signal_scope = drain_on_signals(drain)
        # live telemetry rides alongside the sweep: an event log that
        # observes scheduling without touching it — semantic output is
        # byte-identical with it on or off
        telemetry = contextlib.nullcontext()
        if self.options.wants_telemetry:
            telemetry = obs.events.session(
                self.options.events_out,
                run_id=journal.run_id if journal is not None
                else (self.options.run_id or ""))
        try:
            with telemetry as bus:
                if bus is not None:
                    bus.publish(
                        obs.events.RUN_STARTED, bus.run_id,
                        run_id=bus.run_id, stage=method,
                        total=len(workloads), todo=len(todo),
                        backend=backend, jobs=width)
                    # workloads already memoised (journal resume or a
                    # prior in-process sweep) count as completed from
                    # the start — cumulative progress, not this
                    # process's share
                    for w in workloads:
                        if w.name in memo:
                            bus.publish(obs.events.RUN_RESUMED, w.name)
                with signal_scope:
                    if backend == "serial":
                        fresh = self._run_serial(
                            method, todo, journal=journal, drain=drain)
                    else:
                        with obs.span(
                            method + "_all", jobs=width,
                            workloads=len(workloads)
                        ):
                            fresh = self._fan_out(
                                worker_fn, todo, backend, width,
                                journal=journal, drain=drain)
        except SweepDrained as exc:
            if journal is not None:
                exc.run_id = journal.run_id
                exc.journal_dir = journal.journal_dir
                journal.aborted(reason="drain", outstanding=exc.outstanding)
                journal.close()
            raise
        except BaseException:
            if journal is not None:
                journal.close()
            raise
        by_name = dict(zip((w.name for w in todo), fresh))
        for name, row in by_name.items():
            if not isinstance(row, WorkloadFailure):
                memo[name] = row
        if journal is not None:
            failed = sum(
                1 for row in fresh if isinstance(row, WorkloadFailure))
            journal.finished(completed=len(fresh) - failed, quarantined=failed)
            journal.close()
        return [
            by_name[w.name] if w.name in by_name else memo[w.name]
            for w in workloads
        ]

    # -- journal / resume ---------------------------------------------------

    def _open_journal(self, workloads, memo: Dict) -> Optional[RunJournal]:
        """Create or resume this sweep's run journal, if configured.

        A resumed journal's completed workloads are folded straight into
        ``memo`` (records, obs snapshots or record-derived semantic
        publication, and simulation-memo deltas), so the sweep re-runs
        only what never durably finished — and the merged final state is
        byte-identical to an uninterrupted run.
        """
        opts = self.options
        journal_dir = resolve_journal_dir(opts.journal_dir)
        if journal_dir is None:
            if opts.resume is not None or opts.run_id is not None:
                raise JournalError(
                    "journaling needs a directory: pass "
                    "--journal-dir/PipelineOptions.journal_dir or set "
                    "$REPRO_JOURNAL_DIR")
            return None
        manifest = [w.name for w in workloads]
        fingerprint = sweep_fingerprint(self.config, manifest)
        plan = self._fault_plan()
        if opts.resume is not None:
            journal, replay = RunJournal.resume(
                journal_dir, opts.resume,
                fingerprint=fingerprint, manifest=manifest, plan=plan)
            self._seed_from_replay(journal, replay, memo)
            return journal
        return RunJournal.create(
            journal_dir, opts.run_id,
            fingerprint=fingerprint, manifest=manifest,
            config_fingerprint=config_fingerprint(self.config), plan=plan)

    def _seed_from_replay(self, journal: RunJournal, replay, memo: Dict):
        """Restore completed workloads from a replayed journal."""
        seeded = 0
        for name, key in replay.completed.items():
            row = journal.load_payload(key) if key else None
            if not (isinstance(row, tuple) and len(row) == 3):
                log.warning(
                    "journal payload for completed workload %r is missing "
                    "or unreadable; it will be re-run", name)
                continue
            result, snap, memo_snap = row
            if isinstance(result, WorkloadFailure):
                continue
            memo[name] = result
            if memo_snap is not None and self.sim_memo is not None:
                self.sim_memo.merge(memo_snap)
            if obs.enabled():
                if snap is not None:
                    # pooled runs journal the worker's whole registry
                    # snapshot; merging it reproduces the clean-run state
                    obs.merge(snap)
                else:
                    # serial runs journal the bare record; its semantic
                    # metrics + ledger entries are a pure function of it
                    publish_workload_evaluation(result)
                obs.counter("resilience.resumed_workloads", 1,
                            help="completed workloads restored from the "
                                 "run journal instead of re-executed")
            seeded += 1
        if seeded:
            log.info(
                "resumed run %s: %d completed workload(s) restored from "
                "the journal, %d to run",
                journal.run_id, seeded,
                len(replay.header.get("manifest", ())) - seeded)

    def _fault_plan(self) -> Optional[FaultPlan]:
        return self.options.resolve_fault_plan()

    def _run_serial(self, method: str, workloads, journal=None,
                    drain=None) -> List:
        """Serial sweep through the fail-safe runner on a
        :class:`~repro.exec.SerialPool` — the same retry/quarantine/blame
        contract as every other backend (timeouts excepted: a thread
        cannot interrupt itself).  Tasks call the *bound* pipeline
        methods, so profiles, evaluations and memo tables land directly
        in this pipeline with no snapshot round-trip."""
        if not workloads:
            return []
        plan = self._fault_plan()
        bound = getattr(self, method)

        def call(workload, _plan, attempt):
            if _plan is None:
                return bound(workload)
            with _faults.installed(_plan, attempt=attempt):
                _consult_worker_faults(workload.name)
                return bound(workload)

        on_result = None
        if journal is not None:
            def on_result(workload, result):
                # payload first (atomic + fsynced), then the journal
                # record that references it — write-ahead ordering
                key = journal.store_payload(workload.name,
                                            (result, None, None))
                journal.completed(workload.name, key)

        return run_failsafe(
            call,
            workloads,
            pool=SerialPool(),
            policy=self.options.failure_policy(),
            plan=plan,
            key_fn=lambda w: w.name,
            on_result=on_result,
            on_event=journal.lifecycle if journal is not None else None,
            drain=drain,
            heartbeat=self.options.heartbeat_period,
            stall_after=self.options.stall_after,
        )

    def _fan_out(self, worker, workloads, backend: str, width: int,
                 journal=None, drain=None) -> List:
        """Shard over a fail-safe worker pool; workers return ``(result,
        obs snapshot-or-None, memo delta-or-None)``.  Snapshots are
        folded in as each worker finishes — a later failure can no longer
        drop metrics or memo entries that were already collected — and
        failed workloads come back as :class:`WorkloadFailure` records in
        their suite slot.  With a journal attached, each row is persisted
        and its ``completed`` record fsynced the moment it lands, from
        any backend."""
        cache_root = self.cache.root if self.cache is not None else None
        collect = obs.enabled()

        def _absorb(workload, row):
            _result, snap, memo_snap = row
            if snap is not None:
                obs.merge(snap)
            if memo_snap is not None and self.sim_memo is not None:
                self.sim_memo.merge(memo_snap)
            if journal is not None:
                key = journal.store_payload(workload.name, row)
                journal.completed(workload.name, key)

        rows = run_failsafe(
            worker,
            workloads,
            jobs=width,
            pool=backend,
            policy=self.options.failure_policy(),
            task_args=(self.config, cache_root, collect,
                       self.options.trace_kernels, self.options.no_sim_memo),
            plan=self._fault_plan(),
            key_fn=lambda w: w.name,
            on_result=_absorb,
            on_event=journal.lifecycle if journal is not None else None,
            drain=drain,
            heartbeat=self.options.heartbeat_period,
            stall_after=self.options.stall_after,
        )
        return [
            row if isinstance(row, WorkloadFailure) else row[0] for row in rows
        ]


# -- suite façade -----------------------------------------------------------


def evaluate_suite(
    names=None,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    config: Optional[SystemConfig] = None,
    options: Optional[PipelineOptions] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    fail_fast: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    pool: Optional[str] = None,
) -> List[WorkloadEvaluation]:
    """One-call evaluation of the suite (or a named subset of it).

    The supported public entry point for "give me the Fig. 9/10 numbers":
    resolves workload names, honours the artifact cache and worker-pool
    sharding (``jobs`` wide on the ``pool`` backend — ``serial`` |
    ``process`` | ``thread``, default automatic), and returns evaluations
    in suite order.  Keyword arguments are shorthands for the matching
    :class:`~repro.options.PipelineOptions` fields; pass ``options`` to
    control everything at once.

    The sweep is fail-safe: a workload that keeps failing is retried
    (``retries``, per-attempt ``timeout`` on preemptive pools) and then
    quarantined as a :class:`~repro.resilience.WorkloadFailure` in its
    suite slot, so partial results always come back.  ``fail_fast=True``
    raises on the first failure instead.

    With ``options.journal_dir`` (or ``$REPRO_JOURNAL_DIR``) set the
    sweep writes a crash-safe run journal; ``options.resume`` continues
    a journaled run — when ``names`` is omitted, the journaled suite
    manifest is replayed, so the resumed sweep evaluates exactly what
    the original one scheduled.
    """
    from . import workloads as workload_registry

    opts = options or PipelineOptions(
        config=config, jobs=jobs, cache_dir=cache_dir, pool=pool,
        timeout=timeout,
        retries=retries if retries is not None else PipelineOptions.retries,
        fail_fast=fail_fast, fault_plan=fault_plan,
    )
    pipeline = opts.build_pipeline()
    if names is None and opts.resume is not None:
        journal_dir = resolve_journal_dir(opts.journal_dir)
        if journal_dir is not None:
            names = RunJournal.peek(
                journal_dir, opts.resume).get("manifest")
    if names is None:
        suite = workload_registry.all_workloads()
    else:
        suite = [
            workload_registry.get(n) if isinstance(n, str) else n
            for n in names
        ]
    return pipeline.evaluate_all(suite)


# -- pool workers (module level: must be picklable by reference) ----------------

#: per-worker-thread pipeline cache: a warm pool worker keeps one
#: pipeline alive across tasks (imports done, caches primed) instead of
#: rebuilding it per workload — the bulk of the old ``--jobs`` overhead
_WORKER_TLS = threading.local()


def _worker_pipeline(
    config: SystemConfig,
    cache_root: Optional[str],
    trace_kernels: str = "rle",
    no_sim_memo: bool = False,
) -> NeedlePipeline:
    """The warm per-worker pipeline, rebuilt only when the sweep
    configuration changes.

    Keyed thread-locally, so process workers (one main thread each) and
    thread workers (many per interpreter) both get exactly one pipeline
    per worker.  Reuse is safe because results are content-keyed and
    deterministic; per-task record memos are cleared by the caller so a
    retried task always recomputes.
    """
    key = (
        config_fingerprint(config) if config is not None else None,
        cache_root,
        trace_kernels,
        bool(no_sim_memo),
    )
    if getattr(_WORKER_TLS, "key", None) == key:
        return _WORKER_TLS.pipeline
    cache = ArtifactCache(cache_root) if cache_root is not None else None
    opts = PipelineOptions(
        config=config,
        no_cache=cache is None,
        trace_kernels=trace_kernels,
        no_sim_memo=no_sim_memo,
    )
    pipe = NeedlePipeline(config, cache=cache, options=opts)
    _WORKER_TLS.pipeline = pipe
    _WORKER_TLS.key = key
    return pipe


def _consult_worker_faults(name: str) -> None:
    """The chaos suite's worker-level sites: crash, hang, exception.

    Consulted by every backend's workers — the serial path included — so
    one fault plan produces the same quarantine records everywhere:
    ``worker.crash`` dies the way the current backend dies (``os._exit``
    in a process child, an inline :class:`~repro.exec.WorkerCrashed`
    elsewhere), and ``worker.hang`` only stalls preemptible workers — a
    serial sweep could never evict its own thread.
    """
    if not _faults.enabled():
        return
    spec = _faults.consult(SITE_WORKER_CRASH, name)
    if spec is not None:
        # simulate a segfault/OOM-kill: no cleanup, no exception — the
        # parent finds the corpse and blames this task
        _exec_worker.crash(int(spec.payload.get("exit_code", 13)))
    if _exec_worker.preemptive():
        spec = _faults.consult(SITE_WORKER_HANG, name)
        if spec is not None:
            time.sleep(float(spec.payload.get("seconds", 3600.0)))
    spec = _faults.consult(SITE_WORKER_EXCEPTION, name)
    if spec is not None:
        raise FaultInjected("injected worker exception for %s" % name)


def _run_worker(method, workload, config, cache_root, collect: bool,
                trace_kernels: str = "rle", no_sim_memo: bool = False,
                plan: Optional[FaultPlan] = None, attempt: int = 0):
    """Run one workload in a pool worker, optionally collecting obs data
    into a private registry whose snapshot rides back with the result.
    The worker pipeline's new simulation-memo entries travel back the
    same way (as a delta — the parent already merged earlier shipments),
    so the parent's memo warms up as the sweep progresses.

    The fault plan is installed fresh per (task, attempt) — and any
    injector the worker inherited from a fork or a previous task is
    cleared — so a worker's fault pattern depends only on the task,
    never on pool scheduling.
    """
    _faults.install(plan, attempt=attempt)
    try:
        _consult_worker_faults(workload.name)
        pipe = _worker_pipeline(config, cache_root, trace_kernels, no_sim_memo)
        try:
            if not collect:
                result = getattr(pipe, method)(workload)
                snap = None
            else:
                with obs.scoped() as reg:
                    obs.counter("pipeline.worker_tasks", 1,
                                help="workloads processed per pool worker",
                                worker=str(os.getpid()))
                    result = getattr(pipe, method)(workload)
                    snap = reg.snapshot()
            memo_snap = (
                pipe.sim_memo.drain() if pipe.sim_memo is not None else None
            )
            return result, snap, memo_snap
        finally:
            # record memos are per-task: a retry must recompute (its
            # fault sites consulted afresh), and a warm worker must not
            # serve another task's rows from memory
            pipe._analyses.clear()
            pipe._evaluations.clear()
    finally:
        _faults.uninstall()


#: the pool task for each sweep kind: partials of a module-level
#: function, so they pickle by reference
_analyse_worker = functools.partial(_run_worker, "analyse")
_evaluate_worker = functools.partial(_run_worker, "evaluate")


__all__ = [
    "AnalysisSummary",
    "FrameSummary",
    "NeedlePipeline",
    "PipelineOptions",
    "ScheduleSummary",
    "WorkloadAnalysis",
    "WorkloadEvaluation",
    "WorkloadExecutionError",
    "WorkloadFailure",
    "evaluate_suite",
]
