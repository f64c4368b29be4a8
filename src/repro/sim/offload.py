"""Whole-workload offload simulation (paper §VI, Figs. 9 and 10).

The simulator reasons at *path granularity*: the profiled path trace is the
exact sequence of region-sized execution units.  For every unit it charges
either the host OOO cost of that path, or — when the invocation predictor
fires and the unit matches the offloaded region — the CGRA frame cost plus
live-value transfer.  Mispredicted invocations charge the full frame (guard
failure is detected at frame end, the paper's conservative assumption), the
undo-log rollback, and the host re-execution of the actual path.

Host path costs come from the OOO model with loop-carried pipelining
captured by amortising over repeated executions; memory latencies for both
sides come from replaying the recorded address stream through the cache
hierarchy (host port vs. uncore accelerator port) in one dual-port pass.

Each simulation stage has one production implementation, and the
``trace_kernels="events"`` mode swaps in the per-event reference oracle
wherever one exists; the two modes give bitwise-identical numbers:

* **memory calibration** — the closed-form
  :func:`~repro.sim.cache.profile_stream_dual_array` (exact replay
  fallback on inputs where a set could evict); the oracle is the exact
  dual-port replay :func:`~repro.sim.cache.profile_stream_dual`;
* **run-length trace kernels** — the trace accounting folds an integer
  :class:`~repro.sim.trace_kernels.ChargeCensus` instead of walking the
  event stream, and the census comes from the O(#runs) RLE kernel; the
  oracle is the O(#events) reference kernel.  Both produce the same
  census, so the shared census→cycles/energy fold is bitwise-identical
  by construction;
* **host path costs** — one :meth:`~repro.sim.core_ooo.OOOModel.simulate`
  walk per profiled path, repeated back-to-back, in both modes;
* **simulation memo** — calibration, per-path host costs, CGRA schedules
  and the braid's constituent recurrence are memoized per (input, config
  slice) in a :class:`~repro.sim.memo.SimulationMemo`, so the three
  strategies the pipeline evaluates (and DSE sweeps varying only
  CGRA/host/offload knobs) share one replay, one OOO table, one schedule
  pool and one set of braid recurrences.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..artifacts import CALIBRATION_KIND, PATH_COSTS_KIND, RECURRENCE_KIND
from ..frames.frame import Frame
from ..obs import (
    counter as _obs_counter,
    enabled as _obs_enabled,
    gauge as _obs_gauge,
    span as _obs_span,
)
from ..obs.ledger import (
    CHARGE_ABORT_FRAME,
    CHARGE_ABORT_REEXEC,
    CHARGE_ABORT_ROLLBACK,
    CHARGE_FRAME_COMPUTE,
    CHARGE_FRAME_GUARD,
    CHARGE_FRAME_MEM,
    CHARGE_FRAME_PSI,
    CHARGE_HOST_COMPUTE,
    CHARGE_HOST_FALLBACK,
    CHARGE_HOST_MEM_DRAM,
    CHARGE_HOST_MEM_L1,
    CHARGE_HOST_MEM_L2,
    CHARGE_RECONFIG,
    CHARGE_TRANSFER,
    fold_attribution,
)
from ..obs.timeline import TimelineEvent
from ..profiling.ranking import count_ops
from ..interp.events import FunctionTrace
from ..profiling.path_profile import PathProfile
from .cache import profile_stream_dual, profile_stream_dual_array
from .config import DEFAULT_CONFIG, SystemConfig
from .core_ooo import OOOModel, OOOResult
from .energy import EnergyModel
from .memo import Calibration, SimulationMemo, content_key
from .trace_kernels import (
    KERNEL_MODE_LABELS,
    KERNEL_MODES,
    KERNELS_EVENTS,
    KERNELS_RLE,
    census_from_events,
    census_from_segments,
    iter_segment_charges,
    run_length_encode,
)

logger = logging.getLogger(__name__)


@dataclass
class PathCost:
    """Amortised host cost of executing one path once."""

    cycles: float
    census: OOOResult  # per-execution averages stored as totals / reps


@dataclass
class OffloadOutcome:
    """Result of simulating one offload strategy on one workload."""

    workload: str
    strategy: str  # "host" | "bl-path-oracle" | "bl-path-predictor" | "braid"
    baseline_cycles: float
    needle_cycles: float
    baseline_energy_pj: float
    needle_energy_pj: float
    coverage: float = 0.0
    invocations: int = 0
    failures: int = 0
    predictor_precision: float = 1.0
    frame_ops: int = 0
    schedule_cycles: int = 0
    #: accesses served per hierarchy level ("l1"/"l2"/"dram") when the
    #: recorded address stream replays through each port — carried on the
    #: record so the obs layer reports identical simulated-cache counters
    #: for cold, parallel and cache-served evaluations
    host_mem_levels: Dict[str, int] = field(default_factory=dict)
    accel_mem_levels: Dict[str, int] = field(default_factory=dict)
    #: charge class -> (cycles, energy_pj) decomposition of the needle
    #: totals; ``fold_attribution(attribution)`` reproduces
    #: (needle_cycles, needle_energy_pj) bit for bit — the attribution
    #: ledger's conservation contract
    attribution: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: same decomposition for the host-only baseline totals
    baseline_attribution: Dict[str, Tuple[float, float]] = field(
        default_factory=dict
    )

    @property
    def performance_improvement(self) -> float:
        """Fractional cycle reduction (Fig. 9's y-axis)."""
        if self.baseline_cycles == 0:
            return 0.0
        return 1.0 - self.needle_cycles / self.baseline_cycles

    @property
    def energy_reduction(self) -> float:
        """Fractional net energy reduction (Fig. 10's y-axis)."""
        if self.baseline_energy_pj == 0:
            return 0.0
        return 1.0 - self.needle_energy_pj / self.baseline_energy_pj


def _charge(attr: Dict[str, List[float]], cls: str,
            cycles: float = 0.0, energy: float = 0.0) -> None:
    """Accumulate one (cycles, energy) charge into an attribution dict."""
    slot = attr.get(cls)
    if slot is None:
        attr[cls] = [float(cycles), float(energy)]
    else:
        slot[0] += cycles
        slot[1] += energy


def _freeze(attr: Dict[str, List[float]]) -> Dict[str, Tuple[float, float]]:
    return {cls: (v[0], v[1]) for cls, v in attr.items()}


@dataclass
class _FrameCostModel:
    """Per-(workload, frame) cost constants shared by the attribution
    fold and the simulated-cycle timeline — one derivation, two
    consumers, so the timeline never drifts from the accounting."""

    sched: object  # CGRA ScheduleResult
    pipeline_ii: float
    run_start_cycles: float  # makespan + live-value transfer (run fill)
    transfer_cycles: float
    transfer_energy_pj: float
    rollback_cycles: float
    failure_exec_cycles: float
    reconfig_cycles: float
    frame_total_pj: float  # whole-frame invocation energy
    compute_pj: float  # frame energy minus guard/ψ FU shares, minus memory
    guard_fu_pj: float
    psi_fu_pj: float
    frame_mem_pj: float
    guard_frac: float  # guard-op share of the scheduled ops
    psi_frac: float  # ψ-op share of the scheduled ops
    exec_fraction: Dict[int, float]
    targets: Set[int]


class OffloadSimulator:
    """Simulates host-only and Needle-offloaded execution of one workload.

    ``memo``           a shared :class:`~repro.sim.memo.SimulationMemo`
                       (``None`` = a fresh private one; ``False`` =
                       disable memoization — every call recomputes).
    ``trace_kernels``  ``"rle"`` (the production path: closed-form run
                       folds and closed-form memory calibration, the
                       default) or ``"events"`` (the per-event reference
                       oracle: event-by-event accounting and the exact
                       cache replay).  Both produce bitwise-identical
                       outcomes; memo entries are therefore shared
                       across modes.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        memo: "Optional[SimulationMemo | bool]" = None,
        trace_kernels: str = KERNELS_RLE,
    ):
        self.config = config or DEFAULT_CONFIG
        self.energy_model = EnergyModel(self.config.energy, self.config.cgra)
        if memo is False:
            self.memo: Optional[SimulationMemo] = None
        elif memo is None or memo is True:
            self.memo = SimulationMemo()
        else:
            self.memo = memo
        if trace_kernels not in KERNEL_MODES:
            raise ValueError(
                "trace_kernels must be one of %r, got %r"
                % (KERNEL_MODES, trace_kernels)
            )
        self.trace_kernels = trace_kernels

    # -- memory latency calibration ------------------------------------------------

    def calibrate(
        self,
        trace: Optional[FunctionTrace],
        artifact_key: Optional[str] = None,
    ) -> Calibration:
        """Memory calibration of one workload, both ports at once.

        A single dual-port pass over the recorded address stream yields
        average load latencies *and* the per-level access censuses (the
        simulated cache hit/miss numbers the obs layer reports); L1/L2
        hit latencies when there is no stream.  The production path is
        the closed-form :func:`~repro.sim.cache.profile_stream_dual_array`;
        the ``"events"`` reference mode replays the stream exactly with
        :func:`~repro.sim.cache.profile_stream_dual`.  Memoized per (workload,
        memory config) — persistently through the artifact cache when
        ``artifact_key`` pins the workload's content — so the three
        offload strategies and any sweep point that keeps the memory
        hierarchy fixed share one replay.
        """

        def compute() -> Calibration:
            hier = self.config.memory
            host_lat = float(hier.l1.latency)
            accel_lat = float(hier.l2.latency)
            host_levels: Dict[str, int] = {}
            accel_levels: Dict[str, int] = {}
            if trace is not None and trace.memory:
                profiler = (
                    profile_stream_dual
                    if self.trace_kernels == KERNELS_EVENTS
                    else profile_stream_dual_array
                )
                host_prof, accel_prof = profiler(hier, trace.memory)
                host_levels = dict(host_prof.level_counts)
                accel_levels = dict(accel_prof.level_counts)
                if host_prof.loads:
                    host_lat = host_prof.avg_load_latency
                if accel_prof.loads:
                    accel_lat = accel_prof.avg_load_latency
            return Calibration(
                host_load_latency=host_lat,
                accel_load_latency=accel_lat,
                host_levels=host_levels,
                accel_levels=accel_levels,
            )

        if self.memo is None:
            return compute()
        mem_cfg = repr(self.config.memory)
        if artifact_key:
            return self.memo.content(
                CALIBRATION_KIND, content_key(artifact_key, mem_cfg), compute
            )
        return self.memo.identity("calibration", trace, mem_cfg, compute)

    # -- host path costs ---------------------------------------------------------------

    def path_costs(
        self,
        profile: PathProfile,
        host_load_latency: float,
        amortise_reps: int = 4,
        artifact_key: Optional[str] = None,
    ) -> Dict[int, PathCost]:
        """Per-execution host cost of each profiled path.

        Paths that repeat are simulated ``amortise_reps`` times back-to-back
        so the OOO window can overlap iterations (loop pipelining), then
        averaged.  Memoized per (profile, host config, rounded load
        latency) — the OOO model only sees the rounded integer latency,
        so sweep points that round alike share one table.
        """
        fixed_latency = max(1, int(round(host_load_latency)))
        host_cfg = repr(self.config.host)

        def compute() -> Dict[int, PathCost]:
            model = OOOModel(self.config.host, fixed_load_latency=fixed_latency)
            costs: Dict[int, PathCost] = {}
            for pid, count in profile.counts.items():
                reps = amortise_reps if count >= amortise_reps else 1
                res = model.simulate(list(profile.decode(pid)) * reps)
                per_exec = OOOResult()
                for name in vars(per_exec):
                    setattr(per_exec, name, getattr(res, name) / reps)
                costs[pid] = PathCost(cycles=res.cycles / reps, census=per_exec)
            return costs

        if self.memo is None:
            return compute()
        if artifact_key:
            key = content_key(
                artifact_key, host_cfg, fixed_latency, amortise_reps
            )
            return self.memo.content(PATH_COSTS_KIND, key, compute)
        return self.memo.identity(
            "pathcosts", profile, (host_cfg, fixed_latency, amortise_reps),
            compute,
        )

    # -- baseline --------------------------------------------------------------------------

    def baseline(
        self, profile: PathProfile, costs: Dict[int, PathCost]
    ) -> Tuple[float, float]:
        """(cycles, energy_pj) of host-only execution of the whole trace."""
        cycles, energy, _attr = self.baseline_attributed(profile, costs)
        return cycles, energy

    def baseline_attributed(
        self, profile: PathProfile, costs: Dict[int, PathCost]
    ) -> Tuple[float, float, Dict[str, Tuple[float, float]]]:
        """Baseline totals plus their charge-class decomposition.

        All cycles are ``host.compute``; energy splits into the OOO
        front-end/window/FU share (``host.compute``) and the per-level
        memory hierarchy shares (``host.mem.*``).  The returned totals
        are the canonical fold of the attribution, so the ledger's
        ``host`` strategy conserves exactly against ``baseline_cycles``.
        """
        attr: Dict[str, List[float]] = {}
        for pid, count in profile.counts.items():
            c = costs[pid]
            eb = self.energy_model.host_energy(c.census)
            levels = self.energy_model.host_memory_energy_levels(c.census)
            _charge(attr, CHARGE_HOST_COMPUTE,
                    cycles=count * c.cycles,
                    energy=count * (eb.frontend_pj + eb.window_pj + eb.fu_pj))
            _charge(attr, CHARGE_HOST_MEM_L1, energy=count * levels["l1"])
            _charge(attr, CHARGE_HOST_MEM_L2, energy=count * levels["l2"])
            _charge(attr, CHARGE_HOST_MEM_DRAM, energy=count * levels["dram"])
        cycles, energy = fold_attribution(attr)
        return cycles, energy, _freeze(attr)

    # -- offload ----------------------------------------------------------------------------

    def _scheduler_fingerprint(self, scheduler) -> tuple:
        """The config slice a CGRA schedule depends on (memo key part)."""
        return (
            repr(self.config.cgra),
            scheduler.load_latency,
            scheduler.store_latency,
        )

    def _schedule(self, scheduler, frame: Frame):
        """Memoized CGRA schedule of ``frame`` under this configuration."""

        def compute():
            return scheduler.schedule(
                frame, loop_carried=self._loop_carried(frame)
            )

        if self.memo is None:
            return compute()
        return self.memo.identity(
            "schedule", frame, self._scheduler_fingerprint(scheduler), compute
        )

    def _effective_ii(
        self,
        frame: Frame,
        sched,
        profile: PathProfile,
        scheduler,
        artifact_key: Optional[str] = None,
    ) -> float:
        """Initiation interval for pipelined invocations.

        For a braid, the whole-region recurrence is pessimistic: dataflow
        predication gates untaken arms, so an iteration flowing down the hot
        (short-chain) arm does not serialise behind the cold arm's chain.
        We weight each constituent path's recurrence by its frequency.

        Only that weighted recurrence is memoized — it is the expensive
        part (every constituent path is re-framed and re-scheduled) and it
        reads nothing of the CGRA config but the two rounded memory
        latencies.  It is keyed by (artifact key, constituent paths,
        latency slice), persistently through the artifact cache, so every
        design point that keeps the calibrated accelerator latency reuses
        it; the config-dependent ``resource_ii`` floor is applied per call.
        """
        if frame.region.kind != "braid" or len(frame.region.source_paths) < 2:
            return float(sched.initiation_interval)

        def compute() -> Optional[float]:
            from ..accel.cgra import CyclicFrameError
            from ..frames.frame import build_frame as _build_frame
            from ..regions.path_region import path_to_region as _path_to_region
            from ..profiling.ranking import RankedPath as _RankedPath

            total_freq = 0
            weighted = 0.0
            for pid in frame.region.source_paths:
                freq = profile.counts.get(pid, 0)
                if freq <= 0:
                    continue
                blocks = profile.decode(pid)
                rp = _RankedPath(
                    path_id=pid, blocks=blocks, freq=freq,
                    ops=count_ops(blocks), weight=0, coverage=0.0,
                )
                pframe = _build_frame(_path_to_region(frame.region.function, rp))
                try:
                    psched = scheduler.schedule(
                        pframe, loop_carried=self._loop_carried(pframe)
                    )
                except CyclicFrameError as exc:
                    # constituent falls back to the whole-region II — count
                    # it so schedule regressions are visible, not silent
                    if _obs_enabled():
                        _obs_counter(
                            "sim.effective_ii_fallbacks", 1,
                            help="braid constituent paths that failed to "
                                 "re-schedule for the pipelined II",
                            error=type(exc).__name__,
                        )
                    logger.debug(
                        "effective-II fallback: constituent path %d of %s "
                        "failed to schedule: %s",
                        pid, frame.region.function.name, exc,
                    )
                    continue
                weighted += freq * psched.recurrence_ii
                total_freq += freq
            return weighted / total_freq if total_freq else None

        if self.memo is None:
            avg_recurrence = compute()
        else:
            latencies = (
                max(1, int(round(scheduler.load_latency))),
                max(1, int(round(scheduler.store_latency))),
            )
            if artifact_key:
                key = content_key(
                    artifact_key, tuple(frame.region.source_paths), *latencies
                )
                avg_recurrence = self.memo.content(RECURRENCE_KIND, key, compute)
            else:
                avg_recurrence = self.memo.identity(
                    RECURRENCE_KIND, frame, latencies, compute
                )
        if avg_recurrence is None:
            return float(sched.initiation_interval)
        return float(max(sched.resource_ii, avg_recurrence))

    @staticmethod
    def _loop_carried(frame: Frame):
        """(entry φ, back-edge definition) pairs for the recurrence II.

        When the region is a loop iteration, its final block feeds the entry
        block's φs over the back edge; those defs bound the pipelined II.
        """
        pairs = []
        region = frame.region
        if not region.blocks:
            return pairs
        last = region.blocks[-1]
        for phi in region.entry.phis:
            val = phi.incoming_for(last)
            if val is not None:
                pairs.append((phi, val))
        return pairs

    def _rle(self, profile: PathProfile):
        """RLE view of the profile's trace, computed once per profile."""
        if self.memo is None:
            return run_length_encode(profile.trace)
        return self.memo.identity(
            "rle", profile, None, lambda: run_length_encode(profile.trace)
        )

    def _cost_model(
        self,
        profile: PathProfile,
        frame: Frame,
        cal: Calibration,
        CGRAScheduler,
        artifact_key: Optional[str] = None,
    ) -> _FrameCostModel:
        """Derive the per-frame cost constants every accounting consumer
        (attribution fold, timeline replay) shares."""
        # Frames stream array data through the banked L2: bank pipelining
        # and the memory-port-limited schedule hide most of the raw L2
        # latency, so the per-load critical-path charge is a fraction of it.
        effective_load = max(4.0, cal.accel_load_latency * 0.4)
        scheduler = CGRAScheduler(
            self.config.cgra,
            load_latency=effective_load,
            store_latency=max(1.0, effective_load / 3),
        )
        sched = self._schedule(scheduler, frame)
        pipeline_ii = self._effective_ii(
            frame, sched, profile, scheduler, artifact_key
        )
        frame_eb = self.energy_model.frame_energy(
            n_int_ops=sched.int_ops + sched.guard_ops,
            n_fp_ops=sched.fp_ops,
            n_mem_ops=sched.mem_ops,
            n_edges=sched.edges,
            l2_accesses=sched.mem_ops,
        )
        # Guard and ψ shares of one frame invocation.  Guards are integer
        # compare ops the scheduler tracks separately; ψ-merges map to
        # integer selects, bounded by the schedule's int-op budget.  The
        # remainder (plus network/latch) is productive frame compute.
        cgra = self.config.cgra
        psi_ops = min(len(frame.psis), sched.int_ops)
        guard_fu_pj = sched.guard_ops * cgra.int_fu_pj
        psi_fu_pj = psi_ops * cgra.int_fu_pj
        compute_pj = (
            frame_eb.fu_pj - guard_fu_pj - psi_fu_pj
            + frame_eb.network_pj + frame_eb.latch_pj
        )
        total_sched_ops = max(
            1, sched.int_ops + sched.fp_ops + sched.mem_ops + sched.guard_ops
        )
        # Dataflow predication gates tokens on untaken braid arms, so an
        # invocation burns energy proportional to the ops its actual path
        # touches, not the whole fabric mapping.
        frame_ops_total = max(1, frame.region.op_count)
        exec_fraction: Dict[int, float] = {}
        for pid in frame.region.source_paths:
            path_ops = count_ops(profile.decode(pid))
            exec_fraction[pid] = min(1.0, path_ops / frame_ops_total)
        n_transfer = len(frame.live_ins) + len(frame.live_outs)
        transfer_cycles = (
            n_transfer * self.config.offload.transfer_cycles_per_value
            + self.config.offload.invocation_overhead_cycles
        )
        transfer_energy = self.energy_model.transfer_energy(n_transfer).total_pj
        rollback_cycles = (
            frame.store_count * self.config.offload.rollback_cycles_per_store
        )
        # Conservative (paper) mode detects guard failure only at frame end,
        # wasting the whole schedule; eager mode aborts around the mean guard
        # position (§V's guard-placement trade-off).
        if self.config.offload.detect_failure_at_end or not frame.guards:
            failure_exec_cycles = sched.cycles
        else:
            mean_pos = sum(g.position for g in frame.guards) / len(frame.guards)
            fraction = (mean_pos + 1) / max(1, frame.op_count)
            failure_exec_cycles = max(1.0, sched.cycles * fraction)
        return _FrameCostModel(
            sched=sched,
            pipeline_ii=pipeline_ii,
            run_start_cycles=sched.cycles + transfer_cycles,
            transfer_cycles=transfer_cycles,
            transfer_energy_pj=transfer_energy,
            rollback_cycles=rollback_cycles,
            failure_exec_cycles=failure_exec_cycles,
            reconfig_cycles=float(cgra.reconfig_cycles * sched.n_configs),
            frame_total_pj=frame_eb.total_pj,
            compute_pj=compute_pj,
            guard_fu_pj=guard_fu_pj,
            psi_fu_pj=psi_fu_pj,
            frame_mem_pj=frame_eb.memory_pj,
            guard_frac=sched.guard_ops / total_sched_ops,
            psi_frac=psi_ops / total_sched_ops,
            exec_fraction=exec_fraction,
            targets=set(frame.region.source_paths),
        )

    def _host_side_charges(
        self,
        attr: Dict[str, List[float]],
        compute_class: str,
        n: int,
        cost: PathCost,
    ) -> None:
        """Charge ``n`` host executions of a path: OOO front-end/window/FU
        cycles+energy to ``compute_class``, memory energy per level."""
        eb = self.energy_model.host_energy(cost.census)
        levels = self.energy_model.host_memory_energy_levels(cost.census)
        _charge(attr, compute_class,
                cycles=n * cost.cycles,
                energy=n * (eb.frontend_pj + eb.window_pj + eb.fu_pj))
        _charge(attr, CHARGE_HOST_MEM_L1, energy=n * levels["l1"])
        _charge(attr, CHARGE_HOST_MEM_L2, energy=n * levels["l2"])
        _charge(attr, CHARGE_HOST_MEM_DRAM, energy=n * levels["dram"])

    def _attribute(self, census, cm: _FrameCostModel,
                   costs: Dict[int, PathCost]) -> Dict[str, Tuple[float, float]]:
        """Fold a :class:`ChargeCensus` into the charge-class attribution.

        This is the *only* place simulated floats accumulate: the
        reported ``needle_cycles``/``needle_energy_pj`` are defined as
        ``fold_attribution`` of the returned dict, so the ledger's
        per-class sums conserve against the totals bit for bit.

        Run-based accounting: the first invocation in a run of
        back-to-back successful invocations pays pipeline fill (full
        makespan) plus the live-value transfer; each further iteration
        initiates after the frame's II (dataflow pipelining).  The
        configuration stays resident on the fabric across the workload
        (only one frame is offloaded), so reconfiguration is a one-time
        cost, charged once.
        """
        attr: Dict[str, List[float]] = {}
        _charge(attr, CHARGE_RECONFIG, cycles=cm.reconfig_cycles)

        def frame_exec(pid: int, frame_cycles: float, n: int) -> None:
            # split one successful frame-execution term into its
            # guard/ψ/compute shares (cycles by op fraction, energy by
            # FU component), scaled by the path's predication fraction
            scale = cm.exec_fraction.get(pid, 1.0)
            guard_c = frame_cycles * cm.guard_frac
            psi_c = frame_cycles * cm.psi_frac
            _charge(attr, CHARGE_FRAME_COMPUTE,
                    cycles=frame_cycles - guard_c - psi_c,
                    energy=n * scale * cm.compute_pj)
            _charge(attr, CHARGE_FRAME_GUARD,
                    cycles=guard_c, energy=n * scale * cm.guard_fu_pj)
            _charge(attr, CHARGE_FRAME_PSI,
                    cycles=psi_c, energy=n * scale * cm.psi_fu_pj)
            _charge(attr, CHARGE_FRAME_MEM,
                    energy=n * scale * cm.frame_mem_pj)

        for pid in sorted(census.run_starts):
            n = census.run_starts[pid]
            frame_exec(pid, n * cm.sched.cycles, n)
            _charge(attr, CHARGE_TRANSFER,
                    cycles=n * cm.transfer_cycles,
                    energy=n * cm.transfer_energy_pj)
        for pid in sorted(census.pipelined):
            n = census.pipelined[pid]
            frame_exec(pid, n * cm.pipeline_ii, n)
        for pid in sorted(census.failures):
            n = census.failures[pid]
            # the whole frame burns (unscaled: predication can't gate a
            # mispredicted path), then the undo log unwinds, then the
            # host re-executes the actual path
            _charge(attr, CHARGE_ABORT_FRAME,
                    cycles=n * cm.failure_exec_cycles,
                    energy=n * cm.frame_total_pj)
            _charge(attr, CHARGE_TRANSFER,
                    cycles=n * cm.transfer_cycles,
                    energy=n * cm.transfer_energy_pj)
            _charge(attr, CHARGE_ABORT_ROLLBACK, cycles=n * cm.rollback_cycles)
            self._host_side_charges(attr, CHARGE_ABORT_REEXEC, n, costs[pid])
        for pid in sorted(census.host):
            n = census.host[pid]
            self._host_side_charges(
                attr, CHARGE_HOST_FALLBACK, n, costs[pid]
            )
        return _freeze(attr)

    def simulate_offload(
        self,
        workload: str,
        profile: PathProfile,
        frame: Frame,
        predictor_kind: str = "oracle",
        trace: Optional[FunctionTrace] = None,
        coverage: Optional[float] = None,
        artifact_key: Optional[str] = None,
    ) -> OffloadOutcome:
        """Simulate offloading ``frame`` with the given invocation predictor.

        ``predictor_kind``: "oracle" or "history".  ``artifact_key`` (the
        workload's content hash, when known) upgrades the simulation
        memo's calibration, path-cost and recurrence entries from
        in-memory identity keys to persistent content keys.
        """
        # local import: repro.accel depends on repro.sim.config, so the
        # accel package cannot be imported at sim module-load time
        from ..accel.cgra import CGRAScheduler
        from ..accel.invocation import (
            HistoryPredictor,
            OraclePredictor,
            evaluate_predictor,
            evaluate_predictor_runs,
        )

        with _obs_span("simulate_offload", workload=workload,
                       kind=frame.region.kind, predictor=predictor_kind):
            return self._simulate_offload(
                workload, profile, frame, predictor_kind, trace, coverage,
                artifact_key,
                CGRAScheduler, HistoryPredictor, OraclePredictor,
                evaluate_predictor, evaluate_predictor_runs,
            )

    def _simulate_offload(
        self,
        workload: str,
        profile: PathProfile,
        frame: Frame,
        predictor_kind,
        trace,
        coverage,
        artifact_key,
        CGRAScheduler,
        HistoryPredictor,
        OraclePredictor,
        evaluate_predictor,
        evaluate_predictor_runs,
    ) -> OffloadOutcome:
        if _obs_enabled():
            _obs_gauge(
                "sim.kernel_mode", 1.0,
                help="which trace-kernel tier produced this simulation "
                     "(value is always 1; the label carries the "
                     "information)",
                workload=workload,
                mode=KERNEL_MODE_LABELS[self.trace_kernels],
            )
        cal = self.calibrate(trace, artifact_key=artifact_key)
        costs = self.path_costs(
            profile, cal.host_load_latency, artifact_key=artifact_key
        )
        base_cycles, base_energy, base_attr = self.baseline_attributed(
            profile, costs
        )
        cm = self._cost_model(
            profile, frame, cal, CGRAScheduler, artifact_key
        )

        targets = cm.targets
        if predictor_kind == "oracle":
            predictor = OraclePredictor(targets)
        else:
            predictor = HistoryPredictor()

        # Classify every trace event into an integer ChargeCensus, via the
        # O(#runs) RLE kernel or the O(#events) reference kernel.  Both
        # produce the same census (property-tested), and the shared fold
        # below is the only place floats accumulate — so both kernel
        # modes yield bitwise-identical outcomes by construction.
        pipelined_cfg = self.config.offload.pipelined_invocations
        if self.trace_kernels == KERNELS_EVENTS:
            evaluation = evaluate_predictor(profile.trace, targets, predictor)
            census = census_from_events(
                profile.trace, evaluation.decisions, targets, pipelined_cfg
            )
            precision = evaluation.precision
        else:
            rle = self._rle(profile)
            if _obs_enabled():
                _obs_gauge(
                    "trace.rle_ratio", rle.rle_ratio,
                    help="trace runs / trace events (lower = more "
                         "closed-form fold savings)",
                    workload=workload,
                )
            run_eval = evaluate_predictor_runs(rle.runs, targets, predictor)
            census = census_from_segments(
                run_eval.segments, targets, pipelined_cfg
            )
            precision = run_eval.precision

        # The reported totals are *defined as* the canonical fold of the
        # attribution — conservation against the ledger by construction.
        attribution = self._attribute(census, cm, costs)
        needle_cycles, needle_energy = fold_attribution(attribution)

        return OffloadOutcome(
            workload=workload,
            strategy=(
                "braid"
                if frame.region.kind == "braid"
                else "bl-path-%s" % predictor_kind
            ),
            baseline_cycles=base_cycles,
            needle_cycles=needle_cycles,
            baseline_energy_pj=base_energy,
            needle_energy_pj=needle_energy,
            coverage=coverage if coverage is not None else frame.region.coverage,
            invocations=census.invocations,
            failures=census.failed,
            predictor_precision=precision,
            frame_ops=frame.op_count,
            schedule_cycles=cm.sched.cycles,
            host_mem_levels=dict(cal.host_levels),
            accel_mem_levels=dict(cal.accel_levels),
            attribution=attribution,
            baseline_attribution=base_attr,
        )

    # -- simulated timeline -----------------------------------------------------

    def invocation_timeline(
        self,
        workload: str,
        profile: PathProfile,
        frame: Frame,
        predictor_kind: str = "oracle",
        trace: Optional[FunctionTrace] = None,
        artifact_key: Optional[str] = None,
    ) -> List[TimelineEvent]:
        """Replay the trace as duration events on a simulated-cycle clock.

        One event per predictor-decision segment (a maximal run of
        same-path, same-decision trace events): successful invocation
        runs render as "frame" blocks (pipeline fill + II-spaced
        iterations), guard failures as "abort" blocks (wasted frame +
        rollback + host re-execution), declined events as "host" blocks.
        Durations come from the same :class:`_FrameCostModel` the
        attribution fold uses, so the timeline's total extent tracks the
        reported ``needle_cycles``.
        """
        from ..accel.cgra import CGRAScheduler
        from ..accel.invocation import (
            HistoryPredictor,
            OraclePredictor,
            evaluate_predictor_runs,
        )

        cal = self.calibrate(trace, artifact_key=artifact_key)
        costs = self.path_costs(
            profile, cal.host_load_latency, artifact_key=artifact_key
        )
        cm = self._cost_model(
            profile, frame, cal, CGRAScheduler, artifact_key
        )
        targets = cm.targets
        if predictor_kind == "oracle":
            predictor = OraclePredictor(targets)
        else:
            predictor = HistoryPredictor()
        rle = self._rle(profile)
        run_eval = evaluate_predictor_runs(rle.runs, targets, predictor)

        pipelined_cfg = self.config.offload.pipelined_invocations
        events: List[TimelineEvent] = []
        clock = 0.0
        if cm.reconfig_cycles > 0:
            events.append(TimelineEvent(
                name="reconfig", start_cycle=0.0,
                duration_cycles=cm.reconfig_cycles,
                args={"configs": cm.sched.n_configs},
            ))
            clock = cm.reconfig_cycles
        for sc in iter_segment_charges(
            run_eval.segments, targets, pipelined_cfg
        ):
            if sc.run_starts or sc.pipelined:
                dur = (
                    sc.run_starts * cm.run_start_cycles
                    + sc.pipelined * cm.pipeline_ii
                )
                events.append(TimelineEvent(
                    name="frame", start_cycle=clock, duration_cycles=dur,
                    args={"path": sc.pid,
                          "invocations": sc.run_starts + sc.pipelined,
                          "fill": sc.run_starts},
                ))
            elif sc.failures:
                dur = sc.failures * (
                    cm.failure_exec_cycles + cm.transfer_cycles
                    + cm.rollback_cycles + costs[sc.pid].cycles
                )
                events.append(TimelineEvent(
                    name="abort", start_cycle=clock, duration_cycles=dur,
                    args={"path": sc.pid, "failures": sc.failures},
                ))
            else:
                dur = sc.host * costs[sc.pid].cycles
                events.append(TimelineEvent(
                    name="host", start_cycle=clock, duration_cycles=dur,
                    args={"path": sc.pid, "events": sc.host},
                ))
            clock += dur
        return events


__all__ = ["Calibration", "OffloadOutcome", "OffloadSimulator", "PathCost"]
