"""Unit tests for OffloadSimulator internals: per-path costs, baseline
accounting, loop-carried pair derivation and executed-fraction energy."""

import pytest

from repro import obs
from repro.accel import CGRAScheduler, CyclicFrameError
from repro.frames import build_frame
from repro.interp import Interpreter, TraceRecorder
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.profiling import derive_path_profile, rank_paths
from repro.regions import build_braids, path_to_region
from repro.sim import OffloadSimulator
from repro.workloads import get

from tests.conftest import build_counted_loop


def _profiled(build, args):
    m, fn = build()
    rec = TraceRecorder([fn])
    Interpreter(m, tracer=rec).run(fn.name, args)
    trace = rec.traces[fn]
    return m, fn, derive_path_profile(fn, trace), trace


def test_path_costs_cover_every_path():
    m, fn, profile, trace = _profiled(build_counted_loop, [30])
    sim = OffloadSimulator()
    costs = sim.path_costs(profile, host_load_latency=2)
    assert set(costs) == set(profile.counts)
    for pid, cost in costs.items():
        assert cost.cycles > 0
        assert cost.census.instructions > 0


def test_amortisation_reduces_per_execution_cost():
    m, fn, profile, trace = _profiled(build_counted_loop, [30])
    sim = OffloadSimulator()
    hot = max(profile.counts, key=profile.counts.get)
    amortised = sim.path_costs(profile, 2, amortise_reps=8)[hot].cycles
    standalone = sim.path_costs(profile, 2, amortise_reps=1)[hot].cycles
    # overlapped iterations cost less per execution than isolated ones
    assert amortised <= standalone


def test_baseline_is_count_weighted_sum():
    m, fn, profile, trace = _profiled(build_counted_loop, [30])
    sim = OffloadSimulator()
    costs = sim.path_costs(profile, 2)
    cycles, energy = sim.baseline(profile, costs)
    manual = sum(profile.counts[pid] * costs[pid].cycles for pid in costs)
    assert abs(cycles - manual) < 1e-9
    assert energy > 0


def test_loop_carried_pairs_derived_from_back_edge():
    m, fn, profile, trace = _profiled(build_counted_loop, [30])
    ranked = rank_paths(profile)
    frame = build_frame(path_to_region(fn, ranked[0]))
    pairs = OffloadSimulator._loop_carried(frame)
    # i and acc phis both carry
    assert len(pairs) == 2
    for phi, val in pairs:
        assert phi.opcode == "phi"
        assert val is phi.incoming_for(frame.region.blocks[-1])


def test_exec_fraction_scales_braid_energy(profiled_anticorrelated):
    m, fn, pp, ep = profiled_anticorrelated
    braid = build_braids(fn, rank_paths(pp))[0]
    frame = build_frame(braid.region)
    sim = OffloadSimulator()
    outcome = sim.simulate_offload("anticorr", pp, frame, "oracle")
    # each braid invocation only executes one arm, so the needle energy is
    # strictly below (invocations x whole-frame energy)
    from repro.accel.cgra import CGRAScheduler

    sched = CGRAScheduler(sim.config.cgra).schedule(frame)
    whole = sim.energy_model.frame_energy(
        n_int_ops=sched.int_ops + sched.guard_ops,
        n_fp_ops=sched.fp_ops,
        n_mem_ops=sched.mem_ops,
        n_edges=sched.edges,
        l2_accesses=sched.mem_ops,
    ).total_pj
    assert outcome.needle_energy_pj < outcome.invocations * whole


def test_outcome_properties_zero_division_guards():
    from repro.sim import OffloadOutcome

    o = OffloadOutcome(
        workload="x", strategy="braid",
        baseline_cycles=0, needle_cycles=0,
        baseline_energy_pj=0, needle_energy_pj=0,
    )
    assert o.performance_improvement == 0.0
    assert o.energy_reduction == 0.0


# -- braid effective II: constituent fallback ---------------------------------


def _braid_case():
    """(braid frame, profile, trace, scheduler, braid schedule) of a
    workload whose braid has several constituent paths."""
    analysis = NeedlePipeline(options=PipelineOptions(no_cache=True)) \
        .analyse(get("164.gzip"))
    frame = analysis.braid_frame
    assert len(frame.region.source_paths) >= 2
    scheduler = CGRAScheduler(load_latency=8.0, store_latency=2.7)
    sched = scheduler.schedule(
        frame, loop_carried=OffloadSimulator._loop_carried(frame))
    return frame, analysis.profiled, scheduler, sched


def test_constituent_rebuild_errors_propagate(monkeypatch):
    frame, profiled, _scheduler, _sched = _braid_case()

    def broken(region):
        raise KeyError("constituent block")

    # the effective II imports build_frame from its defining module
    monkeypatch.setattr("repro.frames.frame.build_frame", broken)
    with pytest.raises(KeyError):
        OffloadSimulator(memo=False).simulate_offload(
            "164.gzip", profiled.paths, frame, "oracle", profiled.trace)


def test_cyclic_constituent_falls_back_to_region_ii_and_is_counted():
    frame, profiled, scheduler, sched = _braid_case()
    sim = OffloadSimulator(memo=False)
    assert sim._effective_ii(frame, sched, profiled.paths, scheduler) \
        != sched.initiation_interval

    class Cyclic(CGRAScheduler):
        def schedule(self, frame, loop_carried=None):
            raise CyclicFrameError("cyclic frame dependence graph")

    cyclic = Cyclic(load_latency=8.0, store_latency=2.7)
    ran = sum(1 for pid in frame.region.source_paths
              if profiled.paths.counts.get(pid, 0) > 0)
    with obs.scoped() as reg:
        ii = sim._effective_ii(frame, sched, profiled.paths, cyclic)
    assert ii == float(sched.initiation_interval)
    fallbacks = reg.counter("sim.effective_ii_fallbacks")
    assert fallbacks.value(error="CyclicFrameError") == ran > 0
