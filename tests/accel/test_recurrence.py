"""Loop-carried recurrence II: the one-pass production computation against
a reference oracle, and the latency-only dependence the simulation memo's
recurrence key relies on.

Both properties are checked on every frame the suite builds: each
workload's top-path frame, its braid frame, and every constituent-path
frame the braid effective II re-schedules.
"""

from dataclasses import replace
from typing import List, Tuple

import pytest

from repro.accel import CGRAScheduler
from repro.frames import build_frame
from repro.frames.frame import Frame, PsiOp
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.profiling.ranking import RankedPath, count_ops
from repro.regions import path_to_region
from repro.sim import CGRAConfig, OffloadSimulator
from repro.workloads import all_workloads

#: (load, store) latencies: the scheduler defaults, the floor the offload
#: simulator clamps to, and a calibrated-looking middle point
LATENCY_PAIRS = [(20.0, 4.0), (4.0, 1.0), (9.2, 3.1)]


def reference_recurrence_ii(
    scheduler: CGRAScheduler,
    frame: Frame,
    deps: List[List[int]],
    loop_carried: List[Tuple[object, object]],
) -> int:
    """The straightforward recurrence II: for every loop-carried pair,
    re-chase every operand of every op and sweep the whole frame."""
    producer = {}
    for i, fop in enumerate(frame.ops):
        if fop.kind == "op" and fop.inst is not None and not fop.inst.type.is_void:
            producer[fop.inst] = i
        elif fop.kind == "psi":
            producer[fop.psi.phi] = i

    worst = 1
    for phi, def_value in loop_carried:
        def_chased = scheduler._chase(frame, def_value)
        if isinstance(def_chased, PsiOp):
            def_chased = def_chased.phi
        def_idx = producer.get(def_chased)
        if def_idx is None:
            continue
        dist = [float("-inf")] * len(frame.ops)
        for i, fop in enumerate(frame.ops):
            consumes = False
            if fop.kind == "op" and fop.inst is not None:
                operands = fop.inst.operands
            elif fop.kind == "psi":
                operands = [v for _, v in fop.psi.options]
            elif fop.kind == "guard":
                operands = [fop.guard.branch.cond]
            else:
                operands = []
            for operand in operands:
                if scheduler._chase(frame, operand) is phi:
                    consumes = True
                    break
            base = scheduler._latency(fop) if consumes else float("-inf")
            carried = max(
                (dist[j] for j in deps[i] if j < i), default=float("-inf")
            )
            if carried != float("-inf"):
                carried += scheduler._latency(fop)
            dist[i] = max(base, carried)
        if dist[def_idx] != float("-inf"):
            worst = max(worst, int(dist[def_idx]))
    return worst


def _constituent_frames(analysis) -> List[Frame]:
    """The braid's constituent-path frames, built as the braid effective
    II builds them."""
    frame = analysis.braid_frame
    profile = analysis.profiled.paths
    out = []
    for pid in frame.region.source_paths:
        freq = profile.counts.get(pid, 0)
        if freq <= 0:
            continue
        blocks = profile.decode(pid)
        rp = RankedPath(path_id=pid, blocks=blocks, freq=freq,
                        ops=count_ops(blocks), weight=0, coverage=0.0)
        out.append(build_frame(path_to_region(frame.region.function, rp)))
    return out


@pytest.fixture(scope="module")
def suite_frames():
    """(path and braid frames, constituent frames) of the whole suite."""
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True))
    regions, constituents = [], []
    for workload in all_workloads():
        analysis = pipe.analyse(workload)
        regions += [f for f in (analysis.path_frame, analysis.braid_frame)
                    if f is not None]
        if analysis.braid_frame is not None:
            constituents += _constituent_frames(analysis)
    return regions, constituents


@pytest.mark.parametrize("load,store", LATENCY_PAIRS)
def test_one_pass_recurrence_matches_reference(suite_frames, load, store):
    regions, constituents = suite_frames
    scheduler = CGRAScheduler(load_latency=load, store_latency=store)
    carried_cycles = 0
    for frame in regions + constituents:
        deps = scheduler._build_deps(frame)
        pairs = OffloadSimulator._loop_carried(frame)
        got = scheduler._recurrence_ii(frame, deps, pairs)
        assert got == reference_recurrence_ii(scheduler, frame, deps, pairs)
        carried_cycles += got > 1
    # the comparison must not be vacuous: real loop-carried chains exist
    assert carried_cycles > len(regions) // 2


def test_recurrence_ii_ignores_every_cgra_config_knob(suite_frames):
    """The recurrence memo keys on the two rounded memory latencies only,
    so no CGRA config field may move a constituent's recurrence II."""
    base = CGRAConfig()
    variants = [
        base,
        replace(base, rows=8),
        replace(base, issue_width=4),
        replace(base, network_pj=18.0),
        replace(base, reconfig_cycles=32),
        replace(base, memory_ports=1, cols=2),
    ]
    _regions, constituents = suite_frames
    assert constituents
    for frame in constituents:
        pairs = OffloadSimulator._loop_carried(frame)
        iis = {
            CGRAScheduler(cfg, load_latency=9.2, store_latency=3.1)
            .schedule(frame, loop_carried=pairs).recurrence_ii
            for cfg in variants
        }
        assert len(iis) == 1
