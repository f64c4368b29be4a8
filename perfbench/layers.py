"""Which public entry points of ``repro`` the traced run wraps, and how the
recorded spans fold into the per-layer metrics of ``BENCHMARK.json``.

Every span name is the metric prefix it feeds.  Bindings are found by
:meth:`spans.Tracer.wrap`: ``repro.pipeline`` binds ``profile_workload``,
``rank_paths``, ``build_braids``, ``path_to_region``, ``build_frame``
and ``workload_key`` at import; ``OffloadSimulator._effective_ii``
imports ``build_frame``/``path_to_region`` and ``simulate_offload`` the
``accel.invocation`` predictor functions at call time, from their
defining modules.
"""

from __future__ import annotations

import os
from typing import Dict, List

from spans import Span, Tracer, totals


# -- probes: attach counts to a span -----------------------------------------


def _path_costs_probe(tracer, args, kwargs):
    memo = args[0].memo
    misses = memo.misses if memo is not None else 0

    def finish(result):
        if memo is not None and memo.misses == misses:
            return None          # served by the memo: nothing costed
        return {"paths_costed": len(result)}

    return finish


def _simulate_probe(tracer, args, kwargs):
    frame = args[3] if len(args) > 3 else kwargs["frame"]
    kind = "braid" if frame.region.kind == "braid" else "path"
    return lambda _result: {kind + "_calls": 1}


def _get_probe(tracer, args, kwargs):
    return lambda result: {"hits" if result is not None else "misses": 1}


def _put_probe(tracer, args, kwargs):
    cache, kind, key = args[0], args[1], args[2]

    def finish(ok):
        if not ok:
            return None
        try:
            return {"bytes_written": os.path.getsize(cache._path(kind, key))}
        except OSError:
            return None

    return finish


def _evaluate_probe(tracer, args, kwargs):
    pipe, workload = args[0], args[1]
    memo = pipe.sim_memo
    before = (memo.hits, memo.misses) if memo is not None else (0, 0)
    saved = tracer.program
    tracer.program = workload.name
    first = len(tracer.spans)

    def finish(result):
        tracer.program = saved
        counts = {}
        if memo is not None:
            counts["memo_hits"] = memo.hits - before[0]
            counts["memo_misses"] = memo.misses - before[1]
        if any(rec[0] == "interp.run" for rec in tracer.spans[first:]):
            # this evaluation profiled: its record carries the run's
            # dynamic instruction (phi included) and path-execution counts
            counts["dyn_instr"] = result.summary.dynamic_instructions
            counts["path_execs"] = result.summary.total_executions
        return counts

    return finish


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced entry point; returns ``tracer``."""
    from repro import artifacts, pipeline
    from repro.accel import cgra, hls, invocation
    from repro.frames import frame
    from repro.interp import interpreter
    from repro.profiling import ranking
    from repro.regions import braid, path_region
    from repro.sim import offload
    from repro.workloads import base

    w = tracer.wrap
    w(interpreter.Interpreter, "run", "interp.run")
    w(base, "profile_workload", "profiling.profile")
    w(ranking, "rank_paths", "profiling.rank")
    w(braid, "build_braids", "regions.braid")
    w(path_region, "path_to_region", "regions.path_region")
    w(frame, "build_frame", "frames.build")
    w(cgra.CGRAScheduler, "schedule", "accel.cgra.schedule")
    w(offload.OffloadSimulator, "calibrate", "sim.offload.calibrate")
    w(offload.OffloadSimulator, "path_costs", "sim.offload.path_costs",
      _path_costs_probe)
    w(offload.OffloadSimulator, "simulate_offload", "sim.offload.simulate",
      _simulate_probe)
    for fn in ("evaluate_predictor", "evaluate_predictor_runs",
               "evaluate_predictor_runs_array"):
        w(invocation, fn, "accel.invocation.predict")
    w(hls.HLSEstimator, "estimate", "accel.hls.estimate")
    w(artifacts, "workload_key", "artifacts.key")
    w(artifacts.ArtifactCache, "get", "artifacts.get", _get_probe)
    w(artifacts.ArtifactCache, "put", "artifacts.put", _put_probe)
    w(pipeline.NeedlePipeline, "evaluate", "pipeline.evaluate",
      _evaluate_probe)
    tracer.install()
    return tracer


#: (metric, unit) in the order ``BENCHMARK.json`` lists them
PER_LAYER = (
    ("interp.run_s", "s"),
    ("interp.dyn_instr", "count"),
    ("interp.minstr_per_s", "Minstr/s"),
    ("profiling.profile_s", "s"),
    ("profiling.path_execs", "count"),
    ("profiling.rank_s", "s"),
    ("regions.braid_s", "s"),
    ("regions.path_region_s", "s"),
    ("frames.build_s", "s"),
    ("frames.build_calls", "count"),
    ("accel.cgra.schedule_s", "s"),
    ("accel.cgra.schedule_calls", "count"),
    ("sim.offload.calibrate_s", "s"),
    ("sim.offload.path_costs_s", "s"),
    ("sim.offload.paths_costed", "count"),
    ("sim.offload.braid_s", "s"),
    ("sim.offload.path_s", "s"),
    ("sim.offload.self_s", "s"),
    ("accel.invocation.predict_s", "s"),
    ("accel.hls.estimate_s", "s"),
    ("sim.memo.hit_ratio", "ratio"),
    ("artifacts.key_s", "s"),
    ("artifacts.put_s", "s"),
    ("artifacts.get_s", "s"),
    ("artifacts.hits", "count"),
    ("artifacts.misses", "count"),
    ("artifacts.bytes_written", "bytes"),
    ("pipeline.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("exec.busy_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
)


def layer_metrics(span_lists: List[List[Span]], wall_s: float, jobs: int
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced timed phase.

    ``span_lists`` holds independent span lists: the driver process's,
    plus one per outermost span a pool worker spooled; ``jobs`` is the
    pool width (1 when serial).
    Self times are summed over processes; ``pipeline.overhead_s`` and
    ``trace.unattributed_s`` divide the summed busy time by ``jobs`` to
    compare it with wall time.
    """
    t: Dict[str, Dict[str, float]] = {}
    for spans in span_lists:
        for name, row in totals(spans).items():
            acc = t.setdefault(name, {})
            for key, value in row.items():
                acc[key] = acc.get(key, 0) + value

    def get(name: str, key: str = "self_s") -> float:
        return float(t.get(name, {}).get(key, 0))

    sim = t.get("sim.offload.simulate", {})
    per_kind = {"braid": 0.0, "path": 0.0}
    for spans in span_lists:
        for rec in spans:
            if rec[0] == "sim.offload.simulate" and rec[5]:
                per_kind["braid" if "braid_calls" in rec[5] else "path"] += (
                    rec[2] - rec[1])
    dyn = get("pipeline.evaluate", "dyn_instr")
    run_total = get("interp.run", "total_s")
    hits, misses = get("pipeline.evaluate", "memo_hits"), \
        get("pipeline.evaluate", "memo_misses")
    evaluate_total = get("pipeline.evaluate", "total_s")
    attributed = sum(row["self_s"] for name, row in t.items()
                     if name != "pipeline.evaluate")
    return {
        "interp.run_s": get("interp.run"),
        "interp.dyn_instr": dyn,
        "interp.minstr_per_s": dyn / run_total / 1e6 if run_total else 0.0,
        "profiling.profile_s": get("profiling.profile"),
        "profiling.path_execs": get("pipeline.evaluate", "path_execs"),
        "profiling.rank_s": get("profiling.rank"),
        "regions.braid_s": get("regions.braid"),
        "regions.path_region_s": get("regions.path_region"),
        "frames.build_s": get("frames.build"),
        "frames.build_calls": get("frames.build", "calls"),
        "accel.cgra.schedule_s": get("accel.cgra.schedule"),
        "accel.cgra.schedule_calls": get("accel.cgra.schedule", "calls"),
        "sim.offload.calibrate_s": get("sim.offload.calibrate"),
        "sim.offload.path_costs_s": get("sim.offload.path_costs"),
        "sim.offload.paths_costed": get("sim.offload.path_costs",
                                        "paths_costed"),
        "sim.offload.braid_s": per_kind["braid"],
        "sim.offload.path_s": per_kind["path"],
        "sim.offload.self_s": float(sim.get("self_s", 0.0)),
        "accel.invocation.predict_s": get("accel.invocation.predict"),
        "accel.hls.estimate_s": get("accel.hls.estimate"),
        "sim.memo.hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "artifacts.key_s": get("artifacts.key"),
        "artifacts.put_s": get("artifacts.put"),
        "artifacts.get_s": get("artifacts.get"),
        "artifacts.hits": get("artifacts.get", "hits"),
        "artifacts.misses": get("artifacts.get", "misses"),
        "artifacts.bytes_written": get("artifacts.put", "bytes_written"),
        "pipeline.overhead_s": wall_s - evaluate_total / jobs,
        "trace.unattributed_s": wall_s - attributed / jobs,
        "exec.busy_frac": evaluate_total / (jobs * wall_s) if wall_s
        else 0.0,
    }
