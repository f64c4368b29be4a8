"""Tests of the benchmark's own machinery: span arithmetic, wrapper
install/removal, binding coverage, row digests and run plans.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import itertools
import sys
import types

import pytest

import layers
import points
import rows
import spans

import repro
from repro import NeedlePipeline, PipelineOptions, evaluate_suite
from repro.workloads import clear_profile_cache


# -- self-time arithmetic ------------------------------------------------------


def _fake_module():
    """outer() calls inner() twice; inner() calls leaf(); each call to
    the fake clock advances it by one tick."""
    mod = types.ModuleType("perfbench_fake_layers")

    def leaf():
        return 1

    def inner():
        return mod.leaf() + 1

    def outer():
        return mod.inner() + mod.inner()

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    return mod


def test_self_time_of_nested_wrapped_calls():
    mod = _fake_module()
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    for name in ("outer", "inner", "leaf"):
        tracer.wrap(mod, name, name)
    try:
        assert mod.outer() == 4
    finally:
        tracer.uninstall()
    recorded = tracer.spans
    # clock reads in call order: outer(0 .. 9), inner(1 .. 4, 5 .. 8),
    # leaf(2 .. 3, 6 .. 7)
    assert [(r[0], r[1], r[2]) for r in recorded] == [
        ("outer", 0, 9), ("inner", 1, 4), ("leaf", 2, 3),
        ("inner", 5, 8), ("leaf", 6, 7)]
    assert [r[3] for r in recorded] == [-1, 0, 1, 0, 3]
    assert spans.self_times(recorded) == [3, 2, 1, 2, 1]
    t = spans.totals(recorded)
    assert t["outer"] == {"calls": 1, "total_s": 9, "self_s": 3}
    assert t["inner"] == {"calls": 2, "total_s": 6, "self_s": 4}
    assert t["leaf"] == {"calls": 2, "total_s": 2, "self_s": 2}
    # self times partition the root span exactly
    assert sum(spans.self_times(recorded)) == recorded[0][2] - recorded[0][1]


def test_recursive_span_counts_inclusive_time_once():
    mod = types.ModuleType("perfbench_fake_recursion")

    def fact(n):
        return 1 if n <= 1 else n * mod.fact(n - 1)

    mod.fact = fact
    ticks = itertools.count()
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(mod, "fact", "fact")
    try:
        assert mod.fact(3) == 6
    finally:
        tracer.uninstall()
    t = spans.totals(tracer.spans)
    assert t["fact"]["calls"] == 3
    assert t["fact"]["total_s"] == 5          # outermost span only
    assert t["fact"]["self_s"] == 5


def test_spans_carry_program_and_point():
    mod = _fake_module()
    tracer = spans.Tracer()
    tracer.wrap(mod, "leaf", "leaf")
    tracer.program, tracer.point = "164.gzip", "cgra.rows8"
    try:
        mod.leaf()
    finally:
        tracer.uninstall()
    assert tracer.spans[0][4] == ("164.gzip", "cgra.rows8")


def test_forked_worker_spools_each_outermost_span(tmp_path):
    import os

    mod = _fake_module()
    tracer = spans.Tracer(spool=str(tmp_path))
    for name in ("outer", "inner", "leaf"):
        tracer.wrap(mod, name, name)
    tracer.install()
    try:
        mod.leaf()                       # recorded before the fork
        pid = os.fork()
        if pid == 0:                     # the worker: two outermost spans
            try:
                mod.outer()
                mod.outer()
            finally:
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert status == 0
    finally:
        tracer.uninstall()
    batches = spans.read_spool(str(tmp_path))
    assert len(batches) == 2
    for batch in batches:
        assert [r[0] for r in batch] == ["outer", "inner", "leaf",
                                         "inner", "leaf"]
        assert [r[3] for r in batch] == [-1, 0, 1, 0, 3]
    assert [r[0] for r in tracer.spans] == ["leaf"]


# -- wrapper install / removal -------------------------------------------------


def _bindings():
    """Every function/method object reachable from loaded repro modules."""
    seen = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro"
                               or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            seen[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    seen[(modname, attr, cattr)] = cvalue
    return seen


def test_wrappers_removed_after_traced_run():
    before = _bindings()
    tracer = layers.install(spans.Tracer())
    assert tracer.installed_bindings >= 20
    changed = [k for k, v in _bindings().items() if before.get(k) is not v]
    assert changed, "install() wrapped nothing"
    try:
        evaluate_suite(["dwt53"], options=PipelineOptions(no_cache=True))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert [k for k in before if after.get(k) is not before[k]] == []
    assert tracer.installed_bindings == 0


def test_pipeline_import_time_bindings_are_wrapped():
    from repro import pipeline
    from repro.frames import frame

    tracer = layers.install(spans.Tracer())
    try:
        for attr in ("profile_workload", "rank_paths", "build_braids",
                     "path_to_region", "build_frame", "workload_key"):
            assert getattr(getattr(pipeline, attr),
                           "__wrapped_by_perfbench__", False), attr
        assert pipeline.build_frame is frame.build_frame
    finally:
        tracer.uninstall()


# -- traced rows are byte-identical to untraced rows ---------------------------

SUBSET = ["164.gzip", "470.lbm", "dwt53"]


def _canonical_rows(tmp_path, traced):
    clear_profile_cache()
    tracer = layers.install(spans.Tracer()) if traced else None
    try:
        got = evaluate_suite(SUBSET, options=PipelineOptions(
            cache_dir=str(tmp_path / ("t" if traced else "u"))))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return [rows.canonical(r) for r in got], tracer


def test_traced_rows_byte_identical_to_untraced(tmp_path):
    plain, _ = _canonical_rows(tmp_path, traced=False)
    traced, tracer = _canonical_rows(tmp_path, traced=True)
    assert traced == plain
    assert len(tracer.spans) > 0
    golden = rows.load_golden()[points.DEFAULT_POINT]
    assert [rows.digest(r) for r in evaluate_suite(
        SUBSET, options=PipelineOptions(no_cache=True))] == [
        golden[n] for n in SUBSET]


# -- binding coverage: span counts match the analysis --------------------------


def _expected_counts(analysis):
    """(frames built, schedules run) for one cold evaluation."""
    frames = (analysis.path_frame is not None) + \
        (analysis.braid_frame is not None)
    schedules = (analysis.path_frame is not None) + \
        2 * (analysis.braid_frame is not None)
    region = analysis.braid_frame.region if analysis.braid_frame else None
    if region is not None and region.kind == "braid" and \
            len(region.source_paths) >= 2:
        counts = analysis.profiled.paths.counts
        constituents = sum(1 for pid in region.source_paths
                           if counts.get(pid, 0) > 0)
        frames += constituents
        schedules += constituents
    return frames, schedules


@pytest.mark.parametrize("name", ["164.gzip", "179.art"])
def test_build_and_schedule_counts_match_analysis(name):
    workload = repro.load_workload(name)
    clear_profile_cache()
    analysis = NeedlePipeline(
        options=PipelineOptions(no_cache=True)).analyse(workload)
    frames, schedules = _expected_counts(analysis)
    assert frames > 3, "pick a program whose braid has constituents"

    clear_profile_cache()
    tracer = layers.install(spans.Tracer())
    try:
        NeedlePipeline(options=PipelineOptions(no_cache=True)).evaluate(
            workload)
    finally:
        tracer.uninstall()
    m = layers.layer_metrics([tracer.spans], wall_s=1.0, jobs=1)
    assert m["frames.build_calls"] == frames
    assert m["accel.cgra.schedule_calls"] == schedules
    assert m["interp.dyn_instr"] == \
        analysis.profiled.trace.dynamic_instructions
    assert m["profiling.path_execs"] == \
        analysis.profiled.paths.total_executions


def test_suite_build_and_schedule_counts():
    clear_profile_cache()
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True))
    expected = [_expected_counts(pipe.analyse(w)) for w in repro.suite()]
    assert (sum(f for f, _ in expected), sum(s for _, s in expected)) == \
        (746, 775)
    clear_profile_cache()
    tracer = layers.install(spans.Tracer())
    try:
        evaluate_suite(options=PipelineOptions(no_cache=True))
    finally:
        tracer.uninstall()
    m = layers.layer_metrics([tracer.spans], wall_s=1.0, jobs=1)
    assert (m["frames.build_calls"], m["accel.cgra.schedule_calls"]) == \
        (746, 775)
    assert m["sim.offload.paths_costed"] == 849
    assert m["interp.dyn_instr"] == 1919465


# -- rows and plans ------------------------------------------------------------


def test_check_rows_flags_quarantined_and_changed_rows():
    from repro.resilience import WorkloadFailure

    got = evaluate_suite(["dwt53", "470.lbm"],
                         options=PipelineOptions(no_cache=True))
    golden = rows.load_golden()[points.DEFAULT_POINT]
    names = ["dwt53", "470.lbm"]
    assert rows.check_rows(names, got, golden) == []
    failure = WorkloadFailure(workload="470.lbm", kind="exception",
                              attempts=3)
    assert rows.check_rows(names, [got[0], failure], golden) == ["470.lbm"]
    got[0].summary.executed_paths += 1
    assert rows.check_rows(names, got, golden) == ["dwt53"]
    assert rows.check_rows(names, got[:1], golden) == ["dwt53", "470.lbm"]


def test_golden_covers_every_menu_point_and_program():
    golden = rows.load_golden()
    names = sorted(w.name for w in repro.suite())
    assert sorted(golden) == sorted(points.all_points())
    for point in golden.values():
        assert sorted(point) == names


def test_sweep_points_are_seeded_and_shaped():
    a, b = points.sweep_points(7), points.sweep_points(7)
    assert a == b
    ids = [pid for pid, _ in a]
    assert ids[0] == points.DEFAULT_POINT and len(ids) == 6
    assert [i.split(".")[0] for i in ids[1:]] == \
        ["cgra", "cgra", "host", "host", "mem"]
    assert len({tuple(p for p, _ in points.sweep_points(s))
                for s in range(20)}) > 1


def test_program_order_is_a_seeded_permutation():
    names = [w.name for w in repro.suite()]
    one = points.program_order(names, "parallel-suite", 3)
    assert sorted(one) == sorted(names)
    assert one == points.program_order(names, "parallel-suite", 3)
    assert one != points.program_order(names, "parallel-suite", 3, rep=1)
    assert one != points.program_order(names, "parallel-suite", 4)
    assert points.program_order(names, "config-sweep", 3) == names


def test_cache_hit_watch_sees_a_warm_rerun(tmp_path):
    import rep

    spool = tmp_path / "spool"
    spool.mkdir()
    cache = str(tmp_path / "cache")
    unwatch = rep._watch_cache_hits(str(spool))
    try:
        clear_profile_cache()
        evaluate_suite(["dwt53"], options=PipelineOptions(cache_dir=cache))
        assert rep._count_hits(str(spool)) == 0
        evaluate_suite(["dwt53"], options=PipelineOptions(cache_dir=cache))
        assert rep._count_hits(str(spool)) == 1      # the evaluation record
    finally:
        unwatch()
