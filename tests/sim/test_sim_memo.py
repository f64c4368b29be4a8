"""Cross-strategy simulation memo: identity, sharing, persistence.

The memo must be invisible in the numbers — memoized, cold, parallel and
cache-served runs all produce byte-identical results — and visible only
in the work: three strategies per workload share one calibration, one
path-cost table and one schedule pool, and (with an artifact cache) the
tables survive process death.
"""

import pickle
from dataclasses import replace

from repro import obs, workloads
from repro.artifacts import (
    ArtifactCache,
    CALIBRATION_KIND,
    PATH_COSTS_KIND,
    RECURRENCE_KIND,
)
from repro.frames import build_frame
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.profiling import rank_paths
from repro.regions import path_to_region
from repro.sim import OffloadSimulator, SimulationMemo, content_key
from repro.sim.config import DEFAULT_CONFIG
from repro.workloads import profile_workload

SUBSET = ["164.gzip", "429.mcf", "470.lbm", "dwt53"]


def _outcome_fields(outcome):
    return None if outcome is None else vars(outcome).copy()


def _flatten(ev):
    return {
        "summary": vars(ev.summary).copy(),
        "path_oracle": _outcome_fields(ev.path_oracle),
        "path_history": _outcome_fields(ev.path_history),
        "braid": _outcome_fields(ev.braid),
        "hls": _outcome_fields(ev.hls),
        "braid_schedule": _outcome_fields(ev.braid_schedule),
    }


def _suite(names):
    return [workloads.get(name) for name in names]


# -- memo unit behaviour ----------------------------------------------------


def test_content_memoizes_and_counts():
    memo = SimulationMemo()
    calls = []
    assert memo.content("calibration", "k", lambda: calls.append(1) or 42) == 42
    assert memo.content("calibration", "k", lambda: calls.append(1) or 99) == 42
    assert calls == [1]
    assert memo.hits == 1 and memo.misses == 1


def test_identity_guard_requires_same_object():
    memo = SimulationMemo()
    a, b = [1], [1]  # equal values, distinct identities
    assert memo.identity("rle", a, None, lambda: "A") == "A"
    assert memo.identity("rle", a, None, lambda: "B") == "A"
    assert memo.identity("rle", b, None, lambda: "B") == "B"


def test_snapshot_merge_round_trip():
    worker = SimulationMemo()
    worker.content("calibration", "k1", lambda: "v1")
    snap = pickle.loads(pickle.dumps(worker.snapshot()))
    parent = SimulationMemo()
    parent.merge(snap)
    # the merged entry is served without recomputation
    assert parent.content("calibration", "k1", lambda: "WRONG") == "v1"
    parent.merge(None)  # tolerated no-op


def test_content_persists_through_artifact_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = SimulationMemo(cache=ArtifactCache(cache_dir))
    key = content_key("workload", "memcfg")
    first.content(CALIBRATION_KIND, key, lambda: {"lat": 3.5})

    # a fresh memo over the same cache dir (= a retried worker, or the
    # next process) is served from disk without recomputing
    second = SimulationMemo(cache=ArtifactCache(cache_dir))
    assert second.content(CALIBRATION_KIND, key, lambda: "WRONG") == {"lat": 3.5}
    assert second.misses == 0 and second.hits == 1


# -- simulator-level byte-identity -----------------------------------------


def _profiled(name):
    return profile_workload(workloads.get(name), use_cache=False)


def test_memoized_matches_cold_calibration_and_costs():
    profiled = _profiled(SUBSET[0])
    memo_sim = OffloadSimulator()  # private memo by default
    cold_sim = OffloadSimulator(memo=False)

    cal_m = memo_sim.calibrate(profiled.trace)
    cal_c = cold_sim.calibrate(profiled.trace)
    assert pickle.dumps(cal_m) == pickle.dumps(cal_c)
    # second memoized call returns the identical record
    assert memo_sim.calibrate(profiled.trace) is cal_m

    costs_m = memo_sim.path_costs(profiled.paths, cal_m.host_load_latency)
    costs_c = cold_sim.path_costs(profiled.paths, cal_c.host_load_latency)
    assert pickle.dumps(costs_m) == pickle.dumps(costs_c)


def test_memoized_matches_cold_outcomes():
    profiled = _profiled(SUBSET[0])
    frame = build_frame(
        path_to_region(profiled.function, rank_paths(profiled.paths)[0])
    )
    memo_sim = OffloadSimulator()
    cold_sim = OffloadSimulator(memo=False)
    for predictor in ("oracle", "history"):
        a = memo_sim.simulate_offload(
            profiled.workload.name, profiled.paths, frame, predictor,
            profiled.trace,
        )
        b = cold_sim.simulate_offload(
            profiled.workload.name, profiled.paths, frame, predictor,
            profiled.trace,
        )
        assert _outcome_fields(a) == _outcome_fields(b)


def test_three_strategies_share_sub_simulations():
    pipe = NeedlePipeline()
    with obs.scoped() as reg:
        pipe.evaluate(workloads.get(SUBSET[0]))
    memo = pipe.sim_memo
    assert memo is not None and memo.hits > 0
    hits = reg.counter("simcache.hits")
    # calibration and path costs computed once, reused by the other runs
    assert hits.value(table="calibration") >= 2
    assert hits.value(table="pathcosts") >= 1
    assert reg.counter("simcache.misses").value(table="calibration") == 1


def test_rle_ratio_gauge_published():
    pipe = NeedlePipeline()
    with obs.scoped() as reg:
        pipe.evaluate(workloads.get(SUBSET[0]))
    series = dict(reg.gauge("trace.rle_ratio").series())
    assert series  # at least one workload reported
    for _labels, ratio in series.items():
        assert 0.0 < ratio <= 1.0


# -- pipeline-level byte-identity across execution modes --------------------


def test_memo_serial_parallel_and_cached_are_byte_identical(tmp_path):
    suite = _suite(SUBSET)
    reference = [
        _flatten(ev)
        for ev in NeedlePipeline(
            options=PipelineOptions(no_cache=True, no_sim_memo=True)
        ).evaluate_all(suite)
    ]

    memo_serial = NeedlePipeline(
        options=PipelineOptions(no_cache=True)
    ).evaluate_all(suite)
    assert [_flatten(ev) for ev in memo_serial] == reference

    memo_parallel = NeedlePipeline(
        options=PipelineOptions(no_cache=True, jobs=4)
    ).evaluate_all(suite)
    assert [_flatten(ev) for ev in memo_parallel] == reference

    cache_dir = str(tmp_path / "cache")
    warm = NeedlePipeline(cache=ArtifactCache(cache_dir))
    assert [_flatten(ev) for ev in warm.evaluate_all(suite)] == reference
    # a fresh pipeline over the same cache is served from disk — including
    # the persisted calibration/path-cost tables — with identical bytes
    served = NeedlePipeline(cache=ArtifactCache(cache_dir))
    assert [_flatten(ev) for ev in served.evaluate_all(suite)] == reference
    assert served.cache.hits > 0


def test_parallel_workers_ship_memo_snapshots_back():
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True, jobs=4))
    pipe.evaluate_all(_suite(SUBSET))
    # without an artifact cache the only way content entries reach the
    # parent memo is the per-result snapshot merge
    assert pipe.sim_memo is not None
    assert pipe.sim_memo.snapshot()["content"]
    kinds = {kind for kind, _key in pipe.sim_memo.snapshot()["content"]}
    assert kinds == {CALIBRATION_KIND, PATH_COSTS_KIND, RECURRENCE_KIND}


def test_design_points_reuse_braid_recurrences(tmp_path):
    """The braid recurrence keys on the CGRA latency slice only: a CGRA
    point reuses every recurrence the default point computed, a point
    that moves the calibrated accelerator latency recomputes."""
    suite = workloads.all_workloads()
    cache_dir = str(tmp_path / "cache")

    def sweep_point(config):
        pipe = NeedlePipeline(
            options=PipelineOptions(config=config, cache_dir=cache_dir))
        with obs.scoped() as reg:
            rows = [_flatten(ev) for ev in pipe.evaluate_all(suite)]
        return (rows, reg.counter("simcache.hits").value(table="recurrence"),
                reg.counter("simcache.misses").value(table="recurrence"))

    _rows, _hits, computed = sweep_point(DEFAULT_CONFIG)
    assert computed >= 22  # one per braid with several constituents

    rows8 = replace(DEFAULT_CONFIG, cgra=replace(DEFAULT_CONFIG.cgra, rows=8))
    rows, hits, misses = sweep_point(rows8)
    assert hits >= 22 and misses == 0
    assert rows == [_flatten(ev) for ev in NeedlePipeline(
        options=PipelineOptions(config=rows8, no_cache=True, no_sim_memo=True)
    ).evaluate_all(suite)]

    dram200 = replace(DEFAULT_CONFIG,
                      memory=replace(DEFAULT_CONFIG.memory, dram_latency=200))
    _rows, _hits, misses = sweep_point(dram200)
    assert misses > 0


def test_persisted_tables_survive_process_boundary(tmp_path):
    cache_dir = str(tmp_path / "cache")
    first = NeedlePipeline(cache=ArtifactCache(cache_dir))
    first.evaluate(workloads.get(SUBSET[0]))

    # second pipeline, same disk cache: wipe the *evaluation* entries so
    # it must re-simulate, and verify the calibration table is served
    import glob
    import os

    for path in glob.glob(
        os.path.join(cache_dir, "evaluation", "**", "*.pkl"), recursive=True
    ):
        os.unlink(path)
    second = NeedlePipeline(cache=ArtifactCache(cache_dir))
    with obs.scoped() as reg:
        ev = second.evaluate(workloads.get(SUBSET[0]))
    assert ev.braid is not None
    assert reg.counter("simcache.misses").value(table="calibration") == 0
    assert reg.counter("simcache.hits").value(table="calibration") >= 3


def test_no_sim_memo_option_disables_memo():
    pipe = NeedlePipeline(options=PipelineOptions(no_cache=True, no_sim_memo=True))
    assert pipe.sim_memo is None
    with obs.scoped() as reg:
        pipe.evaluate(workloads.get(SUBSET[0]))
    assert reg.counter("simcache.hits").value(table="calibration") == 0
    assert reg.counter("simcache.misses").value(table="calibration") == 0
