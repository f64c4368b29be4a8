"""Property tests: the run-length trace kernels vs the event reference.

The perf claim of the run-length kernels is only worth having if the
fast path is *bit-identical* to the reference — same predictor census,
same charge census, same OffloadOutcome floats.  These tests enforce
that equivalence from three angles: pure RLE round-trips, predictor and
census evaluation over random traces (hypothesis), and full simulator
outcomes on real suite workloads under both kernel modes.  The suite
rows of both modes are also pinned to the committed golden digests, so
a change that shifts both tiers alike fails here too.
"""

import dataclasses
import importlib.util
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import evaluate_suite, workloads
from repro.accel.invocation import (
    HistoryPredictor,
    OraclePredictor,
    evaluate_predictor,
    evaluate_predictor_runs,
)
from repro.cli import main
from repro.frames import build_frame
from repro.options import PipelineOptions
from repro.pipeline import NeedlePipeline
from repro.profiling import rank_paths
from repro.regions import path_to_region
from repro.sim import (
    DEFAULT_CONFIG,
    ChargeCensus,
    KERNELS_EVENTS,
    KERNELS_RLE,
    OffloadSimulator,
    census_from_events,
    census_from_segments,
    run_length_encode,
)

# traces built from runs: long stretches of one path id exercise the
# closed-form tail, short stutters exercise the explicit prefix
run_traces = st.lists(
    st.tuples(st.integers(0, 5), st.integers(1, 40)), max_size=25
).map(lambda runs: [pid for pid, n in runs for _ in range(n)])
target_sets = st.sets(st.integers(0, 5))


# -- RLE view ---------------------------------------------------------------


@given(run_traces)
def test_rle_round_trip(trace):
    rle = run_length_encode(trace)
    assert rle.expand() == trace
    assert rle.n_events == len(trace)
    assert rle.n_runs <= rle.n_events
    # runs are maximal: no two adjacent runs share a path id
    for (a, _), (b, _) in zip(rle.runs, rle.runs[1:]):
        assert a != b
    if trace:
        assert 0.0 < rle.rle_ratio <= 1.0
    else:
        assert rle.rle_ratio == 1.0


@given(run_traces)
def test_rle_per_pid_stats(trace):
    stats = run_length_encode(trace).per_pid_run_stats()
    assert sum(events for _, events, _ in stats.values()) == len(trace)
    for pid, (n_runs, n_events, longest) in stats.items():
        assert trace.count(pid) == n_events
        assert 1 <= longest <= n_events
        assert n_runs <= n_events


# -- predictor evaluation: runs vs events ----------------------------------


def _predictors(targets, history_length):
    yield OraclePredictor(targets)
    yield HistoryPredictor(history_length=history_length)
    # a trigger-happy variant that invokes from the initial counter state
    yield HistoryPredictor(
        history_length=history_length, init_counter=3, invoke_threshold=2
    )


@settings(deadline=None)
@given(run_traces, target_sets, st.integers(1, 4))
def test_run_eval_matches_event_eval(trace, targets, history_length):
    for make in range(3):
        events_pred = list(_predictors(targets, history_length))[make]
        runs_pred = list(_predictors(targets, history_length))[make]
        ev = evaluate_predictor(trace, targets, events_pred, history_length)
        run_ev = evaluate_predictor_runs(
            run_length_encode(trace).runs, targets, runs_pred, history_length
        )
        assert run_ev.true_positives == ev.true_positives
        assert run_ev.false_positives == ev.false_positives
        assert run_ev.true_negatives == ev.true_negatives
        assert run_ev.false_negatives == ev.false_negatives
        assert run_ev.precision == ev.precision
        assert run_ev.recall == ev.recall
        # the segments expand to the exact per-event decision stream
        expanded = [
            (pid, invoke)
            for pid, invoke, length in run_ev.segments
            for _ in range(length)
        ]
        assert expanded == list(zip(trace, ev.decisions))
        # and segments are maximal (merged on emit)
        for (p1, i1, _), (p2, i2, _) in zip(run_ev.segments, run_ev.segments[1:]):
            assert (p1, i1) != (p2, i2)


@settings(deadline=None)
@given(run_traces, target_sets, st.booleans(), st.integers(1, 4),
       st.integers(0, 2))
def test_census_kernels_agree(trace, targets, pipelined, history_length,
                              make):
    ev = evaluate_predictor(
        trace, targets, list(_predictors(targets, history_length))[make],
        history_length,
    )
    run_ev = evaluate_predictor_runs(
        run_length_encode(trace).runs, targets,
        list(_predictors(targets, history_length))[make], history_length,
    )
    slow = census_from_events(trace, ev.decisions, targets, pipelined)
    fast = census_from_segments(run_ev.segments, targets, pipelined)
    assert slow == fast
    # every event lands in exactly one charge class
    total = sum(
        sum(table.values())
        for table in (slow.run_starts, slow.pipelined, slow.failures, slow.host)
    )
    assert total == len(trace)
    assert slow.invocations == ev.invocations


@given(run_traces, target_sets)
def test_census_oracle_never_fails(trace, targets):
    ev = evaluate_predictor(trace, targets, OraclePredictor(targets))
    census = census_from_events(trace, ev.decisions, targets, True)
    assert census.failed == 0
    assert not census.failures


# -- empty traces and zero-length runs are guarded everywhere ---------------


def test_empty_trace_guards():
    rle = run_length_encode([])
    assert rle.n_runs == 0 and rle.n_events == 0
    assert rle.rle_ratio == 1.0
    assert rle.expand() == []
    assert rle.per_pid_run_stats() == {}
    for predictor in (OraclePredictor({1}), HistoryPredictor()):
        ev = evaluate_predictor_runs(rle.runs, {1}, predictor)
        assert ev.segments == []
        assert (ev.true_positives, ev.false_positives,
                ev.true_negatives, ev.false_negatives) == (0, 0, 0, 0)
    assert census_from_segments([], {1}, True) == ChargeCensus()


@pytest.mark.parametrize("pipelined", [False, True])
def test_zero_length_segments_charge_nothing(pipelined):
    segs = [(1, True, 0), (2, False, 0)]
    assert census_from_segments(segs, {1}, pipelined) == ChargeCensus()


# -- full simulator: kernel modes are bitwise-identical ---------------------


def test_invalid_kernel_mode_rejected(capsys):
    # "array" names the columnar tier that no longer exists
    for mode in ("bogus", "array"):
        with pytest.raises(ValueError):
            OffloadSimulator(trace_kernels=mode)
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "dwt53", "--no-cache", "--trace-kernels", mode])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


def _outcome_bits(outcome):
    return vars(outcome).copy()


@pytest.mark.parametrize("pipelined", [False, True])
def test_kernel_modes_identical_on_fixture(profiled_anticorrelated, pipelined):
    m, fn, pp, ep = profiled_anticorrelated
    frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
    config = dataclasses.replace(
        DEFAULT_CONFIG,
        offload=dataclasses.replace(
            DEFAULT_CONFIG.offload, pipelined_invocations=pipelined
        ),
    )
    rle_sim = OffloadSimulator(config, trace_kernels=KERNELS_RLE)
    ev_sim = OffloadSimulator(config, trace_kernels=KERNELS_EVENTS)
    for predictor in ("oracle", "history"):
        a = rle_sim.simulate_offload("anticorr", pp, frame, predictor)
        b = ev_sim.simulate_offload("anticorr", pp, frame, predictor)
        assert _outcome_bits(a) == _outcome_bits(b)


#: structurally diverse suite slice (same rationale as
#: tests/test_parallel_and_cache.py): int + fp, loop-heavy and branchy
SUITE_SLICE = ["164.gzip", "429.mcf", "470.lbm", "dwt53"]


def _flatten(ev):
    def fields(outcome):
        return None if outcome is None else vars(outcome).copy()

    return {
        "summary": vars(ev.summary).copy(),
        "path_oracle": fields(ev.path_oracle),
        "path_history": fields(ev.path_history),
        "braid": fields(ev.braid),
        "hls": fields(ev.hls),
        "braid_schedule": fields(ev.braid_schedule),
    }


def _perfbench_rows():
    """The benchmark's row canonicaliser (``perfbench/rows.py``), loaded
    by path so its digests are the ones ``golden.json`` was written with."""
    path = os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir, "perfbench",
        "rows.py",
    )
    spec = importlib.util.spec_from_file_location("perfbench_rows", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_suite_rows_match_golden_on_both_tiers():
    # absolute pin: every default-config row of the production tier and
    # of the reference tier must hash to the committed golden digest,
    # not merely agree with each other
    rows = _perfbench_rows()
    golden = rows.load_golden()["default"]
    for tier in (
        PipelineOptions(no_cache=True),
        PipelineOptions(no_cache=True, trace_kernels=KERNELS_EVENTS,
                        no_sim_memo=True),
    ):
        got = {ev.name: rows.digest(ev)
               for ev in evaluate_suite(options=tier)}
        assert set(got) == set(golden)
        mismatched = sorted(n for n in golden if got[n] != golden[n])
        assert mismatched == [], tier.trace_kernels


@pytest.mark.chaos
def test_kernel_modes_identical_under_injected_faults():
    # a worker crash on the first attempt forces run_failsafe to retry in
    # a fresh process; the retried reference-tier evaluation must still be
    # bitwise-identical to the production tier's fault-free rows
    from repro.resilience.faults import SITE_WORKER_CRASH, FaultPlan, FaultSpec
    from repro.resilience.runner import WorkloadFailure

    plan = FaultPlan(seed=13, specs=(
        FaultSpec(site=SITE_WORKER_CRASH, key="429.mcf", times=-1,
                  attempts=(0,)),
    ))

    def run(mode, fault_plan):
        pipe = NeedlePipeline(options=PipelineOptions(
            no_cache=True, trace_kernels=mode, jobs=2, retries=1,
            fault_plan=fault_plan,
        ))
        return pipe.evaluate_all([workloads.get(n) for n in SUITE_SLICE])

    rle_rows = run(KERNELS_RLE, None)
    events_rows = run(KERNELS_EVENTS, plan)
    for a, b in zip(rle_rows, events_rows):
        assert not isinstance(a, WorkloadFailure)
        assert not isinstance(b, WorkloadFailure)
        assert _flatten(b) == _flatten(a)


# -- sim.kernel_mode gauge: recomputed and cache-served runs ----------------


@pytest.mark.parametrize("mode", [KERNELS_RLE, KERNELS_EVENTS])
def test_kernel_mode_gauge_covers_cached_and_recomputed(tmp_path, mode):
    from repro import obs
    from repro.artifacts import ArtifactCache
    from repro.obs import export
    from repro.sim import KERNEL_MODE_LABELS

    name = "dwt53"
    cache_dir = str(tmp_path / "cache")
    label = KERNEL_MODE_LABELS[mode]

    def run():
        with obs.scoped() as reg:
            pipe = NeedlePipeline(
                cache=ArtifactCache(cache_dir),
                options=PipelineOptions(trace_kernels=mode),
            )
            pipe.evaluate(workloads.get(name))
        return reg

    recomputed = run()
    served = run()

    # second run really was served from the artifact cache
    outcome = served.get("pipeline.cache_outcome")
    assert outcome.value(workload=name, outcome="artifact-cache") == 1

    for reg in (recomputed, served):
        g = reg.get("sim.kernel_mode")
        assert g is not None
        assert g.value(workload=name, mode=label) == 1.0

    # and the gauge renders in the `repro metrics` text surface
    text = export.render_metrics(served)
    assert "sim.kernel_mode" in text
    assert "mode=%s" % label in text
