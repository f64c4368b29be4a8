import pytest

from repro.accel import (
    CGRAScheduler,
    CyclicFrameError,
    HLSEstimator,
    HistoryPredictor,
    OraclePredictor,
    evaluate_predictor,
)
from repro.frames import build_frame
from repro.profiling import rank_paths
from repro.regions import build_braids, path_to_region
from repro.sim import CGRAConfig


def _path_frame(profiled):
    m, fn, pp, ep = profiled
    ranked = rank_paths(pp)
    return build_frame(path_to_region(fn, ranked[0])), pp


def _braid_frame(profiled):
    m, fn, pp, ep = profiled
    braid = build_braids(fn, rank_paths(pp))[0]
    return build_frame(braid.region), pp


# -- CGRA scheduling ----------------------------------------------------------


def test_schedule_respects_dependences(profiled_loop_with_branch):
    frame, _ = _path_frame(profiled_loop_with_branch)
    sched = CGRAScheduler().schedule(frame)
    start = {id(o.frame_op): o.start for o in sched.ops}
    finish = {id(o.frame_op): o.finish for o in sched.ops}
    index = {i: o for i, o in enumerate(frame.ops)}
    for op in sched.ops:
        for dep in op.deps:
            dep_op = index[dep]
            assert finish[id(dep_op)] <= op.start, "dep must finish first"


def test_schedule_counts_ops(profiled_loop_with_branch):
    frame, _ = _path_frame(profiled_loop_with_branch)
    sched = CGRAScheduler().schedule(frame)
    assert sched.total_ops == frame.op_count
    assert (
        sched.int_ops + sched.fp_ops + sched.mem_ops + sched.guard_ops
        == frame.op_count
    )
    assert sched.guard_ops == frame.guard_count


def test_cyclic_dependence_graph_raises_named_error(
    profiled_loop_with_branch, monkeypatch
):
    frame, _ = _path_frame(profiled_loop_with_branch)
    n = frame.op_count
    monkeypatch.setattr(CGRAScheduler, "_build_deps",
                        lambda self, f: [[(i + 1) % n] for i in range(n)])
    with pytest.raises(CyclicFrameError):
        CGRAScheduler().schedule(frame)


def test_schedule_extracts_ilp(profiled_loop_with_branch):
    frame, _ = _path_frame(profiled_loop_with_branch)
    sched = CGRAScheduler().schedule(frame)
    assert 0 < sched.cycles
    assert sched.ilp > 0
    assert sched.n_configs == 1
    # pipelined initiation is much tighter than the makespan
    assert 1 <= sched.initiation_interval <= sched.cycles


def test_small_fabric_needs_multiple_configs(profiled_loop_with_branch):
    frame, _ = _path_frame(profiled_loop_with_branch)
    tiny = CGRAConfig(rows=2, cols=2, reconfig_cycles=16)
    sched = CGRAScheduler(tiny).schedule(frame)
    assert sched.n_configs >= 2
    big = CGRAScheduler().schedule(frame)
    assert sched.cycles >= big.cycles + 16


def test_memory_port_limit(array_sum):
    from tests.conftest import profile_function

    m, fn = array_sum
    pp, ep = profile_function(m, fn, [[16]])
    frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
    # 1 memory port: loads serialise on the port
    one_port = CGRAScheduler(CGRAConfig(memory_ports=1)).schedule(frame)
    four = CGRAScheduler(CGRAConfig(memory_ports=4)).schedule(frame)
    assert one_port.cycles >= four.cycles


def test_braid_schedule_includes_psis(profiled_anticorrelated):
    frame, _ = _braid_frame(profiled_anticorrelated)
    sched = CGRAScheduler().schedule(frame)
    kinds = {o.frame_op.kind for o in sched.ops}
    assert "psi" in kinds
    assert sched.total_ops == frame.op_count


def test_load_latency_knob(profiled_loop_with_branch):
    from tests.conftest import build_array_sum, profile_function

    m, fn = build_array_sum()
    pp, ep = profile_function(m, fn, [[16]])
    frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
    slow = CGRAScheduler(load_latency=100).schedule(frame)
    fast = CGRAScheduler(load_latency=2).schedule(frame)
    assert slow.cycles > fast.cycles


# -- invocation prediction --------------------------------------------------------


def test_oracle_is_perfect():
    trace = [1, 1, 2, 1, 3, 1]
    ev = evaluate_predictor(trace, {1}, OraclePredictor({1}))
    assert ev.precision == 1.0 and ev.recall == 1.0
    assert ev.invocations == 4


def test_history_predictor_learns_alternation():
    trace = [1, 2] * 200
    ev = evaluate_predictor(trace, {1}, HistoryPredictor(history_length=1))
    # after warmup the alternating pattern is fully predictable
    assert ev.precision > 0.9
    assert ev.recall > 0.9


def test_history_predictor_on_biased_stream():
    trace = ([1] * 9 + [2]) * 50
    ev = evaluate_predictor(trace, {1}, HistoryPredictor())
    assert ev.precision > 0.85


def test_history_predictor_saturation():
    p = HistoryPredictor()
    key = (1, 2, 3)
    for _ in range(10):
        p.update(key, True)
    assert p.table[key] == 3
    for _ in range(10):
        p.update(key, False)
    assert p.table[key] == 0
    assert not p.predict(key)


def test_predictor_evaluation_counts_consistent():
    trace = [1, 2, 3, 1, 1, 2]
    ev = evaluate_predictor(trace, {1}, OraclePredictor({1}))
    total = (
        ev.true_positives
        + ev.false_positives
        + ev.true_negatives
        + ev.false_negatives
    )
    assert total == len(trace)


# -- HLS estimation ---------------------------------------------------------------


def test_hls_report_fields(profiled_loop_with_branch):
    frame, _ = _path_frame(profiled_loop_with_branch)
    report = HLSEstimator().estimate(frame)
    assert report.ops == frame.op_count
    assert report.alms > 0
    assert 0 < report.alm_fraction < 1
    assert report.fits
    assert report.total_power_mw > report.static_power_mw


def test_hls_fp_costs_more_than_int():
    from repro.ir import F64, I32, IRBuilder, Module, verify_function
    from tests.conftest import profile_function

    def kernel(fp):
        m = Module()
        fn = m.add_function("k", [("n", I32)], I32)
        b = IRBuilder(fn)
        entry = b.add_block("entry")
        header = b.add_block("header")
        body = b.add_block("body")
        exit_ = b.add_block("exit")
        b.set_block(entry)
        b.br(header)
        b.set_block(header)
        from repro.ir import Constant

        i = b.phi(I32, "i")
        c = b.icmp("slt", i, fn.arg("n"))
        b.condbr(c, body, exit_)
        b.set_block(body)
        if fp:
            x = b.unop("sitofp", i, F64)
            for _ in range(8):
                x = b.fmul(x, 1.5)
        else:
            x = i
            for _ in range(8):
                x = b.mul(x, 3)
        i2 = b.add(i, 1)
        b.br(header)
        i.add_incoming(entry, Constant(I32, 0))
        i.add_incoming(body, i2)
        b.set_block(exit_)
        b.ret(i)
        verify_function(fn)
        return m, fn

    reports = []
    for fp in (False, True):
        m, fn = kernel(fp)
        pp, ep = profile_function(m, fn, [[16]])
        frame = build_frame(path_to_region(fn, rank_paths(pp)[0]))
        reports.append(HLSEstimator().estimate(frame))
    int_r, fp_r = reports
    assert fp_r.alms > int_r.alms
    assert fp_r.dynamic_power_mw > int_r.dynamic_power_mw
