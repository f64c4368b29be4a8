"""Differential oracle: profiles derived from a recorded trace equal the live
profilers field by field.

Production profiling records one block trace and derives the Ball–Larus
path profile and the edge profile from it (``derive_path_profile``,
``derive_edge_profile``).  The live ``PathProfiler``/``EdgeProfiler`` tracers
are the reference; each case runs them beside a ``TraceRecorder`` on the
same interpreter run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.interp import FunctionTrace, Interpreter, TraceRecorder, Tracer
from repro.ir import Constant, I32, IRBuilder, Module, verify_function
from repro.profiling import (
    EdgeProfiler,
    PathNumberingError,
    PathProfiler,
    ReentrantTraceError,
    derive_edge_profile,
    derive_path_profile,
)
from repro.workloads import all_names, get

from tests.conftest import build_counted_loop
from tests.profiling.test_ball_larus_property import (
    _RandomFunctionBuilder,
    shapes_strategy,
    values_strategy,
)


class _Oracle(Tracer):
    """Drives the live profilers and a recorder from one event stream."""

    def __init__(self, fn):
        self.paths = PathProfiler([fn])
        self.edges = EdgeProfiler([fn])
        self.recorder = TraceRecorder([fn])
        self._all = (self.paths, self.edges, self.recorder)

    def on_function_entry(self, fn):
        for t in self._all:
            t.on_function_entry(fn)

    def on_function_exit(self, fn):
        for t in self._all:
            t.on_function_exit(fn)

    def on_block(self, fn, block, prev):
        for t in self._all:
            t.on_block(fn, block, prev)

    def on_branch(self, fn, block, taken):
        for t in self._all:
            t.on_branch(fn, block, taken)


def _assert_derived_equals_live(module, fn, runs, fuel=50_000_000):
    oracle = _Oracle(fn)
    interp = Interpreter(module, tracer=oracle, fuel=fuel)
    for args in runs:
        interp.run(fn, args)
    trace = oracle.recorder.traces[fn]
    live_p, live_e = oracle.paths.profile_for(fn), oracle.edges.profile_for(fn)
    paths = derive_path_profile(fn, trace)
    edges = derive_edge_profile(fn, trace)

    assert paths.counts == live_p.counts
    assert paths.trace == live_p.trace
    assert paths.numbering.total_paths == live_p.numbering.total_paths
    for name in ("edge_counts", "block_counts", "branch_taken",
                 "branch_not_taken"):
        assert getattr(edges, name) == getattr(live_e, name), name
    return paths, edges


@pytest.mark.parametrize("name", all_names())
def test_suite_workload_profiles_match_live(name):
    module, fn, args = get(name).build()
    paths, _ = _assert_derived_equals_live(module, fn, [args])
    assert paths.total_executions > 0


@settings(max_examples=30, deadline=None)
@given(
    shapes=shapes_strategy,
    values=values_strategy,
    runs=st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                  min_size=1, max_size=4),
)
def test_random_functions_over_several_runs_match_live(shapes, values, runs):
    module, fn = _RandomFunctionBuilder(shapes, values).build()
    paths, _ = _assert_derived_equals_live(
        module, fn, [list(r) for r in runs], fuel=2_000_000)
    # one return path per run, so the invocation sentinels were flushed
    assert len(paths.trace) >= len(runs)


def _same_target_loop():
    """A counted loop whose body ends in ``condbr c, latch, latch``."""
    m = Module()
    fn = m.add_function("same_target", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    header = b.add_block("header")
    body = b.add_block("body")
    latch = b.add_block("latch")
    exit_ = b.add_block("exit")
    b.set_block(entry)
    b.br(header)
    b.set_block(header)
    i = b.phi(I32, "i")
    b.condbr(b.icmp("slt", i, fn.arg("n")), body, exit_)
    b.set_block(body)
    even = b.icmp("eq", b.binop("and", i, 1), 0)
    b.condbr(even, latch, latch)
    b.set_block(latch)
    i_next = b.add(i, 1)
    b.br(header)
    i.add_incoming(entry, Constant(I32, 0))
    i.add_incoming(latch, i_next)
    b.set_block(exit_)
    b.ret(i)
    verify_function(fn)
    return m, fn


def test_same_target_branch_outcomes_match_live():
    m, fn = _same_target_loop()
    _, edges = _assert_derived_equals_live(m, fn, [[7], [4]])
    body = fn.get_block("body")
    # the block stream alone cannot split these: both outcomes reach latch
    assert edges.branch_taken[body] == 2 + 4
    assert edges.branch_not_taken[body] == 2 + 3
    assert edges.edge_count(body, fn.get_block("latch")) == 11


# -- robustness -------------------------------------------------------------


def _trace_of(fn, names):
    trace = FunctionTrace(fn)
    trace.blocks = [None if n is None else fn.get_block(n) for n in names]
    return trace


@pytest.mark.parametrize("names, named", [
    # block-to-block steps that are not CFG edges: both passes see them
    (["entry", "header", "exit", "header"], ("exit", "header")),
    (["entry", "body"], ("entry", "body")),
])
def test_non_edge_transition_raises_named_error(names, named):
    _, fn = build_counted_loop()
    trace = _trace_of(fn, names)
    for derive in (derive_path_profile, derive_edge_profile):
        with pytest.raises(PathNumberingError) as info:
            derive(fn, trace)
        assert not isinstance(info.value, KeyError)
        assert "%s -> %s" % named in str(info.value)


@pytest.mark.parametrize("names, named", [
    # invocations that do not start at entry or do not end in a return:
    # no edge is involved, but no Ball-Larus path is either
    (["header", "exit"], "header"),
    (["entry", "header", "body"], "body"),
    (["entry", "header", "exit", None, "body"], "body"),
])
def test_bad_invocation_boundary_raises_named_error(names, named):
    _, fn = build_counted_loop()
    with pytest.raises(PathNumberingError, match=named):
        derive_path_profile(fn, _trace_of(fn, names))


def _recursive_module():
    """``down(n) = n <= 0 ? 0 : down(n - 1) + 1``."""
    m = Module()
    fn = m.add_function("down", [("n", I32)], I32)
    b = IRBuilder(fn)
    entry = b.add_block("entry")
    rec = b.add_block("rec")
    base = b.add_block("base")
    b.set_block(entry)
    b.condbr(b.icmp("sle", fn.arg("n"), 0), base, rec)
    b.set_block(rec)
    r = b.call(fn, [b.sub(fn.arg("n"), 1)])
    b.ret(b.add(r, 1))
    b.set_block(base)
    b.ret(0)
    verify_function(fn)
    return m, fn


def test_reentrant_trace_raises_named_error():
    m, fn = _recursive_module()
    recorder = TraceRecorder([fn])
    assert Interpreter(m, tracer=recorder).run(fn, [3]) == 3
    trace = recorder.traces[fn]
    assert trace.reentrant and trace.invocations == 4
    for derive in (derive_path_profile, derive_edge_profile):
        with pytest.raises(ReentrantTraceError, match="down"):
            derive(fn, trace)


def test_sequential_runs_are_not_reentrant():
    m, fn = _recursive_module()
    recorder = TraceRecorder([fn])
    interp = Interpreter(m, tracer=recorder)
    for n in (0, -2, 0):
        interp.run(fn, [n])
    trace = recorder.traces[fn]
    assert not trace.reentrant and trace.invocations == 3
    assert derive_path_profile(fn, trace).total_executions == 3
