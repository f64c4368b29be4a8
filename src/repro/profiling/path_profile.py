"""Ball–Larus path profiles, derived from a recorded block trace.

Ball–Larus instrumentation keeps a path register ``r`` per activation,
incremented with edge values and flushed to the profile when a back edge
fires or the function returns.  The flushes in order form the *path trace*
— the sequence of completed path ids — which §IV.A's target-expansion
analysis consumes.

:func:`derive_path_profile` replays those semantics over a
:class:`~repro.interp.events.FunctionTrace` in one pass, one table lookup
per block, so a profiling run records only the block trace.
:class:`PathProfiler` applies the same semantics live, as a tracer; it is
the reference the derivation is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..interp.events import FunctionTrace, Tracer
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..obs import counter as _obs_counter, enabled as _obs_enabled
from .ball_larus import BallLarusNumbering, PathNumberingError


class ReentrantTraceError(PathNumberingError):
    """A trace whose activations interleave cannot be derived."""


@dataclass
class PathProfile:
    """Per-function dynamic path profile."""

    function: Function
    numbering: BallLarusNumbering
    counts: Counter = field(default_factory=Counter)
    trace: List[int] = field(default_factory=list)
    # decode memo: region discovery decodes the same hot ids repeatedly, so
    # cache the block sequences; excluded from equality/pickle identity.
    _decoded: Dict[int, List[BasicBlock]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def executed_paths(self) -> int:
        """Number of distinct paths observed (Table II:C1)."""
        return len(self.counts)

    @property
    def total_executions(self) -> int:
        return sum(self.counts.values())

    def top_paths(self, n: int) -> List[Tuple[int, int]]:
        """The ``n`` most frequent (path_id, count) pairs."""
        return self.counts.most_common(n)

    def decode(self, path_id: int) -> List[BasicBlock]:
        blocks = self._decoded.get(path_id)
        if blocks is None:
            blocks = self.numbering.decode(path_id)
            self._decoded[path_id] = blocks
            if _obs_enabled():
                _obs_counter("profile.decode.misses", 1,
                             help="Ball-Larus path decodes that walked the DAG",
                             function=self.function.name)
        elif _obs_enabled():
            _obs_counter("profile.decode.hits", 1,
                         help="Ball-Larus path decodes served by the memo",
                         function=self.function.name)
        return blocks


def require_derivable(trace: FunctionTrace) -> None:
    """Raise :class:`ReentrantTraceError` unless ``trace``'s block stream
    splits into whole activations."""
    if trace.reentrant:
        raise ReentrantTraceError(
            "trace of %s interleaves activations (re-entrant call or an "
            "aborted run); derive from a live profiler instead"
            % trace.function.name
        )


def _transition_table(numbering: BallLarusNumbering) -> dict:
    """Path-register step for every transition a trace may contain.

    Keys are ``(prev, block)``, with ``None`` for an invocation boundary:
    ``(None, entry)`` starts an invocation and ``(ret_block, None)`` ends
    one.  Values are ``(flush, value)``.  With ``flush`` None the register
    grows by ``value`` (a DAG edge).  Otherwise path ``register + flush``
    completes and the register restarts at ``value`` (a back edge, or a
    return).
    """
    cfg = numbering.cfg
    # an invocation starts its register at 0, as PathProfiler does
    table = {(None, cfg.entry): (None, 0)}
    for src, dst in cfg.edges():
        if numbering.is_back_edge(src, dst):
            table[(src, dst)] = (numbering.back_edge_counter_value(src),
                                 numbering.back_edge_reset_value(dst))
        else:
            table[(src, dst)] = (None, numbering.edge_value(src, dst))
    for ret_block in cfg.exits():
        table[(ret_block, None)] = (numbering.exit_value(ret_block), 0)
    return table


def bad_transition(fn: Function, prev, block) -> PathNumberingError:
    """The error for a trace step that no execution of ``fn`` can take."""
    if prev is None:
        what = "an invocation starting at %s" % getattr(block, "name", block)
    elif block is None:
        what = "an invocation ending at %s, which does not return" % prev.name
    else:
        what = "%s -> %s, which is not a CFG edge" % (prev.name, block.name)
    return PathNumberingError("trace of %s steps through %s" % (fn.name, what))


def derive_path_profile(fn: Function, trace: FunctionTrace) -> PathProfile:
    """The :class:`PathProfile` a :class:`PathProfiler` would have collected
    on the run that recorded ``trace``: same counts, same path trace."""
    require_derivable(trace)
    numbering = BallLarusNumbering(fn)
    blocks = trace.blocks
    path_trace: List[int] = []
    if blocks:
        steps = map(_transition_table(numbering).__getitem__,
                    zip(chain((None,), blocks), chain(blocks, (None,))))
        append = path_trace.append
        register = 0
        try:
            for flush, value in steps:
                if flush is None:
                    register += value
                else:
                    append(register + flush)
                    register = value
        except KeyError as missing:
            raise bad_transition(fn, *missing.args[0]) from None
    return PathProfile(fn, numbering, Counter(path_trace), path_trace)


class PathProfiler(Tracer):
    """Collects Ball–Larus path profiles for selected functions, live.

    The reference for :func:`derive_path_profile`; production profiling
    records a trace and derives instead.

    Activations are kept on a stack so traced functions may call each other
    (or themselves) while each activation maintains its own path register.
    """

    def __init__(self, functions: Optional[List[Function]] = None):
        self.filter = set(functions) if functions is not None else None
        self.profiles: Dict[Function, PathProfile] = {}
        # activation stack entries: [function, register, last_block] or None
        # for untraced activations
        self._stack: List[Optional[list]] = []

    # -- profile access -----------------------------------------------------------

    def profile_for(self, fn: Function) -> PathProfile:
        profile = self.profiles.get(fn)
        if profile is None:
            profile = PathProfile(fn, BallLarusNumbering(fn))
            self.profiles[fn] = profile
        return profile

    # -- tracer hooks ---------------------------------------------------------------

    def on_function_entry(self, fn: Function) -> None:
        if self.filter is not None and fn not in self.filter:
            self._stack.append(None)
            return
        self.profile_for(fn)
        self._stack.append([fn, 0, None])

    def on_block(self, fn: Function, block: BasicBlock, prev: Optional[BasicBlock]) -> None:
        if not self._stack:
            return
        frame = self._stack[-1]
        if frame is None:
            return
        profile = self.profiles[frame[0]]
        numbering = profile.numbering
        if prev is None:
            frame[1] = 0
        elif numbering.is_back_edge(prev, block):
            path_id = frame[1] + numbering.back_edge_counter_value(prev)
            profile.counts[path_id] += 1
            profile.trace.append(path_id)
            frame[1] = numbering.back_edge_reset_value(block)
        else:
            frame[1] += numbering.edge_value(prev, block)
        frame[2] = block

    def on_function_exit(self, fn: Function) -> None:
        if not self._stack:
            return
        frame = self._stack.pop()
        if frame is None:
            return
        profile = self.profiles[frame[0]]
        last_block = frame[2]
        if last_block is not None:
            path_id = frame[1] + profile.numbering.exit_value(last_block)
            profile.counts[path_id] += 1
            profile.trace.append(path_id)


def profile_paths(module, fn_name: str, args, interpreter_cls=None, **interp_kwargs):
    """Convenience: run ``fn_name(args)`` once and return its PathProfile."""
    from ..interp.interpreter import Interpreter

    cls = interpreter_cls or Interpreter
    fn = module.get_function(fn_name)
    profiler = PathProfiler([fn])
    interp = cls(module, tracer=profiler, **interp_kwargs)
    interp.run(fn, args)
    return profiler.profiles[fn]


__all__ = [
    "PathProfile",
    "PathProfiler",
    "ReentrantTraceError",
    "derive_path_profile",
    "profile_paths",
]
