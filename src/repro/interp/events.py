"""Trace event types and collecting tracers for the interpreter.

The interpreter reports execution through a tracer object; any subset of the
hook methods may be implemented.  :class:`TraceRecorder` captures the full
dynamic structure (block sequence + memory address stream) that profiling
and the cycle simulators replay.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import CondBranch


class Tracer:
    """Base tracer: all hooks are no-ops.  Subclass and override."""

    def on_function_entry(self, fn: Function) -> None:  # pragma: no cover
        pass

    def on_function_exit(self, fn: Function) -> None:  # pragma: no cover
        pass

    def on_block(self, fn: Function, block: BasicBlock, prev: Optional[BasicBlock]) -> None:
        pass

    def on_branch(self, fn: Function, block: BasicBlock, taken: bool) -> None:
        pass

    def on_memory(self, fn: Function, opcode: str, address: int) -> None:
        pass


@dataclass
class FunctionTrace:
    """Dynamic record of one function's execution(s).

    ``blocks`` is the concatenated block sequence over all invocations, with
    ``None`` sentinels separating invocations.  ``memory`` is the address
    stream, in program order, as ``(opcode, address)`` pairs.  The block
    sequence implies every path, edge and branch outcome, with two
    exceptions recorded beside it: ``branch_outcomes`` and ``reentrant``.
    """

    function: Function
    blocks: List[Optional[BasicBlock]] = field(default_factory=list)
    memory: List[Tuple[str, int]] = field(default_factory=list)
    invocations: int = 0
    #: ``(block, taken) -> count`` for conditional branches whose two
    #: targets are the same block, the one outcome ``blocks`` cannot decide
    branch_outcomes: Counter = field(default_factory=Counter)
    #: an activation began while another of the same function was live (a
    #: recursive call, or an earlier run that raised before returning), so
    #: ``blocks`` interleaves activations and cannot be split into paths
    reentrant: bool = False

    @property
    def dynamic_instructions(self) -> int:
        return sum(len(b) for b in self.blocks if b is not None)

    def block_counts(self) -> Dict[BasicBlock, int]:
        counts: Dict[BasicBlock, int] = {}
        for b in self.blocks:
            if b is not None:
                counts[b] = counts.get(b, 0) + 1
        return counts

    def invocation_sequences(self) -> List[List[BasicBlock]]:
        """Split the block stream back into per-invocation sequences."""
        out: List[List[BasicBlock]] = []
        current: List[BasicBlock] = []
        for b in self.blocks:
            if b is None:
                if current:
                    out.append(current)
                current = []
            else:
                current.append(b)
        if current:
            out.append(current)
        return out


class TraceRecorder(Tracer):
    """Records a :class:`FunctionTrace` per traced function.

    Per-block and per-access hooks do one dict lookup: a function's trace is
    created on its first entry, so ``traces`` holds exactly the traced
    functions that ran.  Activation depth is kept per call (entry/exit), not
    per block, and only marks :attr:`FunctionTrace.reentrant`.
    """

    def __init__(self, functions: Optional[List[Function]] = None):
        #: restrict recording to these functions (None = all)
        self.filter = set(functions) if functions is not None else None
        self.traces: Dict[Function, FunctionTrace] = {}
        #: live activations per traced function
        self._depth: Dict[Function, int] = {}
        #: traced blocks ending in a conditional branch with one target
        self._same_target: Set[BasicBlock] = set()

    def on_function_entry(self, fn: Function) -> None:
        trace = self.traces.get(fn)
        if trace is None:
            if self.filter is not None and fn not in self.filter:
                return
            trace = FunctionTrace(fn)
            self.traces[fn] = trace
            for block in fn.blocks:
                term = block.terminator
                if (isinstance(term, CondBranch)
                        and term.true_target is term.false_target):
                    self._same_target.add(block)
        depth = self._depth.get(fn, 0)
        if depth:
            trace.reentrant = True
        self._depth[fn] = depth + 1
        trace.invocations += 1
        if trace.blocks:
            trace.blocks.append(None)

    def on_function_exit(self, fn: Function) -> None:
        depth = self._depth.get(fn)
        if depth:
            self._depth[fn] = depth - 1

    def on_block(self, fn, block, prev) -> None:
        trace = self.traces.get(fn)
        if trace is not None:
            trace.blocks.append(block)

    def on_branch(self, fn, block, taken) -> None:
        if block in self._same_target:
            self.traces[fn].branch_outcomes[(block, taken)] += 1

    def on_memory(self, fn, opcode, address) -> None:
        trace = self.traces.get(fn)
        if trace is not None:
            trace.memory.append((opcode, address))
