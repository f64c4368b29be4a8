"""Trace-driven out-of-order host core model (macsim stand-in).

The model replays a dynamic basic-block trace and computes the cycle each
instruction allocates, issues, finishes and retires under the Table V
machine: 4-wide fetch/retire, 96-entry ROB, 6 ALUs + 2 FPUs (fully
pipelined), perfect branch prediction (the paper's deliberately generous
baseline assumption), and perfect memory disambiguation (loads wait only for
the youngest older store to the *same* address).

Complexity is O(n) in trace length with small constants, so whole-workload
traces simulate in well under a second.

The replay loop consumes pre-decoded micro-ops: the first time a block is
seen, each instruction is classified once into ``(kind, inst, latency,
writes_result)`` and the list is memoized on the model, so the per-dynamic-
instruction cost is an integer dispatch instead of an ``isinstance`` chain
plus latency-table lookups.  The decode cache lives on the
:class:`OOOModel` instance — models are cheap and short-lived, which keeps
the cache trivially coherent with any IR transformation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..ir.block import BasicBlock
from ..ir.instructions import (
    Branch,
    CondBranch,
    Instruction,
    Load,
    Phi,
    Ret,
    Store,
)
from ..ir.values import Value
from .cache import MemorySystem
from .config import HostConfig


@dataclass
class OOOResult:
    """Cycle count and event census of one simulated trace."""

    cycles: int = 0
    instructions: int = 0  # allocated (non-φ) instructions
    int_ops: int = 0
    fp_ops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    phis: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    dram_accesses: int = 0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mem_ops(self) -> float:
        """Loads + stores — the L1-port traffic the energy model prices."""
        return self.loads + self.stores

    def merge(self, other: "OOOResult") -> "OOOResult":
        """Aggregate two disjoint trace segments (cycles add)."""
        out = OOOResult()
        for name in vars(out):
            setattr(out, name, getattr(self, name) + getattr(other, name))
        return out


#: micro-op kinds produced by block decode
_UOP_PHI = 0
_UOP_LOAD = 1
_UOP_STORE = 2
_UOP_BRANCH = 3
_UOP_INT = 4
_UOP_FP = 5


class OOOModel:
    """Replays block traces through the OOO timing model."""

    def __init__(
        self,
        config: Optional[HostConfig] = None,
        memory_system: Optional[MemorySystem] = None,
        fixed_load_latency: int = 2,
        fixed_store_latency: int = 1,
    ):
        self.config = config or HostConfig()
        self.memory_system = memory_system
        self.fixed_load_latency = fixed_load_latency
        self.fixed_store_latency = fixed_store_latency
        self._uops: Dict[BasicBlock, List[Tuple[int, Instruction, int, bool]]] = {}

    def _decode(self, block: BasicBlock) -> List[Tuple[int, Instruction, int, bool]]:
        """Classify each instruction once: (kind, inst, issue latency,
        writes_result).  Memoized per block on this model instance."""
        uops = []
        for inst in block.instructions:
            writes = not inst.type.is_void
            if isinstance(inst, Phi):
                uops.append((_UOP_PHI, inst, 0, writes))
            elif isinstance(inst, Load):
                uops.append((_UOP_LOAD, inst, self.fixed_load_latency, writes))
            elif isinstance(inst, Store):
                uops.append((_UOP_STORE, inst, self.fixed_store_latency, writes))
            elif isinstance(inst, (Branch, CondBranch, Ret)):
                uops.append((_UOP_BRANCH, inst, 1, writes))
            elif inst.is_float:
                uops.append((_UOP_FP, inst, max(1, inst.latency), writes))
            else:
                uops.append((_UOP_INT, inst, max(1, inst.latency), writes))
        return uops

    def simulate(
        self,
        block_trace: Iterable[Optional[BasicBlock]],
        memory_stream: Optional[Iterable[Tuple[str, int]]] = None,
    ) -> OOOResult:
        """Simulate a block trace (``None`` entries separate invocations).

        ``memory_stream`` supplies (opcode, address) pairs aligned with the
        loads/stores of the trace; when given together with a memory system,
        each access is charged its actual hierarchy latency.
        """
        cfg = self.config
        result = OOOResult()
        mem_iter: Optional[Iterator[Tuple[str, int]]] = (
            iter(memory_stream) if memory_stream is not None else None
        )

        finish: Dict[Value, float] = {}
        last_store_to: Dict[int, float] = {}
        last_store_any = 0.0

        rob: List[float] = []  # retire times of in-flight window (ring)
        rob_head = 0
        alloc_cycle = 0.0
        alloc_in_cycle = 0
        retire_times: List[float] = [0.0] * cfg.retire_width
        retire_idx = 0
        last_retire = 0.0

        alu_free = [0.0] * cfg.int_alus
        fpu_free = [0.0] * cfg.fp_units
        heapq.heapify(alu_free)
        heapq.heapify(fpu_free)

        uop_cache = self._uops
        fetch_width = cfg.fetch_width
        retire_width = cfg.retire_width
        rob_entries = cfg.rob_entries
        fast_memory = self.memory_system is None
        heappush = heapq.heappush
        heappop = heapq.heappop

        prev_block: Optional[BasicBlock] = None
        for block in block_trace:
            if block is None:
                prev_block = None
                continue
            uops = uop_cache.get(block)
            if uops is None:
                uops = self._decode(block)
                uop_cache[block] = uops
            for kind, inst, latency, writes in uops:
                if kind == _UOP_PHI:
                    # register rename: value forwards from the taken edge
                    result.phis += 1
                    if prev_block is not None:
                        src = inst.incoming_for(prev_block)
                        finish[inst] = finish.get(src, 0.0) if src is not None else 0.0
                    else:
                        finish[inst] = 0.0
                    continue

                # -- allocate (fetch/rename bandwidth + ROB occupancy) ------
                if alloc_in_cycle >= fetch_width:
                    alloc_cycle += 1
                    alloc_in_cycle = 0
                if len(rob) >= rob_entries:
                    oldest = rob[rob_head % rob_entries]
                    if oldest > alloc_cycle:
                        alloc_cycle = oldest
                        alloc_in_cycle = 0
                alloc_in_cycle += 1
                result.instructions += 1

                # -- operand readiness ---------------------------------------
                ready = alloc_cycle
                for op in inst.operands:
                    t = finish.get(op)
                    if t is not None and t > ready:
                        ready = t

                # -- issue / execute ------------------------------------------
                if kind == _UOP_INT:
                    unit = heappop(alu_free)
                    start = ready if ready > unit else unit
                    heappush(alu_free, start + 1)
                    result.int_ops += 1
                    done = start + latency
                elif kind == _UOP_FP:
                    unit = heappop(fpu_free)
                    start = ready if ready > unit else unit
                    heappush(fpu_free, start + 1)
                    result.fp_ops += 1
                    done = start + latency
                elif kind == _UOP_LOAD:
                    addr = self._next_mem(mem_iter, result)
                    if addr is not None:
                        dep = last_store_to.get(addr // 8, 0.0)
                        if dep > ready:
                            ready = dep
                    if not fast_memory or addr is None:
                        latency = self._mem_latency(addr, False, result)
                    done = ready + latency
                    result.loads += 1
                elif kind == _UOP_STORE:
                    addr = self._next_mem(mem_iter, result)
                    done = ready + latency
                    if not fast_memory:
                        self._mem_latency(addr, True, result)
                    if addr is not None:
                        last_store_to[addr // 8] = done
                        if done > last_store_any:
                            last_store_any = done
                    elif done > last_store_any:
                        last_store_any = done
                    result.stores += 1
                else:  # _UOP_BRANCH
                    done = ready + 1
                    result.branches += 1

                if writes:
                    finish[inst] = done

                # -- retire (in order, retire_width per cycle) -----------------
                width_slot = retire_times[retire_idx % retire_width]
                retire = max(done, last_retire, width_slot + 1)
                retire_times[retire_idx % retire_width] = retire
                retire_idx += 1
                last_retire = retire
                if len(rob) < rob_entries:
                    rob.append(retire)
                else:
                    rob[rob_head % rob_entries] = retire
                    rob_head += 1

            prev_block = block

        result.cycles = int(last_retire) if result.instructions else 0
        return result

    # -- helpers -----------------------------------------------------------------

    def _next_mem(self, mem_iter, result) -> Optional[int]:
        if mem_iter is None:
            return None
        try:
            _, addr = next(mem_iter)
            return addr
        except StopIteration:
            return None

    def _mem_latency(self, addr: Optional[int], is_write: bool, result: OOOResult) -> int:
        if self.memory_system is None or addr is None:
            return self.fixed_store_latency if is_write else self.fixed_load_latency
        res = self.memory_system.host_access(addr, is_write)
        if res.level == "l1":
            result.l1_hits += 1
        elif res.level == "l2":
            result.l2_hits += 1
        else:
            result.dram_accesses += 1
        return res.latency
