"""CGRA fabric model and resource-constrained frame scheduling (§VI).

The fabric is the Table V 16×8 grid of general function units.  A frame maps
spatially: each frame op occupies one FU; frames larger than the fabric need
multiple configurations, each switch costing the 16-cycle reconfiguration
penalty.  Execution is dataflow: the schedule below is classic
resource-constrained list scheduling over the frame's *speculative*
dependence graph (loads hoist above stores; guards depend only on their
predicates and never block compute).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..frames.frame import Frame, FrameOp, PsiOp
from ..ir.instructions import LATENCY, Load, Phi, Store
from ..ir.values import Value
from ..sim.config import CGRAConfig


class CyclicFrameError(RuntimeError):
    """A frame's dependence graph has a cycle, so it cannot be scheduled."""


@dataclass
class ScheduledOp:
    """Placement of one frame op."""

    frame_op: FrameOp
    start: int
    finish: int
    deps: List[int] = field(default_factory=list)


@dataclass
class ScheduleResult:
    """Outcome of mapping one frame onto the fabric."""

    cycles: int  # schedule makespan including intra-frame reconfigs
    n_configs: int  # how many fabric configurations the frame needs
    fu_count: int = 128
    #: initiation interval for back-to-back invocations of the same frame
    #: (dataflow pipelining across loop iterations, §IV-A's motivation)
    initiation_interval: int = 1
    resource_ii: int = 1
    recurrence_ii: int = 1
    ops: List[ScheduledOp] = field(default_factory=list)
    int_ops: int = 0
    fp_ops: int = 0
    mem_ops: int = 0
    guard_ops: int = 0
    edges: int = 0

    @property
    def total_ops(self) -> int:
        return len(self.ops)

    @property
    def fu_utilization(self) -> float:
        """Busy FU-cycles over available FU-cycles."""
        if not self.ops or self.cycles == 0:
            return 0.0
        busy = sum(o.finish - o.start for o in self.ops)
        return busy / float(self.cycles * self.fu_count)

    @property
    def ilp(self) -> float:
        return self.total_ops / self.cycles if self.cycles else 0.0


class CGRAScheduler:
    """Maps frames onto the CGRA with list scheduling."""

    def __init__(
        self,
        config: Optional[CGRAConfig] = None,
        load_latency: float = 20.0,
        store_latency: float = 4.0,
    ):
        self.config = config or CGRAConfig()
        #: effective memory latencies (L2-level; refine via cache profiling)
        self.load_latency = load_latency
        self.store_latency = store_latency

    # -- dependence graph over frame ops ------------------------------------------

    def _build_deps(self, frame: Frame) -> List[List[int]]:
        """Per-op dependence lists (indices into frame.ops).

        Values are resolved through the frame's φ-resolution map, so a use of
        a cancelled φ depends on the op producing the replacement value; ψ
        ops depend on their predicate and both options; undo-log reads must
        precede their store (the store in turn waits for the undo read).
        """
        producer: Dict[object, int] = {}
        psi_index: Dict[int, int] = {}
        for i, fop in enumerate(frame.ops):
            if fop.kind == "op" and fop.inst is not None and not fop.inst.type.is_void:
                producer[fop.inst] = i
            elif fop.kind == "psi":
                psi_index[id(fop.psi)] = i
                producer[fop.psi.phi] = i

        def resolve(value) -> Optional[int]:
            seen = 0
            while isinstance(value, Phi) and seen < 64:
                res = frame.phi_resolution.get(value)
                if isinstance(res, PsiOp):
                    return psi_index.get(id(res))
                if res == "live-in" or res is None:
                    return None
                value = res
                seen += 1
            return producer.get(value)

        deps: List[List[int]] = []
        last_undo_for_store: Optional[int] = None
        for i, fop in enumerate(frame.ops):
            d: List[int] = []

            def add(j: Optional[int]) -> None:
                if j is not None and j != i and j not in d:
                    d.append(j)

            if fop.kind == "op":
                inst = fop.inst
                for operand in inst.operands:
                    add(resolve(operand))
                if isinstance(inst, Store) and i + 1 < len(frame.ops):
                    nxt = frame.ops[i + 1]
                    if nxt.kind == "undo":
                        # the store waits for its undo-log read (ordering is
                        # modelled by making the *store* depend on the read;
                        # the read itself only needs the address)
                        pass
            elif fop.kind == "undo":
                # undo reads the old value at the store's address
                store_inst = fop.inst
                add(resolve(store_inst.address))
            elif fop.kind == "guard":
                add(resolve(fop.guard.branch.cond))
            elif fop.kind == "psi":
                add(resolve(fop.psi.predicate) if fop.psi.predicate is not None else None)
                for _, v in fop.psi.options:
                    add(resolve(v))
            deps.append(d)

        # store -> undo ordering: store must not commit before its undo read
        for i, fop in enumerate(frame.ops):
            if fop.kind == "undo" and i > 0:
                prev = frame.ops[i - 1]
                if prev.kind == "op" and isinstance(prev.inst, Store):
                    deps[i - 1].append(i)  # store depends on undo read
        # store commit order (undo log replays in order)
        last_store: Optional[int] = None
        for i, fop in enumerate(frame.ops):
            if fop.kind == "op" and isinstance(fop.inst, Store):
                if last_store is not None and last_store not in deps[i]:
                    deps[i].append(last_store)
                last_store = i
        return deps

    def _latency(self, fop: FrameOp) -> int:
        if fop.kind == "guard":
            return 1
        if fop.kind == "psi":
            return 1
        if fop.kind == "undo":
            return max(1, int(round(self.load_latency)))
        inst = fop.inst
        if isinstance(inst, Load):
            return max(1, int(round(self.load_latency)))
        if isinstance(inst, Store):
            return max(1, int(round(self.store_latency)))
        return max(1, LATENCY[inst.opcode])

    # -- loop-carried recurrence ---------------------------------------------------

    def _chase(self, frame: Frame, value):
        """Follow φ-resolution chains to the terminal value."""
        seen = 0
        while isinstance(value, Phi) and seen < 64:
            res = frame.phi_resolution.get(value)
            if res == "live-in" or res is None or isinstance(res, PsiOp):
                return value if res == "live-in" else res
            value = res
            seen += 1
        return value

    def _recurrence_ii(
        self,
        frame: Frame,
        deps: List[List[int]],
        loop_carried: List[Tuple[Value, Value]],
    ) -> int:
        """Longest latency cycle through a single loop-carried φ.

        For each (entry φ, back-edge def) pair: the longest dependence path
        from an op consuming the φ to the op producing the def bounds how
        fast consecutive iterations can be initiated.

        Op latencies, backward dependence lists and the φs each op consumes
        are derived once for all pairs.  A pair's longest-path sweep runs
        only from the φ's first consumer to the def: only back edges
        ``j < i`` feed it, so nothing before the first consumer or after
        the def can change the def's distance.
        """
        if not loop_carried:
            return 1
        ops = frame.ops
        producer: Dict[object, int] = {}
        for i, fop in enumerate(ops):
            if fop.kind == "op" and fop.inst is not None and not fop.inst.type.is_void:
                producer[fop.inst] = i
            elif fop.kind == "psi":
                producer[fop.psi.phi] = i

        # id(chased φ-operand terminal) -> indices of the ops consuming it
        consumers: Dict[int, List[int]] = {}
        for i, fop in enumerate(ops):
            if fop.kind == "op" and fop.inst is not None:
                operands = fop.inst.operands
            elif fop.kind == "psi":
                operands = [v for _, v in fop.psi.options]
            elif fop.kind == "guard":
                operands = [fop.guard.branch.cond]
            else:
                continue
            for operand in operands:
                if isinstance(operand, Phi):
                    users = consumers.setdefault(
                        id(self._chase(frame, operand)), []
                    )
                    if not users or users[-1] != i:
                        users.append(i)

        latency = [self._latency(fop) for fop in ops]
        back = [[j for j in d if j < i] for i, d in enumerate(deps)]
        neg = float("-inf")
        worst = 1
        for phi, def_value in loop_carried:
            def_chased = self._chase(frame, def_value)
            if isinstance(def_chased, PsiOp):
                def_chased = def_chased.phi
            def_idx = producer.get(def_chased)
            users = consumers.get(id(phi))
            if def_idx is None or not users or users[0] > def_idx:
                continue
            consuming = set(users)
            dist: List[float] = [neg] * (def_idx + 1)
            for i in range(users[0], def_idx + 1):
                carried = max((dist[j] for j in back[i]), default=neg)
                if carried != neg:
                    dist[i] = carried + latency[i]
                elif i in consuming:
                    dist[i] = latency[i]
            if dist[def_idx] != neg:
                worst = max(worst, int(dist[def_idx]))
        return worst

    # -- scheduling ------------------------------------------------------------------

    def schedule(
        self,
        frame: Frame,
        loop_carried: Optional[List[Tuple[Value, Value]]] = None,
    ) -> ScheduleResult:
        """List-schedule ``frame`` onto the fabric.

        ``loop_carried`` pairs (entry φ, back-edge definition) enable the
        recurrence-II computation for pipelined back-to-back invocations.
        """
        cfg = self.config
        deps = self._build_deps(frame)
        n = len(frame.ops)
        result = ScheduleResult(
            cycles=0,
            n_configs=max(1, math.ceil(n / cfg.fu_count)),
            fu_count=cfg.fu_count,
        )
        if n == 0:
            return result

        # per-cycle resource usage
        fu_used: Dict[int, int] = {}
        mem_used: Dict[int, int] = {}
        finish: List[int] = [0] * n
        scheduled: List[ScheduledOp] = []

        # deps lists may contain forward references (store->undo ordering),
        # so iterate until all placed (two passes suffice: the only forward
        # edge pattern is store after its undo read, adjacent ops)
        placed = [False] * n
        remaining = n
        guard_count = 0
        while remaining:
            progressed = False
            for i in range(n):
                if placed[i]:
                    continue
                if any(not placed[j] for j in deps[i]):
                    continue
                fop = frame.ops[i]
                ready = max((finish[j] for j in deps[i]), default=0)
                is_mem = (
                    fop.kind == "undo"
                    or (fop.kind == "op" and fop.inst is not None and fop.inst.is_memory)
                )
                issue_cap = min(cfg.fu_count, cfg.issue_width)
                cycle = ready
                while True:
                    if fu_used.get(cycle, 0) >= issue_cap:
                        cycle += 1
                        continue
                    if is_mem and mem_used.get(cycle, 0) >= cfg.memory_ports:
                        cycle += 1
                        continue
                    break
                fu_used[cycle] = fu_used.get(cycle, 0) + 1
                if is_mem:
                    mem_used[cycle] = mem_used.get(cycle, 0) + 1
                lat = self._latency(fop)
                finish[i] = cycle + lat
                scheduled.append(
                    ScheduledOp(frame_op=fop, start=cycle, finish=cycle + lat, deps=list(deps[i]))
                )
                placed[i] = True
                remaining -= 1
                progressed = True

                if fop.kind == "guard":
                    guard_count += 1
                elif is_mem:
                    result.mem_ops += 1
                elif fop.kind == "psi":
                    result.int_ops += 1
                elif fop.inst is not None and fop.inst.is_float:
                    result.fp_ops += 1
                else:
                    result.int_ops += 1
            if not progressed:
                raise CyclicFrameError("cyclic frame dependence graph")

        result.guard_ops = guard_count
        result.edges = sum(len(d) for d in deps)
        makespan = max(finish)
        # time-multiplexing over multiple fabric configurations
        reconfig = (result.n_configs - 1) * cfg.reconfig_cycles
        result.cycles = makespan + reconfig
        result.ops = scheduled

        # -- initiation interval for pipelined back-to-back invocations ------
        result.resource_ii = max(
            1,
            math.ceil(n / min(cfg.fu_count, cfg.issue_width)),
            math.ceil(result.mem_ops / cfg.memory_ports),
        )
        result.recurrence_ii = self._recurrence_ii(frame, deps, loop_carried or [])
        # Frames larger than the fabric are modulo-scheduled: each FU rotates
        # through ceil(ops/fu_count) operations per iteration, which is
        # exactly what resource_ii already charges.
        result.initiation_interval = max(result.resource_ii, result.recurrence_ii)
        return result
