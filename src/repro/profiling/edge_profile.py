"""Edge profiles and branch-bias statistics.

Edge profiles are what Superblock/Hyperblock construction (the paper's
baselines) consume, and what Fig. 4's branch-bias distribution is computed
from.  They are deliberately *local*: each edge/branch is counted
independently, which is exactly the blind spot the paper's Fig. 3 exploits.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Tuple

from ..interp.events import FunctionTrace, Tracer
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import CondBranch
from .path_profile import bad_transition, require_derivable


@dataclass
class EdgeProfile:
    """Edge execution counts plus per-branch taken/not-taken counts."""

    function: Function
    edge_counts: Counter = field(default_factory=Counter)
    block_counts: Counter = field(default_factory=Counter)
    branch_taken: Counter = field(default_factory=Counter)
    branch_not_taken: Counter = field(default_factory=Counter)

    def edge_count(self, src: BasicBlock, dst: BasicBlock) -> int:
        return self.edge_counts[(src, dst)]

    def branch_bias(self, block: BasicBlock) -> Optional[float]:
        """Bias of the branch ending ``block``: max(taken, not-taken) share.

        Returns None for blocks without an executed conditional branch.
        """
        t = self.branch_taken[block]
        n = self.branch_not_taken[block]
        if t + n == 0:
            return None
        return max(t, n) / (t + n)

    def branch_biases(self) -> List[Tuple[BasicBlock, float]]:
        """(block, bias) for every executed conditional branch."""
        out = []
        for block in self.function.blocks:
            if isinstance(block.terminator, CondBranch):
                bias = self.branch_bias(block)
                if bias is not None:
                    out.append((block, bias))
        return out

    def bias_distribution(self, thresholds=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0)) -> Dict[str, float]:
        """Fraction of branches whose bias falls in each bucket (Fig. 4)."""
        biases = [b for _, b in self.branch_biases()]
        if not biases:
            return {}
        buckets: Dict[str, float] = {}
        lo = 0.0
        for hi in thresholds:
            label = "%.0f-%.0f%%" % (lo * 100, hi * 100)
            buckets[label] = sum(1 for b in biases if lo < b <= hi) / len(biases)
            lo = hi
        return buckets

    def fraction_unbiased(self, cutoff: float = 0.8) -> float:
        """Fraction of branches with bias below ``cutoff`` (Fig. 4 headline)."""
        biases = [b for _, b in self.branch_biases()]
        if not biases:
            return 0.0
        return sum(1 for b in biases if b < cutoff) / len(biases)

    def hottest_successor(self, block: BasicBlock) -> Optional[BasicBlock]:
        """Most frequent successor edge out of ``block``."""
        best, best_count = None, 0
        for succ in block.successors:
            c = self.edge_counts[(block, succ)]
            if c > best_count:
                best, best_count = succ, c
        return best


def derive_edge_profile(fn: Function, trace: FunctionTrace) -> EdgeProfile:
    """The :class:`EdgeProfile` an :class:`EdgeProfiler` would have collected
    on the run that recorded ``trace``.

    One counting pass over the block stream's transitions yields both edge
    and block counts: every executed block is the target of exactly one
    transition, from its predecessor or from an invocation boundary
    (``None``).  A two-way branch's outcome is the edge it took;
    same-target branches read the outcomes the recorder kept for them.
    """
    require_derivable(trace)
    blocks = trace.blocks
    profile = EdgeProfile(fn)
    block_counts, edge_counts = profile.block_counts, profile.edge_counts
    taken, not_taken = profile.branch_taken, profile.branch_not_taken
    for (src, dst), n in Counter(zip(chain((None,), blocks), blocks)).items():
        if dst is None:
            continue  # an invocation boundary
        block_counts[dst] += n
        if src is None:
            continue
        term = src.terminator
        if term is None or dst not in term.successors:
            raise bad_transition(fn, src, dst)
        edge_counts[(src, dst)] = n
        if (isinstance(term, CondBranch)
                and term.true_target is not term.false_target):
            if dst is term.true_target:
                taken[src] = n
            else:
                not_taken[src] = n
    for (block, was_taken), n in trace.branch_outcomes.items():
        (taken if was_taken else not_taken)[block] += n
    return profile


class EdgeProfiler(Tracer):
    """Tracer that accumulates :class:`EdgeProfile` s, live.

    The reference for :func:`derive_edge_profile`; production profiling
    records a trace and derives instead.
    """

    def __init__(self, functions: Optional[List[Function]] = None):
        self.filter = set(functions) if functions is not None else None
        self.profiles: Dict[Function, EdgeProfile] = {}

    def profile_for(self, fn: Function) -> EdgeProfile:
        profile = self.profiles.get(fn)
        if profile is None:
            profile = EdgeProfile(fn)
            self.profiles[fn] = profile
        return profile

    def on_block(self, fn: Function, block: BasicBlock, prev: Optional[BasicBlock]) -> None:
        if self.filter is not None and fn not in self.filter:
            return
        profile = self.profile_for(fn)
        profile.block_counts[block] += 1
        if prev is not None:
            profile.edge_counts[(prev, block)] += 1

    def on_branch(self, fn: Function, block: BasicBlock, taken: bool) -> None:
        if self.filter is not None and fn not in self.filter:
            return
        profile = self.profile_for(fn)
        if taken:
            profile.branch_taken[block] += 1
        else:
            profile.branch_not_taken[block] += 1
