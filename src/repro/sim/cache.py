"""Set-associative cache models: host L1 and the banked NUCA L2.

The caches are trace-driven: :meth:`Cache.access` returns hit/miss and the
model charges latency accordingly.  :class:`MemorySystem` stacks L1 over the
banked L2 over DRAM for the host, while the accelerator port bypasses the L1
(the CGRA is uncore and cache-coherent at L2, per §VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .config import CacheConfig, MemoryHierarchyConfig


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class Cache:
    """A set-associative, write-back, write-allocate cache with LRU."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self.sets: List[Dict[int, bool]] = [dict() for _ in range(config.sets)]
        # each set maps tag -> dirty flag; dict order gives LRU (oldest first)
        self.stats = CacheStats()

    def _locate(self, addr: int) -> Tuple[int, int]:
        line = addr // self.config.line_bytes
        return line % self.config.sets, line // self.config.sets

    def access(self, addr: int, is_write: bool) -> bool:
        """Touch ``addr``; returns True on hit.  Allocates on miss."""
        index, tag = self._locate(addr)
        ways = self.sets[index]
        if tag in ways:
            self.stats.hits += 1
            dirty = ways.pop(tag) or is_write
            ways[tag] = dirty  # re-insert as most recent
            return True
        self.stats.misses += 1
        if len(ways) >= self.config.associativity:
            victim_tag = next(iter(ways))
            victim_dirty = ways.pop(victim_tag)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
        ways[tag] = is_write
        return False

    def contains(self, addr: int) -> bool:
        index, tag = self._locate(addr)
        return tag in self.sets[index]

    def invalidate(self, addr: int) -> bool:
        """Drop the line; returns True if it was dirty (writeback needed)."""
        index, tag = self._locate(addr)
        ways = self.sets[index]
        if tag in ways:
            return ways.pop(tag)
        return False

    def reset_stats(self) -> None:
        self.stats = CacheStats()


class BankedL2:
    """The NUCA L2: 8 banks selected by line address (Table V)."""

    def __init__(self, hierarchy: MemoryHierarchyConfig):
        self.hierarchy = hierarchy
        per_bank = CacheConfig(
            size_bytes=hierarchy.l2.size_bytes // hierarchy.l2_banks,
            associativity=hierarchy.l2.associativity,
            line_bytes=hierarchy.l2.line_bytes,
            latency=hierarchy.l2.latency,
        )
        self.banks = [Cache(per_bank) for _ in range(hierarchy.l2_banks)]

    def bank_for(self, addr: int) -> Cache:
        line = addr // self.hierarchy.l2.line_bytes
        return self.banks[line % len(self.banks)]

    def access(self, addr: int, is_write: bool) -> bool:
        return self.bank_for(addr).access(addr, is_write)

    @property
    def stats(self) -> CacheStats:
        total = CacheStats()
        for bank in self.banks:
            total.hits += bank.stats.hits
            total.misses += bank.stats.misses
            total.evictions += bank.stats.evictions
            total.writebacks += bank.stats.writebacks
        return total


@dataclass
class AccessResult:
    """Latency and level of one memory access."""

    latency: int
    level: str  # "l1" | "l2" | "dram"


class MemorySystem:
    """Host L1 backed by the banked L2 backed by DRAM.

    The accelerator port (:meth:`accel_access`) goes straight to the L2 and
    invalidates/downgrades the host L1 copy, the MESI-style behaviour the
    uncore CGRA relies on.
    """

    def __init__(self, hierarchy: Optional[MemoryHierarchyConfig] = None):
        self.hierarchy = hierarchy or MemoryHierarchyConfig()
        self.l1 = Cache(self.hierarchy.l1)
        self.l2 = BankedL2(self.hierarchy)
        self.dram_accesses = 0
        self.coherence_invalidations = 0

    # -- host port ------------------------------------------------------------

    def host_access(self, addr: int, is_write: bool) -> AccessResult:
        if self.l1.access(addr, is_write):
            return AccessResult(self.hierarchy.l1.latency, "l1")
        if self.l2.access(addr, is_write):
            return AccessResult(
                self.hierarchy.l1.latency + self.hierarchy.l2.latency, "l2"
            )
        self.dram_accesses += 1
        return AccessResult(
            self.hierarchy.l1.latency
            + self.hierarchy.l2.latency
            + self.hierarchy.dram_latency,
            "dram",
        )

    # -- accelerator port ----------------------------------------------------------

    def accel_access(self, addr: int, is_write: bool) -> AccessResult:
        extra = 0
        if is_write and self.l1.contains(addr):
            # MESI: the accelerator's write invalidates the host L1 copy
            dirty = self.l1.invalidate(addr)
            self.coherence_invalidations += 1
            if dirty:
                extra += self.hierarchy.l2.latency  # writeback to L2 first
        elif not is_write and self.l1.contains(addr):
            # read snoops a (possibly dirty) host copy: serve via L2
            extra += 2
        if self.l2.access(addr, is_write):
            return AccessResult(self.hierarchy.l2.latency + extra, "l2")
        self.dram_accesses += 1
        return AccessResult(
            self.hierarchy.l2.latency + self.hierarchy.dram_latency + extra,
            "dram",
        )

    # -- bulk profiling -----------------------------------------------------------

    def _compile_port(self, port: str):
        """A replay closure for one port: ``access(addr, is_write) ->
        (latency, level_index)`` with every per-access attribute lookup
        hoisted into locals and no :class:`AccessResult` allocation.

        Level indices are 0=l1, 1=l2, 2=dram.  The closure mutates the
        same cache state as :meth:`host_access`/:meth:`accel_access` in
        the same order, except DRAM/coherence tallies which the caller
        folds back via the returned ``finish()`` hook — final
        :class:`MemorySystem` state is identical either way.
        """
        hier = self.hierarchy
        l1_lat = hier.l1.latency
        l2_lat = hier.l2.latency
        dram_lat = hier.dram_latency
        if port == "host":
            l1_access = self.l1.access
            l2_access = self.l2.access
            host_l12 = l1_lat + l2_lat
            host_dram = host_l12 + dram_lat
            counters = {"dram": 0}

            def access(addr: int, is_write: bool):
                if l1_access(addr, is_write):
                    return l1_lat, 0
                if l2_access(addr, is_write):
                    return host_l12, 1
                counters["dram"] += 1
                return host_dram, 2

            def finish() -> None:
                self.dram_accesses += counters["dram"]
                counters["dram"] = 0

            return access, finish

        l1_contains = self.l1.contains
        l1_invalidate = self.l1.invalidate
        l2_access = self.l2.access
        accel_dram = l2_lat + dram_lat
        counters = {"dram": 0, "inval": 0}

        def access(addr: int, is_write: bool):  # noqa: F811 - port variant
            extra = 0
            if l1_contains(addr):
                if is_write:
                    # MESI: the accelerator's write invalidates the host copy
                    dirty = l1_invalidate(addr)
                    counters["inval"] += 1
                    if dirty:
                        extra += l2_lat  # writeback to L2 first
                else:
                    # read snoops a (possibly dirty) host copy: serve via L2
                    extra += 2
            if l2_access(addr, is_write):
                return l2_lat + extra, 1
            counters["dram"] += 1
            return accel_dram + extra, 2

        def finish() -> None:  # noqa: F811 - port variant
            self.dram_accesses += counters["dram"]
            self.coherence_invalidations += counters["inval"]
            counters["dram"] = counters["inval"] = 0

        return access, finish

    def profile_stream(
        self, stream, port: str = "host"
    ) -> "StreamProfile":
        """Replay an (opcode, address) stream; returns average latencies."""
        access, finish = self._compile_port(port)
        load_lat = load_n = store_lat = store_n = 0
        l1_n = l2_n = dram_n = 0
        for opcode, addr in stream:
            is_store = opcode == "store"
            lat, level = access(addr, is_store)
            if level == 0:
                l1_n += 1
            elif level == 1:
                l2_n += 1
            else:
                dram_n += 1
            if is_store:
                store_lat += lat
                store_n += 1
            else:
                load_lat += lat
                load_n += 1
        finish()
        return StreamProfile(
            avg_load_latency=(load_lat / load_n) if load_n else 0.0,
            avg_store_latency=(store_lat / store_n) if store_n else 0.0,
            loads=load_n,
            stores=store_n,
            level_counts={"l1": l1_n, "l2": l2_n, "dram": dram_n},
        )


@dataclass
class StreamProfile:
    """Aggregate result of replaying a memory trace."""

    avg_load_latency: float
    avg_store_latency: float
    loads: int
    stores: int
    level_counts: Dict[str, int] = field(default_factory=dict)


def profile_stream_dual(
    hierarchy: Optional[MemoryHierarchyConfig], stream
) -> Tuple[StreamProfile, StreamProfile]:
    """Replay one (opcode, address) stream through a host-port and an
    accel-port :class:`MemorySystem` in a single pass.

    Each port owns its own MemorySystem, so their cache states are
    disjoint and the interleaved walk produces exactly the profiles two
    sequential :meth:`MemorySystem.profile_stream` replays would — the
    stream (usually the longest array in a profiled workload) is just
    traversed once instead of twice.
    """
    host = MemorySystem(hierarchy)
    accel = MemorySystem(hierarchy)
    h_access, h_finish = host._compile_port("host")
    a_access, a_finish = accel._compile_port("accel")
    h_load_lat = h_load_n = h_store_lat = h_store_n = 0
    a_load_lat = a_load_n = a_store_lat = a_store_n = 0
    h_levels = [0, 0, 0]
    a_levels = [0, 0, 0]
    for opcode, addr in stream:
        is_store = opcode == "store"
        lat, level = h_access(addr, is_store)
        h_levels[level] += 1
        a_lat, a_level = a_access(addr, is_store)
        a_levels[a_level] += 1
        if is_store:
            h_store_lat += lat
            h_store_n += 1
            a_store_lat += a_lat
            a_store_n += 1
        else:
            h_load_lat += lat
            h_load_n += 1
            a_load_lat += a_lat
            a_load_n += 1
    h_finish()
    a_finish()
    host_profile = StreamProfile(
        avg_load_latency=(h_load_lat / h_load_n) if h_load_n else 0.0,
        avg_store_latency=(h_store_lat / h_store_n) if h_store_n else 0.0,
        loads=h_load_n,
        stores=h_store_n,
        level_counts={"l1": h_levels[0], "l2": h_levels[1], "dram": h_levels[2]},
    )
    accel_profile = StreamProfile(
        avg_load_latency=(a_load_lat / a_load_n) if a_load_n else 0.0,
        avg_store_latency=(a_store_lat / a_store_n) if a_store_n else 0.0,
        loads=a_load_n,
        stores=a_store_n,
        level_counts={"l1": a_levels[0], "l2": a_levels[1], "dram": a_levels[2]},
    )
    return host_profile, accel_profile


def profile_stream_dual_array(
    hierarchy: Optional[MemoryHierarchyConfig], stream
) -> Tuple[StreamProfile, StreamProfile]:
    """Closed-form array replay of :func:`profile_stream_dual`.

    Exactness argument.  Both ports start from empty caches and share one
    line size, and an LRU set that sees at most ``associativity``
    *distinct* lines over the whole stream never evicts — so in that
    regime "hit" is exactly "not the first access to this line":

    * host port: L1 hit ⟺ the line was touched before.  L1 misses are
      first touches, so the L2 (and DRAM) see each distinct line exactly
      once — every L1 miss goes to DRAM regardless of L2 geometry.
    * accel port: its :class:`MemorySystem` L1 is never filled (nothing
      inserts through the accel port), so the coherence probe never
      fires and the port is a pure banked L2 — hit ⟺ not a first touch,
      provided no combined (bank, set) exceeds the L2 associativity.
    * dirty bits and writebacks change statistics only, never hit/miss
      or latency, so loads and stores classify identically.

    The per-set distinct-line counts are checked up front; any overflow
    (possible for adversarial streams, never observed on the suite)
    falls back to the exact sequential replay, as do an empty stream and
    mismatched L1/L2 line sizes — either way the returned profiles are
    bit-identical to :func:`profile_stream_dual` (integer latency sums,
    same divisions).
    """
    hier = hierarchy or MemoryHierarchyConfig()
    if hier.l1.line_bytes != hier.l2.line_bytes:
        return profile_stream_dual(hierarchy, stream)
    if not isinstance(stream, (list, tuple)):
        stream = list(stream)
    n = len(stream)
    if n == 0:
        return profile_stream_dual(hierarchy, stream)

    addrs = np.fromiter((addr for _, addr in stream), np.int64, count=n)
    is_store = np.fromiter(
        (op == "store" for op, _ in stream), bool, count=n
    )
    lines = addrs // hier.l1.line_bytes
    _, first_idx = np.unique(lines, return_index=True)
    distinct = lines[first_idx]

    # closed form is valid only while no set can ever evict
    l1_per_set = np.bincount(distinct % hier.l1.sets)
    if l1_per_set.size and int(l1_per_set.max()) > hier.l1.associativity:
        return profile_stream_dual(hierarchy, stream)
    per_bank_sets = (hier.l2.size_bytes // hier.l2_banks) // (
        hier.l2.associativity * hier.l2.line_bytes
    )
    l2_set = (distinct % hier.l2_banks) * per_bank_sets + (
        distinct % per_bank_sets
    )
    l2_per_set = np.bincount(l2_set)
    if l2_per_set.size and int(l2_per_set.max()) > hier.l2.associativity:
        return profile_stream_dual(hierarchy, stream)

    first = np.zeros(n, dtype=bool)
    first[first_idx] = True
    l1_lat = hier.l1.latency
    l2_lat = hier.l2.latency
    host_lat = np.where(first, l1_lat + l2_lat + hier.dram_latency, l1_lat)
    accel_lat = np.where(first, l2_lat + hier.dram_latency, l2_lat)

    loads = ~is_store
    n_stores = int(is_store.sum())
    n_loads = n - n_stores
    n_distinct = int(first_idx.size)
    h_load_lat = int(host_lat[loads].sum())
    h_store_lat = int(host_lat[is_store].sum())
    a_load_lat = int(accel_lat[loads].sum())
    a_store_lat = int(accel_lat[is_store].sum())
    host_profile = StreamProfile(
        avg_load_latency=(h_load_lat / n_loads) if n_loads else 0.0,
        avg_store_latency=(h_store_lat / n_stores) if n_stores else 0.0,
        loads=n_loads,
        stores=n_stores,
        level_counts={"l1": n - n_distinct, "l2": 0, "dram": n_distinct},
    )
    accel_profile = StreamProfile(
        avg_load_latency=(a_load_lat / n_loads) if n_loads else 0.0,
        avg_store_latency=(a_store_lat / n_stores) if n_stores else 0.0,
        loads=n_loads,
        stores=n_stores,
        level_counts={"l1": 0, "l2": n - n_distinct, "dram": n_distinct},
    )
    return host_profile, accel_profile
