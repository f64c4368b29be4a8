import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads
from repro.sim import (
    DEFAULT_CONFIG,
    Cache,
    CacheConfig,
    MemoryHierarchyConfig,
    MemorySystem,
    profile_stream_dual,
    profile_stream_dual_array,
)
from repro.sim import cache as cache_mod
from repro.workloads.base import profile_workload


def small_cache(sets=4, assoc=2, line=64):
    return Cache(CacheConfig(size_bytes=sets * assoc * line, associativity=assoc, line_bytes=line))


def test_cold_miss_then_hit():
    c = small_cache()
    assert not c.access(0x1000, False)
    assert c.access(0x1000, False)
    assert c.access(0x1010, False)  # same line
    assert c.stats.hits == 2 and c.stats.misses == 1


def test_lru_eviction():
    c = small_cache(sets=1, assoc=2)
    a, b, d = 0x0, 0x40, 0x80  # all map to set 0 (1 set)
    c.access(a, False)
    c.access(b, False)
    c.access(a, False)  # a is now MRU
    c.access(d, False)  # evicts b
    assert c.contains(a) and c.contains(d)
    assert not c.contains(b)
    assert c.stats.evictions == 1


def test_dirty_eviction_counts_writeback():
    c = small_cache(sets=1, assoc=1)
    c.access(0x0, True)
    c.access(0x40, False)  # evicts dirty line
    assert c.stats.writebacks == 1


def test_invalidate_reports_dirtiness():
    c = small_cache()
    c.access(0x100, True)
    assert c.invalidate(0x100) is True
    assert not c.contains(0x100)
    assert c.invalidate(0x100) is False


def test_memory_system_levels():
    ms = MemorySystem()
    r1 = ms.host_access(0x4000, False)
    assert r1.level == "dram"
    r2 = ms.host_access(0x4000, False)
    assert r2.level == "l1"
    assert r2.latency == ms.hierarchy.l1.latency
    # a different line that only lives in L2 after L1 eviction pressure
    assert r1.latency > r2.latency


def test_memory_system_l2_hit_after_l1_evict():
    hier = MemoryHierarchyConfig(
        l1=CacheConfig(size_bytes=2 * 64, associativity=1, latency=2),
    )
    ms = MemorySystem(hier)
    ms.host_access(0x0, False)  # set 0
    ms.host_access(0x80, False)  # set 0 too (2 sets? size 128B/1way=2 sets)
    ms.host_access(0x100, False)  # evicts 0x0 from L1
    res = ms.host_access(0x0, False)
    assert res.level == "l2"


def test_accel_write_invalidates_host_copy():
    ms = MemorySystem()
    ms.host_access(0x2000, True)  # dirty in L1
    assert ms.l1.contains(0x2000)
    res = ms.accel_access(0x2000, True)
    assert not ms.l1.contains(0x2000)
    assert ms.coherence_invalidations == 1
    # extra writeback latency charged
    assert res.latency > ms.hierarchy.l2.latency


def test_accel_read_does_not_invalidate():
    ms = MemorySystem()
    ms.host_access(0x2000, False)
    ms.accel_access(0x2000, False)
    assert ms.l1.contains(0x2000)


def test_banked_l2_distributes():
    ms = MemorySystem()
    for i in range(16):
        ms.l2.access(i * 64, False)
    used = sum(1 for b in ms.l2.banks if b.stats.accesses > 0)
    assert used == 8  # Table V: 8 banks


def test_profile_stream():
    ms = MemorySystem()
    stream = [("load", 0x1000), ("load", 0x1000), ("store", 0x2000)]
    prof = ms.profile_stream(stream)
    assert prof.loads == 2 and prof.stores == 1
    assert prof.avg_load_latency > 0
    assert sum(prof.level_counts.values()) == 3


# -- closed-form calibration vs the exact dual-port replay ------------------

#: the default hierarchy plus the memory design points of the benchmark's
#: menu (small L1, slow L2, slow DRAM)
HIERARCHIES = {
    "default": DEFAULT_CONFIG.memory,
    "l1_4k": dataclasses.replace(
        DEFAULT_CONFIG.memory,
        l1=CacheConfig(size_bytes=4 * 1024, associativity=2, latency=2),
    ),
    "l2_lat30": dataclasses.replace(
        DEFAULT_CONFIG.memory,
        l2=CacheConfig(size_bytes=2 * 1024 * 1024, associativity=8,
                       latency=30),
    ),
    "dram200": dataclasses.replace(DEFAULT_CONFIG.memory, dram_latency=200),
}


def _assert_same_profiles(hier, stream):
    closed = profile_stream_dual_array(hier, stream)
    exact = profile_stream_dual(hier, stream)
    for got, want in zip(closed, exact):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)


def _fallbacks(hier, stream):
    """Exact-replay fallbacks the closed form takes on ``stream``."""
    with mock.patch.object(cache_mod, "profile_stream_dual",
                           wraps=profile_stream_dual) as spy:
        profile_stream_dual_array(hier, stream)
    return spy.call_count


@pytest.mark.parametrize("hier", list(HIERARCHIES.values()),
                         ids=list(HIERARCHIES))
def test_closed_form_calibration_matches_replay_on_suite(hier):
    for name in workloads.all_names():
        stream = profile_workload(workloads.get(name)).trace.memory
        _assert_same_profiles(hier, stream)
    # an empty stream takes the exact replay
    assert _fallbacks(hier, []) == 1
    _assert_same_profiles(hier, [])


def _accesses(lines):
    return st.lists(st.tuples(st.sampled_from(["load", "store"]),
                              st.sampled_from(lines),
                              st.integers(0, 63)))


def _stream(prefix, forced, suffix):
    return [(op, line * 64 + off) for op, line, off in prefix + forced + suffix]


#: L1 of 4 sets x 2 ways: lines 0, 4 and 8 all land in set 0
SMALL_L1 = dataclasses.replace(
    DEFAULT_CONFIG.memory,
    l1=CacheConfig(size_bytes=512, associativity=2, latency=2),
)
#: generous L1, but an L2 of 2 banks x 2 sets x 1 way: lines 0 and 2 share
#: bank 0, set 0
TINY_L2 = MemoryHierarchyConfig(
    l1=CacheConfig(size_bytes=16 * 8 * 64, associativity=8, latency=2),
    l2=CacheConfig(size_bytes=256, associativity=1, latency=20),
    l2_banks=2,
)
#: 32-byte L1 lines over 64-byte L2 lines
SPLIT_LINES = dataclasses.replace(
    DEFAULT_CONFIG.memory,
    l1=CacheConfig(size_bytes=64 * 1024, associativity=4, line_bytes=32,
                   latency=2),
)


@settings(deadline=None)
@given(_accesses(range(64)).filter(bool))
def test_closed_form_calibration_without_fallback(accesses):
    stream = _stream(accesses, [], [])
    assert _fallbacks(DEFAULT_CONFIG.memory, stream) == 0
    _assert_same_profiles(DEFAULT_CONFIG.memory, stream)


@settings(deadline=None)
@given(_accesses(range(64)), _accesses(range(64)))
def test_closed_form_calibration_l1_set_overflow(prefix, suffix):
    forced = [("load", 0, 0), ("store", 4, 8), ("load", 8, 16)]
    stream = _stream(prefix, forced, suffix)
    assert _fallbacks(SMALL_L1, stream) == 1
    _assert_same_profiles(SMALL_L1, stream)


@settings(deadline=None)
@given(_accesses(range(32)), _accesses(range(32)))
def test_closed_form_calibration_l2_bank_set_overflow(prefix, suffix):
    forced = [("store", 0, 0), ("load", 2, 4)]
    stream = _stream(prefix, forced, suffix)
    assert _fallbacks(TINY_L2, stream) == 1
    _assert_same_profiles(TINY_L2, stream)


@settings(deadline=None)
@given(_accesses(range(64)))
def test_closed_form_calibration_line_size_mismatch(accesses):
    stream = _stream(accesses, [], [])
    assert _fallbacks(SPLIT_LINES, stream) == 1
    _assert_same_profiles(SPLIT_LINES, stream)
