"""Artifact cache: keys, storage, corruption tolerance, profile wiring."""

import os

import pytest

from repro import workloads
from repro.artifacts import (
    EVALUATION_KIND,
    PROFILE_KIND,
    RECURRENCE_KIND,
    ArtifactCache,
    workload_key,
)
from repro.sim.config import DEFAULT_CONFIG, OffloadConfig, SystemConfig
from repro.workloads.base import ProfiledWorkload, profile_workload


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(str(tmp_path / "artifacts"))


def test_workload_key_is_stable():
    w = workloads.get("164.gzip")
    key1, _ = workload_key(w, DEFAULT_CONFIG)
    key2, _ = workload_key(w, DEFAULT_CONFIG)
    assert key1 == key2
    assert len(key1) == 64  # sha256 hex


def test_workload_key_separates_workloads_and_configs():
    gzip = workloads.get("164.gzip")
    lbm = workloads.get("470.lbm")
    key_gzip, _ = workload_key(gzip, DEFAULT_CONFIG)
    key_lbm, _ = workload_key(lbm, DEFAULT_CONFIG)
    assert key_gzip != key_lbm

    eager = SystemConfig(offload=OffloadConfig(detect_failure_at_end=False))
    key_eager, _ = workload_key(gzip, eager)
    assert key_eager != key_gzip

    # profiles are config-independent: config=None gives its own key space
    key_none, _ = workload_key(gzip, None)
    assert key_none not in (key_gzip, key_eager)


def test_put_get_roundtrip(cache):
    assert cache.get(EVALUATION_KIND, "ab" * 32) is None
    assert cache.misses == 1
    assert cache.put(EVALUATION_KIND, "ab" * 32, {"x": 1})
    assert cache.get(EVALUATION_KIND, "ab" * 32) == {"x": 1}
    assert cache.hits == 1


def test_corrupt_entry_is_a_miss_and_evicted(cache):
    key = "cd" * 32
    cache.put(PROFILE_KIND, key, [1, 2, 3])
    path = cache._path(PROFILE_KIND, key)
    with open(path, "wb") as fh:
        fh.write(b"not a pickle at all")
    assert cache.get(PROFILE_KIND, key) is None
    assert not os.path.exists(path)  # evicted
    # pipeline would recompute and overwrite:
    cache.put(PROFILE_KIND, key, [1, 2, 3])
    assert cache.get(PROFILE_KIND, key) == [1, 2, 3]


def test_unserialisable_put_is_refused_not_fatal(cache):
    assert not cache.put(EVALUATION_KIND, "ef" * 32, lambda: None)


def test_clear(cache):
    cache.put(PROFILE_KIND, "aa" * 32, 1)
    cache.put(EVALUATION_KIND, "bb" * 32, 2)
    assert cache.clear() == 2
    assert cache.get(PROFILE_KIND, "aa" * 32) is None


def test_clear_removes_recurrence_entries(cache):
    cache.put(RECURRENCE_KIND, "cc" * 32, 7.5)
    assert cache.clear() == 1
    assert cache.get(RECURRENCE_KIND, "cc" * 32) is None


def test_env_var_overrides_default_root(tmp_path, monkeypatch):
    from repro.artifacts import CACHE_DIR_ENV, default_cache_dir

    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env-cache"))
    assert default_cache_dir() == str(tmp_path / "env-cache")
    monkeypatch.delenv(CACHE_DIR_ENV)
    assert default_cache_dir().endswith(os.path.join(".cache", "repro-needle"))


def test_profile_workload_roundtrips_through_cache(cache):
    w = workloads.get("164.gzip")
    fresh = profile_workload(w, use_cache=False, artifact_cache=cache)
    assert cache.hits == 0 and cache.misses == 1

    reloaded = profile_workload(w, use_cache=False, artifact_cache=cache)
    assert cache.hits == 1
    assert isinstance(reloaded, ProfiledWorkload)
    assert reloaded is not fresh  # came off disk, not memory
    assert reloaded.workload is w  # live registry workload reattached
    assert reloaded.paths.counts == fresh.paths.counts
    assert reloaded.paths.trace == fresh.paths.trace
    assert reloaded.trace.memory == fresh.trace.memory
    assert reloaded.result == fresh.result

    # regression: decode() must survive the pickle round-trip — the BL
    # ENTRY/EXIT sentinels come back as equal-but-distinct string objects
    for path_id, _count in fresh.paths.counts.most_common(3):
        assert [b.name for b in reloaded.paths.decode(path_id)] == [
            b.name for b in fresh.paths.decode(path_id)
        ]
