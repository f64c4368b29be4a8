"""Persistent, content-addressed artifact cache for pipeline products.

Profile-guided toolchains treat profiles and schedules as *build products*:
once computed for a given (source, inputs, configuration) triple they never
change, so re-running the toolchain should cost only a hash and a read.
This module gives the Needle pipeline that property.

Keys
----
An artifact key is the SHA-256 of four components:

* the workload's full IR text (``format_module`` of the built module) —
  any change to the synthetic kernel invalidates its artifacts;
* the ``repr`` of the run arguments — different inputs, different dynamic
  behaviour;
* a fingerprint of the :class:`~repro.sim.config.SystemConfig` — Table V
  parameter sweeps (ablations) must not share entries;
* :data:`CACHE_FORMAT_VERSION` — bumped whenever the pickled payload layout
  changes, so stale on-disk entries from older code are simply missed.

Layout is ``<root>/<kind>/<key[:2]>/<key>.pkl`` with atomic writes
(temp file + ``os.replace``).  Every read is defensive: a corrupt,
truncated or unreadable entry is treated as a miss (and evicted when
possible), never an error — the pipeline recomputes and overwrites.

The default root is ``~/.cache/repro-needle`` and may be overridden with
the ``REPRO_CACHE_DIR`` environment variable or per-instance ``root``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
from typing import Optional, Tuple

from .obs import counter as _obs_counter, enabled as _obs_enabled
from .obs import events as _bus_events
from .resilience.faults import (
    SITE_CACHE_TRUNCATE,
    consult as _flt_consult,
    enabled as _flt_enabled,
)

#: bump when the pickled artifact layout changes incompatibly
#: (2: AnalysisSummary gained dynamic_instructions/memory_events and
#: OffloadOutcome gained per-level memory access censuses for the obs layer;
#: 3: ProfiledWorkload carries its artifact key, calibration/path-cost
#: tables are persisted, and the offload fold accumulates per charge class;
#: 4: OffloadOutcome carries attribution/baseline_attribution charge-class
#: decompositions, and needle totals are redefined as their canonical fold)
CACHE_FORMAT_VERSION = 4

#: environment variable overriding the default cache root
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: artifact kinds stored by the pipeline
PROFILE_KIND = "profile"
EVALUATION_KIND = "evaluation"
#: sub-simulation tables persisted by the simulation memo (repro.sim.memo)
CALIBRATION_KIND = "calibration"
PATH_COSTS_KIND = "pathcosts"
RECURRENCE_KIND = "recurrence"
#: completed-evaluation payloads referenced by the crash-safe run journal
#: (repro.resilience.journal)
JOURNAL_KIND = "journal"

#: deep IR graphs (SSA chains, operand links) exceed the default
#: recursion limit during pickling; raised temporarily around dump/load
_PICKLE_RECURSION_LIMIT = 100_000


def default_cache_dir() -> str:
    """Resolve the cache root: env override, else ``~/.cache/repro-needle``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-needle")


def config_fingerprint(config) -> str:
    """Stable text form of a SystemConfig (frozen dataclasses repr cleanly)."""
    return repr(config)


def workload_key(workload, config, extra: str = "") -> Tuple[str, object]:
    """(artifact key, built (module, fn, args)) for one workload.

    Building the synthetic module is ~2 ms per workload — three orders of
    magnitude cheaper than profiling it — so the key hashes the *actual* IR
    text rather than trusting the workload name to pin content.  The built
    triple is returned so a cache miss can reuse it instead of rebuilding.
    """
    from .ir.printer import format_module

    built = workload.build()
    module, _fn, args = built
    h = hashlib.sha256()
    h.update(format_module(module).encode())
    h.update(b"\x00")
    h.update(repr(args).encode())
    h.update(b"\x00")
    h.update(config_fingerprint(config).encode())
    h.update(b"\x00")
    h.update(str(CACHE_FORMAT_VERSION).encode())
    return h.hexdigest(), built


class ArtifactCache:
    """Content-addressed on-disk store of pickled pipeline products.

    Writes are always *atomic* (temp file in the target directory +
    ``os.replace``): a reader can never observe a torn payload at the
    final path, whatever kills the writer.  ``fsync=True`` additionally
    makes each write *durable* before :meth:`put` returns — the run
    journal's payload store needs write-ahead ordering (payload on disk
    before the record referencing it), while the ordinary pipeline cache
    skips the sync cost because a lost entry is merely recomputed.
    """

    def __init__(self, root: Optional[str] = None, fsync: bool = False):
        self.root = root or default_cache_dir()
        self.fsync = fsync
        self.hits = 0
        self.misses = 0

    # -- paths -------------------------------------------------------------

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.root, kind, key[:2], key + ".pkl")

    # -- access ------------------------------------------------------------

    def get(self, kind: str, key: str):
        """Load an artifact, or ``None`` on miss/corruption (never raises)."""
        path = self._path(kind, key)
        try:
            with open(path, "rb") as fh:
                payload = fh.read()
        except OSError:
            self.misses += 1
            if _obs_enabled():
                _obs_counter("artifacts.misses", 1,
                             help="artifact cache misses", kind=kind)
            _bus_events.publish(_bus_events.CACHE_MISS, kind)
            return None
        old_limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(max(old_limit, _PICKLE_RECURSION_LIMIT))
            obj = pickle.loads(payload)
        except Exception:
            # corrupt/stale entry: evict and recompute
            self.misses += 1
            if _obs_enabled():
                _obs_counter("artifacts.misses", 1,
                             help="artifact cache misses", kind=kind)
                _obs_counter("artifacts.evictions", 1,
                             help="corrupt entries evicted", kind=kind)
            try:
                os.unlink(path)
            except OSError:
                pass
            _bus_events.publish(_bus_events.CACHE_MISS, kind)
            return None
        finally:
            sys.setrecursionlimit(old_limit)
        self.hits += 1
        if _obs_enabled():
            _obs_counter("artifacts.hits", 1,
                         help="artifact cache hits", kind=kind)
        _bus_events.publish(_bus_events.CACHE_HIT, kind)
        return obj

    def put(self, kind: str, key: str, obj) -> bool:
        """Atomically store an artifact; returns False if it cannot be
        serialised or written (the pipeline carries on uncached)."""
        path = self._path(kind, key)
        old_limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(max(old_limit, _PICKLE_RECURSION_LIMIT))
            payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        finally:
            sys.setrecursionlimit(old_limit)
        if _flt_enabled():
            # chaos site: ship a truncated payload to disk, proving the
            # defensive read path treats it as a clean miss + eviction
            spec = _flt_consult(SITE_CACHE_TRUNCATE, kind)
            if spec is not None:
                keep = int(spec.payload.get("keep", max(1, len(payload) // 2)))
                payload = payload[:keep]
        if _obs_enabled():
            _obs_counter("artifacts.writes", 1,
                         help="artifacts persisted", kind=kind)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(payload)
                    if self.fsync:
                        fh.flush()
                        os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        return True

    # -- maintenance -------------------------------------------------------

    def clear(self) -> int:
        """Delete every stored artifact; returns the number removed."""
        removed = 0
        for kind in (PROFILE_KIND, EVALUATION_KIND,
                     CALIBRATION_KIND, PATH_COSTS_KIND, RECURRENCE_KIND,
                     JOURNAL_KIND):
            base = os.path.join(self.root, kind)
            for dirpath, _dirs, files in os.walk(base):
                for name in files:
                    if name.endswith(".pkl"):
                        try:
                            os.unlink(os.path.join(dirpath, name))
                            removed += 1
                        except OSError:
                            pass
        return removed

    def __repr__(self) -> str:
        return "<ArtifactCache %s: %d hits, %d misses>" % (
            self.root,
            self.hits,
            self.misses,
        )


__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_FORMAT_VERSION",
    "CALIBRATION_KIND",
    "EVALUATION_KIND",
    "JOURNAL_KIND",
    "PATH_COSTS_KIND",
    "PROFILE_KIND",
    "RECURRENCE_KIND",
    "ArtifactCache",
    "config_fingerprint",
    "default_cache_dir",
    "workload_key",
]
