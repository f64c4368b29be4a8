"""Shared per-workload simulation memo (perf layer 3, second half).

Evaluating one workload runs :meth:`OffloadSimulator.simulate_offload`
three times — host-vs-path-oracle, path-history, braid — and every call
used to pay the full sub-simulation bill again: replay the memory stream
through both cache ports, OOO-simulate every path, and re-schedule the
frame.  None of those depend on the strategy.  :class:`SimulationMemo`
memoizes each expensive sub-simulation per (input, configuration) so the
three strategies share one calibration, one host-cost table and one
schedule pool, and DSE sweeps that vary only CGRA/offload knobs skip
memory replay and OOO simulation entirely.

Two keying tiers:

* **content keys** — when the pipeline knows the workload's artifact key
  (a hash of its IR text and run args), calibration records and path-cost
  tables are keyed by (artifact key, relevant config slice) and written
  through to the :class:`~repro.artifacts.ArtifactCache`.  The config
  slice is deliberately narrow: calibration keys only the memory
  hierarchy, path costs only the host core + load latency, and the braid
  recurrence (``"recurrence"``: frequency-weighted constituent-path
  recurrence II) only the constituent paths + the CGRA's rounded
  load/store latencies — which is what lets a CGRA or host design-space
  sweep reuse them.  Write-through also means a
  workload retried by :func:`~repro.resilience.runner.run_failsafe`
  (possibly in a fresh worker process) reuses the calibration its failed
  attempt already computed.
* **identity keys** — with no artifact cache the memo falls back to
  keying by object identity (the trace / profile / frame instance), which
  still gives full cross-strategy sharing within a pipeline.  CGRA
  schedules (``"schedule"``) and RLE views (``"rle"``) are always
  identity-keyed.

The memo is picklable via :meth:`snapshot`/:meth:`merge` (content entries
only), and pool workers ship their snapshots back with each result the
same way obs registry snapshots travel, so the parent's memo warms up as
a sharded sweep progresses.

Kernel modes and keys: the ``trace_kernels`` mode ("rle" or "events")
is deliberately *absent* from every memo key.  Both tiers produce
bitwise-identical calibrations, path-cost tables and outcomes
(property-tested, and pinned to the committed golden rows), so entries
computed under one mode are valid under the other — a cache-served run therefore reports the mode it
*would* have used via the ``sim.kernel_mode`` gauge, while the numbers
themselves are mode-independent by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..obs import counter as _obs_counter, enabled as _obs_enabled


@dataclass
class Calibration:
    """Full memory-calibration record of one workload (both ports).

    The single public product of
    :meth:`~repro.sim.offload.OffloadSimulator.calibrate`: average load
    latencies plus the per-level access censuses of the replay, so no
    caller ever needs a second stream replay to get the level counts.
    """

    host_load_latency: float
    accel_load_latency: float
    host_levels: Dict[str, int] = field(default_factory=dict)
    accel_levels: Dict[str, int] = field(default_factory=dict)


def content_key(*parts) -> str:
    """Stable hash of heterogeneous key parts (reprs joined with NULs)."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


class SimulationMemo:
    """Get-or-compute tables for calibration, path costs, recurrences and
    schedules."""

    def __init__(self, cache=None):
        #: optional ArtifactCache backing the content-keyed tables
        self.cache = cache
        self._content: Dict[Tuple[str, str], object] = {}
        self._identity: Dict[tuple, Tuple[object, object]] = {}
        self._unsynced: set = set()
        self.hits = 0
        self.misses = 0

    # -- lookups -----------------------------------------------------------

    def content(self, kind: str, key: str, compute, persist: bool = True):
        """Memoize by content key, optionally persisted via the artifact
        cache (``kind`` doubles as the on-disk artifact kind)."""
        mem_key = (kind, key)
        if mem_key in self._content:
            self._note(kind, hit=True)
            return self._content[mem_key]
        if persist and self.cache is not None:
            stored = self.cache.get(kind, key)
            if stored is not None:
                self._content[mem_key] = stored
                self._unsynced.add(mem_key)
                self._note(kind, hit=True)
                return stored
        value = compute()
        self._content[mem_key] = value
        self._unsynced.add(mem_key)
        if persist and self.cache is not None:
            # write-through immediately: a later crash of this attempt
            # must not lose the sub-simulation for the retry
            self.cache.put(kind, key, value)
        self._note(kind, hit=False)
        return value

    def identity(self, kind: str, obj, extra, compute):
        """Memoize by object identity (plus a hashable discriminator).

        A strong reference to ``obj`` is kept with the entry so a reused
        ``id()`` after garbage collection can never alias a stale value.
        """
        key = (kind, id(obj), extra)
        entry = self._identity.get(key)
        if entry is not None and entry[0] is obj:
            self._note(kind, hit=True)
            return entry[1]
        value = compute()
        self._identity[key] = (obj, value)
        self._note(kind, hit=False)
        return value

    # -- stats -------------------------------------------------------------

    def _note(self, table: str, hit: bool) -> None:
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        if _obs_enabled():
            _obs_counter(
                "simcache.hits" if hit else "simcache.misses", 1,
                help="simulation-memo lookups served/computed",
                table=table,
            )

    # -- snapshots (ride back from pool workers, like obs registries) ------

    def snapshot(self) -> dict:
        """Picklable image of the content-keyed tables."""
        return {"content": dict(self._content)}

    def drain(self) -> Optional[dict]:
        """Content entries added since the last drain, or ``None``.

        The delta counterpart of :meth:`snapshot` for *warm* pool
        workers: the parent already merged everything this memo shipped
        with earlier results, so each new result only needs to carry the
        tables its own task added — O(new entries) transport instead of
        O(every entry this worker ever computed)."""
        if not self._unsynced:
            return None
        delta = {"content": {k: self._content[k] for k in self._unsynced
                             if k in self._content}}
        self._unsynced.clear()
        return delta

    def merge(self, snap: Optional[dict]) -> None:
        """Fold a worker's snapshot in (entries are deterministic per key,
        so last-write-wins merging cannot change any value)."""
        if not snap:
            return
        self._content.update(snap.get("content", {}))

    def __repr__(self) -> str:
        return "<SimulationMemo %d entries: %d hits, %d misses>" % (
            len(self._content) + len(self._identity), self.hits, self.misses,
        )


__all__ = ["Calibration", "SimulationMemo", "content_key"]
