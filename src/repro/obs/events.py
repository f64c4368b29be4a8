"""Typed in-process event bus: the live layer under `repro.obs`.

Every other observability surface in this repo — metric registries, the
attribution ledger, Chrome-trace timelines — is an *end-of-run
snapshot*.  The event bus is the complement: a stream of small, typed
lifecycle events (`run_started`, `task_scheduled`, `worker_heartbeat`,
…) published while a sweep runs and appended to one JSONL log
(``--events-out``).  That log is the one live-telemetry record; every
view of it — ``repro top``'s progress screen included — is a fold of
the file (:mod:`repro.obs.top`).

Design constraints, in order:

* **Must not perturb semantic output.**  Publishing is wall-clock-only
  bookkeeping; nothing downstream of the bus feeds back into
  evaluation records, semantic metrics or the ledger.  The tests
  enforce byte-identity with the bus on and off, on every pool backend.
* **Cheap when off.**  The module-level :func:`publish` helper is the
  instrumentation surface; with no bus installed it is one attribute
  read and one ``None`` test — the same no-op discipline as
  :func:`repro.obs.counter`.
* **Typed.**  :func:`EventBus.publish` rejects unknown kinds loudly —
  the schema below is the contract `repro top` builds on, not a
  free-form logging channel.

Sequence numbers are monotonic and gapless per bus (hence per run):
readers can detect loss, and the JSONL log replays in exact
publication order.
"""

from __future__ import annotations

import io
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

# -- the event vocabulary ----------------------------------------------------

RUN_STARTED = "run_started"
RUN_RESUMED = "run_resumed"
RUN_FINISHED = "run_finished"
TASK_SCHEDULED = "task_scheduled"
TASK_STARTED = "task_started"
TASK_FINISHED = "task_finished"
RETRY = "retry"
QUARANTINED = "quarantined"
WORKER_HEARTBEAT = "worker_heartbeat"
WORKER_STALLED = "worker_stalled"
CACHE_HIT = "cache_hit"
CACHE_MISS = "cache_miss"
JOURNAL_RECORD = "journal_record"

#: the closed event-kind vocabulary; :meth:`EventBus.publish` rejects
#: anything else (the bus is a typed schema, not a logging channel)
KINDS = frozenset((
    RUN_STARTED,
    RUN_RESUMED,
    RUN_FINISHED,
    TASK_SCHEDULED,
    TASK_STARTED,
    TASK_FINISHED,
    RETRY,
    QUARANTINED,
    WORKER_HEARTBEAT,
    WORKER_STALLED,
    CACHE_HIT,
    CACHE_MISS,
    JOURNAL_RECORD,
))

class UnknownEventKind(ValueError):
    """An event was published with a kind outside :data:`KINDS`."""


@dataclass(frozen=True)
class Event:
    """One bus event: who (``key``), what (``kind``), when (``ts``).

    ``seq`` is the bus-local monotonic sequence number (gapless per
    run); ``ts`` is a wall-clock Unix timestamp — events are
    operational data and never feed semantic output, so wall time is
    fine here.  ``data`` carries kind-specific details and must stay
    JSON-serialisable.
    """

    seq: int
    ts: float
    kind: str
    key: str = ""
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "ts": self.ts,
            "kind": self.kind,
            "key": self.key,
            "data": dict(self.data),
        }

    def to_json(self) -> str:
        """One deterministic JSONL line (sorted keys, no whitespace)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: dict) -> "Event":
        return cls(
            seq=int(payload["seq"]),
            ts=float(payload["ts"]),
            kind=str(payload["kind"]),
            key=str(payload.get("key", "")),
            data=dict(payload.get("data") or {}),
        )

    @classmethod
    def from_json(cls, line: str) -> "Event":
        return cls.from_dict(json.loads(line))


class EventBus:
    """Thread-safe typed event stream with an optional JSONL sink.

    Publication order is total: the lock serialises ``seq`` assignment
    and the sink write, so the log holds one gapless sequence however
    many threads publish (pool threads publish cache events).
    """

    def __init__(self, run_id: str = ""):
        self.run_id = run_id
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._sink: Optional[io.TextIOBase] = None
        self._sink_owned = False

    # -- sink ----------------------------------------------------------------

    def attach_jsonl(self, target) -> None:
        """Stream every event to ``target`` — a path (opened for append)
        or an already-open text file object — one JSON line per event."""
        with self._lock:
            if isinstance(target, str):
                self._sink = open(target, "a", encoding="utf-8")
                self._sink_owned = True
            else:
                self._sink = target
                self._sink_owned = False

    # -- publication ---------------------------------------------------------

    def publish(self, kind: str, key: str = "", /, **data) -> Event:
        """Append one event; returns it (with its assigned ``seq``).

        ``kind`` and ``key`` are positional-only so payload fields may
        themselves be named ``kind`` or ``key`` (retry/quarantine events
        carry the failure kind; cache events may describe cache keys).
        """
        if kind not in KINDS:
            raise UnknownEventKind(
                "unknown event kind %r (known: %s)"
                % (kind, ", ".join(sorted(KINDS))))
        with self._lock:
            event = Event(
                seq=next(self._seq),
                ts=time.time(),
                kind=kind,
                key=key,
                data=data,
            )
            if self._sink is not None:
                try:
                    self._sink.write(event.to_json() + "\n")
                    self._sink.flush()
                except (OSError, ValueError):
                    # a dead sink must never take the sweep down; drop
                    # it and keep publishing
                    self._sink = None
        return event

    def close(self) -> None:
        with self._lock:
            sink, self._sink = self._sink, None
            owned, self._sink_owned = self._sink_owned, False
        if sink is not None and owned:
            try:
                sink.close()
            except OSError:
                pass


# -- ambient bus -------------------------------------------------------------

_ACTIVE: Optional[EventBus] = None


def install(bus: EventBus) -> Optional[EventBus]:
    """Make ``bus`` the process-ambient bus; returns the previous one."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, bus
    return previous


def uninstall(previous: Optional[EventBus] = None) -> None:
    """Clear (or restore) the ambient bus."""
    global _ACTIVE
    _ACTIVE = previous


def active() -> Optional[EventBus]:
    """The ambient bus, or ``None`` when live telemetry is off."""
    return _ACTIVE


def publish(kind: str, key: str = "", /, **data) -> Optional[Event]:
    """Publish to the ambient bus; a cheap no-op when none is installed.

    This is the helper instrumentation sites call — one global read and
    one ``None`` test on the disabled path, mirroring the
    :func:`repro.obs.counter` cost discipline.
    """
    bus = _ACTIVE
    if bus is None:
        return None
    return bus.publish(kind, key, **data)


@contextmanager
def session(events_out: str, run_id: str = "") -> Iterator[EventBus]:
    """Record one sweep's events to the JSONL log at ``events_out``.

    Installs a fresh bus as the ambient one for the duration, streaming
    to the log, and on every exit path publishes the terminal
    ``run_finished`` with a status derived from how the sweep ended —
    ``finished`` on clean return, ``drained`` on a graceful-shutdown
    interrupt (SweepDrained subclasses KeyboardInterrupt), ``aborted``
    on any other exception — before restoring the previous bus.
    """
    bus = EventBus(run_id=run_id)
    bus.attach_jsonl(events_out)
    previous = install(bus)
    status = "aborted"
    try:
        yield bus
        status = "finished"
    except KeyboardInterrupt:
        status = "drained"
        raise
    finally:
        bus.publish(RUN_FINISHED, run_id, status=status)
        uninstall(previous)
        bus.close()


__all__ = [
    "CACHE_HIT",
    "CACHE_MISS",
    "Event",
    "EventBus",
    "JOURNAL_RECORD",
    "KINDS",
    "QUARANTINED",
    "RETRY",
    "RUN_FINISHED",
    "RUN_RESUMED",
    "RUN_STARTED",
    "TASK_FINISHED",
    "TASK_SCHEDULED",
    "TASK_STARTED",
    "UnknownEventKind",
    "WORKER_HEARTBEAT",
    "WORKER_STALLED",
    "active",
    "install",
    "publish",
    "session",
    "uninstall",
]
