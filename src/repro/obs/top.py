"""`repro top`: a one-screen view of a sweep, folded from its event log.

The JSONL event log a sweep writes with ``--events-out`` is the one
live-telemetry record.  :class:`ProgressModel` folds that stream into
a small JSON-able progress model — done/running/queued/quarantined
counts, per-worker status with stall flags, cache hit rates,
throughput and an EWMA-smoothed ETA — and :class:`EventLog` feeds it
from the file incrementally, one complete line at a time, so a log
still being appended to can be watched while the sweep runs.

The sink appends, so one file may hold several runs; each
``run_started`` starts a fresh model and the view always shows the
last run.  ``repro top`` repaints that view on an interval and stops by
itself once the run reaches a terminal state.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

from . import events as ev

#: states after which the sweep will publish no further progress
TERMINAL_STATES = frozenset(("finished", "drained", "aborted"))

#: EWMA smoothing factor for the per-task completion rate (higher =
#: snappier ETA, lower = steadier; 0.3 tracks mid-sweep speedups within
#: a few completions without whipsawing on one outlier)
EWMA_ALPHA = 0.3

#: polls a missing log is tolerated for before ``repro top`` gives up
MISSING_POLLS = 5


class ProgressUnavailable(RuntimeError):
    """The event log could not be read (yet)."""


class MalformedEventLog(ValueError):
    """A complete line of the event log is not an event."""


class ProgressModel:
    """Fold of one run's event stream into its current status."""

    def __init__(self):
        self.run_id = ""
        self.stage = ""
        self.state = "idle"  # idle -> running -> finished|drained|aborted
        self.total = 0
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.done = 0
        self.resumed = 0
        self.failed = 0
        self.quarantined = 0
        self.retries = 0
        self.stalls = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.last_seq = -1
        self._queued = set()
        self._running = {}     # key -> {worker, attempt, started}
        self._quarantined = set()
        self._workers = {}     # worker -> {task, last_seen, stalled}
        self._ewma_rate = None  # tasks/second, EWMA-smoothed
        self._last_done_ts = None

    # -- folding -------------------------------------------------------------

    def apply(self, event: ev.Event) -> None:
        self.last_seq = event.seq
        handler = getattr(self, "_on_" + event.kind, None)
        if handler is not None:
            handler(event)

    def _on_run_started(self, event: ev.Event) -> None:
        self.run_id = event.data.get("run_id", event.key) or self.run_id
        self.stage = event.data.get("stage", self.stage)
        self.total = int(event.data.get("total", self.total))
        self.state = "running"
        self.started_at = event.ts

    def _on_run_resumed(self, event: ev.Event) -> None:
        # a resumed workload is finished work inherited from the prior
        # run: counted as done (the acceptance criterion: cumulative
        # progress, not just this process's share) but kept out of the
        # ETA rate estimate, which should reflect live throughput only
        key = event.key
        self._queued.discard(key)
        self._running.pop(key, None)
        self.done += 1
        self.resumed += 1

    def _on_task_scheduled(self, event: ev.Event) -> None:
        key = event.key
        if key not in self._running and key not in self._quarantined:
            self._queued.add(key)

    def _on_task_started(self, event: ev.Event) -> None:
        key = event.key
        self._queued.discard(key)
        self._running[key] = {
            "worker": event.data.get("worker", ""),
            "attempt": int(event.data.get("attempt", 1)),
            "started": event.ts,
        }
        worker = event.data.get("worker")
        if worker:
            self._workers[worker] = {
                "task": key,
                "last_seen": event.ts,
                "stalled": False,
            }

    def _on_task_finished(self, event: ev.Event) -> None:
        key = event.key
        self._queued.discard(key)
        entry = self._running.pop(key, None)
        self.done += 1
        if not event.data.get("ok", True):
            self.failed += 1
        if entry and entry.get("worker"):
            state = self._workers.get(entry["worker"])
            if state is not None and state.get("task") == key:
                state.update(task="", last_seen=event.ts, stalled=False)
        # EWMA over inter-completion gaps -> live tasks/second
        now = event.ts
        if self._last_done_ts is not None:
            gap = max(now - self._last_done_ts, 1e-9)
            rate = 1.0 / gap
            if self._ewma_rate is None:
                self._ewma_rate = rate
            else:
                self._ewma_rate += EWMA_ALPHA * (rate - self._ewma_rate)
        self._last_done_ts = now

    def _on_retry(self, event: ev.Event) -> None:
        self.retries += 1
        key = event.key
        self._running.pop(key, None)
        self._queued.add(key)

    def _on_quarantined(self, event: ev.Event) -> None:
        key = event.key
        self._queued.discard(key)
        self._running.pop(key, None)
        self._quarantined.add(key)
        self.quarantined = len(self._quarantined)

    def _on_worker_heartbeat(self, event: ev.Event) -> None:
        worker = event.data.get("worker", event.key)
        if not worker:
            return
        self._workers[worker] = {
            "task": event.data.get("task", ""),
            "last_seen": event.ts,
            "stalled": False,
        }
        entry = self._running.get(event.data.get("task"))
        if entry is not None:
            entry["worker"] = worker

    def _on_worker_stalled(self, event: ev.Event) -> None:
        self.stalls += 1
        worker = event.data.get("worker", event.key)
        state = self._workers.get(worker)
        if state is not None:
            state["stalled"] = True

    def _on_cache_hit(self, event: ev.Event) -> None:
        self.cache_hits += 1

    def _on_cache_miss(self, event: ev.Event) -> None:
        self.cache_misses += 1

    def _on_run_finished(self, event: ev.Event) -> None:
        self.state = event.data.get("status", "finished")
        self.finished_at = event.ts
        self._running.clear()
        self._queued.clear()
        for state in self._workers.values():
            state["task"] = ""

    # -- reading -------------------------------------------------------------

    def snapshot(self) -> dict:
        """One JSON-able view of the model, lists sorted for stability."""
        now = time.time()
        elapsed = (now - self.started_at) if self.started_at else 0.0
        if self.finished_at and self.started_at:
            elapsed = self.finished_at - self.started_at
        remaining = max(self.total - self.done - self.quarantined, 0)
        eta = None
        if (self.state == "running" and remaining > 0
                and self._ewma_rate and self._ewma_rate > 0):
            eta = remaining / self._ewma_rate
        lookups = self.cache_hits + self.cache_misses
        running = [
            dict(sorted(entry.items()), task=key,
                 elapsed=round(max(now - entry["started"], 0.0), 3))
            for key, entry in sorted(self._running.items())
        ]
        workers = [
            dict(sorted(state.items()), worker=name,
                 idle_for=round(max(now - state["last_seen"], 0.0), 3))
            for name, state in sorted(self._workers.items())
        ]
        return {
            "run_id": self.run_id,
            "stage": self.stage,
            "state": self.state,
            "total": self.total,
            "done": self.done,
            "resumed": self.resumed,
            "failed": self.failed,
            "queued": len(self._queued),
            "running": running,
            "quarantined": sorted(self._quarantined),
            "retries": self.retries,
            "stalls": self.stalls,
            "workers": workers,
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": (self.cache_hits / lookups) if lookups else None,
            },
            "elapsed_seconds": round(elapsed, 3),
            "eta_seconds": round(eta, 3) if eta is not None else None,
            "rate_per_second": (round(self._ewma_rate, 6)
                                if self._ewma_rate else None),
            "last_seq": self.last_seq,
            "generated_at": now,
        }


class EventLog:
    """Incremental reader of an append-only events JSONL.

    Each :meth:`poll` folds the complete lines appended since the last
    one into :attr:`model`.  A trailing line without its newline is a
    writer mid-append: it is left for the next poll.  A ``run_started``
    replaces the model, so :attr:`model` always describes the last run
    in the file.
    """

    def __init__(self, path: str):
        self.path = path
        self.model = ProgressModel()
        self._offset = 0
        self._lineno = 0

    def poll(self) -> dict:
        """Fold newly completed lines; return the current snapshot."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self._offset)
                chunk = handle.read()
        except OSError as exc:
            raise ProgressUnavailable(
                "cannot read event log %s (%s)"
                % (self.path, exc.strerror or exc)) from None
        complete = chunk[:chunk.rfind(b"\n") + 1]
        for line in complete.splitlines():
            self._lineno += 1
            try:
                event = ev.Event.from_json(line.decode("utf-8"))
            except (ValueError, KeyError, TypeError) as exc:
                reason = ("missing %s" % exc if isinstance(exc, KeyError)
                          else exc)
                raise MalformedEventLog(
                    "%s:%d: not an event (%s)"
                    % (self.path, self._lineno, reason)) from None
            if event.kind == ev.RUN_STARTED:
                self.model = ProgressModel()
            self.model.apply(event)
        self._offset += len(complete)
        return self.model.snapshot()


def load_progress(path: str) -> dict:
    """The progress snapshot of the last run in the event log at ``path``."""
    return EventLog(path).poll()


def _format_duration(seconds) -> str:
    if seconds is None:
        return "--"
    seconds = max(int(seconds), 0)
    hours, rest = divmod(seconds, 3600)
    minutes, secs = divmod(rest, 60)
    if hours:
        return "%dh%02dm%02ds" % (hours, minutes, secs)
    if minutes:
        return "%dm%02ds" % (minutes, secs)
    return "%ds" % secs


def _bar(done: int, total: int, width: int = 32) -> str:
    if total <= 0:
        return "-" * width
    filled = int(round(width * min(done / total, 1.0)))
    return "#" * filled + "-" * (width - filled)


def render_top(progress: dict) -> str:
    """Render one progress snapshot as a fixed-width text screen."""
    lines = []
    run_id = progress.get("run_id") or "(unjournaled)"
    state = progress.get("state", "unknown")
    stage = progress.get("stage", "")
    total = int(progress.get("total") or 0)
    done = int(progress.get("done") or 0)
    queued = int(progress.get("queued") or 0)
    running = progress.get("running") or []
    quarantined = progress.get("quarantined") or []
    header = "repro top — run %s [%s]" % (run_id, state)
    if stage:
        header += " stage=%s" % stage
    lines.append(header)
    lines.append("=" * max(len(header), 44))

    pct = (100.0 * done / total) if total else 0.0
    lines.append("  [%s] %d/%d (%.0f%%)"
                 % (_bar(done, total), done, total, pct))
    lines.append(
        "  elapsed %-9s eta %-9s rate %s/s"
        % (_format_duration(progress.get("elapsed_seconds")),
           _format_duration(progress.get("eta_seconds")),
           ("%.2f" % progress["rate_per_second"])
           if progress.get("rate_per_second") else "--"))
    lines.append(
        "  running %-4d queued %-4d quarantined %-4d retries %-4d stalls %d"
        % (len(running), queued, len(quarantined),
           int(progress.get("retries") or 0),
           int(progress.get("stalls") or 0)))
    resumed = int(progress.get("resumed") or 0)
    if resumed:
        lines.append("  resumed from journal: %d workload%s"
                     % (resumed, "s" if resumed != 1 else ""))
    cache = progress.get("cache") or {}
    if (cache.get("hits") or 0) + (cache.get("misses") or 0):
        rate = cache.get("hit_rate")
        lines.append("  cache   hits %-5d misses %-5d hit-rate %s"
                     % (cache.get("hits", 0), cache.get("misses", 0),
                        ("%.0f%%" % (100 * rate)) if rate is not None
                        else "--"))

    if running:
        lines.append("")
        lines.append("  %-24s %-10s %-9s %s"
                     % ("TASK", "WORKER", "ELAPSED", "ATTEMPT"))
        for entry in running:
            lines.append("  %-24s %-10s %-9s %s"
                         % (entry.get("task", "?")[:24],
                            entry.get("worker", "-")[:10],
                            _format_duration(entry.get("elapsed")),
                            entry.get("attempt", 1)))

    workers = progress.get("workers") or []
    if workers:
        lines.append("")
        lines.append("  %-12s %-24s %-9s %s"
                     % ("WORKER", "TASK", "IDLE", "STATUS"))
        for state_row in workers:
            status = "STALLED" if state_row.get("stalled") else "ok"
            lines.append("  %-12s %-24s %-9s %s"
                         % (state_row.get("worker", "?")[:12],
                            (state_row.get("task") or "-")[:24],
                            _format_duration(state_row.get("idle_for")),
                            status))

    if quarantined:
        lines.append("")
        lines.append("  quarantined: " + ", ".join(quarantined[:8])
                     + (" …" if len(quarantined) > 8 else ""))
    return "\n".join(lines)


def run_top(path: str, interval: float = 1.0, once: bool = False,
            stream=None, clear: bool = True) -> int:
    """The `repro top` loop over the event log at ``path``; returns a
    process exit code.

    Repaints until the last run reaches a terminal state (or until ^C
    for a log whose run never finishes).  ``once`` renders a single
    frame, which is also what CI smoke tests use.  A missing log is
    tolerated for :data:`MISSING_POLLS` polls; a malformed line ends
    the loop at once with exit 1.
    """
    out = stream if stream is not None else sys.stdout
    log = EventLog(path)
    misses = 0
    while True:
        try:
            progress = log.poll()
            misses = 0
        except MalformedEventLog as exc:
            print("repro top: %s" % exc, file=sys.stderr)
            return 1
        except ProgressUnavailable as exc:
            misses += 1
            if once or misses >= MISSING_POLLS:
                print("repro top: %s" % exc, file=sys.stderr)
                return 1
            time.sleep(interval)
            continue
        if clear and getattr(out, "isatty", lambda: False)():
            out.write("\x1b[2J\x1b[H")
        out.write(render_top(progress) + "\n")
        out.flush()
        if once or progress.get("state") in TERMINAL_STATES:
            return 0
        time.sleep(interval)


__all__ = [
    "EWMA_ALPHA",
    "EventLog",
    "MISSING_POLLS",
    "MalformedEventLog",
    "ProgressModel",
    "ProgressUnavailable",
    "TERMINAL_STATES",
    "load_progress",
    "render_top",
    "run_top",
]
