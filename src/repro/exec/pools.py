"""Backend-agnostic worker pools: serial, warm processes, threads.

The fail-safe suite runner (:func:`repro.resilience.runner.run_failsafe`)
used to be hardwired to a :class:`concurrent.futures.ProcessPoolExecutor`
— which coupled *what jobs exist* (retry, timeout, quarantine, blame) to
*where they run*, and paid a fresh executor's spawn/teardown plus
full-snapshot pickling on every sweep.  This module separates the two:
the runner speaks one small :class:`Pool` protocol and every backend
implements it.

    pool.start()
    ticket = pool.submit(fn, args, key="164.gzip")
    for c in pool.wait(timeout=0.5):      # [Completion(ticket, ...)]
        ...
    pool.running()                        # {ticket: started_monotonic}
    pool.evict(ticket)                    # kill/abandon just that task
    pool.reset()                          # careful-mode: drop everything
    pool.close(graceful=True)

Backends:

* :class:`SerialPool` — runs tasks inline in the calling thread.  Not
  preemptive: there is nobody outside the task to enforce a deadline.
* :class:`ProcessPool` — warm persistent worker processes (``fork``
  start method where available, so imports are inherited rather than
  re-paid) connected by one duplex pipe each.  Workers send a ``start``
  notification before running a task, so deadlines measure *execution*
  time, not queue time — and when a worker dies the parent knows exactly
  which task it was running and blames only that one, instead of the
  whole-pool ``BrokenProcessPool`` teardown the old executor forced.
* :class:`ThreadPool` — warm daemon threads.  Python-level semantics
  (timeouts via abandonment, simulated crashes, thread-scoped obs and
  fault state) are identical to the process backend; CPU-bound pure
  Python does not scale across threads, but GIL-releasing work does.

All three deliver the same observable behaviour for the same task list,
which is what lets the suite assert byte-identical evaluation records,
obs registries and attribution ledgers across ``--pool`` choices.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing
import multiprocessing.connection
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from .. import obs
from . import worker as worker_context
from .worker import WorkerCrashed

__all__ = [
    "Completion",
    "POOL_BACKENDS",
    "Pool",
    "PoolBroken",
    "ProcessPool",
    "SerialPool",
    "ThreadPool",
    "WorkerCrashed",
    "default_pool_width",
    "make_pool",
]

#: backend names accepted by :func:`make_pool`
POOL_BACKENDS = ("serial", "process", "thread")

#: tasks a worker may hold at once (1 running + the rest queued locally,
#: so a worker that finishes never idles waiting for the parent's next
#: scheduling pass)
_PREFETCH = 2


class PoolBroken(RuntimeError):
    """The backend failed in a way that cannot be blamed on one task.

    The runner answers by entering careful mode: reset the pool and
    resubmit outstanding work one task at a time.
    """


@dataclass
class Completion:
    """One finished submission, as handed back by :meth:`Pool.wait`."""

    ticket: int
    result: object = None
    error: Optional[BaseException] = None
    worker: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None


def default_pool_width() -> int:
    """Worker count when the caller named a backend but not ``jobs``."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


class Pool:
    """Abstract worker pool: submit tasks, collect completions.

    Contract, kept identical across backends so the runner above never
    branches on the backend:

    * :meth:`submit` returns an opaque integer ticket; tasks may run in
      any order but each ticket completes exactly once (unless evicted).
    * :meth:`wait` blocks up to ``timeout`` seconds for completions and
      returns possibly-empty ``[Completion]``.  It may raise
      :class:`PoolBroken` if the backend failed unattributably.
    * :meth:`running` maps tickets to the monotonic time their task
      actually *started executing* (not when it was submitted), which is
      what per-attempt deadlines are measured against.
    * :meth:`evict` abandons one task: kill the process / abandon the
      thread running it, silently requeue any other tasks that worker
      held, and never deliver a completion for the evicted ticket.
    * :meth:`reset` drops all queued and running work (careful-mode
      entry); the caller resubmits what it still wants.
    """

    name = "abstract"
    #: whether deadlines are enforceable (a running task can be evicted)
    preemptive = True

    def __init__(self, jobs: Optional[int] = None):
        self.jobs = max(1, int(jobs) if jobs is not None else 1)
        self._tickets = itertools.count()
        self._started: Dict[int, float] = {}
        #: seconds between worker heartbeats; None = heartbeats off
        self.heartbeat_period: Optional[float] = None
        self._heartbeats: Dict[int, tuple] = {}

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        raise NotImplementedError

    def close(self, graceful: bool = True) -> None:
        raise NotImplementedError

    def __enter__(self) -> "Pool":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(graceful=exc_type is None)

    # -- submission / completion -------------------------------------------

    def submit(self, fn, args=(), key: str = "") -> int:
        raise NotImplementedError

    def wait(self, timeout: Optional[float] = None) -> List[Completion]:
        raise NotImplementedError

    def running(self) -> Dict[int, float]:
        """Tickets currently executing -> monotonic start time."""
        return dict(self._started)

    def evict(self, ticket: int) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        raise NotImplementedError

    # -- heartbeats --------------------------------------------------------

    def set_heartbeat(self, period: Optional[float]) -> None:
        """Ask workers to report (task, elapsed) every ``period``
        seconds.  Call before :meth:`start`.  Silently ignored on
        non-preemptive backends — a serial "worker" is the caller, so
        there is nobody to hear the beat (and nothing to do about a
        stall anyway).
        """
        if period and period > 0 and self.preemptive:
            self.heartbeat_period = float(period)

    def heartbeats(self) -> Dict[int, tuple]:
        """Latest heartbeat per running ticket:
        ``{ticket: (seen_monotonic, payload, worker_name)}``.

        ``payload`` is the worker's report — ``{"elapsed": s}``.
        Entries disappear when their task completes or its
        worker is retired, so a ticket present here is believed alive.
        """
        return dict(self._heartbeats)

    # -- shared helpers ----------------------------------------------------

    def _note_respawn(self) -> None:
        if obs.enabled():
            obs.counter(
                "resilience.pool_respawns", 1,
                help="pool workers respawned after crash/hang/timeout",
            )


# -- serial ------------------------------------------------------------------


class SerialPool(Pool):
    """Run every task inline, one at a time, in the calling thread.

    Identical retry/quarantine/fault semantics to the real pools, minus
    preemption: a task that never returns can never be timed out, so the
    runner skips deadline enforcement here (and serial workers report
    ``preemptive() == False``, which is how the ``worker.hang`` chaos
    site knows to stand down).
    """

    name = "serial"
    preemptive = False

    def __init__(self, jobs: Optional[int] = None):
        super().__init__(jobs=1)
        self._backlog: collections.deque = collections.deque()

    def start(self) -> None:
        pass

    def close(self, graceful: bool = True) -> None:
        self._backlog.clear()

    def submit(self, fn, args=(), key: str = "") -> int:
        ticket = next(self._tickets)
        self._backlog.append((ticket, fn, args))
        return ticket

    def wait(self, timeout: Optional[float] = None) -> List[Completion]:
        if not self._backlog:
            return []
        ticket, fn, args = self._backlog.popleft()
        self._started[ticket] = time.monotonic()
        worker_context.enter("serial", can_preempt=False)
        try:
            result = fn(*args)
        except Exception as exc:
            return [Completion(ticket, error=exc, worker="serial")]
        finally:
            worker_context.leave()
            self._started.pop(ticket, None)
        return [Completion(ticket, result=result, worker="serial")]

    def evict(self, ticket: int) -> None:
        self._backlog = collections.deque(
            t for t in self._backlog if t[0] != ticket)

    def reset(self) -> None:
        self._backlog.clear()
        self._started.clear()


# -- worker-side heartbeat reporter ------------------------------------------


class _Beat:
    """Worker-side heartbeat: a daemon thread beside the task loop.

    The loop marks the running ticket with :meth:`begin`/:meth:`end`;
    every ``period`` seconds the beat thread emits ``(ticket,
    {"elapsed"})`` through the pool's normal result channel.  Emission
    failures stop the beat silently — a broken channel means the parent
    is gone and the worker is about to die anyway.
    """

    def __init__(self, period: float, emit) -> None:
        self._period = period
        self._emit = emit
        self._lock = threading.Lock()
        self._ticket: Optional[int] = None
        self._since = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="repro-pool-beat", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def begin(self, ticket: int) -> None:
        with self._lock:
            self._ticket = ticket
            self._since = time.monotonic()

    def end(self) -> None:
        with self._lock:
            self._ticket = None

    def _loop(self) -> None:
        while not self._stop.wait(self._period):
            with self._lock:
                ticket = self._ticket
                if ticket is None:
                    continue
                payload = {"elapsed": round(time.monotonic() - self._since, 3)}
            try:
                self._emit(ticket, payload)
            except Exception:
                return

    def stop(self) -> None:
        self._stop.set()


# -- threads -----------------------------------------------------------------


def _thread_worker_main(name: str, inbox, results,
                        heartbeat: Optional[float] = None) -> None:
    worker_context.enter("thread", can_preempt=True)
    beat = None
    if heartbeat:
        beat = _Beat(heartbeat, lambda ticket, payload: results.put(
            ("heartbeat", name, ticket, payload)))
        beat.start()
    while True:
        msg = inbox.get()
        if msg is None:
            if beat is not None:
                beat.stop()
            return
        ticket, fn, args = msg
        results.put(("start", name, ticket, None))
        if beat is not None:
            beat.begin(ticket)
        try:
            value = fn(*args)
        except Exception as exc:
            results.put(("error", name, ticket, exc))
        else:
            results.put(("ok", name, ticket, value))
        finally:
            if beat is not None:
                beat.end()


class _ThreadWorker:
    __slots__ = ("name", "thread", "inbox", "assigned", "current")


class ThreadPool(Pool):
    """Warm daemon worker threads.

    Eviction abandons the whole thread (Python threads cannot be
    killed): the worker is dropped from the live set so anything it
    still reports is discarded, its queued tasks are requeued onto a
    fresh thread, and — being a daemon — a permanently hung thread
    cannot block interpreter exit.
    """

    name = "thread"

    def __init__(self, jobs: Optional[int] = None):
        super().__init__(jobs)
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._workers: List[_ThreadWorker] = []
        self._live: Dict[str, _ThreadWorker] = {}
        self._backlog: collections.deque = collections.deque()
        self._owner: Dict[int, _ThreadWorker] = {}
        self._seq = itertools.count()

    def start(self) -> None:
        while len(self._workers) < self.jobs:
            self._workers.append(self._spawn())

    def _spawn(self) -> _ThreadWorker:
        w = _ThreadWorker()
        w.name = "thread-%d" % next(self._seq)
        w.inbox = queue.SimpleQueue()
        w.assigned = {}
        w.current = None
        w.thread = threading.Thread(
            target=_thread_worker_main,
            args=(w.name, w.inbox, self._results, self.heartbeat_period),
            name="repro-pool-%s" % w.name,
            daemon=True,
        )
        w.thread.start()
        self._live[w.name] = w
        return w

    def _load(self, w: _ThreadWorker) -> int:
        return len(w.assigned)

    def _flush(self) -> None:
        while self._backlog and self._workers:
            w = min(self._workers, key=self._load)
            if self._load(w) >= _PREFETCH:
                return
            item = self._backlog.popleft()
            w.assigned[item[0]] = item
            self._owner[item[0]] = w
            w.inbox.put(item)

    def submit(self, fn, args=(), key: str = "") -> int:
        ticket = next(self._tickets)
        self._backlog.append((ticket, fn, args))
        return ticket

    def wait(self, timeout: Optional[float] = None) -> List[Completion]:
        self._flush()
        comps: List[Completion] = []
        started = 0
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if comps or started:
                # a start notification wakes the caller so it can put a
                # deadline on the newly running task; drain what's left
                # without blocking
                try:
                    msg = self._results.get_nowait()
                except queue.Empty:
                    break
            else:
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    break
                try:
                    msg = self._results.get(timeout=remaining)
                except queue.Empty:
                    break
            started += self._dispatch(msg, comps)
        if comps:
            self._flush()
        return comps

    def _dispatch(self, msg, comps: List[Completion]) -> int:
        """Apply one worker message; returns 1 for a start notification."""
        kind, name, ticket, payload = msg
        w = self._live.get(name)
        if w is None:
            return 0  # abandoned worker still talking: drop it
        if kind == "start":
            w.current = ticket
            self._started[ticket] = time.monotonic()
            return 1
        if kind == "heartbeat":
            self._heartbeats[ticket] = (time.monotonic(), payload, name)
            return 0
        w.assigned.pop(ticket, None)
        if w.current == ticket:
            w.current = None
        self._started.pop(ticket, None)
        self._owner.pop(ticket, None)
        self._heartbeats.pop(ticket, None)
        if kind == "ok":
            comps.append(Completion(ticket, result=payload, worker=name))
        else:
            comps.append(Completion(ticket, error=payload, worker=name))
        return 0

    def _abandon(self, w: _ThreadWorker, drop: Optional[int]) -> None:
        """Stop listening to ``w``; requeue all but the ``drop`` ticket."""
        self._live.pop(w.name, None)
        if w in self._workers:
            self._workers.remove(w)
        try:
            while True:
                w.inbox.get_nowait()
        except queue.Empty:
            pass
        w.inbox.put(None)  # whenever the stall ends, the thread exits
        requeue = []
        for ticket, item in w.assigned.items():
            self._owner.pop(ticket, None)
            self._started.pop(ticket, None)
            self._heartbeats.pop(ticket, None)
            if ticket != drop:
                requeue.append(item)
        self._backlog.extendleft(reversed(requeue))

    def evict(self, ticket: int) -> None:
        w = self._owner.get(ticket)
        if w is None:
            self._backlog = collections.deque(
                t for t in self._backlog if t[0] != ticket)
            return
        self._abandon(w, drop=ticket)
        self._workers.append(self._spawn())
        self._note_respawn()

    def reset(self) -> None:
        for w in list(self._workers):
            self._abandon(w, drop=None)
        self._backlog.clear()
        self._owner.clear()
        self._started.clear()
        self._heartbeats.clear()
        self.start()

    def close(self, graceful: bool = True) -> None:
        for w in self._workers:
            if not graceful:
                try:
                    while True:
                        w.inbox.get_nowait()
                except queue.Empty:
                    pass
            w.inbox.put(None)
        if graceful:
            for w in self._workers:
                w.thread.join(timeout=2.0)
        self._workers = []
        self._live.clear()
        self._backlog.clear()
        self._owner.clear()
        self._started.clear()
        self._heartbeats.clear()


# -- processes ---------------------------------------------------------------


def _send_safe(send, kind: str, ticket: int, payload) -> None:
    try:
        send((kind, ticket, payload))
    except (BrokenPipeError, OSError):
        raise
    except Exception as exc:  # unpicklable result/exception
        send(("error", ticket, RuntimeError(
            "unpicklable task %s payload: %r" % (kind, exc))))


def _process_worker_main(conn, name: str,
                         heartbeat: Optional[float] = None) -> None:
    worker_context.enter("process", can_preempt=True)
    # once heartbeats exist the pipe is written from two threads (the
    # task loop and the beat thread); Connection.send is not atomic
    # across threads, so all writes go through one lock
    send_lock = threading.Lock()

    def send(msg) -> None:
        with send_lock:
            conn.send(msg)

    beat = None
    if heartbeat:
        beat = _Beat(heartbeat, lambda ticket, payload: send(
            ("heartbeat", ticket, payload)))
        beat.start()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg is None:
            return
        for ticket, fn, args in msg:
            try:
                send(("start", ticket))
            except (BrokenPipeError, OSError):
                return
            if beat is not None:
                beat.begin(ticket)
            try:
                value = fn(*args)
            except Exception as exc:
                payload, kind = exc, "error"
            else:
                payload, kind = value, "ok"
            finally:
                if beat is not None:
                    beat.end()
            try:
                _send_safe(send, kind, ticket, payload)
            except (BrokenPipeError, OSError):
                return


class _ProcWorker:
    __slots__ = ("name", "proc", "conn", "assigned", "current", "killing")


class ProcessPool(Pool):
    """Warm persistent worker processes over duplex pipes.

    This is the fix for the old executor's per-sweep costs: workers are
    forked once (inheriting every already-loaded module, so the
    interpreter/numpy import bill is paid zero extra times), stay warm
    across tasks, and receive submissions in batches over their pipe.
    Each worker reports ``("start", ticket)`` before executing, giving
    the parent exact knowledge of *which* task a dead worker was running
    — so a crash quarantines one task and respawns one process, where
    ``BrokenProcessPool`` used to tear down and restart the entire pool
    and guess at blame.
    """

    name = "process"

    def __init__(self, jobs: Optional[int] = None):
        super().__init__(jobs)
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None)
        self._workers: List[_ProcWorker] = []
        self._backlog: collections.deque = collections.deque()
        self._owner: Dict[int, _ProcWorker] = {}
        self._spill: List[Completion] = []
        self._seq = itertools.count()

    def start(self) -> None:
        while len(self._workers) < self.jobs:
            self._workers.append(self._spawn())

    def _spawn(self) -> _ProcWorker:
        w = _ProcWorker()
        w.name = "proc-%d" % next(self._seq)
        w.assigned = {}
        w.current = None
        w.killing = False
        try:
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            w.conn = parent_conn
            w.proc = self._ctx.Process(
                target=_process_worker_main,
                args=(child_conn, w.name, self.heartbeat_period),
                name="repro-pool-%s" % w.name,
                daemon=True,
            )
            w.proc.start()
            child_conn.close()
        except Exception as exc:
            raise PoolBroken("could not start pool worker: %s" % (exc,))
        return w

    def _load(self, w: _ProcWorker) -> int:
        return len(w.assigned)

    def _flush(self, comps: List[Completion]) -> None:
        outbox: Dict[str, tuple] = {}
        while self._backlog and self._workers:
            w = min(self._workers, key=self._load)
            if self._load(w) >= _PREFETCH:
                break
            item = self._backlog.popleft()
            w.assigned[item[0]] = item
            self._owner[item[0]] = w
            outbox.setdefault(w.name, (w, []))[1].append(item)
        for w, batch in outbox.values():
            try:
                w.conn.send(batch)
            except Exception:
                self._retire(w, drop=None, blame=w.current, comps=comps)

    def submit(self, fn, args=(), key: str = "") -> int:
        ticket = next(self._tickets)
        self._backlog.append((ticket, fn, args))
        return ticket

    def wait(self, timeout: Optional[float] = None) -> List[Completion]:
        comps, self._spill = self._spill, []
        self._flush(comps)
        started = self._poll(comps)
        if comps or started:
            # start notifications wake the caller so it can deadline the
            # newly running tasks
            self._flush(comps)
            return comps
        deadline = None if timeout is None else time.monotonic() + timeout
        while not comps:
            objs = []
            for w in self._workers:
                objs.append(w.conn)
                objs.append(w.proc.sentinel)
            if not objs:
                break
            remaining = (None if deadline is None
                         else deadline - time.monotonic())
            if remaining is not None and remaining <= 0:
                break
            ready = multiprocessing.connection.wait(objs, timeout=remaining)
            if not ready:
                break
            if self._poll(comps):
                break
        if comps:
            self._flush(comps)
        return comps

    def _poll(self, comps: List[Completion]) -> int:
        """Drain every worker pipe; reap and replace any dead worker.

        Returns the number of start notifications seen."""
        started = 0
        for w in list(self._workers):
            dead = False
            try:
                while w.conn.poll():
                    started += self._dispatch(w, w.conn.recv(), comps)
            except (EOFError, OSError):
                dead = True
            except Exception:
                # a message we could not unpickle: the stream is
                # unusable, treat the worker as lost
                dead = True
            if dead or not w.proc.is_alive():
                self._retire(w, drop=None, blame=w.current, comps=comps)
        return started

    def _dispatch(self, w: _ProcWorker, msg, comps: List[Completion]) -> int:
        kind, ticket = msg[0], msg[1]
        if kind == "start":
            w.current = ticket
            self._started[ticket] = time.monotonic()
            return 1
        if kind == "heartbeat":
            self._heartbeats[ticket] = (time.monotonic(), msg[2], w.name)
            return 0
        w.assigned.pop(ticket, None)
        if w.current == ticket:
            w.current = None
        self._started.pop(ticket, None)
        self._owner.pop(ticket, None)
        self._heartbeats.pop(ticket, None)
        payload = msg[2]
        if kind == "ok":
            comps.append(Completion(ticket, result=payload, worker=w.name))
        else:
            comps.append(Completion(ticket, error=payload, worker=w.name))
        return 0

    def _retire(self, w: _ProcWorker, drop: Optional[int],
                blame: Optional[int], comps: List[Completion]) -> None:
        """Bury a dead (or deliberately killed) worker and respawn.

        ``blame`` — the ticket whose task took the worker down; it
        completes with :class:`WorkerCrashed`.  ``drop`` — a ticket the
        caller already accounted for (eviction), delivered to nobody.
        Everything else the worker held is requeued, in order.
        """
        if w not in self._workers:
            return
        self._workers.remove(w)
        try:
            w.proc.join(timeout=2.0)
            if w.proc.is_alive():
                w.proc.kill()
                w.proc.join(timeout=2.0)
        except Exception:
            pass
        exit_code = w.proc.exitcode
        try:
            w.conn.close()
        except Exception:
            pass
        requeue = []
        for ticket, item in w.assigned.items():
            self._owner.pop(ticket, None)
            self._started.pop(ticket, None)
            self._heartbeats.pop(ticket, None)
            if ticket == drop:
                continue
            if ticket == blame and not w.killing:
                comps.append(Completion(
                    ticket, error=WorkerCrashed(exit_code), worker=w.name))
                continue
            requeue.append(item)
        self._backlog.extendleft(reversed(requeue))
        self._workers.append(self._spawn())
        self._note_respawn()

    def evict(self, ticket: int) -> None:
        w = self._owner.get(ticket)
        if w is None:
            self._backlog = collections.deque(
                t for t in self._backlog if t[0] != ticket)
            return
        # salvage results that finished before the kill
        try:
            while w.conn.poll():
                self._dispatch(w, w.conn.recv(), self._spill)
        except Exception:
            pass
        w.killing = True
        try:
            w.proc.kill()
        except Exception:
            pass
        self._retire(w, drop=ticket, blame=None, comps=self._spill)

    def reset(self) -> None:
        for w in self._workers:
            try:
                w.proc.kill()
            except Exception:
                pass
        for w in self._workers:
            try:
                w.proc.join(timeout=2.0)
                w.conn.close()
            except Exception:
                pass
        self._workers = []
        self._backlog.clear()
        self._owner.clear()
        self._started.clear()
        self._heartbeats.clear()
        self._spill = []
        self.start()

    def close(self, graceful: bool = True) -> None:
        for w in self._workers:
            if graceful:
                try:
                    w.conn.send(None)
                except Exception:
                    pass
            else:
                try:
                    w.proc.kill()
                except Exception:
                    pass
        for w in self._workers:
            try:
                w.proc.join(timeout=2.0)
                if w.proc.is_alive():
                    w.proc.kill()
                    w.proc.join(timeout=2.0)
            except Exception:
                pass
            try:
                w.conn.close()
            except Exception:
                pass
        self._workers = []
        self._backlog.clear()
        self._owner.clear()
        self._started.clear()
        self._heartbeats.clear()
        self._spill = []


# -- factory -----------------------------------------------------------------


def make_pool(backend, jobs: Optional[int] = None) -> Pool:
    """Build a pool for ``backend`` (a name from :data:`POOL_BACKENDS`,
    or an already-constructed :class:`Pool`, returned as-is)."""
    if isinstance(backend, Pool):
        return backend
    name = str(backend)
    if name == "serial":
        return SerialPool()
    if name == "process":
        return ProcessPool(jobs)
    if name == "thread":
        return ThreadPool(jobs)
    raise ValueError(
        "unknown pool backend %r (choose from: %s)"
        % (backend, ", ".join(POOL_BACKENDS)))
