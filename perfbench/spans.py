"""In-memory span recorder that wraps functions from outside the program.

:class:`Tracer` replaces a function or method with a wrapper that records
one span per call: name, start, end, parent span and the current
``(program, design point)`` id, plus optional counts a probe attaches.
Spans stay in memory in :attr:`Tracer.spans` until the caller reads them.

Wrapping happens where callers look a function up.  :meth:`Tracer.wrap`
patches the defining attribute *and* every attribute of a ``repro``
module that is bound to the same object (``from x import f`` copies made
at import time), so no caller keeps the bare function.
Calls that import at call time read the defining module and see the
wrapper too.  :meth:`Tracer.uninstall` puts every original back.

Forked pool workers inherit the wrappers.  With a ``spool`` directory
set, a worker process drops the spans it inherited and, each time its
outermost span ends, appends its spans as one line to
``<spool>/spans-<pid>.jsonl``
(forked workers exit without running exit hooks, so they cannot wait
for the end).  :func:`read_spool` collects them in the parent.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: a span: [name, start, end, parent index or -1, (program, point), counts]
Span = list

#: the tracer forked children should adopt (``os.register_at_fork`` cannot
#: be undone, so one hook consults whichever tracer is current)
_ACTIVE: Optional["Tracer"] = None
_FORK_HOOK = False

#: the package whose modules :meth:`Tracer.wrap` scans for aliases
PACKAGE = "repro"


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE._adopt_fork()


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 spool: Optional[str] = None):
        self.clock = clock
        self.spool = spool
        self.program = ""
        self.point = ""
        self._spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._worker = False

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs, probe=None):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``.

        ``probe(tracer, args, kwargs)`` may return a finisher called with
        the result; a dict it returns becomes the span's counts.
        """
        finish = probe(self, args, kwargs) if probe is not None else None
        spans = self._spans
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, (self.program, self.point), None]
        self._stack.append(len(spans))
        spans.append(rec)
        rec[1] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = self.clock()
            self._stack.pop()
        if finish is not None:
            rec[5] = finish(result)
        if self._worker and not self._stack:
            self._flush()
        return result

    def reset(self) -> None:
        """Forget recorded spans (e.g. at the start of a timed phase)."""
        del self._spans[:]

    @property
    def spans(self) -> List[Span]:
        """The recorded spans (the live list: probes read it mid-call)."""
        return self._spans

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Wrap ``owner.attr`` (a module function or a class's plain
        method) and every alias of it in :data:`PACKAGE`'s modules."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if not callable(original):
            raise TypeError("%s.%s is not callable" % (owner, attr))
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(name, original, args, kwargs, probe)

        wrapper.__wrapped_by_perfbench__ = True
        targets = [owner]
        if not isinstance(owner, type):
            for modname, mod in list(sys.modules.items()):
                if mod is None or mod is owner:
                    continue
                if not (modname == PACKAGE
                        or modname.startswith(PACKAGE + ".")):
                    continue
                if getattr(mod, attr, None) is original:
                    targets.append(mod)
        for target in targets:
            self._patched.append((target, attr, original))
            setattr(target, attr, wrapper)

    def install(self) -> None:
        """Make this tracer the one forked children adopt."""
        global _ACTIVE, _FORK_HOOK
        _ACTIVE = self
        if not _FORK_HOOK and hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=_after_fork_in_child)
            _FORK_HOOK = True

    def uninstall(self) -> None:
        """Restore every wrapped binding, newest first."""
        global _ACTIVE
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)
        if _ACTIVE is self:
            _ACTIVE = None

    @property
    def installed_bindings(self) -> int:
        return len(self._patched)

    # -- forked workers ----------------------------------------------------

    def _adopt_fork(self) -> None:
        # spans recorded before the fork belong to the parent
        self._spans = []
        self._stack = []
        self._worker = self.spool is not None

    def _flush(self) -> None:
        # one line per outermost span: parent indices are line-local
        path = os.path.join(self.spool, "spans-%d.jsonl" % os.getpid())
        with open(path, "a") as fh:
            fh.write(json.dumps(self._spans) + "\n")
        self._spans = []


def read_spool(spool: str) -> List[List[Span]]:
    """Span lists written by forked workers, one per outermost span."""
    out: List[List[Span]] = []
    for fname in sorted(os.listdir(spool)):
        if not (fname.startswith("spans-") and fname.endswith(".jsonl")):
            continue
        with open(os.path.join(spool, fname)) as fh:
            for line in fh:
                spans = json.loads(line)
                for rec in spans:
                    rec[4] = tuple(rec[4])
                out.append(spans)
    return out


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            own[rec[3]] -= rec[2] - rec[1]
    return own


def totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, inclusive ``total_s``, ``self_s`` and
    summed probe counts (nested same-name spans count once inclusively)."""
    own = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for i, rec in enumerate(spans):
        name = rec[0]
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[i]
        if not _has_ancestor(spans, i, name):
            row["total_s"] += rec[2] - rec[1]
        for key, value in (rec[5] or {}).items():
            row[key] = row.get(key, 0) + value
    return out


def _has_ancestor(spans: List[Span], i: int, name: str) -> bool:
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
