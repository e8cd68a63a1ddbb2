"""In-memory span tracing by wrapping program functions at their call sites.

The benchmark never edits the program: a :class:`Tracer` replaces a
function at the binding its caller looks up (a module global, a class
attribute, a ``staticmethod``) with a wrapper that records one span per
call and restores the original on :meth:`Tracer.restore`.

Spans live in flat ``array`` columns (name, start, end, parent, design)
so a run with hundreds of thousands of kernel calls stays small; they are
written out once, at the end, with :meth:`Tracer.save`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NO_SPAN = -1


class Tracer:
    """Span recorder plus the patch list that feeds it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.design = array("i")
        # The benchmark drives one request at a time, so the design being
        # served and the request's root span are process-wide; spans opened
        # on server threads (empty stack) hang off the request span.
        self.design_id = NO_SPAN
        self.request_span = NO_SPAN
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        # Service jobs fork from a threaded process: a child forked while
        # another thread held the lock must not inherit it locked.
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _stack(self) -> List[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, name_idx: int, root: bool = False) -> int:
        stack = self._stack()
        if root:
            parent = NO_SPAN
        else:
            parent = stack[-1] if stack else self.request_span
        with self._lock:
            sid = len(self.name)
            self.name.append(name_idx)
            self.start.append(time.perf_counter())
            self.end.append(0.0)
            self.parent.append(parent)
            self.design.append(self.design_id)
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around benchmark-side code."""
        sid = self.open(self._intern(name))
        try:
            yield
        finally:
            self.close(sid)

    @contextlib.contextmanager
    def request(self, design_id: int) -> Iterator[None]:
        """The root span of one request; every span until it closes,
        on any thread, belongs to ``design_id``."""
        self.design_id = design_id
        sid = self.open(self._intern("request"), root=True)
        self.request_span = sid
        try:
            yield
        finally:
            self.close(sid)
            self.request_span = NO_SPAN
            self.design_id = NO_SPAN

    # -- patching ----------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        on_result: Optional[Callable[[Any, float], None]] = None,
    ) -> None:
        """Trace every call of ``owner.attr`` as a span called ``name``.

        ``on_result(result, seconds)`` sees each call's return value and
        inclusive duration, for counters the span alone cannot carry.
        """
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        is_static = isinstance(original, staticmethod)
        func = original.__func__ if is_static else original
        idx = self._intern(name)
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            sid = tracer.open(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(sid)
            if on_result is not None:
                on_result(result, tracer.end[sid] - tracer.start[sid])
            return result

        setattr(owner, attr, staticmethod(traced) if is_static else traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive and self seconds.

        Self time is a span's duration minus the union of its children's
        intervals (children on other threads may overlap each other).
        """
        children: Dict[int, List[int]] = defaultdict(list)
        for sid, parent in enumerate(self.parent):
            if parent != NO_SPAN:
                children[parent].append(sid)
        out: Dict[str, Dict[str, float]] = {
            n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in self.names
        }
        for sid in range(len(self.name)):
            dur = self.end[sid] - self.start[sid]
            covered = 0.0
            kids = children.get(sid)
            if kids:
                cur_lo = cur_hi = None
                for k in sorted(kids, key=self.start.__getitem__):
                    lo, hi = self.start[k], self.end[k]
                    if cur_hi is None or lo > cur_hi:
                        if cur_hi is not None:
                            covered += cur_hi - cur_lo
                        cur_lo, cur_hi = lo, hi
                    else:
                        cur_hi = max(cur_hi, hi)
                covered += cur_hi - cur_lo
            entry = out[self.names[self.name[sid]]]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - covered
        return out

    def save(self, path: str) -> None:
        """Write every span as one JSON document of parallel columns."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "columns": ["name", "start", "end", "parent", "design"],
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "design": self.design.tolist(),
                },
                fh,
            )

