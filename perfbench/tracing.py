"""In-memory span aggregation around the service's layer boundaries.

:func:`install` replaces a fixed set of public functions, one group per
layer module, with timing wrappers.  Every call becomes a span with a
name, a duration and the span that was open on the same thread when it
started (its cause).  Spans are folded into per-thread aggregates as
they close — count, total time, time covered by child spans — so a run
with hundreds of thousands of scheduler calls keeps a few kilobytes in
memory.  :meth:`Tracer.dump` writes the merged aggregates as JSON when
the traced process exits.

A layer's self time is the sum over its spans of duration minus the
part covered by child spans (which may belong to other layers).
"""

from __future__ import annotations

import functools
import json
import threading
import time

#: span name -> (module, attribute path) of the function it times.
#: Span names are ``<layer>.<function>``; the layer prefix is what the
#: per-layer report groups self time by.
WRAPPED = {
    "journal.append": ("repro.core.journal", "Journal.append"),
    "journal.compact": ("repro.core.journal", "ControlPlaneJournal.compact"),
    "control_plane.pump": ("repro.core.control_plane", "ControlPlane.pump"),
    "control_plane.submit": ("repro.core.control_plane", "ControlPlane.submit"),
    "control_plane.on_task_result": (
        "repro.core.control_plane", "ControlPlane.on_task_result",
    ),
    "control_plane.complete_task": (
        "repro.core.control_plane", "ControlPlane.complete_task",
    ),
    "scheduler.choose_worker_indexed": (
        "repro.core.scheduler", "Scheduler.choose_worker_indexed",
    ),
    "service.hello": ("repro.core.manager", "ManagerService.hello"),
    "service.handle_message": ("repro.core.manager", "ManagerService.handle_message"),
    "service.task_delivered": ("repro.core.manager", "ManagerService.task_delivered"),
    "protocol.next_item": ("repro.protocol.connection", "FrameReassembler.next_item"),
    # the manager module imported ``validate`` by name: time that binding
    "protocol.validate": ("repro.core.manager", "validate"),
    "txnlog.write": ("repro.observe.txnlog", "TransactionLogWriter.__call__"),
}


class _ThreadStats:
    """Aggregates of the spans closed on one thread (no locking needed)."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        #: span name -> [count, total seconds, child seconds]
        self.spans: dict[str, list] = {}
        #: "parent>child" -> count
        self.edges: dict[str, int] = {}
        #: seconds covered by spans with no parent on this thread
        self.top_level_s = 0.0
        #: open spans: [name, child seconds so far]
        self.stack: list[list] = []


class Tracer:
    """Collects span aggregates per thread; merged only at dump time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadStats] = []
        self._lock = threading.Lock()

    def _stats(self) -> _ThreadStats:
        st = getattr(self._local, "stats", None)
        if st is None:
            st = _ThreadStats(threading.current_thread().name)
            self._local.stats = st
            with self._lock:
                self._threads.append(st)
        return st

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so each call records one span."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stats()
            stack = st.stack
            # a re-entrant call (e.g. a recursive pump) stays inside the
            # outer span instead of double-counting its time
            for frame in stack:
                if frame[0] == name:
                    return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                agg = st.spans.get(name)
                if agg is None:
                    agg = st.spans[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    edge = f"{parent[0]}>{name}"
                    st.edges[edge] = st.edges.get(edge, 0) + 1
                else:
                    st.top_level_s += elapsed

        return wrapper

    def summary(self) -> dict:
        """Merged aggregates: spans, cause edges, per-thread top level."""
        with self._lock:
            threads = list(self._threads)
        spans: dict[str, dict] = {}
        edges: dict[str, int] = {}
        top_level: dict[str, float] = {}
        for st in threads:
            for name, (count, total, child) in st.spans.items():
                agg = spans.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
                agg["count"] += count
                agg["total_s"] += total
                agg["self_s"] += total - child
            for edge, count in st.edges.items():
                edges[edge] = edges.get(edge, 0) + count
            top_level[st.thread_name] = top_level.get(st.thread_name, 0.0) + st.top_level_s
        return {"spans": spans, "edges": edges, "top_level_s": top_level}

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.summary(), f, indent=1, sort_keys=True)


def install(tracer: Tracer) -> None:
    """Patch every function in :data:`WRAPPED` with a timing wrapper."""
    import importlib

    for name, (module_name, attr_path) in WRAPPED.items():
        owner = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
