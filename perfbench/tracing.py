"""Span recording for the benchmark's traced run.

The program under test has no tracing of its own, so the traced run
monkeypatches the public entry point of each layer with a wrapper that
records a span: name, start, end, parent span and request id.  Every
wrapper patches the name where its caller looks it up: ``parse`` and
``normalize`` are imported by value into ``repro.database``, so they are
patched there; methods are patched on their class, which is where an
instance lookup finds them.

Spans live in memory (``Tracer.spans``) and are written out when the
benchmark ends.  Patches are installed and removed as a unit, so the
untraced phases of a traced run execute the unmodified program.

A request crosses threads twice on the server path: the client thread
sends it, a connection thread decodes it and an admission worker runs
it.  The client wrapper adds the trace context to the request payload
(the server ignores unknown keys), the dispatch wrapper adopts it, and
the admission wrapper carries it from the connection thread to the
worker.
"""

from __future__ import annotations

import itertools
import os
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Span tuple fields.
SID, PARENT, RID, NAME, LABEL, START, END = range(7)

#: Span name for each patched entry point: (module path, owner, attribute).
#: An owner of ``None`` means a module-level function.
LAYERS = [
    ("sql.parse", "repro.database", None, "parse"),
    ("binder.bind", "repro.binder.binder", "Binder", "bind"),
    ("core.normalize.normalize", "repro.database", None, "normalize"),
    ("core.optimizer.optimize", "repro.core.optimizer.optimizer",
     "Optimizer", "optimize"),
    ("executor.prepare", "repro.executor.physical", "PhysicalExecutor",
     "prepare"),
    ("executor.prepare", "repro.executor.vectorized", "VectorizedExecutor",
     "prepare"),
    ("executor.run", "repro.executor.physical", "PhysicalExecutor",
     "run_prepared"),
    ("executor.run", "repro.executor.vectorized", "VectorizedExecutor",
     "run_prepared"),
    ("catalog.stats_build", "repro.storage.table", None,
     "compute_table_stats"),
    ("storage.snapshot", "repro.storage.table", "Storage", "snapshot"),
    ("storage.clone", "repro.storage.table", "StoredTable", "clone"),
    ("storage.insert_rows", "repro.storage.table", "StoredTable",
     "insert_rows"),
    ("storage.install", "repro.storage.table", "Storage", "install_many"),
    ("matview.maintain", "repro.matview.manager", "MatViewManager",
     "prepare_commit"),
    ("durability.log_commit", "repro.durability.manager",
     "DurabilityManager", "log_commit"),
    ("server.session", "repro.server.sessions", "Session", "execute"),
    ("server.session", "repro.server.sessions", "Session", "begin"),
    ("server.session", "repro.server.sessions", "Session", "commit"),
    ("server.session", "repro.server.sessions", "Session", "insert"),
]


class Tracer:
    """In-memory span and counter store plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._count_lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- context -------------------------------------------------------------

    def _stack(self) -> list:
        """This thread's open frames: ``(span id, request id, label)``."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call(self, name: str, fn, args, kwargs, rid=None, label=None):
        """Run ``fn`` inside a span.  A span opened with ``rid`` starts a
        new request (a root span); otherwise it joins the caller's."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if rid is None and parent is not None:
            rid, label = parent[1], parent[2]
        sid = next(self._ids)
        stack.append((sid, rid, label))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent[0] if parent else None, rid,
                               name, label, start, end))

    def request(self, name: str, label: str, fn, *args, **kwargs):
        """Run one benchmark operation as the root span of a request."""
        return self.call(name, fn, args, kwargs, rid=next(self._ids),
                         label=label)

    def adopt(self, frame, fn, *args, **kwargs):
        """Run ``fn`` with ``frame`` (a remote caller's context) open."""
        if frame is None:
            return fn(*args, **kwargs)
        stack = self._stack()
        stack.append(tuple(frame))
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def bump(self, key: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[key] += n

    def take(self) -> tuple[list[tuple], Counter]:
        """Hand over and reset the recorded spans and counters."""
        with self._count_lock:
            spans, counts = self.spans, self.counts
            self.spans, self.counts = [], Counter()
        return spans, counts

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        import importlib
        for name, module_path, owner_name, attr in LAYERS:
            module = importlib.import_module(module_path)
            owner = module if owner_name is None else getattr(module,
                                                              owner_name)
            self._patch(owner, attr, self._span_wrapper(
                name, getattr(owner, attr)))
        self._install_counters()
        self._install_propagation()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return traced

    def _install_counters(self) -> None:
        from repro.durability.wal import WriteAheadLog
        from repro.plancache import PlanCache
        tracer = self

        get = PlanCache.get

        def plan_cache_get(*args, **kwargs):
            entry = tracer.call("plancache.get", get, args, kwargs)
            tracer.bump("plancache.gets")
            if entry is not None:
                tracer.bump("plancache.hits")
            return entry
        self._patch(PlanCache, "get", plan_cache_get)

        append = WriteAheadLog.append

        def wal_append(wal, record):
            before = wal.size
            size = append(wal, record)
            tracer.bump("durability.wal_bytes", size - before)
            return size
        self._patch(WriteAheadLog, "append", wal_append)

        # The WAL and the checkpointer call ``os.fsync``: the lookup goes
        # through the ``os`` module, so that is where it is counted.
        fsync = os.fsync

        def counted_fsync(fd):
            tracer.bump("durability.fsync_calls")
            return fsync(fd)
        self._patch(os, "fsync", counted_fsync)

    def _install_propagation(self) -> None:
        from repro.server.admission import AdmissionController
        from repro.server.client import ServerClient
        from repro.server.wire import QueryServer
        tracer = self

        request = ServerClient.request

        def client_request(client, payload, **kwargs):
            def send():
                # Inside the span: the current frame is the round trip's.
                tagged = dict(payload, _trace=list(tracer.current()))
                return request(client, tagged, **kwargs)
            return tracer.call("server.wire", send, (), {})
        self._patch(ServerClient, "request", client_request)

        dispatch = QueryServer._dispatch

        def server_dispatch(server, session, payload):
            frame = payload.pop("_trace", None)
            return tracer.adopt(frame, dispatch, server, session, payload)
        self._patch(QueryServer, "_dispatch", server_dispatch)

        submit = AdmissionController.submit

        def admission_submit(controller, session_id, fn):
            frame = tracer.current()
            return submit(controller, session_id,
                          lambda: tracer.adopt(frame, fn))
        self._patch(AdmissionController, "submit", admission_submit)


# -- analysis -----------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    bounds = {span[SID]: (span[START], span[END]) for span in spans}
    for span in spans:
        parent = span[PARENT]
        if parent in bounds:
            low, high = bounds[parent]
            start, end = max(span[START], low), min(span[END], high)
            if end > start:
                children[parent].append((start, end))
    return {span[SID]: (span[END] - span[START])
            - _covered(children.get(span[SID], []))
            for span in spans}


def layer_breakdown(spans: list[tuple], roots: set[str]) -> dict:
    """Self time and calls per layer for the requests rooted at spans
    named in ``roots``.

    Root spans are the benchmark's own operations; their summed duration
    is the traced end-to-end time.  ``unattributed`` is that time minus
    every layer's self time, so the layers plus ``unattributed`` add up
    to the end-to-end time by construction.
    """
    rids = {span[RID] for span in spans if span[NAME] in roots}
    mine = [span for span in spans if span[RID] in rids]
    own = self_times(mine)
    layers: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    by_label: dict[tuple[str, str], float] = defaultdict(float)
    end_to_end = 0.0
    for span in mine:
        if span[NAME] in roots:
            end_to_end += span[END] - span[START]
            continue
        layers[span[NAME]] += own[span[SID]]
        calls[span[NAME]] += 1
        by_label[(span[NAME], span[LABEL])] += own[span[SID]]
    return {"end_to_end": end_to_end,
            "layers": dict(layers),
            "calls": dict(calls),
            "by_label": dict(by_label),
            "unattributed": end_to_end - sum(layers.values())}

