"""Spans recorded around calls into each layer's public functions.

The traced run wraps, from the benchmark's side only:

* every local bolt's ``execute_batch``/``tick``/``flush`` (the Tracker's
  ``ingest`` and ``snapshot`` instead, so the end-of-run drain counts too,
  and the centralized baseline's ``ground_truth``),
* the process executor's ``deliver_remote``/``tick_remote``/``flush_remote``,
* the spilling stores' ``spill``/``prepare_report``/``ingest``/``compact``,
* ``ServiceDaemon.handle_request`` (named by request op).

A span is ``(name, kind, start, end, parent, thread)``; ``parent`` is the
index of the span open on the same thread when it started (``-1`` at
top level).  Kinds: ``phase`` (``cluster.run``, ``pipeline.collect``),
``op`` (operator calls), ``exec`` (executor calls), ``store`` and
``service``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import json
import threading
import time
from pathlib import Path

from repro.operators import streams
from repro.store import SpillingCounterStore, SpillingTrackerStore
from repro.streamsim import ShardedProcessExecutor

_MISSING = object()

#: Kinds that must never nest inside each other on one thread: every
#: operator call returns before the cluster routes what it emitted.
_FLAT_KINDS = ("op", "exec")


class SpanNestingError(AssertionError):
    """An operator or executor span started inside another one."""


class Recorder:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: collections.Counter = collections.Counter()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, kind: str):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(index)
        start = time.perf_counter()
        try:
            yield index
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, kind, start, end, parent, threading.get_ident())

    def wrap(self, owner: object, attr: str, name, kind: str,
             count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper (undone by
        :meth:`restore`).  ``name`` may be a callable of the call's
        arguments; ``count`` adds its result to ``counts[name]``."""
        saved = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            if count is not None:
                recorder.counts[label] += count(*args, **kwargs)
            with recorder.span(label, kind):
                return original(*args, **kwargs)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, saved))

    def restore(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches = []

    # ------------------------------------------------------------------ #
    # Instrumentation of the system's layers
    # ------------------------------------------------------------------ #
    def instrument_cluster(self, cluster) -> None:
        """Wrap every local bolt and the process executor's remote hooks."""
        for component in cluster.topology.components:
            for task in cluster.tasks_of(component):
                if not task.is_bolt or task.is_remote:
                    continue
                bolt = task.instance
                if component == streams.TRACKER:
                    self.wrap(bolt, "ingest", "tracker.ingest", "op")
                    self.wrap(bolt, "snapshot", "tracker.snapshot", "op")
                    continue
                for method in ("execute_batch", "tick", "flush"):
                    self.wrap(bolt, method, f"{component}.{method}", "op")
                if component == streams.CENTRALIZED:
                    self.wrap(bolt, "ground_truth", "centralized.ground_truth", "op")
        executor = cluster.executor
        if isinstance(executor, ShardedProcessExecutor):
            self.wrap(executor, "deliver_remote", "executor.deliver_remote", "exec",
                      count=lambda task, messages: len(messages))
            self.wrap(executor, "tick_remote", "executor.tick_remote", "exec")
            self.wrap(executor, "flush_remote", "executor.flush_remote", "exec")

    def instrument_stores(self) -> None:
        """Wrap the spilling stores' public methods (class level)."""
        self.wrap(SpillingCounterStore, "spill", "store.counter_spill", "store")
        self.wrap(SpillingCounterStore, "prepare_report", "store.counter_report", "store")
        self.wrap(SpillingTrackerStore, "ingest", "store.tracker_ingest", "store")
        self.wrap(SpillingTrackerStore, "spill", "store.tracker_spill", "store")
        self.wrap(SpillingTrackerStore, "compact", "store.tracker_compact", "store")

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #
    def check_flat(self) -> None:
        """Raise :class:`SpanNestingError` if an operator/executor span
        opened inside another operator/executor span."""
        spans = self.spans
        for span in spans:
            if span is None or span[1] not in _FLAT_KINDS or span[4] < 0:
                continue
            parent = spans[span[4]]
            if parent is not None and parent[1] in _FLAT_KINDS:
                raise SpanNestingError(f"{span[0]} nested inside {parent[0]}")


def write_spans(spans: list, path: Path) -> None:
    """Write finished spans as JSON lines (one list per span)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            if span is not None:
                handle.write(json.dumps(list(span)) + "\n")


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive ``total``, ``self`` time and ``max``.

    Self time is the span's duration minus its direct children's.
    """
    child_time = collections.defaultdict(float)
    for span in spans:
        if span is not None and span[4] >= 0:
            child_time[span[4]] += span[3] - span[2]
    table: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        if span is None:
            continue
        duration = span[3] - span[2]
        row = table.setdefault(span[0], {"calls": 0, "total": 0.0, "self": 0.0, "max": 0.0})
        row["calls"] += 1
        row["total"] += duration
        row["self"] += duration - child_time[index]
        row["max"] = max(row["max"], duration)
    return table


def children_seconds(spans: list[tuple], parent: int) -> list[float]:
    """Durations of the direct children of span ``parent``."""
    return [s[3] - s[2] for s in spans if s is not None and s[4] == parent]
