"""Span recorder and layer wrappers for the traced benchmark run.

A span is one call into a layer's entry point: name, start, end, parent
span and trace id.  The recorder keeps a per-thread stack of open spans;
when a span closes, its duration is added to its parent's child time, so
a layer's *self time* is its span duration minus the part its child spans
cover.  Per-layer totals (calls, total and self nanoseconds) are exact for
every call.  The first :data:`RETAIN` span records are kept in memory and
written out when the run ends; the rest are counted as dropped.

The wrappers are installed from this file onto public entry points of
``src/repro`` at run time (:func:`install_layer_wrappers`).  They only
time calls and never touch arguments or results, so a traced run produces
the same result documents as an untraced one.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (span id, parent id or None, trace id, name, start ns, end ns)
Span = Tuple[int, Optional[int], str, str, int, int]

#: Span records a recorder keeps in memory; later ones are only counted.
RETAIN = 50_000


class _ThreadState:
    __slots__ = ("stack", "stats", "root_calls", "durations", "trace_child",
                 "spans")

    def __init__(self) -> None:
        #: open spans: [name, start_ns, child_ns, span_id, trace_id]
        self.stack: List[list] = []
        #: name -> [calls, total_ns, self_ns]
        self.stats: Dict[str, List[int]] = {}
        #: (root span name, span name) -> calls
        self.root_calls: Dict[Tuple[str, str], int] = {}
        #: name -> [(trace id, duration ns)], for the recorder's
        #: ``keep_durations`` names only
        self.durations: Dict[str, List[Tuple[str, int]]] = {}
        #: trace id -> ns spent in direct children of the trace's root
        self.trace_child: Dict[str, int] = {}
        self.spans: List[Span] = []


class SpanRecorder:
    """Collects spans from every thread of one process."""

    def __init__(self, keep_durations: Iterable[str] = ()) -> None:
        self.keep_durations = frozenset(keep_durations)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        #: ``next`` on an ``itertools.count`` is atomic, so threads share
        #: span ids and the retention budget without a lock.
        self._ids = itertools.count()
        self._tickets = itertools.count()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState()
                self._threads.append(state)
            self._local.state = state
            return state

    def wrap(self, name: str, fn: Callable,
             trace_of: Optional[Callable[..., str]] = None) -> Callable:
        """Return ``fn`` timed as span ``name``.

        ``trace_of(*args, **kwargs)`` names a new trace for the span's
        subtree; otherwise the span joins its parent's trace.  A call that
        re-enters a span of the same name (a subclass calling its base, a
        scheme delegating to an inner scheme) is folded into the outer
        span, so each logical call counts once.
        """
        state_of = self._state
        ids = self._ids
        retain = RETAIN
        tickets = self._tickets
        keep = name in self.keep_durations
        perf = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = state_of()
            stack = state.stack
            if stack:
                parent = stack[-1]
                if parent[0] == name:
                    return fn(*args, **kwargs)
                parent_id = parent[3]
                trace_id = parent[4]
                root = stack[0][0]
            else:
                parent = parent_id = None
                trace_id = root = name
            if trace_of is not None:
                trace_id = trace_of(*args, **kwargs)
            span_id = next(ids)
            frame = [name, perf(), 0, span_id, trace_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - frame[1]
                entry = state.stats.get(name)
                if entry is None:
                    entry = state.stats[name] = [0, 0, 0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                key = (root, name)
                state.root_calls[key] = state.root_calls.get(key, 0) + 1
                if parent is not None:
                    parent[2] += duration
                    if len(stack) == 1:
                        state.trace_child[trace_id] = (
                            state.trace_child.get(trace_id, 0) + duration)
                if keep:
                    state.durations.setdefault(name, []).append(
                        (trace_id, duration))
                if next(tickets) < retain:
                    state.spans.append((span_id, parent_id, trace_id, name,
                                        frame[1], end))

        return wrapper

    # -- merged views ------------------------------------------------------

    def _states(self) -> List[_ThreadState]:
        with self._lock:
            return list(self._threads)

    def stats(self) -> Dict[str, Dict[str, int]]:
        merged: Dict[str, Dict[str, int]] = {}
        for state in self._states():
            for name, (calls, total, self_ns) in state.stats.items():
                doc = merged.setdefault(
                    name, {"calls": 0, "total_ns": 0, "self_ns": 0})
                doc["calls"] += calls
                doc["total_ns"] += total
                doc["self_ns"] += self_ns
        return merged

    def root_calls(self) -> Dict[Tuple[str, str], int]:
        merged: Dict[Tuple[str, str], int] = {}
        for state in self._states():
            for key, calls in state.root_calls.items():
                merged[key] = merged.get(key, 0) + calls
        return merged

    def durations(self, name: str) -> List[Tuple[str, int]]:
        out: List[Tuple[str, int]] = []
        for state in self._states():
            out.extend(state.durations.get(name, ()))
        return out

    def trace_child_ns(self) -> Dict[str, int]:
        merged: Dict[str, int] = {}
        for state in self._states():
            for trace_id, ns in state.trace_child.items():
                merged[trace_id] = merged.get(trace_id, 0) + ns
        return merged

    def spans(self) -> List[Span]:
        out: List[Span] = []
        for state in self._states():
            out.extend(state.spans)
        return out

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, as plain JSON."""
        spans = self.spans()
        closed = sum(doc["calls"] for doc in self.stats().values())
        return {
            "stats": self.stats(),
            "root_calls": [[root, name, calls] for (root, name), calls
                           in sorted(self.root_calls().items())],
            "durations": {name: self.durations(name)
                          for name in sorted(self.keep_durations)},
            "trace_child_ns": self.trace_child_ns(),
            "spans": [list(span) for span in spans],
            "spans_dropped": closed - len(spans),
        }


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.  Overlapping children count
    once, and child time outside the parent's interval counts for
    nothing."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _span_id, parent_id, _trace, _name, start, end in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    out: Dict[int, int] = {}
    for span_id, _parent, _trace, _name, start, end in spans:
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[span_id] = (end - start) - covered
    return out


# ---------------------------------------------------------------------------
# layer wrappers
# ---------------------------------------------------------------------------

def _spec_trace(spec: Any, *args: Any, **kwargs: Any) -> str:
    from repro.runner.specs import spec_key

    return spec_key(spec)[:16]


def _request_trace(handler: Any, *args: Any, **kwargs: Any) -> str:
    return handler.headers.get("X-Request-Id") or "request"


def layer_targets() -> List[Tuple[Any, str, str, Optional[Callable]]]:
    """``(owner, attribute, span name, trace_of)`` for every wrapped entry
    point.  A module-level function is wrapped in every module that binds
    it by name, since callers look it up in their own module globals."""
    import repro.analysis.figures as figures
    import repro.fleet.runner as fleet_runner
    import repro.runner.pool as pool
    import repro.runner.specs as specs
    import repro.serve.service as service
    from repro.fleet.aggregate import FleetAggregator
    from repro.hw.machine import Machine
    from repro.kernel.accounting import (
        DualAccounting,
        TickAccounting,
        TscAccounting,
    )
    from repro.kernel.engine import ExecutionEngine
    from repro.kernel.kernel import Kernel
    from repro.kernel.mm.manager import MemoryManager
    from repro.kernel.sched import (
        CfsScheduler,
        O1Scheduler,
        RoundRobinScheduler,
    )
    from repro.kernel.timekeeping import ClocksourceWatchdog
    from repro.serve.api import _Handler
    from repro.serve.store import UsageStore
    from repro.sim.events import EventQueue
    from repro.timesync.host import MachineTimeSync
    from repro.timesync.netplane import OffsetEstimator, SyncNetwork
    from repro.virt.hypervisor import Hypervisor

    targets: List[Tuple[Any, str, str, Optional[Callable]]] = [
        (specs, "run_spec", "runner.run_spec", _spec_trace),
        (figures, "run_spec", "runner.run_spec", _spec_trace),
        (pool, "run_spec", "runner.run_spec", _spec_trace),
        (Machine, "__init__", "machine.init", None),
        (ExecutionEngine, "run", "engine.run", None),
        (Kernel, "schedule", "kernel.schedule", None),
        (CfsScheduler, "pick_next", "sched.pick_next", None),
        (O1Scheduler, "pick_next", "sched.pick_next", None),
        (RoundRobinScheduler, "pick_next", "sched.pick_next", None),
        (MemoryManager, "classify", "mm.classify", None),
        (TickAccounting, "on_tick", "acct.on_tick", None),
        (TscAccounting, "on_tick", "acct.on_tick", None),
        (DualAccounting, "on_tick", "acct.on_tick", None),
        (EventQueue, "run_due", "events.run_due", None),
        (Hypervisor, "step", "virt.step", None),
        (MachineTimeSync, "__init__", "timesync.run", None),
        (MachineTimeSync, "finalize", "timesync.run", None),
        (SyncNetwork, "exchange", "timesync.run", None),
        (OffsetEstimator, "observe_round", "timesync.run", None),
        (ClocksourceWatchdog, "on_tick", "watchdog.check", None),
        (ClocksourceWatchdog, "finalize", "watchdog.check", None),
        (fleet_runner, "distinct_units", "fleet.expand", None),
        (FleetAggregator, "add", "fleet.aggregate", None),
        (FleetAggregator, "report", "fleet.aggregate", None),
        (_Handler, "do_GET", "api.get", _request_trace),
        (_Handler, "do_POST", "api.post", _request_trace),
        (service.MeteringService, "submit", "service.submit", None),
        (service.MeteringService, "usage_doc", "service.usage_doc", None),
        (service.MeteringService, "invoice_doc", "service.invoice_doc",
         None),
        (service, "invoice_doc_for", "metering.invoice", None),
    ]
    for method in ("job", "jobs_for_tenant", "create_job",
                   "find_result_by_spec", "bill_job"):
        targets.append((UsageStore, method, f"store.{method}", None))
    return targets


def install_layer_wrappers(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every layer entry point in ``recorder``; returns a function
    that puts the originals back."""
    installed: List[Tuple[Any, str, Any]] = []
    for owner, attr, name, trace_of in layer_targets():
        original = owner.__dict__[attr]
        setattr(owner, attr, recorder.wrap(name, original, trace_of))
        installed.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)

    return uninstall
