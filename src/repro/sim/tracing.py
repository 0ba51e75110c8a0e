"""Structured trace log for the simulator.

The kernel and hardware emit :class:`TraceRecord` entries for interesting
events (context switches, ticks, faults, signals...).  Tracing is off by
default because experiments generate millions of events; tests and the
examples enable it with category filters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

#: Category used by the invariant checker for violation reports.  Records
#: in this category are always stored, even when the category was not
#: enabled: a broken conservation law must never be silently dropped.
INVARIANT_CATEGORY = "invariant"

#: Category used by the hardware fault injectors (lost/delayed ticks, TSC
#: distortion, spurious IRQs) and the clocksource watchdog.  Distinct from
#: the pre-existing ``"fault"`` category (page faults), so hardware-fault
#: events keep their own bucket in counters and in the capacity-``dropped``
#: per-category breakdown instead of folding into the memory one.
HW_FAULT_CATEGORY = "hw-fault"

#: Categories stored regardless of the enabled set.
ALWAYS_STORED_CATEGORIES = frozenset({INVARIANT_CATEGORY})


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry."""

    time_ns: int
    category: str
    message: str
    pid: Optional[int] = None
    data: Tuple[Tuple[str, object], ...] = ()

    def get(self, key: str, default=None):
        for k, v in self.data:
            if k == key:
                return v
        return default

    def __str__(self) -> str:
        pid = f" pid={self.pid}" if self.pid is not None else ""
        extras = "".join(f" {k}={v}" for k, v in self.data)
        return f"[{self.time_ns:>12}ns] {self.category}:{pid} {self.message}{extras}"


class TraceLog:
    """Collects trace records, with per-category enablement and counters.

    Counters are always maintained (they are cheap and several invariants in
    the test suite rely on them); record bodies are only stored for enabled
    categories.
    """

    def __init__(self, enabled: Iterable[str] = (), capacity: int = 1_000_000) -> None:
        self._enabled: Set[str] = set(enabled)
        self._records: List[TraceRecord] = []
        self._counters: Dict[str, int] = {}
        self._dropped_by_category: Dict[str, int] = {}
        self._capacity = capacity
        self.dropped = 0
        self._recompute_stored()

    def _recompute_stored(self) -> None:
        """Precompute the store decision so the (dominant) disabled-category
        emit path is one counter bump and one set-membership test."""
        self._store_all = "*" in self._enabled
        self._stored = self._enabled | ALWAYS_STORED_CATEGORIES

    def enable(self, *categories: str) -> None:
        self._enabled.update(categories)
        self._recompute_stored()

    def disable(self, *categories: str) -> None:
        self._enabled.difference_update(categories)
        self._recompute_stored()

    def enabled(self, category: str) -> bool:
        return category in self._enabled or "*" in self._enabled

    def emit(self, time_ns: int, category: str, message,
             pid: Optional[int] = None, *args, **data) -> None:
        """Count one record of ``category``; store it if the category is
        stored and the log has room.

        ``message`` is the record's text, or a function that formats it:
        that is called with ``args`` only for a record that is stored, so
        a hot call site passes a module-level function and its arguments,
        and neither builds a closure nor formats anything while its
        category is off.  Whether a record is stored is decided here and
        nowhere else."""
        counters = self._counters
        counters[category] = counters.get(category, 0) + 1
        if not self._store_all and category not in self._stored:
            return
        if len(self._records) >= self._capacity:
            # Count every record that could not be stored, per attempt, so
            # capacity exhaustion stays visible in sweep telemetry.
            self.dropped += 1
            self._dropped_by_category[category] = \
                self._dropped_by_category.get(category, 0) + 1
            return
        if callable(message):
            message = message(*args)
        self._records.append(TraceRecord(
            time_ns=time_ns, category=category, message=message, pid=pid,
            data=tuple(sorted(data.items()))))

    def count(self, category: str) -> int:
        return self._counters.get(category, 0)

    @property
    def counters(self) -> Dict[str, int]:
        """All per-category counters, plus the reserved ``dropped`` key (the
        number of enabled records lost to capacity — always present)."""
        out = dict(self._counters)
        out["dropped"] = self.dropped
        return out

    def dropped_by_category(self) -> Dict[str, int]:
        """Per-category breakdown of records lost to capacity."""
        return dict(self._dropped_by_category)

    def records(self, category: Optional[str] = None,
                pid: Optional[int] = None) -> List[TraceRecord]:
        out = self._records
        if category is not None:
            out = [r for r in out if r.category == category]
        if pid is not None:
            out = [r for r in out if r.pid == pid]
        return list(out)

    def clear(self) -> None:
        self._records.clear()
        self._counters.clear()
        self._dropped_by_category.clear()
        self.dropped = 0
