"""Progress and telemetry hooks for sweep runs.

The runner emits one :class:`ProgressEvent` per state change of a point
(started, completed, cached, retried, failed).  :class:`SweepTelemetry` is
the always-on collector — it keeps the completed/cached/failed counts and
per-point wall times the acceptance criteria report on — and
:class:`ConsoleProgress` is the optional human-readable printer behind the
CLI's ``--jobs`` output.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, TextIO

#: Event kinds, in lifecycle order.
STARTED = "started"
COMPLETED = "completed"
CACHED = "cached"
RETRIED = "retried"
FAILED = "failed"


@dataclass(frozen=True)
class ProgressEvent:
    """One state change of one sweep point."""

    kind: str
    index: int
    total: int
    label: str
    #: Wall seconds of the live run (0.0 for started/cached events).
    wall_s: float = 0.0
    #: 1-based attempt number for retried/failed events.
    attempt: int = 0
    error: Optional[str] = None


#: A progress hook is any callable taking one event.
ProgressHook = Callable[[ProgressEvent], None]


class SweepTelemetry:
    """Counters + per-point wall times for every point a runner sees."""

    def __init__(self) -> None:
        self.total = 0
        self.completed = 0
        self.cached = 0
        self.failed = 0
        self.retries = 0
        self.live_wall_s = 0.0
        #: label → wall seconds of its (final) live execution.
        self.point_wall_s: Dict[str, float] = {}
        self.events: List[ProgressEvent] = []

    @property
    def live_runs(self) -> int:
        """Points that actually executed (as opposed to cache hits)."""
        return self.completed + self.failed

    def __call__(self, event: ProgressEvent) -> None:
        self.events.append(event)
        if event.kind == CACHED or (event.kind == STARTED
                                    and event.attempt == 1):
            self.total += 1  # a point's first event
        if event.kind == COMPLETED:
            self.completed += 1
            self.live_wall_s += event.wall_s
            self.point_wall_s[event.label] = event.wall_s
        elif event.kind == CACHED:
            self.cached += 1
        elif event.kind == RETRIED:
            self.retries += 1
        elif event.kind == FAILED:
            self.failed += 1
            self.live_wall_s += event.wall_s
            self.point_wall_s[event.label] = event.wall_s

    def summary(self) -> str:
        parts = [f"{self.completed} run", f"{self.cached} cached",
                 f"{self.failed} failed"]
        if self.retries:
            parts.append(f"{self.retries} retried")
        return (f"sweep: {self.total} points ({', '.join(parts)}) "
                f"in {self.live_wall_s:.2f}s live work")


class ConsoleProgress:
    """Print one line per finished point, plus retries and failures."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self.stream = stream if stream is not None else sys.stderr

    def __call__(self, event: ProgressEvent) -> None:
        if event.kind == STARTED:
            return
        position = f"[{event.index + 1}/{event.total}]"
        if event.kind == CACHED:
            line = f"{position} {event.label}: cached"
        elif event.kind == COMPLETED:
            line = f"{position} {event.label}: done in {event.wall_s:.2f}s"
        elif event.kind == RETRIED:
            line = (f"{position} {event.label}: attempt {event.attempt} "
                    f"failed ({event.error}); retrying")
        else:
            line = f"{position} {event.label}: FAILED ({event.error})"
        print(line, file=self.stream)
        self.stream.flush()


def fanout(*hooks: Optional[ProgressHook]) -> ProgressHook:
    """Combine hooks (Nones are skipped) into a single callable."""
    live = [h for h in hooks if h is not None]

    def emit(event: ProgressEvent) -> None:
        for hook in live:
            hook(event)

    return emit
