"""Periodic usage sampling: billing timelines.

Providers bill from end-of-job totals, but an auditor (or a wary customer
with `/proc` access) can sample usage periodically and study the *rate* at
which a task's billed time grows.  The scheduling attack has a crisp
timeline signature: the victim's billed CPU time grows at ~1 jiffy per
jiffy of wall time even though a competitor is demonstrably consuming the
machine — billed share and achievable share cannot both be right.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.machine import Machine
    from ..kernel.process import Task


@dataclass(frozen=True)
class UsageSample:
    """One point on a task's billing timeline."""

    wall_ns: int
    utime_ns: int
    stime_ns: int
    runnable_tasks: int

    @property
    def total_ns(self) -> int:
        return self.utime_ns + self.stime_ns


@dataclass
class UsageTimeline:
    """Samples for one task, with derived rates."""

    pid: int
    samples: List[UsageSample] = field(default_factory=list)

    def billed_share(self, start_index: int = 0) -> float:
        """Billed CPU ns per wall ns across the sampled window."""
        window = self.samples[start_index:]
        if len(window) < 2:
            return 0.0
        wall = window[-1].wall_ns - window[0].wall_ns
        cpu = window[-1].total_ns - window[0].total_ns
        return cpu / wall if wall > 0 else 0.0

class UsageSampler:
    """Samples one task's billed usage every ``interval_ns`` of sim time."""

    def __init__(self, machine: "Machine", task: "Task",
                 interval_ns: int = 20_000_000) -> None:
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.machine = machine
        self.task = task
        self.interval_ns = interval_ns
        self.timeline = UsageTimeline(pid=task.pid)
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False

    def _schedule_next(self) -> None:
        self.machine.events.schedule(
            self.machine.clock.now + self.interval_ns, self._fire,
            name="usage-sample")

    def _fire(self) -> None:
        if not self._running:
            return
        kernel = self.machine.kernel
        usage = kernel.accounting.usage(self.task)
        self.timeline.samples.append(UsageSample(
            wall_ns=self.machine.clock.now,
            utime_ns=usage.utime_ns,
            stime_ns=usage.stime_ns,
            runnable_tasks=kernel.scheduler.nr_runnable
            + (1 if kernel.current is not None else 0),
        ))
        if self.task.alive:
            self._schedule_next()
        else:
            self._running = False


def audit_share(timeline: UsageTimeline, contended_share: float,
                tolerance: float = 0.10) -> Optional[str]:
    """Flag a timeline whose billed share exceeds what contention allows.

    ``contended_share`` is the fair share the auditor knows the task could
    have had (e.g. 0.5 with one equal-weight competitor demonstrably
    running).  Returns a human-readable finding, or None if clean.
    """
    share = timeline.billed_share()
    if share > contended_share + tolerance:
        return (f"pid {timeline.pid}: billed share {share:.2f} exceeds the "
                f"achievable {contended_share:.2f} under observed load — "
                f"misattributed time")
    return None
