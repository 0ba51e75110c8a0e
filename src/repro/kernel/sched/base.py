"""Scheduler interface.

The kernel drives schedulers through this narrow API.  Time flows in via
:meth:`update_curr` (called with the exact ns the current task just ran) and
:meth:`task_tick` (the per-jiffy hook).  The distinction matters: the
*accounting* bug the paper attacks lives in the accounting scheme, not here
— schedulers always see exact runtimes, as real CFS does via the rq clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ...config import SchedulerConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..process import Task


class Scheduler:
    """Abstract run-queue scheduler."""

    name = "abstract"

    def __init__(self, cfg: SchedulerConfig) -> None:
        self.cfg = cfg

    # -- queue membership ---------------------------------------------------

    def enqueue(self, task: "Task", wakeup: bool = False) -> None:
        """Add a runnable task.  ``wakeup`` marks a sleep→runnable change."""
        raise NotImplementedError

    def dequeue(self, task: "Task") -> None:
        """Remove a task (it blocked, stopped or exited)."""
        raise NotImplementedError

    def pick_next(self) -> Optional["Task"]:
        """Pop the next task to run, or None if the queue is empty."""
        raise NotImplementedError

    def put_prev(self, task: "Task") -> None:
        """Return the preempted current task to the queue."""
        raise NotImplementedError

    @property
    def nr_runnable(self) -> int:
        raise NotImplementedError

    def queued_pids(self) -> Optional[list]:
        """Every queued task's pid, one entry per queue membership.

        Used by the invariant checker to verify run-queue consistency
        (READY tasks queued exactly once, nobody else queued at all).
        Returning None opts a scheduler out of the check.
        """
        return None

    def steal_task(self, allowed=None) -> Optional["Task"]:
        """Dequeue and return the queued task the load balancer should
        pull from this queue, or None if nothing is stealable.

        ``allowed`` is an optional predicate Task -> bool (affinity
        filter).  Policies pick their least-locally-deserving task so the
        steal costs the source queue as little as possible, and must be
        deterministic.  Returning None opts a scheduler out of balancing.
        """
        return None

    # -- time hooks -----------------------------------------------------------

    def update_curr(self, task: "Task", delta_ns: int) -> None:
        """Charge ``delta_ns`` of actual runtime to the current task."""
        raise NotImplementedError

    def task_tick(self, task: "Task") -> bool:
        """Per-jiffy hook for the running task; True requests a resched."""
        raise NotImplementedError

    def check_preempt_wakeup(self, current: "Task", woken: "Task") -> bool:
        """Should ``woken`` preempt ``current`` right now?"""
        raise NotImplementedError

    # -- lifecycle ------------------------------------------------------------

    def on_fork(self, parent: "Task", child: "Task") -> None:
        """Initialise the child's scheduler fields from the parent."""
        raise NotImplementedError

    def on_nice_change(self, task: "Task") -> None:
        """React to a setpriority() on a task (possibly queued)."""
