"""An O(1)-style priority scheduler (Linux 2.6.0–2.6.22 era).

Two priority arrays (active/expired); the running task's timeslice is
decremented at every tick and the task is moved to the expired array when it
runs out, giving the classic epoch behaviour.  Timeslices follow the
``task_timeslice()`` scaling: nice 0 → 100 ms, nice −20 → 200 ms, nice 19 →
5 ms.  Interactivity bonuses are deliberately omitted (documented
simplification; the metering attacks do not depend on them).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Dict, Optional

from ...config import SchedulerConfig
from ...errors import SimulationError
from .base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..process import Task

MAX_PRIO = 140
MAX_USER_PRIO = 40
MIN_TIMESLICE_NS = 5_000_000


class _PrioArray:
    """One of the two O(1) priority arrays."""

    def __init__(self) -> None:
        self.queues: Dict[int, Deque["Task"]] = {}
        self.count = 0

    def push(self, task: "Task") -> None:
        self.queues.setdefault(task.static_prio, deque()).append(task)
        self.count += 1

    def pop_best(self) -> Optional["Task"]:
        if not self.count:
            return None
        best = min(prio for prio, q in self.queues.items() if q)
        task = self.queues[best].popleft()
        if not self.queues[best]:
            del self.queues[best]
        self.count -= 1
        return task

    def pids(self):
        return [task.pid for q in self.queues.values() for task in q]

    def remove(self, task: "Task") -> bool:
        # Usually the task sits at its current static_prio, but a nice
        # change may have moved the label out from under us — fall back to
        # scanning every queue.
        candidates = [task.static_prio] + [
            p for p in list(self.queues) if p != task.static_prio]
        for prio in candidates:
            q = self.queues.get(prio)
            if q is None:
                continue
            try:
                q.remove(task)
            except ValueError:
                continue
            if not q:
                del self.queues[prio]
            self.count -= 1
            return True
        return False


class O1Scheduler(Scheduler):
    """Active/expired array scheduler."""

    name = "o1"

    def __init__(self, cfg: SchedulerConfig) -> None:
        super().__init__(cfg)
        self._active = _PrioArray()
        self._expired = _PrioArray()
        #: Jiffy length; the factory overrides it from the machine config.
        self._jiffy_ns = 4_000_000

    def timeslice_for(self, task: "Task") -> int:
        """task_timeslice(): scale the base slice by static priority."""
        slice_ns = (self.cfg.base_timeslice_ns
                    * (MAX_PRIO - task.static_prio) // (MAX_USER_PRIO // 2))
        return max(slice_ns, MIN_TIMESLICE_NS)

    # -- queue ---------------------------------------------------------------

    @property
    def nr_runnable(self) -> int:
        return self._active.count + self._expired.count

    def queued_pids(self):
        return self._active.pids() + self._expired.pids()

    def enqueue(self, task: "Task", wakeup: bool = False) -> None:
        if task.timeslice_ns <= 0:
            task.timeslice_ns = self.timeslice_for(task)
        self._active.push(task)

    def dequeue(self, task: "Task") -> None:
        if not self._active.remove(task) and not self._expired.remove(task):
            raise SimulationError(f"task {task.pid} not queued")

    def pick_next(self) -> Optional["Task"]:
        task = self._active.pop_best()
        if task is not None:
            return task
        # Epoch switch: swap arrays.
        if self._expired.count:
            self._active, self._expired = self._expired, self._active
            return self._active.pop_best()
        return None

    def put_prev(self, task: "Task") -> None:
        if task.timeslice_ns <= 0:
            task.timeslice_ns = self.timeslice_for(task)
            self._expired.push(task)
        else:
            self._active.push(task)

    def steal_task(self, allowed=None) -> Optional["Task"]:
        # Pull from the tail end of the priority spectrum: the task with
        # the numerically highest (weakest) static priority, expired array
        # first — it is the last in line here, so the steal disturbs the
        # local epoch the least.  Pid breaks ties for determinism.
        best = None
        for array in (self._expired, self._active):
            for q in array.queues.values():
                for task in q:
                    if allowed is not None and not allowed(task):
                        continue
                    if best is None or (task.static_prio, task.pid) \
                            > (best.static_prio, best.pid):
                        best = task
            if best is not None:
                array.remove(best)
                return best
        return None

    # -- time ----------------------------------------------------------------

    def update_curr(self, task: "Task", delta_ns: int) -> None:
        task.ran_since_pick += max(delta_ns, 0)

    def task_tick(self, task: "Task") -> bool:
        # scheduler_tick(): one whole jiffy off the running task's slice
        # per tick — the historical O(1) behaviour (itself tick-sampled,
        # like the accounting it was built beside).
        task.timeslice_ns -= min(task.timeslice_ns, self._jiffy_ns)
        return task.timeslice_ns <= 0

    def set_jiffy_ns(self, jiffy_ns: int) -> None:
        self._jiffy_ns = jiffy_ns

    def check_preempt_wakeup(self, current: "Task", woken: "Task") -> bool:
        return woken.static_prio < current.static_prio

    # -- lifecycle --------------------------------------------------------------

    def on_fork(self, parent: "Task", child: "Task") -> None:
        # Classic O(1): the child inherits half the parent's remaining slice.
        half = parent.timeslice_ns // 2
        child.timeslice_ns = half
        parent.timeslice_ns -= half

    def on_nice_change(self, task: "Task") -> None:
        # Requeue at the new priority if currently queued.
        if self._active.remove(task):
            self._active.push(task)
        elif self._expired.remove(task):
            self._expired.push(task)
