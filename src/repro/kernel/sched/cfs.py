"""The Completely Fair Scheduler, as shipped in the paper's 2.6.29 kernel.

Faithful to the mechanisms the scheduling attack interacts with:

* weights from the Linux ``prio_to_weight`` table (nice −20..19);
* ``vruntime`` advanced by ``delta * NICE_0_WEIGHT / weight``;
* ``place_entity`` sleeper fairness: a waking task's vruntime is pulled up
  to ``min_vruntime − sched_latency/2`` but never pushed back;
* tick preemption in ``check_preempt_tick`` style — a compute-bound task is
  only preempted *at a timer tick*, while blockers yield mid-jiffy.  That
  asymmetry (involuntary switches at ticks, voluntary switches between
  them) is precisely why the Fork attack's cycles hide from tick sampling.

The red-black tree is replaced by a binary heap with lazy deletion, which
preserves pick-min semantics and determinism.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ...config import SchedulerConfig
from ...errors import SimulationError
from .base import Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..process import Task

#: Linux kernel prio_to_weight[]: weight for nice -20..19.
NICE_TO_WEIGHT: Dict[int, int] = {
    -20: 88761, -19: 71755, -18: 56483, -17: 46273, -16: 36291,
    -15: 29154, -14: 23254, -13: 18705, -12: 14949, -11: 11916,
    -10: 9548, -9: 7620, -8: 6100, -7: 4904, -6: 3906,
    -5: 3121, -4: 2501, -3: 1991, -2: 1586, -1: 1277,
    0: 1024, 1: 820, 2: 655, 3: 526, 4: 423,
    5: 335, 6: 272, 7: 215, 8: 172, 9: 137,
    10: 110, 11: 87, 12: 70, 13: 56, 14: 45,
    15: 36, 16: 29, 17: 23, 18: 18, 19: 15,
}

NICE_0_WEIGHT = 1024


class CfsScheduler(Scheduler):
    """Single-runqueue CFS.

    Weights are read straight from :data:`NICE_TO_WEIGHT`: the kernel
    rejects a nice value outside the table when it creates a task, and
    setpriority() validates its argument.
    """

    name = "cfs"

    def __init__(self, cfg: SchedulerConfig) -> None:
        super().__init__(cfg)
        #: (vruntime, seq, task) heap with lazy deletion.
        self._heap: List[Tuple[int, int, "Task"]] = []
        #: Tasks currently queued (for lazy-deletion validation).
        self._queued: Dict[int, "Task"] = {}
        self.min_vruntime = 0
        self._total_weight = 0
        #: Last enqueue sequence number (FIFO tie-break among equal
        #: vruntimes).
        self._seq = 0

    # -- queue ---------------------------------------------------------------

    @property
    def nr_runnable(self) -> int:
        return len(self._queued)

    def queued_pids(self):
        # The _queued dict is authoritative; the heap may hold stale entries.
        return list(self._queued)

    def enqueue(self, task: "Task", wakeup: bool = False) -> None:
        queued = self._queued
        if task.pid in queued:
            raise SimulationError(f"task {task.pid} enqueued twice")
        if wakeup:
            # place_entity() sleeper fairness: pull the waker up to
            # min_vruntime - thresh (GENTLE_FAIR_SLEEPERS halves the
            # latency), never push it back.
            floor = self.min_vruntime - self.cfg.sched_latency_ns // 2
            if task.vruntime < floor:
                task.vruntime = floor
        queued[task.pid] = task
        self._total_weight += NICE_TO_WEIGHT[task.nice]
        self._seq = seq = self._seq + 1
        task.enqueue_seq = seq
        heapq.heappush(self._heap, (task.vruntime, seq, task))

    def dequeue(self, task: "Task") -> None:
        if task.pid not in self._queued:
            raise SimulationError(f"task {task.pid} not queued")
        del self._queued[task.pid]
        self._total_weight -= NICE_TO_WEIGHT[task.nice]
        # Heap entry removed lazily by pick_next.

    def pick_next(self) -> Optional["Task"]:
        heap = self._heap
        queued = self._queued
        while heap:
            vruntime, seq, task = heapq.heappop(heap)
            if task.pid not in queued or seq != task.enqueue_seq \
                    or vruntime != task.vruntime:
                continue  # stale entry
            del queued[task.pid]
            self._total_weight -= NICE_TO_WEIGHT[task.nice]
            # update_min_vruntime() with the picked task as curr: the next
            # valid entry is never to its left, so min(curr, leftmost) is
            # the picked task's own vruntime.
            if vruntime > self.min_vruntime:
                self.min_vruntime = vruntime
            return task
        return None

    def put_prev(self, task: "Task") -> None:
        self.enqueue(task, wakeup=False)

    def peek_min(self) -> Optional["Task"]:
        heap = self._heap
        queued = self._queued
        while heap:
            vruntime, seq, task = heap[0]
            if task.pid not in queued or seq != task.enqueue_seq \
                    or vruntime != task.vruntime:
                heapq.heappop(heap)
                continue
            return task
        return None

    def steal_task(self, allowed=None) -> Optional["Task"]:
        # Pull the entity with the *largest* vruntime: it would have waited
        # the longest here anyway, so moving it costs local fairness the
        # least (the flip side of pick-min).  Pid breaks ties for
        # determinism.
        best = None
        for task in self._queued.values():
            if allowed is not None and not allowed(task):
                continue
            if best is None or (task.vruntime, task.pid) > (best.vruntime,
                                                            best.pid):
                best = task
        if best is not None:
            self.dequeue(best)
        return best

    # -- time ----------------------------------------------------------------

    def update_curr(self, task: "Task", delta_ns: int) -> None:
        """Advance ``task``'s vruntime by ``delta_ns`` of weighted runtime,
        then 2.6.29 update_min_vruntime(): advance min_vruntime to
        min(curr, leftmost).

        Taking the *minimum* of the running entity and the queue head is
        load-bearing for the scheduling attack: while the fork chain runs,
        min_vruntime creeps forward only by the chain's (weight-scaled)
        debit per fork instead of leaping to the preempted victim's
        vruntime, so the tick-quantized overshoot the victim accumulated
        becomes headroom the chain spends in sub-jiffy bursts.
        """
        if delta_ns <= 0:
            return
        vruntime = (task.vruntime
                    + delta_ns * NICE_0_WEIGHT // NICE_TO_WEIGHT[task.nice])
        task.vruntime = vruntime
        task.ran_since_pick += delta_ns
        leftmost = self.peek_min()
        if leftmost is not None and leftmost.vruntime < vruntime:
            vruntime = leftmost.vruntime
        if vruntime > self.min_vruntime:
            self.min_vruntime = vruntime

    def _sched_slice(self, task: "Task") -> int:
        """Ideal slice for ``task``: its weighted share of the latency."""
        weight = NICE_TO_WEIGHT[task.nice]
        total = self._total_weight + weight
        nr = len(self._queued) + 1
        period = self.cfg.sched_latency_ns
        min_gran = self.cfg.min_granularity_ns
        if nr * min_gran > period:
            period = nr * min_gran
        # No per-task floor: 2.6.29 sched_slice() relies on period
        # stretching alone; a light task next to a heavy one gets a slice
        # well under min_granularity (and is preempted at the next tick).
        return period * weight // max(total, 1)

    def task_tick(self, task: "Task") -> bool:
        """check_preempt_tick: preempt when the slice is used up."""
        ideal = self._sched_slice(task)
        if task.ran_since_pick > ideal:
            return True
        if task.ran_since_pick < self.cfg.min_granularity_ns:
            return False
        leftmost = self.peek_min()
        if leftmost is None:
            return False
        vdiff = task.vruntime - leftmost.vruntime
        return vdiff > ideal

    def check_preempt_wakeup(self, current: "Task", woken: "Task") -> bool:
        vdiff = current.vruntime - woken.vruntime
        return vdiff > self.cfg.wakeup_granularity_ns

    # -- lifecycle -------------------------------------------------------------

    def on_fork(self, parent: "Task", child: "Task") -> None:
        # task_new_fair() as shipped in 2.6.29:
        #   * place_entity(initial=1) with START_DEBIT: the new entity is
        #     placed one vslice to the right of min_vruntime, so a fork
        #     loop cannot monopolise the CPU;
        #   * sysctl_sched_child_runs_first (default 1): if the placement
        #     put the child behind the parent, their vruntimes are swapped
        #     — the *parent* carries the debit.
        # The combination paces the scheduling attack's fork chain into
        # short bursts that trigger right after a timer tick (when the
        # victim is preempted), which is exactly how the attacker's cycles
        # hide from tick sampling; and the debit shrinks with the
        # attacker's weight, which is why the attack strengthens as Fork's
        # nice value drops (paper Fig. 7).
        # sched_vslice(): the child's ideal slice in vruntime units.
        vslice = (self._sched_slice(child) * NICE_0_WEIGHT
                  // NICE_TO_WEIGHT[child.nice])
        placed = max(parent.vruntime, self.min_vruntime) + vslice
        if placed > parent.vruntime:
            # child_runs_first: child inherits the parent's vruntime, the
            # parent takes the debited placement.
            child.vruntime = parent.vruntime
            parent.vruntime = placed
        else:
            child.vruntime = placed

    def on_nice_change(self, task: "Task") -> None:
        # Weight changes take effect on the next update_curr/enqueue; if the
        # task is queued we must fix the aggregate weight bookkeeping.
        if task.pid in self._queued:
            # Recompute total weight from scratch (rare operation).
            self._total_weight = sum(NICE_TO_WEIGHT[t.nice]
                                     for t in self._queued.values())
