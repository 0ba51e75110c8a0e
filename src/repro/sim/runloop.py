"""The run API of everything that advances simulated time in steps.

A bare :class:`~repro.hw.machine.Machine` and the
:class:`~repro.virt.hypervisor.Hypervisor` each supply ``step()`` (one loop
iteration; False when nothing can ever progress again) and ``_idle_to``
(advance the idle clock to a target time, with its idle bookkeeping).
``run_for``, ``run_until`` and ``run_until_exit`` are written once, here.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ..errors import DeadlockError, SimulationError
from ..kernel.process import Task, TaskState
from .clock import Clock


class RunLoop:
    """The run API over a subclass's ``step`` and ``_idle_to``."""

    clock: Clock

    def step(self) -> bool:
        raise NotImplementedError

    def _idle_to(self, target_ns: int) -> None:
        """Nothing runs until ``target_ns``: move the clock there."""
        raise NotImplementedError

    def _run_ended(self) -> None:
        """Called as every ``run_for`` and ``run_until`` returns."""

    def run_for(self, duration_ns: int) -> None:
        """Advance virtual time by ``duration_ns``."""
        clock = self.clock
        deadline = clock._now + duration_ns
        while clock._now < deadline:
            if not self.step():
                self._idle_to(deadline)
                break
        self._run_ended()

    def run_until(self, predicate: Callable[[], bool],
                  max_ns: Optional[int] = None) -> None:
        """Run until ``predicate()`` holds.  Raises on deadline/deadlock."""
        clock = self.clock
        deadline = (clock._now + max_ns) if max_ns is not None else None
        while not predicate():
            if deadline is not None and clock._now >= deadline:
                raise SimulationError(
                    f"run_until deadline exceeded at {clock._now}ns")
            if not self.step():
                raise DeadlockError(
                    "nothing can progress but the predicate is unsatisfied")
        self._run_ended()

    def run_until_exit(self, tasks: Sequence[Task],
                       max_ns: Optional[int] = None) -> None:
        """Run until every task in ``tasks`` has exited (under a
        hypervisor, the tasks may live in different guests)."""
        targets = list(tasks)
        zombie = TaskState.ZOMBIE
        dead = TaskState.DEAD

        def done() -> bool:
            # Checked before every step: a plain loop, not all(genexpr).
            for t in targets:
                state = t.state
                if state is not zombie and state is not dead:
                    return False
            return True

        self.run_until(done, max_ns=max_ns)
