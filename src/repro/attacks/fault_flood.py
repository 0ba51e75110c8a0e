"""The exception-flooding attack (paper §IV-B4, Fig. 11).

A memory hog "requests more than [the machine's RAM] ... continuously
writes data and reads them later", keeping physical memory exhausted.  The
victim keeps its pages: in fig11 none of the paper programs takes a major
fault.  It pays for the thrash around it instead.  The stream of swap-I/O
completion interrupts lands on it while the hog sleeps on I/O, and a tick
inside such a handler window samples it in kernel mode.  The hog's I/O
wake-ups preempt it far more often, adding switch and timer work.  Its own
first-touch faults enter direct reclaim (LRU scanning billed as its stime).

The paper also notes the natural cap: push too far and the OOM killer
terminates a process — which the simulated kernel will also do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..kernel.signals import SIGKILL
from ..programs.attackers import make_memhog
from .base import Attack, AttackTraits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.machine import Machine
    from ..kernel.process import Task
    from ..kernel.shell import Shell


class ExceptionFloodAttack(Attack):
    """Launch a memory hog sized above physical RAM."""

    traits = AttackTraits(
        name="fault-flood",
        paper_section="IV-B4",
        inflates="stime",
        vulnerability="fault handling and reclaim billed to the faulter; "
                      "I/O completions billed to the interrupted process",
        strength="bounded",
        side_effects="system-wide thrashing; capped by the OOM killer",
        requires_root=False,
    )

    def __init__(self, hog_pages: Optional[int] = None,
                 passes: int = 100_000,
                 pressure_target: float = 0.98,
                 warmup_max_ns: int = 20_000_000_000) -> None:
        super().__init__()
        self.hog_pages = hog_pages
        self.passes = passes
        self.pressure_target = pressure_target
        self.warmup_max_ns = warmup_max_ns
        self.hog_task: Optional["Task"] = None
        self._shell: Optional["Shell"] = None

    def install(self, machine: "Machine", shell: "Shell") -> None:
        self._shell = shell

    def pre_launch(self, machine: "Machine", shell: "Shell") -> None:
        """Start the hog and let it exhaust RAM before the victim runs, so
        the victim's whole lifetime sits under memory pressure."""
        pages = self.hog_pages
        if pages is None:
            # "more than 2 gigabytes ... beyond the capacity of the
            # physical memory": size the hog ~20% above RAM.
            pages = int(machine.cfg.memory.total_frames * 1.2)
        self.hog_task = self._shell.run_command(
            make_memhog(pages=pages, passes=self.passes))
        self.attacker_tasks.append(self.hog_task)
        mm = machine.kernel.mm

        def pressurised() -> bool:
            return (not self.hog_task.alive
                    or (mm.memory_pressure() >= self.pressure_target
                        and mm.swap_outs > 0))

        machine.run_until(pressurised, max_ns=self.warmup_max_ns)

    def engage(self, machine: "Machine", victim: "Task") -> None:
        super().engage(machine, victim)

    def cleanup(self, machine: "Machine") -> None:
        if self.hog_task is not None and self.hog_task.alive:
            machine.kernel.post_signal(self.hog_task, SIGKILL)
