"""SMP metering attacks: tick dodging by migration, and IRQ steering.

Multiprocessors open two attack surfaces that do not exist on one CPU:

* **Cross-CPU tick dodging** (:class:`SmpDodgeAttack`) — per-CPU timer
  ticks are staggered across the jiffy, and each tick samples only the
  task running on *its* CPU.  A task that burns until just before its
  current CPU's tick and then migrates to the CPU whose tick is furthest
  away is (almost) never the sampled task, so tick accounting bills it
  (almost) nothing — the single-CPU tick-dodging idea of the paper's
  §IV-B1, rebuilt from migration instead of sub-jiffy yielding.  On a
  uniprocessor the same program cannot dodge (``migrate`` is a no-op and
  every tick is local), so its bill converges to its work — which is
  what the ``smp`` figure plots.

* **IRQ steering** (:class:`IrqSteerAttack`) — interrupt affinity
  (/proc/irq/<n>/smp_affinity) decides which CPU runs a device's
  handler.  A root attacker steers the NIC line at the victim's CPU,
  parks its own burner on another CPU, and floods the NIC: every
  handler nanosecond is billed to whoever runs on the steered CPU — the
  victim — while the attacker's own CPU stays interrupt-free.  The
  same handler-misattribution flaw as §IV-B3, with affinity turning a
  scattershot attack into a targeted one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import SimulationError
from ..hw.irq import IRQ_NIC
from ..hw.nic import PacketFlood
from ..programs.attackers import make_pinned_burner, make_smp_dodger
from .base import Attack, AttackTraits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.machine import Machine
    from ..kernel.process import Task
    from ..kernel.shell import Shell

DEFAULT_DODGE_CYCLES = 506_000_000  # ~0.2 s at the default 2.53 GHz
DEFAULT_GUARD_NS = 40_000
DEFAULT_STEER_RATE_PPS = 20_000.0


class SmpDodgeAttack(Attack):
    """Burn between local ticks, migrate off the CPU before each lands."""

    wait_for_attacker = True

    traits = AttackTraits(
        name="smp-dodge",
        paper_section="IV-B1 (SMP variant)",
        inflates="utime",  # of nobody: the attacker's own bill vanishes
        vulnerability="per-CPU tick sampling + attacker-driven migration",
        strength="arbitrary",
        side_effects="steals capacity from every CPU it visits",
        requires_root=False,  # sched_setaffinity on self is unprivileged
    )

    def __init__(self, total_cycles: int = DEFAULT_DODGE_CYCLES,
                 guard_ns: int = DEFAULT_GUARD_NS) -> None:
        super().__init__()
        self.total_cycles = total_cycles
        self.guard_ns = guard_ns
        self.dodger: Optional["Task"] = None
        self._shell: Optional["Shell"] = None

    def install(self, machine: "Machine", shell: "Shell") -> None:
        self._shell = shell

    def engage(self, machine: "Machine", victim: "Task") -> None:
        super().engage(machine, victim)
        cfg = machine.cfg
        program = make_smp_dodger(
            total_cycles=self.total_cycles,
            tick_ns=cfg.tick_ns,
            nproc=cfg.nproc,
            freq_hz=cfg.cpu_freq_hz,
            guard_ns=self.guard_ns)
        self.dodger = self._shell.run_command(program)
        self.attacker_tasks.append(self.dodger)

    def cleanup(self, machine: "Machine") -> None:
        if self.dodger is not None and self.dodger.alive:
            machine.kernel.do_exit(self.dodger, 0)


class IrqSteerAttack(Attack):
    """Steer the NIC interrupt line at the victim's CPU and flood it."""

    traits = AttackTraits(
        name="irq-steer",
        paper_section="IV-B3 (SMP variant)",
        inflates="stime",
        vulnerability="handler billed to the interrupted process, "
                      "with affinity choosing who that is",
        strength="bounded",
        side_effects="interrupt load concentrated on one CPU",
        requires_root=True,  # writing smp_affinity needs root
    )

    def __init__(self, rate_pps: float = DEFAULT_STEER_RATE_PPS,
                 target_cpu: int = 0,
                 burner_cycles: int = 2_000_000_000) -> None:
        super().__init__()
        self.rate_pps = rate_pps
        self.target_cpu = target_cpu
        self.burner_cycles = burner_cycles
        self.flood: Optional[PacketFlood] = None
        self.burner: Optional["Task"] = None
        self._shell: Optional["Shell"] = None

    def install(self, machine: "Machine", shell: "Shell") -> None:
        self._shell = shell
        nproc = machine.cfg.nproc
        if not 0 <= self.target_cpu < nproc:
            raise SimulationError(
                f"irq-steer targets cpu{self.target_cpu} but the machine "
                f"has nproc={nproc}")
        # Steer the NIC line before the victim launches (echo mask >
        # /proc/irq/11/smp_affinity, as root).
        machine.pic.set_affinity(IRQ_NIC, self.target_cpu)

    def engage(self, machine: "Machine", victim: "Task") -> None:
        super().engage(machine, victim)
        nproc = machine.cfg.nproc
        if nproc > 1:
            # Park the attacker's own work on a different CPU: it keeps
            # that CPU busy (so the balancer leaves the victim where the
            # interrupts land) and never pays for a handler itself.
            away = (self.target_cpu + 1) % nproc
            program = make_pinned_burner(away, self.burner_cycles)
            self.burner = self._shell.run_command(program, uid=0)
            self.attacker_tasks.append(self.burner)
        self.flood = machine.packet_flood(self.rate_pps)
        self.flood.start()

    def cleanup(self, machine: "Machine") -> None:
        if self.flood is not None:
            self.flood.stop()
        if self.burner is not None and self.burner.alive:
            machine.kernel.do_exit(self.burner, 0)
