"""Attack interface and the qualitative traits of §V-C.

An attack object is single-use: create one per experiment run.  The
lifecycle mirrors how a dishonest provider operates:

1. ``install(machine, shell)`` — tamper with the platform *before* the
   user's job starts (patch the shell, plant libraries, set LD_PRELOAD);
2. ``engage(machine, victim)`` — start active machinery once the victim
   process exists (attach the tracer, launch the Fork chain or memory hog,
   start the packet flood);
3. ``cleanup(machine)`` — stop anything still running so the simulation can
   quiesce (the provider covering its tracks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..kernel.accounting import CpuUsage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..hw.machine import Machine
    from ..kernel.process import Task
    from ..kernel.shell import Shell


@dataclass(frozen=True)
class AttackTraits:
    """The §V-C comparison dimensions for one attack."""

    name: str
    paper_section: str
    #: "utime" or "stime": which component the attack inflates.
    inflates: str
    #: What flaw it exploits.
    vulnerability: str
    #: "arbitrary" (attacker-chosen), "tunable", or "bounded".
    strength: str
    #: Side effects on the rest of the system.
    side_effects: str
    #: Does mounting it need root (or LSM-granted) privilege?
    requires_root: bool


class Attack:
    """Base class; concrete attacks override the hooks they need."""

    traits: AttackTraits

    #: Should the experiment harness let the attacker run to completion
    #: after the victim exits (needed when the figure reports the
    #: attacker's own CPU time, as Figs. 7-8 do)?
    wait_for_attacker = False

    def __init__(self) -> None:
        self._engaged = False
        #: Attacker-side tasks created by engage(), for reporting.
        self.attacker_tasks: List["Task"] = []

    # -- lifecycle ------------------------------------------------------------

    def install(self, machine: "Machine", shell: "Shell") -> None:
        """Tamper with the platform before the victim launches."""

    def pre_launch(self, machine: "Machine", shell: "Shell") -> None:
        """Warm up attack machinery before the victim starts (e.g. the
        memory hog building pressure)."""

    def engage(self, machine: "Machine", victim: "Task") -> None:
        """Start active attack machinery against a running victim."""
        self._engaged = True

    def cleanup(self, machine: "Machine") -> None:
        """Stop any machinery still running."""

    # -- reporting --------------------------------------------------------------

    def billed_usage(self, machine: "Machine") -> Optional[CpuUsage]:
        """What the platform billed the attacker: its tasks' own usage
        plus their reaped children's (None when it ran no task)."""
        if not self.attacker_tasks:
            return None
        usage = machine.kernel.accounting.usage
        return sum((usage(t) + CpuUsage(t.acct_cutime_ns, t.acct_cstime_ns)
                    for t in self.attacker_tasks), CpuUsage())

    @property
    def name(self) -> str:
        return self.traits.name

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class NoAttack(Attack):
    """The honest-platform control run."""

    traits = AttackTraits(
        name="none",
        paper_section="-",
        inflates="-",
        vulnerability="-",
        strength="-",
        side_effects="-",
        requires_root=False,
    )
