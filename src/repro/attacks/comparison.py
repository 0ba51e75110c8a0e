"""The §V-C comparison of the attacks: vulnerability, strength, side
effects, privilege.  Regenerated as a data structure (and renderable table)
so tests can assert the qualitative claims and the CLI can print it."""

from __future__ import annotations

from typing import List

from .base import AttackTraits
from .fault_flood import ExceptionFloodAttack
from .irq_flood import InterruptFloodAttack
from .library_ctor import LibraryConstructorAttack
from .library_subst import LibrarySubstitutionAttack
from .sched_attack import SchedulingAttack
from .shell_attack import ShellAttack
from .thrashing import ThrashingAttack

#: Traits of all six attacks, in the paper's presentation order.
ALL_ATTACK_TRAITS: List[AttackTraits] = [
    ShellAttack.traits,
    LibraryConstructorAttack.traits,
    LibrarySubstitutionAttack.traits,
    SchedulingAttack.traits,
    ThrashingAttack.traits,
    InterruptFloodAttack.traits,
    ExceptionFloodAttack.traits,
]


def comparison_matrix() -> str:
    """Render the §V-C comparison as a fixed-width table."""
    headers = ("attack", "section", "inflates", "strength",
               "root?", "vulnerability exploited", "side effects")
    rows = [
        (t.name, t.paper_section, t.inflates, t.strength,
         "yes" if t.requires_root else "no", t.vulnerability, t.side_effects)
        for t in ALL_ATTACK_TRAITS
    ]
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]

    def fmt(row) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
