"""Which defensive property addresses which attack (paper §VI-B).

The paper argues three properties are necessary: source integrity,
execution integrity, and fine-grained metering.  This table records the
expected coverage — and tier-1 tests validate it empirically
(`tests/test_metering.py`, `tests/test_attacks_runtime.py`):

* attestation (source integrity) flags the shell and both library attacks;
* the execution-integrity monitor flags thrashing and the floods;
* TSC accounting with process-aware interrupt billing (fine-grained
  metering) removes the inflation of the scheduling and interrupt-flood
  attacks and the sampling component of the others.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: attack name → (source integrity, execution integrity, fine-grained
#: metering) — True where the property detects or neutralises the attack.
DEFENSE_COVERAGE: Dict[str, Tuple[bool, bool, bool]] = {
    "shell": (True, False, False),
    "library-ctor": (True, False, False),
    "library-subst": (True, False, False),
    "scheduling": (False, False, True),
    "thrashing": (False, True, False),
    "irq-flood": (False, True, True),
    "fault-flood": (False, True, True),
}

PROPERTY_NAMES = ("source integrity", "execution integrity",
                  "fine-grained metering")


def covering_properties(attack_name: str) -> List[str]:
    flags = DEFENSE_COVERAGE[attack_name]
    return [name for name, flag in zip(PROPERTY_NAMES, flags) if flag]


def uncovered_attacks() -> List[str]:
    """Attacks no single property handles (should be empty: the three
    properties jointly cover everything)."""
    return [name for name, flags in DEFENSE_COVERAGE.items()
            if not any(flags)]


def defense_coverage_table() -> str:
    header = ("attack", *PROPERTY_NAMES)
    rows = [(name,) + tuple("yes" if f else "-" for f in flags)
            for name, flags in DEFENSE_COVERAGE.items()]
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]

    def fmt(row) -> str:
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines = [fmt(header), fmt(tuple("-" * w for w in widths))]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
