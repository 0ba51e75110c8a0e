"""Named pass/fail checks and the JSON report writer every command shares.

Figures, the ``vm``/``faults``/``timesync`` scenarios, the serve selftest
and the chaos gauntlet all end the same way: a list of named assertions
with their observed evidence, printed as ``[PASS]``/``[FAIL]`` lines,
serialized into a report, and folded into the exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Check:
    """One named assertion, with its observed evidence."""

    name: str
    passed: bool
    detail: str

    def render(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name} ({self.detail})"

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "passed": self.passed,
                "detail": self.detail}


class CheckList(List[Check]):
    """Checks in the order they were made; ``echo`` (e.g. ``print``), when
    given, receives each rendered line as the check is added."""

    def __init__(self, echo: Optional[Callable[[str], Any]] = None) -> None:
        super().__init__()
        self.echo = echo

    def add(self, name: str, passed: bool, detail: str) -> None:
        check = Check(name, bool(passed), detail)
        self.append(check)
        if self.echo is not None:
            self.echo(f"  {check.render()}")

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self)

    def render(self) -> str:
        return "\n".join(f"  {check.render()}" for check in self)

    def to_dicts(self) -> List[Dict[str, Any]]:
        return [check.to_dict() for check in self]


def write_report(path: str, doc: Dict[str, Any]) -> None:
    """Write ``doc`` as sorted, indented JSON and say where it went."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {path}")
