"""Guest programs: the op language and the workload models.

Guest code is written as Python generator functions that *yield* ops
(:class:`~repro.programs.ops.Compute`, :class:`~repro.programs.ops.Mem`,
:class:`~repro.programs.ops.Syscall`, ...).  The kernel's execution engine
consumes the ops, advancing simulated time, taking page faults, handling
interrupts and delivering signals exactly where a real CPU would.
"""

from .ops import (
    CallLib,
    CallNext,
    Compute,
    Invoke,
    Mem,
    Op,
    Provenance,
    Repeat,
    Syscall,
)
from .base import GuestContext, GuestFunction, LeafFunction, Program

__all__ = [
    "CallLib",
    "CallNext",
    "Compute",
    "Invoke",
    "Mem",
    "Op",
    "Provenance",
    "Repeat",
    "Syscall",
    "GuestContext",
    "GuestFunction",
    "LeafFunction",
    "Program",
]
