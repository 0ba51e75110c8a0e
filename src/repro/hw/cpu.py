"""The simulated CPU: privilege modes, cycle/time conversion, TSC, DR0-DR7.

The paper's testbed is one core of an Intel E7200 @ 2.53 GHz.  We model a
single core whose only architectural state that matters to the attacks is:

* the privilege mode (user vs kernel) — it decides utime vs stime at a tick;
* the time-stamp counter — the paper's §VI-B proposes TSC-based fine-grained
  metering as a defense;
* the debug registers DR0..DR3/DR7 — the execution-thrashing attack plants a
  hardware watchpoint through ``ptrace(POKEUSER, DRx, ...)``.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from ..config import NS_PER_SEC
from ..errors import ConfigError, SimulationError


class CPUMode(enum.Enum):
    """Processor privilege mode."""

    USER = "user"
    KERNEL = "kernel"


class Watchpoint:
    """One armed debug-register slot (a DR0..DR3 + DR7 pair)."""

    __slots__ = ("vaddr", "length", "write_only")

    def __init__(self, vaddr: int, length: int = 4, write_only: bool = False) -> None:
        if length not in (1, 2, 4, 8):
            raise ConfigError(f"watchpoint length must be 1/2/4/8, got {length}")
        self.vaddr = int(vaddr)
        self.length = length
        self.write_only = bool(write_only)

    def matches(self, vaddr: int, write: bool) -> bool:
        if self.write_only and not write:
            return False
        return self.vaddr <= vaddr < self.vaddr + self.length

    def __repr__(self) -> str:
        kind = "W" if self.write_only else "RW"
        return f"Watchpoint(0x{self.vaddr:x},{self.length},{kind})"


class DebugRegisters:
    """The four hardware breakpoint slots of an x86 core.

    Each task has its own copy (saved/restored at context switch, like the
    per-thread debug state Linux keeps); the CPU holds the active copy.
    """

    SLOTS = 4

    def __init__(self) -> None:
        self._slots: List[Optional[Watchpoint]] = [None] * self.SLOTS
        #: True while any slot holds a watchpoint.  A plain attribute kept
        #: in step by every mutator: the engine reads it on each memory op.
        self.armed = False

    def set_slot(self, index: int, wp: Optional[Watchpoint]) -> None:
        if not 0 <= index < self.SLOTS:
            raise ConfigError(f"debug register slot {index} out of range")
        self._slots[index] = wp
        self.armed = any(s is not None for s in self._slots)

    def get_slot(self, index: int) -> Optional[Watchpoint]:
        if not 0 <= index < self.SLOTS:
            raise ConfigError(f"debug register slot {index} out of range")
        return self._slots[index]

    def clear(self) -> None:
        self._slots = [None] * self.SLOTS
        self.armed = False

    def hit(self, vaddr: int, write: bool) -> Optional[int]:
        """Return the index of the first matching slot, or None."""
        for i, wp in enumerate(self._slots):
            if wp is not None and wp.matches(vaddr, write):
                return i
        return None

    def copy(self) -> "DebugRegisters":
        clone = DebugRegisters()
        clone._slots = list(self._slots)
        clone.armed = self.armed
        return clone


class CPU:
    """A single simulated core."""

    def __init__(self, freq_hz: int) -> None:
        if freq_hz <= 0:
            raise ConfigError("CPU frequency must be positive")
        self.freq_hz = int(freq_hz)
        self.mode = CPUMode.KERNEL  # boots in kernel mode
        #: Active debug registers (loaded from the running task at switch-in).
        self.debug = DebugRegisters()
        #: Interrupts-enabled flag; the kernel masks IRQs inside handlers.
        self.irqs_enabled = True
        #: Total cycles retired; drives the TSC.
        self._cycles = 0
        #: Optional read-side TSC distortion (drift/step/freeze), installed
        #: by the fault layer.  Applied only when the TSC is *read*; the
        #: retired-cycle counter itself — the metering ground truth — is
        #: never touched.
        self.tsc_fault = None

    # ---- time/cycle conversion -------------------------------------------

    def cycles_to_ns(self, cycles: int) -> int:
        """Convert a cycle count to nanoseconds (ceiling, >=1 for cycles>0).

        Ceiling keeps time strictly advancing for any nonzero work, so the
        event loop can never livelock on zero-length slices.
        """
        if cycles < 0:
            raise SimulationError("negative cycle count")
        if cycles == 0:
            return 0
        ns = (cycles * NS_PER_SEC + self.freq_hz - 1) // self.freq_hz
        return max(1, ns)

    def ns_to_cycles(self, ns: int) -> int:
        """Convert nanoseconds to cycles (floor)."""
        if ns < 0:
            raise SimulationError("negative duration")
        return ns * self.freq_hz // NS_PER_SEC

    # ---- TSC --------------------------------------------------------------

    def retire_cycles(self, cycles: int) -> None:
        """Advance the TSC as work executes."""
        if cycles < 0:
            raise SimulationError("cannot retire negative cycles")
        self._cycles += int(cycles)

    def read_tsc(self) -> int:
        """The rdtsc instruction: cycles since boot."""
        cycles = self._cycles
        fault = self.tsc_fault
        return fault.transform(cycles) if fault is not None else cycles

    def wall_tsc(self, now_ns: int) -> int:
        """The invariant-TSC clocksource reading at wall time ``now_ns``.

        Modern cores keep the TSC counting at nominal frequency through
        idle and frequency scaling (constant_tsc/nonstop_tsc), which is
        what lets a clocksource watchdog timestamp wall intervals with it.
        The retired-cycle counter stops during idle, so the clocksource
        view is derived from the wall clock instead — and is where the
        fault layer's drift/step/freeze distortion shows up.
        """
        cycles = self.ns_to_cycles(now_ns)
        fault = self.tsc_fault
        return fault.transform(cycles) if fault is not None else cycles
