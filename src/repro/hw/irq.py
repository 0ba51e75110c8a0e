"""Interrupt controller (a minimal PIC/APIC model).

Devices raise IRQ lines; the kernel registers one handler per line.  Lines
raised while interrupts are masked stay pending and are replayed when the
kernel unmasks.  Per-line statistics feed ``/proc``-style reporting and the
interrupt-flooding experiment.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict

from ..errors import SimulationError

#: Conventional line assignments (mirroring legacy x86 IRQ numbering).
IRQ_TIMER = 0
IRQ_NIC = 11
IRQ_DISK = 14


class InterruptController:
    """Routes raised IRQ lines to registered kernel handlers."""

    def __init__(self) -> None:
        self._handlers: Dict[int, Callable[[int], None]] = {}
        self._pending: Deque[int] = deque()
        self._masked = False
        #: Per-line delivery counts (like /proc/interrupts).
        self.counts: Dict[int, int] = {}
        #: Lines dropped because no handler was registered.
        self.spurious = 0
        #: Per-line CPU affinity (like /proc/irq/N/smp_affinity).  Lines
        #: default to CPU 0; on SMP machines the kernel's device-IRQ
        #: handlers consult this to pick the CPU that eats the handler
        #: time — the surface the IRQ-steering attack manipulates.
        self._affinity: Dict[int, int] = {}

    def set_affinity(self, line: int, cpu: int) -> None:
        self._affinity[line] = int(cpu)

    def affinity(self, line: int) -> int:
        return self._affinity.get(line, 0)

    def register(self, line: int, handler: Callable[[int], None]) -> None:
        if line in self._handlers:
            raise SimulationError(f"IRQ line {line} already has a handler")
        self._handlers[line] = handler

    def unregister(self, line: int) -> None:
        self._handlers.pop(line, None)

    @property
    def masked(self) -> bool:
        return self._masked

    def mask(self) -> None:
        """Disable interrupt delivery (cli)."""
        self._masked = True

    def unmask(self) -> None:
        """Re-enable delivery (sti) and replay anything pending."""
        self._masked = False
        while self._pending and not self._masked:
            self._dispatch(self._pending.popleft())

    def raise_irq(self, line: int) -> None:
        """Assert ``line``; delivered now or queued if masked."""
        if self._masked:
            self._pending.append(line)
            return
        self._dispatch(line)

    def _dispatch(self, line: int) -> None:
        handler = self._handlers.get(line)
        if handler is None:
            self.spurious += 1
            return
        self.counts[line] = self.counts.get(line, 0) + 1
        # Handlers run with further interrupts masked, like a real top half.
        self._masked = True
        try:
            handler(line)
        finally:
            self._masked = False
        while self._pending and not self._masked:
            self._dispatch(self._pending.popleft())

    def pending_count(self) -> int:
        return len(self._pending)
