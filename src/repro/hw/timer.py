"""Programmable interval timer: the source of the accounting jiffy.

Fires every ``tick_ns`` of virtual time, through a direct per-CPU
handler or as IRQ 0 on the PIC.  Ticks are anchored to
absolute multiples of the period (boot-relative), so even if a handler runs
late the schedule never drifts — exactly the property the tick-sampling
accounting scheme depends on, and the one the scheduling attack games.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ConfigError
from ..sim.clock import Clock
from ..sim.events import EventHandle, EventQueue
from .irq import IRQ_TIMER, InterruptController


class TimerDevice:
    """Periodic tick generator.

    ``offset_ns`` shifts the absolute tick grid — SMP machines stagger the
    per-CPU timers by ``i * tick_ns / nproc`` the way Linux spreads its
    per-CPU ticks, which is also what makes cross-CPU tick dodging a
    physically meaningful attack.  ``handler`` bypasses the PIC and invokes
    the callback directly: every :class:`~repro.hw.machine.Machine` wires
    its per-CPU timers this way (local-APIC style).  When None the timer
    raises IRQ 0 on the PIC.
    """

    def __init__(self, tick_ns: int, clock: Clock, events: EventQueue,
                 pic: InterruptController, offset_ns: int = 0,
                 handler: Optional[Callable[[], None]] = None) -> None:
        if tick_ns <= 0:
            raise ConfigError("tick_ns must be positive")
        if not 0 <= offset_ns < tick_ns:
            raise ConfigError("offset_ns must be in [0, tick_ns)")
        self.tick_ns = int(tick_ns)
        self.offset_ns = int(offset_ns)
        self._clock = clock
        self._events = events
        self._pic = pic
        self._handler = handler
        self._next_tick: Optional[EventHandle] = None
        self.ticks_fired = 0
        self._running = False
        #: Optional fault injector (see repro.faults): consulted at each
        #: grid instant to fire, drop or delay the tick.  The grid itself
        #: is never perturbed — a dropped or delayed tick does not move
        #: its successors, exactly like a masked tick on real hardware.
        self.fault = None
        self.ticks_lost = 0
        self.ticks_delayed = 0

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._schedule_next()

    def stop(self) -> None:
        self._running = False
        if self._next_tick is not None:
            self._next_tick.cancel()
            self._next_tick = None

    def close(self) -> None:
        """Stop for good and drop the handler, the timer's one reference
        back to the kernel (see :meth:`repro.hw.machine.Machine.close`)."""
        self.stop()
        self._handler = None

    def next_tick_time(self) -> Optional[int]:
        return self._next_tick.time_ns if self._next_tick is not None else None

    def _schedule_next(self) -> None:
        # Anchor to the absolute grid: the next multiple of tick_ns (shifted
        # by the stagger offset) strictly after "now", regardless of how
        # late the previous handler ran.
        now = self._clock.now
        next_time = ((now - self.offset_ns) // self.tick_ns + 1) \
            * self.tick_ns + self.offset_ns
        self._next_tick = self._events.schedule(
            next_time, self._fire, name="timer-tick")

    def _fire(self) -> None:
        if not self._running:
            return
        fault = self.fault
        if fault is not None:
            verdict = fault.decide(self._clock.now)
            if verdict != 0:
                # The next tick stays on the absolute grid either way.
                self._schedule_next()
                if verdict < 0:
                    self.ticks_lost += 1
                else:
                    self._events.schedule(self._clock.now + verdict,
                                          self._fire_delayed,
                                          name="timer-tick-delayed")
                return
        self.ticks_fired += 1
        if self._handler is not None:
            self._handler()
        else:
            self._pic.raise_irq(IRQ_TIMER)
        self._schedule_next()

    def _fire_delayed(self) -> None:
        if not self._running:
            return
        self.ticks_fired += 1
        self.ticks_delayed += 1
        if self._handler is not None:
            self._handler()
        else:
            self._pic.raise_irq(IRQ_TIMER)
