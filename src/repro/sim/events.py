"""Deterministic event queue.

Events scheduled for the same instant fire in scheduling order (FIFO), which
makes every run bit-for-bit reproducible.  Cancellation is lazy: a cancelled
event stays in the heap but is skipped on pop, the standard trick for
heap-based priority queues.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError


class Event:
    """A scheduled callback.  Created via :meth:`EventQueue.schedule`."""

    __slots__ = ("time_ns", "seq", "callback", "name", "cancelled")

    def __init__(self, time_ns: int, seq: int,
                 callback: Callable[[], None], name: str) -> None:
        self.time_ns = time_ns
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.name!r} @ {self.time_ns}ns, {state})"


class EventHandle:
    """A caller-facing handle used to cancel a scheduled event."""

    __slots__ = ("_event", "_queue")

    def __init__(self, event: Event, queue: "EventQueue") -> None:
        self._event = event
        self._queue = queue

    @property
    def time_ns(self) -> int:
        return self._event.time_ns

    @property
    def pending(self) -> bool:
        return not self._event.cancelled

    def cancel(self) -> bool:
        """Cancel the event.  Returns True if it had not fired/cancelled."""
        if self._event.cancelled:
            return False
        self._event.cancelled = True
        self._queue._note_cancel(self._event)
        return True


class EventQueue:
    """Time-ordered queue of simulation events."""

    def __init__(self) -> None:
        #: (time_ns, seq, event) entries: ``seq`` is unique, so heap sifts
        #: order entries by two integer compares in C and never compare
        #: events themselves.
        self._heap: List[Tuple[int, int, Event]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def schedule(self, time_ns: int, callback: Callable[[], None],
                 name: str = "event") -> EventHandle:
        """Schedule ``callback`` to fire at absolute time ``time_ns``."""
        if time_ns < 0:
            raise SimulationError(f"cannot schedule event at t={time_ns}")
        seq = self._seq
        event = Event(int(time_ns), seq, callback, name)
        self._seq = seq + 1
        self._live += 1
        heapq.heappush(self._heap, (event.time_ns, seq, event))
        return EventHandle(event, self)

    def _note_cancel(self, event: Event) -> None:
        self._live -= 1

    def next_time(self) -> Optional[int]:
        """Time of the earliest pending event, or None if the queue is empty.
        Cancelled events met at the head are dropped on the way."""
        heap = self._heap
        while heap:
            time_ns, _seq, event = heap[0]
            if not event.cancelled:
                return time_ns
            heapq.heappop(heap)
        return None

    def pop_due(self, now_ns: int) -> Optional[Event]:
        """Pop the earliest event with ``time_ns <= now_ns``, if any."""
        heap = self._heap
        while heap:
            time_ns, _seq, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
                continue
            if time_ns > now_ns:
                return None
            heapq.heappop(heap)
            self._live -= 1
            # Mark consumed so a late handle.cancel() is a no-op.
            event.cancelled = True
            return event
        return None

    def run_due(self, now_ns: int) -> int:
        """Fire every event due at or before ``now_ns``.  Returns the count.

        Callbacks may schedule further events; those also fire if they fall
        within ``now_ns`` (this models cascading interrupt work happening
        "at" the same instant).
        """
        fired = 0
        while True:
            event = self.pop_due(now_ns)
            if event is None:
                return fired
            event.callback()
            fired += 1

    def clear(self) -> None:
        """Drop every pending event, and its callback with it: a handle a
        device still holds then keeps no callback, and so no device,
        alive."""
        for _time_ns, _seq, event in self._heap:
            event.callback = None
            event.cancelled = True
        self._heap.clear()
        self._live = 0
