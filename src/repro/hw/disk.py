"""Swap/backing disk with asynchronous DMA completion.

The kernel submits page-sized transfers; after the modelled latency the disk
raises IRQ 14 and the completion callback runs (waking the faulting task).
Like a real elevator with anticipatory/CFQ-style policy, *reads* (someone is
blocked on them) are dispatched ahead of queued writes (background
writeback) — without this, swap-ins starve behind the reclaim writeback
stream and the exception-flooding experiment degenerates.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from ..config import DiskConfig
from ..sim.clock import Clock
from ..sim.events import EventQueue
from .irq import IRQ_DISK, InterruptController


class Disk:
    """Single-spindle block device with read-priority scheduling."""

    def __init__(self, cfg: DiskConfig, clock: Clock, events: EventQueue,
                 pic: InterruptController) -> None:
        self._cfg = cfg
        self._clock = clock
        self._events = events
        self._pic = pic
        self._reads: Deque[Tuple[int, Callable[[], None]]] = deque()
        self._writes: Deque[Tuple[int, Callable[[], None]]] = deque()
        self._busy = False
        self._pending_completion: Optional[Callable[[], None]] = None
        self.reads = 0
        self.writes = 0
        self.pages_transferred = 0

    @property
    def busy(self) -> bool:
        return self._busy

    @property
    def queue_depth(self) -> int:
        return len(self._reads) + len(self._writes) + (1 if self._busy else 0)

    def submit(self, pages: int, write: bool,
               on_complete: Callable[[], None]) -> None:
        """Queue a transfer of ``pages`` pages; ``on_complete`` runs after
        the completion IRQ fires."""
        if pages <= 0:
            raise ValueError("transfer must cover at least one page")
        if write:
            self.writes += 1
            self._writes.append((pages, on_complete))
        else:
            self.reads += 1
            self._reads.append((pages, on_complete))
        self.pages_transferred += pages
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        queue = self._reads if self._reads else self._writes
        if not queue:
            self._busy = False
            return
        self._busy = True
        pages, on_complete = queue.popleft()
        latency = self._cfg.base_latency_ns + pages * self._cfg.per_page_ns
        self._events.schedule(
            self._clock.now + latency,
            lambda: self._complete(on_complete),
            name="disk-complete")

    def _complete(self, on_complete: Callable[[], None]) -> None:
        # The IRQ handler (registered by the kernel) consumes handler time
        # and then calls back into us to run the transfer completion.
        self._pending_completion = on_complete
        self._pic.raise_irq(IRQ_DISK)
        self._start_next()

    def close(self) -> None:
        """Drop queued transfers: their completion callbacks hold the
        kernel and the tasks waiting on them."""
        self._reads.clear()
        self._writes.clear()
        self._pending_completion = None

    def take_completion(self) -> Optional[Callable[[], None]]:
        """Called by the kernel's IRQ-14 handler to collect the completion."""
        cb = self._pending_completion
        self._pending_completion = None
        return cb
