"""Physical memory: a frame allocator with per-frame reverse-mapping info.

Frames hold no data (guest programs are op streams, not byte arrays); what
matters for the exception-flooding experiment is *which* frames exist, who
owns them, and their referenced/dirty bits for the clock reclaim algorithm.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

from ..errors import SimulationError


class Frame:
    """One physical page frame."""

    __slots__ = ("pfn", "owner_asid", "vpn", "referenced", "dirty", "pinned")

    def __init__(self, pfn: int) -> None:
        self.pfn = pfn
        #: Address-space id and virtual page currently mapped here (rmap).
        self.owner_asid: Optional[int] = None
        self.vpn: Optional[int] = None
        self.referenced = False
        self.dirty = False
        #: Pinned frames (kernel pages) are never reclaimed.
        self.pinned = False

    @property
    def free(self) -> bool:
        return self.owner_asid is None and not self.pinned

    def __repr__(self) -> str:
        if self.pinned:
            return f"Frame({self.pfn}, pinned)"
        if self.free:
            return f"Frame({self.pfn}, free)"
        return f"Frame({self.pfn}, asid={self.owner_asid}, vpn={self.vpn})"


class PhysicalMemory:
    """All RAM frames plus a free list and a clock hand for reclaim.

    Frames are created on first allocation: a machine that touches a few
    hundred pages never builds the rest.  A counter hands
    out never-used pfns in ascending order; released pfns queue behind
    them and are reused first-in first-out.  That is exactly the order an
    eagerly filled free deque would give, so which pfn backs which page —
    and hence every reclaim decision — does not depend on the laziness.
    """

    def __init__(self, total_frames: int, kernel_reserved_frames: int = 64) -> None:
        if total_frames <= kernel_reserved_frames:
            raise SimulationError("not enough frames for the kernel reservation")
        #: pfn -> Frame; None until the pfn is first allocated.
        self.frames: List[Optional[Frame]] = [None] * total_frames
        for pfn in range(kernel_reserved_frames):
            frame = self.frames[pfn] = Frame(pfn)
            frame.pinned = True
        #: Lowest pfn never handed out yet.
        self._next_fresh = kernel_reserved_frames
        #: Released pfns, reused in release order once the fresh ones run out.
        self._free: Deque[int] = deque()
        self._clock_hand = kernel_reserved_frames
        self.kernel_reserved = kernel_reserved_frames

    @property
    def total_frames(self) -> int:
        return len(self.frames)

    @property
    def free_frames(self) -> int:
        return len(self.frames) - self._next_fresh + len(self._free)

    @property
    def used_frames(self) -> int:
        return self.total_frames - self.kernel_reserved - self.free_frames

    def alloc(self, asid: int, vpn: int) -> Optional[Frame]:
        """Take a free frame and bind it to (asid, vpn); None if exhausted."""
        pfn = self._next_fresh
        if pfn < len(self.frames):
            self._next_fresh = pfn + 1
            frame = self.frames[pfn] = Frame(pfn)
        elif self._free:
            frame = self.frames[self._free.popleft()]
        else:
            return None
        frame.owner_asid = asid
        frame.vpn = vpn
        frame.referenced = True
        frame.dirty = False
        return frame

    def release(self, pfn: int) -> None:
        """Return a frame to the free list."""
        frame = self.frames[pfn]
        if frame is not None and frame.pinned:
            raise SimulationError(f"cannot release pinned frame {pfn}")
        if frame is None or frame.free:
            raise SimulationError(f"double free of frame {pfn}")
        frame.owner_asid = None
        frame.vpn = None
        frame.referenced = False
        frame.dirty = False
        self._free.append(pfn)

    def clock_scan(self) -> Tuple[Optional[Frame], int]:
        """One pass of the clock algorithm: return (victim frame, frames
        examined).

        Clears referenced bits as the hand sweeps; returns the first
        unreferenced, unpinned, in-use frame.  The scan count lets the
        kernel charge direct-reclaim CPU time to the allocating task, which
        is a real (and billable) cost of memory pressure.  The frame is
        None only if nothing is reclaimable (everything pinned/free).  A
        never-allocated frame is free: the hand examines and passes it.
        """
        n = self.total_frames
        for scanned in range(1, 2 * n + 1):
            frame = self.frames[self._clock_hand]
            self._clock_hand = (self._clock_hand + 1) % n
            if frame is None or frame.pinned or frame.free:
                continue
            if frame.referenced:
                frame.referenced = False
                continue
            return frame, scanned
        return None, 2 * n

    def frames_of(self, asid: int) -> List[Frame]:
        return [f for f in self.frames
                if f is not None and f.owner_asid == asid]
