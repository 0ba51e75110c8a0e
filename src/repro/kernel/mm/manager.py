"""The memory manager: frame allocation, reclaim, swap accounting, OOM.

The exception-flooding attack (paper §IV-B4) works by exhausting physical
memory so the victim's pages are continually evicted and every touch becomes
a major fault (swap-in I/O plus handler time, billed as stime).  The paper
also notes the natural cap on this attack: push too hard and the kernel's
OOM killer terminates a process.  Both mechanisms are here.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ...config import MemoryConfig
from ...errors import OutOfMemory, SimulationError
from ...hw.memory import Frame, PhysicalMemory
from .vm import AddressSpace, PteState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..process import Task


class FaultKind(enum.Enum):
    """Classification of a memory access."""

    #: Page present; no kernel involvement.
    HIT = "hit"
    #: First touch: zero-fill a fresh frame (no I/O).
    MINOR = "minor"
    #: Page on swap: frame allocation plus disk read.
    MAJOR = "major"
    #: Address outside every region: SIGSEGV.
    SEGV = "segv"


class MemoryManager:
    """Owns physical memory and the swap device bookkeeping."""

    def __init__(self, cfg: MemoryConfig) -> None:
        self.cfg = cfg
        self.phys = PhysicalMemory(cfg.total_frames)
        self.swap_capacity = cfg.swap_pages
        self.swap_used = 0
        self._next_asid = 1
        self._spaces: Dict[int, AddressSpace] = {}
        #: Cumulative statistics.
        self.swap_ins = 0
        self.swap_outs = 0
        self.oom_kills = 0
        #: Frames examined by the most recent allocation's direct reclaim;
        #: the fault path charges this to the allocating task.
        self.last_reclaim_scanned = 0
        self.total_reclaim_scanned = 0

    # -- address-space lifecycle ---------------------------------------------

    def create_space(self) -> AddressSpace:
        space = AddressSpace(self._next_asid, self.cfg.page_size)
        self._spaces[space.asid] = space
        self._next_asid += 1
        return space

    def space(self, asid: int) -> AddressSpace:
        return self._spaces[asid]

    def grab_space(self, space: AddressSpace) -> AddressSpace:
        """Share ``space`` with another task (thread creation)."""
        space.users += 1
        return space

    def drop_space(self, space: AddressSpace) -> bool:
        """Release one reference; tear down at zero.  True if torn down."""
        if space.users <= 0:
            raise SimulationError("address space refcount underflow")
        space.users -= 1
        if space.users:
            return False
        for vpn, pte in list(space.ptes.items()):
            if pte.state is PteState.PRESENT and pte.pfn is not None:
                self.phys.release(pte.pfn)
                space.rss -= 1
            elif pte.state is PteState.SWAPPED:
                self.swap_used -= 1
                space.swapped_pages -= 1
        space.ptes.clear()
        del self._spaces[space.asid]
        return True

    # -- access classification --------------------------------------------------

    def classify(self, space: AddressSpace, vaddr: int) -> FaultKind:
        if space.region_at(vaddr) is None:
            return FaultKind.SEGV
        pte = space.ptes.get(space.vpn_of(vaddr))
        if pte is None or pte.state is PteState.NOT_PRESENT:
            return FaultKind.MINOR
        if pte.state is PteState.SWAPPED:
            return FaultKind.MAJOR
        return FaultKind.HIT

    def note_access(self, space: AddressSpace, vaddr: int, write: bool) -> None:
        """Set referenced/dirty bits on a present page (TLB-style)."""
        pte = space.ptes.get(space.vpn_of(vaddr))
        if pte is None or pte.state is not PteState.PRESENT:
            raise SimulationError("note_access on non-present page")
        frame = self.phys.frames[pte.pfn]
        frame.referenced = True
        if write:
            frame.dirty = True

    # -- fault service -------------------------------------------------------------

    def allocate_frame(self, space: AddressSpace, vpn: int) -> Tuple[Frame, bool]:
        """Get a frame for (space, vpn), reclaiming if needed.

        Returns ``(frame, wrote_back)``; ``wrote_back`` reports whether a
        dirty victim page had to be written to swap (extra kernel work and a
        disk write for the caller to charge).  Raises :class:`OutOfMemory`
        when both RAM and swap are exhausted — the caller invokes the OOM
        killer.
        """
        self.last_reclaim_scanned = 0
        frame = self.phys.alloc(space.asid, vpn)
        wrote_back = False
        if frame is None:
            wrote_back = self._evict_one()
            frame = self.phys.alloc(space.asid, vpn)
            if frame is None:
                raise OutOfMemory("no frame after reclaim")
        return frame, wrote_back

    def _evict_one(self) -> bool:
        """Push one victim page to swap; returns True if it was dirty."""
        victim, scanned = self.phys.clock_scan()
        self.last_reclaim_scanned += scanned
        self.total_reclaim_scanned += scanned
        if victim is None:
            raise OutOfMemory("no reclaimable frame")
        if self.swap_used >= self.swap_capacity:
            raise OutOfMemory("swap exhausted")
        owner = self._spaces.get(victim.owner_asid)
        if owner is None:
            raise SimulationError("victim frame owned by unknown space")
        pte = owner.ptes.get(victim.vpn)
        if pte is None or pte.pfn != victim.pfn:
            raise SimulationError("rmap/page-table mismatch during eviction")
        dirty = victim.dirty
        pte.state = PteState.SWAPPED
        pte.pfn = None
        owner.rss -= 1
        owner.swapped_pages += 1
        self.swap_used += 1
        self.swap_outs += 1
        self.phys.release(victim.pfn)
        return dirty

    def complete_minor_fault(self, space: AddressSpace, vaddr: int) -> bool:
        """Map a zero page at ``vaddr``.  Returns wrote_back (dirty evict).

        Two threads racing a page's first touch both take the minor fault;
        the later completion finds the page already PRESENT and maps
        nothing (the trapping thread still paid for its fault, as on
        Linux), so no frame leaks and RSS counts the page once."""
        vpn = space.vpn_of(vaddr)
        mapped = space.ptes.get(vpn)
        if mapped is not None and mapped.state is PteState.PRESENT:
            return False
        frame, wrote_back = self.allocate_frame(space, vpn)
        pte = space.pte(vpn)
        pte.state = PteState.PRESENT
        pte.pfn = frame.pfn
        space.rss += 1
        return wrote_back

    def begin_major_fault(self, space: AddressSpace, vaddr: int) -> Tuple[Frame, bool]:
        """Allocate the target frame for a swap-in (before the disk read)."""
        vpn = space.vpn_of(vaddr)
        return self.allocate_frame(space, vpn)

    def complete_major_fault(self, space: AddressSpace, vaddr: int,
                             frame: Frame) -> None:
        """Finish a swap-in after the disk read completed."""
        vpn = space.vpn_of(vaddr)
        pte = space.pte(vpn)
        if pte.state is not PteState.SWAPPED:
            # The page may have been OOM-torn-down while we slept; only
            # swapped pages can complete a swap-in.
            raise SimulationError("major fault completion on non-swapped page")
        pte.state = PteState.PRESENT
        pte.pfn = frame.pfn
        space.rss += 1
        space.swapped_pages -= 1
        self.swap_used -= 1
        self.swap_ins += 1

    def release_region_frames(self, space: AddressSpace, start: int,
                              npages: int) -> None:
        """Free frames and swap slots backing a munmapped region."""
        first_vpn = start // self.cfg.page_size
        for vpn in range(first_vpn, first_vpn + npages):
            pte = space.ptes.pop(vpn, None)
            if pte is None:
                continue
            if pte.state is PteState.PRESENT and pte.pfn is not None:
                self.phys.release(pte.pfn)
                space.rss -= 1
            elif pte.state is PteState.SWAPPED:
                self.swap_used -= 1
                space.swapped_pages -= 1

    # -- OOM ------------------------------------------------------------------------

    def pick_oom_victim(self, tasks: List["Task"]) -> Optional["Task"]:
        """Linux-style badness: kill the largest resident consumer."""
        best: Optional["Task"] = None
        best_rss = -1
        for task in tasks:
            if not task.alive or task.mm is None:
                continue
            if task.mm.rss > best_rss:
                best = task
                best_rss = task.mm.rss
        if best is not None:
            self.oom_kills += 1
        return best

    # -- reporting --------------------------------------------------------------------

    def memory_pressure(self) -> float:
        """Fraction of non-reserved RAM currently in use."""
        usable = self.phys.total_frames - self.phys.kernel_reserved
        return self.phys.used_frames / usable if usable else 1.0
