"""Address spaces, regions and page-table entries.

A task's ``mm`` is an :class:`AddressSpace`; threads of one group share it
(reference-counted).  The layout mirrors a classic 32-bit Linux process:

* static data at ``DATA_BASE`` (the loader binds program symbols here);
* the brk heap at ``HEAP_BASE`` growing upward;
* ``mmap`` regions carved from ``MMAP_BASE`` upward;
* a small stack at ``STACK_BASE``.

Pages are demand-mapped: a region reserves virtual pages, the first touch
minor-faults a frame in, reclaim may later push it to swap.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from ...errors import BadAddress, InvalidArgument, OutOfMemory, SimulationError

DATA_BASE = 0x1000_0000
HEAP_BASE = 0x2000_0000
HEAP_LIMIT = 0x3000_0000
MMAP_BASE = 0x4000_0000
MMAP_LIMIT = 0x7000_0000
STACK_BASE = 0x7FF0_0000
STACK_PAGES = 16


class PteState(enum.Enum):
    """Where a virtual page's contents live."""

    #: Reserved by a region but never touched (zero-fill pending).
    NOT_PRESENT = "not-present"
    #: Mapped to a physical frame.
    PRESENT = "present"
    #: Evicted to a swap slot.
    SWAPPED = "swapped"


class PTE:
    """A page-table entry."""

    __slots__ = ("state", "pfn")

    def __init__(self) -> None:
        self.state = PteState.NOT_PRESENT
        self.pfn: Optional[int] = None

    def __repr__(self) -> str:
        return f"PTE({self.state.value}, pfn={self.pfn})"


class VMRegion:
    """A contiguous range of reserved virtual pages."""

    __slots__ = ("start", "npages", "name")

    def __init__(self, start: int, npages: int, name: str) -> None:
        self.start = start
        self.npages = npages
        self.name = name

    def end(self, page_size: int) -> int:
        return self.start + self.npages * page_size

    def __repr__(self) -> str:
        return f"VMRegion({self.name!r}, 0x{self.start:x}, {self.npages}p)"


class AddressSpace:
    """Page table plus region list for one thread group."""

    def __init__(self, asid: int, page_size: int) -> None:
        self.asid = asid
        self.page_size = page_size
        self.regions: List[VMRegion] = []
        self.ptes: Dict[int, PTE] = {}
        #: Thread-group reference count.
        self.users = 1
        #: Resident pages.
        self.rss = 0
        #: Pages currently on swap.
        self.swapped_pages = 0
        self._brk = HEAP_BASE
        self._mmap_cursor = MMAP_BASE
        # Every space gets a stack region.
        self.add_region(STACK_BASE, STACK_PAGES, "stack")

    # -- layout ----------------------------------------------------------------

    def vpn_of(self, vaddr: int) -> int:
        return vaddr // self.page_size

    def add_region(self, start: int, npages: int, name: str) -> VMRegion:
        if start % self.page_size:
            raise InvalidArgument(f"region start 0x{start:x} not page-aligned")
        if npages <= 0:
            raise InvalidArgument("region must span at least one page")
        new_end = start + npages * self.page_size
        for region in self.regions:
            if start < region.end(self.page_size) and region.start < new_end:
                raise SimulationError(
                    f"region {name!r} overlaps {region.name!r}")
        region = VMRegion(start, npages, name)
        self.regions.append(region)
        return region

    def region_at(self, vaddr: int) -> Optional[VMRegion]:
        # Every classified access asks this: the bounds test is written
        # out rather than calling region.end().
        page_size = self.page_size
        for region in self.regions:
            start = region.start
            if start <= vaddr < start + region.npages * page_size:
                return region
        return None

    def brk(self, increment_bytes: int) -> int:
        """Grow (or query, with 0) the heap; returns the new break."""
        if increment_bytes == 0:
            return self._brk
        if increment_bytes < 0:
            raise InvalidArgument("heap shrinking is not modelled")
        new_brk = self._brk + increment_bytes
        if new_brk > HEAP_LIMIT:
            raise OutOfMemory("brk beyond heap limit")
        start = _page_ceil(self._brk, self.page_size)
        end = _page_ceil(new_brk, self.page_size)
        if end > start:
            self.add_region(start, (end - start) // self.page_size, "heap")
        self._brk = new_brk
        return self._brk

    def mmap(self, npages: int, name: str = "mmap") -> int:
        """Reserve an anonymous mapping; returns its start address."""
        if npages <= 0:
            raise InvalidArgument("mmap of zero pages")
        start = self._mmap_cursor
        if start + npages * self.page_size > MMAP_LIMIT:
            raise OutOfMemory("mmap address space exhausted")
        region = self.add_region(start, npages, name)
        self._mmap_cursor = region.end(self.page_size)
        return start

    def munmap(self, start: int) -> VMRegion:
        """Drop the region starting at ``start``; caller releases frames."""
        for i, region in enumerate(self.regions):
            if region.start == start and region.name != "stack":
                del self.regions[i]
                return region
        raise InvalidArgument(f"no region starts at 0x{start:x}")

    # -- page table --------------------------------------------------------------

    def pte(self, vpn: int) -> PTE:
        entry = self.ptes.get(vpn)
        if entry is None:
            entry = PTE()
            self.ptes[vpn] = entry
        return entry

    def check_vaddr(self, vaddr: int) -> None:
        if self.region_at(vaddr) is None:
            raise BadAddress(f"access to unmapped address 0x{vaddr:x}")

def _page_ceil(addr: int, page_size: int) -> int:
    return (addr + page_size - 1) // page_size * page_size
