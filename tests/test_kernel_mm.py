"""Unit tests for address spaces and the memory manager."""

import pytest

from repro.config import MemoryConfig
from repro.errors import BadAddress, InvalidArgument, OutOfMemory, SimulationError
from repro.kernel.mm import AddressSpace, FaultKind, MemoryManager, PteState
from repro.kernel.mm.vm import DATA_BASE, HEAP_BASE, MMAP_BASE, STACK_PAGES
from repro.kernel.process import Task

PAGE = 4096


@pytest.fixture
def mm():
    return MemoryManager(MemoryConfig(ram_bytes=1024 * PAGE,
                                      swap_bytes=2048 * PAGE))


@pytest.fixture
def space(mm):
    return mm.create_space()


class TestAddressSpaceLayout:
    def test_has_stack_region(self, space):
        assert any(r.name == "stack" for r in space.regions)
        assert sum(r.npages for r in space.regions) == STACK_PAGES

    def test_brk_grows_heap(self, space):
        first = space.brk(0)
        assert first == HEAP_BASE
        new = space.brk(10_000)
        assert new == HEAP_BASE + 10_000
        region = space.region_at(HEAP_BASE)
        assert region is not None and region.name == "heap"

    def test_brk_shrink_rejected(self, space):
        with pytest.raises(InvalidArgument):
            space.brk(-1)

    def test_mmap_allocates_distinct_ranges(self, space):
        a = space.mmap(4)
        b = space.mmap(4)
        assert a == MMAP_BASE
        assert b == a + 4 * PAGE

    def test_mmap_zero_pages_rejected(self, space):
        with pytest.raises(InvalidArgument):
            space.mmap(0)

    def test_munmap_removes_region(self, space):
        start = space.mmap(4)
        region = space.munmap(start)
        assert region.npages == 4
        assert space.region_at(start) is None

    def test_munmap_unknown_rejected(self, space):
        with pytest.raises(InvalidArgument):
            space.munmap(0xDEAD000)

    def test_overlapping_region_rejected(self, space):
        space.add_region(DATA_BASE, 4, "data")
        with pytest.raises(SimulationError):
            space.add_region(DATA_BASE + PAGE, 4, "other")

    def test_unaligned_region_rejected(self, space):
        with pytest.raises(InvalidArgument):
            space.add_region(DATA_BASE + 1, 4, "data")

    def test_check_vaddr(self, space):
        space.add_region(DATA_BASE, 1, "data")
        space.check_vaddr(DATA_BASE)
        with pytest.raises(BadAddress):
            space.check_vaddr(0x1)


class TestFaultClassification:
    def test_segv_outside_regions(self, mm, space):
        assert mm.classify(space, 0x1) is FaultKind.SEGV

    def test_first_touch_is_minor(self, mm, space):
        start = space.mmap(1)
        assert mm.classify(space, start) is FaultKind.MINOR

    def test_present_after_minor(self, mm, space):
        start = space.mmap(1)
        mm.complete_minor_fault(space, start)
        assert mm.classify(space, start) is FaultKind.HIT
        assert space.rss == 1

    def test_completing_a_present_page_maps_nothing(self, mm, space):
        # Two threads racing a first touch both fault; the second
        # completion must not map a fresh frame over the first.
        start = space.mmap(1)
        mm.complete_minor_fault(space, start)
        pfn = space.pte(space.vpn_of(start)).pfn
        free = mm.phys.free_frames
        assert mm.complete_minor_fault(space, start) is False
        assert space.rss == 1
        assert space.pte(space.vpn_of(start)).pfn == pfn
        assert mm.phys.free_frames == free

    def test_major_after_eviction(self, mm, space):
        start = space.mmap(1)
        mm.complete_minor_fault(space, start)
        mm._evict_one()
        assert mm.classify(space, start) is FaultKind.MAJOR
        assert space.swapped_pages == 1

    def test_note_access_sets_bits(self, mm, space):
        start = space.mmap(1)
        mm.complete_minor_fault(space, start)
        pte = space.pte(space.vpn_of(start))
        frame = mm.phys.frames[pte.pfn]
        frame.referenced = False
        mm.note_access(space, start, write=True)
        assert frame.referenced
        assert frame.dirty


class TestReclaimAndSwap:
    def fill_ram(self, mm, space):
        start = space.mmap(mm.phys.total_frames)
        touched = 0
        addr = start
        while mm.phys.free_frames:
            mm.complete_minor_fault(space, addr)
            addr += PAGE
            touched += 1
        return start, touched

    def test_eviction_when_full(self, mm, space):
        start, touched = self.fill_ram(mm, space)
        # One more touch forces an eviction.
        extra = start + touched * PAGE
        mm.complete_minor_fault(space, extra)
        assert mm.swap_used == 1
        assert mm.swap_outs == 1
        assert mm.last_reclaim_scanned > 0

    def test_swap_in_roundtrip(self, mm, space):
        start = space.mmap(2)
        mm.complete_minor_fault(space, start)
        mm._evict_one()
        frame, _wb = mm.begin_major_fault(space, start)
        mm.complete_major_fault(space, start, frame)
        assert mm.classify(space, start) is FaultKind.HIT
        assert mm.swap_used == 0
        assert mm.swap_ins == 1

    def test_swap_exhaustion_raises(self):
        mm = MemoryManager(MemoryConfig(ram_bytes=128 * PAGE,
                                        swap_bytes=0))
        space = mm.create_space()
        space.mmap(mm.phys.total_frames)
        start = space.regions[-1].start
        with pytest.raises(OutOfMemory):
            addr = start
            for _ in range(mm.phys.total_frames):
                mm.complete_minor_fault(space, addr)
                addr += PAGE

    def test_release_region_frames(self, mm, space):
        start = space.mmap(4)
        for i in range(4):
            mm.complete_minor_fault(space, start + i * PAGE)
        free_before = mm.phys.free_frames
        region = space.munmap(start)
        mm.release_region_frames(space, region.start, region.npages)
        assert mm.phys.free_frames == free_before + 4
        assert space.rss == 0


class TestSpaceLifecycle:
    def test_refcounting(self, mm, space):
        mm.grab_space(space)
        assert space.users == 2
        assert not mm.drop_space(space)
        assert mm.drop_space(space)

    def test_teardown_frees_everything(self, mm, space):
        start = space.mmap(3)
        for i in range(3):
            mm.complete_minor_fault(space, start + i * PAGE)
        mm._evict_one()
        free_before = mm.phys.free_frames
        swap_before = mm.swap_used
        mm.drop_space(space)
        assert mm.phys.free_frames == free_before + 2
        assert mm.swap_used == swap_before - 1

    def test_underflow_rejected(self, mm, space):
        mm.drop_space(space)
        with pytest.raises(SimulationError):
            mm.drop_space(space)


class TestOomVictimSelection:
    def test_largest_rss_chosen(self, mm):
        a, b = Task(1, "small"), Task(2, "big")
        a.mm, b.mm = mm.create_space(), mm.create_space()
        sa = a.mm.mmap(8)
        sb = b.mm.mmap(8)
        mm.complete_minor_fault(a.mm, sa)
        for i in range(3):
            mm.complete_minor_fault(b.mm, sb + i * PAGE)
        assert mm.pick_oom_victim([a, b]) is b
        assert mm.oom_kills == 1

    def test_no_candidates(self, mm):
        assert mm.pick_oom_victim([]) is None

    def test_dead_tasks_skipped(self, mm):
        from repro.kernel.process import TaskState

        t = Task(1, "dead")
        t.mm = mm.create_space()
        t.state = TaskState.ZOMBIE
        assert mm.pick_oom_victim([t]) is None

    def test_memory_pressure_metric(self, mm, space):
        assert mm.memory_pressure() == 0.0
        start = space.mmap(10)
        for i in range(10):
            mm.complete_minor_fault(space, start + i * PAGE)
        assert 0.0 < mm.memory_pressure() <= 1.0
