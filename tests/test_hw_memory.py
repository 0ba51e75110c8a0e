"""Unit tests for physical memory and the clock-reclaim algorithm."""

import random
from collections import deque

import pytest

from repro.errors import SimulationError
from repro.hw.memory import Frame, PhysicalMemory


@pytest.fixture
def mem():
    return PhysicalMemory(total_frames=128, kernel_reserved_frames=8)


class TestAllocation:
    def test_initial_free_count(self, mem):
        assert mem.total_frames == 128
        assert mem.free_frames == 120
        assert mem.used_frames == 0

    def test_alloc_binds_rmap(self, mem):
        frame = mem.alloc(asid=1, vpn=42)
        assert frame.owner_asid == 1
        assert frame.vpn == 42
        assert frame.referenced
        assert not frame.dirty
        assert mem.free_frames == 119
        assert mem.used_frames == 1

    def test_alloc_exhaustion_returns_none(self, mem):
        for i in range(120):
            assert mem.alloc(1, i) is not None
        assert mem.alloc(1, 999) is None

    def test_release_recycles(self, mem):
        frame = mem.alloc(1, 0)
        mem.release(frame.pfn)
        assert mem.free_frames == 120
        assert frame.free

    def test_double_free_rejected(self, mem):
        frame = mem.alloc(1, 0)
        mem.release(frame.pfn)
        with pytest.raises(SimulationError):
            mem.release(frame.pfn)

    def test_release_pinned_rejected(self, mem):
        with pytest.raises(SimulationError):
            mem.release(0)  # frame 0 is kernel-reserved

    def test_too_small_machine_rejected(self):
        with pytest.raises(SimulationError):
            PhysicalMemory(total_frames=4, kernel_reserved_frames=8)

    def test_frames_of(self, mem):
        mem.alloc(1, 0)
        mem.alloc(2, 0)
        mem.alloc(1, 1)
        assert len(mem.frames_of(1)) == 2
        assert len(mem.frames_of(2)) == 1


class TestClockScan:
    def test_nothing_reclaimable_when_empty(self, mem):
        victim, scanned = mem.clock_scan()
        assert victim is None
        assert scanned == 2 * mem.total_frames

    def test_second_chance(self, mem):
        """A referenced frame survives one pass, falls on the second."""
        frame = mem.alloc(1, 0)
        assert frame.referenced
        victim, _ = mem.clock_scan()
        assert victim is frame  # ref cleared on first encounter, then taken
        assert not frame.referenced

    def test_unreferenced_picked_first(self, mem):
        a = mem.alloc(1, 0)
        b = mem.alloc(1, 1)
        a.referenced = True
        b.referenced = False
        victim, _ = mem.clock_scan()
        assert victim is b
        # a's reference bit was cleared by the sweep.
        assert not a.referenced

    def test_pinned_never_reclaimed(self, mem):
        frame = mem.alloc(1, 0)
        frame.pinned = True
        victim, _ = mem.clock_scan()
        assert victim is None

    def test_scan_count_reported(self, mem):
        mem.alloc(1, 0)
        _victim, scanned = mem.clock_scan()
        assert scanned >= 1

    def test_hand_makes_progress(self, mem):
        frames = [mem.alloc(1, i) for i in range(3)]
        victims = set()
        for _ in range(3):
            victim, _ = mem.clock_scan()
            assert victim is not None
            victims.add(victim.pfn)
            mem.release(victim.pfn)
            victim.owner_asid = None
        assert len(victims) == 3


class EagerPhysicalMemory:
    """Reference allocator: every frame built up front, one free deque.

    The frame allocator used to work this way; the lazy one must hand out
    the same pfns in the same order and make the same reclaim choices.
    """

    def __init__(self, total_frames, kernel_reserved_frames=64):
        if total_frames <= kernel_reserved_frames:
            raise SimulationError("not enough frames for the kernel reservation")
        self.frames = list(map(Frame, range(total_frames)))
        self._free = deque(range(kernel_reserved_frames, total_frames))
        for frame in self.frames[:kernel_reserved_frames]:
            frame.pinned = True
        self._clock_hand = kernel_reserved_frames
        self.kernel_reserved = kernel_reserved_frames

    @property
    def total_frames(self):
        return len(self.frames)

    @property
    def free_frames(self):
        return len(self._free)

    @property
    def used_frames(self):
        return self.total_frames - self.kernel_reserved - self.free_frames

    def alloc(self, asid, vpn):
        if not self._free:
            return None
        frame = self.frames[self._free.popleft()]
        frame.owner_asid = asid
        frame.vpn = vpn
        frame.referenced = True
        frame.dirty = False
        return frame

    def release(self, pfn):
        frame = self.frames[pfn]
        if frame.pinned:
            raise SimulationError(f"cannot release pinned frame {pfn}")
        if frame.free:
            raise SimulationError(f"double free of frame {pfn}")
        frame.owner_asid = None
        frame.vpn = None
        frame.referenced = False
        frame.dirty = False
        self._free.append(pfn)

    def clock_scan(self):
        n = self.total_frames
        for scanned in range(1, 2 * n + 1):
            frame = self.frames[self._clock_hand]
            self._clock_hand = (self._clock_hand + 1) % n
            if frame.pinned or frame.free:
                continue
            if frame.referenced:
                frame.referenced = False
                continue
            return frame, scanned
        return None, 2 * n

    def frames_of(self, asid):
        return [f for f in self.frames if f.owner_asid == asid]


def _outcome(call):
    """What a call returned or raised, in comparable form."""
    try:
        return ("ok", call())
    except SimulationError as exc:
        return ("error", str(exc))


def _pfn(frame):
    return None if frame is None else frame.pfn


class TestLazyMatchesEager:
    """Seeded random op sequences against the eager reference."""

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sequences(self, seed):
        rng = random.Random(seed)
        total = rng.choice([24, 48, 128])
        reserved = rng.choice([1, 8, 16])
        lazy = PhysicalMemory(total, kernel_reserved_frames=reserved)
        eager = EagerPhysicalMemory(total, kernel_reserved_frames=reserved)
        for step in range(400):
            op = rng.choice(["alloc", "alloc", "alloc", "release", "release",
                             "scan", "touch", "pin", "frames_of"])
            if op == "alloc":
                asid, vpn = rng.randrange(1, 4), step
                got = _outcome(lambda: _pfn(lazy.alloc(asid, vpn)))
                want = _outcome(lambda: _pfn(eager.alloc(asid, vpn)))
            elif op == "release":
                # Any pfn: in use, released (double free), pinned, or
                # never allocated at all.
                pfn = rng.randrange(total)
                got = _outcome(lambda: lazy.release(pfn))
                want = _outcome(lambda: eager.release(pfn))
            elif op == "scan":
                got = _outcome(lambda: lazy.clock_scan())
                want = _outcome(lambda: eager.clock_scan())
                if got[0] == "ok":
                    got = ("ok", (_pfn(got[1][0]), got[1][1]))
                    want = ("ok", (_pfn(want[1][0]), want[1][1]))
                    if got[1][0] is not None and rng.random() < 0.7:
                        lazy.release(got[1][0])
                        eager.release(want[1][0])
            elif op in ("touch", "pin"):
                # Bit flips the kernel makes on in-use frames (note_access
                # sets referenced/dirty; a pinned page is never reclaimed).
                owned = [f.pfn for f in eager.frames
                         if f.owner_asid is not None]
                if not owned:
                    continue
                pfn = rng.choice(owned)
                flip = rng.random() < (0.5 if op == "touch" else 0.2)
                for frame in (lazy.frames[pfn], eager.frames[pfn]):
                    if op == "touch":
                        frame.referenced = True
                        frame.dirty = flip
                    elif flip:
                        frame.pinned = True
                got = want = None
            else:
                asid = rng.randrange(1, 4)
                got = [f.pfn for f in lazy.frames_of(asid)]
                want = [f.pfn for f in eager.frames_of(asid)]
            assert got == want, (seed, step, op)
            assert lazy.free_frames == eager.free_frames
            assert lazy.used_frames == eager.used_frames
            assert lazy.total_frames == eager.total_frames

    def test_untouched_frames_count_as_examined(self):
        lazy = PhysicalMemory(total_frames=128, kernel_reserved_frames=8)
        eager = EagerPhysicalMemory(total_frames=128, kernel_reserved_frames=8)
        assert lazy.clock_scan() == eager.clock_scan() == (None, 256)
        lazy.alloc(1, 0)
        eager.alloc(1, 0)
        # The hand starts past the reservation, clears frame 8's bit,
        # then walks all 128 frames back round to it.
        lazy_victim, lazy_scanned = lazy.clock_scan()
        eager_victim, eager_scanned = eager.clock_scan()
        assert lazy_victim.pfn == eager_victim.pfn == 8
        assert lazy_scanned == eager_scanned == 129

    def test_frames_are_created_on_first_alloc(self):
        mem = PhysicalMemory(total_frames=128, kernel_reserved_frames=8)
        assert sum(f is not None for f in mem.frames) == 8
        mem.alloc(1, 0)
        assert sum(f is not None for f in mem.frames) == 9

    def test_released_frames_reused_after_fresh_ones(self):
        mem = PhysicalMemory(total_frames=12, kernel_reserved_frames=8)
        pfns = [mem.alloc(1, i).pfn for i in range(2)]
        assert pfns == [8, 9]
        mem.release(9)
        mem.release(8)
        order = [mem.alloc(1, i).pfn for i in range(4)]
        assert order == [10, 11, 9, 8]
        assert mem.alloc(1, 99) is None
