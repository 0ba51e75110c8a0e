"""The op language executed by the simulated CPU.

A guest program is a generator yielding these ops.  ``Compute`` is divisible
(the timer interrupt can preempt it mid-block); the others are atomic from
the guest's point of view but may trigger arbitrary kernel activity (page
faults, watchpoint exceptions, blocking syscalls).  ``Repeat`` hands the
engine a whole loop of ``Compute``/``Mem``/``CallLib`` ops at once, so it
can advance the loop's pure stretches in closed form.

Every op carries a :class:`Provenance` describing *whose* code it is.  The
ground-truth oracle (``repro.metering.oracle``) uses provenance to attribute
each simulated nanosecond, which is how experiments measure the exact
overcharge an attack produced.
"""

from __future__ import annotations

import enum
from typing import Tuple


class Provenance(enum.Enum):
    """Whose code (or whose fault) a slice of CPU time is."""

    #: Members are singletons, so the identity hash is consistent with the
    #: default identity equality — and it is a C-level slot, unlike
    #: ``Enum.__hash__``, which shows up in profiles of the charge path
    #: (oracle buckets and engine batches key dicts on these members).
    __hash__ = object.__hash__

    #: The user's own program text.
    USER = "user"
    #: Legitimate shared-library code the program linked against.
    LIB = "lib"
    #: Code injected by the dishonest server (shell payloads, malicious
    #: constructors, interposed library functions).
    INJECTED = "injected"
    #: Kernel work triggered by an external interrupt unrelated to the task.
    IRQ = "irq"
    #: Kernel work caused by a tracer (ptrace stops, signal shuttling).
    TRACER = "tracer"
    #: Scheduler/context-switch overhead and other unattributable system work.
    SYSTEM = "system"


class Op:
    """Base class of all guest ops."""

    __slots__ = ()


class Compute(Op):
    """Burn ``cycles`` CPU cycles of pure user-mode computation.

    Divisible: interrupts preempt it mid-block and execution resumes at the
    exact cycle where it stopped.
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if cycles < 0:
            raise ValueError(f"Compute cycles must be >= 0, got {cycles}")
        self.cycles = int(cycles)

    def __repr__(self) -> str:
        return f"Compute({self.cycles})"


class Mem(Op):
    """Access virtual address ``vaddr`` (``repeat`` back-to-back accesses).

    Each access may minor/major fault and may hit a hardware watchpoint.
    The engine fast-paths repeats on a present, unwatched page; semantics
    are identical either way.
    """

    __slots__ = ("vaddr", "write", "repeat")

    def __init__(self, vaddr: int, write: bool = False, repeat: int = 1) -> None:
        if vaddr < 0:
            raise ValueError("vaddr must be non-negative")
        if repeat < 1:
            raise ValueError("repeat must be >= 1")
        self.vaddr = int(vaddr)
        self.write = bool(write)
        self.repeat = int(repeat)

    def __repr__(self) -> str:
        rw = "W" if self.write else "R"
        return f"Mem(0x{self.vaddr:x},{rw},x{self.repeat})"


class Syscall(Op):
    """Invoke kernel service ``name`` with ``args``.

    The syscall's return value is sent back into the yielding generator:
    ``result = yield Syscall("fork", (child,))``.
    """

    __slots__ = ("name", "args")

    def __init__(self, name: str, args: Tuple = ()) -> None:
        self.name = name
        self.args = args if args.__class__ is tuple else tuple(args)

    def __repr__(self) -> str:
        return f"Syscall({self.name!r}, {self.args!r})"


class CallLib(Op):
    """Call shared-library function ``symbol`` through the PLT.

    The dynamic linker resolves the symbol against the task's link map in
    search order (``LD_PRELOAD`` first), which is exactly the mechanism the
    function-substitution attack abuses.  The callee's return value is sent
    back into the caller.
    """

    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: Tuple = ()) -> None:
        self.symbol = symbol
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"CallLib({self.symbol!r})"


class Invoke(Op):
    """Push a :class:`~repro.programs.base.GuestFunction` as a new frame.

    Unlike :class:`CallLib` this bypasses symbol resolution — the loader
    uses it to run constructors/destructors and ``main``, the kernel uses it
    for thread entry points, and attacks use it to splice payloads into a
    process.  The function's provenance labels every op it yields.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn, args: Tuple = ()) -> None:
        self.fn = fn
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"Invoke({self.fn!r})"


class CallNext(Op):
    """Call the *next* definition of ``symbol`` after the current library.

    The moral equivalent of ``dlsym(RTLD_NEXT, symbol)``: an interposed
    ``malloc`` uses this to delegate to the genuine one, keeping program
    semantics intact while stealing cycles.
    """

    __slots__ = ("symbol", "args")

    def __init__(self, symbol: str, args: Tuple = ()) -> None:
        self.symbol = symbol
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"CallNext({self.symbol!r})"


class Repeat(Op):
    """Run ``body`` (a tuple of ops) ``times`` times, in order.

    The body may hold only ``Compute``, ``Mem`` and ``CallLib`` ops, and a
    ``CallLib``'s arguments must not depend on earlier results: the results
    of calls inside the body are discarded.  The engine hands the ops out
    exactly as if the program had yielded them one by one, except that it
    may charge a stretch of them in one step when nothing in the stretch
    can fault, trap or run non-leaf library code (see docs/internals.md).
    """

    __slots__ = ("body", "times")

    def __init__(self, body: Tuple[Op, ...], times: int) -> None:
        body = tuple(body)
        for op in body:
            if op.__class__ not in (Compute, Mem, CallLib):
                raise ValueError(
                    f"Repeat bodies hold Compute, Mem and CallLib ops, "
                    f"not {op!r}")
        if times < 0:
            raise ValueError(f"Repeat times must be >= 0, got {times}")
        self.body = body
        self.times = int(times)

    def __repr__(self) -> str:
        return f"Repeat({len(self.body)} ops x{self.times})"
