"""Workload W: the Whetstone synthetic benchmark.

Models the classic C Whetstone [19]: a fixed set of "modules" (floating
arithmetic, array accesses, transcendental functions) executed in a loop.
The hot variable ``T1`` is updated once per cycle ("variable ... T1 which
[is] accessed about 2x10^5 times"); libm is called heavily, which is what
the sqrt-substitution attack amplifies.

Scaled down: ``loops`` whetstone cycles.  The cycles run as one
:class:`~repro.programs.ops.Repeat` of a 16-cycle body (16 is the period
of the module-3 page index), then one pass over the remainder.
"""

from __future__ import annotations

from .base import GuestContext, Program
from typing import Tuple

from .ops import CallLib, Compute, Mem, Op, Repeat, Syscall

#: The hot scalar watched by the thrashing attack.
T1_VAR = "T1"

DEFAULT_LOOPS = 6_000

#: Module-3 array working set.
WS_PAGES = 16
PAGE = 4096

# Cycle weights of the Whetstone modules (per benchmark cycle).
MODULE3_ARRAY_CYCLES = 90_000       # array element arithmetic
MODULE4_COND_CYCLES = 60_000        # conditional jumps
MODULE6_INT_CYCLES = 45_000         # integer arithmetic
MODULE11_STD_CYCLES = 30_000        # standard functions preamble


#: The libm arguments of one cycle.  The classic chain feeds sin's result
#: to cos, cos's to sqrt and sqrt's to exp; these are the values libm's
#: models return along it (its costs do not depend on them).
SIN_ARG = 0.5
COS_ARG = SIN_ARG - SIN_ARG ** 3 / 6.0
SQRT_ARG = abs(1.0 - COS_ARG ** 2 / 2.0) + 1.0
EXP_ARG = SQRT_ARG ** 0.5 / 2.0

_MODULE3 = Compute(MODULE3_ARRAY_CYCLES)
_MODULE4 = Compute(MODULE4_COND_CYCLES)
_MODULE6 = Compute(MODULE6_INT_CYCLES)
_MODULE11 = Compute(MODULE11_STD_CYCLES)
_SIN = CallLib("sin", (SIN_ARG,))
_COS = CallLib("cos", (COS_ARG,))
_SQRT = CallLib("sqrt", (SQRT_ARG,))
_EXP = CallLib("exp", (EXP_ARG,))


def cycle_body(addr_t1: int, addr_ws: int) -> Tuple[Op, ...]:
    """The ops of :data:`WS_PAGES` consecutive cycles, the first on page 0."""
    ops = []
    t1 = Mem(addr_t1, write=True, repeat=2)
    for page in range(WS_PAGES):
        ops += (
            _MODULE3,
            Mem(addr_ws + page * PAGE, write=True),
            # T1 is read and updated in modules 1 and 2 of every cycle.
            t1,
            _MODULE4,
            # Module 7/8: transcendental functions via libm.
            _SIN, _COS,
            _MODULE6,
            # Module 11: sqrt/exp/log block.
            _SQRT, _EXP,
            _MODULE11,
        )
    return tuple(ops)


def _main(ctx: GuestContext):
    (loops,) = ctx.argv
    body = cycle_body(ctx.addr(T1_VAR), ctx.addr("e1_array"))
    # Workspace array, allocated once.
    e1 = yield CallLib("malloc", (4 * 1024,))
    laps, rest = divmod(loops, WS_PAGES)
    if laps:
        yield Repeat(body, laps)
    if rest:
        yield Repeat(body[:rest * len(body) // WS_PAGES], 1)
    yield CallLib("free", (e1,))
    rusage = yield Syscall("getrusage")
    ctx.shared["rusage"] = rusage
    return 0


def make_whetstone(loops: int = DEFAULT_LOOPS) -> Program:
    """Build workload W."""
    return Program(
        "Whetstone",
        _main,
        data_symbols={T1_VAR: 8, "e1_array": WS_PAGES * PAGE},
        needed_libs=("libc", "libm"),
        argv=(loops,),
    )
