"""Where each kind of charge lands when it meets the end of a budget.

A tick lands at an exact nanosecond, so the engine's rule for splitting
work at the end of its budget is what the paper's tick-sampling attacks
rest on.  Each case below places one charge three ways: ending exactly on
the budget, straddling it, and starting with less than one cycle's ns of
budget left (a sub-cycle remainder, which needs a clock under 1 GHz).  The
charge is the work of one function with its own provenance, run after a
lead of plain user work that puts it in place.  The test asserts the
``kernel.consume`` calls that function's work makes in the run where it
starts and in the next one, worked out from the cost model.
"""

import pytest

from repro import Machine, default_config
from repro.kernel.engine import ExecutionEngine
from repro.kernel.loader.linker import LinkMap
from repro.programs.base import GuestFunction
from repro.programs.ops import (
    CallLib,
    Compute,
    Invoke,
    Mem,
    Provenance,
    Syscall,
)
from repro.programs.stdlib import SQRT_CYCLES, make_libm

from .guest_helpers import run_all, spawn_fn

NS = 10**9
PAGE = 4096
#: A clock slow enough that one cycle takes more than 1 ns (2.5 ns).
SLOW_HZ = 400_000_000
DEFAULT_HZ = default_config().cpu_freq_hz
COMPUTE = 1_000
MEM_REPEAT = 10
TAIL = 1_000

#: The keys the function under test charges, as recorded.
USER = (True, "injected", "user")
SYSTEM = (False, "injected", "syscall")
LEAF = (True, "lib", "user")


def _ns(cycles, freq):
    return (cycles * NS + freq - 1) // freq


def _avail(left, freq):
    """Whole cycles that fit in ``left`` ns."""
    return left * freq // NS


def _charges(kind, cfg):
    """The charges of the function under test, in order, as (key, cycles);
    None marks a flush of the batch (one consume per key before it)."""
    costs = cfg.costs
    fault = costs.minor_fault_cycles + costs.page_zero_cycles
    getpid = [(SYSTEM, costs.syscall_entry_cycles), (SYSTEM, 100), None,
              (SYSTEM, costs.syscall_exit_cycles)]
    call = [(USER, costs.lib_call_cycles), (LEAF, SQRT_CYCLES)]
    return {
        "compute": [(USER, COMPUTE)],
        # A first touch queues the fault as a segment: the head of the
        # queue at the next pass.  Its completion flushes the batch.
        "head-segment": [(SYSTEM, fault), None,
                         (USER, costs.mem_access_cycles)],
        "syscall-entry": getpid,
        "syscall-cost": getpid,
        "syscall-exit": getpid,
        "mem-hit": [(USER, costs.mem_access_cycles * MEM_REPEAT)],
        "plt": call,
        "leaf": call,
    }[kind]


#: Which of the charges each case places on the budget's end.
PLACED = {"compute": 0, "head-segment": 0, "syscall-entry": 0,
          "syscall-cost": 1, "syscall-exit": 3, "mem-hit": 0, "plt": 0,
          "leaf": 1}


def _under_test(kind):
    def body(ctx, addr):
        if kind == "probe":
            yield Compute(10**8)
        elif kind == "compute":
            yield Compute(COMPUTE)
        elif kind == "head-segment":
            yield Mem(addr + PAGE)
        elif kind.startswith("syscall"):
            yield Syscall("getpid")
        elif kind == "mem-hit":
            yield Mem(addr, repeat=MEM_REPEAT)
        else:
            yield CallLib("sqrt", (9.0,))
    return GuestFunction("under-test", body, Provenance.INJECTED)


def _lead(total, freq):
    """Compute ops whose charges, each rounded up on its own, add up to
    exactly ``total`` ns."""
    ops = []
    while total:
        cycles = (total - 1) * freq // NS + 1  # fewest reaching ``total``
        if _ns(cycles, freq) == total:
            ops.append(cycles)
            break
        ops.append(1)
        total -= _ns(1, freq)
    return ops


def _trace(kind, lead, freq):
    """Run [mmap, touch a page, lead, the function under test, tail];
    return each engine run's budget and each run's consume calls."""
    machine = Machine(default_config(cpu_freq_hz=freq))
    kernel = machine.kernel
    fn = _under_test(kind)

    def body(ctx):
        addr = yield Syscall("mmap", (2,))
        yield Mem(addr, write=True)
        for cycles in lead:
            yield Compute(cycles)
        yield Invoke(fn, (addr,))
        yield Compute(TAIL)

    task = spawn_fn(machine, body)
    task.guest_ctx.shared["_link_map"] = LinkMap([make_libm()])
    budgets, runs = [], []
    consume, engine_run = kernel.consume, ExecutionEngine.run

    def recording_consume(t, ns, cycles, user, prov, kind):
        if t is task:
            runs[-1].append((ns, cycles, user, prov.value, kind.value))
        consume(t, ns, cycles, user, prov, kind)

    def recording_run(engine, t, budget_ns):
        if t is task:
            budgets.append(budget_ns)
            runs.append([])
        return engine_run(engine, t, budget_ns)

    kernel.consume = recording_consume
    ExecutionEngine.run = recording_run
    try:
        run_all(machine, [task])
    finally:
        ExecutionEngine.run = engine_run
    return budgets, runs


_PROBES = {}


def _first_run(freq):
    """(budget, ns before the function under test starts) of the task's
    first engine run; neither depends on the lead."""
    if freq not in _PROBES:
        budgets, runs = _trace("probe", [], freq)
        started = sum(ns for ns, _, _, prov, _ in runs[0]
                      if prov == "injected")
        _PROBES[freq] = budgets[0], budgets[0] - started
    return _PROBES[freq]


def _expected(charges, placed, left, freq):
    """The consumes ``charges`` make in the run where charge ``placed``
    starts with ``left`` ns of budget, and in the next run.

    A charge that fits is charged whole; one ending on the budget ends the
    run.  One that does not fit charges the whole cycles that do, burns
    what is left of the budget (less than a cycle) as zero-work time, and
    charges the rest in the next run.  Consecutive charges to one key make
    one consume unless a flush comes between them."""
    runs = [[], []]
    run = 0
    joins = False

    def add(run, key, ns, cycles):
        consumes = runs[run]
        if joins and consumes and consumes[-1][2:] == key:
            consumes[-1] = (consumes[-1][0] + ns, consumes[-1][1] + cycles,
                            *key)
        else:
            consumes.append((ns, cycles, *key))

    for index, charge in enumerate(charges):
        if charge is None:
            joins = False
            continue
        key, cycles = charge
        if index == placed and _ns(cycles, freq) > left:
            run_cycles = _avail(left, freq)
            add(run, key, left, run_cycles)
            run, joins = 1, False
            add(run, key, _ns(cycles - run_cycles, freq),
                cycles - run_cycles)
        else:
            add(run, key, _ns(cycles, freq), cycles)
            if index == placed and _ns(cycles, freq) == left:
                run, joins = 1, False
                continue
        joins = True
    return runs


def _left(where, cycles, freq):
    """Budget left when the placed charge starts."""
    ns = _ns(cycles, freq)
    return {"ends": ns, "straddles": ns // 2, "sub-cycle": 1}[where]


CASES = [(kind, where, freq) for kind in PLACED
         for where, freq in [("ends", DEFAULT_HZ), ("straddles", DEFAULT_HZ),
                             ("ends", SLOW_HZ), ("straddles", SLOW_HZ),
                             ("sub-cycle", SLOW_HZ)]]


@pytest.mark.parametrize("kind,where,freq", CASES)
def test_charge_on_a_budget_end(kind, where, freq):
    cfg = default_config(cpu_freq_hz=freq)
    charges = _charges(kind, cfg)
    placed = PLACED[kind]
    cycles = charges[placed][1]
    left = _left(where, cycles, freq)
    assert 0 < left <= _ns(cycles, freq)
    if where == "straddles":
        assert _avail(left, freq) > 0
    if where == "sub-cycle":
        assert _avail(left, freq) == 0
    before = sum(_ns(c[1], freq) for c in charges[:placed] if c is not None)
    budget, start = _first_run(freq)
    budgets, runs = _trace(kind, _lead(budget - start - before - left, freq),
                           freq)
    assert budgets[0] == budget
    mine = [[c for c in run if c[3] in ("injected", "lib")] for run in runs]
    assert mine[:2] == _expected(charges, placed, left, freq)
    assert not any(mine[2:])
    assert all(ns > 0 for run in runs for ns, *_ in run)
