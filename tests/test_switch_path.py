"""The context-switch round trips the paper's two costliest attacks repeat.

§IV-B1's Fork forks a child, the child exits and Fork waits for it; §IV-B2's
tracer is woken by a watchpoint trap that stops its victim, and resumes the
victim.  Each round trip runs through the kernel's fork, exit, wait, signal,
wake and switch paths once more, so its Python work is measured here as
the marginal count of Python function calls (each generator resume counts)
between two run lengths, and held to a budget.

The benchmark's per-layer metrics count calls into a few span-wrapped entry
points (``perfbench/spans.py``).  Inlining work on the switch path must not
move those counts, or the per-layer figures of two commits stop being
comparable; the second half of this file pins them.
"""

import os
import sys

import pytest

import repro
import repro.runner.specs as specs
from repro.analysis.figures import watched_variable
from repro.hw.machine import Machine
from repro.kernel.accounting import (
    DualAccounting,
    TickAccounting,
    TscAccounting,
)
from repro.kernel.engine import ExecutionEngine
from repro.kernel.kernel import Kernel
from repro.kernel.mm.manager import MemoryManager
from repro.kernel.sched import CfsScheduler, O1Scheduler, RoundRobinScheduler
from repro.runner import ExperimentSpec
from repro.sim.events import EventQueue

_SOURCE = os.path.dirname(repro.__file__) + os.sep

#: Python calls one fork → exit → wait round trip may make (it makes 76:
#: an exit-only child builds no address space or guest view).
FORK_BUDGET = 83
#: Python calls one watchpoint trap → stop → resume round trip may make
#: (it makes 144).
TRAP_BUDGET = 147


def fork_point(forks):
    return ExperimentSpec(program="fork", program_kwargs={"forks": forks})


def trap_point(iterations):
    return ExperimentSpec(
        program="O", program_kwargs={"iterations": iterations},
        attack="thrashing",
        attack_kwargs={"watch_symbol": watched_variable("O")})


def python_calls(spec):
    """(Python calls, result) of one run of ``spec``, counted with a
    ``sys.setprofile`` hook that sees every call and generator resume.

    Only calls into the simulator's own code count: calls into the
    standard library (enum descriptors, generated dataclass methods) vary
    with the interpreter, and the budget measures the simulator's work.
    A comprehension in the simulator's code still counts as a call before
    Python 3.12, which inlines it, so newer interpreters count no more."""
    specs.run_spec(spec)  # the first run of a plane may import its modules
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(_SOURCE):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = specs.run_spec(spec)
    finally:
        sys.setprofile(previous)
    return calls, result


def test_fork_round_trip_budget():
    short, _ = python_calls(fork_point(200))
    long, _ = python_calls(fork_point(400))
    per_fork = (long - short) / 200
    assert per_fork <= FORK_BUDGET, f"{per_fork:.1f} calls per fork"


def test_trap_round_trip_budget():
    short, short_result = python_calls(trap_point(200))
    long, long_result = python_calls(trap_point(400))
    traps = (long_result.stats["debug_exceptions"]
             - short_result.stats["debug_exceptions"])
    assert traps > 0
    per_trap = (long - short) / traps
    assert per_trap <= TRAP_BUDGET, f"{per_trap:.1f} calls per trap"


# ---------------------------------------------------------------------------
# entry-point counts
# ---------------------------------------------------------------------------

#: (owner, attribute, name) of every entry point the benchmark's spans wrap
#: that a batch point reaches; a name may cover several owners.
ENTRY_POINTS = [
    (specs, "run_spec", "runner.run_spec"),
    (Machine, "__init__", "machine.init"),
    (ExecutionEngine, "run", "engine.run"),
    (Kernel, "schedule", "kernel.schedule"),
    (CfsScheduler, "pick_next", "sched.pick_next"),
    (O1Scheduler, "pick_next", "sched.pick_next"),
    (RoundRobinScheduler, "pick_next", "sched.pick_next"),
    (MemoryManager, "classify", "mm.classify"),
    (TickAccounting, "on_tick", "acct.on_tick"),
    (TscAccounting, "on_tick", "acct.on_tick"),
    (DualAccounting, "on_tick", "acct.on_tick"),
    (EventQueue, "run_due", "events.run_due"),
]

#: Calls per entry point, recorded before the switch path was inlined.
ENTRY_COUNTS = {
    "fork-200": {
        "runner.run_spec": 1,
        "machine.init": 1,
        "engine.run": 404,
        "kernel.schedule": 401,
        "sched.pick_next": 401,
        "mm.classify": 0,
        "acct.on_tick": 4,
        "events.run_due": 4,
    },
    "thrashed-O-100": {
        "runner.run_spec": 1,
        "machine.init": 1,
        "engine.run": 206,
        "kernel.schedule": 307,
        "sched.pick_next": 307,
        "mm.classify": 451,
        "acct.on_tick": 8,
        "events.run_due": 108,
    },
}

POINTS = {"fork-200": fork_point(200), "thrashed-O-100": trap_point(100)}


def count_entry_calls(monkeypatch, spec):
    counts = {name: 0 for _owner, _attr, name in ENTRY_POINTS}
    for owner, attr, name in ENTRY_POINTS:
        original = getattr(owner, attr)

        def counted(*args, _fn=original, _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    specs.run_spec(spec)
    return counts


@pytest.mark.parametrize("point", list(POINTS))
def test_entry_point_counts_unchanged(monkeypatch, point):
    assert count_entry_calls(monkeypatch, POINTS[point]) \
        == ENTRY_COUNTS[point]
