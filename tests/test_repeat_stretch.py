"""Leaf library calls and closed-form ``Repeat`` stretches.

Whetstone runs its cycles as one ``Repeat``; the engine charges the pure
stretches of it in one step.  The first half of this file holds that to
the op-by-op program it replaced, byte for byte, on every plane and under
the attacks that force the op-by-op fallback.  The second half puts one
leaf call exactly on a budget's end, and bounds the Python work a
Whetstone run does per tick.
"""

import json

import pytest

import repro.runner.specs as specs
from repro import Machine, default_config
from repro.analysis.experiment import DEFAULT_MAX_NS, run_experiment
from repro.faults import sweep_plan
from repro.kernel.engine import ExecutionEngine
from repro.kernel.loader.library import SharedLibrary
from repro.kernel.loader.linker import LinkMap
from repro.programs.base import GuestFunction, LeafFunction, Program
from repro.programs.ops import (
    CallLib,
    Compute,
    Mem,
    Provenance,
    Repeat,
    Syscall,
)
from repro.programs.stdlib import SQRT_CYCLES, make_libm
from repro.programs.whetstone import (
    MODULE3_ARRAY_CYCLES,
    MODULE4_COND_CYCLES,
    MODULE6_INT_CYCLES,
    MODULE11_STD_CYCLES,
    PAGE,
    T1_VAR,
    WS_PAGES,
    make_whetstone,
)
from repro.runner import ExperimentSpec
from repro.timesync.spec import sweep_timesync

from .guest_helpers import run_all, spawn_fn
from .test_switch_path import python_calls


# ---------------------------------------------------------------------------
# the op-by-op Whetstone, kept as the reference
# ---------------------------------------------------------------------------

def _per_op_main(ctx):
    """Whetstone as it was written before ``Repeat``: every op yielded one
    by one, each libm result fed to the next call."""
    (loops,) = ctx.argv
    addr_t1 = ctx.addr(T1_VAR)
    addr_ws = ctx.addr("e1_array")
    e1 = yield CallLib("malloc", (4 * 1024,))
    for cycle in range(loops):
        yield Compute(MODULE3_ARRAY_CYCLES)
        yield Mem(addr_ws + (cycle % WS_PAGES) * PAGE, write=True)
        yield Mem(addr_t1, write=True, repeat=2)
        yield Compute(MODULE4_COND_CYCLES)
        t = yield CallLib("sin", (0.5,))
        t = yield CallLib("cos", (t,))
        yield Compute(MODULE6_INT_CYCLES)
        t = yield CallLib("sqrt", (abs(t) + 1.0,))
        yield CallLib("exp", (t / 2.0,))
        yield Compute(MODULE11_STD_CYCLES)
    yield CallLib("free", (e1,))
    rusage = yield Syscall("getrusage")
    ctx.shared["rusage"] = rusage
    return 0


def per_op_whetstone(loops):
    program = make_whetstone(loops)
    return Program(program.name, _per_op_main,
                   data_symbols=program.data_symbols,
                   needed_libs=program.needed_libs, argv=program.argv)


def result_doc(spec, program):
    result = run_experiment(
        program, attack=spec.build_attack(), cfg=spec.resolved_config(),
        run_attacker_to_completion=spec.run_attacker_to_completion,
        check_invariants=spec.check_invariants, faults=spec.faults,
        timesync=spec.timesync, vm=spec.vm,
        max_ns=spec.max_ns or DEFAULT_MAX_NS)
    return json.dumps(result.to_dict(), sort_keys=True)


#: 21 whole 16-cycle laps plus a 5-cycle remainder.
LOOPS = 341


def w_spec(**fields):
    return ExperimentSpec(program="W", program_kwargs={"loops": LOOPS},
                          **fields)


DIFFERENTIAL = {
    **{f"hz{hz}-{acct}": w_spec(cfg=default_config(hz=hz, accounting=acct))
       for hz in (100, 250, 1000) for acct in ("tick", "tsc", "dual")},
    "nproc2": w_spec(nproc=2),
    "vm": w_spec(vm={}),
    "vm-sched": w_spec(vm={}, attack="sched",
                       attack_kwargs={"burn_fraction": 0.5}),
    "faults": w_spec(faults=sweep_plan(0.2, watchdog=True).to_dict()),
    "timesync": w_spec(
        timesync=sweep_timesync(2_000_000, scale=0.1).to_dict()),
    "invariants": w_spec(check_invariants=True),
    # The attacks that force the op-by-op fallback: a watchpoint on T1,
    # a substituted sqrt and a flood of faults on the working set.
    "thrashing": w_spec(attack="thrashing",
                        attack_kwargs={"watch_symbol": T1_VAR}),
    "library-subst": w_spec(attack="library-subst",
                            attack_kwargs={"symbols": ["sqrt"]}),
    "fault-flood": w_spec(attack="fault-flood"),
}


@pytest.mark.parametrize("case", list(DIFFERENTIAL))
def test_repeat_whetstone_matches_per_op(case):
    spec = DIFFERENTIAL[case]
    repeat = result_doc(spec, spec.build_program())
    assert repeat == json.dumps(specs.run_spec(spec).to_dict(),
                                sort_keys=True)
    assert repeat == result_doc(spec, per_op_whetstone(LOOPS))


@pytest.mark.parametrize("loops", [1, 15, 16, 17, 32])
def test_lap_and_remainder_edges_match_per_op(loops):
    spec = ExperimentSpec(program="W", program_kwargs={"loops": loops})
    assert result_doc(spec, make_whetstone(loops)) \
        == result_doc(spec, per_op_whetstone(loops))


def _loop_trace(repeat):
    """Run two loops, as ``Repeat`` ops or op by op, with every page's
    referenced and dirty bits cleared at each tick.  Returns the task's
    consume calls, its oracle buckets in order and the bits the second
    loop left on its pages."""
    machine = Machine(default_config())
    kernel = machine.kernel
    phys = kernel.mm.phys
    record = {}

    def loop(ops, times):
        if repeat:
            yield Repeat(ops, times)
        else:
            for _ in range(times):
                for op in ops:
                    yield op

    def body(ctx):
        # The task's first user work is a leaf call: one stretch charges
        # two keys the oracle has not seen, in the op-by-op order.
        yield from loop((CallLib("sqrt", (2.0,)), Compute(50_000)), 200)
        addr = yield Syscall("mmap", (4,))
        for page in range(4):
            yield Mem(addr + page * PAGE, write=True)
        yield from loop((Compute(50_000), Mem(addr, write=True),
                         CallLib("sqrt", (2.0,)), Compute(50_000),
                         Mem(addr + PAGE),
                         Mem(addr + 2 * PAGE, write=True, repeat=3)), 400)
        record["bits"] = [(frame.vpn, frame.referenced, frame.dirty)
                          for frame in phys.frames
                          if frame is not None and not frame.free]

    task = spawn_fn(machine, body)
    task.guest_ctx.shared["_link_map"] = LinkMap([make_libm()])
    charges = []
    consume, on_tick = kernel.consume, kernel.accounting.on_tick

    def recording_consume(t, ns, cycles, user, prov, kind):
        if t is task:
            charges.append((ns, cycles, user, prov.value, kind.value))
        consume(t, ns, cycles, user, prov, kind)

    def clearing_on_tick(*args):
        for frame in phys.frames:
            if frame is not None:
                frame.referenced = frame.dirty = False
        return on_tick(*args)

    kernel.consume = recording_consume
    kernel.accounting.on_tick = clearing_on_tick
    run_all(machine, [task])
    return {"charges": charges, "oracle": list(task.oracle_ns.items()),
            "bits": record["bits"]}


def test_stretch_charges_match_op_by_op():
    repeat = _loop_trace(repeat=True)
    assert len(repeat["charges"]) > 4
    assert any(referenced for _, referenced, _ in repeat["bits"])
    assert repeat == _loop_trace(repeat=False)


# ---------------------------------------------------------------------------
# one leaf call on the budget's end
# ---------------------------------------------------------------------------

def _generator_sqrt(ctx, x=2.0):
    yield Compute(SQRT_CYCLES)
    return float(abs(x)) ** 0.5


#: libm's sqrt as a generator function: the path every call took before
#: leaves, and the reference a leaf call must match.
GENERATOR_SQRT = GuestFunction("libm.sqrt", _generator_sqrt, Provenance.LIB)


def _call_on_tick(lead_cycles, sqrt_fn):
    """Run [Compute(lead), sqrt, Compute] on a fresh machine; return the
    task's consume calls, its usage, the value sqrt returned and how many
    leaf generators started."""
    machine = Machine(default_config())
    libm = SharedLibrary("libm", symbols={"sqrt": sqrt_fn})
    record = {}

    def body(ctx):
        yield Compute(lead_cycles)
        record["value"] = yield CallLib("sqrt", (9.0,))
        yield Compute(100_000)

    task = spawn_fn(machine, body)
    task.guest_ctx.shared["_link_map"] = LinkMap([libm])
    kernel = machine.kernel
    charges, budgets, started = [], [], [0]
    consume, engine_run = kernel.consume, ExecutionEngine.run
    instantiate = LeafFunction.instantiate

    def recording_consume(t, ns, cycles, user, prov, kind):
        if t is task:
            charges.append((ns, cycles, user, prov.value, kind.value))
        consume(t, ns, cycles, user, prov, kind)

    def recording_run(engine, t, budget_ns):
        if t is task:
            budgets.append(budget_ns)
        return engine_run(engine, t, budget_ns)

    def counting_instantiate(fn, ctx, *args):
        started[0] += 1
        return instantiate(fn, ctx, *args)

    kernel.consume = recording_consume
    ExecutionEngine.run = recording_run
    LeafFunction.instantiate = counting_instantiate
    try:
        run_all(machine, [task])
    finally:
        ExecutionEngine.run = engine_run
        LeafFunction.instantiate = instantiate
    usage = kernel.accounting.usage(task)
    return {"charges": charges, "budgets": budgets,
            "usage": (usage.utime_ns, usage.stime_ns),
            "oracle": sorted((k[0], k[1].value, v)
                             for k, v in task.oracle_ns.items()),
            "value": record["value"], "started": started[0]}


def _cycles_for_ns(ns, freq):
    """The fewest cycles whose ceil-rounded length is ``ns``."""
    return (ns - 1) * freq // 10**9 + 1


def _ns(cycles, freq):
    return (cycles * 10**9 + freq - 1) // freq


@pytest.fixture(scope="module")
def first_budget():
    """The budget of the task's first engine run: the lead Compute plus the
    call must end exactly there.  It does not depend on the ops."""
    return _call_on_tick(1_000, GENERATOR_SQRT)["budgets"][0]


@pytest.mark.parametrize("where", ["plt-ends-on-tick", "leaf-straddles",
                                   "leaf-ends-on-tick"])
def test_leaf_call_on_a_budget_end_matches_a_generator(first_budget, where):
    cfg = default_config()
    freq = cfg.cpu_freq_hz
    plt_ns = _ns(cfg.costs.lib_call_cycles, freq)
    leaf_ns = _ns(SQRT_CYCLES, freq)
    lead_ns = {"plt-ends-on-tick": first_budget - plt_ns,
               "leaf-straddles": first_budget - plt_ns - leaf_ns // 2,
               "leaf-ends-on-tick": first_budget - plt_ns - leaf_ns}[where]
    lead = _cycles_for_ns(lead_ns, freq)
    assert _ns(lead, freq) == lead_ns
    leaf = _call_on_tick(lead, make_libm().symbols["sqrt"])
    reference = _call_on_tick(lead, GENERATOR_SQRT)
    assert leaf["budgets"][0] == first_budget
    started = leaf.pop("started")
    reference.pop("started")
    assert leaf == reference
    assert leaf["value"] == 3.0
    # A call whose leaf does not fit takes a generator, split at the
    # same nanosecond; one that fits takes none.
    assert started == (0 if where == "leaf-ends-on-tick" else 1)


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

#: Python calls a Whetstone run may make per tick, whatever its length.
CALLS_PER_TICK_BUDGET = 180


@pytest.mark.parametrize("hz", [100, 1000])
def test_whetstone_python_calls_per_tick_are_bounded(hz):
    cfg = default_config(hz=hz)
    runs = [python_calls(ExperimentSpec(program="W", cfg=cfg,
                                        program_kwargs={"loops": loops}))
            for loops in (800, 1600, 3200)]
    for (short, short_result), (long, long_result) in zip(runs, runs[1:]):
        ticks = long_result.stats["ticks"] - short_result.stats["ticks"]
        assert ticks > 0
        per_tick = (long - short) / ticks
        assert per_tick <= CALLS_PER_TICK_BUDGET, \
            f"{per_tick:.1f} calls per tick at hz={hz}"


def test_whetstone_starts_no_libm_generator(monkeypatch):
    started = []
    instantiate = LeafFunction.instantiate

    def counting(fn, ctx, *args):
        started.append(fn.name)
        return instantiate(fn, ctx, *args)

    monkeypatch.setattr(LeafFunction, "instantiate", counting)
    for loops in (190, 1600):
        specs.run_spec(ExperimentSpec(program="W",
                                      program_kwargs={"loops": loops}))
    assert started == []


# ---------------------------------------------------------------------------
# the pieces
# ---------------------------------------------------------------------------

def test_repeat_takes_only_pure_op_kinds():
    with pytest.raises(ValueError, match="Repeat bodies"):
        Repeat((Syscall("getpid"),), 2)
    with pytest.raises(ValueError, match="times"):
        Repeat((Compute(1),), -1)


def test_repeat_discards_call_results_and_resumes_with_none():
    machine = Machine(default_config())
    record = {}

    def body(ctx):
        record["after"] = yield Repeat(
            (Compute(1_000), CallLib("sqrt", (4.0,))), 3)
        record["next"] = yield CallLib("sqrt", (4.0,))

    task = spawn_fn(machine, body)
    task.guest_ctx.shared["_link_map"] = LinkMap([make_libm()])
    run_all(machine, [task])
    assert record == {"after": None, "next": 2.0}


def test_link_map_resolution_cache_drops_on_change():
    libm = make_libm()
    preload = SharedLibrary("libfake", symbols={"sqrt": GENERATOR_SQRT})
    link_map = LinkMap([libm])
    assert link_map.resolve("sqrt")[0] is libm
    version = link_map.version
    link_map.append(preload)
    assert link_map.resolve("sqrt")[0] is libm  # appended: searched last
    link_map.remove(libm)
    assert link_map.resolve("sqrt")[0] is preload
    assert link_map.version == version + 2


def test_leaf_measures_by_result_and_cost():
    genuine = make_libm()
    assert genuine.text_digest() == make_libm().text_digest()
    substituted = make_libm()
    substituted.symbols["sqrt"] = GENERATOR_SQRT
    assert substituted.text_digest() != genuine.text_digest()
    recosted = make_libm()
    sqrt = recosted.symbols["sqrt"]
    recosted.symbols["sqrt"] = LeafFunction(sqrt.name, sqrt.cycles + 1,
                                            sqrt.result)
    assert recosted.text_digest() != genuine.text_digest()
