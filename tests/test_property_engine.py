"""Property-based tests driving whole-machine invariants with random
guest programs."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro import Machine, default_config
from repro.analysis.experiment import run_experiment
from repro.hw.cpu import CPUMode
from repro.programs.base import GuestFunction, Program
from repro.programs.ops import (
    CallLib,
    Compute,
    Mem,
    Provenance,
    Repeat,
    Syscall,
)

#: One random "instruction" of a generated guest program.
op_descriptor = st.one_of(
    st.tuples(st.just("compute"), st.integers(1, 5_000_000)),
    st.tuples(st.just("mem"), st.integers(0, 63)),
    st.tuples(st.just("getpid"), st.just(0)),
    st.tuples(st.just("sleep"), st.integers(1, 2_000_000)),
)


def build_body(descriptors):
    def body(ctx):
        addr = yield Syscall("mmap", (64,))
        for kind, arg in descriptors:
            if kind == "compute":
                yield Compute(arg)
            elif kind == "mem":
                yield Mem(addr + arg * 4096, write=True)
            elif kind == "getpid":
                yield Syscall("getpid")
            elif kind == "sleep":
                yield Syscall("nanosleep", (arg,))
        return 0

    return body


class TestEngineConservation:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(op_descriptor, min_size=1, max_size=40))
    def test_oracle_accounts_exactly_the_requested_compute(self, descriptors):
        m = Machine(default_config())
        fn = GuestFunction("rand", build_body(descriptors), Provenance.USER)
        task = m.kernel.spawn(fn, name="rand")
        m.run_until_exit([task], max_ns=60 * 10**9)

        assert task.exit_code == 0
        requested = sum(arg for kind, arg in descriptors if kind == "compute")
        expected_ns = m.cpu.cycles_to_ns(requested)
        user_ns = task.oracle_ns.get((True, Provenance.USER), 0)
        mem_count = sum(1 for kind, _ in descriptors if kind == "mem")
        mem_ns_max = m.cpu.cycles_to_ns(
            (mem_count + 64) * m.cfg.costs.mem_access_cycles)
        # User-mode oracle time = compute + memory accesses, within slice
        # rounding (<=1 ns per preemption).
        assert expected_ns <= user_ns + 1 <= expected_ns + mem_ns_max + 500

    @settings(max_examples=20, deadline=None)
    @given(st.lists(op_descriptor, min_size=1, max_size=30))
    def test_wall_clock_bounds_cpu_time(self, descriptors):
        m = Machine(default_config())
        fn = GuestFunction("rand", build_body(descriptors), Provenance.USER)
        task = m.kernel.spawn(fn, name="rand")
        m.run_until_exit([task], max_ns=60 * 10**9)
        total_cpu = sum(task.oracle_ns.values())
        assert total_cpu <= m.clock.now

    @settings(max_examples=15, deadline=None)
    @given(st.lists(op_descriptor, min_size=1, max_size=25),
           st.sampled_from(["tick", "tsc"]))
    def test_tick_count_conserved(self, descriptors, accounting):
        m = Machine(default_config(accounting=accounting))
        fn = GuestFunction("rand", build_body(descriptors), Provenance.USER)
        task = m.kernel.spawn(fn, name="rand")
        m.run_until_exit([task], max_ns=60 * 10**9)
        assert (task.acct_ticks + m.kernel.accounting.idle_ticks
                == m.kernel.timekeeper.jiffies)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(op_descriptor, min_size=1, max_size=25))
    def test_tsc_billing_matches_oracle(self, descriptors):
        """Under fine-grained accounting the bill equals the oracle's
        total for the task, exactly."""
        m = Machine(default_config(accounting="tsc"))
        fn = GuestFunction("rand", build_body(descriptors), Provenance.USER)
        task = m.kernel.spawn(fn, name="rand")
        m.run_until_exit([task], max_ns=60 * 10**9)
        billed = m.kernel.accounting.usage(task).total_ns
        oracle = sum(task.oracle_ns.values())
        assert billed == oracle

    @settings(max_examples=10, deadline=None)
    @given(st.lists(op_descriptor, min_size=1, max_size=20))
    def test_runs_are_bit_reproducible(self, descriptors):
        def run():
            m = Machine(default_config())
            fn = GuestFunction("rand", build_body(descriptors),
                               Provenance.USER)
            task = m.kernel.spawn(fn, name="rand")
            m.run_until_exit([task], max_ns=60 * 10**9)
            return (m.clock.now, m.cpu.read_tsc(),
                    tuple(sorted((k[1].value, v)
                                 for k, v in task.oracle_ns.items())))

        assert run() == run()


# ---------------------------------------------------------------------------
# Repeat(body, k) against the same ops yielded one by one
# ---------------------------------------------------------------------------

#: Pages of the drawn programs' buffer; some are touched before the loop.
BUF_PAGES = 6

#: One op of a drawn loop body: any op kind a ``Repeat`` body may hold.
repeat_op = st.one_of(
    st.tuples(st.just("compute"), st.integers(1, 300_000)),
    st.tuples(st.just("mem"), st.tuples(st.integers(0, BUF_PAGES - 1),
                                        st.booleans(), st.integers(1, 4))),
    st.tuples(st.just("leaf"), st.sampled_from(
        [("sqrt", (2.0,)), ("sin", (0.5,)), ("exp", (1.0,))]
        + [("md5_block", (blocks,)) for blocks in (1, 3, 40)])),
    # A generator library function, with accesses of its own.
    st.tuples(st.just("memcpy"), st.tuples(st.integers(0, BUF_PAGES - 1),
                                           st.integers(0, BUF_PAGES - 1))),
)


def _loop_op(desc, base):
    kind, arg = desc
    if kind == "compute":
        return Compute(arg)
    if kind == "mem":
        page, write, repeat = arg
        return Mem(base + page * 4096, write=write, repeat=repeat)
    if kind == "leaf":
        return CallLib(*arg)
    dst, src = arg
    return CallLib("memcpy", (base + dst * 4096, base + src * 4096, 2048))


def _loop_run(descs, times, touched, hz, repeat):
    """Run the drawn loop as one ``Repeat`` or op by op, with every page's
    referenced and dirty bits cleared at each tick.  Returns every consume
    call, the victim's oracle buckets in order, the bits its pages hold
    after the loop and the result doc."""
    record = {"consumes": []}

    def main(ctx):
        base = ctx.addr("buf")
        for page in touched:
            yield Mem(base + page * 4096, write=True)
        body = tuple(_loop_op(desc, base) for desc in descs)
        if repeat:
            yield Repeat(body, times)
        else:
            for _ in range(times):
                for op in body:
                    yield op
        record["task"] = record["kernel"].current
        record["bits"] = [(frame.vpn, frame.referenced, frame.dirty)
                          for frame in record["kernel"].mm.phys.frames
                          if frame is not None and not frame.free]
        rusage = yield Syscall("getrusage")
        ctx.shared["rusage"] = rusage
        return 0

    def hook(machine):
        kernel = record["kernel"] = machine.kernel
        consume, on_tick = kernel.consume, kernel.accounting.on_tick

        def recording_consume(t, ns, cycles, user, prov, kind):
            record["consumes"].append(
                (t.pid, ns, cycles, user, prov.value, kind.value))
            consume(t, ns, cycles, user, prov, kind)

        def clearing_on_tick(*args):
            for frame in kernel.mm.phys.frames:
                if frame is not None:
                    frame.referenced = frame.dirty = False
            return on_tick(*args)

        kernel.consume = recording_consume
        kernel.accounting.on_tick = clearing_on_tick

    program = Program("loop", main, data_symbols={"buf": BUF_PAGES * 4096},
                      needed_libs=("libc", "libm", "libcrypto"))
    result = run_experiment(program, cfg=default_config(hz=hz),
                            machine_hook=hook)
    return {"consumes": record["consumes"],
            "oracle": list(record["task"].oracle_ns.items()),
            "bits": record["bits"], "doc": result.to_dict()}


class TestRepeatMatchesOpByOp:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(repeat_op, min_size=1, max_size=8),
           st.integers(1, 60),
           st.sets(st.integers(0, BUF_PAGES - 1)),
           st.sampled_from([100, 250, 1000]))
    def test_repeat_charges_like_the_ops_one_by_one(self, descs, times,
                                                    touched, hz):
        touched = sorted(touched)
        repeat = _loop_run(descs, times, touched, hz, repeat=True)
        assert repeat["doc"]["rusage"] is not None
        assert repeat == _loop_run(descs, times, touched, hz, repeat=False)
