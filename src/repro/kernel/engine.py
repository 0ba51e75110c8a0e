"""The op-stream execution engine: the simulated CPU core loop.

Drives one task's generator frames, converting ops into exactly-timed
slices of simulated work.  Everything the paper's attacks depend on happens
here, at its natural architectural point:

* ``Compute`` blocks are divisible, so a timer tick preempts mid-block at
  the exact nanosecond — tick *sampling* is therefore exact, unlike a pure
  Python timing harness (the calibration concern);
* ``Mem`` accesses consult the page table (minor/major faults) and the
  debug registers (watchpoint → debug exception → SIGTRAP), the thrashing
  and exception-flooding machinery;
* ``Syscall`` pushes a kernel-mode frame whose cycles are charged as system
  time attributed to the *calling code's provenance*, so injected code's
  syscalls are visible to the oracle;
* signals are delivered at the return-to-user boundary, costing kernel time
  in the target's context, as on real hardware.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from ..config import NS_PER_SEC
from ..errors import (
    FileNotFound,
    OutOfMemory,
    SimulationError,
)
from ..hw.cpu import CPUMode
from ..programs.base import GuestFunction
from ..programs.ops import (
    CallLib,
    CallNext,
    Compute,
    Invoke,
    Mem,
    Op,
    Provenance,
    Syscall,
)
from .accounting import ChargeKind
from .mm.manager import FaultKind
from .process import TaskState
from .signals import SIGSEGV, SIGTRAP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel
    from .process import Task

#: Hoisted enum members — the engine loop references these on every op.
_KIND_USER = ChargeKind.USER
_KIND_SYSCALL = ChargeKind.SYSCALL
_FAULT_HIT = FaultKind.HIT


class StopReason(enum.Enum):
    """Why the engine stopped running a task."""

    #: The time budget (distance to the next event) was used up.
    BUDGET = "budget"
    #: The kernel requested a reschedule (tick preemption, yield, wakeup).
    PREEMPTED = "preempted"
    #: The task blocked (wait, sleep, disk I/O).
    BLOCKED = "blocked"
    #: The task was stopped by a signal or a traced stop.
    STOPPED = "stopped"
    #: The task exited (or was killed).
    EXITED = "exited"


class Block(Op):
    """Kernel-internal op: park the task on ``channel`` until woken.

    Only kernel frames yield this.  The value passed to
    :meth:`Kernel.wake` is sent back into the yielding generator.
    """

    __slots__ = ("channel",)

    def __init__(self, channel: str) -> None:
        self.channel = channel

    def __repr__(self) -> str:
        return f"Block({self.channel!r})"


class ReplaceImage(Op):
    """Kernel-internal op: execve point-of-no-return.

    The engine discards the whole frame stack (including the syscall frame
    that yielded this) and installs the new process image.
    """

    __slots__ = ("program",)

    def __init__(self, program) -> None:
        self.program = program

    def __repr__(self) -> str:
        return f"ReplaceImage({self.program!r})"


class Frame:
    """One entry of a task's execution stack."""

    __slots__ = ("gen", "provenance", "name", "lib", "user_mode", "started")

    def __init__(self, gen, provenance: Provenance, name: str,
                 lib=None, user_mode: bool = True) -> None:
        self.gen = gen
        self.provenance = provenance
        self.name = name
        self.lib = lib
        self.user_mode = user_mode
        self.started = False

    def __repr__(self) -> str:
        mode = "user" if self.user_mode else "kernel"
        return f"Frame({self.name!r}, {self.provenance.value}, {mode})"


class Segment:
    """A chunk of pending timed work (divisible)."""

    __slots__ = ("cycles_left", "user_mode", "provenance", "kind", "on_done",
                 "benign_done")

    def __init__(self, cycles: int, user_mode: bool, provenance: Provenance,
                 kind: ChargeKind,
                 on_done: Optional[Callable[[], None]] = None,
                 benign_done: bool = False) -> None:
        self.cycles_left = int(cycles)
        self.user_mode = user_mode
        self.provenance = provenance
        self.kind = kind
        self.on_done = on_done
        #: True when ``on_done`` only mutates engine bookkeeping (pushing a
        #: frame, clearing pending state) and never observes the clock, the
        #: TSC, the accounts or the trace log — such callbacks may run while
        #: charges are still batched in the engine loop.
        self.benign_done = benign_done


class PendingMem:
    """A memory access in progress (possibly mid-fault or mid-trap)."""

    __slots__ = ("op", "remaining")

    def __init__(self, op: Mem) -> None:
        self.op = op
        self.remaining = op.repeat


class ExecState:
    """Per-task execution machinery."""

    __slots__ = ("frames", "segments", "send_value", "pending_mem",
                 "blocked_frame")

    def __init__(self) -> None:
        self.frames: List[Frame] = []
        self.segments: Deque[Segment] = deque()
        self.send_value: object = None
        self.pending_mem: Optional[PendingMem] = None
        #: Frame that yielded a Block, awaiting the wake payload.
        self.blocked_frame: Optional[Frame] = None

    def push_frame(self, frame: Frame) -> None:
        self.frames.append(frame)


class ExecutionEngine:
    """Runs tasks' op streams against the kernel and hardware."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    # -- public entry point ------------------------------------------------

    def run(self, task: "Task", budget_ns: int) -> Tuple[int, StopReason]:
        """Run ``task`` for at most ``budget_ns``; returns (consumed, why).

        The clock is advanced as work is consumed.  The engine stops at the
        first of: budget exhaustion, a kernel resched request, the task
        blocking/stopping/exiting.
        """
        checker = self.kernel.invariants
        if checker is None:
            return self._run_loop(task, budget_ns)
        # Under invariant checking, hold the engine to its own contract:
        # the consumed total it reports is exactly the time the clock
        # moved while it ran, and it never overruns its budget.
        start_ns = self.kernel.clock.now
        consumed, reason = self._run_loop(task, budget_ns)
        checker.on_engine_stop(task, consumed,
                               self.kernel.clock.now - start_ns, budget_ns)
        return consumed, reason

    def _run_loop(self, task: "Task", budget_ns: int) -> Tuple[int, StopReason]:
        kernel = self.kernel
        cpu = kernel.cpu
        freq = cpu.freq_hz
        mm = kernel.mm
        mem_cost = kernel.costs.mem_access_cycles
        plt_cost = kernel.costs.lib_call_cycles
        st = task.exec_state
        if st is None:
            raise SimulationError(f"task {task.pid} has no exec state")
        segments = st.segments
        consumed = 0

        # Deferred-charge batching.  Within one engine run no event can fire
        # (the machine hands us a budget that ends exactly at the next
        # event), and every component of kernel.consume — clock advance, TSC
        # retire, accounting charge, oracle charge, invariant ledger — is an
        # order-independent sum per (user_mode, provenance, kind) key.  So
        # the loop accumulates slices locally — the active key inline, any
        # other keys folded into a small dict — and issues one
        # kernel.consume per key at the next flush point.  A flush MUST
        # precede anything that could observe the clock, the TSC, the
        # accounts or the trace log mid-run: returning to the machine loop,
        # sending into kernel-mode frames (syscall handlers read the clock),
        # task exit, non-benign segment on_done callbacks (faults, signal
        # actions), and the cold _dispatch paths (Block, ReplaceImage).
        b_ns = 0
        b_cycles = 0
        b_user = True
        b_kind = None
        b_prov: Optional[Provenance] = None  # None <=> active batch is empty
        b_more = None  # folded non-active batches: key -> [ns, cycles]

        def fold() -> None:
            nonlocal b_ns, b_cycles, b_prov, b_more
            if b_more is None:
                b_more = {}
            entry = b_more.get((b_user, b_prov, b_kind))
            if entry is None:
                b_more[(b_user, b_prov, b_kind)] = [b_ns, b_cycles]
            else:
                entry[0] += b_ns
                entry[1] += b_cycles
            b_ns = 0
            b_cycles = 0
            b_prov = None

        def flush() -> None:
            nonlocal b_ns, b_cycles, b_prov, b_more
            if b_more is not None:
                if b_prov is not None:
                    fold()
                for (user, prov, kind), (ns, cycles) in b_more.items():
                    kernel.consume(task, ns, cycles, user, prov, kind)
                b_more = None
            elif b_prov is not None:
                kernel.consume(task, b_ns, b_cycles, b_user, b_prov, b_kind)
                b_ns = 0
                b_cycles = 0
                b_prov = None

        mode_user = CPUMode.USER
        mode_kernel = CPUMode.KERNEL
        running = TaskState.RUNNING
        ready = TaskState.READY

        while True:
            state = task.state
            if state is not running and state is not ready:
                if b_prov is not None or b_more is not None:
                    flush()
                return consumed, self._reason_for_state(task)
            if kernel.need_resched:
                if b_prov is not None or b_more is not None:
                    flush()
                return consumed, StopReason.PREEMPTED
            if consumed >= budget_ns:
                if b_prov is not None or b_more is not None:
                    flush()
                return consumed, StopReason.BUDGET

            if segments:
                seg = segments[0]
                user_mode = seg.user_mode
                cpu.mode = mode_user if user_mode else mode_kernel
                cycles_left = seg.cycles_left
                if cycles_left == 0:
                    segments.popleft()
                    if seg.on_done is not None:
                        if not seg.benign_done and (b_prov is not None
                                                    or b_more is not None):
                            flush()
                        seg.on_done()
                    continue
                if b_prov is not None and (
                        b_user is not user_mode
                        or b_prov is not seg.provenance
                        or b_kind is not seg.kind):
                    fold()
                avail = (budget_ns - consumed) * freq // NS_PER_SEC
                if avail <= 0:
                    # Sub-cycle remainder: burn it as zero-work time so the
                    # clock reaches the next event and the machine can make
                    # progress.
                    if b_prov is None:
                        b_user = user_mode
                        b_prov = seg.provenance
                        b_kind = seg.kind
                    b_ns += budget_ns - consumed
                    consumed = budget_ns
                    continue
                run = cycles_left if cycles_left < avail else avail
                ns = (run * NS_PER_SEC + freq - 1) // freq
                seg.cycles_left = cycles_left - run
                if b_prov is None:
                    b_user = user_mode
                    b_prov = seg.provenance
                    b_kind = seg.kind
                b_ns += ns
                b_cycles += run
                consumed += ns
                if run == cycles_left:
                    segments.popleft()
                    if seg.on_done is not None:
                        if not seg.benign_done and (b_prov is not None
                                                    or b_more is not None):
                            flush()
                        seg.on_done()
                continue

            # Return-to-user boundary: deliver pending signals first (the
            # delivery segment is kernel-mode, so a key-change flush happens
            # before it runs, and its apply() callback is non-benign).
            if task.pending_signals:
                kernel.deliver_signals(task)
                continue

            if st.pending_mem is not None:
                self._continue_mem(task, st, flush)
                continue

            # -- pull the next op ------------------------------------------
            frames = st.frames
            if not frames:
                # The root generator ran off its end without exit(): exit(0).
                flush()
                kernel.do_exit(task, 0)
                continue
            frame = frames[-1]
            value, st.send_value = st.send_value, None
            try:
                if frame.started:
                    if not frame.user_mode and (b_prov is not None
                                                or b_more is not None):
                        # Kernel frames (syscall handlers) may read the
                        # clock/TSC.  An *unstarted* kernel frame is exempt:
                        # it is always a syscall invocation body, and its
                        # code before the first yield is just the entry-cost
                        # op — it observes nothing.
                        flush()
                    op = frame.gen.send(value)
                else:
                    frame.started = True
                    op = frame.gen.send(None)
            except StopIteration as stop:
                frames.pop()
                st.send_value = stop.value
                if not frames and task.alive:
                    # Root frame finished without exit(): implicit
                    # exit(status).
                    flush()
                    code = stop.value if isinstance(stop.value, int) else 0
                    kernel.do_exit(task, code)
                continue

            # -- dispatch: hot ops inline, everything else via _dispatch ---
            op_cls = op.__class__
            if op_cls is Compute:
                # Fully inlined: run the first slice now, materialising a
                # Segment only for the part that does not fit in the
                # remaining budget.  The send that produced the op may have
                # run kernel code (handlers post signals, wake tasks, queue
                # work), so the loop-top checks must be re-established
                # first — if any fail, queue the whole op and let the loop
                # top decide, exactly as the cold dispatch path would.
                state = task.state
                if (kernel.need_resched or segments
                        or (state is not running and state is not ready)):
                    segments.append(Segment(
                        op.cycles, frame.user_mode, frame.provenance,
                        _KIND_USER if frame.user_mode else _KIND_SYSCALL))
                    continue
                user_mode = frame.user_mode
                cpu.mode = mode_user if user_mode else mode_kernel
                cycles_left = op.cycles
                if cycles_left:
                    prov = frame.provenance
                    kind = _KIND_USER if user_mode else _KIND_SYSCALL
                    if b_prov is not None and (
                            b_user is not user_mode
                            or b_prov is not prov
                            or b_kind is not kind):
                        fold()
                    avail = (budget_ns - consumed) * freq // NS_PER_SEC
                    if avail <= 0:
                        # Sub-cycle remainder (see the segment loop above).
                        if b_prov is None:
                            b_user = user_mode
                            b_prov = prov
                            b_kind = kind
                        b_ns += budget_ns - consumed
                        consumed = budget_ns
                        segments.append(Segment(cycles_left, user_mode,
                                                prov, kind))
                        continue
                    if cycles_left > avail:
                        segments.append(Segment(cycles_left - avail,
                                                user_mode, prov, kind))
                        run = avail
                    else:
                        run = cycles_left
                    ns = (run * NS_PER_SEC + freq - 1) // freq
                    if b_prov is None:
                        b_user = user_mode
                        b_prov = prov
                        b_kind = kind
                    b_ns += ns
                    b_cycles += run
                    consumed += ns
                continue
            if op_cls is Mem:
                if not frame.user_mode:
                    raise SimulationError(
                        "kernel frames may not yield Mem ops")
                # Fast path: a present page with debug registers disarmed
                # and no queued work, signal or resched — charge every
                # repeat straight into the batch, exactly what the slow
                # path's single plain segment would do.  (The slow path
                # delivers pending signals *before* the access, so any
                # pending signal forces it.)
                state = task.state
                space = task.mm
                if (space is not None and not task.debug.armed
                        and not kernel.need_resched and not segments
                        and not task.pending_signals
                        and (state is running or state is ready)
                        and mm.classify(space, op.vaddr) is _FAULT_HIT):
                    cycles_left = mem_cost * op.repeat
                    avail = (budget_ns - consumed) * freq // NS_PER_SEC
                    if cycles_left <= avail:
                        mm.note_access(space, op.vaddr, op.write)
                        cpu.mode = mode_user
                        if cycles_left:
                            prov = frame.provenance
                            if b_prov is not None and (
                                    b_user is not True
                                    or b_prov is not prov
                                    or b_kind is not _KIND_USER):
                                fold()
                            ns = (cycles_left * NS_PER_SEC + freq - 1) // freq
                            if b_prov is None:
                                b_user = True
                                b_prov = prov
                                b_kind = _KIND_USER
                            b_ns += ns
                            b_cycles += cycles_left
                            consumed += ns
                        st.send_value = None
                        continue
                st.pending_mem = PendingMem(op)
                continue
            if op_cls is Syscall:
                self._start_syscall(task, st, frame, op)
                continue
            if op_cls is Invoke:
                fn = op.fn
                st.push_frame(Frame(
                    fn.instantiate(task.guest_ctx, *op.args),
                    fn.provenance, fn.name, user_mode=frame.user_mode))
                continue
            if op_cls is CallLib:
                # Fast path: resolve, charge the whole PLT overhead into
                # the batch and push the callee — what the slow path's
                # PLT segment plus benign push on_done would do, provided
                # that segment could not be preempted or split.
                state = task.state
                if (not kernel.need_resched and not segments
                        and (state is running or state is ready)):
                    ctx = task.guest_ctx
                    link_map = (ctx.shared.get("_link_map")
                                if ctx is not None else None)
                    if link_map is not None:
                        try:
                            lib, fn = link_map.resolve(op.symbol)
                        except FileNotFound:
                            lib = None
                        if lib is not None:
                            avail = ((budget_ns - consumed)
                                     * freq // NS_PER_SEC)
                            if plt_cost <= avail:
                                cpu.mode = mode_user
                                if plt_cost:
                                    prov = frame.provenance
                                    if b_prov is not None and (
                                            b_user is not True
                                            or b_prov is not prov
                                            or b_kind is not _KIND_USER):
                                        fold()
                                    ns = ((plt_cost * NS_PER_SEC + freq - 1)
                                          // freq)
                                    if b_prov is None:
                                        b_user = True
                                        b_prov = prov
                                        b_kind = _KIND_USER
                                    b_ns += ns
                                    b_cycles += plt_cost
                                    consumed += ns
                                st.push_frame(Frame(
                                    fn.instantiate(ctx, *op.args),
                                    fn.provenance,
                                    f"{lib.name}:{op.symbol}", lib=lib))
                                continue
                self._call_lib(task, st, frame, op.symbol, op.args,
                               after=None, flush=flush)
                continue
            if op_cls is CallNext:
                if frame.lib is None:
                    raise SimulationError(
                        "CallNext outside a library function frame")
                self._call_lib(task, st, frame, op.symbol, op.args,
                               after=frame.lib, flush=flush)
                continue
            flush()
            self._dispatch(task, st, frame, op)

    # -- op dispatch --------------------------------------------------------------

    def _dispatch(self, task: "Task", st: ExecState, frame: Frame,
                  op: Op) -> None:
        kernel = self.kernel
        if isinstance(op, Compute):
            kind = ChargeKind.USER if frame.user_mode else ChargeKind.SYSCALL
            st.segments.append(Segment(op.cycles, frame.user_mode,
                                       frame.provenance, kind))
            return
        if isinstance(op, Mem):
            if not frame.user_mode:
                raise SimulationError("kernel frames may not yield Mem ops")
            st.pending_mem = PendingMem(op)
            return
        if isinstance(op, Syscall):
            self._start_syscall(task, st, frame, op)
            return
        if isinstance(op, Invoke):
            fn: GuestFunction = op.fn
            gen = fn.instantiate(task.guest_ctx, *op.args)
            st.push_frame(Frame(gen, fn.provenance, fn.name,
                                user_mode=frame.user_mode))
            return
        if isinstance(op, CallLib):
            self._call_lib(task, st, frame, op.symbol, op.args, after=None)
            return
        if isinstance(op, CallNext):
            if frame.lib is None:
                raise SimulationError(
                    "CallNext outside a library function frame")
            self._call_lib(task, st, frame, op.symbol, op.args,
                           after=frame.lib)
            return
        if isinstance(op, Block):
            if frame.user_mode:
                raise SimulationError("user frames may not yield Block ops")
            st.blocked_frame = frame
            kernel.block_current(task, op.channel)
            return
        if isinstance(op, ReplaceImage):
            kernel.install_image(task, op.program)
            return
        raise SimulationError(f"unknown op {op!r}")

    def _call_lib(self, task: "Task", st: ExecState, frame: Frame,
                  symbol: str, args, after,
                  flush: Optional[Callable[[], None]] = None) -> None:
        kernel = self.kernel
        link_map = task.guest_ctx.shared.get("_link_map") if task.guest_ctx else None
        if link_map is None:
            raise SimulationError(
                f"task {task.pid} has no link map (not exec'd?)")
        try:
            if after is None:
                lib, fn = link_map.resolve(symbol)
            else:
                lib, fn = link_map.resolve_after(symbol, after)
        except FileNotFound:
            # Undefined symbol at call time: the process dies like a
            # lazy-binding failure would.
            if flush is not None:
                flush()
            kernel.trace("link", f"undefined symbol {symbol}", task.pid)
            kernel.do_exit(task, 127)
            return
        gen = fn.instantiate(task.guest_ctx, *args)
        callee = Frame(gen, fn.provenance, f"{lib.name}:{symbol}", lib=lib)
        # Small PLT-call overhead charged to the caller, then enter callee.
        st.segments.append(Segment(
            kernel.costs.lib_call_cycles, True, frame.provenance,
            ChargeKind.USER, on_done=lambda: st.push_frame(callee),
            benign_done=True))

    # -- syscalls ------------------------------------------------------------------

    def _start_syscall(self, task: "Task", st: ExecState, caller: Frame,
                       op: Syscall) -> None:
        kernel = self.kernel
        gen = kernel.syscalls.frame(task, op.name, op.args, caller.provenance)
        st.push_frame(Frame(gen, caller.provenance, f"sys_{op.name}",
                            user_mode=False))

    # -- memory ---------------------------------------------------------------------

    def _continue_mem(self, task: "Task", st: ExecState,
                      flush: Optional[Callable[[], None]] = None) -> None:
        kernel = self.kernel
        pending = st.pending_mem
        op = pending.op
        mm = kernel.mm
        space = task.mm
        if space is None:
            raise SimulationError(f"task {task.pid} has no address space")

        kind = mm.classify(space, op.vaddr)
        if kind is FaultKind.SEGV:
            st.pending_mem = None
            if flush is not None:
                flush()
            kernel.trace("fault", f"SIGSEGV at 0x{op.vaddr:x}", task.pid)
            kernel.post_signal(task, SIGSEGV)
            return
        if kind is FaultKind.MINOR:
            self._start_minor_fault(task, st, op)
            return
        if kind is FaultKind.MAJOR:
            self._start_major_fault(task, st, op)
            return

        # Present page.
        frame_prov = st.frames[-1].provenance if st.frames else Provenance.USER
        watched = task.debug.armed and task.debug.hit(op.vaddr, op.write) is not None
        mm.note_access(space, op.vaddr, op.write)
        cost = kernel.costs.mem_access_cycles
        if not watched:
            # Fast path: all remaining repeats as one divisible segment.
            repeats = pending.remaining
            st.pending_mem = None

            def done_plain() -> None:
                st.send_value = None

            st.segments.append(Segment(cost * repeats, True, frame_prov,
                                       ChargeKind.USER, on_done=done_plain,
                                       benign_done=True))
            return

        # Watched access: one access, then the debug exception fires.
        pending.remaining -= 1
        last = pending.remaining == 0

        def done_watched() -> None:
            if last:
                st.pending_mem = None
                st.send_value = None
            self._debug_exception(task, st)

        st.segments.append(Segment(cost, True, frame_prov, ChargeKind.USER,
                                   on_done=done_watched))

    def _debug_exception(self, task: "Task", st: ExecState) -> None:
        """A hardware watchpoint fired: exception, then SIGTRAP."""
        kernel = self.kernel
        kernel.trace("debug", "watchpoint hit", task.pid)
        task.debug_exceptions += 1

        def done() -> None:
            kernel.post_signal(task, SIGTRAP)

        st.segments.append(Segment(
            kernel.costs.debug_exception_cycles, False, Provenance.TRACER,
            ChargeKind.SYSCALL, on_done=done))

    def _start_minor_fault(self, task: "Task", st: ExecState, op: Mem) -> None:
        kernel = self.kernel
        task.minor_faults += 1
        frame_prov = st.frames[-1].provenance if st.frames else Provenance.USER

        def done() -> None:
            try:
                wrote_back = kernel.mm.complete_minor_fault(task.mm, op.vaddr)
            except OutOfMemory:
                if not kernel.oom_kill(requester=task):
                    raise
                if not task.alive:
                    return
                wrote_back = kernel.mm.complete_minor_fault(task.mm, op.vaddr)
            self._charge_reclaim(task, st, frame_prov)
            if wrote_back:
                kernel.swap_writeback(task)

        st.segments.append(Segment(
            kernel.costs.minor_fault_cycles +
            kernel.costs.page_zero_cycles, False, frame_prov,
            ChargeKind.SYSCALL, on_done=done))

    def _start_major_fault(self, task: "Task", st: ExecState, op: Mem) -> None:
        kernel = self.kernel
        task.major_faults += 1
        frame_prov = st.frames[-1].provenance if st.frames else Provenance.USER

        def done() -> None:
            try:
                frame, wrote_back = kernel.mm.begin_major_fault(task.mm, op.vaddr)
            except OutOfMemory:
                if not kernel.oom_kill(requester=task):
                    raise
                if not task.alive:
                    return
                frame, wrote_back = kernel.mm.begin_major_fault(task.mm, op.vaddr)
            self._charge_reclaim(task, st, frame_prov)
            if wrote_back:
                kernel.swap_writeback(task)
            kernel.begin_swap_in(task, op.vaddr, frame)

        st.segments.append(Segment(
            kernel.costs.major_fault_cycles, False, frame_prov,
            ChargeKind.SYSCALL, on_done=done))

    def _charge_reclaim(self, task: "Task", st: ExecState,
                        provenance: Provenance) -> None:
        """Charge direct-reclaim scan work performed by the last allocation."""
        kernel = self.kernel
        scanned = kernel.mm.last_reclaim_scanned
        if not scanned:
            return
        kernel.mm.last_reclaim_scanned = 0
        cycles = scanned * kernel.costs.reclaim_scan_cycles_per_frame
        st.segments.append(Segment(cycles, False, provenance,
                                   ChargeKind.SYSCALL))

    # -- helpers --------------------------------------------------------------------

    @staticmethod
    def _reason_for_state(task: "Task") -> StopReason:
        if task.state is TaskState.WAITING:
            return StopReason.BLOCKED
        if task.state is TaskState.STOPPED:
            return StopReason.STOPPED
        if task.state in (TaskState.ZOMBIE, TaskState.DEAD):
            return StopReason.EXITED
        raise SimulationError(
            f"engine stopped with task in state {task.state}")
