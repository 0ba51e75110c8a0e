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
* ``Syscall`` pushes a :class:`SyscallFrame` the engine advances through
  its entry, cost, body and exit phases; the cycles are charged as system
  time attributed to the *calling code's provenance*, so injected code's
  syscalls are visible to the oracle;
* signals are delivered at the return-to-user boundary, costing kernel time
  in the target's context, as on real hardware;
* a ``CallLib`` to a leaf library function (a cost plus a pure result) is
  charged on the spot, with no frame; a ``Repeat`` loop runs as a
  :class:`RepeatFrame` whose pure stretches are charged in closed form,
  while the op that straddles the budget's end, or is not pure, still
  takes the paths above.

Each of these decides only what to charge: cycles, mode, provenance,
kind, and what follows once the charge completes.  One charge step in
:meth:`ExecutionEngine.run` does the charging for all of them: it
converts the cycles to ceil(cycles·1e9/freq) ns, charges what fits the
budget, burns a sub-cycle remainder and queues the rest as a
:class:`Segment`.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from functools import partial
from itertools import accumulate
from collections import deque
from types import GeneratorType
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from ..config import NS_PER_SEC
from ..errors import (
    FileNotFound,
    KernelError,
    OutOfMemory,
    SimulationError,
)
from ..hw.cpu import CPUMode
from ..programs.ops import (
    CallLib,
    CallNext,
    Compute,
    Invoke,
    Mem,
    Op,
    Provenance,
    Repeat,
    Syscall,
)
from ..programs.base import LeafFunction
from .accounting import ChargeKind
from .mm.manager import FaultKind
from .process import TaskState
from .signals import SIGSEGV, SIGTRAP

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .kernel import Kernel
    from .process import Task
    from .syscalls import SyscallHandler

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


#: Hoisted for the run loop's exits.
_WAITING = TaskState.WAITING
_STOPPED = TaskState.STOPPED
_BLOCKED = StopReason.BLOCKED
_STOPPED_REASON = StopReason.STOPPED
_EXITED = StopReason.EXITED
_PREEMPTED = StopReason.PREEMPTED
_BUDGET = StopReason.BUDGET


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


#: SyscallFrame phases: what the engine does when it next advances the
#: frame.  _START counts the call and starts its cost, _BODY runs the body
#: (or its continuation), _EXIT starts the exit cost and _RETURN pops the
#: frame, handing the result to the caller.
_ENTER, _START, _BODY, _EXIT, _RETURN = range(5)


class SyscallFrame(Frame):
    """One system call in progress, advanced by the engine itself.

    The phases run entry cost → handler cost → body → exit cost, each at
    the simulated instant the previous one completes.  ``gen`` stays None
    unless the body returned a continuation (a call that blocks or charges
    in more than one phase); the engine then drives it like any kernel
    frame until it returns the call's result.
    """

    __slots__ = ("handler", "args", "phase", "result")

    # Fixed for every syscall frame; class attributes shadow Frame's slots
    # so construction skips them.  Syscall frames are the only frames that
    # run in kernel mode: the engine tells them apart by ``user_mode``.
    lib = None
    user_mode = False
    started = True

    def __init__(self, name: str, args: Tuple,
                 handler: Optional["SyscallHandler"],
                 provenance: Provenance) -> None:
        self.gen = None
        self.provenance = provenance
        self.name = name
        self.handler = handler
        self.args = args
        self.phase = _ENTER

    def finish(self, result) -> None:
        """The call's result is known: only the exit cost remains."""
        self.gen = None
        self.result = result
        self.phase = _EXIT

    def __repr__(self) -> str:
        return f"SyscallFrame({self.name!r}, {self.provenance.value})"


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


class ChargeBatch:
    """Charges the run loop has made but not yet handed to the kernel.

    Within one engine run no event can fire (the machine hands the engine
    a budget that ends exactly at the next event), and every component of
    ``kernel.consume`` — clock advance, TSC retire, accounting charge,
    oracle charge, invariant ledger — is an order-independent sum per
    (user_mode, provenance, kind) key.  So the loop sums slices here and
    :meth:`flush` issues one ``kernel.consume`` per key, in the order the
    keys were first charged.  The active key's sums sit in ``ns`` and
    ``cycles``; :meth:`switch` folds them into ``more`` when another key
    is charged.  Each engine keeps one batch, empty between runs.
    """

    __slots__ = ("ns", "cycles", "user", "prov", "kind", "more")

    def __init__(self) -> None:
        self.ns = 0
        self.cycles = 0
        self.user = True
        #: The active key's provenance; None <=> the active key is empty.
        self.prov: Optional[Provenance] = None
        self.kind: Optional[ChargeKind] = None
        #: Folded keys in first-charged order: key -> [ns, cycles].
        self.more: Optional[dict] = None

    def switch(self, user: bool, prov: Provenance, kind: ChargeKind) -> None:
        """Make (user, prov, kind) the active key, folding the old one."""
        if self.prov is not None:
            more = self.more
            if more is None:
                more = self.more = {}
            key = (self.user, self.prov, self.kind)
            entry = more.get(key)
            if entry is None:
                more[key] = [self.ns, self.cycles]
            else:
                entry[0] += self.ns
                entry[1] += self.cycles
            self.ns = 0
            self.cycles = 0
        self.user = user
        self.prov = prov
        self.kind = kind

    def flush(self, kernel: "Kernel", task: "Task") -> None:
        """One ``kernel.consume`` per key, in first-charged order: the
        folded keys, then the active one unless it was folded before."""
        more = self.more
        if more is not None:
            self.more = None
            if self.prov is not None:
                entry = more.get((self.user, self.prov, self.kind))
                if entry is not None:
                    entry[0] += self.ns
                    entry[1] += self.cycles
                    self.ns = 0
                    self.cycles = 0
                    self.prov = None
            for (user, prov, kind), (ns, cycles) in more.items():
                kernel.consume(task, ns, cycles, user, prov, kind)
        if self.prov is not None:
            kernel.consume(task, self.ns, self.cycles, self.user, self.prov,
                           self.kind)
            self.ns = 0
            self.cycles = 0
            self.prov = None

    def clear(self) -> None:
        """Drop every charge unflushed."""
        self.ns = 0
        self.cycles = 0
        self.prov = None
        self.more = None


class RepeatFrame(Frame):
    """A :class:`~repro.programs.ops.Repeat` loop in progress.

    The engine hands out ``body[done % len(body)]`` op by op, or advances
    ``done`` over a whole stretch at once (:meth:`ExecutionEngine._stretch`).
    Its ops run with the provenance of the frame that yielded the loop.
    """

    __slots__ = ("body", "done", "total", "plan")

    gen = None
    lib = None
    user_mode = True
    started = True

    def __init__(self, op: Repeat, provenance: Provenance) -> None:
        self.provenance = provenance
        self.name = "repeat"
        self.body = op.body
        self.done = 0
        self.total = len(op.body) * op.times
        self.plan: Optional[RepeatPlan] = None


class RepeatPlan:
    """What a stretch of one loop body costs, op by op, in closed form.

    Built for one link map version and clock frequency.  ``ns_at[i]`` is
    the time ops ``[0, i)`` of the body take; per charge key ``q``,
    ``key_ns[q][i]`` and ``key_cycles[q][i]`` split it by key.  The body's
    charges (an op charges up to two: a leaf call its PLT overhead, then
    the leaf) are numbered in order; ``unit_at[i]`` is the number before
    op ``i`` and ``key_units[q]`` lists the ones charged to key ``q``.
    ``impure`` lists the calls that resolve to no leaf, and ``mems`` the
    body's accesses as (index, vaddr, write).
    """

    __slots__ = ("link_map", "version", "freq", "ns_at", "keys", "key_ns",
                 "key_cycles", "unit_at", "key_units", "impure", "mems",
                 "mem_at")

    def __init__(self, body: Tuple[Op, ...], provenance: Provenance,
                 link_map, freq: int, mem_cost: int, plt_cost: int) -> None:
        self.link_map = link_map
        self.version = link_map.version if link_map is not None else None
        self.freq = freq
        keys = [(True, provenance, _KIND_USER)]
        # Per distinct op: its charges as ((key index, ns, cycles), ...),
        # or None for a call that resolves to no leaf.
        charges = {}
        for op in body:
            if op in charges:
                continue
            cls = op.__class__
            if cls is Compute:
                costs = ((0, op.cycles),)
            elif cls is Mem:
                costs = ((0, mem_cost * op.repeat),)
            else:  # CallLib
                found = (link_map.lookup(op.symbol)
                         if link_map is not None else None)
                fn = found[1] if found is not None else None
                if fn.__class__ is not LeafFunction:
                    charges[op] = None
                    continue
                key = (True, fn.provenance, _KIND_USER)
                if key not in keys:
                    keys.append(key)
                costs = ((0, plt_cost), (keys.index(key), fn.cost(op.args)))
            charges[op] = tuple(
                (q, (cycles * NS_PER_SEC + freq - 1) // freq, cycles)
                for q, cycles in costs if cycles)
        self.impure = [i for i, op in enumerate(body) if charges[op] is None]
        self.mems = [(i, op.vaddr, op.write) for i, op in enumerate(body)
                     if op.__class__ is Mem]
        self.mem_at = [i for i, _, _ in self.mems]
        n = len(body)
        key_ns = [[0] * n for _ in keys]
        key_cycles = [[0] * n for _ in keys]
        key_units: List[List[int]] = [[] for _ in keys]
        self.unit_at = unit_at = [0]
        units = 0
        for i, op in enumerate(body):
            for q, ns, cycles in charges[op] or ():
                key_ns[q][i] += ns
                key_cycles[q][i] += cycles
                key_units[q].append(units)
                units += 1
            unit_at.append(units)
        self.ns_at = list(accumulate(map(sum, zip(*key_ns)), initial=0))
        # Only keys the body charges take part in a stretch.
        used = [q for q in range(len(keys)) if key_units[q]]
        self.keys = [keys[q] for q in used]
        self.key_ns = [list(accumulate(key_ns[q], initial=0)) for q in used]
        self.key_cycles = [list(accumulate(key_cycles[q], initial=0))
                           for q in used]
        self.key_units = [key_units[q] for q in used]

    def stale(self, link_map, freq: int) -> bool:
        return (link_map is not self.link_map or freq != self.freq
                or (link_map is not None
                    and link_map.version != self.version))


class ExecutionEngine:
    """Runs tasks' op streams against the kernel and hardware."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        costs = kernel.costs
        #: What every run() call reads before its loop, in one tuple:
        #: unpacking it is cheaper than a dozen attribute loads per run.
        self._loop_constants = (
            kernel.mm, costs.mem_access_cycles, costs.lib_call_cycles,
            costs.syscall_entry_cycles, costs.syscall_exit_cycles,
            kernel.syscalls.handlers, kernel.syscalls.invocations,
            CPUMode.USER, CPUMode.KERNEL, TaskState.RUNNING, TaskState.READY)
        self._batch = ChargeBatch()

    # -- public entry point ------------------------------------------------

    def run(self, task: "Task", budget_ns: int) -> Tuple[int, StopReason]:
        """Run ``task`` for at most ``budget_ns``; returns (consumed, why).

        The clock is advanced as work is consumed.  The engine stops at the
        first of: budget exhaustion, a kernel resched request, the task
        blocking/stopping/exiting.
        """
        kernel = self.kernel
        cpu = kernel.cpu
        freq = cpu.freq_hz
        start_ns = kernel.clock._now
        (mm, mem_cost, plt_cost, entry_cycles, exit_cycles, handlers,
         invocations, mode_user, mode_kernel, running,
         ready) = self._loop_constants
        st = task.exec_state
        if st is None:
            raise SimulationError(f"task {task.pid} has no exec state")
        segments = st.segments
        frames = st.frames
        consumed = 0
        # Charges are batched (see ChargeBatch).  A flush MUST precede
        # anything that could observe the clock, the TSC, the accounts or
        # the trace log mid-run: returning to the machine loop, running a
        # syscall body or sending into its continuation (they read the
        # clock), a syscall error trace, task exit, non-benign segment
        # on_done callbacks (faults, signal actions), and the cold _dispatch
        # paths (Block, ReplaceImage).
        batch = self._batch
        if batch.prov is not None or batch.more is not None:
            batch.clear()  # left over by a run that raised

        while True:
            state = task.state
            if state is not running and state is not ready:
                # Waiting, stopped, or exited (zombie or dead).
                reason = (_BLOCKED if state is _WAITING
                          else _STOPPED_REASON if state is _STOPPED
                          else _EXITED)
                break
            if kernel.need_resched:
                reason = _PREEMPTED
                break
            if consumed >= budget_ns:
                reason = _BUDGET
                break

            # Each branch below decides only what to charge: ``cycles`` in
            # user or kernel mode, to (``prov``, ``kind``), and what
            # follows once the charge completes: the head segment ``seg``
            # is popped and its on_done run; a call ``then`` enters its
            # callee ``fn``; a syscall frame (``advance``) goes on to its
            # next phase, which the charge step works out.  A branch with
            # nothing to charge continues.  The charge step at the end of
            # the loop does the charging.
            seg = then = None
            advance = False
            recheck = True
            if segments:
                # The loop top has just made every check.
                seg = segments[0]
                cycles = seg.cycles_left
                user_mode = seg.user_mode
                prov = seg.provenance
                kind = seg.kind
                recheck = False
            elif task.pending_signals:
                # Return-to-user boundary: deliver pending signals first (the
                # delivery segment is kernel-mode, so a key-change flush
                # happens before it runs, and its apply() callback is
                # non-benign).
                kernel.deliver_signals(task)
                continue
            elif st.pending_mem is not None:
                cycles = self._continue_mem(task, st, batch)
                if cycles is None:
                    continue
                user_mode = True
                prov = frames[-1].provenance if frames else Provenance.USER
                kind = _KIND_USER
            else:
                # -- pull the next op --------------------------------------
                if not frames:
                    # The root generator ran off its end without exit():
                    # exit(0).
                    batch.flush(kernel, task)
                    kernel.do_exit(task, 0)
                    continue
                frame = frames[-1]
                if frame.user_mode:
                    if frame.__class__ is RepeatFrame:
                        # Every loop-top check holds here, so the ops ahead
                        # may run as one stretch (see _stretch); the op
                        # after the stretch, if the budget is not spent, is
                        # handed out below like any yielded op.
                        st.send_value = None  # call results are discarded
                        done = frame.done
                        if done < frame.total and not task.debug.armed:
                            consumed += self._stretch(
                                task, frame, budget_ns - consumed, freq)
                            if frame.done != done:
                                cpu.mode = mode_user
                                done = frame.done
                        if done == frame.total:
                            frames.pop()
                            continue
                        if consumed >= budget_ns:
                            continue
                        body = frame.body
                        op = body[done % len(body)]
                        frame.done = done + 1
                        op_cls = op.__class__
                    else:
                        value, st.send_value = st.send_value, None
                        try:
                            if frame.started:
                                op = frame.gen.send(value)
                            else:
                                frame.started = True
                                op = frame.gen.send(None)
                            op_cls = op.__class__
                        except StopIteration as stop:
                            frames.pop()
                            st.send_value = stop.value
                            if not frames and task.alive:
                                # Root frame finished without exit():
                                # implicit exit(status).
                                batch.flush(kernel, task)
                                code = (stop.value
                                        if isinstance(stop.value, int) else 0)
                                kernel.do_exit(task, code)
                            continue
                elif frame.gen is None:
                    # A syscall frame between phases: advance it below.
                    op_cls = None
                else:
                    # A syscall continuation; it may read the clock/TSC.
                    if batch.prov is not None or batch.more is not None:
                        batch.flush(kernel, task)
                    value, st.send_value = st.send_value, None
                    try:
                        op = frame.gen.send(value)
                        op_cls = op.__class__
                    except StopIteration as stop:
                        frame.gen = None  # finish(), inlined
                        frame.result = stop.value
                        frame.phase = _EXIT
                        op_cls = None
                    except KernelError as err:
                        frame.finish(self._syscall_failed(task, frame, err))
                        op_cls = None

                # -- what the op charges -----------------------------------
                if op_cls is Compute:
                    cycles = op.cycles
                    user_mode = frame.user_mode
                    prov = frame.provenance
                    kind = _KIND_USER if user_mode else _KIND_SYSCALL
                elif op_cls is Mem:
                    if not frame.user_mode:
                        raise SimulationError(
                            "kernel frames may not yield Mem ops")
                    # A present page with debug registers disarmed and no
                    # queued work, signal or resched: every repeat is one
                    # plain charge.  Anything else parks the access for
                    # _continue_mem, which delivers pending signals first
                    # and then faults, traps or charges it.
                    state = task.state
                    space = task.mm
                    if (space is None or task.debug.armed
                            or kernel.need_resched or segments
                            or task.pending_signals
                            or (state is not running and state is not ready)
                            or mm.classify(space, op.vaddr) is not _FAULT_HIT):
                        st.pending_mem = PendingMem(op)
                        continue
                    mm.note_access(space, op.vaddr, op.write)
                    st.send_value = None
                    cycles = mem_cost * op.repeat
                    user_mode = True
                    prov = frame.provenance
                    kind = _KIND_USER
                elif op_cls is CallLib or op_cls is CallNext:
                    # Resolve, then charge the PLT overhead to the caller;
                    # the callee is entered once that charge completes.
                    if op_cls is CallLib:
                        ctx = task.guest_ctx
                        link_map = (ctx.shared.get("_link_map")
                                    if ctx is not None else None)
                        found = (link_map.lookup(op.symbol)
                                 if link_map is not None else None)
                        if found is None:
                            found = self._resolve(task, op.symbol, None,
                                                  batch)
                    elif frame.lib is None:
                        raise SimulationError(
                            "CallNext outside a library function frame")
                    else:
                        found = self._resolve(task, op.symbol, frame.lib,
                                              batch)
                    if found is None:
                        continue  # an undefined symbol killed the process
                    lib, fn = found
                    then = op
                    cycles = plt_cost
                    user_mode = True
                    prov = frame.provenance
                    kind = _KIND_USER
                elif op_cls is Invoke:
                    fn = op.fn
                    frames.append(Frame(
                        fn.instantiate(task.guest_ctx, *op.args),
                        fn.provenance, fn.name, user_mode=frame.user_mode))
                    continue
                elif op_cls is Repeat:
                    if not frame.user_mode:
                        raise SimulationError(
                            "kernel frames may not yield Repeat ops")
                    frames.append(RepeatFrame(op, frame.provenance))
                    continue
                elif op_cls is Syscall or op_cls is None:
                    if op_cls is Syscall:
                        frame = SyscallFrame(op.name, op.args,
                                             handlers.get(op.name),
                                             frame.provenance)
                        frames.append(frame)
                    # Every phase charges kernel time to the caller.
                    advance = True
                    user_mode = False
                    prov = frame.provenance
                    kind = _KIND_SYSCALL
                else:
                    batch.flush(kernel, task)
                    self._dispatch(task, st, frame, op)
                    continue

            # -- the charge step ---------------------------------------------
            while True:
                if advance:
                    # The syscall frame's next phase.  A step that charges
                    # nothing (a failed call, a body that returns its
                    # result) goes straight on to the next phase; each phase
                    # that charges is charged below like any op, so a tick
                    # can split a phase, and preemption or a signal can come
                    # between phases, at the same nanosecond as if every
                    # phase were its own op.
                    while True:
                        phase = frame.phase
                        if phase == _ENTER:
                            frame.phase = _START
                            cycles = entry_cycles
                        elif phase == _START:
                            handler = frame.handler
                            if handler is None:
                                batch.flush(kernel, task)
                                kernel.trace("syscall",
                                             f"ENOSYS {frame.name}", task.pid)
                                frame.finish(-38)  # ENOSYS
                                continue
                            name = frame.name
                            invocations[name] = invocations.get(name, 0) + 1
                            cycles = handler.cost
                            if cycles.__class__ is not int:
                                try:
                                    cycles = cycles(kernel, task, *frame.args)
                                except KernelError as err:
                                    batch.flush(kernel, task)
                                    frame.finish(self._syscall_failed(
                                        task, frame, err))
                                    continue
                            frame.phase = _BODY
                        elif phase == _BODY:
                            # The body runs at the instant its cost
                            # completed and may read the clock, the TSC or
                            # the accounts.
                            if batch.prov is not None or batch.more is not None:
                                batch.flush(kernel, task)
                            try:
                                result = frame.handler.body(kernel, task,
                                                            *frame.args)
                                if result.__class__ is not GeneratorType:
                                    frame.result = result  # finish(), inlined
                                    frame.phase = _EXIT
                                    continue
                                frame.gen = result
                                op = result.send(None)
                            except StopIteration as stop:
                                frame.finish(stop.value)
                                continue
                            except KernelError as err:
                                frame.finish(self._syscall_failed(task, frame,
                                                                  err))
                                continue
                            if op.__class__ is not Compute:
                                self._dispatch(task, st, frame, op)
                                cycles = None
                            else:
                                cycles = op.cycles
                        elif phase == _EXIT:
                            frame.phase = _RETURN
                            cycles = exit_cycles
                        else:  # _RETURN
                            frames.pop()
                            st.send_value = frame.result
                            cycles = None
                        break
                    if cycles is None:
                        break
                # ``rest``: the cycles left to queue, or None once the charge
                # completes in place.
                if recheck and (kernel.need_resched or segments
                                or consumed >= budget_ns
                                or (task.state is not running
                                    and task.state is not ready)):
                    # The send that produced the op, or a syscall body, may
                    # have run kernel code (handlers post signals, wake
                    # tasks, queue work).  If a loop-top check no longer
                    # holds, or nothing of the budget is left, queue the
                    # whole charge, activating no key, and let the loop top
                    # decide.
                    rest = cycles
                else:
                    cpu.mode = mode_user if user_mode else mode_kernel
                    rest = None
                    if cycles:
                        if batch.prov is None:
                            batch.user = user_mode
                            batch.prov = prov
                            batch.kind = kind
                        elif (batch.prov is not prov
                                or batch.user is not user_mode
                                or batch.kind is not kind):
                            batch.switch(user_mode, prov, kind)
                        ns = (cycles * NS_PER_SEC + freq - 1) // freq
                        if ns > budget_ns - consumed:
                            # Split at the budget's end: charge the whole
                            # cycles that fit, each slice its own
                            # ceil(cycles·1e9/freq) ns.  A sub-cycle
                            # remainder is burnt as zero-work time, so the
                            # clock reaches the next event and the machine
                            # can make progress.  The rest is queued.
                            ns = budget_ns - consumed
                            run = ns * freq // NS_PER_SEC
                            if run:
                                ns = (run * NS_PER_SEC + freq - 1) // freq
                                batch.cycles += run
                            rest = cycles - run
                        else:
                            batch.cycles += cycles
                        batch.ns += ns
                        consumed += ns
                if rest is not None:
                    if seg is None:
                        segments.append(Segment(
                            rest, user_mode, prov, kind,
                            None if then is None else partial(
                                frames.append,
                                self._callee(task, then, lib, fn)), True))
                    else:
                        seg.cycles_left = rest
                    break
                # The charge completed in place.
                if advance:
                    if (consumed < budget_ns and frame.gen is None
                            and not task.pending_signals):
                        # Every loop-top check still holds (the next
                        # phase's check makes the rest), so the frame goes
                        # on to its next phase in this pass.
                        continue
                elif seg is not None:
                    segments.popleft()
                    if seg.on_done is not None:
                        if not seg.benign_done and (batch.prov is not None
                                                    or batch.more is not None):
                            batch.flush(kernel, task)
                        seg.on_done()
                elif then is not None:
                    # Enter the callee.  A leaf whose cycles fit what is
                    # left of the budget is charged here, with no frame, and
                    # its result sent back; any other callee runs as a
                    # frame (a leaf's generic generator splits where its
                    # Compute meets the budget's end).  Nothing can have
                    # changed since the PLT charge's check.
                    args = then.args
                    if fn.__class__ is LeafFunction:
                        cycles = fn.cycles
                        if cycles.__class__ is not int:
                            cycles = cycles(*args)
                        if ((cycles * NS_PER_SEC + freq - 1) // freq
                                <= budget_ns - consumed):
                            st.send_value = fn.result(*args)
                            prov = fn.provenance
                            then = None
                            recheck = False
                            continue
                    frames.append(self._callee(task, then, lib, fn))
                break

        if batch.prov is not None or batch.more is not None:
            batch.flush(kernel, task)
        checker = kernel.invariants
        if checker is not None:
            # Under invariant checking, hold the engine to its own
            # contract: the consumed total it reports is exactly the time
            # the clock moved while it ran, and it never overruns its
            # budget.
            checker.on_engine_stop(task, consumed,
                                   kernel.clock._now - start_ns, budget_ns)
        return consumed, reason

    # -- op dispatch --------------------------------------------------------------

    def _dispatch(self, task: "Task", st: ExecState, frame: Frame,
                  op: Op) -> None:
        """The cold ops: everything the run loop does not handle inline.
        A syscall continuation's ``Compute`` is charged by the loop too,
        so only ``Block`` and ``ReplaceImage`` land here."""
        kernel = self.kernel
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

    def _resolve(self, task: "Task", symbol: str, after,
                 batch: "ChargeBatch"):
        """The (library, function) a call binds to, for the calls the run
        loop's cached lookup does not bind: ``CallNext`` (RTLD_NEXT, the
        next definition after library ``after``) and an undefined symbol,
        which kills the process like a lazy-binding failure (returns None).
        """
        kernel = self.kernel
        link_map = task.guest_ctx.shared.get("_link_map") if task.guest_ctx else None
        if link_map is None:
            raise SimulationError(
                f"task {task.pid} has no link map (not exec'd?)")
        try:
            if after is None:
                return link_map.resolve(symbol)
            return link_map.resolve_after(symbol, after)
        except FileNotFound:
            batch.flush(kernel, task)
            kernel.trace("link", f"undefined symbol {symbol}", task.pid)
            kernel.do_exit(task, 127)
            return None

    def _callee(self, task: "Task", op, lib, fn) -> Frame:
        """The frame a call ``op`` to ``fn`` in ``lib`` runs as; a PLT
        charge that does not complete in place pushes it on completion."""
        return Frame(fn.instantiate(task.guest_ctx, *op.args), fn.provenance,
                     f"{lib.name}:{op.symbol}", lib=lib)

    # -- repeat loops ---------------------------------------------------------------

    def _stretch(self, task: "Task", frame: RepeatFrame, left: int,
                 freq: int) -> int:
        """Advance ``frame`` over the ops ahead in one step; return the ns.

        The stretch ends before the first op that is not pure or does not
        fit in the ``left`` ns of budget, so that op runs through the
        ordinary paths, split at the exact cycle where it straddles a tick.
        Pure ops cannot fault, trap, block or run non-leaf code: every
        ``Compute``, a ``Mem`` whose page classifies HIT (the caller checks
        that no debug register is armed) and a ``CallLib`` that resolves to
        a leaf.  Each op is charged exactly as the op-by-op paths charge
        it: its own ceil(cycles·1e9/freq) ns per charge, each key's totals
        in first-charged order, the referenced/dirty bits set once per
        distinct access.  The caller ensures nothing is queued, pending or
        rescheduled and that the task is runnable, as at any op pull.
        """
        space = task.mm
        ctx = task.guest_ctx
        if space is None or ctx is None:
            return 0
        link_map = ctx.shared.get("_link_map")
        plan = frame.plan
        if plan is None or plan.stale(link_map, freq):
            _, mem_cost, plt_cost = self._loop_constants[:3]
            plan = frame.plan = RepeatPlan(frame.body, frame.provenance,
                                           link_map, freq, mem_cost, plt_cost)
        n = len(frame.body)
        done = frame.done
        p = done % n
        limit = frame.total - done
        # The budget: ops run while they fit, and the run ends at an op
        # that ends exactly on the budget.  Counting from the body's
        # start, the first m ops end at (m // n) * total + ns_at[m % n];
        # take the largest m whose end is within the budget, or the
        # smallest whose end equals it.
        ns_at = plan.ns_at
        total_ns = ns_at[n]
        if total_ns:
            laps, part = divmod(ns_at[p] + left - 1, total_ns)
            part += 1
            i = bisect_left(ns_at, part)
            fit = laps * n + (i if ns_at[i] == part else i - 1) - p
            if fit < limit:
                limit = fit
        impure = plan.impure
        if impure:
            i = bisect_left(impure, p)
            gap = impure[i] - p if i < len(impure) else impure[0] + n - p
            if gap < limit:
                limit = gap
        mems = plan.mems
        if mems and limit > 0:
            classify = self.kernel.mm.classify
            count = len(mems)
            first = bisect_left(plan.mem_at, p)
            seen = set()
            for j in range(first, first + count):
                if j < count:
                    i, vaddr, _ = mems[j]
                    gap = i - p
                else:
                    i, vaddr, _ = mems[j - count]
                    gap = i + n - p
                if gap >= limit:
                    break
                if vaddr not in seen:
                    seen.add(vaddr)
                    if classify(space, vaddr) is not _FAULT_HIT:
                        limit = gap
                        break
        if limit <= 0:
            return 0

        laps, end = divmod(p + limit, n)
        unit_at = plan.unit_at
        start = unit_at[p]
        units = laps * unit_at[n] + unit_at[end] - start
        order = []
        for q, key_units in enumerate(plan.key_units):
            k = bisect_left(key_units, start)
            gap = (key_units[k] - start if k < len(key_units)
                   else key_units[0] + unit_at[n] - start)
            if gap < units:
                order.append((gap, q))
        order.sort()
        batch = self._batch
        for _, q in order:
            user, prov, kind = plan.keys[q]
            if (batch.prov is not prov or batch.user is not user
                    or batch.kind is not kind):
                batch.switch(user, prov, kind)
            key_ns = plan.key_ns[q]
            key_cycles = plan.key_cycles[q]
            batch.ns += laps * key_ns[n] + key_ns[end] - key_ns[p]
            batch.cycles += (laps * key_cycles[n] + key_cycles[end]
                             - key_cycles[p])
        if mems:
            note_access = self.kernel.mm.note_access
            noted = set()
            for j in range(first, first + count):
                if j < count:
                    i, vaddr, write = mems[j]
                    gap = i - p
                else:
                    i, vaddr, write = mems[j - count]
                    gap = i + n - p
                if gap >= limit:
                    break
                if (vaddr, write) not in noted:
                    noted.add((vaddr, write))
                    note_access(space, vaddr, write)
        frame.done = done + limit
        return laps * total_ns + ns_at[end] - ns_at[p]

    # -- syscalls ------------------------------------------------------------------

    def _syscall_failed(self, task: "Task", frame: SyscallFrame,
                        err: KernelError) -> int:
        """A handler raised: trace it and return the negative errno."""
        self.kernel.trace("syscall", f"{frame.name} -> -{err.errname}",
                          task.pid)
        return -err.errno

    # -- memory ---------------------------------------------------------------------

    def _continue_mem(self, task: "Task", st: ExecState,
                      batch: "ChargeBatch") -> Optional[int]:
        """Resume the pending access.  A fault, a trap or SIGSEGV queues its
        own work and returns None; a plain access to a present page returns
        the cycles of its remaining repeats, which the run loop charges."""
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
            batch.flush(kernel, task)
            kernel.trace("fault", f"SIGSEGV at 0x{op.vaddr:x}", task.pid)
            kernel.post_signal(task, SIGSEGV)
            return None
        if kind is not _FAULT_HIT:
            self._start_fault(task, st, op, kind is FaultKind.MAJOR)
            return None

        # Present page.
        watched = task.debug.armed and task.debug.hit(op.vaddr, op.write) is not None
        mm.note_access(space, op.vaddr, op.write)
        cost = kernel.costs.mem_access_cycles
        if not watched:
            st.pending_mem = None
            st.send_value = None
            return cost * pending.remaining

        # Watched access: one access, then the debug exception fires.
        pending.remaining -= 1
        last = pending.remaining == 0
        frame_prov = st.frames[-1].provenance if st.frames else Provenance.USER

        def done_watched() -> None:
            if last:
                st.pending_mem = None
                st.send_value = None
            self._debug_exception(task, st)

        st.segments.append(Segment(cost, True, frame_prov, ChargeKind.USER,
                                   on_done=done_watched))
        return None

    def _debug_exception(self, task: "Task", st: ExecState) -> None:
        """A hardware watchpoint fired: exception, then SIGTRAP."""
        kernel = self.kernel
        kernel.trace("debug", "watchpoint hit", task.pid)
        task.debug_exceptions += 1
        st.segments.append(Segment(
            kernel.costs.debug_exception_cycles, False, Provenance.TRACER,
            ChargeKind.SYSCALL, on_done=partial(kernel.post_signal, task,
                                                SIGTRAP)))

    def _start_fault(self, task: "Task", st: ExecState, op: Mem,
                     major: bool) -> None:
        """Queue a fault's kernel work.  When it completes, a minor fault
        maps a zeroed frame and a major one starts the swap-in; either
        retries once after an OOM kill that leaves the task alive."""
        kernel = self.kernel
        costs = kernel.costs
        frame_prov = st.frames[-1].provenance if st.frames else Provenance.USER
        if major:
            task.major_faults += 1
            cycles = costs.major_fault_cycles
        else:
            task.minor_faults += 1
            cycles = costs.minor_fault_cycles + costs.page_zero_cycles

        def done() -> None:
            mm = kernel.mm
            complete = mm.begin_major_fault if major else mm.complete_minor_fault
            try:
                outcome = complete(task.mm, op.vaddr)
            except OutOfMemory:
                if not kernel.oom_kill(requester=task):
                    raise
                if not task.alive:
                    return
                outcome = complete(task.mm, op.vaddr)
            self._charge_reclaim(task, st, frame_prov)
            if major:
                frame, wrote_back = outcome
            else:
                wrote_back = outcome
            if wrote_back:
                kernel.swap_writeback(task)
            if major:
                kernel.begin_swap_in(task, op.vaddr, frame)

        st.segments.append(Segment(cycles, False, frame_prov,
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
