"""Configuration dataclasses for the simulated machine and kernel.

The defaults model the paper's testbed: a DELL OptiPlex 755 with one core of
an Intel E7200 @ 2.53 GHz running Linux 2.6.29 (Ubuntu 8.10).  Kernel-path
costs are order-of-magnitude figures for that era, expressed in CPU cycles so
they scale with the configured clock rate.  Absolute values do not matter for
the reproduction (see DESIGN.md §2); what matters is that kernel service is
orders of magnitude cheaper per event than the user workloads, as the paper's
Section V-C observes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError

#: Number of nanoseconds in one second, used throughout the time arithmetic.
NS_PER_SEC = 1_000_000_000


@dataclass(frozen=True)
class CostModel:
    """Cycle costs of kernel code paths and memory operations.

    Every cost is in CPU cycles.  The execution engine converts cycles to
    simulated nanoseconds via the CPU frequency.
    """

    # Mode switches and scheduling.
    syscall_entry_cycles: int = 300
    syscall_exit_cycles: int = 300
    context_switch_cycles: int = 4_000
    schedule_pick_cycles: int = 800

    # Interrupts and exceptions.
    irq_entry_cycles: int = 600
    timer_handler_cycles: int = 2_500
    nic_handler_cycles: int = 9_000
    #: Disk completion: top half plus the block softirq it raises.
    disk_handler_cycles: int = 20_000
    #: do_debug(): exception entry, DR7 decode, notifier chain.
    debug_exception_cycles: int = 9_000
    minor_fault_cycles: int = 3_500
    major_fault_cycles: int = 9_000

    # Signals and tracing.
    signal_deliver_cycles: int = 2_000
    signal_return_cycles: int = 1_200
    #: ptrace_stop() in the tracee's context: tasklist locking, tracer
    #: notification, context save.  Billed to the victim at every traced
    #: stop — a big slice of the thrashing attack's per-hit theft.
    ptrace_stop_cycles: int = 8_000
    ptrace_request_cycles: int = 2_500

    # Process lifecycle.  fork+exit on a 2008 Core 2 cost on the order of
    # 100 us together (COW setup, teardown, reaping) — these figures matter
    # because they set how much work the scheduling attack's fork chain
    # transfers per cycle.
    fork_cycles: int = 120_000
    execve_cycles: int = 120_000
    exit_cycles: int = 80_000
    wait_cycles: int = 4_000

    # Dynamic linking (charged to the process, per the paper's §III-C).
    linker_base_cycles: int = 60_000
    linker_per_library_cycles: int = 25_000
    linker_per_symbol_cycles: int = 900

    # Library calls (PLT indirection).
    lib_call_cycles: int = 40

    # Memory.
    mem_access_cycles: int = 6
    page_zero_cycles: int = 1_200
    swap_out_setup_cycles: int = 2_000
    #: Direct-reclaim LRU scan cost, charged to the allocating task per
    #: frame the clock hand examines (how memory pressure turns into the
    #: victim's system time).
    reclaim_scan_cycles_per_frame: int = 60

    def validate(self) -> None:
        for name, value in vars(self).items():
            if not isinstance(value, int) or value < 0:
                raise ConfigError(f"cost {name} must be a non-negative int, got {value!r}")


@dataclass(frozen=True)
class SchedulerConfig:
    """Parameters shared by the run-queue scheduler implementations."""

    #: Which scheduler class to instantiate: "cfs", "o1" or "rr".
    kind: str = "cfs"
    #: CFS: targeted scheduling latency (ns) for the whole run queue.
    sched_latency_ns: int = 20_000_000
    #: CFS: minimum slice any task gets before preemption (ns).
    min_granularity_ns: int = 4_000_000
    #: CFS: wakeup preemption granularity (ns); 5 ms in 2.6.29.
    wakeup_granularity_ns: int = 5_000_000
    #: O(1)/RR: base timeslice (ns) of a nice-0 task.
    base_timeslice_ns: int = 100_000_000

    def validate(self) -> None:
        if self.kind not in ("cfs", "o1", "rr"):
            raise ConfigError(f"unknown scheduler kind {self.kind!r}")
        for name in ("sched_latency_ns", "min_granularity_ns",
                     "wakeup_granularity_ns", "base_timeslice_ns"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class MemoryConfig:
    """Physical memory and paging parameters."""

    page_size: int = 4096
    #: Physical RAM in bytes (default 64 MiB: scaled-down analogue of the
    #: testbed's 2 GiB, matching the scaled workloads).
    ram_bytes: int = 64 * 1024 * 1024
    #: Swap space in bytes.
    swap_bytes: int = 256 * 1024 * 1024
    #: Fraction of frames the reclaimer tries to keep free.
    free_target_fraction: float = 0.02

    def validate(self) -> None:
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise ConfigError("page_size must be a positive power of two")
        if self.ram_bytes < 16 * self.page_size:
            raise ConfigError("ram_bytes too small to boot")
        if self.swap_bytes < 0:
            raise ConfigError("swap_bytes must be non-negative")
        if not 0.0 <= self.free_target_fraction < 0.5:
            raise ConfigError("free_target_fraction out of range")

    @property
    def total_frames(self) -> int:
        return self.ram_bytes // self.page_size

    @property
    def swap_pages(self) -> int:
        return self.swap_bytes // self.page_size


@dataclass(frozen=True)
class DiskConfig:
    """Latency model of the swap/backing disk.

    Swap I/O is mostly short-seek/sequential (the kernel allocates swap
    slots in clusters), so the per-request overhead is far below a full
    random seek.
    """

    #: Fixed per-request latency (short seek + controller), ns.
    base_latency_ns: int = 300_000
    #: Additional latency per page transferred (~80 MB/s media rate), ns.
    per_page_ns: int = 50_000

    def validate(self) -> None:
        if self.base_latency_ns < 0 or self.per_page_ns < 0:
            raise ConfigError("disk latencies must be non-negative")


@dataclass(frozen=True)
class MachineConfig:
    """Top-level configuration of the simulated machine."""

    #: CPU clock in Hz (paper: Intel E7200 @ 2.53 GHz, one core enabled).
    cpu_freq_hz: int = 2_530_000_000
    #: Number of CPUs.  1 reproduces the paper's uniprocessor testbed and
    #: follows the exact pre-SMP code paths (bit-identical results); N > 1
    #: enables per-CPU run queues, staggered per-CPU timers, IRQ affinity
    #: and the load balancer (see docs/smp.md).
    nproc: int = 1
    #: Timer interrupt frequency; Ubuntu 8.10 desktop kernels used HZ=250
    #: but the paper's analysis ("1 to 10 milliseconds") spans 100-1000.
    hz: int = 250
    #: Accounting scheme: "tick" (vulnerable default), "tsc" (fine-grained)
    #: or "dual" (bill by ticks, audit by TSC); optionally combined with
    #: process-aware interrupt accounting.
    accounting: str = "tick"
    #: Bill interrupt-handler time to the current task (Linux classic) or to
    #: a system account (Zhang & West process-aware accounting).
    process_aware_irq_accounting: bool = False
    #: Charge context-switch cost to the outgoing ("prev") or incoming
    #: ("next") task.  Linux's __schedule() mostly runs in prev's context.
    charge_switch_to: str = "prev"
    #: Random seed for the deterministic RNG.
    seed: int = 2010
    #: Stop the simulation if virtual time passes this bound (safety net).
    max_time_ns: int = 3_600 * NS_PER_SEC

    costs: CostModel = field(default_factory=CostModel)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)

    def validate(self) -> None:
        if self.cpu_freq_hz <= 0:
            raise ConfigError("cpu_freq_hz must be positive")
        if not isinstance(self.nproc, int) or not 1 <= self.nproc <= 64:
            raise ConfigError(f"nproc must be an int in [1, 64], got {self.nproc!r}")
        if not 10 <= self.hz <= 10_000:
            raise ConfigError("hz must be in [10, 10000]")
        if self.accounting not in ("tick", "tsc", "dual"):
            raise ConfigError(f"unknown accounting scheme {self.accounting!r}")
        if self.charge_switch_to not in ("prev", "next"):
            raise ConfigError("charge_switch_to must be 'prev' or 'next'")
        if self.max_time_ns <= 0:
            raise ConfigError("max_time_ns must be positive")
        self.costs.validate()
        self.scheduler.validate()
        self.memory.validate()
        self.disk.validate()

    @property
    def tick_ns(self) -> int:
        """Length of one jiffy in nanoseconds."""
        return NS_PER_SEC // self.hz

    def with_(self, **changes) -> "MachineConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of the ``repro serve`` metering daemon."""

    #: Bind address for the JSON API.
    host: str = "127.0.0.1"
    #: Listen port; 0 asks the OS for an ephemeral port.
    port: int = 8787
    #: Path of the SQLite WAL usage store (created on first boot).
    db: str = "repro-usage.db"
    #: Worker threads executing tenant submissions.
    jobs: int = 2
    #: Relative margin the tenant audit grants the meter before calling a
    #: bill overbilled (fraction of the oracle's own-work time).
    audit_tolerance_fraction: float = 0.1
    #: Absolute floor of that margin, ns — absorbs tick quantisation on
    #: short runs.
    audit_tolerance_floor_ns: int = 5_000_000
    #: How long SQLite waits on a locked database before raising, ms.
    #: Lets two serve processes share one store file (docs/chaos.md).
    busy_timeout_ms: int = 5_000
    #: Seconds SIGTERM/SIGINT shutdown waits for in-flight jobs to finish
    #: before abandoning them (they stay retryable in the store).
    drain_timeout_s: float = 30.0

    def validate(self) -> None:
        if not self.host:
            raise ConfigError("serve host must be non-empty")
        if not 0 <= self.port <= 65_535:
            raise ConfigError("serve port must be in [0, 65535]")
        if not self.db:
            raise ConfigError("serve db path must be non-empty")
        if self.jobs < 1:
            raise ConfigError("serve jobs must be >= 1")
        if (self.audit_tolerance_fraction < 0
                or self.audit_tolerance_floor_ns < 0):
            raise ConfigError("audit tolerances must be non-negative")
        if self.busy_timeout_ms < 0:
            raise ConfigError("busy_timeout_ms must be non-negative")
        if self.drain_timeout_s < 0:
            raise ConfigError("drain_timeout_s must be non-negative")


def default_config(**changes) -> MachineConfig:
    """Build a validated :class:`MachineConfig`, applying optional overrides.

    Nested sections can be overridden by passing replacement dataclasses,
    e.g. ``default_config(memory=MemoryConfig(ram_bytes=2**25))``.
    """
    cfg = MachineConfig(**changes) if changes else MachineConfig()
    cfg.validate()
    return cfg


#: Process-wide default consulted by ``run_experiment`` when its
#: ``check_invariants`` argument is left as None (the CLI's
#: ``--check-invariants`` sets it for one command).  It lives here, not
#: beside the checker, so a run that does not check loads no checker.
_DEFAULT_INVARIANTS = False


def set_default_invariants(enabled: bool) -> None:
    """Turn invariant checking on/off for runs that don't specify it."""
    global _DEFAULT_INVARIANTS
    _DEFAULT_INVARIANTS = bool(enabled)


def default_invariants() -> bool:
    return _DEFAULT_INVARIANTS
