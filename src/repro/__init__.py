"""repro — reproduction of Liu & Ding, "On Trustworthiness of CPU Usage
Metering and Accounting" (ICDCSW 2010).

A deterministic discrete-event OS simulator (scheduler, tick accounting,
signals, ptrace, demand paging, dynamic linker, shell and devices), the
paper's six CPU-time metering attacks, trustworthy-metering defenses, and an
experiment harness regenerating every evaluation figure.

Quickstart::

    from repro import Machine, default_config
    from repro.programs.stdlib import install_standard_libraries
    from repro.programs.workloads import make_pi

    machine = Machine(default_config())
    install_standard_libraries(machine.kernel.libraries)
    shell = machine.new_shell()
    task = shell.run_command(make_pi(iterations=20_000))
    machine.run_until_exit([task])
    print(machine.kernel.accounting.usage(task))
"""

from ._lazy import lazy_exports

__version__ = "1.9.0"

# Every name loads on first use, so ``import repro`` (and with it
# ``python -m repro --help``) costs no submodule; ``repro.Machine`` brings
# up the simulator, and the invariant checker loads only when asked for.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".config": ("CostModel", "DiskConfig", "MachineConfig", "MemoryConfig",
                "NS_PER_SEC", "SchedulerConfig", "ServeConfig",
                "default_config", "default_invariants",
                "set_default_invariants"),
    ".errors": ("ReproError", "SimulationError", "KernelError"),
    ".hw.machine": ("Machine",),
    ".kernel.accounting": ("CpuUsage",),
    ".kernel.process": ("Task", "TaskState"),
    ".programs.base": ("GuestContext", "GuestFunction", "Program"),
    ".programs.ops": ("CallLib", "CallNext", "Compute", "Invoke", "Mem",
                      "Provenance", "Syscall"),
    ".verify.invariants": ("InvariantChecker", "InvariantViolation"),
})

__all__.append("__version__")
