"""Exception hierarchy for the repro package.

Simulator-level errors are programming errors in the simulation harness;
kernel-level errors model the errno results a real kernel would return to
user code (they are caught by the syscall layer and converted to negative
return values, mirroring Linux).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """The simulation reached an inconsistent state (a harness bug)."""


class DeadlockError(SimulationError):
    """No task is runnable and no event is pending, but tasks are alive."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied."""


class KernelError(ReproError):
    """Base class for errors that map to errno values inside the guest."""

    errno = 1  # EPERM by default
    errname = "EPERM"


class PermissionDenied(KernelError):
    """EPERM: the calling task lacks the required credentials."""

    errno = 1
    errname = "EPERM"


class NoSuchProcess(KernelError):
    """ESRCH: the target pid does not exist."""

    errno = 3
    errname = "ESRCH"


class NoChildProcesses(KernelError):
    """ECHILD: waitpid() was called with nothing to wait for."""

    errno = 10
    errname = "ECHILD"


class OutOfMemory(KernelError):
    """ENOMEM: the address space or physical memory is exhausted."""

    errno = 12
    errname = "ENOMEM"


class BadAddress(KernelError):
    """EFAULT: an address outside the task's address space was used."""

    errno = 14
    errname = "EFAULT"


class FileNotFound(KernelError):
    """ENOENT: an executable or shared library could not be found."""

    errno = 2
    errname = "ENOENT"


class InvalidArgument(KernelError):
    """EINVAL: a syscall argument was malformed."""

    errno = 22
    errname = "EINVAL"
