"""Deterministic hardware/clock fault injection.

The fault layer turns the simulator from "attacks on a perfect clock" into
"metering under unreliable and adversarial time": a serializable
:class:`FaultPlan` describes which hardware lies (timer, TSC, interrupt
lines, /proc, the paravirtual steal clock) and the injectors in
:mod:`repro.faults.injectors` carry it out, seeded and replayable.  The
kernel-side defense — the clocksource watchdog with lost-tick catch-up and
trust-graded metering intervals — lives in :mod:`repro.kernel.timekeeping`.

See ``docs/faults.md`` for the fault taxonomy, watchdog semantics and
trust levels.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".injectors": ("TICK_DROP", "TICK_FIRE", "IrqStorm", "StaleProcfs",
                   "TickFaultInjector", "TscFault"),
    ".plan": ("FaultPlan", "normalize_plan", "sweep_plan"),
})
