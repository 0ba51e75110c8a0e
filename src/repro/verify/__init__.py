"""Verification subsystem: runtime invariants + differential fuzzing.

Two layers of machine-checked trust in the simulator itself:

* :mod:`repro.verify.invariants` — an :class:`InvariantChecker` wired into
  the kernel's charge/tick/exit/clock paths, holding every run to
  conservation laws (each jiffy charged exactly once, attributed time sums
  to elapsed time, oracle and billing views reconcile at exit, ...);
* :mod:`repro.verify.fuzz` — a seeded scenario fuzzer and differential
  harness cross-checking serial vs batch execution, scheduler-invariant
  ground truth, and the checker's own detection soundness;
* :mod:`repro.verify.chaos` — arithmetic checks on degraded fleet
  reports (declared coverage, grade and totals must reconcile).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".chaos": ("check_chaos_report",),
    ".invariants": ("InvariantChecker", "InvariantViolation", "Violation",
                    "VirtInvariantChecker"),
    "..config": ("default_invariants", "set_default_invariants"),
    ".fuzz": ("INJECT_KINDS", "SCHEDULE_INDEPENDENT_ATTACKS", "FuzzSummary",
              "Scenario", "ScenarioReport", "generate_scenario",
              "load_failure", "make_injector", "replay_failure", "run_fuzz",
              "run_scenario", "save_failure", "shrink_scenario"),
})
