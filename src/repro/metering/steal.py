"""Tenant-side steal-time auditing for virtualized metering.

The VM-level counterpart of :mod:`repro.metering.verification`: a cloud
tenant cannot see the hypervisor's books, but it *can* measure how much
CPU it actually lost — the guest's own clock freezes while the vCPU is
runnable-but-descheduled, so the drift between a host-backed time source
and the guest clock is exactly the steal time (Verdú et al.,
arXiv:1810.01139).  :func:`audit_steal` turns the measurement from the
:func:`~repro.virt.guests.make_steal_estimator` guest into a verdict:

* does the hypervisor's *reported* steal counter agree with the guest's
  own estimate (an under-reporting host is hiding contention)?
* is the tenant's billed CPU consistent with the time it really ran, or
  is it being billed for a co-resident's cycles (the §IV-B1-style VM
  scheduling attack)?
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional

from ..analysis.experiment import ExperimentResult


class StealVerdict(enum.Enum):
    """Outcome of a tenant-side steal audit."""

    #: Reported steal matches the estimate and billing tracks actual run
    #: time: nothing to complain about.
    CONSISTENT = "consistent"
    #: The hypervisor's steal counter disagrees with the guest's own
    #: measurement beyond tolerance (a lying or broken steal clock).
    MISREPORTED = "misreported"
    #: Steal accounting is honest, but the billed CPU exceeds the time the
    #: vCPU actually held the core: the tenant is paying for someone
    #: else's cycles.
    OVERBILLED = "overbilled"


@dataclass
class StealReport:
    """One steal audit: the guest's measurement vs the host's story."""

    est_steal_ns: int
    reported_steal_ns: int
    billed_ns: int
    ran_ns: int
    samples: int
    verdict: StealVerdict
    tolerance_fraction: float
    tolerance_floor_ns: int

    @property
    def report_gap_ns(self) -> int:
        """Host-reported steal minus the guest's own estimate."""
        return self.reported_steal_ns - self.est_steal_ns

    @property
    def overbilling_ns(self) -> int:
        """Billed CPU beyond what the vCPU actually ran."""
        return self.billed_ns - self.ran_ns

    def render(self) -> str:
        return (
            f"STEAL AUDIT: {self.verdict.value}\n"
            f"  estimated steal : {self.est_steal_ns / 1e9:.3f} s "
            f"({self.samples} samples)\n"
            f"  reported steal  : {self.reported_steal_ns / 1e9:.3f} s "
            f"(gap {self.report_gap_ns / 1e9:+.3f} s)\n"
            f"  billed          : {self.billed_ns / 1e9:.3f} s\n"
            f"  actually ran    : {self.ran_ns / 1e9:.3f} s "
            f"(overbilling {self.overbilling_ns / 1e9:+.3f} s)\n"
            f"  tolerance       : ±{100 * self.tolerance_fraction:.0f}% "
            f"(floor {self.tolerance_floor_ns / 1e9:.3f} s)"
        )


def audit_steal(est_steal_ns: int, reported_steal_ns: int,
                billed_ns: int, ran_ns: int, samples: int = 0,
                tolerance_fraction: float = 0.05,
                tolerance_floor_ns: int = 2_000_000) -> StealReport:
    """Judge the host's steal reporting and billing against the guest's
    own measurement.

    ``tolerance_floor_ns`` absorbs the estimator's sampling quantisation
    (one estimator interval of lag); ``tolerance_fraction`` scales with
    the measured quantities like the bill verifier's does.
    """
    if tolerance_fraction < 0 or tolerance_floor_ns < 0:
        raise ValueError("tolerances must be non-negative")
    report_margin = max(tolerance_floor_ns,
                        int(tolerance_fraction
                            * max(est_steal_ns, reported_steal_ns)))
    if abs(reported_steal_ns - est_steal_ns) > report_margin:
        verdict = StealVerdict.MISREPORTED
    else:
        bill_margin = max(tolerance_floor_ns,
                          int(tolerance_fraction * ran_ns))
        if billed_ns - ran_ns > bill_margin:
            verdict = StealVerdict.OVERBILLED
        else:
            verdict = StealVerdict.CONSISTENT
    return StealReport(
        est_steal_ns=int(est_steal_ns),
        reported_steal_ns=int(reported_steal_ns),
        billed_ns=int(billed_ns),
        ran_ns=int(ran_ns),
        samples=int(samples),
        verdict=verdict,
        tolerance_fraction=tolerance_fraction,
        tolerance_floor_ns=int(tolerance_floor_ns),
    )


def audit_result(result: ExperimentResult,
                 tolerance_fraction: float = 0.1,
                 tolerance_floor_ns: int = 5_000_000,
                 trust_uncertainty_ns: int = 0) -> StealReport:
    """Tenant audit for *any* experiment result — the live-API entry point
    used by ``repro serve``'s ``/audit`` endpoint.

    VM results carry the guest steal estimator's measurement and go
    through :func:`audit_vm_result` unchanged.  Process-level results have
    no steal clock, so the audit falls back to the §III-B ground truth the
    oracle keeps: the bill is checked against the nanoseconds of
    legitimate work the task (and its thread group) really performed —
    billed time beyond that margin means the meter charged the tenant for
    someone else's cycles (the §IV-B1 tick-dodging theft).

    ``trust_uncertainty_ns`` widens the acceptance floor by the metering
    uncertainty the invoice's trust report declared, mirroring
    :meth:`~repro.metering.verification.BillVerifier.verify`: a bill
    metered under declared hardware faults is judged against what the
    degraded meter could honestly report.
    """
    if "victim_ran_ns" in result.stats:
        return audit_vm_result(result)
    ran_ns = int(round(result.oracle_own_s() * 1e9))
    return audit_steal(
        est_steal_ns=0,
        reported_steal_ns=0,
        billed_ns=result.usage.total_ns,
        ran_ns=ran_ns,
        samples=0,
        tolerance_fraction=tolerance_fraction,
        tolerance_floor_ns=tolerance_floor_ns + max(0, trust_uncertainty_ns),
    )


def audit_vm_result(result: ExperimentResult,
                    tolerance_fraction: float = 0.05,
                    tolerance_floor_ns: Optional[int] = None) -> StealReport:
    """Audit a VM run's result (``run_experiment(..., vm=...)``) from the
    victim tenant's point of view."""
    stats: Mapping[str, int] = result.stats
    if "victim_ran_ns" not in stats:
        raise ValueError("not a VM experiment result (no victim_ran_ns)")
    if tolerance_floor_ns is None:
        # One hypervisor tick of quantisation plus one estimator interval.
        tolerance_floor_ns = 12_000_000
    return audit_steal(
        est_steal_ns=stats.get("est_steal_ns", 0),
        reported_steal_ns=stats.get("reported_steal_ns", 0),
        billed_ns=result.usage.total_ns,
        ran_ns=stats["victim_ran_ns"],
        samples=stats.get("steal_samples", 0),
        tolerance_fraction=tolerance_fraction,
        tolerance_floor_ns=tolerance_floor_ns,
    )
