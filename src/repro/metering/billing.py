"""Billing: turning metered CPU time into money.

Models the utility-computing pricing plans of the paper's §II: per-CPU-hour
(EC2/App Engine style, rounding partial hours up the way EC2 rounded
instance-hours) and per-CPU-second plans.  The point of the reproduction:
an invoice is only as trustworthy as the metering underneath it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..config import NS_PER_SEC
from ..errors import ConfigError
from ..kernel.accounting import CpuUsage
from ..kernel.timekeeping import TrustLevel


@dataclass(frozen=True)
class PricePlan:
    """A pricing plan for CPU time."""

    name: str
    #: Price per billing unit, in micro-dollars (integer math, no float
    #: rounding surprises in money).
    microdollars_per_unit: int
    #: Billing unit duration in ns (3600 s for per-hour plans, 1 s for
    #: per-second plans).
    unit_ns: int
    #: Round partial units up (EC2-style instance-hours) or bill pro rata.
    round_up: bool = False

    def __post_init__(self) -> None:
        if self.unit_ns <= 0:
            raise ConfigError("billing unit must be positive")
        if self.microdollars_per_unit < 0:
            raise ConfigError("price must be non-negative")

    def cost_microdollars(self, cpu_ns: int) -> int:
        if cpu_ns <= 0:
            return 0
        if self.round_up:
            units = (cpu_ns + self.unit_ns - 1) // self.unit_ns
            return units * self.microdollars_per_unit
        return cpu_ns * self.microdollars_per_unit // self.unit_ns


#: EC2 small-instance flavour: $0.10 per CPU-hour, partial hours rounded up.
PER_HOUR_PLAN = PricePlan("per-cpu-hour", microdollars_per_unit=100_000,
                          unit_ns=3600 * NS_PER_SEC, round_up=True)

#: Fine-grained plan: $0.10/3600 per CPU-second, pro rata.
PER_SECOND_PLAN = PricePlan("per-cpu-second", microdollars_per_unit=28,
                            unit_ns=NS_PER_SEC, round_up=False)

#: The tariffs a tenant can sign up for, by wire name — shared by the
#: cloud provider's invoicing and the ``repro serve`` tenant registry.
PLANS = {plan.name: plan for plan in (PER_HOUR_PLAN, PER_SECOND_PLAN)}


def plan_by_name(name: str) -> PricePlan:
    """Resolve a plan's wire name; :class:`ConfigError` on unknown names."""
    try:
        return PLANS[name]
    except KeyError:
        raise ConfigError(f"unknown pricing plan {name!r}; "
                          f"have {sorted(PLANS)}") from None


def grade_stats(stats: "dict") -> Tuple[TrustLevel, int, int, int, int]:
    """Grade an experiment result's counters: the fields of its
    :class:`TrustReport`, in order — level, uncertainty (ns), and the
    trusted, degraded and untrusted interval counts.  This is the one
    grading code; the report and the invoice's wire form both read it.

    Every grading path folds in here: the clocksource watchdog's interval
    grades (``watchdog_*``), the guest-side sync estimator's round grades
    and declared bound (``timesync_*``), and raw ungraded fault damage
    (``fault_uncertainty_ns``, emitted when corruption was injected with
    no watchdog to grade it).  All new terms default to zero when their
    keys are absent, so a watchdog-only stats dict produces the exact
    pre-timesync report.
    """
    get = stats.get
    trusted = (int(get("watchdog_intervals_trusted", 0))
               + int(get("timesync_trusted", 0)))
    degraded = (int(get("watchdog_intervals_degraded", 0))
                + int(get("timesync_degraded", 0)))
    untrusted = (int(get("watchdog_intervals_untrusted", 0))
                 + int(get("timesync_untrusted", 0)))
    fault_uncertainty = int(get("fault_uncertainty_ns", 0))
    if untrusted:
        level = TrustLevel.UNTRUSTED
    elif degraded or fault_uncertainty:
        # Known corruption with nobody to grade it is still not a
        # TRUSTED invoice.
        level = TrustLevel.DEGRADED
    else:
        level = TrustLevel.TRUSTED
    uncertainty = (int(get("watchdog_uncertainty_ns", 0))
                   + int(get("timesync_uncertainty_ns", 0))
                   + fault_uncertainty)
    return level, uncertainty, trusted, degraded, untrusted


@dataclass(frozen=True)
class TrustReport:
    """Trust annotation for one metered usage record.

    Produced from the clocksource watchdog's interval grades (see
    :class:`~repro.kernel.timekeeping.ClocksourceWatchdog`): the worst
    interval trust level observed over the metering window plus the summed
    uncertainty bound.  Attached to an :class:`Invoice`, it is how billing
    degrades *gracefully* under hardware faults — the bill still issues,
    it just carries an honest error bar.
    """

    level: TrustLevel
    uncertainty_ns: int
    intervals_trusted: int = 0
    intervals_degraded: int = 0
    intervals_untrusted: int = 0

    @classmethod
    def from_stats(cls, stats: "dict") -> "TrustReport":
        """Rebuild a trust report from an experiment result's counters —
        the stats travel through the result cache, the live watchdog and
        sync-estimator objects do not.  :func:`grade_stats` grades them."""
        return cls(*grade_stats(stats))

    @property
    def uncertainty_s(self) -> float:
        return self.uncertainty_ns / 1e9

    @property
    def is_trusted(self) -> bool:
        return self.level is TrustLevel.TRUSTED

    def render(self) -> str:
        return (f"{self.level.value} "
                f"(±{self.uncertainty_s:.3f} s over "
                f"{self.intervals_trusted + self.intervals_degraded + self.intervals_untrusted} "
                f"intervals: {self.intervals_trusted} trusted, "
                f"{self.intervals_degraded} degraded, "
                f"{self.intervals_untrusted} untrusted)")


@dataclass
class Invoice:
    """One job's bill."""

    job_name: str
    plan: PricePlan
    usage: CpuUsage
    #: Trust annotation from the clocksource watchdog, when the run had
    #: one; None means the fault layer was not in play.
    trust: Optional[TrustReport] = field(default=None)

    @property
    def billable_ns(self) -> int:
        return self.usage.total_ns

    @property
    def amount_microdollars(self) -> int:
        return self.plan.cost_microdollars(self.billable_ns)

    @property
    def amount_dollars(self) -> float:
        return self.amount_microdollars / 1e6

    def billable_bounds_ns(self) -> "tuple[int, int]":
        """(low, high) bound on billable ns given the trust uncertainty."""
        if self.trust is None:
            return self.billable_ns, self.billable_ns
        delta = self.trust.uncertainty_ns
        return max(0, self.billable_ns - delta), self.billable_ns + delta

    def render(self) -> str:
        lines = [
            f"INVOICE for job {self.job_name!r}",
            f"  plan        : {self.plan.name}",
            f"  user time   : {self.usage.utime_seconds:.3f} s",
            f"  system time : {self.usage.stime_seconds:.3f} s",
            f"  billable    : {self.billable_ns / 1e9:.3f} CPU-seconds",
            f"  amount      : ${self.amount_dollars:.6f}",
        ]
        if self.trust is not None:
            low, high = self.billable_bounds_ns()
            lines.append(f"  trust       : {self.trust.render()}")
            lines.append(f"  bounds      : [{low / 1e9:.3f}, {high / 1e9:.3f}]"
                         f" CPU-seconds")
        return "\n".join(lines)


def invoice_for(job_name: str, usage: CpuUsage,
                plan: Optional[PricePlan] = None,
                trust: Optional[TrustReport] = None) -> Invoice:
    """Build an invoice from a metered usage record (optionally annotated
    with the run's clocksource trust report)."""
    return Invoice(job_name=job_name, plan=plan or PER_SECOND_PLAN,
                   usage=usage, trust=trust)
