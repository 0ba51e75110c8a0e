"""No silent TRUSTED invoices: every degradation path widens the bounds.

Satellite contract of the time-plane PR: each path that can grade a run
DEGRADED or UNTRUSTED — the clocksource watchdog's interval grades, raw
ungraded fault damage, and the sync estimator's round grades — must flow
through :meth:`TrustReport.from_stats` into a non-TRUSTED invoice whose
``billable_bounds_ns`` are strictly wider than the point estimate.
"""

import itertools

import pytest

from repro.config import default_config
from repro.kernel.accounting import CpuUsage
from repro.kernel.timekeeping import TrustLevel
from repro.metering.billing import (
    PER_HOUR_PLAN,
    PER_SECOND_PLAN,
    TrustReport,
    invoice_for,
)
from repro.runner import ExperimentSpec, run_spec
from repro.serve.service import INVOICE_SCHEMA, invoice_doc_for
from repro.timesync import sweep_timesync

CFG = default_config()


def _run(jiffies=40, **kw):
    total = CFG.cpu_freq_hz * jiffies * CFG.tick_ns // 1_000_000_000
    return run_spec(ExperimentSpec(
        program="busyloop",
        program_kwargs={"total_cycles": int(total), "chunk": 10_000_000},
        **kw))


def _watchdog_degraded():
    # 5% TSC drift: over the degraded threshold, under the unstable latch.
    return _run(faults={"tsc_drift_ppm": 50_000}).stats


def _watchdog_untrusted():
    # 20% drift trips the unstable latch in the first check window.
    return _run(faults={"tsc_drift_ppm": 200_000}).stats


def _ungraded_fault_damage():
    # Lost ticks with the watchdog off: nobody graded the corruption, so
    # the raw damage itself must keep the invoice from reading TRUSTED.
    return _run(faults={"tick_loss_prob": 0.3, "watchdog": False}).stats


def _sync_estimator_untrusted():
    # A 5ms network steer is far beyond the honest-oscillator envelope.
    return _run(jiffies=60,
                timesync=sweep_timesync(5_000_000).to_dict()).stats


def _sync_estimator_degraded():
    # The between-envelopes band is hard to park a servo in exactly, so
    # the degraded sync path is pinned at the stats layer: rounds graded
    # degraded, none untrusted.
    return {"timesync_trusted": 5, "timesync_degraded": 3,
            "timesync_untrusted": 0, "timesync_uncertainty_ns": 40_000}


DEGRADATION_PATHS = [
    ("watchdog-degraded", _watchdog_degraded, TrustLevel.DEGRADED),
    ("watchdog-untrusted", _watchdog_untrusted, TrustLevel.UNTRUSTED),
    ("ungraded-fault", _ungraded_fault_damage, TrustLevel.DEGRADED),
    ("sync-untrusted", _sync_estimator_untrusted, TrustLevel.UNTRUSTED),
    ("sync-degraded", _sync_estimator_degraded, TrustLevel.DEGRADED),
]


@pytest.mark.parametrize("name,stats_for,level",
                         DEGRADATION_PATHS,
                         ids=[p[0] for p in DEGRADATION_PATHS])
def test_degradation_widens_the_invoice_bounds(name, stats_for, level):
    stats = stats_for()
    trust = TrustReport.from_stats(stats)
    assert trust.level is level, f"{name}: got {trust.level}"
    assert not trust.is_trusted
    assert trust.uncertainty_ns > 0, \
        f"{name}: degraded trust must carry a nonzero error bar"
    invoice = invoice_for("job", CpuUsage(utime_ns=10**9, stime_ns=0),
                          trust=trust)
    low, high = invoice.billable_bounds_ns()
    assert low < invoice.billable_ns < high
    assert high - low == 2 * trust.uncertainty_ns
    assert trust.level.value in invoice.render()


def test_clean_run_still_issues_a_tight_trusted_invoice():
    stats = _run(jiffies=10).stats
    trust = TrustReport.from_stats(stats)
    assert trust.is_trusted
    assert trust.uncertainty_ns == 0
    invoice = invoice_for("job", CpuUsage(utime_ns=10**9, stime_ns=0),
                          trust=trust)
    assert invoice.billable_bounds_ns() == (10**9, 10**9)


# ----------------------------------------------------------------------
# the invoice's wire form equals the report-object path
# ----------------------------------------------------------------------

#: One axis per grading input, each absent, zero or set: the watchdog's
#: interval grades and bound, the sync estimator's round grades and
#: bound, and ungraded fault damage.
GRADING_AXES = {
    "watchdog_intervals_trusted": (None, 0, 12),
    "watchdog_intervals_degraded": (None, 0, 2),
    "watchdog_intervals_untrusted": (None, 0, 1),
    "watchdog_uncertainty_ns": (None, 0, 8_000_000),
    "timesync_trusted": (None, 0, 5),
    "timesync_degraded": (None, 0, 3),
    "timesync_untrusted": (None, 0, 1),
    "timesync_uncertainty_ns": (None, 0, 40_000),
    "fault_uncertainty_ns": (None, 0, 4_000_000),
}


def _stats_grid():
    names = list(GRADING_AXES)
    for values in itertools.product(*GRADING_AXES.values()):
        stats = {"ticks": 250, "exit_code": 0}
        stats.update((name, value) for name, value in zip(names, values)
                     if value is not None)
        yield stats


def _invoice_via_report(job, result_doc, plan):
    """The invoice document as the report objects state it."""
    usage = CpuUsage(**result_doc["usage"])
    trust = TrustReport.from_stats(result_doc["stats"])
    invoice = invoice_for(job, usage, plan=plan, trust=trust)
    return {
        "schema": INVOICE_SCHEMA,
        "job": job,
        "plan": plan.name,
        "utime_ns": usage.utime_ns,
        "stime_ns": usage.stime_ns,
        "billed_ns": invoice.billable_ns,
        "billable_bounds_ns": list(invoice.billable_bounds_ns()),
        "amount_microdollars": invoice.amount_microdollars,
        "trust": {
            "level": trust.level.value,
            "uncertainty_ns": trust.uncertainty_ns,
            "intervals_trusted": trust.intervals_trusted,
            "intervals_degraded": trust.intervals_degraded,
            "intervals_untrusted": trust.intervals_untrusted,
        },
    }


def test_invoice_documents_match_the_trust_report_over_a_stats_grid():
    """``invoice_doc_for`` grades without building a TrustReport; over
    every combination of watchdog, time-sync and fault counters (3**9
    stats dicts, two bills each, one small enough for the lower bound to
    clamp at zero) its documents equal the report-object path, key order
    included, on both plans."""
    levels = set()
    checked = 0
    for stats in _stats_grid():
        for usage, plan in (({"utime_ns": 1_000_000, "stime_ns": 0},
                             PER_SECOND_PLAN),
                            ({"utime_ns": 3 * 10**9, "stime_ns": 10**8},
                             PER_HOUR_PLAN)):
            doc = {"usage": usage, "stats": stats}
            got = invoice_doc_for("job", doc, plan)
            want = _invoice_via_report("job", doc, plan)
            assert got == want, stats
            assert list(got["trust"]) == list(want["trust"])
            levels.add(got["trust"]["level"])
            checked += 1
    assert checked == 2 * 3 ** len(GRADING_AXES)
    assert levels == {level.value for level in TrustLevel}
