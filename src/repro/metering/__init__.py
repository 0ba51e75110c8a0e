"""Trustworthy metering: oracle, billing, verification, attestation.

Implements the paper's §VI: the billing pipeline a utility-computing
provider would run on top of the kernel's accounting, the user-side bill
verification that defines trustworthiness (§III-B), and the three
defensive properties — source integrity (TPM-style measurement and
attestation), execution integrity (a monitor over the run), and
fine-grained metering (evaluated via the TSC accounting scheme).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".oracle": ("OracleReport", "oracle_report"),
    ".billing": ("Invoice", "PricePlan", "TrustReport", "invoice_for"),
    ".verification": ("BillVerifier", "VerificationOutcome",
                      "VerificationReport"),
    ".attestation": ("AttestationError", "MeasurementLog", "TpmQuote",
                     "TrustedPlatformModule", "measure_platform",
                     "verify_quote"),
    ".integrity": ("ExecutionIntegrityMonitor", "IntegrityViolation"),
    ".properties": ("DEFENSE_COVERAGE", "defense_coverage_table"),
    ".resources": ("Discrepancy", "ResourceEvent", "ResourceMeter",
                   "TransactionLog", "reconcile"),
    ".sampling": ("UsageSampler", "UsageTimeline", "audit_share"),
    ".steal": ("StealReport", "StealVerdict", "audit_steal",
               "audit_vm_result"),
})
