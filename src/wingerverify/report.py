"""Claim records and the machine-readable verification report."""

from __future__ import annotations

import json
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field

from . import __version__


@dataclass
class Claim:
    id: str
    description: str
    status: str  # "pass" | "fail" | "skipped" | "error"
    witness: object = None
    millis: int = 0


@dataclass
class ClaimReport:
    convention: str
    claims: list = field(default_factory=list)
    version: str = __version__

    def add(self, claim: Claim):
        if any(c.id == claim.id for c in self.claims):
            raise ValueError(f"duplicate claim id {claim.id}")
        if claim.status == "pass" and not claim.witness:
            raise ValueError(f"passing claim {claim.id} has no witness")
        self.claims.append(claim)

    @property
    def failed(self):
        return [c for c in self.claims if c.status == "fail"]

    @property
    def errors(self):
        return [c for c in self.claims if c.status == "error"]

    def to_dict(self):
        return {
            "version": self.version,
            "convention": self.convention,
            "claims": [asdict(c) for c in self.claims],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False)


def error_witness(exc: Exception) -> dict:
    """The witness of an internal error: the exception's type and message."""
    return {"type": type(exc).__name__, "message": str(exc)}


def run_claim(report: ClaimReport, claim_id: str, description: str, fn):
    """Execute one check; fn returns (ok, witness), and a pass must carry a
    computed witness (`ClaimReport.add` refuses an empty one).

    An exception inside fn is an internal error, not a verdict: the claim
    is recorded with status "error" and the exception's type and message
    as its witness, the traceback goes to stderr, and the caller goes on
    with the remaining claims.
    """
    start = time.monotonic()
    try:
        ok, witness = fn()
    except Exception as exc:  # noqa: BLE001 - one crashed claim must not lose the report
        traceback.print_exc(file=sys.stderr)
        ok, status, witness = False, "error", error_witness(exc)
    else:
        status = "pass" if ok else "fail"
    elapsed = int((time.monotonic() - start) * 1000)
    report.add(Claim(id=claim_id, description=description, status=status,
                     witness=witness, millis=elapsed))
    return ok
