"""Claim records and the machine-readable verification report."""

from __future__ import annotations

import sys
import time
from collections import namedtuple

from . import __version__


# Published values read by more than one claim, as plain data so that
# importing the CLI loads no field: the member of Q^3 + lam*F singular on
# each orbit off the conic, the symmetric cube of either 3-dimensional
# character with its decomposition, and the class sizes.
SINGULAR_MEMBERS = {6: "-1", 10: "27/5", 15: "infinity"}
SYM_CUBE = (10, -2, 1, 0, 0)
SYM_CUBE_DECOMPOSITION = {"I": 1, "I'": 1, "V": 1}
CLASS_SIZES = [1, 12, 12, 15, 20]

# One verdict: status is "pass", "fail", "skipped" or "error"; `_asdict()`
# gives the JSON fields in the report's order.
Claim = namedtuple("Claim", "id description status witness millis", defaults=(None, 0))


class ClaimReport:
    __slots__ = ("convention", "claims", "version")

    def __init__(self, convention: str):
        self.convention = convention
        self.claims = []
        self.version = __version__

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
            "claims": [c._asdict() for c in self.claims],
        }

    def to_json(self) -> str:
        import json  # only a --json run pays for it
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
        import traceback
        traceback.print_exc(file=sys.stderr)
        ok, status, witness = False, "error", error_witness(exc)
    else:
        status = "pass" if ok else "fail"
    elapsed = int((time.monotonic() - start) * 1000)
    report.add(Claim(id=claim_id, description=description, status=status,
                     witness=witness, millis=elapsed))
    return ok
