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
# The claim that builds the group, which the claims that read it require.
RECONSTRUCTION = "group-reconstruction-60"

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
        """The report as JSON; a value json cannot write, such as a
        `Fraction` or a `Cyclo`, is written as its exact string."""
        import json  # only a --json run pays for it
        return json.dumps(self.to_dict(), indent=2, sort_keys=False, default=str)


def error_witness(exc: Exception) -> dict:
    """The witness of an internal error: the exception's type and message."""
    return {"type": type(exc).__name__, "message": str(exc)}


def run_claim(report: ClaimReport, claim_id: str, description: str, fn, requires=None):
    """Execute one check and record its verdict; fn returns (ok, witness).

    If the claim `requires` is in the report without a pass, fn is not
    called and the claim is skipped with the witness {"requires": <its id>}.
    An exception inside fn, or a pass with an empty witness, is an internal
    error, not a verdict: the claim is recorded as "error" with the
    exception's type and message as its witness, the traceback goes to
    stderr, and the caller goes on with the remaining claims.
    """
    if any(c.id == requires and c.status != "pass" for c in report.claims):
        report.add(Claim(claim_id, description, "skipped", {"requires": requires}))
        return
    start = time.monotonic()
    try:
        ok, witness = fn()
        if ok and not witness:
            raise ValueError(f"passing claim {claim_id} has no witness")
    except Exception as exc:  # noqa: BLE001 - one crashed claim must not lose the report
        import traceback
        traceback.print_exc(file=sys.stderr)
        status, witness = "error", error_witness(exc)
    else:
        status = "pass" if ok else "fail"
    elapsed = int((time.monotonic() - start) * 1000)
    report.add(Claim(id=claim_id, description=description, status=status,
                     witness=witness, millis=elapsed))
