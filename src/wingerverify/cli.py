"""Command-line front end: runs verification suites and emits claim reports.

Each claim is defined once, by its `run_claim` call inside a `check_*`
suite; every suite takes `(report, args, corruption)`, and `SUITES` lists
them in the order `all` runs them (the subcommands are its keys and
`all`).  The suites live in the modules of the `suites` package, one per
layer that they read (`SUITE_MODULES`), and `SUITES` imports a suite's
module on its first call.  A claim is the only place where its verdict
is reached: helpers compute values, and each suite reads its inputs
inside its claims.  `run_claim` alone decides skip and error: a claim
that reads what another claim builds names it (`requires=<id>`) and is
skipped, with the witness {"requires": <id>}, when that claim is in the
report without a pass (a suite run alone runs it); a raise or a pass
with an empty witness is an error of that claim.
The acceptance tests map each criterion to claim ids of this report
instead of checking the mathematics again.  Witnesses hold exact values
only (rationals and Q(zeta_5) elements, which `to_json` writes as
strings).  The published values that several claims read are constants
of `report`, which the suites import.

Each suite, and each `Corruption` method, imports the layers it runs
when it runs, so importing this module loads only `report` of the
package, and of the standard library `argparse` beyond what the
interpreter starts with (`json` is imported only by `--json` or a
failing witness, which the text report writes as in the JSON, and
`traceback` only when a suite or a claim raises).  A subcommand pays
for no suite or layer it does not use: `tuples` loads only
`suites.tuples`, `hurwitz` and `perms`, and the discriminant is loaded
only by `--deep`.  A name is looked up in its defining module at that
moment, so a test or tracer patches it there.

Exit codes: 0 all claims pass, 1 at least one claim failed, 2 usage
error (an unwritable --json path too, once the report is printed), 3
internal error (a claim with status "error"; a suite that crashes
outside its claims is recorded as the error claim `suite-<name>`); the
report is printed and written in every case but a usage error.
"""

from __future__ import annotations

import argparse
import sys
from importlib import import_module

from .report import CLASS_SIZES, Claim, ClaimReport, error_witness


class Corruption:
    """Optional fault injection for sensitivity testing.

    spec "f:a,b,c" adds 1 to that coefficient of the six-line sextic;
    spec "matrix:K" adds 1 to the top-left entry of group element K, for
    K in 0..59 (the published order of the group).
    """

    def __init__(self, spec: str | None):
        self.f_expo = None
        self.matrix_index = None
        if spec is None:
            return
        kind, _, payload = spec.partition(":")
        try:
            parts = tuple(int(x) for x in payload.split(","))
        except ValueError:  # an empty or non-integer part breaks the rule below
            parts = ()
        if kind == "f":
            if len(parts) != 3 or sum(parts) != 6 or min(parts) < 0:
                raise ValueError("corruption exponent must be a degree-6 triple")
            self.f_expo = parts
        elif kind == "matrix":
            order = sum(CLASS_SIZES)
            if len(parts) != 1 or not 0 <= parts[0] < order:
                raise ValueError(f"corruption matrix index must be in 0..{order - 1}")
            self.matrix_index = parts[0]
        else:
            raise ValueError(f"unknown corruption spec {spec!r}")

    def sextic(self):
        from .polys import Poly3
        from .winger import f_poly
        f = f_poly()
        if self.f_expo is not None:
            f = f + Poly3.monomial(self.f_expo, 1)
        return f

    def matrices(self):
        from .cyclo import rational
        from .linalg import Matrix
        from .winger import reconstruct_group
        mats = list(reconstruct_group().elements)
        if self.matrix_index is not None:
            k = self.matrix_index
            e = mats[k].entries
            mats[k] = Matrix((e[0] + rational(1),) + e[1:])
        return mats


# -- claim suites -----------------------------------------------------------------

# suite -> the module of `suites` that defines check_<suite>, in the order
# `all` runs them
SUITE_MODULES = {
    "characters": "characters",
    "orbits": "orbits",
    "invariants": "invariants",
    "pencil": "pencil",
    "tuples": "tuples",
    "covers": "covers",
    "degenerations": "covers",
    "homology": "characters",
    "binary": "covers",
}


def _suite(name: str, module: str):
    """The suite `check_<name>`, its module imported on the first call."""
    def suite(report, args, corruption):
        check = getattr(import_module(f"{__package__}.suites.{module}"), f"check_{name}")
        return check(report, args, corruption)
    return suite


SUITES = {name: _suite(name, module) for name, module in SUITE_MODULES.items()}
ALL_ORDER = tuple(SUITES)
SUBCOMMANDS = (*SUITES, "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winger-verify",
        description="Exact verification of the icosahedral plane action, "
                    "its pencil of sextics and the associated covering data.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--json", metavar="PATH",
                        help="write the claim report as JSON to PATH ('-' for stdout)")
    parser.add_argument("--deep", action="store_true",
                        help="include the Sylvester-Bezout discriminant certification")
    parser.add_argument("--convention", choices=("rtl", "ltr"), default="rtl",
                        help="tuple product reading; 'ltr' recomputes "
                             "convention-sensitive tables both ways")
    parser.add_argument("--corrupt", metavar="SPEC", default=None,
                        help=argparse.SUPPRESS)  # fault injection for testing
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        corruption = Corruption(args.corrupt)
    except ValueError as exc:
        parser.error(str(exc))  # exits 2
    report = ClaimReport(convention=args.convention)
    names = ALL_ORDER if args.subcommand == "all" else (args.subcommand,)
    for name in names:
        try:
            SUITES[name](report, args, corruption)
        except Exception as exc:  # noqa: BLE001 - the other suites still run
            import traceback
            traceback.print_exc(file=sys.stderr)
            print(f"internal error in suite {name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            report.add(Claim(id=f"suite-{name}",
                             description=f"the {name} suite ran outside its claims "
                                         "without an internal error",
                             status="error", witness=error_witness(exc)))
    for claim in report.claims:
        marker = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP",
                  "error": "ERROR"}[claim.status]
        print(f"{marker} {claim.id}: {claim.description}")
        if claim.status in ("fail", "error") and claim.witness is not None:
            import json  # the exact strings of to_json; only a failing run pays
            print(f"     witness: {json.dumps(claim.witness, default=str)}")
    failed = len(report.failed)
    errors = f", {len(report.errors)} errors" if report.errors else ""
    print(f"{len(report.claims)} claims, {failed} failed{errors}")
    if args.json:
        text = report.to_json()
        if args.json == "-":
            print(text)
        else:
            try:
                with open(args.json, "w") as fh:
                    fh.write(text + "\n")
            except OSError as exc:  # the claims ran; only the path is at fault
                print(f"winger-verify: cannot write the JSON report to {args.json}: "
                      f"{exc.strerror}", file=sys.stderr)
                return 2
    if report.errors:
        return 3
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
