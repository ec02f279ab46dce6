"""The `invariants` suite: the Molien series and the explicit invariant bases."""

from __future__ import annotations

from functools import cache

from ..report import RECONSTRUCTION, run_claim


def check_invariants(report, args, corruption):
    from ..invariants import (contains_up_to_scalar, molien_closed_form,
                             molien_series, reynolds_basis)
    from ..polys import monomials_of_degree
    from ..winger import q_poly

    @cache
    def molien_terms():  # computed once; reynolds-dimensions reads 16 terms
        return molien_series(corruption.matrices(), 31)

    def molien():
        series = molien_terms()
        closed = molien_closed_form(31)
        ok = series == closed and series[2] == 1 and series[6] == 2
        ok = ok and all(series[k] == 0 for k in range(1, 15, 2))
        return ok, {"series": [str(c) for c in series],
                    "matches_closed_form": series == closed}
    run_claim(report, "molien-closed-form",
              "Molien series to degree 30 equals (1+T^15)/((1-T^2)(1-T^6)(1-T^10))",
              molien, requires=RECONSTRUCTION)

    def reynolds():
        series, mats, dims = molien_terms(), corruption.matrices(), {}
        for d in list(range(13)) + [15]:
            try:
                dims[d] = len(reynolds_basis(mats, d))
            except ValueError as exc:  # a non-group, or needs more than N and involutions
                return False, {"reynolds": str(exc)}
            if dims[d] != series[d]:
                return False, {"degree": d, "reynolds": dims[d],
                               "molien": str(series[d])}
        return True, {"dims": {str(k): v for k, v in dims.items()}}
    run_claim(report, "reynolds-dimensions",
              "explicit invariant bases match the Molien coefficients at d <= 12, 15",
              reynolds, requires=RECONSTRUCTION)

    def degree6():
        try:
            basis = reynolds_basis(corruption.matrices(), 6)
        except ValueError as exc:  # a non-group, or needs more than N and involutions
            return False, {"reynolds": str(exc)}
        full = len(monomials_of_degree(6))
        spanned = (contains_up_to_scalar(basis, q_poly() ** 3)
                   and contains_up_to_scalar(basis, corruption.sextic()))
        ok = full == 28 and len(basis) == 2 and spanned
        return ok, {"ambient_dim": full, "invariant_dim": len(basis),
                    "contains_Q3_and_F": spanned}
    run_claim(report, "degree6-invariants",
              "the 28-dimensional sextic space has a 2-dimensional invariant "
              "subspace spanned by Q^3 and F",
              degree6, requires=RECONSTRUCTION)
