"""Command-line front end: runs verification suites and emits claim reports.

Subcommands map to the checking modules; `all` runs every default-speed
suite.  Exit codes: 0 all claims pass, 1 at least one claim failed,
2 usage error, 3 internal error (a claim with status "error"; a suite
that crashes outside its claims is recorded as the error claim
`suite-<name>`); the report is printed and written in every case but a
usage error.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from collections import Counter
from fractions import Fraction
from math import comb

from .characters import (A5_IRREP_LABELS, a5_table, chi_e_s5, decompose,
                         inner_product, restrict_to_a5, sym_cube)
from .cyclo import rational
from .invariants import (contains_up_to_scalar, molien_closed_form,
                         molien_series, reynolds_basis)
from .linalg import Matrix
from .perms import parse_cycles
from .polys import Poly3, monomials_of_degree
from .report import Claim, ClaimReport, error_witness, run_claim
from .winger import (INFINITY, gram_matrix, irregular_orbits, node_check,
                     no_three_concurrent, pencil_member, q_poly, f_poly,
                     reconstruct_group, singular_lambda, six_lines)
from . import hurwitz
from . import covers

SUBCOMMANDS = ("characters", "invariants", "pencil", "tuples", "orbits",
               "covers", "degenerations", "homology", "binary", "all")


class Corruption:
    """Optional fault injection for sensitivity testing.

    spec "f:a,b,c" adds 1 to that coefficient of the six-line sextic;
    spec "matrix:K" adds 1 to the top-left entry of group element K.
    """

    def __init__(self, spec: str | None):
        self.f_expo = None
        self.matrix_index = None
        if spec is None:
            return
        kind, _, payload = spec.partition(":")
        if kind == "f":
            parts = tuple(int(x) for x in payload.split(","))
            if len(parts) != 3 or sum(parts) != 6 or min(parts) < 0:
                raise ValueError("corruption exponent must be a degree-6 triple")
            self.f_expo = parts
        elif kind == "matrix":
            self.matrix_index = int(payload)
        else:
            raise ValueError(f"unknown corruption spec {spec!r}")

    def sextic(self) -> Poly3:
        f = f_poly()
        if self.f_expo is not None:
            f = f + Poly3.monomial(self.f_expo, 1)
        return f

    def matrices(self):
        mats = list(reconstruct_group().matrices)
        if self.matrix_index is not None:
            k = self.matrix_index % len(mats)
            m = mats[k]
            bumped = Matrix(3, 3, (m.entries[0] + rational(1),) + m.entries[1:])
            mats[k] = bumped
        return mats


# -- claim suites -----------------------------------------------------------------


def check_characters(report, args):
    table = dict(zip(A5_IRREP_LABELS, a5_table()))

    def orthonormal():
        labels = list(table)
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                expect = rational(1 if i == j else 0)
                if inner_product(table[a], table[b]) != expect:
                    return False, f"<{a},{b}> != {expect}"
        rows = {lbl: str(table[lbl]) for lbl in labels}
        if args.digits:
            rows["I at (12345) ~"] = str(table["I"].values[3].embed(args.digits))
        return True, rows
    run_claim(report, "characters-table-orthonormal",
              "assembled irreducible table of the order-60 group is orthonormal",
              orthonormal)

    def symcube():
        expect = tuple(rational(v) for v in (10, -2, 1, 0, 0))
        s_i = sym_cube(table["I"])
        s_ip = sym_cube(table["I'"])
        ok = s_i.values == expect and s_ip.values == expect
        dec = decompose(s_i)
        ok = ok and dec == {"I": 1, "I'": 1, "V": 1}
        return ok, {"sym_cube": str(s_i), "decomposition": dec}
    run_claim(report, "characters-symcube-rank10",
              "symmetric cube of either 3-dimensional character is (10,-2,1,0,0) = I+I'+V",
              symcube)

    def restriction():
        res = restrict_to_a5(chi_e_s5())
        dec = decompose(res)
        return dec == {"I": 1, "I'": 1}, {"restricted": str(res), "decomposition": dec}
    run_claim(report, "characters-restrict-E",
              "the 6-dimensional S5 character restricts to I + I'",
              restriction)


def check_orbits(report, args, corruption):
    group = reconstruct_group()
    mats = corruption.matrices()
    f = corruption.sextic()
    gram = gram_matrix()

    run_claim(report, "group-reconstruction-60",
              "line-permutation search returns exactly 60 solvable cases forming a group",
              lambda: (group.order == 60, {"survivors": group.order}))

    run_claim(report, "group-class-sizes",
              "conjugacy class sizes of the reconstructed group are {1,15,20,12,12}",
              lambda: (group.class_sizes() == [1, 12, 12, 15, 20],
                       {"sizes": group.class_sizes()}))

    def traces():
        by_class = {}
        for rep in ("()", "(12)(34)", "(123)", "(12345)", "(12354)"):
            by_class[rep] = str(group.trace_of_class(parse_cycles(rep, 5)))
        row = a5_table()[1 if group.label == "I" else 2]
        ok = all(str(v) == by_class[r] for v, r in
                 zip(row.values, ("()", "(12)(34)", "(123)", "(12345)", "(12354)")))
        counts = Counter(str(m.trace()) for m in group.matrices)
        expected = Counter()
        for v, size in zip(row.values, (1, 15, 20, 12, 12)):
            expected[str(v)] += size
        ok = ok and counts == expected
        wit = {"matched_row": group.label, "traces": by_class}
        if args.digits:
            wit["order5_trace ~"] = str(group.trace_of_class(
                parse_cycles("(12345)", 5)).embed(args.digits))
        return ok, wit
    run_claim(report, "group-trace-character",
              "trace multiset matches one 3-dimensional character row exactly",
              traces)

    def invariance():
        q = q_poly()
        bad = []
        for i, m in enumerate(mats):
            if q.act(m) != q:
                bad.append(("Q", i))
            if f.act(m) != f:
                bad.append(("F", i))
            if m.transpose() * gram * m != gram:
                bad.append(("gram", i))
            if m.det() != rational(1):
                bad.append(("det", i))
        if bad:
            return False, {"violations": bad[:5], "count": len(bad)}
        return True, {"elements_checked": len(mats)}
    run_claim(report, "invariance-conic-sextic-form",
              "Q, F, the bilinear form and det 1 are preserved by all 60 elements",
              invariance)

    run_claim(report, "lines-no-three-concurrent",
              "no three of the six lines meet in a point",
              lambda: (no_three_concurrent(),
                       {"triples_checked": comb(len(six_lines()), 3)}))

    def orbits():
        orbs = irregular_orbits()
        sizes = sorted(len(v) for v in orbs.values())
        ok = sizes == [6, 10, 12, 15]
        q = q_poly()
        on_k = all(q.evaluate(p) == rational(0) for p in orbs[12])
        off_k = all(q.evaluate(p) != rational(0)
                    for s in (6, 10, 15) for p in orbs[s])
        pts = set().union(*(orbs[s] for s in (6, 10, 15)))
        disjoint = len(pts) == 6 + 10 + 15
        return (ok and on_k and off_k and disjoint,
                {"sizes": sizes, "12_on_conic": on_k,
                 "others_off_conic": off_k, "pairwise_disjoint": disjoint})
    run_claim(report, "irregular-orbit-sizes",
              "fixed-point orbits have sizes 6, 10, 15 off the conic and 12 on it",
              orbits)


def check_pencil(report, args, corruption):
    orbs = irregular_orbits()
    f = corruption.sextic()
    q3 = q_poly() ** 3

    def lam_on(size, expected):
        def inner():
            vals = set()
            for p in orbs[size]:
                gq = tuple(d.evaluate(p) for d in q3.gradient())
                gf = tuple(d.evaluate(p) for d in f.gradient())
                if all(c.is_zero() for c in gf):
                    vals.add("infinity" if any(gq) else "indeterminate")
                    continue
                i = next(i for i, c in enumerate(gf) if not c.is_zero())
                lam = -(gq[i] / gf[i])
                if any(a + lam * b != rational(0) for a, b in zip(gq, gf)):
                    vals.add("none")
                else:
                    vals.add(str(lam))
            return vals == {expected}, {"orbit": size, "values": sorted(vals)}
        return inner

    run_claim(report, "lambda-six-orbit",
              "the member singular on the 6-point orbit is lambda = -1",
              lam_on(6, "-1"))
    run_claim(report, "lambda-ten-orbit",
              "the member singular on the 10-point orbit is lambda = 27/5",
              lam_on(10, "27/5"))
    run_claim(report, "lambda-fifteen-orbit",
              "the 15-point orbit is singular only on the six-line member (infinity)",
              lam_on(15, "infinity"))

    def nodes():
        ok = all(node_check(rational(-1), p) for p in orbs[6])
        ok = ok and all(node_check(rational(Fraction(27, 5)), p) for p in orbs[10])
        ok = ok and all(node_check(INFINITY, p) for p in orbs[15])
        degenerate = not node_check(rational(0), next(iter(orbs[12])))
        return ok and degenerate, {"nodal_points": 6 + 10 + 15,
                                   "triple_conic_degenerate": degenerate}
    run_claim(report, "node-nondegeneracy",
              "all singular points of the -1, 27/5 and infinity members are nodes",
              nodes)

    def base_locus():
        members = [pencil_member(rational(Fraction(n, d)))
                   for n, d in ((0, 1), (1, 1), (7, 3), (-5, 2), (11, 1))]
        members.append(pencil_member(INFINITY))
        ok = all(m.evaluate(p) == rational(0) for m in members for p in orbs[12])
        # the 12 points are exactly the conic's intersection with the lines
        on_both = all(q_poly().evaluate(p) == rational(0)
                      and f.evaluate(p) == rational(0) for p in orbs[12])
        return ok and on_both, {"points": 12, "members_checked": len(members)}
    run_claim(report, "base-locus-twelve-points",
              "the 12-point orbit lies on the conic, the lines and every member",
              base_locus)

    def smooth_evidence():
        vals = []
        for k in (2, 3, 5, 7, -2, -3, 9, 13, -7, 4):
            lam = rational(k)
            hit = any(singular_lambda(p) == lam
                      for s in (6, 10, 15, 12) for p in orbs[s])
            vals.append((k, hit))
        return all(not hit for _, hit in vals), {"lambdas_tested": [k for k, _ in vals]}
    run_claim(report, "no-extra-singular-orbits",
              "no computed orbit point is singular for ten other rational parameters",
              smooth_evidence)

    if args.deep:
        def deep():
            from .discriminant import pencil_discriminant
            _, mults = pencil_discriminant()
            ok = (mults["residual_is_nonzero_constant"]
                  and mults["0"] > 0 and mults["-1"] > 0 and mults["27/5"] > 0
                  and mults["degree"] < 75)
            return ok, mults
        run_claim(report, "discriminant-root-set",
                  "Macaulay-resultant discriminant vanishes only at 0, -1, 27/5 "
                  "and at infinity (degree drop)",
                  deep)
    else:
        from .report import Claim
        report.add(Claim(id="discriminant-root-set",
                         description="Macaulay-resultant discriminant root set "
                                     "(enable with --deep)",
                         status="skipped"))


def check_tuples(report, args):
    conventions = [args.convention]
    if args.convention != "rtl":
        conventions.append("rtl")

    def orders():
        sets = hurwitz.order_sets()
        counts = {r: len(sets[r]) for r in (2, 3, 5)}
        return (counts == {2: 15, 3: 20, 5: 24} and counts[5] * counts[2] == 360,
                {"counts": counts, "pairs": counts[5] * counts[2]})
    run_claim(report, "order-sets",
              "element counts by order: 15 involutions, 20 of order 3, 24 of order 5",
              orders)

    def pairs():
        orbits = hurwitz.pair_orbits()
        ok = len(orbits) == 6 and all(len(o) == 60 for o in orbits)
        matched = set()
        for r, a, b in hurwitz.PAIR_REPRESENTATIVES:
            g1, g2 = parse_cycles(a, 5), parse_cycles(b, 5)
            ok = ok and (g1 * g2).order() == r
            hits = [i for i, o in enumerate(orbits) if (g1, g2) in o]
            ok = ok and len(hits) == 1
            matched.update(hits)
        ok = ok and len(matched) == 6
        rvals = sorted((t[0] * t[1]).order() for t in map(min, orbits))
        ok = ok and rvals == [2, 2, 3, 3, 5, 5]
        return ok, {"orbits": len(orbits), "sizes": [len(o) for o in orbits],
                    "r_values": rvals}
    run_claim(report, "pair-orbits-free-6",
              "simultaneous conjugation on order-5 x order-2 pairs: 6 free orbits, "
              "published representatives matched",
              pairs)

    def factorizations():
        sets = hurwitz.order_sets()
        wit = {}
        for r in (2, 3, 5):
            h = min(sets[r])
            fac = hurwitz.involution_factorizations(h)
            if len(fac) != r:
                return False, {"r": r, "count": len(fac)}
            if r == 2 and not all(a * b == b * a for a, b in fac):
                return False, {"r": 2, "noncommuting": True}
            if r in (3, 5):
                a, b = min(fac)
                orbit = set()
                xk = h
                for _ in range(r):
                    orbit.add((xk * a * xk.inverse(), xk * b * xk.inverse()))
                    xk = xk * h
                if orbit != fac or len(orbit) != r:
                    return False, {"r": r, "orbit_size": len(orbit)}
            wit[r] = len(fac)
        return True, {"counts": wit}
    run_claim(report, "involution-factorizations",
              "an order-r element has exactly r factorizations into two involutions, "
              "commuting for r=2, one free cyclic orbit for r=3,5",
              factorizations)

    for conv in conventions:
        tag = "" if conv == "rtl" else "-ltr"
        classes = hurwitz.enumerate_tuple_classes(conv)

        def class_count(classes=classes):
            by_r = Counter(c.r_value for c in classes)
            by_g1 = Counter(c.g1_class for c in classes)
            ok = (len(classes) == 20 and by_r == Counter({2: 4, 3: 6, 5: 10})
                  and sorted(by_g1.values()) == [10, 10])
            return ok, {"classes": len(classes), "by_r": dict(sorted(by_r.items())),
                        "by_g1": dict(sorted(by_g1.items()))}
        run_claim(report, f"tuple-classes-20{tag}",
                  f"exactly 20 generating (5,2,2,2)-tuple classes, split 4/6/10 by "
                  f"ord(g1*g2) and 10/10 by the class of g1 [{conv}]",
                  class_count)

        def table_rows(classes=classes, conv=conv):
            matched = hurwitz.validate_tuple_table(classes, conv)
            want = {c for c in classes if c.g1_class == "(12345)"}
            return set(matched) == want, {"rows_matched": len(matched)}
        run_claim(report, f"tuple-table-rows{tag}",
                  f"the ten published rows match the ten classes with g1 ~ (12345) "
                  f"[{conv}]",
                  table_rows)

        for gen_set, claim in (("pure", f"braid-pure-orbits{tag}"),
                               ("weighted", f"braid-weighted-orbits{tag}")):
            def braid(classes=classes, gen_set=gen_set, conv=conv):
                parts = hurwitz.braid_orbits(classes, gen_set, conv)
                ok = len(parts) == 2 and all(len(p) == 10 for p in parts)
                for p in parts:
                    ok = ok and len({c.g1_class for c in p}) == 1
                    ok = ok and {c.r_value for c in p} == {2, 3, 5}
                return ok, {"orbit_sizes": sorted(len(p) for p in parts),
                            "g1_blocks": sorted(min(p).g1_class for p in parts)}
            run_claim(report, claim,
                      f"{gen_set} braid generators give 2 orbits of size 10, "
                      f"split by the class of g1, each containing all r-types [{conv}]",
                      braid)


def check_covers(report, args):
    def alphas():
        vals = {k: covers.alpha_value(k) for k in (1, 2, 3, 5)}
        return vals == {1: 0, 2: 30, 3: 40, 5: 48}, {"alpha": vals}
    run_claim(report, "alpha-values",
              "ramification weights by stabilizer order: 0, 30, 40, 48",
              alphas)

    def signature():
        sols = covers.signature_solutions()
        return sols == [(0, (5, 2, 2, 2))], {"solutions": [
            {"genus": g, "orders": list(o)} for g, o in sols]}
    run_claim(report, "signature-unique",
              "the quotient orbifold signature (0;5,2,2,2) is the unique solution",
              signature)

    def genera():
        vals = {
            "60,{5,2,2,2}": covers.regular_cover_genus(60, (5, 2, 2, 2)),
            "3,12x{3}": covers.regular_cover_genus(3, [3] * 12),
            "10,{5,2,2}": covers.regular_cover_genus(10, (5, 2, 2)),
            "60,{5,2,5}": covers.regular_cover_genus(60, (5, 2, 5)),
        }
        want = {"60,{5,2,2,2}": 10, "3,12x{3}": 10, "10,{5,2,2}": 0, "60,{5,2,5}": 4}
        return vals == want, {"genera": vals}
    run_claim(report, "riemann-hurwitz-genera",
              "Riemann-Hurwitz genus checks for the four published covers",
              genera)


def check_degenerations(report, args):
    def degen():
        reports = covers.all_degeneration_reports()
        shapes = Counter((r.n, r.nodes, r.components, r.component_genus)
                         for _, r in reports)
        want = Counter({(2, 15, 6, 0): 4, (3, 10, 1, 0): 6, (5, 6, 1, 4): 10})
        genus10 = all(r.arithmetic_genus == 10 for _, r in reports)
        ok = shapes == want and genus10
        ok = ok and all(r.nodes * 2 * r.n == 60 for _, r in reports)
        return ok, {"shapes": {str(k): v for k, v in sorted(shapes.items())},
                    "all_arithmetic_genus_10": genus10}
    run_claim(report, "degeneration-reports",
              "all 20 tuple classes give one of the three degeneration shapes, "
              "each of arithmetic genus 10",
              degen)


def check_homology(report, args):
    def hom():
        ok, chi, doubled = covers.homology_character_check()
        return ok, {"induced": str(chi), "doubled_decomposition": doubled}
    run_claim(report, "homology-lattice-character",
              "the induced sign character is (10,-2,1,0,0) and doubles to "
              "V^2 + I^2 + I'^2",
              hom)


def check_binary(report, args):
    def binary():
        rep = covers.binary_icosahedral_checks()
        ok = (rep["order"] == 120 and rep["closed"] and rep["norm_one"]
              and rep["center_order"] == 2 and rep["center_is_pm1"]
              and rep["abelianization_order"] == 1
              and rep["quotient_class_sizes"] == [1, 12, 12, 15, 20])
        return ok, rep
    run_claim(report, "binary-icosahedral",
              "120 unit quaternions: closed, perfect, center of order 2, "
              "quotient has the icosahedral class sizes",
              binary)


def check_invariants(report, args, corruption):
    mats = corruption.matrices()

    def molien():
        try:
            series = molien_series(mats, 31)
        except ValueError as exc:  # a non-group list has no integral series
            return False, {"molien": str(exc)}
        closed = molien_closed_form(31)
        ok = series == closed and series[2] == 1 and series[6] == 2
        ok = ok and all(series[k] == 0 for k in range(1, 15, 2))
        return ok, {"series": [str(c) for c in series],
                    "matches_closed_form": series == closed}
    run_claim(report, "molien-closed-form",
              "Molien series to degree 30 equals (1+T^15)/((1-T^2)(1-T^6)(1-T^10))",
              molien)

    def reynolds():
        try:
            series = molien_series(mats, 16)
        except ValueError as exc:
            return False, {"molien": str(exc)}
        dims = {}
        for d in list(range(13)) + [15]:
            dims[d] = len(reynolds_basis(mats, d))
            if dims[d] != series[d]:
                return False, {"degree": d, "reynolds": dims[d],
                               "molien": str(series[d])}
        return True, {"dims": {str(k): v for k, v in dims.items()}}
    run_claim(report, "reynolds-dimensions",
              "explicit invariant bases match the Molien coefficients at d <= 12, 15",
              reynolds)

    def degree6():
        basis = reynolds_basis(mats, 6)
        full = len(monomials_of_degree(6))
        spanned = (contains_up_to_scalar(basis, q_poly() ** 3)
                   and contains_up_to_scalar(basis, corruption.sextic()))
        ok = full == 28 and len(basis) == 2 and spanned
        return ok, {"ambient_dim": full, "invariant_dim": len(basis),
                    "contains_Q3_and_F": spanned}
    run_claim(report, "degree6-invariants",
              "the 28-dimensional sextic space has a 2-dimensional invariant "
              "subspace spanned by Q^3 and F",
              degree6)


SUITES = {
    "characters": lambda rep, args, cor: check_characters(rep, args),
    "invariants": lambda rep, args, cor: check_invariants(rep, args, cor),
    "orbits": lambda rep, args, cor: check_orbits(rep, args, cor),
    "pencil": lambda rep, args, cor: check_pencil(rep, args, cor),
    "tuples": lambda rep, args, cor: check_tuples(rep, args),
    "covers": lambda rep, args, cor: check_covers(rep, args),
    "degenerations": lambda rep, args, cor: check_degenerations(rep, args),
    "homology": lambda rep, args, cor: check_homology(rep, args),
    "binary": lambda rep, args, cor: check_binary(rep, args),
}

ALL_ORDER = ("characters", "orbits", "invariants", "pencil", "tuples",
             "covers", "degenerations", "homology", "binary")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winger-verify",
        description="Exact verification of the icosahedral plane action, "
                    "its pencil of sextics and the associated covering data.")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--json", metavar="PATH",
                        help="write the claim report as JSON to PATH ('-' for stdout)")
    parser.add_argument("--deep", action="store_true",
                        help="include the Macaulay-discriminant certification")
    parser.add_argument("--convention", choices=("rtl", "ltr"), default="rtl",
                        help="tuple product reading; 'ltr' recomputes "
                             "convention-sensitive tables both ways")
    parser.add_argument("--digits", type=int, default=0, metavar="N",
                        help="include N-digit numerical embeddings in witnesses")
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
            print(f"     witness: {claim.witness}")
    failed = len(report.failed)
    errors = f", {len(report.errors)} errors" if report.errors else ""
    print(f"{len(report.claims)} claims, {failed} failed{errors}")
    if args.json:
        text = report.to_json()
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w") as fh:
                fh.write(text + "\n")
    if report.errors:
        return 3
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
