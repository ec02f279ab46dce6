"""Command-line front end: runs verification suites and emits claim reports.

Each claim is defined once, by its `run_claim` call inside a `check_*`
suite; every suite takes `(report, args, corruption)`, and `SUITES` lists
them in the order `all` runs them (the subcommands are its keys and
`all`).  A claim is the only place where its verdict is reached: helpers
compute values, and each suite reads its inputs inside its claims.  A
claim that reads what a failed claim builds is recorded, in its place,
as skipped with the witness {"requires": <the failed claim's id>}.  The
acceptance tests map each criterion to claim ids of this report instead
of checking the mathematics again.  Witnesses hold exact
values only (rationals and Q(zeta_5) elements, serialized as strings).

Each suite, and each `Corruption` method, imports the layers it runs
when it runs, so importing this module loads only `report`, and a
subcommand pays for no layer it does not use: `tuples` loads only
`hurwitz` and `perms`, and the discriminant is loaded only by `--deep`.
A name is looked up in its defining module at that moment, so a test or
tracer patches it there.

Exit codes: 0 all claims pass, 1 at least one claim failed, 2 usage
error (an unwritable --json path too, once the report is printed), 3
internal error (a claim with status "error"; a suite that crashes
outside its claims is recorded as the error claim `suite-<name>`); the
report is printed and written in every case but a usage error.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from collections import Counter
from functools import cache, partial
from math import comb

from .report import Claim, ClaimReport, error_witness, run_claim


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
            k = self.matrix_index % len(mats)
            e = mats[k].entries
            mats[k] = Matrix((e[0] + rational(1),) + e[1:])
        return mats


# -- claim suites -----------------------------------------------------------------

# Published values read by more than one claim, as plain data so that
# importing the CLI loads no field: the member of Q^3 + lam*F singular on
# each orbit off the conic, the symmetric cube of either 3-dimensional
# character with its decomposition, and the class sizes.
SINGULAR_MEMBERS = {6: "-1", 10: "27/5", 15: "infinity"}
SYM_CUBE = (10, -2, 1, 0, 0)
SYM_CUBE_DECOMPOSITION = {"I": 1, "I'": 1, "V": 1}
CLASS_SIZES = [1, 12, 12, 15, 20]


def check_characters(report, args, corruption):
    from .characters import (A5_IRREP_LABELS, a5_table, chi_e_s5, class_count,
                             decompose, inner_product, restrict_to_a5, sym_cube)
    from .cyclo import rational

    def orthonormal():
        table = dict(zip(A5_IRREP_LABELS, a5_table()))
        labels = list(table)
        met = class_count()  # a square table: one class per irreducible
        if met != len(labels):
            return False, f"the class representatives meet {met} of {len(labels)} classes"
        for i, a in enumerate(labels):
            for j, b in enumerate(labels):
                expect = rational(1 if i == j else 0)
                if inner_product(table[a], table[b]) != expect:
                    return False, f"<{a},{b}> != {expect}"
        return True, {lbl: str(table[lbl]) for lbl in labels}
    run_claim(report, "characters-table-orthonormal",
              "assembled irreducible table of the order-60 group is orthonormal",
              orthonormal)

    def symcube():
        chi_i, chi_ip = a5_table()[1:3]
        try:
            s_i, s_ip = sym_cube(chi_i), sym_cube(chi_ip)
        except ValueError as exc:  # a power of a representative in no listed class
            return False, {"power_maps": str(exc)}
        dec = decompose(s_i)
        ok = s_i.values == s_ip.values == SYM_CUBE and dec == SYM_CUBE_DECOMPOSITION
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
    from .characters import A5_CLASS_REPS, A5_IRREP_LABELS, a5_table, class_sizes
    from .cyclo import rational
    from .winger import (ReconstructionError, concurrent_triple, gram_matrix,
                         irregular_orbits, q_poly, reconstruct_group, six_lines)

    def reconstruction():
        try:
            group = reconstruct_group()
        except ReconstructionError as exc:  # a fault in the search is a verdict
            return False, str(exc)
        return len(group) == 60, {"survivors": len(group)}
    built = run_claim(report, "group-reconstruction-60",
                      "line-permutation search returns exactly 60 solvable cases "
                      "forming a group",
                      reconstruction)

    def group_claim(claim_id, description, fn):  # a claim that reads the group
        if built:
            run_claim(report, claim_id, description, fn)
        else:
            report.add(Claim(id=claim_id, description=description, status="skipped",
                             witness={"requires": "group-reconstruction-60"}))

    def sizes():
        got = sorted(len(c) for c in reconstruct_group().classes)
        return got == CLASS_SIZES, {"sizes": got}
    group_claim("group-class-sizes",
                "conjugacy class sizes of the reconstructed group are {1,15,20,12,12}",
                sizes)

    def traces():
        # one element per class of A5_CLASS_REPS, picked by order (Cauchy's
        # theorem); (12354) is conjugate to the square of (12345)
        group = reconstruct_group()
        orders, m5 = group.orders, group.orders.index(5)
        picks = (group.identity, orders.index(2), orders.index(3), m5, group.table[m5][m5])
        by_class = {rep: str(group.elements[g].trace())
                    for rep, g in zip(A5_CLASS_REPS, picks)}
        # I and I' differ only by the swap of the two 5-cycle classes
        p5 = A5_CLASS_REPS.index("(12345)")
        label = "I" if by_class["(12345)"] == str(a5_table()[1].values[p5]) else "I'"
        row = a5_table()[A5_IRREP_LABELS.index(label)]
        ok = all(str(v) == by_class[r] for v, r in zip(row.values, A5_CLASS_REPS))
        counts = Counter(str(m.trace()) for m in group.elements)
        expected = Counter()
        for v, size in zip(row.values, class_sizes()):
            expected[str(v)] += size
        ok = ok and counts == expected
        return ok, {"matched_row": label, "traces": by_class}
    group_claim("group-trace-character",
                "trace multiset matches one 3-dimensional character row exactly",
                traces)

    def invariance():
        q, f, gram = q_poly(), corruption.sextic(), gram_matrix()
        mats = corruption.matrices()
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
    group_claim("invariance-conic-sextic-form",
                "Q, F, the bilinear form and det 1 are preserved by all 60 elements",
                invariance)

    def concurrency():
        triple = concurrent_triple(six_lines())
        witness = {"triples_checked": comb(len(six_lines()), 3)}
        if triple is not None:  # the first three lines through one point
            witness["triple"] = list(triple)
        return triple is None, witness
    run_claim(report, "lines-no-three-concurrent",
              "no three of the six lines meet in a point",
              concurrency)

    def orbits():
        orbs = irregular_orbits()
        sizes = sorted(len(v) for v in orbs.values())
        ok = sizes == [6, 10, 12, 15] and all(len(v) == k for k, v in orbs.items())
        q = q_poly()
        on_k = all(q.evaluate(p) == rational(0) for p in orbs[12])
        off_k = all(q.evaluate(p) != rational(0)
                    for s in (6, 10, 15) for p in orbs[s])
        pts = set().union(*(orbs[s] for s in (6, 10, 15)))
        disjoint = len(pts) == 6 + 10 + 15
        return (ok and on_k and off_k and disjoint,
                {"sizes": sizes, "12_on_conic": on_k,
                 "others_off_conic": off_k, "pairwise_disjoint": disjoint})
    group_claim("irregular-orbit-sizes",
                "fixed-point orbits have sizes 6, 10, 15 off the conic and 12 on it",
                orbits)


def check_pencil(report, args, corruption):
    from fractions import Fraction
    from .cyclo import rational
    from .winger import INFINITY, irregular_orbits, pencil_member, singular_point
    members = {size: INFINITY if lam == "infinity" else rational(Fraction(lam))
               for size, lam in SINGULAR_MEMBERS.items()}

    for size, claim_id, description in (
            (6, "lambda-six-orbit",
             "the member singular on the 6-point orbit is lambda = -1"),
            (10, "lambda-ten-orbit",
             "the member singular on the 10-point orbit is lambda = 27/5"),
            (15, "lambda-fifteen-orbit",
             "the 15-point orbit is singular only on the six-line member (infinity)")):
        def on_orbit(size=size):
            orbit, f = irregular_orbits()[size], corruption.sextic()
            lams = {p: "none" if (lam := singular_point(p, f)[0]) is None else str(lam)
                    for p in orbit}
            vals, want = set(lams.values()), str(members[size])
            witness = {"orbit": len(orbit), "values": sorted(vals)}
            culprit = next((p for p, lam in lams.items() if lam != want), None)
            if culprit is not None:  # the first point singular for another parameter
                witness.update({"point": [str(c) for c in culprit],
                                "lambda": lams[culprit]})
            return vals == {want}, witness
        run_claim(report, claim_id, description, on_orbit)

    def nodes():
        orbs, f = irregular_orbits(), corruption.sextic()
        want = {s: (lam, True) for s, lam in members.items()}
        want[12] = (rational(0), False)  # singular on the triple conic, never a node
        bad = [(s, p, pair) for s in want for p in orbs[s]
               if (pair := singular_point(p, f)) != want[s]]
        off_conic = [b for b in bad if b[0] != 12]
        nodal_points = sum(len(orbs[s]) for s in members) - len(off_conic)
        degenerate = len(off_conic) == len(bad)
        witness = {"nodal_points": nodal_points, "triple_conic_degenerate": degenerate}
        if bad:  # the first point whose computed pair is not the wanted one
            s, p, (lam, node) = bad[0]
            witness.update({"orbit": s, "point": [str(c) for c in p],
                            "lambda": "none" if lam is None else str(lam), "node": node})
        return nodal_points == 6 + 10 + 15 and degenerate, witness
    run_claim(report, "node-nondegeneracy",
              "all singular points of the -1, 27/5 and infinity members are nodes",
              nodes)

    def base_locus():
        orbs, f = irregular_orbits(), corruption.sextic()
        lams = [rational(Fraction(n, d)) for n, d in ((0, 1), (1, 1), (7, 3), (-5, 2), (11, 1))]
        # the members at 0 and infinity are Q^3 and the lines themselves
        members = [(lam, pencil_member(lam, f)) for lam in (*lams, INFINITY)]
        miss = next(((lam, p) for lam, m in members for p in orbs[12]
                     if m.evaluate(p) != rational(0)), None)
        witness = {"points": len(orbs[12]), "members_checked": len(members)}
        if miss is not None:  # the first member and point where it does not vanish
            witness.update({"lambda": str(miss[0]), "point": [str(c) for c in miss[1]]})
        return miss is None, witness
    run_claim(report, "base-locus-twelve-points",
              "the 12-point orbit lies on the conic, the lines and every member",
              base_locus)

    def smooth_evidence():
        orbs, f = irregular_orbits(), corruption.sextic()
        tested = (2, 3, 5, 7, -2, -3, 9, 13, -7, 4)
        values = {rational(k) for k in tested}
        hit = next(((s, p, lam) for s in (6, 10, 15, 12) for p in orbs[s]
                    if (lam := singular_point(p, f)[0]) in values), None)
        witness = {"lambdas_tested": list(tested)}
        if hit is not None:  # the first orbit point singular for a tested lambda
            size, point, lam = hit
            witness.update({"orbit": size, "point": [str(c) for c in point],
                            "lambda": str(lam)})
        return hit is None, witness
    run_claim(report, "no-extra-singular-orbits",
              "no computed orbit point is singular for ten other rational parameters",
              smooth_evidence)

    if args.deep:
        def deep():
            from .discriminant import pencil_discriminant
            # each finite singular member is a root of order its orbit's size
            finite = {lam.to_fraction(): size for size, lam in members.items()
                      if lam is not INFINITY}
            _, mults, control = pencil_discriminant(corruption.sextic(), (0, *finite))
            ok = control["holds"] and mults == {
                "degree": 60, "0": 44, **{str(lam): size for lam, size in finite.items()},
                "residual_degree": 0, "residual_is_nonzero_constant": True}
            return ok, mults if control["holds"] else {**mults, "control": control}
        run_claim(report, "discriminant-root-set",
                  "Sylvester-Bezout resultant discriminant vanishes only at 0, -1, "
                  "27/5 and at infinity (degree drop), controlled by one Macaulay "
                  "resultant value",
                  deep)
    else:
        report.add(Claim(id="discriminant-root-set",
                         description="Sylvester-Bezout resultant discriminant root set "
                                     "(enable with --deep)",
                         status="skipped"))


def check_tuples(report, args, corruption):
    from . import hurwitz
    from .perms import alternating_group_5, parse_cycles

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

    a5 = alternating_group_5()

    def pairs():
        orbits = hurwitz.pair_orbits()
        ok = len(orbits) == 6 and all(len(o) == 60 for o in orbits)
        matched = set()
        for r, a, b in hurwitz.PAIR_REPRESENTATIVES:
            g1, g2 = a5.index[parse_cycles(a, 5)], a5.index[parse_cycles(b, 5)]
            ok = ok and a5.orders[a5.table[g1][g2]] == r
            hits = [i for i, o in enumerate(orbits) if (g1, g2) in o]
            ok = ok and len(hits) == 1
            matched.update(hits)
        ok = ok and len(matched) == 6
        rvals = sorted(a5.orders[a5.table[g1][g2]] for g1, g2 in map(min, orbits))
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
            if r == 2 and not all(a5.table[a][b] == a5.table[b][a] for a, b in fac):
                return False, {"r": 2, "noncommuting": True}
            if r in (3, 5):
                a, b = min(fac)
                orbit = {(a5.conjugate(a, x), a5.conjugate(b, x))
                         for x in a5.generated((h,))}
                if orbit != fac or len(orbit) != r:
                    return False, {"r": r, "orbit_size": len(orbit)}
            wit[r] = len(fac)
        return True, {"counts": wit}
    run_claim(report, "involution-factorizations",
              "an order-r element has exactly r factorizations into two involutions, "
              "commuting for r=2, one free cyclic orbit for r=3,5",
              factorizations)

    @cache
    def tuple_classes(conv):  # enumerated once per reading, inside the claims
        return hurwitz.enumerate_tuple_classes(conv)

    def tuple_class_count(conv):
        classes = tuple_classes(conv)
        by_r = Counter(c.r_value for c in classes)
        by_g1 = Counter(c.g1_class for c in classes)
        ok = (len(classes) == 20 and by_r == Counter({2: 4, 3: 6, 5: 10})
              and sorted(by_g1.values()) == [10, 10])
        return ok, {"classes": len(classes), "by_r": dict(sorted(by_r.items())),
                    "by_g1": dict(sorted(by_g1.items()))}

    def table_rows(conv):
        classes = tuple_classes(conv)
        matched, unmatched = hurwitz.validate_tuple_table(classes)
        want = {c for c in classes if c.g1_class == "(12345)"}
        witness = {"rows_matched": len(matched)}
        if unmatched:
            witness["unmatched"] = unmatched
        if len(set(matched)) != len(matched):
            witness["distinct_classes"] = len(set(matched))
        return not unmatched and set(matched) == want, witness

    def braid(gen_set, conv):
        parts = hurwitz.braid_orbits(tuple_classes(conv), gen_set, conv)
        ok = len(parts) == 2 and all(len(p) == 10 for p in parts)
        for p in parts:
            ok = ok and len({c.g1_class for c in p}) == 1
            ok = ok and {c.r_value for c in p} == {2, 3, 5}
        return ok, {"orbit_sizes": sorted(len(p) for p in parts),
                    "g1_blocks": sorted(min(p).g1_class for p in parts)}

    for conv in conventions:
        tag = "" if conv == "rtl" else "-ltr"
        run_claim(report, f"tuple-classes-20{tag}",
                  f"exactly 20 generating (5,2,2,2)-tuple classes, split 4/6/10 by "
                  f"ord(g1*g2) and 10/10 by the class of g1 [{conv}]",
                  partial(tuple_class_count, conv))
        run_claim(report, f"tuple-table-rows{tag}",
                  f"the ten published rows match the ten classes with g1 ~ (12345) "
                  f"[{conv}]",
                  partial(table_rows, conv))
        for gen_set in ("pure", "weighted"):
            run_claim(report, f"braid-{gen_set}-orbits{tag}",
                      f"{gen_set} braid generators give 2 orbits of size 10, "
                      f"split by the class of g1, each containing all r-types [{conv}]",
                      partial(braid, gen_set, conv))


def check_covers(report, args, corruption):
    from . import covers

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


def check_degenerations(report, args, corruption):
    from . import covers

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


def check_homology(report, args, corruption):
    from .characters import (a5_table, decompose, induced_character,
                             sign_class_function, sym_cube)
    from .perms import alternating_group_5, parse_cycles

    def hom():
        # the order-parity sign of S3 = <(123), (12)(45)>, induced; the
        # induced values are a character only if the sign is one of S3:
        # multiplicative and constant on the classes of S3
        a5 = alternating_group_5()
        s3 = a5.generated(a5.index[parse_cycles(s, 5)] for s in ("(123)", "(12)(45)"))
        sign = sign_class_function(s3)
        character = all(sign[a5.table[a][b]] == sign[a] * sign[b]
                        and sign[a5.conjugate(a, b)] == sign[a] for a in s3 for b in s3)
        chi = induced_character(s3, sign)
        dec, doubled = decompose(chi), decompose(chi + chi)
        ok = (len(s3) == 6 and character
              and chi.values == SYM_CUBE and dec == SYM_CUBE_DECOMPOSITION
              and chi.values == sym_cube(a5_table()[1]).values
              and doubled == {"V": 2, "I": 2, "I'": 2})
        witness = {"induced": str(chi), "doubled_decomposition": doubled}
        if not character:
            witness["sign_is_a_character"] = False
        return ok, witness
    run_claim(report, "homology-lattice-character",
              "the induced sign character is (10,-2,1,0,0) and doubles to "
              "V^2 + I^2 + I'^2",
              hom)


def check_binary(report, args, corruption):
    from . import covers

    def binary():
        rep = covers.binary_icosahedral_checks()
        ok = (rep["order"] == 120 and rep["closed"] and rep["norm_one"]
              and rep["center_order"] == 2 and rep["center_is_pm1"]
              and rep["abelianization_order"] == 1
              and rep["quotient_class_sizes"] == CLASS_SIZES)
        return ok, rep
    run_claim(report, "binary-icosahedral",
              "120 unit quaternions: closed, perfect, center of order 2, "
              "quotient has the icosahedral class sizes",
              binary)


def check_invariants(report, args, corruption):
    from .invariants import (contains_up_to_scalar, molien_closed_form,
                             molien_series, reynolds_basis)
    from .polys import monomials_of_degree
    from .winger import q_poly

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
              molien)

    def reynolds():
        series, mats, dims = molien_terms(), corruption.matrices(), {}
        for d in list(range(13)) + [15]:
            try:
                dims[d] = len(reynolds_basis(mats, d))
            except ValueError as exc:  # a non-group list has no Reynolds operator
                return False, {"reynolds": str(exc)}
            if dims[d] != series[d]:
                return False, {"degree": d, "reynolds": dims[d],
                               "molien": str(series[d])}
        return True, {"dims": {str(k): v for k, v in dims.items()}}
    run_claim(report, "reynolds-dimensions",
              "explicit invariant bases match the Molien coefficients at d <= 12, 15",
              reynolds)

    def degree6():
        try:
            basis = reynolds_basis(corruption.matrices(), 6)
        except ValueError as exc:  # a non-group list has no Reynolds operator
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
              degree6)


SUITES = {  # in the order `all` runs them
    "characters": check_characters,
    "orbits": check_orbits,
    "invariants": check_invariants,
    "pencil": check_pencil,
    "tuples": check_tuples,
    "covers": check_covers,
    "degenerations": check_degenerations,
    "homology": check_homology,
    "binary": check_binary,
}
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
