"""The `pencil` suite: the singular members of the pencil, their nodes, the
base locus and, with `--deep`, the discriminant."""

from __future__ import annotations

from fractions import Fraction

from ..report import RECONSTRUCTION, SINGULAR_MEMBERS, Claim, run_claim


def check_pencil(report, args, corruption):
    from ..cyclo import rational
    from ..winger import INFINITY, irregular_orbits, pencil_member, singular_point
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
        run_claim(report, claim_id, description, on_orbit, requires=RECONSTRUCTION)

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
              nodes, requires=RECONSTRUCTION)

    def base_locus():
        from ..polys import Point
        orbs, f = irregular_orbits(), corruption.sextic()
        lams = [rational(Fraction(n, d)) for n, d in ((0, 1), (1, 1), (7, 3), (-5, 2), (11, 1))]
        # the members at 0 and infinity are Q^3 and the lines themselves
        members = [(lam, pencil_member(lam, f)) for lam in (*lams, INFINITY)]
        points = [(p, Point(p)) for p in orbs[12]]  # one table per point for the six
        miss = next(((lam, p) for lam, m in members for p, at in points
                     if any(at.value(m)[1])), None)
        witness = {"points": len(orbs[12]), "members_checked": len(members)}
        if miss is not None:  # the first member and point where it does not vanish
            witness.update({"lambda": str(miss[0]), "point": [str(c) for c in miss[1]]})
        return miss is None, witness
    run_claim(report, "base-locus-twelve-points",
              "the 12-point orbit lies on the conic, the lines and every member",
              base_locus, requires=RECONSTRUCTION)

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
              smooth_evidence, requires=RECONSTRUCTION)

    if args.deep:
        def deep():
            from ..discriminant import pencil_discriminant
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
