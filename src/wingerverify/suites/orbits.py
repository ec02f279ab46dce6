"""The `orbits` suite: the reconstructed group, its invariance, the six
lines and the irregular orbits."""

from __future__ import annotations

from collections import Counter
from math import comb

from ..report import CLASS_SIZES, RECONSTRUCTION, run_claim


def check_orbits(report, args, corruption):
    from ..characters import A5_CLASS_REPS, A5_IRREP_LABELS, a5_table, class_sizes
    from ..cyclo import rational
    from ..winger import (ReconstructionError, concurrent_triple, gram_matrix,
                         irregular_orbits, q_poly, reconstruct_group, six_lines)

    def reconstruction():
        try:
            group = reconstruct_group()
        except ReconstructionError as exc:  # a fault in the search is a verdict
            return False, str(exc)
        return len(group) == 60, {"survivors": len(group)}
    run_claim(report, RECONSTRUCTION,
              "line-permutation search returns exactly 60 solvable cases forming a group",
              reconstruction)

    def sizes():
        got = sorted(len(c) for c in reconstruct_group().classes)
        return got == CLASS_SIZES, {"sizes": got}
    run_claim(report, "group-class-sizes",
              "conjugacy class sizes of the reconstructed group are {1,15,20,12,12}",
              sizes, requires=RECONSTRUCTION)

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
    run_claim(report, "group-trace-character",
              "trace multiset matches one 3-dimensional character row exactly",
              traces, requires=RECONSTRUCTION)

    def invariance():
        q, f, gram, one = q_poly(), corruption.sextic(), gram_matrix(), rational(1)

        def violations(m):
            return [label for label, holds in (
                ("Q", q.act(m) == q), ("F", f.act(m) == f),
                ("gram", m.transpose() * gram * m == gram), ("det", m.det() == one))
                if not holds]

        # Every group element is a word in the generators, and the four
        # properties pass to products: Q o (s h) = (Q o s) o h, the same for
        # F, (s h)^T G (s h) = h^T (s^T G s) h and det(s h) = det s det h.
        # So if every generator passes, every group member passes; any
        # other matrix, and every matrix when a generator fails, is checked.
        group = reconstruct_group()
        proven = not any(violations(group.elements[s]) for s in group.generators)
        mats = corruption.matrices()
        bad = [(label, i) for i, m in enumerate(mats)
               if not (proven and m in group.index) for label in violations(m)]
        if bad:
            return False, {"violations": bad[:5], "count": len(bad)}
        return True, {"elements_checked": len(mats)}
    run_claim(report, "invariance-conic-sextic-form",
              "Q, F, the bilinear form and det 1 are preserved by all 60 elements",
              invariance, requires=RECONSTRUCTION)

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
    run_claim(report, "irregular-orbit-sizes",
              "fixed-point orbits have sizes 6, 10, 15 off the conic and 12 on it",
              orbits, requires=RECONSTRUCTION)
