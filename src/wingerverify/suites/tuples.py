"""The `tuples` suite: the (5,2,2,2) generating tuples of A5, their classes
and braid orbits, in each product convention asked for."""

from __future__ import annotations

from collections import Counter
from functools import cache, partial

from ..report import run_claim


def check_tuples(report, args, corruption):
    from .. import hurwitz
    from ..perms import alternating_group_5, parse_cycles

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
            ok = ok and hurwitz.r_value((g1, g2)) == r
            hits = [i for i, o in enumerate(orbits) if (g1, g2) in o]
            ok = ok and len(hits) == 1
            matched.update(hits)
        ok = ok and len(matched) == 6
        rvals = sorted(hurwitz.r_value(min(o)) for o in orbits)
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
        by_r = Counter(map(hurwitz.r_value, classes))
        by_g1 = Counter(map(hurwitz.g1_class, classes))
        ok = (len(classes) == 20 and by_r == Counter({2: 4, 3: 6, 5: 10})
              and sorted(by_g1.values()) == [10, 10])
        return ok, {"classes": len(classes), "by_r": dict(sorted(by_r.items())),
                    "by_g1": dict(sorted(by_g1.items()))}

    def table_rows(conv):
        classes = tuple_classes(conv)
        matched, unmatched = hurwitz.validate_tuple_table(classes)
        want = {c for c in classes if hurwitz.g1_class(c) == "(12345)"}
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
            ok = ok and len(set(map(hurwitz.g1_class, p))) == 1
            ok = ok and set(map(hurwitz.r_value, p)) == {2, 3, 5}
        return ok, {"orbit_sizes": sorted(len(p) for p in parts),
                    "g1_blocks": sorted(hurwitz.g1_class(min(p)) for p in parts)}

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
