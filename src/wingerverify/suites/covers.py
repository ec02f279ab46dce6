"""The `covers`, `degenerations` and `binary` suites, which read the
`covers` layer: Riemann-Hurwitz arithmetic, the degenerations of the 20
tuple classes and the binary icosahedral group."""

from __future__ import annotations

from collections import Counter

from ..report import CLASS_SIZES
from ..report import run_claim


def check_covers(report, args, corruption):
    from .. import covers

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
        vals = {key: covers.riemann_hurwitz_genus(n, orders) for key, n, orders in (
            ("60,{5,2,2,2}", 60, (5, 2, 2, 2)), ("3,12x{3}", 3, [3] * 12),
            ("10,{5,2,2}", 10, (5, 2, 2)), ("60,{5,2,5}", 60, (5, 2, 5)))}
        want = {"60,{5,2,2,2}": 10, "3,12x{3}": 10, "10,{5,2,2}": 0, "60,{5,2,5}": 4}
        return vals == want, {"genera": vals}
    run_claim(report, "riemann-hurwitz-genera",
              "Riemann-Hurwitz genus checks for the four published covers",
              genera)


def check_degenerations(report, args, corruption):
    from .. import covers

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


def check_binary(report, args, corruption):
    from .. import covers

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
