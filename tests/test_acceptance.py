"""Acceptance gate: one test per criterion, one printed verdict line each."""

from collections import Counter
from fractions import Fraction

from wingerverify import covers, hurwitz
from wingerverify.characters import (A5_IRREP_LABELS, a5_table, chi_e_s5,
                                     decompose, inner_product, restrict_to_a5,
                                     sym_cube)
from wingerverify.cli import main as cli_main
from wingerverify.cyclo import rational
from wingerverify.invariants import (contains_up_to_scalar, molien_closed_form,
                                     molien_series, reynolds_basis)
from wingerverify.perms import parse_cycles
from wingerverify.polys import monomials_of_degree
from wingerverify.winger import (INFINITY, f_poly, gram_matrix,
                                 irregular_orbits, node_check, pencil_member,
                                 q_poly, reconstruct_group, singular_lambda)


def verdict(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_group_reconstruction():
    g = reconstruct_group()
    ok = g.order == 60 and g.class_sizes() == [1, 12, 12, 15, 20]
    row = a5_table()[1 if g.label == "I" else 2]
    counts = Counter(str(m.trace()) for m in g.matrices)
    expected = Counter()
    for v, size in zip(row.values, (1, 15, 20, 12, 12)):
        expected[str(v)] += size
    ok = ok and counts == expected
    verdict(1, ok, f"60 matrices, class sizes 1/15/20/12/12, "
                   f"trace multiset = character row {g.label}")


def test_criterion_02_invariance():
    g = reconstruct_group()
    q, f, a = q_poly(), f_poly(), gram_matrix()
    ok = all(q.act(m) == q and f.act(m) == f
             and m.transpose() * a * m == a and m.det() == rational(1)
             for m in g.matrices)
    verdict(2, ok, "Q, F, the bilinear form and det 1 fixed by all 60 elements")


def test_criterion_03_singular_fibers():
    orbs = irregular_orbits()
    ok = {str(singular_lambda(p)) for p in orbs[6]} == {"-1"}
    ok = ok and {str(singular_lambda(p)) for p in orbs[10]} == {"27/5"}
    ok = ok and all(singular_lambda(p) is INFINITY for p in orbs[15])
    ok = ok and all(node_check(rational(-1), p) for p in orbs[6])
    ok = ok and all(node_check(rational(Fraction(27, 5)), p) for p in orbs[10])
    base_ok = all(pencil_member(lam).evaluate(p) == rational(0)
                  for lam in (rational(0), rational(3), INFINITY)
                  for p in orbs[12])
    ok = ok and base_ok and len(orbs[12]) == 12
    ok = ok and {str(singular_lambda(p)) for p in orbs[12]} == {"0"}
    verdict(3, ok, "singular members exactly {0, -1, 27/5, infinity} on the "
                   "12/6/10/15 orbits, with nodes where claimed")


def test_criterion_04_molien():
    mats = reconstruct_group().matrices
    series = molien_series(mats, 31)
    ok = series == molien_closed_form(31)
    ok = ok and series[2] == 1 and series[6] == 2
    for d in list(range(13)) + [15]:
        ok = ok and len(reynolds_basis(mats, d)) == series[d]
    ok = ok and len(monomials_of_degree(6)) == 28
    verdict(4, ok, "Molien series matches (1+T^15)/((1-T^2)(1-T^6)(1-T^10)); "
                   "Reynolds dimensions agree; dim of the sextic space is 28")


def test_criterion_05_characters():
    table = dict(zip(A5_IRREP_LABELS, a5_table()))
    ok = all(inner_product(a, b) == rational(1 if la == lb else 0)
             for la, a in table.items() for lb, b in table.items())
    expect = tuple(rational(v) for v in (10, -2, 1, 0, 0))
    ok = ok and sym_cube(table["I"]).values == expect
    ok = ok and sym_cube(table["I'"]).values == expect
    ok = ok and decompose(sym_cube(table["I"])) == {"I": 1, "I'": 1, "V": 1}
    ok = ok and decompose(restrict_to_a5(chi_e_s5())) == {"I": 1, "I'": 1}
    verdict(5, ok, "character table orthonormal; symmetric cube is "
                   "(10,-2,1,0,0) = I+I'+V; E restricts to I+I'")


def test_criterion_06_homology():
    ok, chi, doubled = covers.homology_character_check()
    ok = ok and doubled == {"V": 2, "I": 2, "I'": 2}
    verdict(6, ok, "induced sign character is (10,-2,1,0,0); doubled it is "
                   "V^2 + (I+I')^2")


def test_criterion_07_tuples():
    classes = hurwitz.enumerate_tuple_classes()
    ok = len(classes) == 20
    ok = ok and Counter(c.r_value for c in classes) == Counter({2: 4, 3: 6, 5: 10})
    ok = ok and sorted(Counter(c.g1_class for c in classes).values()) == [10, 10]
    matched = hurwitz.validate_tuple_table(classes)
    ok = ok and set(matched) == {c for c in classes if c.g1_class == "(12345)"}
    orbits = hurwitz.pair_orbits()
    ok = ok and len(orbits) == 6 and all(len(o) == 60 for o in orbits)
    for r, a, b in hurwitz.PAIR_REPRESENTATIVES:
        pair = (parse_cycles(a, 5), parse_cycles(b, 5))
        ok = ok and sum(pair in o for o in orbits) == 1
    sets = hurwitz.order_sets()
    for r in (2, 3, 5):
        fac = hurwitz.involution_factorizations(min(sets[r]))
        ok = ok and len(fac) == r
    ok = ok and all(h1 * h2 == h2 * h1
                    for h1, h2 in hurwitz.involution_factorizations(min(sets[2])))
    verdict(7, ok, "20 tuple classes with the 4/6/10 and 10/10 splits; the ten "
                   "published rows validate; 6 free pair orbits; r involution "
                   "factorizations per order-r element")


def test_criterion_08_braid_orbits():
    classes = hurwitz.enumerate_tuple_classes()
    ok = True
    for gen_set in ("pure", "weighted"):
        parts = hurwitz.braid_orbits(classes, gen_set)
        ok = ok and sorted(len(p) for p in parts) == [10, 10]
        for p in parts:
            ok = ok and len({c.g1_class for c in p}) == 1
            ok = ok and {c.r_value for c in p} == {2, 3, 5}
    verdict(8, ok, "pure and weighted braid generators each give two orbits of "
                   "size 10 = the g1-class blocks, each containing all r-types")


def test_criterion_09_riemann_hurwitz():
    ok = covers.signature_solutions() == [(0, (5, 2, 2, 2))]
    ok = ok and covers.regular_cover_genus(60, (5, 2, 2, 2)) == 10
    ok = ok and covers.regular_cover_genus(3, [3] * 12) == 10
    ok = ok and covers.regular_cover_genus(10, (5, 2, 2)) == 0
    ok = ok and covers.regular_cover_genus(60, (5, 2, 5)) == 4
    verdict(9, ok, "(0;5,2,2,2) is the unique signature; genus checks "
                   "10/10/0/4 all hold")


def test_criterion_10_degenerations():
    reports = covers.all_degeneration_reports()
    shapes = Counter((r.n, r.nodes, r.components, r.component_genus)
                     for _, r in reports)
    ok = shapes == Counter({(2, 15, 6, 0): 4, (3, 10, 1, 0): 6, (5, 6, 1, 4): 10})
    ok = ok and all(r.arithmetic_genus == 10 for _, r in reports)
    verdict(10, ok, "all 20 classes fall into the three degeneration shapes, "
                    "every arithmetic genus is 10")


def test_criterion_11_binary_icosahedral():
    rep = covers.binary_icosahedral_checks()
    ok = (rep["order"] == 120 and rep["closed"] and rep["norm_one"]
          and rep["center_order"] == 2 and rep["center_is_pm1"]
          and rep["abelianization_order"] == 1
          and rep["quotient_class_sizes"] == [1, 12, 12, 15, 20])
    verdict(11, ok, "120 unit quaternions: closed, perfect, center {+1, -1}, "
                    "quotient has the icosahedral class sizes")


def test_criterion_12_fault_injection(capsys):
    corrupt_runs = [
        ["orbits", "--corrupt", "f:6,0,0"],
        ["orbits", "--corrupt", "f:3,2,1"],
        ["pencil", "--corrupt", "f:0,0,6"],
        ["orbits", "--corrupt", "matrix:0"],
        ["orbits", "--corrupt", "matrix:17"],
        ["invariants", "--corrupt", "matrix:3"],
    ]
    ok = all(cli_main(argv) == 1 for argv in corrupt_runs)
    capsys.readouterr()
    verdict(12, ok, "every injected corruption of F or a group matrix makes "
                    "at least one claim fail")


def test_criterion_13_discriminant():
    from wingerverify.discriminant import pencil_discriminant
    _, mults = pencil_discriminant()
    ok = mults == {"degree": 60, "0": 44, "-1": 6, "27/5": 10,
                   "residual_degree": 0, "residual_is_nonzero_constant": True}
    verdict(13, ok, "discriminant of degree 60 vanishes exactly at 0, -1, 27/5 "
                    "(orders 44, 6, 10), the degree drop below 75 being the "
                    "member at infinity")
