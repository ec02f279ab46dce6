from fractions import Fraction
from itertools import combinations, permutations

import pytest

from cyclo_rref import cyclo_kernel
from wingerverify.characters import A5_CLASS_REPS, power_maps
from wingerverify.cyclo import rational, zeta
from wingerverify.linalg import Matrix
from wingerverify.polys import Poly3
from wingerverify.winger import (INFINITY, _rescale, _triple_scalings, concurrent_triple,
                                 f_poly, gram_matrix, irregular_orbits,
                                 line_brackets, normalize_point, orbit_of,
                                 pencil_member, q_poly, reconstruct_group,
                                 singular_point, six_lines)


def test_six_lines_product_is_f():
    lines = six_lines()
    assert len(lines) == 6
    assert all(row[2] == rational(1) for row in lines)
    prod = Poly3.monomial((0, 0, 0), 1)
    for row in lines:
        prod = prod * Poly3.linear(row)
    assert prod == f_poly()


def test_f_has_integer_coefficients():
    f = f_poly()
    assert all(sum(e) == 6 for e in f.terms)
    for c in f.terms.values():
        q = c.to_fraction()
        assert q.denominator == 1
    # the two pure monomials the conic power cannot see
    assert f.coefficient((0, 0, 6)) == rational(1)
    assert (q_poly() ** 3).coefficient((3, 3, 0)) == rational(1)
    assert f.coefficient((3, 3, 0)).is_zero()


def test_no_three_concurrent():
    assert concurrent_triple(six_lines()) is None
    # a line through the meet of lines 0 and 1 is named with them
    rows = list(six_lines())
    rows[3] = tuple(a + b for a, b in zip(rows[0], rows[1]))
    assert concurrent_triple(rows) == (0, 1, 3)


def test_group_reconstruction():
    g = reconstruct_group()
    assert len(g) == 60
    assert sorted(len(c) for c in g.classes) == [1, 12, 12, 15, 20]
    # closure sample and a distinguished element
    eta = zeta()
    diag = Matrix.diagonal([eta, eta ** 4, rational(1)])
    assert diag in set(g.elements)


def kernel_scaling(w_rest, u_rest):
    """Oracle: the scaling c with (w ⊙ c) proportional to u for each pair,
    as the Q(zeta_5) kernel of a 9x3 linear system, or None when there is
    none."""
    zero = rational(0)
    eq_rows = []
    for w, u in zip(w_rest, u_rest):
        for j, k in ((0, 1), (0, 2), (1, 2)):
            row = [zero, zero, zero]
            row[j] = w[j] * u[k]
            row[k] = -(w[k] * u[j])
            eq_rows.append(row)
    kern = cyclo_kernel(eq_rows, 3)
    if len(kern) != 1 or any(x.is_zero() for x in kern[0]):
        return None
    return kern[0]


@pytest.mark.parametrize("replaced", [None, 3, 4, 5])
def test_closed_form_scalings_match_kernel_solve(replaced):
    # with one of the lines 3..5 swapped for a line in general position,
    # maps that match five of the lines need not match the sixth
    rows = list(six_lines())
    if replaced is not None:
        rows[replaced] = tuple(rational(x) for x in (1, 2, 3))
    assert not any(Matrix.from_rows(t).det().is_zero() for t in combinations(rows, 3))
    c_inv_t = Matrix.from_rows(rows[:3]).inverse().transpose()
    u_rest = [c_inv_t.apply(rows[i]) for i in range(3, 6)]
    u_ratios = [normalize_point(u)[:2] for u in u_rest]
    brackets = line_brackets(tuple(rows))
    realized = 0
    for triple in permutations(range(6), 3):
        b_inv = Matrix.from_rows([rows[k] for k in triple]).inverse()
        oracle = {}
        for rest in permutations(j for j in range(6) if j not in triple):
            c = kernel_scaling([b_inv.transpose().apply(rows[j]) for j in rest], u_rest)
            if c is not None:
                oracle[rest] = normalize_point(c)
        assert _triple_scalings(brackets, triple, u_ratios) == oracle, triple
        realized += len(oracle)
    assert realized == (60 if replaced is None else 1)


def four_division_scalings(b_inv, rows, triple, u_rest):
    """Oracle: the realized permutations of `triple` with their scalings,
    each point formed as the entrywise quotient u / w (three divisions)
    and then normalized (a fourth)."""
    b_inv_t = b_inv.transpose()
    points = {}
    for j in range(6):
        if j not in triple:
            w = b_inv_t.apply(rows[j])
            points[j] = [normalize_point(tuple(a / b for a, b in zip(u, w)))
                         for u in u_rest]
    out = {}
    for rest in permutations(points):
        c = points[rest[0]][0]
        if points[rest[1]][1] == c and points[rest[2]][2] == c:
            out[rest] = c
    return out


def test_scalings_match_the_four_division_form():
    rows = six_lines()
    c_inv_t = Matrix.from_rows(rows[:3]).inverse().transpose()
    u_rest = [c_inv_t.apply(rows[i]) for i in range(3, 6)]
    u_ratios = [normalize_point(u)[:2] for u in u_rest]
    brackets = line_brackets(rows)
    realized = 0
    for triple in permutations(range(6), 3):
        b_inv = Matrix.from_rows([rows[k] for k in triple]).inverse()
        oracle = four_division_scalings(b_inv, rows, triple, u_rest)
        assert _triple_scalings(brackets, triple, u_ratios) == oracle, triple
        realized += len(oracle)
    assert realized == 60


def test_group_preserves_everything():
    g = reconstruct_group()
    q, f, a = q_poly(), f_poly(), gram_matrix()
    # every element checked on its own: the oracle of the invariance
    # claim, which checks only the generators of the group
    for m in g.elements:
        assert m.transpose() * a * m == a
        assert m.det() == rational(1)
        assert q.act(m) == q and f.act(m) == f


def test_trace_claim_reads_one_element_per_class():
    # group-trace-character reads (12354) as the square of its (12345)
    # element: in A5 the square of (12345) is conjugate to (12354)
    squares, _ = power_maps()
    assert squares[A5_CLASS_REPS.index("(12345)")] == A5_CLASS_REPS.index("(12354)")
    g = reconstruct_group()
    m5 = g.orders.index(5)
    picks = (g.identity, g.orders.index(2), g.orders.index(3), m5, g.table[m5][m5])
    assert len({g.class_of[x] for x in picks}) == 5


def test_orbit_sizes_and_positions():
    orbs = irregular_orbits()
    assert sorted(orbs) == [6, 10, 12, 15]
    assert all(len(orbs[k]) == k for k in orbs)
    p = normalize_point((rational(0), rational(0), rational(1)))
    assert p in orbs[6]
    assert q_poly().evaluate(p) == rational(1)
    k_pt = normalize_point((rational(1), rational(0), rational(0)))
    assert k_pt in orbs[12]
    assert all(q_poly().evaluate(x) == rational(0) for x in orbs[12])


def test_orbit_from_generators_is_the_full_orbit():
    # the closure under the generators against the image under all 60
    g = reconstruct_group()
    eta = zeta()
    points = [next(iter(orb)) for orb in irregular_orbits().values()]
    points += [(rational(1), rational(2), rational(3)), (eta, rational(0), rational(1)),
               (rational(0), rational(1), rational(0)), (eta ** 2, eta, rational(-1))]
    for p in points:
        orbit = orbit_of(p, g)
        assert isinstance(orbit, tuple) and len(set(orbit)) == len(orbit), p
        assert orbit[0] == normalize_point(p)
        assert set(orbit) == {normalize_point(m.apply(p)) for m in g.elements}, p
    assert sorted(len(orbit_of(p, g)) for p in points[:4]) == [6, 10, 12, 15]


def test_line_brackets_are_the_signed_determinants():
    rows = six_lines()
    brackets = line_brackets(rows)
    assert len(brackets) == 120
    for t in permutations(range(6), 3):
        assert brackets[t] == Matrix.from_rows([rows[i] for i in t]).det(), t


def test_reconstruction_matches_the_inverse_search():
    # the survivors built as B^-1 diag(c) C, with B inverted, rescaled
    rows = six_lines()
    c_mat = Matrix.from_rows(rows[:3])
    c_inv_t = c_mat.inverse().transpose()
    u_rest = [c_inv_t.apply(rows[i]) for i in range(3, 6)]
    found = set()
    for triple in permutations(range(6), 3):
        b_inv = Matrix.from_rows([rows[k] for k in triple]).inverse()
        for c in four_division_scalings(b_inv, rows, triple, u_rest).values():
            m = _rescale(b_inv * Matrix.diagonal(c) * c_mat, gram_matrix())
            if m is not None:
                found.add(m)
    assert found == set(reconstruct_group().elements)


def test_rescale_keeps_the_form_exactly_or_refuses():
    gram = gram_matrix()
    # diag(1, 2, 1) doubles the z0*z1 part of the form and keeps the z2^2
    # part, so no multiple of it keeps the form
    assert _rescale(Matrix.diagonal([1, 2, 1]), gram) is None
    # diag(4, 1, 2) multiplies the form by 4; half of it keeps it with det 1
    half = Matrix.diagonal([2, Fraction(1, 2), 1])
    assert _rescale(Matrix.diagonal([4, 1, 2]), gram) == half
    for m in [half, *reconstruct_group().elements[:3]]:
        for k in (3, -1, Fraction(1, 2), zeta()):
            got = _rescale(m * rational(k), gram)
            assert got == m, (m, k)
            assert got.transpose() * gram * got == gram and got.det() == rational(1)


def test_pencil_members():
    f = f_poly()
    assert pencil_member(rational(0), f) == q_poly() ** 3
    assert pencil_member(INFINITY, f) == f
    lam = rational(Fraction(7, 3))
    member = pencil_member(lam, f)
    m = reconstruct_group().elements[11]
    assert member.act(m) == member


def test_singular_lambda_values():
    orbs, f = irregular_orbits(), f_poly()
    assert {str(singular_point(p, f)[0]) for p in orbs[6]} == {"-1"}
    assert {str(singular_point(p, f)[0]) for p in orbs[10]} == {"27/5"}
    assert all(singular_point(p, f)[0] is INFINITY for p in orbs[15])
    assert {str(singular_point(p, f)[0]) for p in orbs[12]} == {"0"}


def test_hand_oracle_gradients_at_vertex():
    p = (rational(0), rational(0), rational(1))
    gq = tuple(d.evaluate(p) for d in (q_poly() ** 3).gradient())
    gf = tuple(d.evaluate(p) for d in f_poly().gradient())
    assert [str(c) for c in gq] == ["0", "0", "6"]
    assert [str(c) for c in gf] == ["0", "0", "6"]


def test_node_checks():
    orbs, f = irregular_orbits(), f_poly()
    assert all(singular_point(p, f) == (rational(-1), True) for p in orbs[6])
    assert all(singular_point(p, f) == (rational(Fraction(27, 5)), True) for p in orbs[10])
    assert all(singular_point(p, f) == (INFINITY, True) for p in orbs[15])
    # triple conic: singular but not nodal at base points
    assert singular_point(next(iter(orbs[12])), f) == (rational(0), False)


@pytest.mark.parametrize("sextic", ["F", "f:0,0,6"])
def test_singular_point_is_projective(sextic):
    # lam and the node test read the point, not its representative: the
    # cache may be keyed by the normalized orbit points alone
    f = f_poly() if sextic == "F" else f_poly() + Poly3.monomial((0, 0, 6), 1)
    eta = zeta()
    for p in (p for orbit in irregular_orbits().values() for p in orbit):
        for k in (rational(2), eta, rational(Fraction(-1, 3))):
            assert singular_point(tuple(k * c for c in p), f) == singular_point(p, f), (p, k)


def test_node_check_rejects_smooth_points():
    # no member of the pencil is singular at (1:1:1), so it is no node
    assert singular_point((rational(1), rational(1), rational(1)), f_poly()) == (None, False)


def test_normalize_point():
    p = normalize_point((rational(2), rational(4), rational(0)))
    assert p == (rational(Fraction(1, 2)), rational(1), rational(0))
    with pytest.raises(ValueError):
        normalize_point((rational(0), rational(0), rational(0)))
