from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclo_loops
from cyclo_rref import cyclo_kernel
from wingerverify import cyclo, winger
from wingerverify.characters import A5_CLASS_REPS, power_maps
from wingerverify.cyclo import Cyclo, make, rational, zeta
from wingerverify.linalg import Matrix
from wingerverify.polys import Poly3, monomials_of_degree
from wingerverify.winger import (INFINITY, _coordinates, _derivatives, _matrix_key, _rescale,
                                 _triple_scalings, concurrent_triple, f_poly, gram_matrix,
                                 irregular_orbits, line_brackets, normalize_point, orbit_of,
                                 pencil_member, q_poly, reconstruct_group, singular_point,
                                 six_lines)


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
    assert all(sum(e) == 6 for e in f.nums)
    for c in cyclo_loops.terms(f).values():
        q = c.to_fraction()
        assert q.denominator == 1
    # the two pure monomials the conic power cannot see
    assert cyclo_loops.coefficient(f, (0, 0, 6)) == rational(1)
    assert cyclo_loops.coefficient(q_poly() ** 3, (3, 3, 0)) == rational(1)
    assert (3, 3, 0) not in f.nums


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


def field_scalings(brackets, triple):
    """`_triple_scalings` with each scaling read as field elements."""
    return {rest: _coordinates(*c) for rest, c in _triple_scalings(brackets, triple).items()}


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
    brackets = line_brackets(tuple(rows))
    realized = 0
    for triple in permutations(range(6), 3):
        b_inv = Matrix.from_rows([rows[k] for k in triple]).inverse()
        oracle = {}
        for rest in permutations(j for j in range(6) if j not in triple):
            c = kernel_scaling([b_inv.transpose().apply(rows[j]) for j in rest], u_rest)
            if c is not None:
                oracle[rest] = normalize_point(c)
        assert field_scalings(brackets, triple) == oracle, triple
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
    brackets = line_brackets(rows)
    realized = 0
    for triple in permutations(range(6), 3):
        b_inv = Matrix.from_rows([rows[k] for k in triple]).inverse()
        oracle = four_division_scalings(b_inv, rows, triple, u_rest)
        assert field_scalings(brackets, triple) == oracle, triple
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
    # the integer numerators of D^3 times each determinant, for the lcm D
    # of the rows' denominators: 1 for the six lines, 6 once two are scaled
    lines = six_lines()
    scaled = (tuple(x * Fraction(1, 2) for x in lines[0]),
              tuple(x * Fraction(5, 3) for x in lines[1]), *lines[2:])
    for rows, d in ((lines, 1), (scaled, 6)):
        brackets = line_brackets(rows)
        assert len(brackets) == 120
        for t in permutations(range(6), 3):
            det = Matrix.from_rows([rows[i] for i in t]).det()
            assert Cyclo(brackets[t]) == det * d ** 3, t


def numerator_form(m):
    """m as `_rescale` takes it: its numerators and their determinant."""
    return m.nums, m._cofactors()[2]


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
            m = _rescale(numerator_form(b_inv * Matrix.diagonal(c) * c_mat), gram_matrix())
            if m is not None:
                found.add(m)
    assert found == set(reconstruct_group().elements)


ETA = zeta()
# 1 + zeta and the golden ratio -(zeta^2 + zeta^3) are units of Z[zeta_5]
LINE_SCALES = {
    "halves": [Fraction(1, 2)] * 5 + [1],
    "rationals": [Fraction(1, 2), 3, Fraction(-5, 7), 1, 3, Fraction(-5, 7)],
    "units": [ETA, 1 + ETA, -(ETA ** 2 + ETA ** 3), -ETA ** 2, 1, ETA ** 4],
    "mixed": [Fraction(-5, 7), 1 + ETA, 3, Fraction(1, 2) * ETA, -1, Fraction(1, 2)],
}


@pytest.mark.parametrize("scales", LINE_SCALES.values(), ids=LINE_SCALES.keys())
def test_reconstruction_does_not_depend_on_the_line_rows_scale(monkeypatch, scales):
    # a row times a nonzero scalar is the same line; the paper's rows are
    # integral (D = 1), so only scaled rows reach the powers of the
    # common denominator D in the brackets, the cross products and det N
    group = reconstruct_group()
    rows = tuple(tuple(x * k for x in row) for row, k in zip(six_lines(), scales))
    monkeypatch.setattr(winger, "six_lines", lambda: rows)
    reconstruct_group.cache_clear()
    try:
        scaled = reconstruct_group()
    finally:
        reconstruct_group.cache_clear()
    assert winger.line_crosses(rows)[0] != winger.line_crosses(six_lines())[0]
    assert scaled.elements == group.elements
    assert scaled.generators == group.generators


def test_rescale_keeps_the_form_exactly_or_refuses():
    gram = gram_matrix()
    # diag(1, 2, 1) doubles the z0*z1 part of the form and keeps the z2^2
    # part, so no multiple of it keeps the form
    assert _rescale(numerator_form(Matrix.diagonal([1, 2, 1])), gram) is None
    # diag(4, 1, 2) multiplies the form by 4; half of it keeps it with det 1
    half = Matrix.diagonal([2, Fraction(1, 2), 1])
    assert _rescale(numerator_form(Matrix.diagonal([4, 1, 2])), gram) == half
    for m in [half, *reconstruct_group().elements[:3]]:
        for k in (3, -1, Fraction(1, 2), zeta()):
            got = _rescale(numerator_form(m * rational(k)), gram)
            assert got == m, (m, k)
            assert got.transpose() * gram * got == gram and got.det() == rational(1)
    # the scale is read at any nonzero Gram entry.  Entry (0, 1) of I is
    # 0; twice a cyclic permutation multiplies the form of I by 4, and half
    # of it keeps it with det 1
    cyclic = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert _rescale(numerator_form(cyclic * 2), Matrix.identity(3)) == cyclic
    assert _rescale(numerator_form(Matrix.diagonal([1, 2, 1])), Matrix.identity(3)) is None
    # the form in the coordinates z = T z' for T = diag(2, 1, 1/2): T^T G T
    # has entry (0, 1) = 1, and T^-1 M T keeps it for every M that keeps G
    t = Matrix.diagonal([2, 1, Fraction(1, 2)])
    gram = t.transpose() * gram_matrix() * t
    assert gram.entries[1] == rational(1)
    for m in reconstruct_group().elements[:4]:
        moved = t.inverse() * m * t
        for k in (3, -1, Fraction(1, 2), zeta()):
            assert _rescale(numerator_form(moved * rational(k)), gram) == moved, (m, k)
    assert _rescale(numerator_form(Matrix.diagonal([1, 2, 1])), gram) is None


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


# -- the orbit side against its field-element loops (tests/cyclo_loops.py)

GOLDEN_FAULTS = (None, (0, 0, 6), (3, 2, 1), (6, 0, 0))


def sextic(fault):
    """F, or F plus the monomial of the `f:a,b,c` fault."""
    return f_poly() if fault is None else f_poly() + Poly3.monomial(fault, 1)


@lru_cache(maxsize=None)
def orbit_points() -> tuple:
    return tuple(p for orbit in irregular_orbits().values() for p in orbit)


def cross(p, r):
    return (p[1] * r[2] - p[2] * r[1], p[2] * r[0] - p[0] * r[2], p[0] * r[1] - p[1] * r[0])


# field elements over mixed denominators, zero among them, and nonzero scales
MIXED_ELEMENTS = st.builds(lambda nums, den: make([Fraction(n, den) for n in nums]),
                           st.lists(st.integers(-4, 4), min_size=1, max_size=4),
                           st.sampled_from([1, 2, 3, 5, 6, 7]))
COORDINATES = st.one_of(st.just(0), st.integers(-4, 4),
                        st.fractions(-3, 3, max_denominator=6), MIXED_ELEMENTS)
# points with zero coordinates (each chart), the orbit points and points
# of the conic, where grad Q^3 vanishes
POINTS = st.one_of(
    st.lists(COORDINATES, min_size=3, max_size=3).filter(any).map(
        lambda p: tuple(map(rational, p))),
    st.integers(0, 42).map(lambda k: orbit_points()[k]),
    MIXED_ELEMENTS.map(lambda s: (s * s, rational(-1), s)))
SCALES = st.one_of(st.sampled_from([rational(-1), zeta(), rational(Fraction(2, 3))]),
                   MIXED_ELEMENTS.filter(bool))
# the golden faults, F over other denominators, F plus a fractional
# monomial, and multiples of Q^3, singular wherever Q vanishes
SEXTICS = st.one_of(
    st.sampled_from(GOLDEN_FAULTS).map(sextic),
    SCALES.map(lambda k: f_poly() * k),
    st.builds(lambda e, c: f_poly() + Poly3.monomial(e, c),
              st.sampled_from(monomials_of_degree(6)), MIXED_ELEMENTS),
    SCALES.map(lambda k: q_poly() ** 3 * k))


COORDINATE_TRIPLES = st.lists(COORDINATES, min_size=3, max_size=3)
BOOLEANS = st.booleans()


@st.composite
def singular_pencils(draw):
    """(p, f) with the member Q^3 + lam*f equal to L1 L2 K for lines L1,
    L2 through p and a quartic K: a node at p when the lines differ and
    K(p) is not 0, and not a node when L2 = L1.  p is off the conic,
    where both gradients would vanish."""
    p = draw(POINTS.filter(lambda p: q_poly().evaluate(p) != 0))
    lines = [cross(p, tuple(map(rational, draw(COORDINATE_TRIPLES)))) for _ in range(2)]
    if draw(BOOLEANS):
        lines[1] = lines[0]
    k = Poly3.linear(tuple(map(rational, draw(COORDINATE_TRIPLES))))
    member = Poly3.linear(lines[0]) * Poly3.linear(lines[1]) * k ** 4
    return p, (member + q_poly() ** 3 * -1) * draw(SCALES).inv()


def test_singular_point_matches_the_field_loop_on_the_orbits():
    for fault in GOLDEN_FAULTS:
        f = sextic(fault)
        for p in orbit_points():
            assert singular_point(p, f) == cyclo_loops.singular_point(p, f), (fault, p)


# a member with a cusp at (0:0:1) and the Hessian entries of f over 3, 1
# and 1: gf_2 = 6 and lam = -1, and b^2 - ac = 0 only with those
# denominators carried
CUSP_F = Poly3({(0, 0, 6): 1, (2, 0, 4): Fraction(1, 3), (1, 1, 4): 1, (0, 2, 4): 3})
VERTEX = (rational(0), rational(0), rational(1))


@settings(max_examples=80, deadline=None)
@given(POINTS, SEXTICS, SCALES)
@example(VERTEX, CUSP_F, rational(Fraction(-1, 2)))
@example(VERTEX, f_poly(), zeta())  # gf = gq = (0, 0, 6): lam = -1
@example((rational(1), rational(-1), rational(1)), q_poly() ** 3, rational(2))  # gq = gf = 0
@example(VERTEX, Poly3.monomial((3, 0, 3), Fraction(1, 7)), rational(3))  # infinity, no node
def test_singular_point_matches_the_field_loop(p, f, k):
    # lam, INFINITY or None and the node test, for every representative
    want = cyclo_loops.singular_point(p, f)
    assert singular_point(p, f) == want
    assert singular_point(tuple(k * c for c in p), f) == want


@settings(max_examples=60, deadline=None)
@given(singular_pencils(), SCALES)
def test_singular_point_matches_the_field_loop_on_singular_members(pencil, k):
    p, f = pencil
    want = cyclo_loops.singular_point(p, f)
    assert singular_point(p, f) == want
    assert singular_point(tuple(k * c for c in p), f) == want


def test_cusp_with_mixed_denominators_is_no_node():
    assert singular_point(VERTEX, CUSP_F) == (rational(-1), False)
    # with the z0^2 z2^4 coefficient 1/3 replaced by 1/2, the chart form is
    # nondegenerate
    node = CUSP_F + Poly3.monomial((2, 0, 4), Fraction(1, 6))
    assert singular_point(VERTEX, node) == (rational(-1), True)


@settings(max_examples=60, deadline=None)
@given(POINTS)
def test_normalize_point_matches_the_field_loop(p):
    assert normalize_point(p) == cyclo_loops.normalize_point(p)


def test_orbits_match_the_field_loop():
    # the same points in the same order
    g = reconstruct_group()
    eta = zeta()
    starts = [orbit[0] for orbit in irregular_orbits().values()]
    starts += [(rational(1), rational(2), rational(3)), (eta, rational(0), rational(1)),
               (rational(0), rational(Fraction(1, 3)), rational(0)),
               (eta ** 2 * Fraction(2, 7), eta, rational(-1))]
    for p in starts:
        assert orbit_of(p, g) == cyclo_loops.orbit_of(p, g), p


def scaled_lines(replaced=None):
    """The six lines over mixed denominators (the brackets carry D^3 for
    D = 30), with line `replaced` moved into general position."""
    rows = [tuple(x * Fraction(1, k) for x in row)
            for row, k in zip(six_lines(), (1, 2, 3, 5, 1, 6))]
    if replaced is not None:
        rows[replaced] = tuple(rational(x) for x in (1, Fraction(2, 5), 3))
    return rows


# lines in general position for which some order of the three points
# agrees on the ratios of entries 0 and 1 alone, though not on 0 and 2
SHARED_RATIO = [tuple(map(rational, row)) for row in
                ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -2, 3), (-3, 3, 1), (3, 3, 3))]


@pytest.mark.parametrize("rows", [scaled_lines(), scaled_lines(3), scaled_lines(5), SHARED_RATIO])
def test_triple_scan_matches_the_field_loop(rows):
    assert concurrent_triple(rows) is None
    brackets = line_brackets(tuple(rows))
    for triple in permutations(range(6), 3):
        assert field_scalings(brackets, triple) == cyclo_loops.triple_scalings(brackets, triple)


def test_matrix_key_is_the_cyclo_key():
    # the 60 matrices, their multiples over other denominators and a matrix
    # whose entries reduce by different gcds: the same keys, so the same order
    g = reconstruct_group()
    mats = [*g.elements, *(m * Fraction(k, 6) for m in g.elements[:20] for k in (1, 2, 3, 4)),
            Matrix([Fraction(1, 2), zeta(), 3, make([0, Fraction(1, 3)]), 1, Fraction(1, 5),
                    2, 0, make([Fraction(2, 7), 0, Fraction(1, 7)])])]
    assert [_matrix_key(m) for m in mats] == [cyclo_loops.matrix_key(m) for m in mats]
    assert sorted(mats, key=_matrix_key) == sorted(mats, key=cyclo_loops.matrix_key)
    assert list(g.elements) == sorted(g.elements, key=cyclo_loops.matrix_key)


def test_orbit_side_builds_only_the_field_elements_it_returns(monkeypatch):
    # the triple scan builds no field element, and the singular-point test
    # only the lam that it returns
    brackets, f, points = line_brackets(six_lines()), f_poly(), orbit_points()
    _derivatives(f)
    built = []
    make_element = cyclo._make

    def counted(*args):
        built.append(args)
        return make_element(*args)
    for module in ("cyclo", "linalg", "polys", "winger"):
        monkeypatch.setattr(f"wingerverify.{module}._make", counted)
    scalings = [_triple_scalings(brackets, t) for t in permutations(range(6), 3)]
    assert sum(map(len, scalings)) == 60 and len(built) == 0
    built.clear()
    singular_point.cache_clear()
    got = [singular_point(p, f) for p in points]
    assert len(built) == sum(lam not in (None, INFINITY) for lam, _ in got) == 28
    monkeypatch.undo()
    assert got == [cyclo_loops.singular_point(p, f) for p in points]
