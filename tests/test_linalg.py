from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

import cyclo_loops
from cyclo_rref import cyclo_kernel, cyclo_rref
from dense_bareiss import dense_echelon
from fraction_rref import null_space, rref
from strategies import BOOLEANS, WIDE, field_elements, nine_entries, triples
from wingerverify.cyclo import Cyclo, rational, zeta
from macaulay_quotient import ORACLE_T
from wingerverify.discriminant import (CONTROL_T, _eval_determinants,
                                       _pencil_partials)
from wingerverify.linalg import Matrix, echelon, gauss_jordan, integer_det, kernel_basis
from wingerverify.winger import f_poly, reconstruct_group, six_lines


def gram():
    h = rational(Fraction(1, 2))
    z, o = rational(0), rational(1)
    return Matrix.from_rows([[z, h, z], [h, z, z], [z, z, o]])


def test_det_gram():
    assert gram().det() == rational(Fraction(-1, 4))


def test_det_singular_and_permutation_sign():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 1, 5]])
    assert m.det().is_zero()
    swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert swap.det() == rational(-1)
    cycle = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert cycle.det() == rational(1)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).det()  # only the 3x3 shape


def test_inverse():
    m = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert m * m.inverse() == Matrix.identity(3)
    with pytest.raises(ValueError, match="singular"):
        Matrix.from_rows([[1, 1, 0], [1, 1, 0], [0, 0, 1]]).inverse()
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 1], [1, 1]]).inverse()


def test_kernel():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    ker = m.kernel()
    assert len(ker) == 1
    assert all(c.is_zero() for c in m.apply(ker[0]))


def test_kernel_by_rank():
    # rank 3: no kernel; rank 2: one vector v with m v = 0, on the line of
    # the Q(zeta_5) reference kernel; rank 1 and 0: ValueError
    assert Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]]).kernel() == []
    eta = zeta()
    rank2 = Matrix.from_rows([[1, eta, 0], [eta, eta ** 2, 0], [0, 1, eta ** 3]])
    (v,) = rank2.kernel()
    assert all(c.is_zero() for c in rank2.apply(v))
    assert any(not c.is_zero() for c in v)
    (ref,) = cyclo_kernel([rank2.row(i) for i in range(3)], 3)
    assert len(cyclo_rref([v, ref])[1]) == 1  # proportional
    for low_rank in ([[1, 2, 3], [2, 4, 6], [eta, 2 * eta, 3 * eta]], [[0] * 3] * 3):
        with pytest.raises(ValueError, match="rank below 2"):
            Matrix.from_rows(low_rank).kernel()


# -- the adjugate against the augmented-RREF inverse ----------------------------


def adjugate(m):
    """The adjugate of `Matrix._cofactors`, its numerators over den^2."""
    den, adj, _ = m._cofactors()
    return Matrix._of(den * den, adj)


def rref_inverse(m):
    """The inverse from the Q(zeta_5) RREF of [m | I], or None when m is
    singular: the construction the adjugate replaced, kept as its oracle."""
    ident = Matrix.identity(3)
    rows, pivots = cyclo_rref([[*m.row(i), *ident.row(i)] for i in range(3)])
    if pivots != [0, 1, 2]:
        return None
    return Matrix.from_rows([row[3:] for row in rows])


ELEMENTS = field_elements(st.integers(-3, 3), st.integers(1, 4), min_size=4)


@settings(max_examples=80)
@given(nine_entries(ELEMENTS), ELEMENTS, BOOLEANS)
def test_adjugate_and_inverse_match_rref_oracle(entries, c, dependent):
    if dependent:  # third row = first + c * second, so that det = 0
        entries[6:] = [a + c * b for a, b in zip(entries[:3], entries[3:6])]
    m = Matrix(entries)
    d, adj = m.det(), adjugate(m)
    scalar = Matrix.identity(3) * d
    assert m * adj == scalar and adj * m == scalar
    oracle = rref_inverse(m)
    assert d.is_zero() == (oracle is None)
    if oracle is None:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        assert m.inverse() == oracle


# -- the 3x3 closed forms against sympy ----------------------------------------

# Q[x] with x standing for zeta; Phi5 is monic in x, so the remainder by it
# is the canonical form modulo Phi5
QX, X = sympy.ring("x", sympy.QQ)
PHI5 = X**4 + X**3 + X**2 + X + 1


def in_qx(c):
    c = c if isinstance(c, Cyclo) else rational(c)
    return sum((sympy.QQ(q.numerator, q.denominator) * X**i
                for i, q in enumerate(c.coefficients())), QX.zero)


def oracle(rows):
    return DomainMatrix([[in_qx(e) for e in row] for row in rows],
                        (len(rows), len(rows[0])), QX.to_domain())


def as_oracle(m):
    return oracle([m.row(i) for i in range(3)])


def reduced(dm):
    return [[e.rem(PHI5) for e in row] for row in dm.to_list()]


SPARSE_ENTRIES = nine_entries(st.one_of(st.just(0), ELEMENTS))
ZERO_ROWS = st.sampled_from((None, 0, 1, 2))


@st.composite
def sparse_matrices(draw):
    """Matrices with zero entries and sometimes a zero row, so that the
    product and `apply` skip zero entries and sum no term at all."""
    entries = draw(SPARSE_ENTRIES)
    zero_row = draw(ZERO_ROWS)
    if zero_row is not None:
        entries[3 * zero_row:3 * zero_row + 3] = [0, 0, 0]
    return Matrix(entries)


VECTOR_ENTRIES = st.one_of(st.integers(-9, 9),
                           st.fractions(-5, 5, max_denominator=9), ELEMENTS)


@settings(max_examples=80)
@given(sparse_matrices(), sparse_matrices(), triples(VECTOR_ENTRIES))
def test_closed_forms_match_sympy(a, b, vec):
    ref_a, ref_b = as_oracle(a), as_oracle(b)
    assert reduced(as_oracle(a * b)) == reduced(ref_a * ref_b)
    assert reduced(as_oracle(a.transpose())) == reduced(ref_a.transpose())
    assert in_qx(a.trace()) == sum(ref_a.diagonal(), QX.zero).rem(PHI5)
    assert in_qx(a.det()) == ref_a.det().rem(PHI5)
    image = a.apply(vec)
    assert all(isinstance(x, Cyclo) for x in image)
    want = reduced(ref_a * oracle([[v] for v in vec]))
    assert [[in_qx(x)] for x in image] == want


# -- the integer kernels against the Cyclo loops they replaced -------------------

KERNEL_ENTRIES = st.one_of(st.just(0), ELEMENTS, WIDE)
NINE_KERNEL_ENTRIES = nine_entries(KERNEL_ENTRIES)
TWO_KERNEL_ENTRIES = st.lists(KERNEL_ENTRIES, min_size=2, max_size=2)
KERNEL_SHAPES = st.sampled_from(("plain", "zero row", "dependent", "rank 1"))
ROW_STARTS = st.sampled_from((0, 3, 6))


@st.composite
def kernel_matrices(draw):
    """Matrices with mixed denominators, zero entries, sometimes a zero
    row, and sometimes a third row dependent on the first two (det 0)."""
    entries = draw(NINE_KERNEL_ENTRIES)
    shape = draw(KERNEL_SHAPES)
    if shape == "zero row":
        i = draw(ROW_STARTS)
        entries[i:i + 3] = [0, 0, 0]
    elif shape == "dependent":
        c = draw(KERNEL_ENTRIES)
        entries[6:] = [a + c * b for a, b in zip(entries[:3], entries[3:6])]
    elif shape == "rank 1":
        entries[3:] = [c * a for c in draw(TWO_KERNEL_ENTRIES) for a in entries[:3]]
    return Matrix(entries)


def outcome(f, *args):
    """f(*args), or the type and message of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=80)
@given(kernel_matrices(), kernel_matrices(), triples(st.one_of(VECTOR_ENTRIES, WIDE)))
def test_integer_kernels_match_the_cyclo_loops(a, b, vec):
    assert a * b == cyclo_loops.product(a, b)
    assert b * a == cyclo_loops.product(b, a)
    assert a.apply(vec) == cyclo_loops.apply(a, vec)
    assert adjugate(a) == cyclo_loops.adjugate(a)
    assert a.det() == cyclo_loops.det(a)
    assert outcome(Matrix.inverse, a) == outcome(cyclo_loops.inverse, a)
    assert outcome(Matrix.kernel, a) == outcome(cyclo_loops.kernel, a)


def test_integer_kernels_match_the_cyclo_loops_on_the_group():
    # the products, images and inverses that the reconstruction forms
    group = reconstruct_group().elements
    rows = six_lines()
    for g, h in zip(group, group[1:] + group[:1]):
        assert g * h == cyclo_loops.product(g, h)
        assert g.inverse() == cyclo_loops.inverse(g)
        assert g.det() == cyclo_loops.det(g) == rational(1)
        for row in rows:
            assert g.apply(row) == cyclo_loops.apply(g, row)


@settings(max_examples=50)
@given(kernel_matrices(), kernel_matrices(), st.one_of(VECTOR_ENTRIES, WIDE))
def test_matrix_ops_match_the_cyclo_loops(a, b, c):
    assert a - b == cyclo_loops.difference(a, b)
    assert a * c == cyclo_loops.matrix_scale(a, c)
    assert a.transpose() == cyclo_loops.transpose(a)
    assert a.trace() == cyclo_loops.trace(a)
    assert a.entries == a.row(0) + a.row(1) + a.row(2)
    assert a.row(1) == a.entries[3:6]


def assert_canonical(m):
    """den is the least denominator: positive and prime to every
    numerator entry; and the Cyclo entries give m back."""
    assert m.den > 0 and len(m.nums) == 9
    assert gcd(m.den, *chain.from_iterable(m.nums)) == 1
    assert Matrix(m.entries) == m


NONZERO_SCALARS = st.one_of(st.fractions(-5, 5, max_denominator=9).filter(bool),
                            ELEMENTS.filter(bool), WIDE.filter(bool))


@settings(max_examples=40)
@given(kernel_matrices(), NONZERO_SCALARS)
def test_equal_matrices_have_one_form(m, q):
    # from entries, from rows, transposed twice, scaled and back, through
    # the identity and a cancelling difference
    ident = Matrix.identity(3)
    ways = [Matrix(m.entries), Matrix.from_rows([m.row(i) for i in range(3)]),
            m.transpose().transpose(), m * q * rational(q).inv(), ident * m, m * ident,
            (m - ident) - ident * -1]
    for h in ways:
        assert (h.den, h.nums) == (m.den, m.nums)
        assert hash(h) == hash(m)
        assert_canonical(h)
    assert_canonical(m * m)
    zero = m - m
    assert (zero.den, zero.nums) == (1, ((0, 0, 0, 0),) * 9) and zero == Matrix([0] * 9)


def test_matrix_arithmetic_builds_no_field_element(monkeypatch):
    # *, -, the product by a scalar, transpose, cofactors, inverse, == and
    # hash run on the integer numerators; a Cyclo is built only when an
    # entry is read
    g, h = reconstruct_group().elements[1:3]
    a = Matrix([Fraction(1, 2), zeta(), 0, 3, Fraction(-2, 3), zeta() ** 2, 1, 0, 5])
    copy = Matrix(a.entries)

    def refuse(*args):
        raise AssertionError("a field element was built")

    with monkeypatch.context() as patch:
        patch.setattr("wingerverify.cyclo._make", refuse)
        patch.setattr("wingerverify.linalg._make", refuse)
        got = [a * g, g * h, a - g, a * Fraction(2, 3), a * zeta(), a.transpose(),
               adjugate(a), a.inverse()]
        same = (a == copy, a != g, hash(a) == hash(copy))
    assert same == (True, True, True)
    assert got == [cyclo_loops.product(a, g), cyclo_loops.product(g, h),
                   cyclo_loops.difference(a, g), cyclo_loops.matrix_scale(a, Fraction(2, 3)),
                   cyclo_loops.matrix_scale(a, zeta()), cyclo_loops.transpose(a),
                   cyclo_loops.adjugate(a), cyclo_loops.inverse(a)]


def test_shape_is_checked_on_input():
    for entries in ([1] * 8, [1] * 10):
        with pytest.raises(ValueError):
            Matrix(entries)
    for rows in ([[1, 2, 3]] * 2, [[1, 2, 3]] * 4, [[1, 2, 3], [4, 5], [6, 7, 8, 9]]):
        with pytest.raises(ValueError):
            Matrix.from_rows(rows)
    for vec in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError):
            Matrix.identity(3).apply(vec)


# -- the integer elimination against sympy ----------------------------------------


SQUARE_SIZES = st.integers(1, 6)
SQUARE_ENTRIES = st.integers(-9, 9)
SQUARE_SHAPES = st.sampled_from(("plain", "swap", "repeated", "combined"))


@st.composite
def square_matrices(draw):
    """Integer n x n matrices, some singular (a repeated or combined row)
    and some with a zero leading entry, so that the first pivot needs a
    row swap."""
    n = draw(SQUARE_SIZES)
    m = [draw(st.lists(SQUARE_ENTRIES, min_size=n, max_size=n)) for _ in range(n)]
    shape = draw(SQUARE_SHAPES)
    if shape == "swap":
        m[0][0] = 0
    elif n >= 2 and shape == "repeated":
        m[-1] = list(m[0])
    elif n >= 3 and shape == "combined":
        m[2] = [2 * a - 3 * b for a, b in zip(m[0], m[1])]
    return m


# how a row is copied onto the end of a matrix: as it is, negated,
# scaled, or as a zero row
COPIES = st.sampled_from((1, -1, 3, -6, 0))
FACTOR_SIZES = st.integers(1, 7)
RANKS = st.integers(0, 4)
FACTOR_ENTRIES = st.integers(-4, 4)


@st.composite
def rank_deficient_matrices(draw):
    """Integer r x c matrices of rank at most k: a product of r x k and
    k x c factors, with some rows and columns then set to zero, and up to
    three rows copied onto the end, duplicated, negated, scaled or
    zeroed: the repeated equations that the Reynolds rows hold before
    they are deduplicated."""
    r, c, k = draw(FACTOR_SIZES), draw(FACTOR_SIZES), draw(RANKS)
    left = [[draw(FACTOR_ENTRIES) for _ in range(k)] for _ in range(r)]
    right = [[draw(FACTOR_ENTRIES) for _ in range(c)] for _ in range(k)]
    m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if k else [0] * c
         for row in left]
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        m[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=2)):
        for row in m:
            row[j] = 0
    for i, scale in draw(st.lists(st.tuples(st.integers(0, r - 1), COPIES), max_size=3)):
        m.append([scale * x for x in m[i]])
    return m


@settings(max_examples=150)
@given(square_matrices())
def test_integer_det_matches_sympy(m):
    # the sign of a row swap included, and 0 at any rank below n
    assert integer_det(m) == sympy.Matrix(m).det()
    assert len(echelon(m)[1]) == sympy.Matrix(m).rank()


def as_fraction(x):
    return Fraction(int(x.p), int(x.q))


@settings(max_examples=150)
@given(rank_deficient_matrices())
def test_rank_rref_and_null_space_match_sympy(m):
    oracle = sympy.Matrix(m)
    ref, ref_pivots = oracle.rref()
    ech, pivots, _ = echelon(m)
    assert len(pivots) == oracle.rank()
    assert all(row[p] for row, p in zip(ech, pivots))
    assert all(not any(row[:p]) for row, p in zip(ech, pivots))
    reduced, pivots = rref(m)
    assert tuple(pivots) == ref_pivots
    assert reduced == [[as_fraction(x) for x in ref.row(i)] for i in range(len(pivots))]
    kernel = null_space(m, len(m[0]))
    assert kernel == [[as_fraction(x) for x in v] for v in oracle.nullspace()]
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m for v in kernel)


@settings(max_examples=150)
@given(rank_deficient_matrices())
def test_gauss_jordan_and_kernel_basis_match_sympy(m):
    oracle = sympy.Matrix(m)
    ref, ref_pivots = oracle.rref()
    reduced, pivots = gauss_jordan(m)
    assert tuple(pivots) == ref_pivots
    for i, (row, p) in enumerate(zip(reduced, pivots)):
        # integer rows of content 1 with a positive pivot, the rational
        # reduced rows times their pivot entries
        assert row[p] > 0 and gcd(*row) == 1
        assert [Fraction(x, row[p]) for x in row] == [as_fraction(x) for x in ref.row(i)]
    kernel = kernel_basis(m, len(m[0]))
    free = [f for f in range(len(m[0])) if f not in pivots]
    want = oracle.nullspace()  # 1 at its free column, 0 at the other ones
    assert len(kernel) == len(want) == len(free)
    for v, w, f in zip(kernel, want, free):
        assert all(type(x) is int for x in v) and v[f] > 0
        assert [Fraction(x, v[f]) for x in v] == [as_fraction(x) for x in w]
    assert all(sum(a * x for a, x in zip(row, v)) == 0 for row in m for v in kernel)


def test_integer_det_rejects_non_square_input():
    for rows in ([[1, 2, 3], [4, 5, 6]], [[1, 2], [3, 4], [5, 6]], [[1, 2], [3]], []):
        with pytest.raises(ValueError, match="square"):
            integer_det(rows)


# -- the lazy elimination against the dense Bareiss pass ---------------------------


SPARSE_SIZES = st.integers(1, 9)
SPARSE_INTEGERS = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-9, 9))
LEADING_ENTRIES = st.sampled_from((-7, -1, 1, 5))


@st.composite
def sparse_integer_matrices(draw):
    """Integer r x c matrices, mostly zeros, some of low rank (a row a
    combination of two others), with zero rows and zero columns, and
    sometimes a zero leading entry above a nonzero one, so that the
    first pivot needs a row swap."""
    r, c = draw(SPARSE_SIZES), draw(SPARSE_SIZES)
    m = [[draw(SPARSE_INTEGERS) for _ in range(c)] for _ in range(r)]
    if r >= 3 and draw(BOOLEANS):
        i, j, k = draw(st.permutations(range(r)))[:3]
        m[i] = [2 * a - 3 * b for a, b in zip(m[j], m[k])]
    for i in draw(st.sets(st.integers(0, r - 1), max_size=2)):
        m[i] = [0] * c
    for j in draw(st.sets(st.integers(0, c - 1), max_size=2)):
        for row in m:
            row[j] = 0
    if r >= 2 and draw(BOOLEANS):
        m[0][0], m[-1][0] = 0, draw(LEADING_ENTRIES)
    return m


@settings(max_examples=400)
@given(st.one_of(sparse_integer_matrices(), rank_deficient_matrices(), square_matrices()))
def test_echelon_matches_the_dense_pass(m):
    assert echelon(m) == dense_echelon(m)


def test_echelon_matches_the_dense_pass_on_the_macaulay_control():
    for t in (CONTROL_T, ORACLE_T):  # the product's coordinates and the oracle's
        tables = _pencil_partials(f_poly(), t)
        fs = [{e: a.get(e, 0) + b.get(e, 0) for e in a.keys() | b.keys()} for a, b in tables]
        full, minor = _eval_determinants(fs, (5, 5, 5))  # at lambda = 1
        assert (len(full), len(minor)) == (105, 30)
        for m in (full, minor):
            ech, pivots, sign = echelon(m)
            assert (ech, pivots, sign) == dense_echelon(m)
            assert pivots == list(range(len(m)))
