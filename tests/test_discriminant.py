from fractions import Fraction
from itertools import islice
from operator import add

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dense_block_det
import fraction_roots
import modular_pencil
from full_morley import full_morley_rows
from macaulay_quotient import ORACLE_T, exact_quotient, macaulay_quotient
from modular_pencil import (_PROTH_CERTIFICATES, _hessenberg_charpoly_mod,
                            _linearize, _pencil_bound, _pencil_det_mod,
                            _proth_primes, unsplit_pencil_det)
from proth_search import proth_search
from strategies import BOOLEANS
from wingerverify import discriminant
from wingerverify.discriminant import (CONTROL_SCALE, CONTROL_T, _block_det, _blocks,
                                       _divide_out_root, _eval_determinants,
                                       _interpolate, _pencil_det,
                                       _pencil_partials, _poly_eval,
                                       hybrid_rows, macaulay_resultant_value,
                                       macaulay_system, pencil_discriminant)
from wingerverify.linalg import Matrix, integer_det
from wingerverify.polys import Poly3, monomials_of_degree
from wingerverify.winger import f_poly, reconstruct_group

# the roots that the discriminant-root-set claim divides out
ROOTS = (Fraction(0), Fraction(-1), Fraction(27, 5))


def test_int_bareiss_det():
    assert integer_det([[2, 1], [1, 2]]) == 3
    assert integer_det([[1, 2], [2, 4]]) == 0
    assert integer_det([[0, 1], [1, 0]]) == -1
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert integer_det(m) == 3 * (25 - 54) - 1 * (5 - 18) + 4 * (6 - 10)


def test_macaulay_dimensions_for_quintics():
    monos, rows, minor = macaulay_system((5, 5, 5))
    assert len(monos) == 105
    assert len(rows) == 105
    assert len(minor) == 30


def test_macaulay_order_is_a_symmetric_permutation():
    degrees = (5, 5, 5)
    monos, rows, minor = macaulay_system(degrees)
    assert sorted(monos) == sorted(monomials_of_degree(13))
    for mono, (shift, which) in zip(monos, rows):
        divisible = [i for i in range(3) if mono[i] >= degrees[i]]
        assert which == divisible[0]  # the first x_i^{d_i} that divides
        assert tuple(s + degrees[which] * (i == which) for i, s in enumerate(shift)) == mono
    assert minor == [pos for pos, mono in enumerate(monos)
                     if sum(mono[i] >= degrees[i] for i in range(3)) >= 2]


def lex_macaulay_value(fs, degrees):
    """The Macaulay quotient from rows and columns in lexicographic order."""
    monos = monomials_of_degree(sum(degrees) - 2)
    col = {m: i for i, m in enumerate(monos)}
    full = []
    for mono in monos:
        which = next(i for i in range(3) if mono[i] >= degrees[i])
        shift = [x - degrees[which] * (i == which) for i, x in enumerate(mono)]
        row = [0] * len(monos)
        for e, c in fs[which].items():
            row[col[tuple(map(add, e, shift))]] = c
        full.append(row)
    minor = [pos for pos, mono in enumerate(monos)
             if sum(mono[i] >= degrees[i] for i in range(3)) >= 2]
    return Fraction(integer_det(full),
                    integer_det([[full[i][j] for j in minor] for i in minor]))


def control_forms(f, lam, t=ORACLE_T):
    """The partials of (Q^3 + lam*f) o t at one lam, as int dicts: by
    default in the oracle's coordinates of determinant 1, where the
    Macaulay value is the resultant with no scale."""
    return [{e: a.get(e, 0) + lam * b.get(e, 0) for e in a.keys() | b.keys()}
            for a, b in _pencil_partials(f, t)]


def test_control_coordinates_are_an_eigenbasis_of_an_involution():
    # g: z -> (-z1, -z0, -z2) is in the group, and T^-1 g T = diag(1, -1, -1)
    g = Matrix.from_rows(((0, -1, 0), (-1, 0, 0), (0, 0, -1)))
    assert g in reconstruct_group().elements and g * g == Matrix.identity(3)
    t = Matrix.from_rows(CONTROL_T)
    assert g * t == t * Matrix.diagonal((1, -1, -1))
    # mixing the quintic partials by T^t scales the resultant by det(T)^25,
    # the substitution by det(T)^125
    assert integer_det([list(row) for row in CONTROL_T]) == 2
    assert CONTROL_SCALE == integer_det([list(row) for row in CONTROL_T]) ** 150


@pytest.mark.parametrize("lam", [1, 2])
def test_macaulay_value_matches_lexicographic_order(lam):
    for t in (ORACLE_T, CONTROL_T):  # one block, then two
        fs = control_forms(f_poly(), lam, t)
        assert macaulay_resultant_value(fs, (5, 5, 5)) == lex_macaulay_value(fs, (5, 5, 5))


def test_resultant_detects_common_zero():
    # x^2, y^2, (x+y)^2 all vanish at (0:0:1)
    fs = [{(2, 0, 0): 1}, {(0, 2, 0): 1},
          {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1}]
    assert macaulay_resultant_value(fs, (2, 2, 2)) == 0


def test_resultant_nonzero_without_common_zero():
    fs = [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1}]
    assert macaulay_resultant_value(fs, (2, 2, 2)) != 0
    fs2 = [{(2, 0, 0): 1}, {(0, 2, 0): 1}, {(0, 0, 2): 1, (1, 1, 0): 1}]
    assert macaulay_resultant_value(fs2, (2, 2, 2)) != 0


def test_interpolation_and_root_division():
    # p(x) = x^2 (x+1) = x^3 + x^2
    coeffs = [Fraction(0), Fraction(0), Fraction(1), Fraction(1)]
    m0, rest = _divide_out_root(coeffs, Fraction(0))
    assert m0 == 2
    m1, rest = _divide_out_root(rest, Fraction(-1))
    assert m1 == 1 and rest == [Fraction(1)]
    assert _poly_eval(coeffs, Fraction(2)) == 12


# -- the integer root division against the Fraction division it replaced --------

SMALL_ROOTS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@settings(max_examples=150)
@given(st.lists(st.tuples(SMALL_ROOTS, st.integers(1, 3)), max_size=3),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5), st.integers(0, 2),
       st.lists(SMALL_ROOTS, max_size=3))
def test_root_division_matches_the_fraction_division(planted, cofactor, pad, probes):
    # cofactor * prod (q*x - p)^m, with `pad` zero top coefficients
    coeffs = cofactor
    for root, m in planted:
        for _ in range(m):
            p, q = root.numerator, root.denominator
            coeffs = [q * a - p * b for a, b in zip([0] + coeffs, coeffs + [0])]
    coeffs = coeffs + [0] * pad
    for root in [r for r, _ in planted] + probes + [Fraction(0)]:
        mult, quot = _divide_out_root(coeffs, root)
        ref_mult, ref_quot = fraction_roots.divide_out_root(coeffs, root)
        assert mult == ref_mult
        # the quotient by (q*x - p)^m is the one by (x - p/q)^m over q^m
        scale = root.denominator ** mult
        assert [a * scale for a in quot] == ref_quot
        if mult == 0:
            assert quot == coeffs


def test_root_division_cases():
    # 3 (5x - 27)^2 x^3 (x + 1), root 0 of order 3, and int or Fraction roots
    coeffs = [0, 0, 0, 3 * 729, 3 * (729 - 270), 3 * (25 - 270), 75]
    assert _divide_out_root(coeffs, 0) == (3, [3 * 729, 3 * (729 - 270), 3 * (25 - 270), 75])
    assert _divide_out_root(coeffs, Fraction(0)) == _divide_out_root(coeffs, 0)
    assert _divide_out_root(coeffs, Fraction(27, 5)) == (2, [0, 0, 0, 3, 3])
    assert _divide_out_root(coeffs, -1) == (1, [0, 0, 0, 3 * 729, 3 * (-270), 75])
    # non-roots: 27/5's numerator over the wrong denominator, and 1/5
    for root in (Fraction(27, 4), Fraction(1, 5), Fraction(2)):
        assert _divide_out_root(coeffs, root) == (0, coeffs)
    assert fraction_roots.poly_eval(coeffs, Fraction(27, 4)) != 0


# -- the interpolation on integers against sympy --------------------------------

@settings(max_examples=100)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=21))
def test_interpolate_round_trip(coeffs):
    # an integer polynomial of degree <= 20, with its top coefficients
    # possibly 0, from its values at start, ..., start + len(coeffs) - 1
    x = sympy.Symbol("x")
    poly = sympy.Poly(coeffs[::-1], x)
    values = [int(poly.eval(k)) for k in range(len(coeffs))]
    assert _interpolate(values) == coeffs
    for start in (1, -3):
        values = [int(poly.eval(start + k)) for k in range(len(coeffs))]
        assert _interpolate(values, start) == coeffs


@settings(max_examples=100)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=8))
def test_interpolate_matches_sympy(values):
    # any values: their interpolating polynomial, or ArithmeticError when
    # it has a coefficient outside Z
    x = sympy.Symbol("x")
    expect = sympy.Poly(sympy.interpolate(list(enumerate(values)), x), x)
    expect = [expect.coeff_monomial(x ** k) for k in range(len(values))]
    if all(c.is_integer for c in expect):
        assert _interpolate(values) == expect
    else:
        with pytest.raises(ArithmeticError):
            _interpolate(values)


def test_interpolate_refuses_values_of_no_integer_polynomial():
    # x(x + 1)/2 takes 0, 1, 3: Delta^2 / 2! = 1/2
    with pytest.raises(ArithmeticError, match="integer polynomial"):
        _interpolate([0, 1, 3])
    assert _interpolate([0, 1, 6]) == [0, -1, 2]


# -- the block passes against the dense passes at lam = 0, ..., n --------------

COEFFICIENT_ROWS = st.lists(st.integers(-3, 3), min_size=4, max_size=4)


@st.composite
def pencil_blocks(draw):
    """A square block of up to 4 rows of degrees 0-3 in lam, each row then
    changed, or not, so that the ranks at 0 and at infinity drop: times
    lam, its constant or top part zero or a multiple of another row's, or
    the whole row a multiple of another (det = 0)."""
    size = draw(st.integers(1, 4))
    rows = [[row[:size] for row in draw(st.lists(COEFFICIENT_ROWS, min_size=1, max_size=4))]
            for _ in range(size)]
    for i in range(size):
        j, k = draw(st.integers(0, size - 1)), draw(st.integers(-2, 2))
        change = draw(st.sampled_from(["none", "times lam", "zero constant", "dependent constant",
                                       "zero top", "dependent top", "multiple"]))
        row = rows[i]
        if change == "times lam":
            row.insert(0, [0] * size)
        elif change.startswith("zero"):
            row[0 if change == "zero constant" else -1] = [0] * size
        elif change == "dependent constant":
            row[0] = [k * x for x in rows[j][0]]
        elif change == "dependent top":
            row[-1] = [k * x for x in rows[j][-1]]
        elif change == "multiple" and j != i:
            rows[i] = [[k * x for x in part] for part in rows[j]]
    return rows


@settings(max_examples=300)
@given(pencil_blocks())
@example([[[0, 0], [1, 2]], [[0, 0], [3, 4]]])  # lam^2 * det [[1, 2], [3, 4]]
@example([[[1, 2], [0, 0]], [[3, 4], [0, 0]]])  # top rows of rank 0: a constant
@example([[[0, 0], [1, 2]], [[3, 4], [0, 0]]])  # low 1, high 1: -2 lam
@example([[[0, 1]], [[0, 2]]])  # constant and singular
@example([[[1, 2], [3, 4]], [[2, 4], [6, 8]]])  # a multiple: det = 0, high = low
@example([[[0, 0], [1, 2]], [[0, 0], [2, 4]]])  # high 1 < low 2: det = 0
def test_block_det_matches_the_dense_pass(rows):
    assert _block_det(rows) == dense_block_det._block_det(rows)


@pytest.mark.parametrize("f", [f_poly(), f_poly() + Poly3.monomial((0, 0, 6), 1)],
                         ids=["F", "f:0,0,6"])
def test_block_det_matches_the_dense_pass_on_the_pencil(f):
    rows = hybrid_rows(_pencil_partials(f), 5)
    for rws, cols in _blocks(rows):
        block = [[[part[j] for j in cols] for part in rows[i]] for i in rws]
        assert _block_det(block) == dense_block_det._block_det(block)


# -- det(A + lam*B), and the multi-modular oracle, against integer determinants --

def pencil_at(a, b, lam):
    return [[x + lam * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def pair_rows(a, b):
    """The rows [a_i, b_i] of A + lam*B, as `_pencil_det` takes them."""
    return [[ra, rb] for ra, rb in zip(a, b)]


PENCIL_SHAPES = st.sampled_from(("plain", "singular_a", "zero_row", "repeated_row"))


@st.composite
def pencils(draw, max_n=8, max_digits=40):
    """Small integer pencils (A, B), some with singular A and some
    identically singular (a zero row or a repeated row pair).  With the
    default digits, the larger ones need two or more 340-bit primes."""
    n = draw(st.integers(1, max_n))
    size = 10 ** draw(st.integers(0, max_digits))
    entry = st.integers(-size, size)
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    b = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(PENCIL_SHAPES)
    if n >= 2 and shape == "singular_a":
        a[1] = list(a[0])
    elif shape == "zero_row":
        a[-1] = [0] * n
        b[-1] = [0] * n
    elif n >= 2 and shape == "repeated_row":
        a[1], b[1] = list(a[0]), list(b[0])
    return a, b


# n = 8 with entries near 10^40: a bound of 1,084 bits, so every run
# combines at least three of the 340-bit primes
LARGE_PENCIL = ([[10 ** 40 - (3 * i + j) ** 2 for j in range(8)] for i in range(8)],
                [[10 ** 40 + (i - 2 * j) ** 3 for j in range(8)] for i in range(8)])


@settings(max_examples=150)
@given(pencils())
@example(LARGE_PENCIL)
def test_pencil_det_matches_bareiss(pencil):
    a, b = pencil
    n = len(a)
    rows = pair_rows(a, b)
    coeffs = _pencil_det(rows)
    assert len(coeffs) == n + 1
    # n + 4 distinct points pin down a polynomial of degree <= n
    for lam in range(-2, n + 2):
        assert _poly_eval(coeffs, lam) == integer_det(pencil_at(a, b, lam))
    # the multi-modular oracle agrees, and its Chinese-remainder result
    # lies inside its coefficient bound
    assert modular_pencil._pencil_det(rows) == coeffs
    bound = _pencil_bound(rows)
    assert all(abs(c) <= bound for c in coeffs)


def test_large_pencil_takes_three_primes():
    primes = list(_proth_primes())
    assert 2 * _pencil_bound(pair_rows(*LARGE_PENCIL)) > primes[0] * primes[1]


@settings(max_examples=150)
@given(pencils(max_n=4, max_digits=2), st.sampled_from((5, 7, 10007)), BOOLEANS)
def test_pencil_det_mod_small_primes(pencil, p, b_vanishes_mod_p):
    a, b = pencil
    if b_vanishes_mod_p:
        # det(A + lam*B) = det A mod p for every lam: when det A = 0 mod p
        # every shift is singular and the residue is the zero polynomial
        b = [[p * x for x in row] for row in b]
    res = _pencil_det_mod(a, b, p)
    assert len(res) == len(a) + 1 and all(0 <= r < p for r in res)
    for lam in range(-1, len(a) + 3):
        assert (_poly_eval(res, lam) - integer_det(pencil_at(a, b, lam))) % p == 0


def test_all_shifts_singular_gives_zero():
    # row 2 - 2 * row 1 = (0, 0, 5): det A = 0 mod 5, and B = 0 mod 5
    a = [[1, 2, 3], [2, 4, 11], [0, 1, 1]]
    b = [[5, -10, 0], [15, 5, 5], [0, 0, 20]]
    assert integer_det(a) != 0
    assert _pencil_det_mod(a, b, 5) == [0, 0, 0, 0]
    assert _pencil_det(pair_rows(a, b))[0] == integer_det(a)
    with pytest.raises(ValueError):
        _pencil_det_mod(a, b, 3)  # a modulus <= n cannot certify a zero residue


@settings(max_examples=100)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)),
       st.sampled_from((2, 5, 10007, 2 ** 61 - 1)))
def test_hessenberg_charpoly_matches_sympy(rows, p):
    x = sympy.Symbol("x")
    expect = sympy.Matrix(rows).charpoly(x).all_coeffs()  # highest first
    got = _hessenberg_charpoly_mod(rows, p)
    assert got == [int(c) % p for c in reversed(expect)]


def test_proth_primes_are_proven_and_descending():
    primes = list(_proth_primes())
    assert primes[0] < 2 ** 340
    assert all(p > q for p, q in zip(primes, primes[1:]))
    for p in primes:
        assert sympy.isprime(p), p
        m = ((p - 1) & -(p - 1)).bit_length() - 1  # 2^m exactly divides p - 1
        k = (p - 1) >> m
        assert k % 2 == 1 and k < 2 ** m, p


def test_proth_certificates_are_the_first_primes_of_the_search():
    # the table holds the first five primes that the search proves, and
    # nothing else
    n = len(_PROTH_CERTIFICATES)
    assert n == 5
    assert list(_proth_primes()) == list(islice(proth_search(), n))


def test_pencil_det_past_the_certified_primes_raises():
    # the bound 2^1800 + 2 needs a modulus past 2^1801; the five primes
    # below 2^340 reach only 2^1700
    with pytest.raises(ArithmeticError, match="certified primes"):
        modular_pencil._pencil_det([[[2 ** 1800], [0]]])
    # the product takes no prime, so no bound limits it
    assert _pencil_det([[[2 ** 1800], [0]]]) == [2 ** 1800, 0]


def test_exact_quotient():
    # (x + 1)(2x - 3) / (x + 1)
    assert exact_quotient([-3, -1, 2], [1, 1]) == [Fraction(-3), Fraction(2)]
    assert exact_quotient([6], [3, 0]) == [Fraction(2)]
    with pytest.raises(ArithmeticError):
        exact_quotient([1, 0, 1], [1, 1])
    with pytest.raises(ArithmeticError):
        exact_quotient([1, 2], [0, 0])


# -- the hybrid Sylvester-Bezout matrix against the Macaulay resultant -----------

FORM_DEGREES = st.sampled_from((2, 3))
FORM_COEFFICIENTS = st.integers(-4, 4)


@st.composite
def ternary_forms(draw, parts):
    """(d, three integer ternary forms of degree d in {2, 3}), each a list
    of `parts` coefficient dicts (lam^0, lam^1, ...), some coefficients 0."""
    d = draw(FORM_DEGREES)
    return d, [[{m: draw(FORM_COEFFICIENTS) for m in monomials_of_degree(d)}
                for _ in range(parts)] for _ in range(3)]


def h_at(rows, lam):
    """The integer matrix H(lam) from its rows' coefficient rows in lam."""
    return [[sum(x * lam ** k for k, x in enumerate(col)) for col in zip(*row)]
            for row in rows]


@settings(max_examples=80)
@given(ternary_forms(parts=1))
def test_hybrid_det_is_the_macaulay_resultant(case):
    d, forms = case
    try:
        expect = macaulay_resultant_value([form[0] for form in forms], (d, d, d))
    except ZeroDivisionError:
        assume(False)  # the Macaulay minor vanishes: no oracle value
    rows = hybrid_rows(forms, d)
    assert (len(rows), len(rows[0][0])) == {2: (6, 6), 3: (15, 15)}[d]
    # Macaulay's normalisation: the resultant of x0^d, x1^d, x2^d is 1
    units = [[{tuple(d * (j == i) for j in range(3)): 1}] for i in range(3)]
    sign = integer_det(h_at(hybrid_rows(units, d), 0))
    assert sign in (1, -1)
    assert integer_det(h_at(rows, 0)) == sign * expect


@settings(max_examples=40)
@given(ternary_forms(parts=2))
def test_linearized_pencil_matches_cubic_rows(case):
    d, forms = case
    rows = hybrid_rows(forms, d)
    assert sorted({len(row) for row in rows}) == [2, 4]
    coeffs = _pencil_det(rows)
    # len(coeffs) points pin down a polynomial of degree < len(coeffs); it
    # is the size of the oracle's linearized pencil plus one
    assert len(coeffs) == len(_linearize(rows)[0]) + 1
    for lam in range(-2, len(coeffs) - 2):
        assert _poly_eval(coeffs, lam) == integer_det(h_at(rows, lam))
    # the bound on the cubic rows covers every coefficient
    bound = _pencil_bound(rows)
    assert all(abs(c) <= bound for c in coeffs)


def rows_of_degree(degree):
    """Rows of H(lam) = [[1, lam], [s, 1 + s]], s = lam + ... + lam^degree:
    one linear row and one of the given degree."""
    return [[[1, 0], [0, 1]], [[0, 1]] + [[1, 1]] * degree]


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_linearize_refuses_other_degrees(degree):
    # the oracle linearizes only rows of degree 1 or 3: a quadratic row's
    # lam^2 part, for one, would be dropped silently
    rows = rows_of_degree(degree)
    with pytest.raises(ValueError, match="degree 1 or 3"):
        _linearize(rows)
    with pytest.raises(ValueError, match="degree 1 or 3"):
        modular_pencil._pencil_det(rows)


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_pencil_det_takes_rows_of_any_degree(degree):
    rows = rows_of_degree(degree)
    coeffs = _pencil_det(rows)
    assert len(coeffs) == 1 + degree + 1
    # len(coeffs) points pin down a polynomial of degree < len(coeffs)
    for lam in range(-2, len(coeffs) - 2):
        assert _poly_eval(coeffs, lam) == integer_det(h_at(rows, lam))


# -- the pencil's discriminant against the Macaulay quotient ---------------------

def test_discriminant_is_the_macaulay_quotient():
    # det ORACLE_T = 1, so the oracle's change of coordinates keeps the resultant
    coeffs, mults, control = pencil_discriminant(f_poly(), ROOTS)
    assert control == {"lambda": 1, "holds": True}
    assert coeffs == macaulay_quotient(f_poly())


def test_corrupted_discriminant_matches_macaulay_values():
    f = f_poly() + Poly3.monomial((0, 0, 6), 1)
    coeffs, mults, control = pencil_discriminant(f, ROOTS)
    assert control == {"lambda": 1, "holds": True}
    assert mults["degree"] == 65
    for lam in (2, -3, 7):
        assert macaulay_resultant_value(control_forms(f, lam), (5, 5, 5)) == _poly_eval(coeffs, lam)


def test_discriminant_is_five_blocks_of_nine_eliminations(monkeypatch):
    blocks, passes, controls = [], [], []
    block_det, rank, det, resultant = (discriminant._block_det, discriminant.echelon,
                                       discriminant.integer_det, macaulay_resultant_value)

    def counted_block_det(rows):
        blocks.append(len(rows))
        return block_det(rows)

    def counted_rank(rows):
        passes.append(("echelon", len(rows)))
        return rank(rows)

    def counted_det(rows):
        passes.append(("det", len(rows)))
        return det(rows)

    def counted_resultant(fs, degrees):
        controls.append(degrees)
        return resultant(fs, degrees)
    monkeypatch.setattr(discriminant, "_block_det", counted_block_det)
    monkeypatch.setattr(discriminant, "echelon", counted_rank)
    monkeypatch.setattr(discriminant, "integer_det", counted_det)
    monkeypatch.setattr(discriminant, "macaulay_resultant_value", counted_resultant)
    pencil_discriminant(f_poly(), ROOTS)
    # five blocks of 9 rows, 3 of them cubic: degree at most 6 + 3 * 3 = 15,
    # but rank 3 at lam = 0 and 6 at infinity, so lam^6 divides each and
    # its degree is at most 15 - 3 = 12: two rank passes and 7 values each;
    # then the blocks of the control's minor and of its full determinant,
    # of constant rows: one elimination each
    assert blocks == [9] * 5 + [14, 16, 49, 56]
    assert passes == ([("echelon", 9)] * 2 + [("det", 9)] * 7) * 5 + [
        ("echelon", size) for size in (14, 16, 49, 56)]
    assert controls == [(5, 5, 5)]


@pytest.mark.parametrize("f", [f_poly(), f_poly() + Poly3.monomial((0, 0, 6), 1)],
                         ids=["F", "f:0,0,6"])
def test_pencil_matrix_splits_by_torus_weight(f):
    # diag(zeta, zeta^-1, 1) keeps F and z2^6, so each row and column of H
    # has one weight a - b mod 5: five blocks, one per weight
    rows = hybrid_rows(_pencil_partials(f), 5)
    blocks = _blocks(rows)
    assert [(len(rws), len(cols)) for rws, cols in blocks] == [(9, 9)] * 5
    assert [sum(len(rows[i]) == 4 for i in rws) for rws, _ in blocks] == [3] * 5
    monos = monomials_of_degree(8)
    weights = [tuple({(monos[j][0] - monos[j][1]) % 5 for j in cols}) for _, cols in blocks]
    assert sorted(weights) == [(w,) for w in range(5)]


@pytest.mark.parametrize("f", [f_poly(), f_poly() + Poly3.monomial((0, 0, 6), 1)],
                         ids=["F", "f:0,0,6"])
def test_control_matrix_splits_by_parity(f):
    # in the eigenbasis T of g, diag(1, -1, -1) keeps Q^3 o T, F o T and
    # z2^6 o T, so each row and column of the Macaulay matrix has one parity
    # b + c mod 2: two blocks, for it and for its minor
    full, minor = _eval_determinants(control_forms(f, 1, CONTROL_T), (5, 5, 5))
    monos, _, minor_index = macaulay_system((5, 5, 5))
    for m, index, shapes in ((full, range(105), [(49, 49), (56, 56)]),
                             (minor, minor_index, [(14, 14), (16, 16)])):
        blocks = _blocks([[row] for row in m])
        assert [(len(rws), len(cols)) for rws, cols in blocks] == shapes
        parities = [{sum(monos[index[j]][1:]) % 2 for j in cols} for _, cols in blocks]
        assert sorted(map(tuple, parities)) == [(0,), (1,)]
        # the signed product of the blocks' determinants is the dense one
        assert _pencil_det([[row] for row in m]) == [integer_det(m)] != [0]


def test_weight_breaking_sextic_is_one_block():
    f = f_poly() + Poly3.monomial((1, 0, 5), 1)  # z0 z2^5 has weight 1
    rows = hybrid_rows(_pencil_partials(f), 5)
    assert [(len(rws), len(cols)) for rws, cols in _blocks(rows)] == [(45, 45)]
    # g maps z0 z2^5 to z1 z2^5, so the control's matrix is one block too
    full, _ = _eval_determinants(control_forms(f, 1, CONTROL_T), (5, 5, 5))
    assert [len(rws) for rws, _ in _blocks([[row] for row in full])] == [105]
    coeffs, _, control = pencil_discriminant(f, ROOTS)
    assert control == {"lambda": 1, "holds": True}
    for lam in (2, -3, 7):
        assert macaulay_resultant_value(control_forms(f, lam), (5, 5, 5)) == _poly_eval(coeffs, lam)


@pytest.mark.parametrize("k", [2, 3])
def test_rational_sextic_keeps_its_pencil(k):
    # Q^3 + lam * F/k is singular where lam/k is: both parts of each
    # partial are scaled to one denominator, so the tables are k * Q^3's and F's
    f = f_poly() * Fraction(1, k)
    assert _pencil_partials(f) == [[{e: k * c for e, c in a.items()}, b]
                                   for a, b in _pencil_partials(f_poly())]
    roots = (Fraction(0), Fraction(-k), Fraction(27 * k, 5))
    coeffs, mults, control = pencil_discriminant(f, roots)
    assert [mults[str(r)] for r in roots] == [44, 6, 10]
    assert mults["residual_is_nonzero_constant"]
    assert control == {"lambda": 1, "holds": True}


# -- the pencil by blocks against the unsplit modular pencil ---------------------

BLOCK_SIZES = st.lists(st.integers(1, 3), min_size=1, max_size=4)
BLOCK_SHAPES = st.sampled_from(("square", "zero_row", "non_square"))
BLOCK_DIGITS = st.integers(0, 20)
ROW_DEGREES = st.sampled_from((2, 4))  # coefficient rows: degree 1 or 3 in lam


@st.composite
def block_rows(draw):
    """Rows of an H(lam) whose nonzero pattern splits into 1-4 blocks, of
    rows of degree 1 or 3, with rows and columns shuffled; some with a
    zero row, some with two blocks that are not square (det H = 0)."""
    sizes = draw(BLOCK_SIZES)
    shapes = [[s, s] for s in sizes]
    shape = draw(BLOCK_SHAPES)
    if shape == "non_square" and len(shapes) >= 2:
        shapes[0][1] -= 1  # one column moves from the first block to the second
        shapes[1][1] += 1
    n = sum(sizes)
    size = 10 ** draw(BLOCK_DIGITS)
    entry = st.integers(-size, size)
    rows, col0 = [], 0
    for nrows, ncols in shapes:
        for _ in range(nrows):
            parts = [[0] * n for _ in range(draw(ROW_DEGREES))]
            for part in parts:
                part[col0:col0 + ncols] = [draw(entry) for _ in range(ncols)]
            rows.append(parts)
        col0 += ncols
    if shape == "zero_row":
        rows[draw(st.integers(0, n - 1))] = [[0] * n for _ in range(2)]
    row_order = draw(st.permutations(range(n)))
    col_order = draw(st.permutations(range(n)))
    return [[[part[j] for j in col_order] for part in rows[i]] for i in row_order]


@settings(max_examples=100)
@given(block_rows())
@example([[[0, 1], [0, 0]], [[2, 0], [0, 0]]])  # an odd column order: det = -2
def test_pencil_det_by_blocks_matches_the_unsplit_pencil(rows):
    # the product against the multi-modular oracle, whole and by blocks
    coeffs = _pencil_det(rows)
    assert coeffs == unsplit_pencil_det(rows)
    assert coeffs == modular_pencil._pencil_det(rows)
    # len(coeffs) points pin down a polynomial of degree < len(coeffs)
    for lam in range(-2, len(coeffs) - 2):
        assert _poly_eval(coeffs, lam) == integer_det(h_at(rows, lam))


# -- the Bezout rows against the full Morley form --------------------------------

@settings(max_examples=40)
@given(st.sampled_from((1, 2)).flatmap(lambda parts: ternary_forms(parts=parts)))
def test_hybrid_rows_match_the_full_morley_form(case):
    d, forms = case
    assert hybrid_rows(forms, d) == full_morley_rows(forms, d)


@pytest.mark.parametrize("f", [f_poly(), f_poly() + Poly3.monomial((1, 0, 5), 1)],
                         ids=["F", "f:1,0,5"])
def test_pencil_rows_match_the_full_morley_form(f):
    forms = _pencil_partials(f)
    assert hybrid_rows(forms, 5) == full_morley_rows(forms, 5)
