from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wingerverify.discriminant import (_divide_out_root, _exact_quotient,
                                       _hessenberg_charpoly_mod,
                                       _int_bareiss_det, _is_prime,
                                       _pencil_bound, _pencil_det,
                                       _pencil_det_mod, _poly_eval,
                                       macaulay_resultant_value,
                                       macaulay_system)


def test_int_bareiss_det():
    assert _int_bareiss_det([[2, 1], [1, 2]]) == 3
    assert _int_bareiss_det([[1, 2], [2, 4]]) == 0
    assert _int_bareiss_det([[0, 1], [1, 0]]) == -1
    m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
    assert _int_bareiss_det(m) == 3 * (25 - 54) - 1 * (5 - 18) + 4 * (6 - 10)


def test_macaulay_dimensions_for_quintics():
    monos, rows, minor = macaulay_system(None, (5, 5, 5))
    assert len(monos) == 105
    assert len(rows) == 105
    assert len(minor) == 30


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


# -- the multi-modular det(A + lam*B) against integer Bareiss --------------------

def pencil_at(a, b, lam):
    return [[x + lam * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


@st.composite
def pencils(draw, max_n=8, max_digits=7):
    """Small integer pencils (A, B), some with singular A and some
    identically singular (a zero row or a repeated row pair)."""
    n = draw(st.integers(1, max_n))
    size = 10 ** draw(st.integers(0, max_digits))
    entry = st.integers(-size, size)
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    b = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(("plain", "singular_a", "zero_row", "repeated_row")))
    if n >= 2 and shape == "singular_a":
        a[1] = list(a[0])
    elif shape == "zero_row":
        a[-1] = [0] * n
        b[-1] = [0] * n
    elif n >= 2 and shape == "repeated_row":
        a[1], b[1] = list(a[0]), list(b[0])
    return a, b


@settings(max_examples=150, deadline=None)
@given(pencils())
def test_pencil_det_matches_bareiss(pencil):
    a, b = pencil
    n = len(a)
    coeffs = _pencil_det(a, b)
    assert len(coeffs) == n + 1
    # n + 4 distinct points pin down a polynomial of degree <= n
    for lam in range(-2, n + 2):
        assert _poly_eval(coeffs, lam) == _int_bareiss_det(pencil_at(a, b, lam))
    # the Chinese-remainder result lies inside the coefficient bound
    bound = _pencil_bound(a, b)
    assert all(abs(c) <= bound for c in coeffs)


@settings(max_examples=150, deadline=None)
@given(pencils(max_n=4, max_digits=2), st.sampled_from((5, 7, 10007)), st.booleans())
def test_pencil_det_mod_small_primes(pencil, p, b_vanishes_mod_p):
    a, b = pencil
    if b_vanishes_mod_p:
        # det(A + lam*B) = det A mod p for every lam: when det A = 0 mod p
        # every shift is singular and the residue is the zero polynomial
        b = [[p * x for x in row] for row in b]
    res = _pencil_det_mod(a, b, p)
    assert len(res) == len(a) + 1 and all(0 <= r < p for r in res)
    for lam in range(-1, len(a) + 3):
        assert (_poly_eval(res, lam) - _int_bareiss_det(pencil_at(a, b, lam))) % p == 0


def test_all_shifts_singular_gives_zero():
    # row 2 - 2 * row 1 = (0, 0, 5): det A = 0 mod 5, and B = 0 mod 5
    a = [[1, 2, 3], [2, 4, 11], [0, 1, 1]]
    b = [[5, -10, 0], [15, 5, 5], [0, 0, 20]]
    assert _int_bareiss_det(a) != 0
    assert _pencil_det_mod(a, b, 5) == [0, 0, 0, 0]
    assert _pencil_det(a, b)[0] == _int_bareiss_det(a)
    with pytest.raises(ValueError):
        _pencil_det_mod(a, b, 3)  # a modulus <= n cannot certify a zero residue


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                       min_size=n, max_size=n)),
       st.sampled_from((2, 5, 10007, 2 ** 61 - 1)))
def test_hessenberg_charpoly_matches_sympy(rows, p):
    x = sympy.Symbol("x")
    expect = sympy.Matrix(rows).charpoly(x).all_coeffs()  # highest first
    got = _hessenberg_charpoly_mod(rows, p)
    assert got == [int(c) % p for c in reversed(expect)]


def test_is_prime_matches_sympy():
    for n in range(0, 5000):
        assert _is_prime(n) == sympy.isprime(n), n
    top = 2 ** 81
    for n in range(top - 3000, top):
        assert _is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to every base up to 7 and up to 37
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n) and not sympy.isprime(n)


def test_exact_quotient():
    # (x + 1)(2x - 3) / (x + 1)
    assert _exact_quotient([-3, -1, 2], [1, 1]) == [Fraction(-3), Fraction(2)]
    assert _exact_quotient([6], [3, 0]) == [Fraction(2)]
    with pytest.raises(ArithmeticError):
        _exact_quotient([1, 0, 1], [1, 1])
    with pytest.raises(ArithmeticError):
        _exact_quotient([1, 2], [0, 0])
