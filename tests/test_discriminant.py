import os

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wingerverify.discriminant import (_int_bareiss_det, _newton_interpolate,
                                       _poly_eval, _divide_out_root,
                                       macaulay_resultant_value,
                                       macaulay_system)
from wingerverify.polys import Poly3
from fractions import Fraction


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
    pts = [(Fraction(k), Fraction(k) ** 3 + Fraction(k) ** 2) for k in (1, 2, 3, 5)]
    coeffs = _newton_interpolate(pts)
    assert coeffs == [Fraction(0), Fraction(0), Fraction(1), Fraction(1)]
    m0, rest = _divide_out_root(coeffs, Fraction(0))
    assert m0 == 2
    m1, rest = _divide_out_root(rest, Fraction(-1))
    assert m1 == 1 and rest == [Fraction(1)]
    assert _poly_eval(coeffs, Fraction(2)) == 12


def lagrange_interpolate(points):
    """Oracle: the O(n^3) Lagrange formula over Fraction."""
    coeffs = [Fraction(0)] * len(points)
    for xi, yi in points:
        # basis polynomial prod (x - xj)/(xi - xj)
        basis = [Fraction(1)]
        denom = Fraction(1)
        for xj, _ in points:
            if xj == xi:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
            denom *= xi - xj
        w = yi / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    return coeffs


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-40, 120), min_size=0, max_size=12, unique=True),
       st.lists(st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6)),
                min_size=12, max_size=12))
def test_newton_matches_lagrange(nodes, values):
    points = [(Fraction(x), y) for x, y in zip(nodes, values)]
    coeffs = _newton_interpolate(points)
    assert coeffs == lagrange_interpolate(points)
    assert all(type(c) is Fraction for c in coeffs)


def test_newton_matches_sympy_on_degree_60():
    # a degree-60 polynomial with large rational coefficients, sampled at
    # 76 integer nodes with two gaps, as pencil_discriminant samples it
    coeffs = [Fraction((-1) ** k * (7 ** k + 3 * k), k + 1) for k in range(61)]
    nodes = [x for x in range(1, 79) if x not in (9, 40)]
    points = [(Fraction(x), _poly_eval(coeffs, Fraction(x))) for x in nodes]
    got = _newton_interpolate(points)
    assert got == coeffs + [Fraction(0)] * 15
    t = sympy.Symbol("t")
    expect = sympy.Poly(sympy.interpolate([(x, sympy.Rational(y.numerator, y.denominator))
                                           for x, y in points[:12]], t), t)
    low = _newton_interpolate(points[:12])
    assert [sympy.Rational(c.numerator, c.denominator) for c in low] == \
        list(reversed(expect.all_coeffs()))


@pytest.mark.skipif(os.environ.get("WINGER_DEEP") != "1",
                    reason="slow full-pencil discriminant; set WINGER_DEEP=1")
def test_pencil_discriminant_root_set():
    from wingerverify.discriminant import pencil_discriminant
    _, mults = pencil_discriminant()
    assert mults["residual_is_nonzero_constant"]
    assert mults["0"] > 0 and mults["-1"] > 0 and mults["27/5"] > 0
    assert mults["degree"] < 75  # the degree drop is the member at infinity
