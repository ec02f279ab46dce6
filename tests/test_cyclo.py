from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from wingerverify.cyclo import golden, make, rational, sqrt5, zeta


def test_basic_arithmetic():
    z = zeta()
    assert z ** 5 == rational(1)
    assert z + z ** 2 + z ** 3 + z ** 4 == rational(-1)
    assert (z - z) .is_zero()
    assert z * z.inv() == rational(1)
    assert z.inv() == z ** 4


def test_sqrt5_and_golden():
    s = sqrt5()
    assert s * s == rational(5)
    g = golden()
    assert g * g == g + 1
    assert g.conjugate() == g          # real number: complex conjugation fixes it
    assert g.galois(2) * g == rational(-1)  # golden ratio times its field conjugate


def test_rational_detection():
    q = rational(Fraction(3, 7))
    assert q.is_rational()
    assert q.to_fraction() == Fraction(3, 7)
    assert not zeta().is_rational()
    with pytest.raises(ValueError):
        zeta().to_fraction()


def test_canonical_form_and_hash():
    a = make([Fraction(1, 2), 0, 0, 0, 0])
    b = rational(Fraction(1, 2))
    assert a == b and hash(a) == hash(b)
    # folding of high powers: zeta^5 = 1 and zeta^6 = zeta
    assert make([0, 0, 0, 0, 0, 1]) == rational(1)
    assert make([0, 0, 0, 0, 0, 0, 1]) == zeta()


def test_galois_orbit_sums():
    z = zeta()
    trace = sum((z.galois(k) for k in (2, 3, 4)), z)
    assert trace == rational(-1)
    assert sqrt5().galois(2) == -sqrt5()


def test_division_and_powers():
    z = zeta()
    x = (rational(3) + z) / (rational(1) - z)
    assert x * (rational(1) - z) == rational(3) + z
    assert z ** -3 == z ** 2


def test_str_roundtrip_style():
    x = rational(Fraction(1, 2)) * zeta() ** 3 - 1
    assert str(x) == "1/2*z^3-1"


# -- differential test against sympy: Q[x] / (x^4 + x^3 + x^2 + x + 1) --------

X = sympy.Symbol("x")
PHI5 = sympy.Poly(X**4 + X**3 + X**2 + X + 1, X, domain=sympy.QQ)


def oracle(raw):
    """The element sum raw[i] * x^i, reduced by sympy."""
    coeffs = [sympy.Rational(q.numerator, q.denominator) for q in reversed(raw)]
    return sympy.Poly.from_list(coeffs, X, domain=sympy.QQ).rem(PHI5)


def as_oracle(a):
    return oracle(a.coefficients())


def parsed(text):
    """Read a printed element back through sympy's parser."""
    expr = sympy.sympify(text.replace("^", "**"), locals={"z": X})
    return sympy.Poly(expr, X, domain=sympy.QQ).rem(PHI5)


# up to 8 coefficients, so make() also folds zeta^4 ... zeta^7
raws = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                min_size=0, max_size=8)


@settings(max_examples=150, deadline=None)
@given(raws, raws)
def test_field_ops_match_sympy(ra, rb):
    a, b = make(ra), make(rb)
    pa, pb = oracle(ra), oracle(rb)
    assert as_oracle(a) == pa
    assert as_oracle(a * b) == (pa * pb).rem(PHI5)
    assert as_oracle(a + b) == pa + pb
    assert as_oracle(a - b) == pa - pb
    assert as_oracle(-a) == -pa
    powers = [rational(1)]  # square-and-multiply against repeated products
    for _ in range(15):
        powers.append(powers[-1] * a)
    assert all(a ** k == powers[k] for k in (0, 1, 2, 15))
    for k in (2, 3, 4):
        assert as_oracle(a.galois(k)) == pa.compose(
            sympy.Poly(X**k, X, domain=sympy.QQ)).rem(PHI5)
    if not pa.is_zero:
        inv = pa.invert(PHI5)
        assert as_oracle(a.inv()) == inv
        assert as_oracle(b / a) == (pb * inv).rem(PHI5)
    assert parsed(str(a)) == pa
    # equality and hashing agree with the oracle, for any construction path
    assert (a == b) == (pa == pb)
    if a == b:
        assert hash(a) == hash(b) and str(a) == str(b)
    twin = make(list(ra) + [0] * 5 + [1, 1, 1, 1, 1])  # adds 1+z+...+z^4 = 0
    assert twin == a and hash(twin) == hash(a)
    if not pb.is_zero:
        back = (a * b) / b
        assert back == a and hash(back) == hash(a) and str(back) == str(a)


@settings(max_examples=50, deadline=None)
@given(raws)
def test_rational_elements_match_sympy(ra):
    q = sum(ra, Fraction(0))
    assert as_oracle(rational(q)) == oracle([q])
    assert rational(q) == q and make([q]) == rational(q)
    # equal values hash alike, so plain numbers and Cyclo mix in sets and dicts
    assert hash(rational(q)) == hash(q) and q in {rational(q)}
    if q.denominator == 1:
        assert hash(rational(q)) == hash(int(q)) and int(q) in {rational(q)}
