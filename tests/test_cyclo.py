from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import BOOLEANS
from wingerverify.cyclo import Cyclo, _dot, _mul, golden, make, rational, sqrt5, zeta


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


@settings(max_examples=150)
@given(raws, raws)
def test_field_ops_match_sympy(ra, rb):
    a, b = make(ra), make(rb)
    pa, pb = oracle(ra), oracle(rb)
    assert as_oracle(a) == pa
    assert as_oracle(a * b) == (pa * pb).rem(PHI5)
    assert as_oracle(a + b) == pa + pb
    assert as_oracle(a - b) == pa - pb
    assert as_oracle(-a) == -pa
    powers = [rational(1)]  # a ** k against k explicit products
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


@settings(max_examples=50)
@given(raws)
def test_rational_elements_match_sympy(ra):
    q = sum(ra, Fraction(0))
    assert as_oracle(rational(q)) == oracle([q])
    assert rational(q) == q and make([q]) == rational(q)
    # equal values hash alike, so plain numbers and Cyclo mix in sets and dicts
    assert hash(rational(q)) == hash(q) and q in {rational(q)}
    if q.denominator == 1:
        assert hash(rational(q)) == hash(int(q)) and int(q) in {rational(q)}


@settings(max_examples=50)
@given(raws, st.one_of(st.integers(-30, 30), st.fractions(-9, 9, max_denominator=12)))
def test_reflected_subtraction_and_division_match_sympy(ra, q):
    # an int or a Fraction on the left of -, as on the left of + and *; a
    # quotient by an element takes the number through `rational`
    a, pq = make(ra), oracle([Fraction(q)])
    assert as_oracle(q - a) == pq - oracle(ra)
    pa = oracle(ra)
    if pa.is_zero:
        with pytest.raises(ZeroDivisionError):
            rational(q) / a
    else:
        assert as_oracle(rational(q) / a) == (pq * pa.invert(PHI5)).rem(PHI5)


def test_reflected_operators_take_plain_numbers_only():
    s = sqrt5()
    assert 1 - s == rational(1) - s and Fraction(1, 2) - s == rational(Fraction(1, 2)) - s
    assert rational(1) / s == s / 5 and rational(Fraction(5, 2)) / s == s / 2
    assert (1 - s) / 2 == golden().galois(2)
    for bad in (1.0, "1", None):
        with pytest.raises(TypeError):
            bad - s
        with pytest.raises(TypeError):
            bad / s


# -- kernel oracle: Fraction coefficient arithmetic mod Phi5 --------------------


def frac_mul(a, b):
    """Product of Fraction 4-tuples: convolve, then fold zeta^k for k = 6, 5, 4
    with zeta^4 = -1 - zeta - zeta^2 - zeta^3."""
    conv = [Fraction(0)] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(6, 3, -1):
        c, conv[k] = conv[k], Fraction(0)
        for i in range(k - 4, k):
            conv[i] -= c
    return tuple(conv[:4])


def assert_canonical(x):
    assert isinstance(x, Cyclo)
    assert x.den > 0 and gcd(x.den, *x.nums) == 1, (x.nums, x.den)


dens = st.sampled_from([1, 2, 3, 5, 6, 12, 35])
ints = st.integers(min_value=-50, max_value=50)
scalars = st.one_of(ints, st.fractions(min_value=-9, max_value=9, max_denominator=10))


@st.composite
def elements(draw, den=None):
    """An element whose canonical denominator is `den` (drawn when None):
    its constant numerator is 1 mod den, so no common factor is left."""
    den = draw(dens) if den is None else den
    n0, n1, n2, n3 = (draw(ints) for _ in range(4))
    return Cyclo((1 + den * n0, n1, n2, n3), den)


@st.composite
def operand_pairs(draw):
    """Two elements, over one denominator or over two independent ones."""
    a = draw(elements())
    return a, draw(elements(a.den) if draw(BOOLEANS) else elements())


@settings(max_examples=300)
@given(operand_pairs(), scalars)
def test_kernel_matches_fraction_oracle(pair, q):
    a, b = pair
    ca, cb = a.coefficients(), b.coefficients()
    for x in (a, b):
        assert_canonical(x)
    cases = [(a + b, tuple(x + y for x, y in zip(ca, cb))),
             (a - b, tuple(x - y for x, y in zip(ca, cb))),
             (a * b, frac_mul(ca, cb)),
             (-a, tuple(-x for x in ca)),
             (a - a, (0, 0, 0, 0)),
             (a + q, (ca[0] + q, *ca[1:])), (q + a, (ca[0] + q, *ca[1:])),
             (a - q, (ca[0] - q, *ca[1:])),
             (a * q, tuple(x * q for x in ca)), (q * a, tuple(x * q for x in ca))]
    if q:
        cases.append((a / q, tuple(x / q for x in ca)))
    for result, want in cases:
        assert_canonical(result)
        assert result.coefficients() == want
    if not b.is_zero():
        inv, quotient = b.inv(), a / b
        assert_canonical(inv)
        assert_canonical(quotient)
        assert frac_mul(inv.coefficients(), cb) == (1, 0, 0, 0)
        assert frac_mul(quotient.coefficients(), cb) == ca
    assert (a == b) == (ca == cb) and (b == a) == (ca == cb)
    assert (a == q) == (q == a) == (ca == (q, 0, 0, 0))
    assert (a - a).is_zero() and not (a - a)


NUMERATORS = st.tuples(*[st.one_of(ints, st.integers(-2**70, 2**70))] * 4)


@settings(max_examples=100)
@given(st.lists(st.tuples(NUMERATORS, NUMERATORS), max_size=5))
def test_dot_is_the_sum_of_the_products(pairs):
    # one fold of the summed convolutions against a fold per product
    us, vs = [u for u, _ in pairs], [v for _, v in pairs]
    want = [Fraction(0)] * 4
    for u, v in pairs:
        assert _mul(u, v) == frac_mul(u, v)
        want = [x + y for x, y in zip(want, frac_mul(u, v))]
    assert _dot(us, vs) == tuple(want)


def test_kernel_guards():
    zero = rational(0)
    assert_canonical(zero)
    assert zero.nums == (0, 0, 0, 0) and zero.den == 1
    with pytest.raises(ZeroDivisionError):
        zero.inv()
    with pytest.raises(ZeroDivisionError):
        zeta() / 0
    with pytest.raises(ZeroDivisionError):
        Cyclo((1, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        Cyclo((1, 2, 3))
    for x in (zeta(), rational(Fraction(2, 3)), -zeta(), zeta() * zeta()):
        for attr, value in (("nums", (0, 0, 0, 0)), ("den", 1), ("other", 0)):
            with pytest.raises(AttributeError):
                setattr(x, attr, value)
    # the public constructor takes any nonzero denominator and normalizes
    x = Cyclo((-4, 2, 0, 6), -6)
    assert_canonical(x)
    assert (x.nums, x.den) == ((2, -1, 0, -3), 3)
