from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclo_loops
from strategies import WIDE, field_elements, nine_entries, triples
from wingerverify.cyclo import Cyclo, make, rational, zeta
from wingerverify.linalg import Matrix
from wingerverify.polys import Point, Poly3, Substitution, _from_numerators, monomials_of_degree
from wingerverify.winger import _derivatives, f_poly, irregular_orbits, six_lines


def variables():
    return (Poly3.monomial(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_ring_ops():
    x, y, z = variables()
    assert (x + y) * (x + y * -1) == x * x + y * y * -1
    assert cyclo_loops.coefficient((x + y) ** 2, (1, 1, 0)) == rational(2)
    assert not (x * 0).nums


def test_partials_and_gradient():
    x, y, z = variables()
    f = x ** 3 * y + z ** 2
    assert f.partial(0) == 3 * (x ** 2) * y
    assert f.partial(2) == 2 * z
    assert f.partial(1) == x ** 3


def test_evaluate_exact():
    x, y, z = variables()
    f = x * y + z ** 2
    val = f.evaluate((zeta(), zeta() ** 4, rational(0)))
    assert val == rational(1)


def test_act_is_precomposition():
    x, y, z = variables()
    swap = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert (x ** 2 + y).act(swap) == y ** 2 + x
    m = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert x.act(m) == x + y
    # (f o m1) o m2 = f o (m1*m2)
    f = x * y + z ** 2
    m2 = Matrix.from_rows([[1, 0, 0], [0, 1, 2], [0, 0, 1]])
    assert f.act(m).act(m2) == f.act(m * m2)


elements = field_elements(st.integers(-3, 3), st.integers(1, 3))
EXPONENTS = st.tuples(*[st.integers(0, 3)] * 3)
polys = st.dictionaries(EXPONENTS, elements, max_size=6).map(Poly3)


@settings(max_examples=50)
@given(polys, nine_entries(elements), triples(elements))
def test_act_agrees_with_evaluation(f, entries, point):
    # (f o m)(p) = f(m p), for any matrix (singular ones included)
    m = Matrix(entries)
    assert f.act(m).evaluate(point) == f.evaluate(m.apply(point))
    # one Substitution shared by two forms gives the same images as act
    sub = Substitution(m)
    for g in (f, f + Poly3.monomial((0, 3, 1), point[0])):
        assert sub.apply(g) == g.act(m)


# Oracle for the integer kernels: the Cyclo-level loops they replaced, one
# field multiply and add per pair of terms.
def cyclo_mul(f, g):
    out = {}
    for (a1, b1, c1), x in cyclo_loops.terms(f).items():
        for (a2, b2, c2), y in cyclo_loops.terms(g).items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            cur = out.get(key)
            prod = x * y
            out[key] = prod if cur is None else cur + prod
    return Poly3(out)


def cyclo_pow(f, k):
    out = Poly3.monomial((0, 0, 0), 1)
    for _ in range(k):
        out = cyclo_mul(out, f)
    return out


def cyclo_image(m, expo):
    out = Poly3.monomial((0, 0, 0), 1)
    for i, k in enumerate(expo):
        out = cyclo_mul(out, cyclo_pow(Poly3.linear(m.row(i)), k))
    return out


def cyclo_apply(m, f):
    out = {}
    for expo, coef in cyclo_loops.terms(f).items():
        for e, c in cyclo_loops.terms(cyclo_image(m, expo)).items():
            term = c * coef
            cur = out.get(e)
            out[e] = term if cur is None else cur + term
    return Poly3(out)


wide_polys = st.dictionaries(EXPONENTS, WIDE, max_size=5).map(Poly3)
X, Y, Z = variables()
HALF_THIRD = Poly3({(1, 0, 0): Fraction(1, 2), (0, 1, 0): Fraction(1, 3),
                    (0, 0, 1): Fraction(1, 5)})
EQUAL_ROWS = Matrix.from_rows([[1, 2, 3], [1, 2, 3], [0, 0, Fraction(1, 7)]])
# every power of zeta in every coefficient, so each fold term counts
ZETA_FORM = Poly3({(1, 0, 0): make([1, 2, 3, 4]), (0, 2, 0): make([0, Fraction(1, 2), -1, 3])})
# terms that share their z2 exponent c (three with c = 1, two with c = 0),
# and terms with a = 0, b = 0 or both
SHARED_C = Poly3({(3, 0, 1): make([1, 2, 3, 4]), (0, 3, 1): Fraction(1, 2),
                  (1, 2, 1): Fraction(2**70, 3), (2, 0, 0): Fraction(-1, 5),
                  (0, 2, 0): zeta(), (0, 0, 3): 7})
MIXED = [Fraction(1, 2), zeta(), 3, make([0, Fraction(1, 3)]), 1, Fraction(1, 5),
         2, 0, make([1, 0, Fraction(1, 7)])]


@settings(max_examples=60)
@given(wide_polys, wide_polys)
@example(X + Y, X + Y * -1)  # the cross terms cancel
@example(ZETA_FORM, ZETA_FORM + X)
@example(Poly3.zero(), HALF_THIRD)
@example(Poly3.monomial((0, 0, 0), Fraction(2**70, 3)), HALF_THIRD)
def test_products_match_cyclo_loop(f, g):
    assert f * g == cyclo_mul(f, g)
    diff = f + g * -1
    assert (f + g) * diff == cyclo_mul(f + g, diff) == f * f + g * g * -1
    for k in (0, 1, 2, 3):
        assert f ** k == cyclo_pow(f, k)


def test_power_fifteen_matches_cyclo_loop():
    f = HALF_THIRD + Poly3.monomial((0, 1, 0), zeta())
    assert f ** 15 == cyclo_pow(f, 15)
    assert f ** 1 == f and f ** 0 == Poly3.monomial((0, 0, 0), 1)


@settings(max_examples=60)
@given(wide_polys, nine_entries(WIDE))
@example(X + Y * -1, list(EQUAL_ROWS.entries))  # the image cancels to zero
@example(Poly3.zero(), list(EQUAL_ROWS.entries))
@example(Poly3.monomial((0, 0, 0), Fraction(5, 3)), list(EQUAL_ROWS.entries))
@example(HALF_THIRD ** 2 + Z * Fraction(1, 2**65 + 1),
         [Fraction(1, 2), 0, 0, 0, Fraction(1, 3), 0, 0, 0, Fraction(1, 5)])
@example(SHARED_C, MIXED)
@example(SHARED_C * Z, list(EQUAL_ROWS.entries))
@example((X + Y * -1) * Z, list(EQUAL_ROWS.entries))  # the sum at c = 1 cancels
def test_substitution_matches_cyclo_loop(f, entries):
    m = Matrix(entries)
    want = cyclo_apply(m, f)
    sub = Substitution(m)
    assert sub.apply(f) == want
    assert f.act(m) == want
    for expo in list(f.nums) + [(0, 0, 0), (3, 0, 2)]:
        assert sub.apply(Poly3.monomial(expo)) == cyclo_image(m, expo)
    # the power tables the images extended serve the next form unchanged
    assert sub.apply(f + HALF_THIRD) == cyclo_apply(m, f + HALF_THIRD)


# forms of degree at most 8: three sorted cuts s0 <= s1 <= s2 in 0..8 give
# the exponents (s0, s1 - s0, s2 - s1)
DEGREE_8 = triples(st.integers(0, 8)).map(sorted).map(lambda s: (s[0], s[1] - s[0], s[2] - s[1]))
MIXED_FORMS = st.dictionaries(DEGREE_8, st.one_of(elements, WIDE), max_size=6).map(Poly3)
# matrices with zero entries, and singular ones: a zero row, or a third
# row the sum of the first two
SUBSTITUTION_ENTRIES = nine_entries(st.one_of(st.just(0), elements, WIDE))
SHAPES = st.sampled_from(("plain", "zero row", "dependent"))


def shaped(entries, shape):
    """The matrix of the nine entries, reshaped as SHAPES names."""
    if shape == "zero row":
        entries[3:6] = [0, 0, 0]
    elif shape == "dependent":
        entries[6:] = [a + b for a, b in zip(entries[:3], entries[3:6])]
    return Matrix(entries)


@settings(max_examples=60)
@given(MIXED_FORMS, SUBSTITUTION_ENTRIES, SHAPES, st.integers(0, 3))
@example(SHARED_C, MIXED, "plain", 1)
@example((X + Y * -1) * Z, list(EQUAL_ROWS.entries), "plain", 0)  # the sum at c = 1 cancels
def test_odd_half_is_the_odd_part_of_the_substitution(f, entries, shape, first):
    # the terms of f o m of odd degree on columns first.., and no other
    m = shaped(entries, shape)
    sub = Substitution(m)
    den, nums = sub.numerators(f.den, f.nums, first)
    assert all(sum(e[first:]) % 2 for e in nums)
    want = {e: c for e, c in cyclo_loops.terms(f.act(m)).items() if sum(e[first:]) % 2}
    assert _from_numerators(den, nums) == Poly3(want)


# points with zero coordinates, plain ints and Fractions, and mixed denominators
coordinates = st.one_of(st.just(0), st.integers(-9, 9),
                        st.fractions(-5, 5, max_denominator=9), elements, WIDE)


@settings(max_examples=100)
@given(wide_polys, triples(coordinates))
@example(Poly3.zero(), [1, Fraction(1, 2), zeta()])
@example(Poly3.monomial((0, 0, 0), Fraction(5, 3)), [0, 0, 0])
@example(HALF_THIRD ** 2 + Z * Fraction(1, 2**65 + 1) + Poly3.monomial((0, 0, 0), 7),
         [Fraction(1, 3), 0, make([0, Fraction(1, 4)])])  # degrees 0, 1 and 2
@example(ZETA_FORM * X + Poly3.monomial((3, 0, 0), zeta()), [zeta() ** 2, 0, 1])
def test_evaluate_matches_cyclo_loop(f, point):
    # non-homogeneous polynomials: every degree scaled to the top one
    assert f.evaluate(point) == cyclo_loops.evaluate(f, point)


@settings(max_examples=60)
@given(st.lists(wide_polys, min_size=1, max_size=4), triples(coordinates))
def test_one_point_table_serves_every_form(forms, point):
    # the monomials that one form computes are read back by the next
    at = Point(point)
    for f in forms:
        den, nums = at.value(f)
        assert rational(Fraction(1, den)) * Cyclo(nums) == cyclo_loops.evaluate(f, point)


def test_evaluate_matches_cyclo_loop_on_the_pencil():
    # the gradients and second partials that singular_point evaluates
    grad_q, hess_q, grad_f, hess_f = _derivatives(f_poly())
    polys = [*grad_q, *grad_f, *(d for row in hess_q + hess_f for d in row)]
    for orbit in irregular_orbits().values():
        for p in sorted(orbit, key=lambda p: [(c.nums, c.den) for c in p])[:3]:
            for g in polys:
                assert g.evaluate(p) == cyclo_loops.evaluate(g, p)


def test_monomials_of_degree():
    assert len(monomials_of_degree(6)) == 28
    assert len(monomials_of_degree(13)) == 105
    ms = monomials_of_degree(3)
    assert ms == sorted(ms, reverse=True)
    assert all(sum(m) == 3 for m in ms)


def test_printer_deterministic():
    f = Poly3({(1, 1, 0): 1, (0, 0, 2): Fraction(-1, 2)})
    assert str(f) == "z0*z1-1/2*z2^2"


# -- the integer form: one least denominator, and no field element inside ------

# coefficients over mixed denominators up to 9, and the scalars 0, -1 and
# zeta among others
MIXED_DENOMINATOR = field_elements(st.integers(-9, 9), st.integers(1, 9))
ANY_POLYS = st.one_of(polys, st.dictionaries(EXPONENTS, MIXED_DENOMINATOR, max_size=6).map(Poly3))
SCALARS = st.one_of(st.sampled_from([0, -1, zeta(), Fraction(-7, 6)]), MIXED_DENOMINATOR)
VARIABLE = st.integers(0, 2)
NONZERO_FRACTIONS = st.builds(Fraction, st.sampled_from([*range(-9, 0), *range(1, 10)]),
                              st.integers(1, 9))


@settings(max_examples=80)
@given(ANY_POLYS, ANY_POLYS, SCALARS, VARIABLE)
@example(X + HALF_THIRD, (X + HALF_THIRD) * -1, 0, 0)  # the sum cancels to zero
@example(Poly3.zero(), HALF_THIRD, -1, 1)
@example(ZETA_FORM, ZETA_FORM * zeta(), zeta(), 1)
@example(SHARED_C, HALF_THIRD * Fraction(1, 6), Fraction(1, 2), 2)
def test_integer_ops_match_cyclo_loops(f, g, c, i):
    # Cyclo dicts compared, so the oracle does not rest on Poly3.__eq__
    terms = cyclo_loops.terms
    assert terms(f + g) == terms(cyclo_loops.add(f, g))
    assert terms(f * c) == terms(c * f) == terms(cyclo_loops.scale(f, c))
    assert terms(f.partial(i)) == terms(cyclo_loops.partial(f, i))


def assert_canonical(f):
    """den is the least denominator: positive, prime to every numerator
    entry, with no zero term; and the Cyclo coefficients give f back."""
    assert f.den > 0 and all(any(n) for n in f.nums.values())
    assert gcd(f.den, *chain.from_iterable(f.nums.values())) == 1
    assert Poly3(cyclo_loops.terms(f)) == f


@settings(max_examples=60)
@given(ANY_POLYS, ANY_POLYS, NONZERO_FRACTIONS)
@example(HALF_THIRD, HALF_THIRD, Fraction(7, 3))
@example(Poly3.zero(), ZETA_FORM, Fraction(-1, 9))
def test_equal_polynomials_have_one_form(f, g, q):
    # terms in shuffled order, scaled by a Fraction and back, sums that cancel
    terms = list(cyclo_loops.terms(f).items())
    ways = [Poly3(dict(terms[::-1])), Poly3(dict(sorted(terms))), f * q * (1 / q),
            (f + g) + g * -1, f + (g + g * -1), Poly3(dict(terms)), Poly3.zero() + f]
    for h in ways:
        assert (h.den, dict(h.nums)) == (f.den, dict(f.nums))
        assert hash(h) == hash(f)
        assert_canonical(h)
    assert_canonical(f * g)
    zero = g + g * -1
    assert (zero.den, dict(zero.nums)) == (1, {}) and zero == Poly3.zero()


def test_polynomial_arithmetic_builds_no_field_element(monkeypatch):
    # +, * (by a form and by a scalar), partial, act, == and hash run on
    # the integer numerators; a Cyclo is built only when a coefficient is read
    f, g, m = SHARED_C, ZETA_FORM + HALF_THIRD, Matrix(MIXED)
    copy = Poly3(cyclo_loops.terms(f))

    def refuse(*args):
        raise AssertionError("a field element was built")

    with monkeypatch.context() as patch:
        patch.setattr("wingerverify.cyclo._make", refuse)
        patch.setattr("wingerverify.polys._make", refuse)
        got = [f + g, f * g, f * Fraction(2, 3), f * -1, zeta() * f, 0 * f,
               f.partial(0), f.partial(2), f.act(m)]
        same = (f == copy, f != g, hash(f) == hash(copy))
    assert same == (True, True, True)
    assert list(map(cyclo_loops.terms, got)) == list(map(cyclo_loops.terms, (
        cyclo_loops.add(f, g), cyclo_mul(f, g),
        cyclo_loops.scale(f, Fraction(2, 3)), cyclo_loops.scale(f, -1),
        cyclo_loops.scale(f, zeta()), Poly3.zero(), cyclo_loops.partial(f, 0),
        cyclo_loops.partial(f, 2), cyclo_apply(m, f))))


def test_a_cached_form_cannot_be_changed_through_what_it_hands_out():
    f = f_poly()
    try:
        with pytest.raises(TypeError):
            f.nums[(6, 0, 0)] = (5, 0, 0, 0)
        fresh = Poly3.monomial((0, 0, 0))
        for row in six_lines():
            fresh = fresh * Poly3.linear(row)
        assert f_poly() == fresh and (6, 0, 0) not in f_poly().nums
    finally:
        f_poly.cache_clear()
