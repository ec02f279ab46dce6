from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from wingerverify.cyclo import make, rational, zeta
from wingerverify.linalg import Matrix
from wingerverify.polys import Poly3, Substitution, monomials_of_degree


def variables():
    return (Poly3.monomial(e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_ring_ops():
    x, y, z = variables()
    assert (x + y) * (x - y) == x * x - y * y
    assert ((x + y) ** 2).coefficient((1, 1, 0)) == rational(2)
    assert (x * 0).is_zero()


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


# field elements with small coefficients on 1, zeta, zeta^2, zeta^3
elements = st.builds(lambda nums, den: make([Fraction(n, den) for n in nums]),
                     st.lists(st.integers(-3, 3), min_size=1, max_size=4),
                     st.integers(1, 3))
polys = st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), elements,
                        max_size=6).map(Poly3)


@settings(max_examples=50, deadline=None)
@given(polys, st.lists(elements, min_size=9, max_size=9),
       st.lists(elements, min_size=3, max_size=3))
def test_act_agrees_with_evaluation(f, entries, point):
    # (f o m)(p) = f(m p), for any matrix (singular ones included)
    m = Matrix(3, 3, entries)
    assert f.act(m).evaluate(point) == f.evaluate(m.apply(point))
    # one Substitution shared by two forms gives the same images as act
    sub = Substitution(m)
    for g in (f, f + Poly3.monomial((0, 3, 1), point[0])):
        assert sub.apply(g) == g.act(m)


def test_monomials_of_degree():
    assert len(monomials_of_degree(6)) == 28
    assert len(monomials_of_degree(13)) == 105
    ms = monomials_of_degree(3)
    assert ms == sorted(ms, reverse=True)
    assert all(sum(m) == 3 for m in ms)


def test_printer_deterministic():
    f = Poly3({(1, 1, 0): 1, (0, 0, 2): Fraction(-1, 2)})
    assert str(f) == "z0*z1-1/2*z2^2"
