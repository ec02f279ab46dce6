from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wingerverify.cyclo import rational, zeta
from wingerverify.linalg import Matrix


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


# -- the adjugate against the augmented-RREF inverse ----------------------------


def rref_inverse(m):
    """The inverse from the RREF of [m | I], or None when m is singular:
    the construction the adjugate replaced, kept as its oracle."""
    k = m.rows
    ident = Matrix.identity(k)
    aug = Matrix(k, 2 * k, [x for i in range(k) for x in (*m.row(i), *ident.row(i))])
    rows, pivots = aug.rref()
    if pivots != list(range(k)):
        return None
    return Matrix(k, k, [e for row in rows for e in row[k:]])


ZETA_POWERS = [zeta() ** k for k in range(4)]
ELEMENTS = st.builds(
    lambda cs, den: sum((z * Fraction(c, den) for z, c in zip(ZETA_POWERS, cs)),
                        rational(0)),
    st.lists(st.integers(-3, 3), min_size=4, max_size=4), st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(st.lists(ELEMENTS, min_size=9, max_size=9), ELEMENTS, st.booleans())
def test_adjugate_and_inverse_match_rref_oracle(entries, c, dependent):
    if dependent:  # third row = first + c * second, so that det = 0
        entries[6:] = [a + c * b for a, b in zip(entries[:3], entries[3:6])]
    m = Matrix(3, 3, entries)
    d, adj = m.det(), m.adjugate()
    scalar = Matrix.identity(3) * d
    assert m * adj == scalar and adj * m == scalar
    oracle = rref_inverse(m)
    assert d.is_zero() == (oracle is None)
    if oracle is None:
        with pytest.raises(ValueError, match="singular"):
            m.inverse()
    else:
        assert m.inverse() == oracle
