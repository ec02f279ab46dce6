from fractions import Fraction

import pytest

from wingerverify.cyclo import rational
from wingerverify.linalg import Matrix


def gram():
    h = rational(Fraction(1, 2))
    z, o = rational(0), rational(1)
    return Matrix.from_rows([[z, h, z], [h, z, z], [z, z, o]])


def test_det_gram():
    assert gram().det() == rational(Fraction(-1, 4))


def test_det_singular_and_permutation_sign():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    assert m.det().is_zero()
    p = Matrix.from_rows([[0, 1], [1, 0]])
    assert p.det() == rational(-1)


def test_inverse():
    m = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    assert m * m.inverse() == Matrix.identity(3)
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 1], [1, 1]]).inverse()


def test_kernel():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    ker = m.kernel()
    assert len(ker) == 1
    assert all(c.is_zero() for c in m.apply(ker[0]))
