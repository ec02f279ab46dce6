"""Reference route to the pencil's discriminant for the test oracles.

The Macaulay quotient: the determinant of the 105x105 Macaulay pencil of
the partials of (Q^3 + lam*f) o T over that of its 30x30 extraneous
minor, both by the multi-modular `_pencil_det` of `modular_pencil`, in
coordinates T of its own where the minor does not vanish: ORACLE_T, a
signed permutation up to one shear, of determinant 1, so that the
quotient is the resultant with no scale.
`discriminant` replaced it by the hybrid Sylvester-Bezout matrix; it is
kept here as that matrix's independent reference.  The modular pencil
takes a few passes per determinant, where evaluation and interpolation
would take 106 integer determinants of the 105x105 matrix.
"""

from fractions import Fraction

from modular_pencil import _pencil_det
from wingerverify.discriminant import _eval_determinants, _pencil_partials

ORACLE_T = ((0, -1, 0), (0, 1, 1), (-1, 0, 0))


def exact_quotient(num, den):
    """num / den in Q[lam] (coefficients lowest first); raises
    ArithmeticError unless the division leaves no remainder."""
    num = [Fraction(x) for x in num]
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ArithmeticError("zero denominator polynomial")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    for k in range(len(num) - len(den), -1, -1):
        q = num[k + len(den) - 1] / den[-1]
        quot[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    if any(num):
        raise ArithmeticError("the polynomial division leaves a remainder")
    return quot


def macaulay_quotient(f):
    """Coefficients (lowest first, trailing zeros dropped) of the
    resultant of the partials of (Q^3 + lam*f) o ORACLE_T."""
    tables = _pencil_partials(f, ORACLE_T)
    full_a, minor_a = _eval_determinants([a for a, _ in tables], (5, 5, 5))
    full_b, minor_b = _eval_determinants([b for _, b in tables], (5, 5, 5))
    num = _pencil_det([[ra, rb] for ra, rb in zip(full_a, full_b)])
    den = _pencil_det([[ra, rb] for ra, rb in zip(minor_a, minor_b)])
    coeffs = exact_quotient(num, den)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs
