"""Reference elimination over Q for the test oracles.

The reduced row echelon form and null space with `Fraction` entries:
`linalg.echelon`, then back-substitution over Q.  `linalg.gauss_jordan`
and `linalg.kernel_basis` replaced them by back-substitution on
integers; they are kept here as that pass's reference.
"""

from fractions import Fraction
from math import lcm

from wingerverify.linalg import echelon


def rref(rows):
    """Reduced row echelon form over Q of rows of ints or Fractions, as
    (rows of Fractions, pivot columns): `echelon` on the rows cleared of
    their denominators, then back-substitution from the bottom row up."""
    ints = []
    for row in rows:
        s = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (s // x.denominator) for x in row])
    ech, pivots, _ = echelon(ints)
    reduced = []  # bottom row first
    for row, c in zip(ech[::-1], pivots[::-1]):
        lead = row[c]
        row = [Fraction(x, lead) for x in row]
        for below, p in zip(reduced, pivots[::-1]):
            f = row[p]
            if f:
                row = [x - f * y for x, y in zip(row, below)]
        reduced.append(row)
    return reduced[::-1], pivots


def null_space(rows, ncols: int) -> list:
    """Basis over Q of the v with row . v = 0 for every row: one vector
    per non-pivot column f, with 1 at f and 0 at the other ones."""
    reduced, pivots = rref(rows)
    basis = []
    for f in [f for f in range(ncols) if f not in pivots]:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis
