"""Exact linear algebra: 3x3 matrices over Q(zeta_5), whose determinant,
inverse and kernel come from the adjugate, and one elimination for every
larger system, `echelon`, fraction-free over Z.  It is Bareiss's pass
with lazy rescaling: a row whose pivot-column entry is 0 is left as it
is, and its scale is caught up, exactly, when it is next touched, since
the factors L_k / L_{k-1} that the dense pass applies to it telescope.
Its callers pass integer rows, for forms over Q(zeta_5) the coordinates
of their numerators on 1, zeta, zeta^2, zeta^3; back-substitution on
integers, each row divided by its content (`gauss_jordan`), gives
reduced row echelon forms and integer null space bases.

A `Matrix` is its nine entries' integer numerators over one least
denominator, as a `Poly3` is its coefficients': products, differences,
`apply` and the cofactors, determinant and inverse take sums of products
in Z[zeta_5] (`cyclo._dot`) with one gcd per result, and a `Cyclo` is
built only for an entry that is read.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import sub

from .cyclo import (_ZERO, Cyclo, _dot, _IntegerForm, _inverse_parts, _make, _mul, _numerators,
                    rational)


def _minor(p, q, r, s):
    """p*q - r*s on integer 4-tuples."""
    return tuple(map(sub, _mul(p, q), _mul(r, s)))


class Matrix(_IntegerForm):
    """Immutable 3x3 matrix over Q(zeta_5): entry (i, j) is nums[3i + j] /
    den, in the canonical `cyclo._IntegerForm`; `entries`, `row`,
    `trace` and `det` build their `Cyclo`s when read."""

    __slots__ = ()

    def __new__(cls, entries):
        entries = tuple(map(rational, entries))
        if len(entries) != 9:
            raise ValueError("a 3x3 matrix has nine entries")
        return Matrix._of(*_numerators(entries))

    @staticmethod
    def from_rows(rows) -> "Matrix":
        """The matrix of three rows of three entries (ValueError otherwise)."""
        (a, b, c), (d, e, f), (g, h, i) = rows
        return Matrix((a, b, c, d, e, f, g, h, i))

    @staticmethod
    def identity(k: int) -> "Matrix":
        """The identity; its size k can only be 3."""
        return Matrix.diagonal([1] * k)

    @staticmethod
    def diagonal(diag) -> "Matrix":
        a, b, c = diag
        return Matrix((a, 0, 0, 0, b, 0, 0, 0, c))

    @property
    def entries(self) -> tuple:
        """The nine entries, row by row."""
        return tuple(map(self._entry, range(9)))

    def row(self, i):
        return tuple(map(self._entry, range(3 * i, 3 * i + 3)))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            a, b = self.nums, other.nums
            cols = (b[0::3], b[1::3], b[2::3])
            return Matrix._of(self.den * other.den,
                              [_dot(a[i:i + 3], col) for i in (0, 3, 6) for col in cols])
        other = rational(other)
        return Matrix._of(self.den * other.den, [_mul(n, other.nums) for n in self.nums])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        return Matrix._of(den, [tuple(x * s - y * t for x, y in zip(a, b))
                                for a, b in zip(self.nums, other.nums)])

    def transpose(self) -> "Matrix":
        n = self.nums
        return Matrix._of(self.den, n[0::3] + n[1::3] + n[2::3])

    def trace(self) -> Cyclo:
        n = self.nums
        return _make(*map(sum, zip(n[0], n[4], n[8])), self.den)

    def apply(self, vec) -> tuple:
        """Matrix times a column vector of three entries (ValueError for
        any other length)."""
        x, y, z = vec
        dv, v = _numerators((rational(x), rational(y), rational(z)))
        m, den = self.nums, self.den * dv
        return tuple(_make(*_dot(m[i:i + 3], v), den) for i in (0, 3, 6))

    def _cofactors(self):
        """(den, adj, det): adj the nine numerators of the adjugate
        (transposed cofactors) over den^2 and det that of the determinant
        over den^3.  As m * adj(m) = det(m) * I, det(m) is the first row
        of m times the first column of adj(m)."""
        a, b, c, d, e, f, g, h, i = self.nums
        adj = (_minor(e, i, f, h), _minor(c, h, b, i), _minor(b, f, c, e),
               _minor(f, g, d, i), _minor(a, i, c, g), _minor(c, d, a, f),
               _minor(d, h, e, g), _minor(b, g, a, h), _minor(a, e, b, d))
        return self.den, adj, _dot((a, b, c), adj[0::3])

    def det(self) -> Cyclo:
        den, _, det = self._cofactors()
        return _make(*det, den ** 3)

    def inverse(self) -> "Matrix":
        """adj(m) / det(m): with entries over den, the adjugate's
        numerators times den over the determinant's, whose inverse is
        rest / norm (`cyclo._inverse_parts`; the norm of a nonzero
        element of Q(zeta_5) is positive).  The Reynolds set-up calls it
        once per extra generator (`invariants._split_eigenbasis`), and
        `perfbench/probes.py` times it."""
        den, adj, det = self._cofactors()
        if det == _ZERO:
            raise ValueError("singular matrix")
        rest, norm = _inverse_parts(det)
        return Matrix._of(norm, [tuple(x * den for x in _mul(n, rest)) for n in adj])

    def kernel(self):
        """Right null space of a matrix of rank at least 2: [] if it is
        invertible, else one nonzero column of adj(m), as m adj(m) =
        det(m) I = 0.  Raises ValueError below rank 2, where adj(m) = 0."""
        den, adj, det = self._cofactors()
        if det != _ZERO:
            return []
        col = next((col for col in (adj[j::3] for j in range(3)) if any(map(any, col))), None)
        if col is None:
            raise ValueError("3x3 matrix of rank below 2")
        den *= den
        return [tuple(_make(*n, den) for n in col)]


def echelon(rows):
    """Fraction-free (Bareiss) forward elimination of integer rows: the
    nonzero rows of an echelon form, their pivot columns and the sign of
    the row swaps (Bareiss, Math. Comp. 22, 1968).

    Bareiss's step k replaces every row below the pivot by
    (L_k * row - factor * top) / L_{k-1}, where L_k is the k-th pivot;
    for a row whose pivot-column entry is 0 that only multiplies it by
    L_k / L_{k-1}.  Such factors telescope, so here a row is rescaled
    lazily: `since[i]` is the pivot at which its stored entries were
    last brought up to date, and the stored row times prev / since[i] is
    the Bareiss row.  Only rows with a nonzero entry in the pivot column
    are updated, as (lead * row - factor * top) / since[i], and a pivot
    row is brought up to date once when it is chosen.  Both divisions
    are exact, since every Bareiss entry is a minor of the input, and
    the rows, pivots and sign are those of the dense pass."""
    m = [list(row) for row in rows]
    since = [1] * len(m)
    pivots, sign, prev = [], 1, 1
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            since[r], since[piv] = since[piv], since[r]
            sign = -sign
        top, old = m[r], since[r]
        if old != prev:
            for j in range(c, ncols):
                top[j] = top[j] * prev // old
        lead = top[c]
        for i, row in enumerate(m[r + 1:], r + 1):
            factor = row[c]
            if factor:
                old, row[c] = since[i], 0
                for j in range(c + 1, ncols):
                    row[j] = (lead * row[j] - factor * top[j]) // old
                since[i] = lead
        prev = lead
        pivots.append(c)
    return m[:len(pivots)], pivots, sign


def integer_det(rows) -> int:
    """Determinant of a nonempty square integer matrix: at full rank, the
    sign of the row swaps times the last pivot.  Raises ValueError on an
    empty or non-square matrix."""
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError("integer_det needs a nonempty square matrix")
    ech, pivots, sign = echelon(rows)
    return sign * ech[-1][-1] if len(pivots) == len(rows) else 0


def gauss_jordan(rows):
    """Fraction-free Gauss-Jordan elimination of integer rows: (rows,
    pivot columns) with each row zero at every other row's pivot column.
    `echelon` first, then back-substitution on integers from the bottom
    row up: a row's entry f at a lower row's pivot column p is cleared as
    lead * row - f * lower, lead the lower row's entry at p, and each row
    is then divided by its content, with its pivot entry positive.  Row
    i divided by its pivot entry is row i of the reduced row echelon form
    over Q (Nakos, Turner and Williams, SIGSAM Bull. 31(3), 1997)."""
    ech, pivots, _ = echelon(rows)
    reduced = []  # bottom row first
    for row, c in zip(ech[::-1], pivots[::-1]):
        row = row[c:]
        for lower, p in zip(reduced, pivots[::-1]):
            f = row[p - c]
            if f:
                lead = lower[p]
                row = [lead * x - f * y for x, y in zip(row, lower[c:])]
        g = gcd(*row) if row[0] > 0 else -gcd(*row)
        reduced.append([0] * c + [x // g for x in row])
    return reduced[::-1], pivots


def kernel_basis(rows, ncols: int) -> list:
    """Integer basis of the v with row . v = 0 for every integer row: one
    vector per non-pivot column f of `gauss_jordan`, zero at the other
    non-pivot columns: the rational one with 1 at f times the lcm of the
    pivot entries of the rows that are nonzero at f."""
    reduced, pivots = gauss_jordan(rows)
    basis = []
    for f in [f for f in range(ncols) if f not in pivots]:
        scale = lcm(*(row[p] for row, p in zip(reduced, pivots) if row[f]))
        vec = [0] * ncols
        vec[f] = scale
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f] * (scale // row[p])
        basis.append(vec)
    return basis
