"""Exact linear algebra: 3x3 matrices over Q(zeta_5), whose determinant,
inverse and kernel come from the adjugate, and one elimination for every
larger system, `echelon`, fraction-free over Z.  Its callers pass
rational rows, or split Q(zeta_5) rows into their rational coordinates;
back-substitution over Q gives reduced row echelon forms and null spaces.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .cyclo import Cyclo, rational


class Matrix:
    """Immutable dense matrix over Q(zeta_5)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(
            e if isinstance(e, Cyclo) else rational(e) for e in entries
        )
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def from_rows(rows) -> "Matrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return Matrix(r, c, [e for row in rows for e in row])

    @staticmethod
    def identity(k: int) -> "Matrix":
        return Matrix.diagonal([1] * k)

    @staticmethod
    def diagonal(diag) -> "Matrix":
        k = len(diag)
        zero = rational(0)
        return Matrix(k, k, [diag[i] if i == j else zero for i in range(k) for j in range(k)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch")
            a, b = self.entries, other.entries
            m, k, p = self.rows, self.cols, other.cols
            out = []
            for i in range(m):
                arow = a[i * k:(i + 1) * k]
                for j in range(p):
                    acc = None
                    for t in range(k):
                        av = arow[t]
                        if av.is_zero():
                            continue
                        term = av * b[t * p + j]
                        acc = term if acc is None else acc + term
                    out.append(acc if acc is not None else rational(0))
            return Matrix(m, p, out)
        if isinstance(other, (int, Fraction, Cyclo)):
            return Matrix(self.rows, self.cols, [e * other for e in self.entries])
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (other * -1)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      [self[i, j] for j in range(self.cols) for i in range(self.rows)])

    def trace(self) -> Cyclo:
        if self.rows != self.cols:
            raise ValueError("trace of a non-square matrix")
        acc = rational(0)
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def apply(self, vec) -> tuple:
        """Matrix times column vector."""
        return (self * Matrix(len(vec), 1, vec)).entries

    def adjugate(self) -> "Matrix":
        """The 3x3 adjugate (transposed cofactors): m * adj(m) = det(m) * I."""
        if (self.rows, self.cols) != (3, 3):
            raise ValueError("adjugate of a non-3x3 matrix")
        a, b, c, d, e, f, g, h, i = self.entries
        return Matrix(3, 3, (e * i - f * h, c * h - b * i, b * f - c * e,
                             f * g - d * i, a * i - c * g, c * d - a * f,
                             d * h - e * g, b * g - a * h, a * e - b * d))

    def _det_from(self, adj: "Matrix") -> Cyclo:
        """The first row of a 3x3 matrix times the first column of its adjugate."""
        return self[0, 0] * adj[0, 0] + self[0, 1] * adj[1, 0] + self[0, 2] * adj[2, 0]

    def det(self) -> Cyclo:
        return self._det_from(self.adjugate())

    def inverse(self) -> "Matrix":
        adj = self.adjugate()
        d = self._det_from(adj)
        if d.is_zero():
            raise ValueError("singular matrix")
        return adj * d.inv()

    def kernel(self):
        """Right null space of a 3x3 matrix of rank at least 2: [] if it is
        invertible, else one nonzero column of adj(m), as m adj(m) =
        det(m) I = 0.  Raises ValueError below rank 2, where adj(m) = 0."""
        adj = self.adjugate()
        if not self._det_from(adj).is_zero():
            return []
        columns = [col for col in zip(*(adj.row(i) for i in range(3))) if any(col)]
        if not columns:
            raise ValueError("3x3 matrix of rank below 2")
        return columns[:1]

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))


def echelon(rows):
    """Fraction-free (Bareiss) forward elimination of integer rows: the
    nonzero rows of an echelon form, their pivot columns and the sign of
    the row swaps.  Each step updates only the columns right of its pivot,
    and every entry stays a minor of the input, so the division by the
    previous pivot is exact (Bareiss, Math. Comp. 22, 1968)."""
    m = [list(row) for row in rows]
    pivots, sign, prev = [], 1, 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top, lead = m[r], m[r][c]
        for row in m[r + 1:]:
            factor, row[c] = row[c], 0
            for j in range(c + 1, len(top)):
                row[j] = (lead * row[j] - factor * top[j]) // prev
        prev = lead
        pivots.append(c)
    return m[:len(pivots)], pivots, sign


def integer_det(rows) -> int:
    """Determinant of a nonempty square integer matrix: at full rank, the
    sign of the row swaps times the last pivot."""
    ech, pivots, sign = echelon(rows)
    return sign * ech[-1][-1] if len(pivots) == len(rows) else 0


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
