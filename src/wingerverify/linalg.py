"""Exact dense linear algebra over Q(zeta_5).

Determinants and inverses are those of 3x3 matrices, the only shape
they meet, and come from the adjugate; kernels and ranks come from
reduced row echelon form.
"""

from __future__ import annotations

from fractions import Fraction

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
        one, zero = rational(1), rational(0)
        return Matrix(k, k, [one if i == j else zero for i in range(k) for j in range(k)])

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

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

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

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            return self * other
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

    def __neg__(self):
        return self * -1

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

    def apply(self, vec):
        """Matrix times column vector."""
        if len(vec) != self.cols:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            acc = rational(0)
            for j, v in enumerate(vec):
                if not v.is_zero():
                    acc = acc + self[i, j] * v
            out.append(acc)
        return tuple(out)

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

    def rref(self):
        """Reduced row echelon form; returns (rows as lists, pivot column list)."""
        m = self.to_rows()
        nrows, ncols = self.rows, self.cols
        pivots = []
        r = 0
        for c in range(ncols):
            piv = None
            for i in range(r, nrows):
                if not m[i][c].is_zero():
                    piv = i
                    break
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            inv = m[r][c].inv()
            m[r] = [e * inv for e in m[r]]
            for i in range(nrows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [e - f * p for e, p in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == nrows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self.rref()[1])

    def inverse(self) -> "Matrix":
        adj = self.adjugate()
        d = self._det_from(adj)
        if d.is_zero():
            raise ValueError("singular matrix")
        return adj * d.inv()

    def kernel(self):
        """Exact basis of the right null space, as column tuples."""
        m, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        zero, one = rational(0), rational(1)
        for f in free:
            vec = [zero] * self.cols
            vec[f] = one
            for r, p in enumerate(pivots):
                vec[p] = -m[r][f]
            basis.append(tuple(vec))
        return basis

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in self.row(i)) + "]"
                         for i in range(self.rows))

    __repr__ = __str__
