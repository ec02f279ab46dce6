"""Sparse polynomials in three variables over Q(zeta_5).

Exponent triples (a, b, c) map to nonzero coefficients.  Substitution by
a 3x3 matrix acts on the variables (precomposition), which is what a
linear change of coordinates does to a form; a `Substitution` keeps the
power tables of the three image lines, so many monomials substituted by
one matrix share them.
"""

from __future__ import annotations

from .cyclo import Cyclo, rational
from .linalg import Matrix

VARS = ("z0", "z1", "z2")


class Poly3:
    """Immutable sparse trivariate polynomial; keys are exponent triples."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for expo, coef in (terms or {}).items():
            if not isinstance(coef, Cyclo):
                coef = rational(coef)
            if not coef.is_zero():
                clean[tuple(expo)] = coef
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):
        raise AttributeError("Poly3 is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "Poly3":
        return Poly3({})

    @staticmethod
    def monomial(expo, coef=1) -> "Poly3":
        return Poly3({tuple(expo): coef})

    @staticmethod
    def linear(coeffs) -> "Poly3":
        """c0*z0 + c1*z1 + c2*z2."""
        return Poly3({(1, 0, 0): coeffs[0], (0, 1, 0): coeffs[1], (0, 0, 1): coeffs[2]})

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly3):
            return NotImplemented
        out = dict(self.terms)
        for expo, coef in other.terms.items():
            cur = out.get(expo)
            out[expo] = coef if cur is None else cur + coef
        return Poly3(out)

    def __sub__(self, other):
        return self + (other * -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, Poly3):
            out = {}
            for (a1, b1, c1), x in self.terms.items():
                for (a2, b2, c2), y in other.terms.items():
                    key = (a1 + a2, b1 + b2, c1 + c2)
                    cur = out.get(key)
                    prod = x * y
                    out[key] = prod if cur is None else cur + prod
            return Poly3(out)
        return Poly3({e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly3":
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly3.monomial((0, 0, 0), 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, expo) -> Cyclo:
        return self.terms.get(tuple(expo), rational(0))

    def partial(self, i: int) -> "Poly3":
        out = {}
        for expo, coef in self.terms.items():
            if expo[i] == 0:
                continue
            new = list(expo)
            new[i] -= 1
            out[tuple(new)] = coef * expo[i]
        return Poly3(out)

    def gradient(self):
        return (self.partial(0), self.partial(1), self.partial(2))

    def evaluate(self, point) -> Cyclo:
        """Exact value at a triple of field elements."""
        acc = rational(0)
        # cache powers of each coordinate
        maxes = [0, 0, 0]
        for expo in self.terms:
            for i in range(3):
                maxes[i] = max(maxes[i], expo[i])
        pows = []
        for i in range(3):
            p = [rational(1)]
            v = point[i] if isinstance(point[i], Cyclo) else rational(point[i])
            for _ in range(maxes[i]):
                p.append(p[-1] * v)
            pows.append(p)
        for (a, b, c), coef in self.terms.items():
            acc = acc + coef * pows[0][a] * pows[1][b] * pows[2][c]
        return acc

    def act(self, m: Matrix) -> "Poly3":
        """Substitute z_i -> sum_j m[i][j] z_j (precomposition with m)."""
        return Substitution(m).apply(self)

    def __eq__(self, other):
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for expo in sorted(self.terms, key=lambda e: (-sum(e), [-x for x in e])):
            coef = self.terms[expo]
            mono = "*".join(
                (VARS[i] if e == 1 else f"{VARS[i]}^{e}")
                for i, e in enumerate(expo) if e
            )
            cs = str(coef)
            if mono:
                if cs == "1":
                    term = mono
                elif cs == "-1":
                    term = f"-{mono}"
                elif "+" in cs[1:] or "-" in cs[1:]:
                    term = f"({cs})*{mono}"
                else:
                    term = f"{cs}*{mono}"
            else:
                term = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    __repr__ = __str__


class Substitution:
    """The substitution z_i -> sum_j m[i][j] z_j of one 3x3 matrix.

    Holds the three image lines and extends their power tables on demand,
    so every monomial substituted through the same object shares them:
    the image of z0^a z1^b z2^c is pow0[a] * pow1[b] * pow2[c].
    """

    __slots__ = ("pows",)

    def __init__(self, m: Matrix):
        if (m.rows, m.cols) != (3, 3):
            raise ValueError("need a 3x3 matrix")
        one = Poly3.monomial((0, 0, 0), 1)
        self.pows = [[one, Poly3.linear(m.row(i))] for i in range(3)]

    def image(self, expo) -> Poly3:
        """The image of the monomial with exponent triple `expo`."""
        out = None
        for table, k in zip(self.pows, expo):
            if not k:
                continue
            while len(table) <= k:
                table.append(table[-1] * table[1])
            out = table[k] if out is None else out * table[k]
        return self.pows[0][0] if out is None else out

    def apply(self, f: Poly3) -> Poly3:
        """f o m: the sum of coef * image(e) over the terms of f."""
        out = {}
        for expo, coef in f.terms.items():
            for e, c in self.image(expo).terms.items():
                term = c * coef
                cur = out.get(e)
                out[e] = term if cur is None else cur + term
        return Poly3(out)


def monomials_of_degree(d: int):
    """All exponent triples of total degree d, lexicographically sorted."""
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]
