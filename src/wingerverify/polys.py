"""Sparse polynomials in three variables over Q(zeta_5).

A `Poly3` is its integer numerators over one least denominator (content
and primitive part, von zur Gathen and Gerhard, Modern Computer Algebra,
ch. 6): sums, products, derivatives, substitutions and evaluation add
and multiply 4-integer tuples in Z[zeta_5] (`_convolve`, `cyclo._mul`),
and a `Cyclo` is built only when a coefficient or a value is read.

Substitution by a 3x3 matrix acts on the variables (precomposition), as
a linear change of coordinates does on a form; a `Substitution` keeps
the power tables of the three image lines, so many monomials
substituted by one matrix share them, and multiplies by a power of the
z2 line once per z2 exponent of the form, not once per term.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from types import MappingProxyType

from .cyclo import _ZERO, Cyclo, _dot, _make, _mul, _numerators, rational
from .linalg import Matrix

VARS = ("z0", "z1", "z2")


def _convolve(p, q, out=None):
    """Add the product of the numerator dicts p and q into `out` (a new
    dict by default) and return it: exponents add, and numerators
    multiply in Z[zeta_5] with the fold of `cyclo._mul` inlined."""
    if out is None:
        out = {}
    get = out.get
    for (e0, e1, e2), (a0, a1, a2, a3) in p.items():
        for (f0, f1, f2), (b0, b1, b2, b3) in q.items():
            c4 = a1 * b3 + a2 * b2 + a3 * b1
            p0 = a0 * b0 - c4 + a2 * b3 + a3 * b2
            p1 = a0 * b1 + a1 * b0 - c4 + a3 * b3
            p2 = a0 * b2 + a1 * b1 + a2 * b0 - c4
            p3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - c4
            key = (e0 + f0, e1 + f1, e2 + f2)
            cur = get(key)
            if cur is None:
                out[key] = (p0, p1, p2, p3)
            else:
                c0, c1, c2, c3 = cur
                out[key] = (c0 + p0, c1 + p1, c2 + p2, c3 + p3)
    return out


def _powers(v, k):
    """v^0, ..., v^k for an integer 4-tuple v."""
    out = [(1, 0, 0, 0)]
    for _ in range(k):
        out.append(_mul(out[-1], v))
    return out


def _from_numerators(den, nums) -> "Poly3":
    """The canonical Poly3 with coefficients nums[expo] / den, den > 0:
    zero terms dropped, den and every numerator divided by their gcd."""
    nums = {e: n for e, n in nums.items() if any(n)}
    g = gcd(den, *chain.from_iterable(nums.values()))
    if g > 1:
        den //= g
        nums = {e: tuple(x // g for x in n) for e, n in nums.items()}
    p = object.__new__(Poly3)
    object.__setattr__(p, "den", den)
    object.__setattr__(p, "nums", MappingProxyType(nums))
    return p


class Poly3:
    """Immutable sparse trivariate polynomial: the coefficient of the
    exponent triple e is nums[e] / den, with nums[e] a nonzero int
    4-tuple on the basis 1, zeta, zeta^2, zeta^3, den > 0 and gcd(den,
    every entry) = 1.  That makes den the least common denominator of
    the coordinates (over k * den every entry is divisible by k), so the
    form is unique, and == and hash compare integers.  `nums` is a
    read-only view; each read of `terms` builds a new dict."""

    __slots__ = ("den", "nums")

    def __new__(cls, terms=None):
        terms = {tuple(e): rational(c) for e, c in (terms or {}).items()}
        den, nums = _numerators(terms.values())
        return _from_numerators(den, dict(zip(terms, nums)))

    def __setattr__(self, *a):
        raise AttributeError("Poly3 is immutable")

    @property
    def terms(self) -> dict:
        """{expo: Cyclo coefficient}, a new dict."""
        return {e: _make(*n, self.den) for e, n in self.nums.items()}

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
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {e: tuple(x * s for x in n) for e, n in self.nums.items()}
        for e, n in other.nums.items():
            out[e] = tuple(x + y * t for x, y in zip(out.get(e, _ZERO), n))
        return _from_numerators(den, out)

    def __sub__(self, other):
        return self + (other * -1)

    def __mul__(self, other):
        if isinstance(other, Poly3):
            return _from_numerators(self.den * other.den, _convolve(self.nums, other.nums))
        c = rational(other)
        nums = {e: _mul(n, c.nums) for e, n in self.nums.items()}
        return _from_numerators(self.den * c.den, nums)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly3":
        """Repeated products: the exponents are small (at most 3, for Q^3)."""
        if k < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly3.monomial((0, 0, 0), 1)
        for _ in range(k):
            result = result * self
        return result

    # -- structure -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, expo) -> Cyclo:
        return _make(*self.nums.get(tuple(expo), _ZERO), self.den)

    def partial(self, i: int) -> "Poly3":
        out = {}
        for expo, n in self.nums.items():
            k = expo[i]
            if k:
                new = list(expo)
                new[i] -= 1
                out[tuple(new)] = tuple(x * k for x in n)
        return _from_numerators(self.den, out)

    def gradient(self):
        return (self.partial(0), self.partial(1), self.partial(2))

    def evaluate(self, point) -> Cyclo:
        """Exact value at a triple of field elements.  With the point over
        one denominator d and the coefficients over c, a term of degree k
        is scaled by d^(top - k), so that every term, homogeneous or not,
        is over c * d^top for the top degree `top`."""
        x, y, z = point
        d, coords = _numerators((rational(x), rational(y), rational(z)))
        p0, p1, p2 = (_powers(v, max((e[i] for e in self.nums), default=0))
                      for i, v in enumerate(coords))
        top = max(map(sum, self.nums), default=0)
        scale = [d ** k for k in range(top + 1)]
        monos = []
        for a, b, e in self.nums:
            s = scale[top - a - b - e]
            mono = _mul(_mul(p0[a], p1[b]), p2[e])
            monos.append(mono if s == 1 else tuple(n * s for n in mono))
        return _make(*_dot(self.nums.values(), monos), self.den * scale[top])

    def act(self, m: Matrix) -> "Poly3":
        """Substitute z_i -> sum_j m[i][j] z_j (precomposition with m)."""
        return Substitution(m).apply(self)

    def __eq__(self, other):
        if not isinstance(other, Poly3):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, frozenset(self.nums.items())))

    def __str__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for expo in sorted(terms, key=lambda e: (-sum(e), [-x for x in e])):
            coef = terms[expo]
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
    so every form substituted through the same object shares them.  Each
    table entry is (den, {expo: nums}), integer numerators over den.
    The terms of a form are grouped by their z2 exponent c:
    f o m = sum over c of line2^c * (sum of coef * line0^a * line1^b), so
    the terms that share c share the largest product, the one by line2^c.

    `numerators` is the one path, on integer numerators; `apply` builds
    its `Poly3`.  Given an index `first`, it forms only the odd half of
    f o m, the terms whose exponents on columns first.. add up to an odd
    number.  That degree adds under products, so in the last product of
    each group only the pairs of opposite parity count: the odd terms of
    the inner sum times the even terms of line2^c, and the even ones
    times the odd ones.  That skips about half of the largest product.
    """

    __slots__ = ("pows",)

    def __init__(self, m: Matrix):
        one = (1, {(0, 0, 0): (1, 0, 0, 0)})
        lines = (Poly3.linear(m.row(i)) for i in range(3))
        self.pows = [[one, (line.den, line.nums)] for line in lines]

    def _power(self, i: int, k: int):
        """(den, nums) of line_i^k."""
        table = self.pows[i]
        while len(table) <= k:
            (d0, p), (d1, q) = table[-1], table[1]
            table.append((d0 * d1, _convolve(p, q)))
        return table[k]

    def numerators(self, den, terms, first=None):
        """f o m for the form f with coefficients terms[expo] / den, as
        (den, {expo: nums}), integer numerators over den; with
        `first`, only its odd half (see the class docstring).  Each group's
        terms are scaled to the lcm of the power-table denominators and
        the products added on integers."""
        groups = {}
        for (a, b, c), nums in terms.items():
            groups.setdefault(c, []).append((nums, self._power(0, a), self._power(1, b)))
        line2 = {c: self._power(2, c) for c in groups}
        scale = lcm(*(d0 * d1 * line2[c][0]
                      for c, group in groups.items() for _, (d0, _), (d1, _) in group))
        out = {}
        for c, group in groups.items():
            d2, p2 = line2[c]
            inner = {}
            for nums, (d0, p0), (d1, p1) in group:
                s = scale // (d0 * d1 * d2)
                _convolve(_convolve({(0, 0, 0): tuple(x * s for x in nums)}, p0), p1, inner)
            if first is None:
                _convolve(inner, p2, out)
            else:
                (odd, even), (odd2, even2) = _halves(inner, first), _halves(p2, first)
                _convolve(odd, even2, out)
                _convolve(even, odd2, out)
        return den * scale, out

    def apply(self, f: Poly3) -> Poly3:
        """f o m."""
        return _from_numerators(*self.numerators(f.den, f.nums))


def _halves(nums, first: int):
    """(odd, even): the terms of the numerator dict `nums` whose exponents
    on columns first.. add up to an odd, and to an even, number."""
    odd, even = {}, {}
    for e, n in nums.items():
        (odd if sum(e[first:]) % 2 else even)[e] = n
    return odd, even


def monomials_of_degree(d: int):
    """All exponent triples of total degree d, lexicographically sorted."""
    return [(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1)]
