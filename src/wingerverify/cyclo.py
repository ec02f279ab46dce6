"""Exact arithmetic in the cyclotomic field Q(zeta_5).

Elements live on the power basis 1, zeta, zeta^2, zeta^3, reduced with
zeta^4 = -1 - zeta - zeta^2 - zeta^3, and are stored as four integer
coefficients over a single positive integer denominator.  The
representation is canonical: two elements are equal iff their stored
data are equal.  All values are immutable.

`rational` is the one gate into the field: every layer turns a plain
value into an element through it, and it takes only an element, an int
or a Fraction, so no float, string or Decimal becomes a coefficient.
The arithmetic operators accept the same operand types (`_coerce`).

The integer kernels of the other layers share these helpers: elements
written over the lcm of their denominators (`_numerators`), products and
sums of products in Z[zeta_5] (`_mul`, `_dot`) and the inverse as a
cyclotomic integer over its norm (`_inverse_parts`).  A matrix, a
quaternion (`_IntegerForm`) or a polynomial keeps its entries in that
form, over their least common denominator, and builds a canonical
element (`_make`) only for an entry that is read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm


def _mul(a, b):
    """Product of integer coefficient 4-tuples: convolve, then fold
    zeta^4 = -1-zeta-zeta^2-zeta^3, zeta^5 = 1 and zeta^6 = zeta."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    c4 = a1 * b3 + a2 * b2 + a3 * b1
    return (a0 * b0 - c4 + a2 * b3 + a3 * b2,
            a0 * b1 + a1 * b0 - c4 + a3 * b3,
            a0 * b2 + a1 * b1 + a2 * b0 - c4,
            a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - c4)


def _dot(us, vs):
    """The sum of _mul(u, v) over the pairs of integer 4-tuples of `us`
    and `vs`: the convolutions are summed on zeta^0..zeta^6 and folded
    once, as in `_mul`."""
    c0 = c1 = c2 = c3 = c4 = c5 = c6 = 0
    for (a0, a1, a2, a3), (b0, b1, b2, b3) in zip(us, vs):
        c0 += a0 * b0
        c1 += a0 * b1 + a1 * b0
        c2 += a0 * b2 + a1 * b1 + a2 * b0
        c3 += a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0
        c4 += a1 * b3 + a2 * b2 + a3 * b1
        c5 += a2 * b3 + a3 * b2
        c6 += a3 * b3
    return c0 - c4 + c5, c1 - c4 + c6, c2 - c4, c3 - c4


def _galois(a, k):
    """zeta -> zeta^k on an integer coefficient 4-tuple: the coefficient of
    zeta^i moves to zeta^(i*k mod 5), then zeta^4 is folded back."""
    spread = [0] * 5
    for i, c in enumerate(a):
        spread[i * k % 5] = c
    top = spread[4]
    return (spread[0] - top, spread[1] - top, spread[2] - top, spread[3] - top)


def _inverse_parts(a):
    """(rest, norm) for a nonzero integer 4-tuple a: rest = sigma2(a)
    sigma3(a) sigma4(a) and the rational integer norm = a * rest, so
    that 1/a = rest / norm."""
    rest = _mul(_mul(_galois(a, 2), _galois(a, 3)), _galois(a, 4))
    return rest, _mul(a, rest)[0]


def _numerators(values):
    """(den, nums): the elements `values` (iterated twice) as integer
    4-tuples over the lcm `den` of their denominators."""
    den = lcm(*(c.den for c in values))
    return den, [c.nums if c.den == den else tuple(x * (den // c.den) for x in c.nums)
                 for c in values]


class Cyclo:
    """A canonical element of Q(zeta_5): (nums[0] + ... + nums[3]*zeta^3) / den."""

    __slots__ = ("nums", "den")

    def __new__(cls, nums, den: int = 1):
        """The canonical element from four int coefficients and an int
        denominator; TypeError for any other type."""
        try:
            a, b, c, d = nums
        except ValueError:
            raise ValueError("expected 4 coefficients on 1, zeta, zeta^2, zeta^3") from None
        if any(x.__class__ is not int for x in (a, b, c, d, den)):
            raise TypeError("Cyclo takes int coefficients and an int denominator")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return _make(a, b, c, d, den)

    def __setattr__(self, *a):
        raise AttributeError("Cyclo is immutable")

    # -- ring / field operations: the exact-type operand first, then int
    # and Fraction through rational()

    def __add__(self, other):
        if other.__class__ is not Cyclo and (other := _coerce(other)) is None:
            return NotImplemented
        a0, a1, a2, a3 = self.nums
        b0, b1, b2, b3 = other.nums
        da, db = self.den, other.den
        if da == db:
            return _make(a0 + b0, a1 + b1, a2 + b2, a3 + b3, da)
        return _make(a0 * db + b0 * da, a1 * db + b1 * da,
                     a2 * db + b2 * da, a3 * db + b3 * da, da * db)

    __radd__ = __add__

    def __rsub__(self, other):
        if (other := _coerce(other)) is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        a, b, c, d = self.nums
        return _raw((-a, -b, -c, -d), self.den)

    def __sub__(self, other):
        if other.__class__ is not Cyclo and (other := _coerce(other)) is None:
            return NotImplemented
        a0, a1, a2, a3 = self.nums
        b0, b1, b2, b3 = other.nums
        da, db = self.den, other.den
        if da == db:
            return _make(a0 - b0, a1 - b1, a2 - b2, a3 - b3, da)
        return _make(a0 * db - b0 * da, a1 * db - b1 * da,
                     a2 * db - b2 * da, a3 * db - b3 * da, da * db)

    def __mul__(self, other):
        """The product, with the fold of `_mul` inlined."""
        if other.__class__ is not Cyclo and (other := _coerce(other)) is None:
            return NotImplemented
        a0, a1, a2, a3 = self.nums
        b0, b1, b2, b3 = other.nums
        c4 = a1 * b3 + a2 * b2 + a3 * b1
        return _make(a0 * b0 - c4 + a2 * b3 + a3 * b2,
                     a0 * b1 + a1 * b0 - c4 + a3 * b3,
                     a0 * b2 + a1 * b1 + a2 * b0 - c4,
                     a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - c4,
                     self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "Cyclo":
        """Multiplicative inverse: a^-1 = sigma2(a) sigma3(a) sigma4(a) / N(a),
        where the norm N(a) = a sigma2(a) sigma3(a) sigma4(a) is rational."""
        a = self.nums
        if a == _ZERO:
            raise ZeroDivisionError("inverse of zero")
        (r0, r1, r2, r3), norm = _inverse_parts(a)
        d = self.den
        return _make(r0 * d, r1 * d, r2 * d, r3 * d, norm)

    def __truediv__(self, other):
        if other.__class__ is not Cyclo and (other := _coerce(other)) is None:
            return NotImplemented
        return self * other.inv()

    def __pow__(self, k: int):
        """Repeated products: the exponents are small (at most 20, in
        `winger.six_lines`)."""
        if k < 0:
            return self.inv() ** (-k)
        result = _raw((1, 0, 0, 0), 1)
        for _ in range(k):
            result = result * self
        return result

    # -- structure -----------------------------------------------------------

    def galois(self, k: int) -> "Cyclo":
        """Apply the field automorphism zeta -> zeta^k (k prime to 5)."""
        if k % 5 == 0:
            raise ValueError("not a unit mod 5")
        return _make(*_galois(self.nums, k), self.den)

    def conjugate(self) -> "Cyclo":
        return self.galois(4)

    def is_zero(self) -> bool:
        return self.nums == _ZERO

    def is_rational(self) -> bool:
        return self.nums[1:] == (0, 0, 0)

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.nums[0], self.den)

    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    # -- dunder plumbing -----------------------------------------------------

    def __eq__(self, other):
        if other.__class__ is not Cyclo and (other := _coerce(other)) is None:
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self):
        # equal to the hash of the int or Fraction a rational element
        # compares equal to
        a, b, c, d = self.nums
        if b == c == d == 0:
            return hash(a) if self.den == 1 else hash(Fraction(a, self.den))
        return hash((self.nums, self.den))

    def __bool__(self):
        return self.nums != _ZERO

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(3, -1, -1):
            c = Fraction(self.nums[i], self.den)
            if c == 0:
                continue
            if i == 0:
                mon = ""
            elif i == 1:
                mon = "z"
            else:
                mon = f"z^{i}"
            if mon:
                if c == 1:
                    term = mon
                elif c == -1:
                    term = f"-{mon}"
                else:
                    term = f"{c}*{mon}"
            else:
                term = str(c)
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"Cyclo({str(self)!r})"


_ZERO = (0, 0, 0, 0)
_new = object.__new__
_set_nums = Cyclo.nums.__set__
_set_den = Cyclo.den.__set__


def _make(a, b, c, d, den) -> Cyclo:
    """The canonical (a + b*zeta + c*zeta^2 + d*zeta^3) / den, den != 0;
    the slots are written through their descriptors."""
    if den != 1:
        if den < 0:
            a, b, c, d, den = -a, -b, -c, -d, -den
        g = gcd(den, a, b, c, d)
        if g > 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    x = _new(Cyclo)
    _set_nums(x, (a, b, c, d))
    _set_den(x, den)
    return x


def _raw(nums, den) -> Cyclo:
    """An element from data that is already canonical."""
    x = _new(Cyclo)
    _set_nums(x, nums)
    _set_den(x, den)
    return x


def _coerce(other):
    """An int or Fraction operand as an element; None for any other type."""
    return rational(other) if isinstance(other, (int, Fraction)) else None


class _IntegerForm:
    """A fixed number of Q(zeta_5) entries as integer 4-tuples `nums`
    over one denominator `den` > 0 with gcd(den, every entry) = 1, the
    least common denominator: the form of `linalg.Matrix` and
    `covers.Quaternion`.  It is unique, so == and hash compare integers,
    and a `Cyclo` is built only for an entry that is read (`_entry`)."""

    __slots__ = ("den", "nums")

    @classmethod
    def _of(cls, den, nums):
        """The canonical object with entries nums[k] / den, den > 0: both
        divided by their gcd."""
        g = gcd(den, *chain.from_iterable(nums))
        if g > 1:
            den, nums = den // g, [tuple(x // g for x in n) for n in nums]
        obj = _new(cls)
        object.__setattr__(obj, "den", den)
        object.__setattr__(obj, "nums", tuple(nums))
        return obj

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _entry(self, k) -> Cyclo:
        return _make(*self.nums[k], self.den)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __hash__(self):
        return hash((self.den, self.nums))


def make(raw) -> Cyclo:
    """The element sum raw[i] * zeta^i, for values that `rational` takes;
    `raw` may have any length (zeta^5 = 1)."""
    return sum((rational(q) * zeta() ** i for i, q in enumerate(raw)), rational(0))


def zeta() -> Cyclo:
    return _raw((0, 1, 0, 0), 1)


def rational(q) -> Cyclo:
    """The one gate into the field: an element unchanged, an int or a
    Fraction as a rational element; TypeError for any other type (a
    float, a string, a Decimal)."""
    if q.__class__ is Cyclo:
        return q
    if q.__class__ is int:
        return _raw((q, 0, 0, 0), 1)
    if isinstance(q, (int, Fraction)):  # a Fraction is in lowest terms, den > 0
        return _raw((q.numerator, 0, 0, 0), q.denominator)
    raise TypeError(f"{q!r} is not an int, a Fraction or a Q(zeta_5) element")


def sqrt5() -> Cyclo:
    """The canonical square root of 5 in Q(zeta_5): zeta - zeta^2 - zeta^3 + zeta^4."""
    return make([0, 1, -1, -1, 1])


def golden() -> Cyclo:
    """(1 + sqrt5)/2 = -(zeta^2 + zeta^3)."""
    return (1 + sqrt5()) / 2
