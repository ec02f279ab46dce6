"""Reference root division for the test oracles.

Synthetic division by x - root in `Fraction`s, repeated while the root
is a root: `discriminant._divide_out_root` replaced it by an integer
division by the primitive q*x - p.  Its quotient is that one's times
q^multiplicity.
"""

from fractions import Fraction


def poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def divide_out_root(coeffs, root: Fraction):
    """How many times (x - root) divides; returns (multiplicity, quotient).
    Each division is synthetic (Horner), and exact since root is a root."""
    mult = 0
    cur = list(coeffs)
    while len(cur) > 1 and poly_eval(cur, root) == 0:
        quot = [Fraction(cur[-1])]
        for c in reversed(cur[1:-1]):
            quot.append(quot[-1] * root + c)
        cur = quot[::-1]
        mult += 1
    return mult, cur
