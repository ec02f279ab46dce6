"""Reference Bezout rows of the hybrid matrix for the test oracles.

The whole Morley form: every bidegree of the three products of divided
differences, of which the Bezout rows read only y-degree 3d - 3 - nu.
`discriminant.hybrid_rows` replaced it by products that keep only the
terms that can still reach that y-degree; it is kept here as their
reference.
"""

from operator import add

from wingerverify.discriminant import _divided_difference
from wingerverify.polys import monomials_of_degree


def _product(p, q):
    """Product of two polynomials in the dict form of `_divided_difference`."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            key = tuple(map(add, k1, k2))
            out[key] = out.get(key, 0) + c1 * c2
    return out


def full_morley_rows(forms, d):
    """The rows of `discriminant.hybrid_rows(forms, d)`, the Bezout rows
    read off the full Morley form."""
    nu = 2 * d - 2
    col = {m: i for i, m in enumerate(monomials_of_degree(nu))}
    rows = []
    for form in forms:
        for g in monomials_of_degree(nu - d):
            row = [[0] * len(col) for _ in form]
            for part, coeffs in zip(row, form):
                for a, c in coeffs.items():
                    part[col[tuple(map(add, a, g))]] = c
            rows.append(row)
    lam_forms = [{(*a, k): c for k, coeffs in enumerate(form) for a, c in coeffs.items()}
                 for form in forms]
    m = [[_divided_difference(form, j) for j in range(3)] for form in lam_forms]
    morley = {}
    for (i0, i1, i2), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        for key, c in _product(_product(m[i0][0], m[i1][1]), m[i2][2]).items():
            morley[key] = morley.get(key, 0) + sign * c
    # a Morley coefficient has lam-degree at most 3 * (len(form) - 1)
    bezout = {b: [[0] * len(col) for _ in range(3 * max(map(len, forms)) - 2)]
              for b in monomials_of_degree(3 * d - 3 - nu)}
    for key, c in morley.items():
        if key[3:6] in bezout:
            bezout[key[3:6]][key[6]][col[key[:3]]] += c
    return rows + list(bezout.values())
