"""Macaulay-resultant certification of the pencil's singular parameter set.

The resultant of the three partial derivatives of a plane sextic
vanishes exactly when the curve is singular.  For the pencil the
partials are quintics whose coefficients are linear in the parameter,
so the resultant is a polynomial of degree at most 75 in the parameter;
it is recovered by exact evaluation (quotients of a 105x105 and a 30x30
integer determinant) and Newton interpolation, then certified to
vanish only at 0, -1 and 27/5, with the degree drop below 75 witnessing
the singular member at infinity.

This is the expensive, optional cross-check; the orbitwise computation
in winger reaches the same list in seconds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import Matrix
from .polys import Poly3, monomials_of_degree
from .winger import f_poly, q_poly


def _int_bareiss_det(m) -> int:
    """Determinant of a square integer matrix, fraction-free elimination."""
    k = len(m)
    if k == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for col in range(k - 1):
        piv = None
        for r in range(col, k):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivval = m[col][col]
        for r in range(col + 1, k):
            row_r, row_c = m[r], m[col]
            factor = row_r[col]
            for c in range(col + 1, k):
                row_r[c] = (pivval * row_r[c] - factor * row_c[c]) // prev
            row_r[col] = 0
        prev = pivval
    return sign * m[k - 1][k - 1]


def _to_int_poly(f: Poly3):
    """Exponent->int dict after clearing denominators (rational input only)."""
    terms = {}
    denlcm = 1
    for e, c in f.terms.items():
        q = c.to_fraction()
        denlcm = denlcm * q.denominator // gcd(denlcm, q.denominator)
        terms[e] = q
    return {e: int(q * denlcm) for e, q in terms.items()}


def macaulay_system(fs, degrees):
    """Row recipes of the Macaulay matrix for three ternary forms.

    Returns (monomials, rows, minor_index) where rows[i] pairs a shift
    monomial with the form it multiplies, and minor_index lists the
    positions of the non-reduced monomials (divisible by at least two
    of the x_i^{d_i}), which index the denominator minor.
    """
    d0, d1, d2 = degrees
    big = d0 + d1 + d2 - 2
    monos = monomials_of_degree(big)
    rows = []
    minor_index = []
    for pos, (a, b, c) in enumerate(monos):
        flags = (a >= d0, b >= d1, c >= d2)
        if flags[0]:
            which, shift = 0, (a - d0, b, c)
        elif flags[1]:
            which, shift = 1, (a, b - d1, c)
        elif flags[2]:
            which, shift = 2, (a, b, c - d2)
        else:
            raise ValueError("monomial escaped the degree partition")
        rows.append((shift, which))
        if sum(flags) >= 2:
            minor_index.append(pos)
    return monos, rows, minor_index


def _eval_determinants(int_fs, degrees):
    """The full matrix and its minor, as integer row lists."""
    monos, rows, minor_index = macaulay_system(int_fs, degrees)
    col_of = {m: i for i, m in enumerate(monos)}
    full = []
    for shift, which in rows:
        row = [0] * len(monos)
        for (a, b, c), coef in int_fs[which].items():
            row[col_of[(a + shift[0], b + shift[1], c + shift[2])]] = coef
        full.append(row)
    minor = [[full[i][j] for j in minor_index] for i in minor_index]
    return full, minor


def macaulay_resultant_value(fs, degrees) -> Fraction:
    """Exact Macaulay resultant of three rational ternary forms.

    Normalized only up to the constant factor introduced by clearing
    denominators, which does not move the zero locus.
    """
    int_fs = [_to_int_poly(f) if isinstance(f, Poly3) else dict(f) for f in fs]
    full, minor = _eval_determinants(int_fs, degrees)
    det_minor = _int_bareiss_det(minor)
    if det_minor == 0:
        raise ZeroDivisionError("degenerate minor; perturb or use interpolation")
    return Fraction(_int_bareiss_det(full), det_minor)


def _pencil_partial_tables():
    """For each variable, integer coefficient tables (A, B) with
    d((Q^3 + lam*F) o T)/dz_i = A + lam*B.

    A fixed unimodular-ish change of coordinates T is applied first: in
    the symmetric original coordinates the Macaulay denominator minor
    vanishes identically (a 0/0 evaluation), while the resultant itself
    only changes by a nonzero constant under T, so the root set in the
    parameter is untouched.
    """
    t = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    q3 = (q_poly() ** 3).act(t)
    f = f_poly().act(t)
    tables = []
    for i in range(3):
        a = _to_int_poly(q3.partial(i))
        b = _to_int_poly(f.partial(i))
        tables.append((a, b))
    return tables


def _newton_interpolate(points):
    """Coefficients (lowest first) of the polynomial through (x, y) pairs.

    Newton divided differences over the nodes, then the Newton form is
    expanded to the monomial basis by Horner's rule: O(n^2) operations.
    """
    xs = [x for x, _ in points]
    dd = [Fraction(y) for _, y in points]
    n = len(dd)
    for k in range(1, n):
        for i in range(n - 1, k - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - k])
    # p = dd[n-1]; then p <- p * (x - xs[k]) + dd[k] for k = n-2 .. 0
    coeffs = dd[n - 1:]
    for k in range(n - 2, -1, -1):
        xk = xs[k]
        coeffs = ([dd[k] - xk * coeffs[0]]
                  + [coeffs[j - 1] - xk * coeffs[j] for j in range(1, len(coeffs))]
                  + [coeffs[-1]])
    return coeffs


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divide_out_root(coeffs, root: Fraction):
    """How many times (x - root) divides; returns (multiplicity, quotient)."""
    mult = 0
    cur = list(coeffs)
    while len(cur) > 1 and _poly_eval(cur, root) == 0:
        # synthetic division by (x - root), coefficients lowest first
        n = len(cur) - 1
        quot = [Fraction(0)] * n
        quot[n - 1] = cur[n]
        for k in range(n - 1, 0, -1):
            quot[k - 1] = cur[k] + root * quot[k]
        assert cur[0] + root * quot[0] == 0
        cur = quot
        mult += 1
    return mult, cur


def pencil_discriminant(progress=None):
    """Interpolate the resultant of the pencil's partials as a polynomial.

    Returns (coefficients lowest-first, multiplicities dict).  The
    multiplicities dict maps the roots 0, -1 and 27/5 to their orders
    and "degree" to the interpolated degree; after dividing the three
    roots out, the remaining factor must be a nonzero constant, which
    certifies that no other finite singular parameter exists.
    """
    tables = _pencil_partial_tables()
    degrees = (5, 5, 5)
    samples = []
    lam = 1
    needed = 76
    while len(samples) < needed + 2:  # two extra control points
        int_fs = [{e: a.get(e, 0) + lam * b.get(e, 0)
                   for e in set(a) | set(b)} for a, b in tables]
        int_fs = [{e: c for e, c in f.items() if c} for f in int_fs]
        try:
            val = macaulay_resultant_value(int_fs, degrees)
        except ZeroDivisionError:
            lam += 1
            continue
        samples.append((Fraction(lam), val))
        if progress is not None:
            progress(len(samples), needed + 2)
        lam += 1
    coeffs = _newton_interpolate(samples[:needed])
    # control: the interpolated polynomial must reproduce the extra samples
    for x, y in samples[needed:]:
        if _poly_eval(coeffs, x) != y:
            raise ArithmeticError("interpolation control point failed")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    mults = {"degree": len(coeffs) - 1}
    cur = coeffs
    for root in (Fraction(0), Fraction(-1), Fraction(27, 5)):
        m, cur = _divide_out_root(cur, root)
        mults[str(root)] = m
    mults["residual_degree"] = len(cur) - 1
    mults["residual_is_nonzero_constant"] = (len(cur) == 1 and cur[0] != 0)
    return coeffs, mults
