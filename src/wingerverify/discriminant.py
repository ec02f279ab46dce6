"""Resultant certification of the pencil's singular parameter set.

The resultant of the three partial derivatives of a plane sextic
vanishes exactly when the curve is singular.  For the pencil the
partials are quintics whose coefficients are linear in the parameter.
Their hybrid Sylvester-Bezout matrix H(lam) is 45x45, with 30 Sylvester
rows linear in lam and 15 Bezout rows, from the Morley form, cubic in
lam; its determinant is the resultant with no extraneous factor.  The
torus diag(zeta, zeta^-1, 1) of the A5 that keeps the pencil gives each
row and column of H one weight mod 5, so H is block diagonal: five 9x9
blocks, each with three Bezout rows.  det H, the product of the blocks'
determinants up to the sign of the block order, is an exact integer
polynomial in lam by construction: a block's rows have degrees summing
to n = 6 + 3*3 = 15, so its determinant has degree at most 15.  The
ranks of the block at lam = 0 (3) and of its top coefficient rows (6)
sharpen that: lam^6 divides it and its degree is at most 12, so its
values at lam = 1, ..., 7, each an integer determinant divided by lam^6,
fix it by interpolation on integers.  A nonzero constant left after
dividing out, on integers, the roots that the caller expects certifies
that no other finite member is singular; the degree drop below 75
witnesses the singular member at infinity.

Every run also controls it at one parameter against an independent
formula: the Macaulay resultant, the 105x105 Macaulay determinant over
its 30x30 minor by the integer elimination `linalg.echelon`, equal to
CONTROL_SCALE times the resultant in the coordinates CONTROL_T, where the
minor does not vanish.  There the involution diag(1, -1, -1) of the A5
keeps the pencil, so each row and column has one parity, and each
determinant is the signed product of its two blocks' (49 and 56 rows,
14 and 16 in the minor), split as `_pencil_det` splits H.  The rows and
columns are listed form by form (f_0, f_1, then f_2 rows, each in the
order of `monomials_of_degree`), a symmetric permutation that keeps both
determinants and lets the elimination, which updates only the rows it
touches, leave most rows alone until their own group's pivots.

The command line runs it with `--deep`; the orbitwise computation in
winger reaches the same list without it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .linalg import Matrix, echelon, integer_det
from .perms import Perm
from .polys import Poly3, monomials_of_degree
from .winger import q_poly


def _to_int_poly(f: Poly3, den: int):
    """Exponent->int dict of den * f, for a multiple den of f's
    denominator (rational input only)."""
    if any(any(n[1:]) for n in f.nums.values()):
        raise ValueError(f"{f} has an irrational coefficient")
    return {e: n[0] * (den // f.den) for e, n in f.nums.items()}


def macaulay_system(degrees):
    """Row recipes of the Macaulay matrix for three ternary forms.

    Returns (monomials, rows, minor_index) where rows[i] pairs a shift
    monomial with the form it multiplies, and minor_index lists the
    positions of the non-reduced monomials (divisible by at least two
    of the x_i^{d_i}), which index the denominator minor.

    Row i and column i both belong to monomials[i], so the order of that
    list permutes rows and columns together and changes neither
    determinant.  It is chosen for `linalg.echelon`: the rows are grouped
    by the form they multiply, f_0 first, then f_1, then f_2, each group
    in the order of `monomials_of_degree`.  On the control matrix at
    lam = 1, in the coordinates `CONTROL_T` and by blocks, it timed the
    fastest of the twelve orders by group and direction (3.9-4.5 ms
    against 4.2-6.1 ms, best of 9-15 runs), where lexicographic order
    took 5.3 ms.
    """
    d0, d1, d2 = degrees
    groups = ([], [], [])
    # a + b + c = d0 + d1 + d2 - 2, so a >= d0, b >= d1 or c >= d2
    for a, b, c in monomials_of_degree(d0 + d1 + d2 - 2):
        if a >= d0:
            groups[0].append(((a, b, c), (a - d0, b, c), 0))
        elif b >= d1:
            groups[1].append(((a, b, c), (a, b - d1, c), 1))
        else:
            groups[2].append(((a, b, c), (a, b, c - d2), 2))
    ordered = groups[0] + groups[1] + groups[2]
    monos = [m for m, _, _ in ordered]
    rows = [(shift, which) for _, shift, which in ordered]
    minor_index = [pos for pos, (a, b, c) in enumerate(monos)
                   if (a >= d0) + (b >= d1) + (c >= d2) >= 2]
    return monos, rows, minor_index


def _eval_determinants(int_fs, degrees):
    """The full matrix and its minor, as integer row lists."""
    monos, rows, minor_index = macaulay_system(degrees)
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
    """Exact Macaulay resultant of three integer ternary forms, each an
    exponent->int dict: the full Macaulay determinant over its minor, each
    the constant of `_pencil_det` on its rows as rows of degree 0."""
    full, minor = _eval_determinants(fs, degrees)
    [det_minor] = _pencil_det([[row] for row in minor])
    if det_minor == 0:
        raise ZeroDivisionError("degenerate minor; change coordinates first")
    return Fraction(_pencil_det([[row] for row in full])[0], det_minor)


# The coordinates of the Macaulay control: the eigenbasis of the involution
# g: z -> (-z1, -z0, -z2) of the A5, columns (1, -1, 0) for the eigenvalue
# 1 and (0, 0, -1), (1, 1, 0) for -1, so T^-1 g T = diag(1, -1, -1).  In
# the original coordinates the Macaulay denominator minor vanishes
# identically (a 0/0 evaluation); after T it does not.  Mixing the three
# quintic partials by T^t scales the resultant by det(T)^(5*5), and the
# substitution by det(T)^(5*5*5); an integer eigenbasis of g has even
# determinant, and det T = 2.
CONTROL_T = ((1, 0, 1), (-1, 0, 1), (0, -1, 0))
CONTROL_SCALE = 2 ** (25 + 125)


def _pencil_partials(f, t=None):
    """For each variable, integer coefficient tables [A, B] with
    d(Q^3 + lam*f)/dz_i = A + lam*B, for the sextic f (F itself or a
    perturbed copy), after the change of coordinates t if one is given,
    both over one denominator (a common scale of the pencil)."""
    q3 = q_poly() ** 3
    if t is not None:
        m = Matrix.from_rows(t)
        q3, f = q3.act(m), f.act(m)
    den = lcm(q3.den, f.den)  # a partial's denominator divides its form's
    return [[_to_int_poly(q3.partial(i), den), _to_int_poly(f.partial(i), den)]
            for i in range(3)]


# -- the hybrid Sylvester-Bezout matrix ------------------------------------------

def _divided_difference(form, j):
    """(f(y_<j, x_>=j) - f(y_<=j, x_>j)) / (x_j - y_j) for a form given as
    an {(a0, a1, a2, k): coefficient of lam^k x^a} dict, as a dict on the
    exponents (x0, x1, x2, y0, y1, y2, k)."""
    out = {}
    for (*a, k), c in form.items():
        y_low, x_high = a[:j], a[j + 1:]
        for e in range(a[j]):
            key = (*[0] * j, e, *x_high, *y_low, a[j] - 1 - e, *[0] * (2 - j), k)
            out[key] = out.get(key, 0) + c
    return out


def _product(p, q, ydegs):
    """The terms of y-degree in `ydegs` of the product of two polynomials
    in the dict form of `_divided_difference`: q grouped by y-degree, each
    term of p meets only the terms of q that bring it to one of `ydegs`."""
    by_ydeg = {}
    for k2, c2 in q.items():
        by_ydeg.setdefault(sum(k2[3:6]), []).append((k2, c2))
    out = {}
    for k1, c1 in p.items():
        s = sum(k1[3:6])
        for t in ydegs:
            for k2, c2 in by_ydeg.get(t - s, ()):
                key = tuple(map(add, k1, k2))
                out[key] = out.get(key, 0) + c1 * c2
    return out


def hybrid_rows(forms, d):
    """Rows of the hybrid Sylvester-Bezout matrix H of three ternary forms
    of degree d at degree nu = 2d - 2, whose determinant is their
    resultant with no extraneous factor (Jouanolou, "Formes d'inertie et
    resultant: un formulaire", Adv. Math. 126, 1997; D'Andrea-Dickenstein,
    "Explicit formulas for the multivariate resultant", JPAA 164, 2001).

    Each form is a list of exponent->int dicts, the coefficients of
    lam^0, lam^1, ...; each row is the list of its coefficient rows in lam,
    lowest first, over the monomials of degree nu in `monomials_of_degree`
    order.  The Sylvester rows are x^g * f_i for |g| = nu - d.  The Bezout
    rows are the bidegree-(nu, 3d - 3 - nu) part of the Morley form
    det[(f_i(y_<j, x_>=j) - f_i(y_<=j, x_>j)) / (x_j - y_j)]_ij, one row
    per y-monomial.
    """
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
    top = 3 * d - 3 - nu  # the y-degree of the Bezout rows
    # a Morley coefficient has lam-degree at most 3 * (len(form) - 1)
    bezout = {b: [[0] * len(col) for _ in range(3 * max(map(len, forms)) - 2)]
              for b in monomials_of_degree(top)}
    for (i0, i1, i2), sign in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                               ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)):
        # only left terms that a term of the right factor lifts to y-degree top
        right = m[i2][2]
        reach = {top - sum(key[3:6]) for key in right}
        for key, c in _product(_product(m[i0][0], m[i1][1], reach), right, (top,)).items():
            bezout[key[3:6]][key[6]][col[key[:3]]] += sign * c
    return rows + list(bezout.values())


# -- det H(lam) as an integer polynomial, by evaluation and interpolation --------

def _blocks(rows):
    """The connected components of the nonzero pattern of H, for its rows
    as `_pencil_det` takes them: pairs (row indices, column indices), each
    ascending, the pairs sorted.  Row i meets column j when any of row i's
    coefficient rows is nonzero there; a zero row, or a zero column, is a
    component of its own."""
    blocks = []  # pairwise disjoint in rows and in columns
    for i, row in enumerate(rows):
        rws, cols = [i], {j for part in row for j, x in enumerate(part) if x}
        rest = []
        for b in blocks:
            if b[1] & cols:
                rws += b[0]
                cols |= b[1]
            else:
                rest.append(b)
        blocks = rest + [(rws, cols)]
    met = set().union(*(cols for _, cols in blocks))
    blocks += [([], {j}) for j in range(len(rows[0][0]) if rows else 0) if j not in met]
    return sorted((sorted(rws), sorted(cols)) for rws, cols in blocks)


def _interpolate(values, start=0):
    """Integer coefficients (lowest first) of the polynomial of degree
    < len(values) whose value at x = start + k is values[k];
    ArithmeticError if they are not integers.

    Newton's forward form, p(x) = sum_k c_k (x - s)(x - s - 1)...(x - s - k + 1)
    with s = start and c_k = Delta^k p(s) / k! (von zur Gathen-Gerhard,
    Modern Computer Algebra, ch. 5): level k of the forward differences
    is divided by k on the way, so it holds the Delta^k p(x) / k!,
    integers for an integer polynomial, since x^j is an integer
    combination of the falling factorials (Stirling numbers of the
    second kind).  The Newton form is then expanded by Horner's rule on
    integers.
    """
    newton, level = [], list(values)
    for k in range(1, len(values) + 1):
        newton.append(level[0])
        steps = [divmod(b - a, k) for a, b in zip(level, level[1:])]
        if any(r for _, r in steps):
            raise ArithmeticError("the values are not those of an integer polynomial")
        level = [q for q, _ in steps]
    coeffs = []
    for k in range(len(newton) - 1, -1, -1):  # coeffs * (x - s - k) + c_k
        coeffs = [a - (start + k) * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    return coeffs


def _block_det(rows):
    """Exact integer coefficients (lowest first, n + 1 of them) of the
    determinant of a square block M(lam) of H, for its rows as
    `_pencil_det` takes them, where n is the sum of the rows' degrees
    len(row) - 1, so that the determinant, multilinear in the rows, has
    degree at most n.

    Two ranks sharpen the bound (Kailath, Linear Systems, 1980, sec. 6.3;
    Gohberg, Lancaster and Rodman, Matrix Polynomials, 1982).  Constant
    row operations that clear the null space of M(0), of rank r0, leave
    size - r0 rows divisible by lam, so lam^low divides the determinant,
    low = size - r0.  The rows times mu^degree at mu = 1/lam are the top
    coefficient rows at mu = 0, of rank r_inf, so the degree is at most
    high = n - (size - r_inf).  The determinant is 0 if high < low; else
    its values at lam = 1, ..., high - low + 1, one `integer_det` each,
    divided exactly by lam^low (ArithmeticError otherwise), fix the
    quotient through `_interpolate`.  Constant rows take only the
    elimination at 0."""
    n, size = sum(len(row) - 1 for row in rows), len(rows)
    ech, pivots, sign = echelon([row[0] for row in rows])
    if n == 0:
        return [sign * ech[-1][-1] if len(pivots) == size else 0]
    low = size - len(pivots)
    high = n - size + len(echelon([row[-1] for row in rows])[1])
    coeffs, values = [0] * (n + 1), []
    for lam in range(1, high - low + 2):  # none if high < low: det = 0
        at = []
        for row in rows:
            acc = row[-1]
            for part in row[-2::-1]:  # Horner on the coefficient rows
                acc = [x + lam * y for x, y in zip(part, acc)]
            at.append(acc)
        value, rem = divmod(integer_det(at), lam ** low)
        if rem:
            raise ArithmeticError(f"lam^{low} does not divide the determinant at {lam}")
        values.append(value)
    coeffs[low:high + 1] = _interpolate(values, start=1)
    return coeffs


def _pencil_det(rows):
    """Exact integer coefficients (lowest first) of det H(lam), for the
    rows of H, each the list of its coefficient rows in lam, lowest first,
    of any degree: the rows of `hybrid_rows`, pairs [a_i, b_i] for
    det(A + lam*B), or [a_i] for the constant det A.  There are n + 1 of
    them, where n is the sum of the rows' degrees len(row) - 1.

    The rows are split into the `_blocks` of H.  If a block is not square,
    det H is identically 0.  Otherwise ordering the rows, and the columns,
    block by block makes H block diagonal, so det H is the product of the
    blocks' determinants, each interpolated from its exact values by
    `_block_det`, times the signs of the two orders; no bound, prime or
    modulus enters.  A connected H is one block.
    """
    blocks = _blocks(rows)
    if any(len(rws) != len(cols) for rws, cols in blocks):
        return [0] * (sum(len(row) - 1 for row in rows) + 1)
    row_order = Perm(i + 1 for rws, _ in blocks for i in rws)
    col_order = Perm(j + 1 for _, cols in blocks for j in cols)
    coeffs = [1 if row_order.is_even() == col_order.is_even() else -1]
    for rws, cols in blocks:
        block = _block_det([[[part[j] for j in cols] for part in rows[i]] for i in rws])
        prod = [0] * (len(coeffs) + len(block) - 1)
        for k, x in enumerate(coeffs):
            for j, y in enumerate(block):
                prod[k + j] += x * y
        coeffs = prod
    return coeffs


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _divide_out_root(coeffs, root):
    """How many times the primitive q*x - p divides the integer
    polynomial `coeffs` (lowest first), for the rational root = p/q in
    lowest terms; returns (multiplicity, quotient).

    Each division is synthetic, from the top coefficient down.  By Gauss's
    lemma the quotient by a primitive factor of an integer polynomial has
    integer coefficients, so an inexact step, or a nonzero remainder,
    means that p/q is not a root of what is left."""
    root = Fraction(root)
    p, q = root.numerator, root.denominator
    mult, cur = 0, list(coeffs)
    while len(cur) > 1:
        quot, carry = [], 0
        for c in reversed(cur[1:]):
            carry, rem = divmod(c + p * carry, q)
            if rem:
                return mult, cur
            quot.append(carry)
        if cur[0] + p * carry:
            return mult, cur
        cur = quot[::-1]
        mult += 1
    return mult, cur


def _macaulay_control(f, coeffs):
    """Check CONTROL_SCALE * det H(lam) against the Macaulay resultant of
    the partials in the coordinates CONTROL_T, at the first lam in 1..31
    where its denominator minor is nonzero.  The minor's determinant has
    degree at most 30 in lam, so if it vanishes at all 31 it vanishes
    identically, the control does not hold, and its witness says so."""
    tables = _pencil_partials(f, CONTROL_T)
    for lam in range(1, 32):
        fs = [{e: a.get(e, 0) + lam * b.get(e, 0) for e in a.keys() | b.keys()}
              for a, b in tables]
        try:
            value = macaulay_resultant_value(fs, (5, 5, 5))
        except ZeroDivisionError:
            continue
        return {"lambda": lam, "holds": value == CONTROL_SCALE * _poly_eval(coeffs, lam)}
    return {"lambda": None, "holds": False, "minor_vanishes_up_to_lambda": lam}


def pencil_discriminant(f, roots):
    """The resultant of the partials of Q^3 + lam*f as a polynomial in lambda.

    Returns (integer coefficients lowest-first, multiplicities dict,
    control).  The multiplicities dict maps "degree" to the resultant's
    degree and each of the rational `roots`, in order, to its order;
    after dividing them out, a nonzero constant remainder certifies that
    the resultant has no other finite root.  The control is
    `_macaulay_control`'s outcome.
    """
    coeffs = _pencil_det(hybrid_rows(_pencil_partials(f), 5))
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    control = _macaulay_control(f, coeffs)
    mults = {"degree": len(coeffs) - 1}
    cur = coeffs
    for root in roots:
        m, cur = _divide_out_root(cur, root)
        mults[str(root)] = m
    mults["residual_degree"] = len(cur) - 1
    mults["residual_is_nonzero_constant"] = (len(cur) == 1 and cur[0] != 0)
    return coeffs, mults, control
