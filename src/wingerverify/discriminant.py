"""Macaulay-resultant certification of the pencil's singular parameter set.

The resultant of the three partial derivatives of a plane sextic
vanishes exactly when the curve is singular.  For the pencil the
partials are quintics whose coefficients are linear in the parameter,
so the Macaulay matrix is A + lam*B (105x105) and so is its
denominator minor (30x30).  Both determinants are computed as exact
integer polynomials in lam: per proven prime below 2^81, one inversion
and one Hessenberg characteristic polynomial mod p, then the Chinese
remainder theorem past a Hadamard bound.  Their exact quotient is the
resultant, checked against one integer Bareiss evaluation and certified
to vanish only at 0, -1 and 27/5, with the degree drop below 75
witnessing the singular member at infinity.

The command line runs it with `--deep`; the orbitwise computation in
winger reaches the same list without it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt
from operator import mul

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
        raise ZeroDivisionError("degenerate minor; change coordinates first")
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


# -- det(A + lam*B) as an integer polynomial, multi-modular --------------------

# Miller-Rabin with these bases is a proof of primality below
# 3.3 * 10^24 (Sorenson-Webster), so every modulus below 2^81 is a proven prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MODULUS_TOP = 2 ** 81


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pencil_bound(a, b) -> int:
    """Bound on every coefficient of det(A + lam*B).

    det is multilinear in the rows, so the coefficient of lam^k is a sum of
    determinants with k rows from B and the rest from A; by Hadamard their
    absolute values sum to at most prod_i (|a_i| + |b_i|), and
    isqrt(s) + 1 >= sqrt(s) rounds each Euclidean row norm up.
    """
    bound = 1
    for ra, rb in zip(a, b):
        bound *= (isqrt(sum(x * x for x in ra)) + 1
                  + isqrt(sum(x * x for x in rb)) + 1)
    return bound


def _det_and_solve_mod(m, b, p):
    """(det M, M^-1 B) mod p for square M, or (0, None) if M is singular mod p.

    Forward elimination on the rows of [M | B], each trimmed of its
    eliminated leading column, then back-substitution.
    """
    n = len(m)
    rows = [[x % p for x in rm + rb] for rm, rb in zip(m, b)]
    det = 1
    upper = []  # row k: columns k+1.. of the unit upper triangle, then B
    for _ in range(n):
        piv = next((i for i, r in enumerate(rows) if r[0]), None)
        if piv is None:
            return 0, None
        if piv:
            rows[0], rows[piv] = rows[piv], rows[0]
            det = -det
        lead = rows[0][0]
        det = det * lead % p
        inv = pow(lead, -1, p)
        top = [x * inv % p for x in rows[0][1:]]
        upper.append(top)
        rows = [[(x - r[0] * y) % p for x, y in zip(r[1:], top)] if r[0] else r[1:]
                for r in rows[1:]]
    sol = [None] * n
    for k in range(n - 1, -1, -1):
        row = upper[k]
        acc = row[n - 1 - k:]
        for j, u in enumerate(row[:n - 1 - k], k + 1):
            if u:
                acc = [s - u * x for s, x in zip(acc, sol[j])]
        sol[k] = [s % p for s in acc]
    return det % p, sol


def _hessenberg_charpoly_mod(c, p):
    """Coefficients (lowest first) of det(x*I - C) mod p.

    C is brought to upper Hessenberg form by similarity (Cohen, A Course in
    Computational Algebraic Number Theory, 2.2.9), whose characteristic
    polynomial follows from the recurrence along the subdiagonal.
    """
    n = len(c)
    h = [[x % p for x in row] for row in c]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if h[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            h[piv], h[m] = h[m], h[piv]
            for row in h:
                row[piv], row[m] = row[m], row[piv]
        top = h[m]
        inv = pow(top[m - 1], -1, p)
        us = [0] * (n - m - 1)
        for j in range(m + 1, n):
            row = h[j]
            u = row[m - 1] * inv % p
            if u:
                row[m - 1] = 0
                row[m:] = [(x - u * y) % p for x, y in zip(row[m:], top[m:])]
                us[j - m - 1] = u
        if any(us):
            # column m += sum_j u_j * column j: the inverse of the row step
            for row in h:
                row[m] = (row[m] + sum(map(mul, us, row[m + 1:]))) % p
    chars = [[1]]
    for m in range(n):
        prev = chars[m]
        cur = [0] + prev
        diag = h[m][m]
        for k, x in enumerate(prev):
            cur[k] -= diag * x
        t = 1
        for i in range(m, 0, -1):
            t = t * h[i][i - 1] % p
            if not t:
                break
            coef = t * h[i - 1][m] % p
            if coef:
                for k, x in enumerate(chars[i - 1]):
                    cur[k] -= coef * x
        chars.append([x % p for x in cur])
    return chars[n]


def _pencil_det_mod(a, b, p):
    """Coefficients (lowest first, n + 1 of them) of det(A + lam*B) mod p.

    At the first shift lam0 in 0..n with M0 = A + lam0*B invertible mod p,
    det(A + lam*B) = det M0 * det(I + (lam - lam0) C) with C = M0^-1 B, and
    det(I + mu C) = sum_k (-1)^k chi_{n-k} mu^k for chi = charpoly(C).  If
    all n + 1 shifts are singular the polynomial, of degree <= n < p, is 0.
    """
    n = len(a)
    if p <= n:
        raise ValueError("the modulus must exceed the matrix size")
    for lam0 in range(n + 1):
        m0 = [[x + lam0 * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
        det0, c = _det_and_solve_mod(m0, b, p)
        if det0:
            break
    else:
        return [0] * (n + 1)
    chi = _hessenberg_charpoly_mod(c, p)
    # Horner in mu = lam - lam0 over e_k = (-1)^k chi_{n-k}
    out = [0] * (n + 1)
    for k in range(n, -1, -1):
        e = -chi[n - k] if k % 2 else chi[n - k]
        out = [(x - lam0 * y) % p for x, y in zip([e] + out[:-1], out)]
    return [det0 * x % p for x in out]


def _pencil_det(a, b):
    """Exact integer coefficients (lowest first) of det(A + lam*B).

    Residues modulo proven primes taken downward from 2^81 are combined
    by the Chinese remainder theorem until the modulus exceeds twice the
    coefficient bound, so the symmetric residues are the coefficients.
    """
    half = _pencil_bound(a, b)
    coeffs = [0] * (len(a) + 1)
    modulus = 1
    p = _MODULUS_TOP
    while modulus <= 2 * half:
        p -= 1
        while not _is_prime(p):
            p -= 1
        res = _pencil_det_mod(a, b, p)
        lift = pow(modulus, -1, p)
        coeffs = [x + modulus * ((r - x) * lift % p) for x, r in zip(coeffs, res)]
        modulus *= p
    return [x - modulus if x > modulus // 2 else x for x in coeffs]


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




def _exact_quotient(num, den):
    """num / den in Q[lam] (coefficients lowest first); raises
    ArithmeticError unless the division leaves no remainder."""
    num = [Fraction(x) for x in num]
    den = list(den)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ArithmeticError("zero denominator polynomial")
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 1)
    for k in range(len(num) - len(den), -1, -1):
        q = num[k + len(den) - 1] / den[-1]
        quot[k] = q
        for j, d in enumerate(den):
            num[k + j] -= q * d
    if any(num):
        raise ArithmeticError("the Macaulay minor does not divide the full determinant")
    return quot


def pencil_discriminant():
    """The resultant of the pencil's partials as a polynomial in lambda.

    Returns (coefficients lowest-first, multiplicities dict).  The
    multiplicities dict maps the roots 0, -1 and 27/5 to their orders
    and "degree" to the resultant's degree; after dividing the three
    roots out, the remaining factor must be a nonzero constant, which
    certifies that no other finite singular parameter exists.
    """
    tables = _pencil_partial_tables()
    degrees = (5, 5, 5)
    full_a, minor_a = _eval_determinants([a for a, _ in tables], degrees)
    full_b, minor_b = _eval_determinants([b for _, b in tables], degrees)
    p_minor = _pencil_det(minor_a, minor_b)
    coeffs = _exact_quotient(_pencil_det(full_a, full_b), p_minor)
    # control: one exact Bareiss evaluation at the first lambda >= 1 where
    # the minor does not vanish
    lam = next(x for x in count(1) if _poly_eval(p_minor, x))
    int_fs = [{e: a.get(e, 0) + lam * b.get(e, 0) for e in set(a) | set(b)}
              for a, b in tables]
    if _poly_eval(coeffs, Fraction(lam)) != macaulay_resultant_value(int_fs, degrees):
        raise ArithmeticError("the modular resultant fails the exact control")
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
