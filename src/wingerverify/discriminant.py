"""Resultant certification of the pencil's singular parameter set.

The resultant of the three partial derivatives of a plane sextic
vanishes exactly when the curve is singular.  For the pencil the
partials are quintics whose coefficients are linear in the parameter.
Their hybrid Sylvester-Bezout matrix H(lam) is 45x45, with 30 Sylvester
rows linear in lam and 15 Bezout rows, from the Morley form, cubic in
lam; its determinant is the resultant with no extraneous factor.  The
torus diag(zeta, zeta^-1, 1) of the A5 that keeps the pencil gives each
row and column of H one weight mod 5, so H is block diagonal: five 9x9
blocks, each with three Bezout rows.  Two auxiliary unknowns per Bezout
row make each block a 15x15 linear pencil A + lam*B with the same
determinant, and det H, their product up to the sign of the block
order, is computed as an exact integer polynomial in lam: per prime of
a table of five Proth primes, each proven from its stored certificate,
one inversion and one Hessenberg characteristic polynomial mod p per
block, then the Chinese remainder theorem past a Hadamard bound on the
rows of H (one prime).  A nonzero constant left after dividing out, on
integers, the roots that the caller expects certifies that no other
finite member is singular; the degree drop below 75 witnesses the
singular member at infinity.

Every run also controls it at one parameter against an independent
formula: the Macaulay resultant, the 105x105 Macaulay determinant over
its 30x30 minor by the integer elimination `linalg.echelon`, in
coordinates of determinant 1 where that minor does not vanish and the
matrix is sparse, so that both values are the same resultant.  Its rows
and columns are listed form by form (f_2, f_1, then f_0 rows, each in
descending lexicographic order), a symmetric permutation that keeps both
determinants and lets the elimination, which updates only the rows it
touches, leave most rows alone until their own group's pivots.

The command line runs it with `--deep`; the orbitwise computation in
winger reaches the same list without it.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import add, mul

from .cyclo import _numerators
from .linalg import Matrix, integer_det
from .perms import Perm
from .polys import Poly3, monomials_of_degree
from .winger import q_poly


def _to_int_poly(f: Poly3):
    """Exponent->int dict after clearing denominators (rational input only)."""
    _, nums = _numerators(f.terms.values())
    if any(any(n[1:]) for n in nums):
        raise ValueError(f"{f} has an irrational coefficient")
    return {e: n[0] for e, n in zip(f.terms, nums)}


def macaulay_system(degrees):
    """Row recipes of the Macaulay matrix for three ternary forms.

    Returns (monomials, rows, minor_index) where rows[i] pairs a shift
    monomial with the form it multiplies, and minor_index lists the
    positions of the non-reduced monomials (divisible by at least two
    of the x_i^{d_i}), which index the denominator minor.

    Row i and column i both belong to monomials[i], so the order of that
    list permutes rows and columns together and changes neither
    determinant.  It is chosen for `linalg.echelon`: the rows are grouped
    by the form they multiply, f_2 first, then f_1, then f_0, each group
    in descending lexicographic order.  On the 105x105 control matrix at
    lam = 1, in the coordinates `CONTROL_T`, the elimination then writes
    about a third of the bits that lexicographic order makes it write,
    and it timed among the three fastest of the twelve orders by group
    and direction (28 ms against 28-45 ms), at about half the time of
    lexicographic order (55 ms).
    """
    d0, d1, d2 = degrees
    groups = ([], [], [])
    # a + b + c = d0 + d1 + d2 - 2, so a >= d0, b >= d1 or c >= d2
    for a, b, c in monomials_of_degree(d0 + d1 + d2 - 2)[::-1]:
        if a >= d0:
            groups[0].append(((a, b, c), (a - d0, b, c), 0))
        elif b >= d1:
            groups[1].append(((a, b, c), (a, b - d1, c), 1))
        else:
            groups[2].append(((a, b, c), (a, b, c - d2), 2))
    ordered = groups[2] + groups[1] + groups[0]
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
    exponent->int dict: the full Macaulay determinant over its minor."""
    full, minor = _eval_determinants(fs, degrees)
    det_minor = integer_det(minor)
    if det_minor == 0:
        raise ZeroDivisionError("degenerate minor; change coordinates first")
    return Fraction(integer_det(full), det_minor)


# The coordinates of the Macaulay control.  In the symmetric original
# coordinates the Macaulay denominator minor vanishes identically (a 0/0
# evaluation); after T it does not.  Mixing the three quintic partials by
# T^t scales the resultant by det(T)^(5*5), and the substitution by
# det(T)^(5*5*5); with det T = 1 the resultant is unchanged.  This T, a
# signed permutation up to one shear, keeps the 105x105 Macaulay matrix
# sparse: 1,225 nonzeros, against 2,205 for ((1, 0, 0), (0, 1, 0), (1, 1, 1)).
CONTROL_T = ((0, -1, 0), (0, 1, 1), (-1, 0, 0))


def _pencil_partials(f, t=None):
    """For each variable, integer coefficient tables [A, B] with
    d(Q^3 + lam*f)/dz_i = A + lam*B, for the sextic f (F itself or a
    perturbed copy), after the change of coordinates t if one is given."""
    q3 = q_poly() ** 3
    if t is not None:
        m = Matrix.from_rows(t)
        q3, f = q3.act(m), f.act(m)
    return [[_to_int_poly(q3.partial(i)), _to_int_poly(f.partial(i))]
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


def _linearize(rows):
    """(A, B) with det(A + lam*B) = det H(lam), for rows of H of degree 1
    or 3 in lam as `hybrid_rows` gives them; ValueError on a row of any
    other degree, whose terms past lam^1 a linear row would drop.

    A cubic row (r0 + lam r1 + lam^2 r2 + lam^3 r3).v gets two unknowns
    u = (r2 + lam r3).v and t = lam u, and becomes (r0 + lam r1).v + lam t
    beside the rows u - (r2 + lam r3).v and t - lam u.  On the new columns
    (u, then t) the new rows (all u-rows, then all t-rows) form the block
    [[I, 0], [-lam I, I]] of determinant 1, whose Schur complement is H.
    """
    if any(len(row) not in (2, 4) for row in rows):
        raise ValueError("a row of H must have degree 1 or 3 in lam")
    n = len(rows)
    cubic = [i for i, row in enumerate(rows) if len(row) == 4]
    pad = [0] * (2 * len(cubic))

    def unit(pos, sign):
        vec = [0] * (n + len(pad))
        vec[pos] = sign
        return vec
    a, b = [r[0] + pad for r in rows], [r[1] + pad for r in rows]
    u_a, u_b, t_a, t_b = [], [], [], []
    for j, i in enumerate(cubic):
        u, t = n + j, n + len(cubic) + j
        b[i][t] = 1
        u_a.append([-x for x in rows[i][2]] + pad)
        u_a[-1][u] = 1
        u_b.append([-x for x in rows[i][3]] + pad)
        t_a.append(unit(t, 1))
        t_b.append(unit(u, -1))
    return a + u_a + t_a, b + u_b + t_b


# -- det(A + lam*B) as an integer polynomial, multi-modular --------------------

# The first five primes k*2^170 + 1 below 2^340, as (2^170 - 1 - k, a) with
# a Proth witness a: a^((p-1)/2) = -1 mod p.  One suffices for the pencil.
_PROTH_CERTIFICATES = ((0x72, 5), (0x144, 5), (0x572, 3), (0x5dc, 5), (0xa32, 5))


def _proth_primes():
    """The five primes of `_PROTH_CERTIFICATES`, descending, each proven at use.

    By Proth's theorem (Crandall-Pomerance, Prime Numbers, ch. 4),
    p = k*2^m + 1 with k odd and k < 2^m is prime iff some a has
    a^((p-1)/2) = -1 mod p, so the stored witness a is a certificate
    checked in one power (Pratt, "Every prime has a succinct
    certificate", SIAM J. Comput. 4, 1975).
    """
    step = 1 << 170
    for offset, a in _PROTH_CERTIFICATES:
        p = (step - 1 - offset) * step + 1
        if pow(a, p >> 1, p) != p - 1:
            raise ArithmeticError(f"{a} is no Proth witness for {p}")
        yield p


def _pencil_bound(rows) -> int:
    """Bound on every coefficient of det H(lam), for the rows of H as
    `_pencil_det` takes them.

    det is multilinear in the rows, so the coefficient of lam^k is a sum of
    determinants, each with one coefficient row r_{i,k_i} from every row i,
    the k_i summing to k; by Hadamard their absolute values sum to at most
    prod_i sum_k |r_{i,k}|, and isqrt(s) + 1 >= sqrt(s) rounds each
    Euclidean norm up.  Taken before `_linearize`, whose rows would split a
    cubic row's norms over three rows and multiply them instead.
    """
    bound = 1
    for row in rows:
        bound *= sum(isqrt(sum(x * x for x in part)) + 1 for part in row)
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
    polynomial follows from the recurrence along the subdiagonal.  No
    step reads an entry below the subdiagonal once its column is reduced,
    so those entries are left as they are instead of set to 0.
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

    At the first shift lam0 in 1, ..., n, 0 with M0 = A + lam0*B invertible
    mod p, det(A + lam*B) = det M0 * det(I + (lam - lam0) C) with
    C = M0^-1 B, and det(I + mu C) = sum_k (-1)^k chi_{n-k} mu^k for
    chi = charpoly(C).  Any invertible shift gives the same polynomial;
    lam0 = 0 comes last because the pencil's A is singular there.  If all
    n + 1 shifts are singular the polynomial, of degree <= n < p, is 0.
    """
    n = len(a)
    if p <= n:
        raise ValueError("the modulus must exceed the matrix size")
    for lam0 in (*range(1, n + 1), 0):
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


def _pencil_det(rows):
    """Exact integer coefficients (lowest first) of det H(lam), for the
    rows of H, each the list of its coefficient rows in lam, lowest first,
    of degree 1 or 3: the rows of `hybrid_rows`, or pairs [a_i, b_i] for
    det(A + lam*B).

    The rows are bounded by `_pencil_bound` and split into the `_blocks`
    of H.  If a block is not square, det H is identically 0.  Otherwise
    ordering the rows, and the columns, block by block makes H block
    diagonal, so det H is the product of the blocks' determinants times
    the signs of the two orders.  Each block is linearized to A + lam*B of
    the same determinant; the product of their residues modulo the
    certified Proth primes is combined by the Chinese remainder theorem
    until the modulus exceeds twice the bound, so the symmetric residues
    are the coefficients; ArithmeticError if the five primes do not reach
    it.  A connected H is one block, linearized as a whole.
    """
    half = _pencil_bound(rows)
    blocks = _blocks(rows)
    if any(len(rws) != len(cols) for rws, cols in blocks):
        return [0] * (len(_linearize(rows)[0]) + 1)
    row_order = Perm(i + 1 for rws, _ in blocks for i in rws)
    col_order = Perm(j + 1 for _, cols in blocks for j in cols)
    sign = 1 if row_order.is_even() == col_order.is_even() else -1
    pencils = [_linearize([[[part[j] for j in cols] for part in rows[i]] for i in rws])
               for rws, cols in blocks]
    coeffs = [0] * (sum(len(a) for a, _ in pencils) + 1)
    modulus = 1
    primes = _proth_primes()
    while modulus <= 2 * half:
        p = next(primes, None)
        if p is None:
            raise ArithmeticError("the coefficient bound needs more than the five "
                                  "certified primes")
        res = [sign % p]
        for a, b in pencils:
            block = _pencil_det_mod(a, b, p)
            prod = [0] * (len(res) + len(block) - 1)
            for k, x in enumerate(res):
                for j, y in enumerate(block):
                    prod[k + j] += x * y
            res = [x % p for x in prod]
        lift = pow(modulus, -1, p)
        coeffs = [x + modulus * ((r - x) * lift % p) for x, r in zip(coeffs, res)]
        modulus *= p
    return [x - modulus if x > modulus // 2 else x for x in coeffs]


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
    """Check det H(lam) against the Macaulay resultant of the partials in
    the coordinates CONTROL_T, at the first lam in 1..31 where its
    denominator minor is nonzero.  The minor's determinant has
    degree at most 30 in lam, so if it vanishes at all 31 it vanishes
    identically, and the control does not hold."""
    tables = _pencil_partials(f, CONTROL_T)
    for lam in range(1, 32):
        fs = [{e: a.get(e, 0) + lam * b.get(e, 0) for e in a.keys() | b.keys()}
              for a, b in tables]
        try:
            value = macaulay_resultant_value(fs, (5, 5, 5))
        except ZeroDivisionError:
            continue
        return {"lambda": lam, "holds": value == _poly_eval(coeffs, lam)}
    return {"lambda": None, "holds": False}


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
