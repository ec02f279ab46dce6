"""Reference multi-modular determinant of a polynomial matrix for the test
oracles.

det H(lam) for a matrix whose rows have degree 1 or 3 in lam: each row of
degree 3 linearized by two auxiliary unknowns to a linear pencil
A + lam*B of the same determinant, whose residues modulo certified Proth
primes are combined by the Chinese remainder theorem past a Hadamard
bound on the rows of H.  `discriminant._pencil_det` replaced it by
evaluation and interpolation on integers, block by block; it is kept here
as that route's independent reference, in two forms: `_pencil_det`, one
modular pass per connected block of H's nonzero pattern, and
`unsplit_pencil_det`, one pass over the whole of H.
"""

from math import isqrt
from operator import mul

from wingerverify.discriminant import _blocks
from wingerverify.perms import Perm


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


def unsplit_pencil_det(rows):
    """Exact integer coefficients (lowest first) of det H(lam), for the
    rows of H, each the list of its coefficient rows in lam, lowest first,
    of degree 1 or 3: the rows of `hybrid_rows`, or pairs [a_i, b_i] for
    det(A + lam*B).

    The rows are bounded by `_pencil_bound`, then linearized to A + lam*B
    of the same determinant.  Its residues modulo the certified Proth
    primes are combined by the Chinese remainder theorem until the modulus
    exceeds twice the bound, so the symmetric residues are the
    coefficients; ArithmeticError if the five primes do not reach it.
    """
    half = _pencil_bound(rows)
    a, b = _linearize(rows)
    coeffs = [0] * (len(a) + 1)
    modulus = 1
    primes = _proth_primes()
    while modulus <= 2 * half:
        p = next(primes, None)
        if p is None:
            raise ArithmeticError("the coefficient bound needs more than the five "
                                  "certified primes")
        res = _pencil_det_mod(a, b, p)
        lift = pow(modulus, -1, p)
        coeffs = [x + modulus * ((r - x) * lift % p) for x, r in zip(coeffs, res)]
        modulus *= p
    return [x - modulus if x > modulus // 2 else x for x in coeffs]
