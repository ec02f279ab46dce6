"""Reference elimination over Q(zeta_5) for the test oracles.

Gauss-Jordan on `Cyclo` rows, one field inverse per pivot: the n x n
reduced row echelon form that `linalg` replaced by the 3x3 adjugate and
the integer elimination, kept here as their independent reference.
"""

from wingerverify.cyclo import Cyclo, rational


def cyclo_rref(rows):
    """Reduced row echelon form of rows of Q(zeta_5) entries (ints are
    coerced); returns (rows as lists, pivot column list)."""
    m = [[e if isinstance(e, Cyclo) else rational(e) for e in row] for row in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if not m[i][c].is_zero()), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = m[r][c].inv()
        m[r] = [e * inv for e in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][c].is_zero():
                f = m[i][c]
                m[i] = [e - f * p for e, p in zip(m[i], m[r])]
        pivots.append(c)
        if len(pivots) == len(m):
            break
    return m, pivots


def cyclo_kernel(rows, ncols):
    """Basis of the right null space over Q(zeta_5), one vector per
    non-pivot column (1 there, 0 at the other non-pivot columns)."""
    m, pivots = cyclo_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [rational(0)] * ncols
        vec[f] = rational(1)
        for r, p in enumerate(pivots):
            vec[p] = -m[r][f]
        basis.append(tuple(vec))
    return basis
