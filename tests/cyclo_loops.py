"""Reference Q(zeta_5) loops for the test oracles.

The 3x3 product, `apply`, adjugate, determinant, inverse and kernel of
`linalg.Matrix`, and `polys.Poly3.evaluate`, `+`, the product by a
scalar and `partial`, one `Cyclo` multiply and add at a time.  The
integer kernels that write each operand over one denominator replaced
them; they are kept here as those kernels' reference.
"""

from wingerverify.cyclo import Cyclo, rational
from wingerverify.linalg import Matrix
from wingerverify.polys import Poly3


def _dot(row, col) -> Cyclo:
    """The sum of row[k] * col[k] over the nonzero entries of `row`, for a
    row and a column of one length (ValueError otherwise)."""
    terms = [a * b for a, b in zip(row, col, strict=True) if not a.is_zero()]
    return sum(terms[1:], terms[0]) if terms else rational(0)


def product(m, other):
    cols = [other.entries[j::3] for j in range(3)]
    return Matrix([_dot(m.row(i), c) for i in range(3) for c in cols])


def apply(m, vec) -> tuple:
    """Matrix times a column vector of three entries."""
    return tuple(_dot(m.row(i), vec) for i in range(3))


def adjugate(m):
    """The adjugate (transposed cofactors): m * adj(m) = det(m) * I, so
    det(m) is the first row of m times the first column of adj(m)."""
    a, b, c, d, e, f, g, h, i = m.entries
    return Matrix((e * i - f * h, c * h - b * i, b * f - c * e,
                   f * g - d * i, a * i - c * g, c * d - a * f,
                   d * h - e * g, b * g - a * h, a * e - b * d))


def _det_from(m, adj) -> Cyclo:
    return _dot(m.row(0), adj.entries[0::3])


def det(m) -> Cyclo:
    return _det_from(m, adjugate(m))


def inverse(m):
    adj = adjugate(m)
    d = _det_from(m, adj)
    if d.is_zero():
        raise ValueError("singular matrix")
    inv = d.inv()
    return Matrix([e * inv for e in adj.entries])


def kernel(m):
    """Right null space of a matrix of rank at least 2: [] if it is
    invertible, else one nonzero column of adj(m), as m adj(m) =
    det(m) I = 0.  Raises ValueError below rank 2, where adj(m) = 0."""
    adj = adjugate(m)
    if not _det_from(m, adj).is_zero():
        return []
    columns = [col for col in (adj.entries[j::3] for j in range(3)) if any(col)]
    if not columns:
        raise ValueError("3x3 matrix of rank below 2")
    return columns[:1]


def evaluate(f, point) -> Cyclo:
    """Exact value of the Poly3 f at a triple of field elements."""
    acc = rational(0)
    # cache powers of each coordinate
    maxes = [0, 0, 0]
    for expo in f.terms:
        for i in range(3):
            maxes[i] = max(maxes[i], expo[i])
    pows = []
    for i in range(3):
        p = [rational(1)]
        v = rational(point[i])
        for _ in range(maxes[i]):
            p.append(p[-1] * v)
        pows.append(p)
    for (a, b, c), coef in f.terms.items():
        acc = acc + coef * pows[0][a] * pows[1][b] * pows[2][c]
    return acc


def add(f, g):
    """The sum of the Poly3 f and g."""
    out = dict(f.terms)
    for expo, coef in g.terms.items():
        cur = out.get(expo)
        out[expo] = coef if cur is None else cur + coef
    return Poly3(out)


def scale(f, other):
    """The Poly3 f times the scalar `other`."""
    return Poly3({e: c * other for e, c in f.terms.items()})


def partial(f, i: int):
    """The partial derivative of the Poly3 f by its variable i."""
    out = {}
    for expo, coef in f.terms.items():
        if expo[i] == 0:
            continue
        new = list(expo)
        new[i] -= 1
        out[tuple(new)] = coef * expo[i]
    return Poly3(out)
