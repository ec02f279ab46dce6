"""Reference Q(zeta_5) loops for the test oracles.

The 3x3 product, difference, product by a scalar, transpose, trace,
`apply`, adjugate, determinant, inverse and kernel of `linalg.Matrix`;
the Hamilton product and norm of `covers.Quaternion` and the 120 units
of `covers.binary_icosahedral_group`; `polys.Poly3.evaluate`, `+`, the
product by a scalar and `partial`; and the orbit side of `winger`: the
sort key of the 60 matrices, the line-permutation scan, the normalized
point, the orbit closure and the singular-point test: one `Cyclo`
multiply and add at a time.  The integer kernels that keep each object's
entries over one denominator replaced them; they are kept here as those
kernels' reference.
"""

from fractions import Fraction
from itertools import permutations, product as cartesian

from wingerverify.cyclo import Cyclo, golden, rational
from wingerverify.covers import Quaternion
from wingerverify.linalg import Matrix
from wingerverify.perms import Perm, closure
from wingerverify.polys import Poly3
from wingerverify.winger import INFINITY, _derivatives


def terms(f) -> dict:
    """{expo: Cyclo coefficient} of the Poly3 f, a new dict."""
    return {e: Cyclo(n, f.den) for e, n in f.nums.items()}


def coefficient(f, expo) -> Cyclo:
    """The coefficient of the exponent triple `expo` in the Poly3 f."""
    return Cyclo(f.nums.get(tuple(expo), (0, 0, 0, 0)), f.den)


def _dot(row, col) -> Cyclo:
    """The sum of row[k] * col[k] over the nonzero entries of `row`, for a
    row and a column of one length (ValueError otherwise)."""
    terms = [a * b for a, b in zip(row, col, strict=True) if not a.is_zero()]
    return sum(terms[1:], terms[0]) if terms else rational(0)


def product(m, other):
    cols = [other.entries[j::3] for j in range(3)]
    return Matrix([_dot(m.row(i), c) for i in range(3) for c in cols])


def difference(m, other):
    return Matrix([a - b for a, b in zip(m.entries, other.entries)])


def matrix_scale(m, other):
    """The matrix m times the scalar `other`."""
    return Matrix([e * other for e in m.entries])


def transpose(m):
    e = m.entries
    return Matrix(e[0::3] + e[1::3] + e[2::3])


def trace(m) -> Cyclo:
    e = m.entries
    return e[0] + e[4] + e[8]


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
    for expo in f.nums:
        for i in range(3):
            maxes[i] = max(maxes[i], expo[i])
    pows = []
    for i in range(3):
        p = [rational(1)]
        v = rational(point[i])
        for _ in range(maxes[i]):
            p.append(p[-1] * v)
        pows.append(p)
    for (a, b, c), coef in terms(f).items():
        acc = acc + coef * pows[0][a] * pows[1][b] * pows[2][c]
    return acc


def add(f, g):
    """The sum of the Poly3 f and g."""
    out = terms(f)
    for expo, coef in terms(g).items():
        cur = out.get(expo)
        out[expo] = coef if cur is None else cur + coef
    return Poly3(out)


def scale(f, other):
    """The Poly3 f times the scalar `other`."""
    return Poly3({e: c * other for e, c in terms(f).items()})


def partial(f, i: int):
    """The partial derivative of the Poly3 f by its variable i."""
    out = {}
    for expo, coef in terms(f).items():
        if expo[i] == 0:
            continue
        new = list(expo)
        new[i] -= 1
        out[tuple(new)] = coef * expo[i]
    return Poly3(out)


def hamilton(p, q):
    """The Hamilton product of the quaternions p and q."""
    a1, b1, c1, d1 = p.a, p.b, p.c, p.d
    a2, b2, c2, d2 = q.a, q.b, q.c, q.d
    return Quaternion(
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def norm(q) -> Cyclo:
    return q.a * q.a + q.b * q.b + q.c * q.c + q.d * q.d


def binary_icosahedral_group() -> frozenset:
    """The 24 Hurwitz units and the even coordinate permutations of
    (0, +-1, +-phi, +-1/phi)/2, from the field elements phi and 1/phi."""
    half = Fraction(1, 2)
    units = set()
    for i in range(4):
        for s in (1, -1):
            units.add(Quaternion(*(s if k == i else 0 for k in range(4))))
    for signs in cartesian((half, -half), repeat=4):
        units.add(Quaternion(*signs))
    phi = golden()
    base = [rational(0), rational(1), phi, phi.inv()]
    for perm in permutations(range(4)):
        if not Perm(i + 1 for i in perm).is_even():
            continue
        for signs in cartesian((1, -1), repeat=4):
            units.add(Quaternion(*(base[p] * s / 2 for p, s in zip(perm, signs))))
    return frozenset(units)


def matrix_key(m):
    """The sort key of the reconstructed matrices: each entry's
    canonical (numerators, den)."""
    return tuple((e.nums, e.den) for e in m.entries)


def triple_scalings(brackets, triple):
    """The realized permutations of `triple` with their normalized
    scalings, from the integer `brackets` read as field elements: each
    of the nine points normalized from the ratios of u and of w."""
    brackets = {t: Cyclo(n) for t, n in brackets.items()}
    u_ratios = [normalize_point((brackets[i, 1, 2], brackets[0, i, 2],
                                 brackets[0, 1, i]))[:2] for i in range(3, 6)]
    s0, s1, s2 = triple
    one = rational(1)
    points = {}
    for j in range(6):
        if j not in triple:
            w0, w1, w2 = brackets[j, s1, s2], brackets[s0, j, s2], brackets[s0, s1, j]
            t = w2 / (w0 * w1)
            r0, r1 = w1 * t, w0 * t
            points[j] = [(a * r0, b * r1, one) for a, b in u_ratios]
    out = {}
    for rest in permutations(points):
        c = points[rest[0]][0]
        if points[rest[1]][1] == c and points[rest[2]][2] == c:
            out[rest] = c
    return out


def normalize_point(coords):
    """Scale so the last nonzero coordinate is 1; canonical representative."""
    coords = tuple(map(rational, coords))
    last = None
    for i in range(2, -1, -1):
        if not coords[i].is_zero():
            last = i
            break
    if last is None:
        raise ValueError("zero vector is not a projective point")
    if coords[last] == 1:
        return coords
    inv = coords[last].inv()
    return tuple(c * inv for c in coords)


def orbit_of(point, group) -> tuple:
    """The orbit of a projective point: the closure of its normalized form
    under p -> normalize_point(m p), one move per generator."""
    moves = [lambda p, m=group.elements[s]: normalize_point(apply(m, p))
             for s in group.generators]
    return closure(normalize_point(point), moves)


def singular_point(p, f) -> tuple:
    """The parameter lam whose member of Q^3 + lam*f is singular at p, and
    whether p is a node of it, uncached: the field-element test, with
    every value from the `evaluate` loop above."""
    grad_q, hess_q, grad_f, hess_f = _derivatives(f)
    gq = tuple(evaluate(d, p) for d in grad_q)
    gf = tuple(evaluate(d, p) for d in grad_f)
    if all(c.is_zero() for c in gf):
        if all(c.is_zero() for c in gq):
            return None, False  # singular for every parameter; not a pencil datum
        lam = INFINITY
    else:
        i = next(i for i, c in enumerate(gf) if not c.is_zero())
        lam = -(gq[i] / gf[i])
        if any(a + lam * b != rational(0) for a, b in zip(gq, gf)):
            return None, False
    chart = max(i for i in range(3) if not p[i].is_zero())
    u, v = [i for i in range(3) if i != chart]

    def entry(i, j):
        if lam is INFINITY:
            return evaluate(hess_f[i][j], p)
        return evaluate(hess_q[i][j], p) + lam * evaluate(hess_f[i][j], p)
    a, b, c = (entry(i, j) for i, j in ((u, u), (u, v), (v, v)))
    return lam, b * b - a * c != rational(0)
