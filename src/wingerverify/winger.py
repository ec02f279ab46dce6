"""The icosahedral plane representation and its pencil of invariant sextics.

Everything is reconstructed from two published inputs: the invariant
conic Q = z0*z1 + z2^2 and the six lines, kept as coefficient rows,
whose product is the sextic F.  The 60 matrices of
the group are NOT hardcoded; they are recovered from the 720 ways the
six lines could be permuted: since no three lines meet, a permutation is
realized by a projective map iff three projective points computed from
the lines agree, and the map is then rescaled so that the bilinear form
of Q is preserved on the nose with determinant 1.  No map from A5 is
built: the class sizes that `group-class-sizes` judges make the group
simple of order 60, hence A5.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .cyclo import rational, zeta
from .linalg import Matrix
from .perms import FiniteGroup, closure, finite_group
from .polys import Poly3


class _Infinity:
    """Projective parameter value at infinity (the fiber F itself); only
    the module constant INFINITY is built."""

    def __repr__(self):
        return "infinity"


INFINITY = _Infinity()


def gram_matrix() -> Matrix:
    """Symmetric bilinear form of the conic Q = z0*z1 + z2^2."""
    h = rational(1) / 2
    return Matrix.from_rows([[0, h, 0], [h, 0, 0], [0, 0, 1]])


def q_poly() -> Poly3:
    return Poly3({(1, 1, 0): 1, (0, 0, 2): 1})


@lru_cache(maxsize=None)
def six_lines() -> tuple:
    """The coefficient rows (on z0, z1, z2) of the six invariant lines,
    each with z2-coefficient 1.

    Order: z2, then the five lines eta^i z0 + eta^(4i) z1 + z2 for
    i = 1..5 (the last being z0 + z1 + z2).
    """
    eta = zeta()
    one, zero = rational(1), rational(0)
    return ((zero, zero, one),
            *((eta ** i, eta ** (4 * i), one) for i in range(1, 6)))


@lru_cache(maxsize=None)
def f_poly() -> Poly3:
    """The sextic F: exact expanded product of the six lines."""
    prod = Poly3.monomial((0, 0, 0), 1)
    for row in six_lines():
        prod = prod * Poly3.linear(row)
    return prod


class ReconstructionError(RuntimeError):
    pass


def _matrix_key(m: Matrix):
    return tuple(e.sort_key() for e in m.entries)


def _triple_scalings(brackets, triple, u_ratios):
    """The realized permutations sigma with sigma(0..2) = `triple`, as a
    dict from (sigma(3), sigma(4), sigma(5)) to the scaling c.

    M = B^-1 diag(c) C sends L_{sigma(i)} to c_i L_i for i < 3, where B
    holds the rows L_{sigma(0..2)} and C the rows L_{0..2}.  For i >= 3
    it sends L_{sigma(i)} to a multiple of L_i iff w ⊙ c is proportional
    to u, with w = B^-T L_{sigma(i)} and u = C^-T L_i.  When no three
    lines meet, neither vector has a zero entry and c is the point u / w,
    taken entry by entry: sigma is realized iff its three points agree.
    By Cramer's rule w is proportional to ([j s1 s2], [s0 j s2], [s0 s1 j])
    for j = sigma(i) and (s0, s1, s2) = `triple`, read from `brackets`
    (`line_brackets`), and only its ratios matter.  Each of the nine
    points is normalized as (u0/u2 * w2/w0, u1/u2 * w2/w1, 1), from the
    ratios (u0/u2, u1/u2) of each u, which `u_ratios` holds since they do
    not depend on the triple, and of each w (one inversion of w0*w1):
    three inversions per triple instead of one per point.
    """
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


def _rescale(m, gram):
    """The multiple of m that preserves the form exactly with det 1, or
    None when m does not preserve the form up to a scalar; the
    invariance-conic-sextic-form claim checks both on the 60 results."""
    # M^T A M = s A forces det(M)^2 = s^3, so t = s/det(M)
    # satisfies t^2 = 1/s and makes the form exactly preserved with det 1;
    # s is read at the first nonzero entry of A
    s_mat = m.transpose() * gram * m
    ij = next(divmod(k, 3) for k, a in enumerate(gram.nums) if any(a))
    s = s_mat[ij] / gram[ij]
    if s.is_zero() or s_mat != gram * s:
        return None
    return m * (s / m.det())


@lru_cache(maxsize=None)
def reconstruct_group() -> FiniteGroup:
    """The matrices that permute the six lines and keep the form of Q
    with det 1, sorted, as a `FiniteGroup`.  Raises ReconstructionError
    naming the triple that `concurrent_triple` finds, since every bracket
    of the search must be nonzero, or when the survivors are not closed
    (no Cayley table); the claims judge the rest: their number, classes,
    traces and invariance.

    The search inverts no matrix.  Every point is read from the 20
    brackets of the lines, u = C^-T L_i as ([i 1 2], [0 i 2], [0 1 i]) by
    Cramer's rule, and each survivor is built as adj(B) diag(c) C, which
    is det(B) times B^-1 diag(c) C: `_rescale` removes the scalar, since k*M
    scales s by k^2 and det by k^3."""
    rows = six_lines()
    meet = concurrent_triple(rows)
    if meet is not None:
        raise ReconstructionError(f"three of the six lines are concurrent: {list(meet)}")
    brackets = line_brackets(rows)
    gram = gram_matrix()
    u_ratios = [normalize_point((brackets[i, 1, 2], brackets[0, i, 2],
                                 brackets[0, 1, i]))[:2] for i in range(3, 6)]
    lines = Matrix.from_rows(rows[:3])
    found = set()
    # the 720 permutations share 120 ordered triples sigma(0..2), and adj(B)
    # and the points u / w depend on the triple alone; adj(B) is needed
    # only for a triple with a survivor, half of them
    for triple in permutations(range(6), 3):
        scalings = _triple_scalings(brackets, triple, u_ratios)
        if not scalings:
            continue
        b_adj = Matrix.from_rows([rows[k] for k in triple]).adjugate()
        for c in scalings.values():
            m = _rescale(b_adj * (Matrix.diagonal(c) * lines), gram)
            if m is not None:
                found.add(m)
    try:
        return finite_group(tuple(sorted(found, key=_matrix_key)))
    except ValueError as exc:
        raise ReconstructionError(f"survivors do not form a group: {exc}") from exc


@lru_cache(maxsize=None)
def line_brackets(rows: tuple) -> dict:
    """[a b c] = det(L_a, L_b, L_c) for every ordered triple of distinct
    lines (a tuple of coefficient rows): one determinant per set of three,
    signed by the parity of each order, computed once per tuple of rows."""
    out = {}
    for t in combinations(range(len(rows)), 3):
        d = Matrix.from_rows([rows[i] for i in t]).det()
        for order, sign in zip(permutations(t), (1, -1, -1, 1, 1, -1)):
            out[order] = d if sign > 0 else -d
    return out


def concurrent_triple(rows):
    """The first index triple of three lines (coefficient rows) through a
    common point, or None when no three of them meet."""
    brackets = line_brackets(tuple(rows))
    return next((t for t in combinations(range(len(rows)), 3) if brackets[t].is_zero()),
                None)


# -- projective points and irregular orbits ------------------------------------


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


def orbit_of(point, group: FiniteGroup) -> tuple:
    """The orbit of a projective point, as a tuple of normalized points:
    the `closure` of its normalized form under one move per generator of
    the group, p -> normalize_point(m p), since every element of a finite
    group is a word in its generators.  The points come in the order
    found: the normalized point first, then the others by their distance
    from it in generator steps."""
    moves = [lambda p, m=group.elements[s]: normalize_point(m.apply(p))
             for s in group.generators]
    return closure(normalize_point(point), moves)


def _eigenvector(m: Matrix, lam) -> tuple:
    kern = (m - Matrix.identity(3) * lam).kernel()
    if len(kern) != 1:
        raise ValueError("eigenspace is not a line")
    return normalize_point(kern[0])


def _first_of_order(group: FiniteGroup, order: int) -> int:
    """The index of the first element of `order`.  ReconstructionError when
    there is none; a group of order 60 has elements of orders 2, 3 and 5
    (Cauchy's theorem), so only a group of another order can lack one."""
    try:
        return group.orders.index(order)
    except ValueError:
        raise ReconstructionError(f"the reconstructed group of order {len(group)} has "
                                  f"no element of order {order}") from None


@lru_cache(maxsize=None)
def irregular_orbits() -> dict:
    """The four special orbits, keyed by their published sizes (6, 10, 15
    off K; 12 on K); the sizes themselves are counted by the caller.

    The 6/10/15 entries are the orbits of the unit-eigenvalue fixed point
    of an element of order 5/3/2; the 12 entry is the orbit of the other
    rational eigenvector of an order-5 element and lies on the conic.
    Each orbit is the tuple of `orbit_of`: the fixed point that it is
    built from comes first, then the points by their distance from it in
    generator steps, so a claim that reads an orbit in order names as its
    culprit the first failing point in this order.
    """
    group = reconstruct_group()
    out = {}
    for order, size in ((5, 6), (3, 10), (2, 15)):
        m = group.elements[_first_of_order(group, order)]
        out[size] = orbit_of(_eigenvector(m, rational(1)), group)
    m5 = group.elements[_first_of_order(group, 5)]
    # the two non-unit eigenvalues are primitive fifth roots; both
    # eigenvectors lie on the conic and sweep the same orbit of size 12
    eta = zeta()
    point = None
    for k in range(1, 5):
        try:
            point = _eigenvector(m5, eta ** k)
            break
        except ValueError:
            continue
    if point is None:
        raise ReconstructionError("order-5 element has no rational non-unit eigenvector")
    out[12] = orbit_of(point, group)
    return out


# -- the pencil -----------------------------------------------------------------


def pencil_member(lam, f: Poly3) -> Poly3:
    """Q^3 + lam*f for finite lam; the sextic f itself at infinity."""
    if lam is INFINITY:
        return f
    return q_poly() ** 3 + f * lam


@lru_cache(maxsize=64)
def _derivatives(f: Poly3) -> tuple:
    """The gradients and second partials of Q^3 and of the sextic f."""
    out = []
    for g in (q_poly() ** 3, f):
        grad = g.gradient()
        out += [grad, tuple(d.gradient() for d in grad)]
    return tuple(out)


@lru_cache(maxsize=None)
def singular_point(p, f: Poly3) -> tuple:
    """The parameter lam whose member of Q^3 + lam*f is singular at p, and
    whether p is an ordinary double point of that member.

    Solves grad(Q^3)(p) + lam * grad(f)(p) = 0, for the sextic f (F
    itself, or a perturbed copy).  lam is a field element, INFINITY when
    grad f vanishes but grad Q^3 does not, or None when no single
    parameter works (and then p is no node).  p is a node iff the
    quadratic part of the member in an affine chart at p, read from
    HQ^3(p) + lam*Hf(p) (Hf(p) at infinity), is a nondegenerate binary
    form.  Computed once per (point, sextic).  The answer does not depend
    on the representative of p: both gradients have degree 5, so k*p
    scales them by k^5 and keeps lam, and the Hessian entries have degree
    4, so b^2 - ac scales by k^8.
    """
    grad_q, hess_q, grad_f, hess_f = _derivatives(f)
    gq = tuple(d.evaluate(p) for d in grad_q)
    gf = tuple(d.evaluate(p) for d in grad_f)
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
            return hess_f[i][j].evaluate(p)
        return hess_q[i][j].evaluate(p) + lam * hess_f[i][j].evaluate(p)
    a, b, c = (entry(i, j) for i, j in ((u, u), (u, v), (v, v)))
    return lam, b * b - a * c != rational(0)
