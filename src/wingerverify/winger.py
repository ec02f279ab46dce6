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

The search, the orbit closures and the singular-point test run on
integer numerators in Z[zeta_5]; a `Cyclo` is built only for what a
caller reads: an orbit point, a returned lam.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, permutations
from math import gcd
from operator import sub

from .cyclo import _dot, _inverse_parts, _make, _mul, _numerators, rational, zeta
from .linalg import Matrix, _minor
from .perms import FiniteGroup, closure, finite_group
from .polys import Point, Poly3


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
    """The sort key of the matrices, read from the integer form: per
    entry, its numerators and den divided by their gcd, the entry's
    canonical (numerators, den)."""
    return tuple((tuple(x // g for x in n), m.den // g)
                 for n in m.nums for g in [gcd(m.den, *n)])


def _triple_scalings(brackets, triple):
    """The realized permutations sigma with sigma(0..2) = `triple`, as a
    dict from (sigma(3), sigma(4), sigma(5)) to a multiple of the scaling
    c, as three integer 4-tuples: no field element is built, and the
    multiple is left as it comes, since `_rescale` cancels it.

    M = B^-1 diag(c) C sends L_{sigma(i)} to c_i L_i for i < 3, where B
    holds the rows L_{sigma(0..2)} and C the rows L_{0..2}.  For i >= 3
    it sends L_{sigma(i)} to a multiple of L_i iff w ⊙ c is proportional
    to u, with w = B^-T L_{sigma(i)} and u = C^-T L_i.  When no three
    lines meet, neither vector has a zero entry and c is the point u / w,
    taken entry by entry: sigma is realized iff its three points agree.
    By Cramer's rule w is proportional to ([j s1 s2], [s0 j s2], [s0 s1 j])
    for j = sigma(i) and (s0, s1, s2) = `triple`, and u to ([i 1 2],
    [0 i 2], [0 1 i]), read from the integer `brackets` (`line_brackets`).
    Two such points agree iff their ratios u0/w0 : uk/wk for k = 1, 2 do,
    each the pair (u0 wk, uk w0): the scan compares cross products and
    inverts nothing.
    """
    s0, s1, s2 = triple
    us = [(brackets[i, 1, 2], brackets[0, i, 2], brackets[0, 1, i]) for i in range(3, 6)]
    ws = {j: (brackets[j, s1, s2], brackets[s0, j, s2], brackets[s0, s1, j])
          for j in range(6) if j not in triple}

    def ratio(k, j, i):
        u, w = us[k], ws[j]
        return _mul(u[0], w[i]), _mul(u[i], w[0])
    heads = {(j, k): ratio(k, j, 1) for j in ws for k in (0, 1)}
    out = {}
    for rest in permutations(ws):
        # one ratio of the first two points rules out most orders
        x1 = heads[rest[0], 0]
        if not _same(x1, heads[rest[1], 1]):
            continue
        x2, y2, z2 = (ratio(k, j, 2) for k, j in enumerate(rest))
        if _same(x2, y2) and _same(x1, ratio(2, rest[2], 1)) and _same(x2, z2):
            # u0 w0 w1 w2 times the point u / w, from its two ratios
            out[rest] = _mul(x1[0], x2[0]), _mul(x1[1], x2[0]), _mul(x1[0], x2[1])
    return out


def _same(p, q):
    """Whether the pairs p and q of integer 4-tuples are proportional."""
    return _mul(p[0], q[1]) == _mul(p[1], q[0])


def _rescale(m, gram):
    """The multiple of a matrix M that preserves the symmetric form of
    `gram` exactly with det 1, or None when M does not preserve it up to
    a scalar; the invariance-conic-sextic-form claim checks both on the
    60 results.  M is given as m = (nums, det) for any nonzero multiple
    N = k*M: its nine entries, row by row, as integer 4-tuples, and the
    integer 4-tuple det N.

    N^T G N, for the numerators G of `gram` over g, is checked against G
    on its six entries i <= j, each a sum over the nonzero entries of G.
    M^T A M = s A forces det(M)^2 = s^3, so t = s/det(M) satisfies
    t^2 = 1/s and t*M keeps the form exactly with det 1.  As
    N^T G N = k^2 g s A = k^2 s G and det N = k^3 det(M), s is read at the
    first nonzero entry G_q of G as s_q / (k^2 G_q), s_q = (N^T G N)_q,
    and t*M = s_q N / (G_q det N), in which k cancels."""
    nums, det = m
    terms = [(k // 3, k % 3, g) for k, g in enumerate(gram.nums) if any(g)]
    # G_pq N_pi per term, then (N^T G N)_ij = sum of G_pq N_pi N_qj
    left = [[_mul(g, x) for x in nums[3 * p:3 * p + 3]] for p, _, g in terms]
    s = {(i, j): _dot([row[i] for row in left], [nums[3 * q + j] for _, q, _ in terms])
         for i in range(3) for j in range(i, 3)}
    p, q, g_q = terms[0]  # p <= q, as G is symmetric
    s_q = s[p, q]
    if not any(s_q) or any(_mul(x, g_q) != _mul(s_q, gram.nums[3 * i + j])
                           for (i, j), x in s.items()):
        return None
    rest, norm = _inverse_parts(_mul(g_q, det))
    t = _mul(s_q, rest)
    return Matrix._of(norm, [_mul(t, x) for x in nums])


@lru_cache(maxsize=None)
def reconstruct_group() -> FiniteGroup:
    """The matrices that permute the six lines and keep the form of Q
    with det 1, sorted, as a `FiniteGroup`.  Raises ReconstructionError
    naming the triple that `concurrent_triple` finds, since every bracket
    of the search must be nonzero, when no permutation that passes the
    line test keeps the form, or when the survivors are not closed (no
    Cayley table); the claims judge the rest: their number, classes,
    traces and invariance.

    The search inverts no matrix.  Every point is read from the 20
    integer brackets of the lines (`_triple_scalings`), and each survivor
    is built on integers, in one pass, as N = adj(B) diag(c) C, which is
    det(B) times B^-1 diag(c) C: on the numerators over D of
    `line_crosses`, column k of adj(B) is the cross product of the other
    two rows of B, so N_ij = sum_k (adj B)_ik c_k C_kj, and
    det N = det(B)^2 c_0 c_1 c_2 det(C) is read from the brackets.
    `_rescale` removes the scalar, since k*M scales s by k^2 and det by
    k^3; only its result is built as a `Matrix`."""
    rows = six_lines()
    meet = concurrent_triple(rows)
    if meet is not None:
        raise ReconstructionError(f"three of the six lines are concurrent: {list(meet)}")
    brackets = line_brackets(rows)
    lines, crosses = line_crosses(rows)
    gram = gram_matrix()
    found, realized = set(), 0
    # the 720 permutations share 120 ordered triples sigma(0..2), and adj(B)
    # and the points u / w depend on the triple alone
    for s0, s1, s2 in permutations(range(6), 3):
        scalings = _triple_scalings(brackets, (s0, s1, s2))
        if not scalings:
            continue
        realized += len(scalings)
        adj = list(zip(crosses[s1, s2], crosses[s2, s0], crosses[s0, s1]))  # by rows
        det_b = brackets[s0, s1, s2]
        det_bbc = _mul(_mul(det_b, det_b), brackets[0, 1, 2])
        for cs in scalings.values():  # the scale of c cancels in _rescale
            scaled = [[_mul(c, x) for x in lines[k]] for k, c in enumerate(cs)]
            nums = [_dot(adj[i], [row[j] for row in scaled]) for i in range(3) for j in range(3)]
            det = _mul(det_bbc, _mul(_mul(cs[0], cs[1]), cs[2]))
            m = _rescale((nums, det), gram)
            if m is not None:
                found.add(m)
    if not found:
        raise ReconstructionError(f"{realized} permutations pass the line test "
                                  "and none of them keeps the form")
    try:
        return finite_group(tuple(sorted(found, key=_matrix_key)))
    except ValueError as exc:
        raise ReconstructionError(f"survivors do not form a group: {exc}") from exc


@lru_cache(maxsize=None)
def line_crosses(rows: tuple) -> tuple:
    """(nums, crosses) for a tuple of coefficient rows: each row as three
    integer 4-tuples, D times the row for the lcm D of the rows'
    denominators, and for every ordered pair (a, b) of distinct lines the
    cross product of their numerators, D^2 (L_a x L_b); computed once per
    tuple of rows.  The brackets, and the adjugates of the survivor
    search, are read from them."""
    _, flat = _numerators([rational(x) for row in rows for x in row])
    nums = tuple(tuple(flat[i:i + 3]) for i in range(0, len(flat), 3))
    out = {}
    for a, b in combinations(range(len(rows)), 2):
        (a0, a1, a2), (b0, b1, b2) = nums[a], nums[b]
        cross = (_minor(a1, b2, a2, b1), _minor(a2, b0, a0, b2), _minor(a0, b1, a1, b0))
        out[a, b], out[b, a] = cross, tuple(tuple(-x for x in n) for n in cross)
    return nums, out


@lru_cache(maxsize=None)
def line_brackets(rows: tuple) -> dict:
    """[a b c] = det(L_a, L_b, L_c) for every ordered triple of distinct
    lines (a tuple of coefficient rows), as the integer 4-tuple of D^3
    [a b c] for the lcm D of the rows' denominators; the callers read
    zeros, ratios and the survivors' det N, whose powers of D match N's.
    One determinant per set of three, L_a . (L_b x L_c) on the
    numerators of `line_crosses`, signed by the parity of each order,
    computed once per tuple of rows."""
    nums, crosses = line_crosses(rows)
    out = {}
    for t in combinations(range(len(rows)), 3):
        d = _dot(nums[t[0]], crosses[t[1], t[2]])
        for order, sign in zip(permutations(t), (1, -1, -1, 1, 1, -1)):
            out[order] = d if sign > 0 else tuple(-x for x in d)
    return out


def concurrent_triple(rows):
    """The first index triple of three lines (coefficient rows) through a
    common point, or None when no three of them meet."""
    brackets = line_brackets(tuple(rows))
    return next((t for t in combinations(range(len(rows)), 3) if not any(brackets[t])),
                None)


# -- projective points and irregular orbits ------------------------------------


def _projective_form(nums) -> tuple:
    """The point with the integer 4-tuple coordinates `nums`, scaled so
    that its last nonzero coordinate is 1, as (den, nums) over its least
    common denominator: unique, so it keys the point.  The scale is
    rest / norm for that coordinate (`cyclo._inverse_parts`; the norm is
    positive)."""
    last = next((i for i in (2, 1, 0) if any(nums[i])), None)
    if last is None:
        raise ValueError("zero vector is not a projective point")
    rest, norm = _inverse_parts(nums[last])
    nums = [_mul(n, rest) for n in nums]
    g = gcd(norm, *chain.from_iterable(nums))
    return norm // g, tuple(tuple(x // g for x in n) for n in nums)


def _coordinates(den, nums) -> tuple:
    return tuple(_make(*n, den) for n in nums)


def normalize_point(coords):
    """Scale so the last nonzero coordinate is 1; canonical representative."""
    return _coordinates(*_projective_form(Point(coords).nums))


def orbit_of(point, group: FiniteGroup) -> tuple:
    """The orbit of a projective point, as a tuple of normalized points:
    the `closure` of its normalized form under one move per generator of
    the group, p -> normalize_point(m p), since every element of a finite
    group is a word in its generators.  The moves run on the points'
    integer forms (`_projective_form`), and the coordinates are built
    once per orbit point.  The points come in the order found: the
    normalized point first, then the others by their distance from it in
    generator steps."""
    moves = [lambda p, m=group.elements[s].nums: _projective_form(
                 [_dot(m[i:i + 3], p[1]) for i in (0, 3, 6)])
             for s in group.generators]
    return tuple(_coordinates(*x) for x in closure(_projective_form(Point(point).nums), moves))


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


def _scaled(n, k):
    """The integer 4-tuple n times the integer k."""
    return tuple(x * k for x in n)


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

    Every value is integer numerators over an integer, from one `Point`.
    With lam = -gq_i / gf_i the parameter holds iff gq_j gf_i = gq_i gf_j
    for every j, and the node test reads gf_i HQ^3(p) - gq_i Hf(p), whose
    discriminant is gf_i^2 (b^2 - ac); only lam is built as a `Cyclo`.
    """
    grad_q, hess_q, grad_f, hess_f = _derivatives(f)
    at = Point(p)
    gq = [at.value(d) for d in grad_q]
    gf = [at.value(d) for d in grad_f]
    i = next((i for i, (_, n) in enumerate(gf) if any(n)), None)
    if i is None:
        if not any(any(n) for _, n in gq):
            return None, False  # singular for every parameter; not a pencil datum
        lam = INFINITY
    else:
        (dp, P), (dg, G) = gq[i], gf[i]
        if any(_scaled(_mul(Pj, G), dp * dgj) != _scaled(_mul(P, Gj), dpj * dg)
               for (dpj, Pj), (dgj, Gj) in zip(gq, gf)):
            return None, False
        rest, norm = _inverse_parts(G)
        lam = _make(*_scaled(_mul(P, rest), -dg), dp * norm)
    chart = max(i for i in range(3) if any(at.nums[i]))
    u, v = [i for i in range(3) if i != chart]

    def entry(i, j):
        # (D, N): the entry at infinity, else gf_i times it is N / D up to
        # the factor dg dp common to the three, G/dg hq/dq - P/dp hf/df
        df, hf = at.value(hess_f[i][j])
        if lam is INFINITY:
            return df, hf
        dq, hq = at.value(hess_q[i][j])
        return dq * df, tuple(map(sub, _scaled(_mul(G, hq), dp * df),
                                  _scaled(_mul(P, hf), dg * dq)))
    (da, a), (db, b), (dc, c) = (entry(i, j) for i, j in ((u, u), (u, v), (v, v)))
    # b^2 - ac over da db^2 dc
    return lam, _scaled(_mul(b, b), da * dc) != _scaled(_mul(a, c), db * db)
