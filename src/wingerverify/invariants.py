"""Molien series and explicit invariant bases for a matrix group.

Two independent computations of the invariant dimensions: the Molien
average of 1/det(I - T*g) as an exact power series, and explicit bases
by the linear algebra method.  An element of the monomial subgroup N
(for the icosahedral group a D10) sends a monomial to a scalar times a
monomial, so the N-invariants are spanned by N-orbit sums read off
without substitution; the invariants of the group are the N-invariants
fixed by a few extra generators, found by a generation check.  Each
extra generator g is an involution, taken in its eigenbasis: with
g P = P D for D = diag(+-1), p o g = p exactly when q = p o P is fixed
by D, that is when q has no term whose exponents on the -1 columns add
up to an odd number.  So each orbit sum is substituted once, by P, and
only the odd half of its image is formed (`Substitution.numerators`):
its coefficients are the equations.  Gal(Q(zeta_5)/Q) permutes the
six lines, so the invariant spaces are defined over Q and are solved
for over Q, on integers from the orbit sums to the reduced basis: an
odd monomial gives four integer rows, the coordinates on 1, zeta,
zeta^2, zeta^3 of its coefficients, and one fraction-free Gauss-Jordan
pass (`linalg.gauss_jordan`) gives the kernel as integer vectors.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import gcd, lcm
from operator import add

from .cyclo import _ZERO, _make, _mul, rational
from .linalg import Matrix, echelon, gauss_jordan, kernel_basis
from .perms import FiniteGroup, finite_group
from .polys import Poly3, Substitution, _from_numerators, monomials_of_degree


def _series_reciprocal(den, nterms: int):
    """Power series 1/den to nterms coefficients; den[0] must be invertible."""
    inv0 = den[0].inv()
    out = [inv0]
    for k in range(1, nterms):
        acc = rational(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc = acc + den[j] * out[k - j]
        out.append(-(acc * inv0))
    return out


def _molien_denominator(m: Matrix):
    """Coefficients of det(I - T*m) for a 3x3 m, lowest first:
    1 - tr(m) T + tr(adj m) T^2 - det(m) T^3, with tr(adj m) and det(m)
    read from one cofactor pass."""
    den, adj, det = m._cofactors()
    return [rational(1), -m.trace(), _make(*map(sum, zip(adj[0], adj[4], adj[8])), den * den),
            _make(*(-x for x in det), den ** 3)]


def molien_series(mats, nterms: int = 31):
    """The first `nterms` coefficients of (1/|G|) sum over g of
    1/det(I - T*g), as Q(zeta_5) elements.

    For a group they are the nonnegative integer invariant dimensions; a
    list that is no group gives whatever the average is, and the caller
    compares it with the closed form.  Each distinct denominator is
    expanded once and weighted by the number of elements that share it
    (the 60 icosahedral matrices have 5, one per characteristic polynomial).
    """
    mats = list(mats)
    total = [rational(0)] * nterms
    dens = Counter(tuple(_molien_denominator(m)) for m in mats)
    for den, count in dens.items():
        rec = _series_reciprocal(den, nterms)
        total = [t + r * count for t, r in zip(total, rec)]
    return [c / len(mats) for c in total]


def molien_closed_form(nterms: int = 31):
    """Expansion of (1 + T^15) / ((1-T^2)(1-T^6)(1-T^10)), as ints: the
    coefficient of T^k counts the a, b, c >= 0 with 2a + 6b + 10c = k,
    plus the same count at k - 15."""
    def count(k):  # 0 for k < 0, where both ranges are empty
        return sum((k - 10 * c - 6 * b) % 2 == 0
                   for c in range(k // 10 + 1) for b in range((k - 10 * c) // 6 + 1))
    return [count(k) + count(k - 15) for k in range(nterms)]


def _monomial_action(m: Matrix):
    """(columns, scalars) if m has one nonzero entry per row and column,
    so that z_i -> scalars[i] * z_columns[i], the scalars as their
    numerators over m.den; None otherwise."""
    nonzero = [divmod(k, 3) for k, n in enumerate(m.nums) if any(n)]
    cols = tuple(j for _, j in nonzero)
    if [i for i, _ in nonzero] != [0, 1, 2] or sorted(cols) != [0, 1, 2]:
        return None
    return cols, tuple(m.nums[3 * i + j] for i, j in nonzero)


def _monomial_tables(mats):
    """(den, tables) for the monomial matrices `mats`: den the lcm of
    their denominators and, per matrix, its columns and for each of its
    three scalars, as numerators v over den, the power table [1, v],
    which `_orbit_sums` extends on demand."""
    den = lcm(*(m.den for m in mats))
    tables = []
    for m in mats:
        cols, scalars = _monomial_action(m)
        s = den // m.den
        tables.append((cols, [[(1, 0, 0, 0), tuple(x * s for x in v)] for v in scalars]))
    return den, tables


def reynolds_basis(mats, d: int):
    """Exact basis of the degree-d invariants, as a list of Poly3.

    The invariants are the N-invariants fixed by generators of the group
    outside N (Derksen-Kemper, Computational Invariant Theory, 3.1).  The
    nonzero N-orbit sums of the degree-d monomials have disjoint supports,
    so they are a basis of the N-invariants.  Each extra generator g is
    an involution with eigenbasis P, g P = P D; a combination p of the
    orbit sums is fixed by g exactly when p o P has no odd term (see the
    module docstring), so only the odd half of each orbit sum's image by
    P is formed, and the kernel of its coefficients is taken over Q (the
    same subspace as the kernel of g - 1).  It is taken on integers: the
    images of one generator are brought to the lcm of their own
    denominators, so each odd monomial gives four integer rows with no
    field element built; each row is divided by its content, with its
    first nonzero entry positive, and kept once, since equal rows cut out
    the same hyperplane and the kernel stays exact.  The kernel's integer
    vectors weight the orbit sums, whose disjoint supports give the
    invariants' integer rows over the monomials; a second Gauss-Jordan
    pass reduces them, so the result depends only on the invariant space,
    and a `Cyclo` is built only for each output coefficient.

    Precondition: a Galois-stable group generated by N and involutions,
    with rational N-orbit sums; then the Q-kernel has full dimension.  A
    group that needs another generator raises ValueError, as does a
    non-group; outside the rest of the precondition the Q-kernel can only
    shrink, so a dimension claim fails and never passes wrongly (an
    irrational invariant raises ValueError).  Bases are cached per degree
    with the set-up of the matrix tuple, which is looked up once per call;
    each call returns a new list.
    """
    monomial, eigen, bases = _reynolds_setup(tuple(mats))
    if d not in bases:
        bases[d] = _reynolds_basis(monomial, eigen, d)
    return list(bases[d])


def _extra_generators(group: FiniteGroup, sub) -> list:
    """Elements that generate the group together with `sub`, involutions
    tried first: each element not yet in the generated subgroup is added,
    so the loop proves generation instead of assuming it.  For the
    icosahedral group one involution outside N = D10 suffices, since D10
    is maximal in A5."""
    extra, generated = [], group.generated(sub)
    for g in sorted(range(len(group)), key=lambda g: group.orders[g] != 2):
        if g not in generated:
            extra.append(g)
            generated = group.generated(sub + extra)
    return extra


def _kernel(m: Matrix) -> list:
    """A basis of the right null space of a 3x3 m of any rank: one adjugate
    column at rank 2 (`Matrix.kernel`); at rank 1, with a nonzero row r
    whose last nonzero entry is r_k, the r_k e_j - r_j e_k for j != k,
    each with a zero entry; at rank 0 the unit vectors."""
    try:
        return m.kernel()
    except ValueError:  # rank below 2
        pass
    r = next((m.row(i) for i in range(3) if any(m.row(i))), None)
    if r is None:
        return [tuple(int(i == j) for i in range(3)) for j in range(3)]
    k = max(j for j in range(3) if r[j])
    return [tuple(r[k] if i == j else -r[j] if i == k else 0 for i in range(3))
            for j in range(3) if j != k]


def _eigenbasis(g: Matrix):
    """(P, first) for an involution g: the columns of P are a basis of
    ker(g - I), then from column `first` on one of ker(g + I), so that
    g P = P D for D = diag(+-1).  ValueError when they are not three,
    which is exactly when g^2 != I."""
    plus, minus = (_kernel(g - Matrix.diagonal([sign] * 3)) for sign in (1, -1))
    if len(plus) + len(minus) != 3:
        raise ValueError("an extra generator is not an involution")
    return Matrix.from_rows(zip(*plus, *minus)), len(plus)


def _orbit_sums(monomial, monos):
    """(den, sums): the nonzero sums of z^e o n over n in N, one per
    N-orbit of `monos`, as numerator dicts {expo: nums} over den;
    `monomial` is the (den, tables) of `_monomial_tables` for the
    elements of N, whose power tables are extended to the degree d of
    `monos`.  The scalars are integer 4-tuples over one denominator, so
    every term of a degree-d sum is over its d-th power and the sums add
    integers."""
    d = sum(monos[0])
    den, tables = monomial
    for _, powers in tables:
        for table in powers:
            while len(table) <= d:
                table.append(_mul(table[-1], table[1]))
    sums, seen = [], set()
    for expo in monos:
        if expo in seen:
            continue
        e0, e1, e2 = expo
        terms = {}
        for (c0, c1, c2), (p0, p1, p2) in tables:
            img = [0, 0, 0]
            img[c0], img[c1], img[c2] = expo
            img = tuple(img)
            coef = _mul(_mul(p0[e0], p1[e1]), p2[e2])
            cur = terms.get(img)
            terms[img] = coef if cur is None else tuple(map(add, cur, coef))
        seen.update(terms)
        terms = {e: n for e, n in terms.items() if any(n)}
        if terms:
            sums.append(terms)
    return den ** d, sums


@lru_cache(maxsize=8)
def _reynolds_setup(mats: tuple):
    """What every degree of the group of `mats` reads: the power tables
    of the elements of N (`_monomial_tables`), and per extra generator a
    substitution by its eigenbasis with the index of its first -1
    column, both extended as the degrees need them; then the dict of the
    bases found so far, by degree, that `reynolds_basis` fills."""
    group = finite_group(mats)
    sub = [n for n, m in enumerate(group.elements) if _monomial_action(m) is not None]
    eigen = [_eigenbasis(group.elements[g]) for g in _extra_generators(group, sub)]
    return (_monomial_tables([group.elements[n] for n in sub]),
            [(Substitution(basis), first) for basis, first in eigen], {})


def _reynolds_basis(monomial, eigen, d: int) -> tuple:
    monos = monomials_of_degree(d)
    den, sums = _orbit_sums(monomial, monos)
    rows = {}  # the distinct primitive equations, in order
    for subst, first in eigen:
        images = [subst.numerators(den, p, first) for p in sums]
        common = lcm(*(d for d, _ in images))
        images = [(common // d, nums) for d, nums in images]
        for e in dict.fromkeys(e for _, nums in images for e in nums):
            coords = [tuple(x * s for x in nums.get(e, _ZERO)) for s, nums in images]
            for row in zip(*coords):
                g = gcd(*row)
                if g:
                    g = g if next(x for x in row if x) > 0 else -g
                    rows[tuple(x // g for x in row)] = None
    index = {e: i for i, e in enumerate(monos)}
    fixed = []
    for vec in kernel_basis(list(rows), len(sums)):
        row = [0] * len(monos)
        for v, p in zip(vec, sums):
            if v:
                for e, (n, *irrational) in p.items():
                    if any(irrational):
                        raise ValueError("an invariant orbit sum is not rational")
                    row[index[e]] = v * n
        fixed.append(row)
    reduced, pivots = gauss_jordan(fixed)
    return tuple(_from_numerators(row[c], {e: (x, 0, 0, 0) for e, x in zip(monos, row)})
                 for row, c in zip(reduced, pivots))


def contains_up_to_scalar(basis, f: Poly3) -> bool:
    """Is f in the Q(zeta_5)-span of the basis polynomials?  For a rational
    basis, iff every rational coordinate of f is in its Q-span; a form's
    rows are its numerators' coordinates on 1, zeta, zeta^2, zeta^3."""
    polys = [*basis, f]
    monos = sorted({e for p in polys for e in p.nums})
    rows = [[r for r in zip(*(p.nums.get(e, _ZERO) for e in monos)) if any(r)] for p in polys]
    span = sum(rows[:-1], [])
    return len(echelon(span)[1]) == len(echelon(span + rows[-1])[1])
