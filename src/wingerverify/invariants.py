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
its odd coefficients are the equations.  Gal(Q(zeta_5)/Q) permutes the
six lines, so the invariant spaces are defined over Q and are solved
for over Q, on the rational coordinates of each Q(zeta_5) row.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import add

from .cyclo import _mul, _numerators, rational
from .linalg import Matrix, echelon, null_space, rref
from .perms import FiniteGroup, finite_group
from .polys import Poly3, Substitution, _from_numerators, _powers, monomials_of_degree


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
    1 - tr(m) T + tr(adj m) T^2 - det(m) T^3."""
    return [rational(1), -m.trace(), m.adjugate().trace(), -m.det()]


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
    so that z_i -> scalars[i] * z_columns[i]; None otherwise."""
    nonzero = [(i, j) for i in range(3) for j in range(3) if m[i, j]]
    cols = tuple(j for _, j in nonzero)
    if [i for i, _ in nonzero] != [0, 1, 2] or sorted(cols) != [0, 1, 2]:
        return None
    return cols, tuple(m[i, j] for i, j in nonzero)


def reynolds_basis(mats, d: int):
    """Exact basis of the degree-d invariants, as a list of Poly3.

    The invariants are the N-invariants fixed by generators of the group
    outside N (Derksen-Kemper, Computational Invariant Theory, 3.1).  The
    nonzero N-orbit sums of the degree-d monomials have disjoint supports,
    so they are a basis of the N-invariants.  Each extra generator g is
    an involution with eigenbasis P, g P = P D; a combination p of the
    orbit sums is fixed by g exactly when p o P has no odd term (see the
    module docstring), so each orbit sum is substituted once by P, the
    kernel of its odd coefficients is taken over Q (the same subspace as
    the kernel of g - 1), and the invariants it gives are row-reduced
    over the monomials, so the result depends only on the invariant space.

    Precondition: a Galois-stable group generated by N and involutions,
    with rational N-orbit sums; then the Q-kernel has full dimension.  A
    group that needs another generator raises ValueError, as does a
    non-group; outside the rest of the precondition the Q-kernel can only
    shrink, so a dimension claim fails and never passes wrongly (an
    irrational invariant raises ValueError).  Bases are cached per degree
    with the set-up of the matrix tuple, which is looked up once per call;
    each call returns a new list.
    """
    actions, eigen, bases = _reynolds_setup(tuple(mats))
    if d not in bases:
        bases[d] = _reynolds_basis(actions, eigen, d)
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


def _orbit_sums(actions, monos) -> list:
    """The nonzero sums of z^e o n over n in N, one per N-orbit of `monos`;
    `actions` are the (columns, scalars) of the elements of N.  The
    scalars are integer 4-tuples over one denominator, so every term of a
    degree-d sum is over its d-th power and the sums add integers."""
    d = sum(monos[0])
    den, nums = _numerators([s for _, scalars in actions for s in scalars])
    # per element: its columns and the powers 0..d of each of its scalars
    tables = [(cols, [_powers(v, d) for v in nums[3 * k:3 * k + 3]])
              for k, (cols, _) in enumerate(actions)]
    den **= d
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
        orbit_sum = _from_numerators(den, terms)
        if not orbit_sum.is_zero():
            sums.append(orbit_sum)
    return sums


@lru_cache(maxsize=8)
def _reynolds_setup(mats: tuple):
    """What every degree of the group of `mats` reads: the (columns,
    scalars) of the elements of N, and per extra generator a substitution
    by its eigenbasis with the index of its first -1 column; then the
    dict of the bases found so far, by degree, that `reynolds_basis`
    fills."""
    group = finite_group(mats)
    actions = [_monomial_action(m) for m in group.elements]
    sub = [n for n, action in enumerate(actions) if action is not None]
    eigen = [_eigenbasis(group.elements[g]) for g in _extra_generators(group, sub)]
    return ([actions[n] for n in sub],
            [(Substitution(basis), first) for basis, first in eigen], {})


def _reynolds_basis(actions, eigen, d: int) -> tuple:
    monos = monomials_of_degree(d)
    sums = _orbit_sums(actions, monos)
    rows = []
    for subst, first in eigen:
        # the terms y^e of p o P that D negates: an odd degree on the -1 columns
        images = [subst.apply(p) for p in sums]
        rows.extend([q.coefficient(e) for q in images] for e in monos if sum(e[first:]) % 2)
    kernel = null_space(_rational_rows(rows), len(sums))
    fixed = [sum((p * rational(c) for c, p in zip(vec, sums)), Poly3.zero())
             for vec in kernel]
    reduced, _ = rref([[f.coefficient(e).to_fraction() for e in monos] for f in fixed])
    return tuple(Poly3({e: rational(c) for e, c in zip(monos, row) if c})
                 for row in reduced)


def _rational_rows(rows) -> list:
    """The four integer coordinate rows, on 1, zeta, zeta^2, zeta^3, of
    each Q(zeta_5) row cleared of its denominators, zero rows dropped."""
    out = []
    for row in rows:
        _, nums = _numerators(row)
        out.extend(r for r in zip(*nums) if any(r))
    return out


def contains_up_to_scalar(basis, f: Poly3) -> bool:
    """Is f in the Q(zeta_5)-span of the basis polynomials?  For a rational
    basis, iff every rational coordinate of f is in its Q-span."""
    monos = sorted({e for p in list(basis) + [f] for e in p.terms})
    rows = [[p.coefficient(e) for e in monos] for p in basis]
    rank0 = len(echelon(_rational_rows(rows))[1])
    rows.append([f.coefficient(e) for e in monos])
    return len(echelon(_rational_rows(rows))[1]) == rank0
