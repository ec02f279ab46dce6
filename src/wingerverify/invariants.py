"""Molien series and explicit invariant bases for a matrix group.

Two independent computations of the invariant dimensions: the Molien
average of 1/det(I - T*g) as an exact power series, and explicit bases
by the linear algebra method.  An element of the monomial subgroup N
(for the icosahedral group a D10) sends a monomial to a scalar times a
monomial, so the N-invariants are spanned by N-orbit sums read off
without substitution; the invariants of the group are the N-invariants
fixed by a few extra generators, found by a generation check, each
substituted once per orbit sum.  Gal(Q(zeta_5)/Q) permutes the six
lines, so the invariant spaces are defined over Q and are solved for
over Q, on the rational coordinates of each Q(zeta_5) row.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from .cyclo import _numerators, rational
from .linalg import Matrix, echelon, null_space, rref
from .perms import FiniteGroup, finite_group
from .polys import Poly3, Substitution, monomials_of_degree


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
    so they are a basis of the N-invariants; each extra generator is
    substituted once into each of them, the kernel of g - 1 in that basis
    is taken over Q, and the invariants it gives are row-reduced over the
    monomials, so the result depends only on the invariant space.

    Precondition: a Galois-stable group with rational N-orbit sums; then
    the Q-kernel has full dimension.  Outside it the Q-kernel can only
    shrink, so a dimension claim fails and never passes wrongly (an
    irrational invariant raises ValueError, as does a non-group).  Bases
    are cached per (matrix tuple, d); each call returns a new list.
    """
    return list(_reynolds_basis(tuple(mats), d))


def _extra_generators(group: FiniteGroup, sub) -> list:
    """Elements that generate the group together with `sub`: each element
    not yet in the generated subgroup is added, so the loop proves
    generation instead of assuming it."""
    extra, generated = [], group.generated(sub)
    for g in range(len(group)):
        if g not in generated:
            extra.append(g)
            generated = group.generated(sub + extra)
    return extra


def _orbit_sums(actions, monos) -> list:
    """The nonzero sums of z^e o n over n in N, one per N-orbit of `monos`;
    `actions` are the (columns, scalars) of the elements of N."""
    d = sum(monos[0])
    # per element: its columns and the powers 0..d of each of its scalars
    tables = [(cols, [list(accumulate(repeat(s, d), mul, initial=rational(1)))
                      for s in scalars]) for cols, scalars in actions]
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
            coef = p0[e0] * p1[e1] * p2[e2]
            terms[img] = terms[img] + coef if img in terms else coef
        seen.update(terms)
        orbit_sum = Poly3(terms)
        if not orbit_sum.is_zero():
            sums.append(orbit_sum)
    return sums


@lru_cache(maxsize=8)
def _reynolds_setup(mats: tuple):
    """What every degree of the group of `mats` reads: the (columns,
    scalars) of the elements of N, and a substitution per extra generator."""
    group = finite_group(mats)
    actions = [_monomial_action(m) for m in group.elements]
    sub = [n for n, action in enumerate(actions) if action is not None]
    return ([actions[n] for n in sub],
            [Substitution(group.elements[g]) for g in _extra_generators(group, sub)])


@lru_cache(maxsize=128)
def _reynolds_basis(mats: tuple, d: int) -> tuple:
    actions, substs = _reynolds_setup(mats)
    monos = monomials_of_degree(d)
    sums = _orbit_sums(actions, monos)
    rows = []
    for subst in substs:
        moved = [subst.apply(p) - p for p in sums]
        rows.extend([q.coefficient(e) for q in moved] for e in monos)
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
