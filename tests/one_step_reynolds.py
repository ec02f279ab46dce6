"""Reference invariant bases: each orbit sum substituted in one step.

The N-orbit sums are the sums of z^e o n over every element n of the
monomial subgroup N, and each extra generator g is taken in its own
eigenbasis P, g P = P D: one substitution by P per orbit sum, whose odd
half gives the equations.  `invariants._reynolds_basis` replaced it by
two sparse substitutions, by the eigenbasis E of an involution of N that
commutes with g and then by that of E^-1 g E, and `_orbit_sums` by the
sums read from the character of N's diagonal subgroup; it is kept here
as their reference.
"""

from math import gcd, lcm
from operator import add

from wingerverify.cyclo import _ZERO, _mul
from wingerverify.invariants import _eigenbasis, _extra_generators, _monomial_action
from wingerverify.linalg import gauss_jordan, kernel_basis
from wingerverify.perms import finite_group
from wingerverify.polys import Substitution, _from_numerators, monomials_of_degree


def reynolds_basis(mats, d: int) -> list:
    """The basis of the degree-d invariants of the group of `mats`, by
    the one-step pass, with nothing cached between calls."""
    monomial, eigen, _ = _reynolds_setup(tuple(mats))
    return list(_reynolds_basis(monomial, eigen, d))


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
