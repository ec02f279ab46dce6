"""Molien series and Reynolds-operator invariant spaces for a matrix group.

Two independent computations of the invariant dimensions: the Molien
average of 1/det(I - T*g) as an exact power series, and explicit bases
obtained by averaging monomials over the group.  The averaging goes
through the monomial subgroup N (for the icosahedral group a D10): an
element of N sends a monomial to a scalar times a monomial, so the
average over N is read off directly, only one representative per right
coset N*r needs a polynomial substitution, and only one monomial per
N-orbit needs averaging.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cyclo import rational
from .linalg import Matrix
from .perms import FiniteGroup
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
    1 - tr(m) T + e2(m) T^2 - det(m) T^3, e2 the sum of principal 2x2 minors."""
    e2 = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
          + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
          + m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
    return [rational(1), -m.trace(), e2, -m.det()]


def molien_series(mats, nterms: int = 31):
    """Rational coefficients of (1/|G|) sum over g of 1/det(I - T*g).

    Returns the first `nterms` coefficients.  Raises if any coefficient
    fails to be a nonnegative integer (a non-group input).
    """
    mats = list(mats)
    total = [rational(0)] * nterms
    for m in mats:
        rec = _series_reciprocal(_molien_denominator(m), nterms)
        total = [t + r for t, r in zip(total, rec)]
    out = []
    for c in total:
        v = c / len(mats)
        if not v.is_rational():
            raise ValueError(f"non-rational Molien coefficient {v}")
        q = v.to_fraction()
        if q.denominator != 1 or q < 0:
            raise ValueError(f"non-integer Molien coefficient {q}")
        out.append(q)
    return out


def molien_closed_form(nterms: int = 31):
    """Expansion of (1 + T^15) / ((1-T^2)(1-T^6)(1-T^10))."""
    den = [rational(0)] * 19
    # (1-T^2)(1-T^6)(1-T^10) = 1 - T^2 - T^6 + T^8 - T^10 + T^12 + T^16 - T^18
    for k, c in ((0, 1), (2, -1), (6, -1), (8, 1), (10, -1), (12, 1), (16, 1), (18, -1)):
        den[k] = rational(c)
    rec = _series_reciprocal(den, nterms)
    out = []
    for k in range(nterms):
        v = rec[k] + (rec[k - 15] if k >= 15 else rational(0))
        out.append(v.to_fraction())
    return out


def _monomial_action(m: Matrix):
    """(columns, scalars) if m has one nonzero entry per row and column,
    so that z_i -> scalars[i] * z_columns[i]; None otherwise."""
    nonzero = [(i, j) for i in range(3) for j in range(3) if m[i, j]]
    cols = tuple(j for _, j in nonzero)
    if [i for i, _ in nonzero] != [0, 1, 2] or sorted(cols) != [0, 1, 2]:
        return None
    return cols, tuple(m[i, j] for i, j in nonzero)


class ReynoldsAverager:
    """Average of monomials over a finite matrix group, factored through
    its monomial subgroup N.

    The list must be a group: `FiniteGroup` raises ValueError otherwise.
    The monomial matrices of a matrix group form a subgroup N, and one
    representative r per right coset N*r is read from the Cayley table.
    Then the average of f o g over the group equals the average over the
    representatives r of (sum over N of f o n) o r, divided by |N|.  An
    element of N sends a monomial to a scalar times a monomial, so the
    inner sum needs no substitution (and is 0 for a monomial of nonzero
    weight under the diagonal part of N); each representative
    substitutes through one `Substitution`, shared by all the monomials
    of an `averages` call.
    """

    def __init__(self, mats):
        group = FiniteGroup(mats)
        self.count = len(group)
        actions = [_monomial_action(m) for m in group.elements]
        sub = [n for n, action in enumerate(actions) if action is not None]
        self.subgroup = [actions[n] for n in sub]
        self.reps, seen = [], set()
        for g, m in enumerate(group.elements):
            if g not in seen:
                self.reps.append(m)
                seen.update(group.table[n][g] for n in sub)

    def _subgroup_images(self, expo):
        """(exponent, scalar) of z^expo o n for each n in N."""
        for cols, scalars in self.subgroup:
            img = [0, 0, 0]
            coef = rational(1)
            for i, k in enumerate(expo):
                img[cols[i]] = k
                coef = coef * scalars[i] ** k
            yield tuple(img), coef

    def orbit_representatives(self, monos):
        """One exponent triple of `monos` per N-orbit.  z^e o n is a nonzero
        multiple of another monomial z^e', and averaging over the list
        absorbs n, so e and e' have proportional averages."""
        reps, seen = [], set()
        for expo in monos:
            if expo not in seen:
                reps.append(expo)
                seen.update(img for img, _ in self._subgroup_images(expo))
        return reps

    def averages(self, expos):
        """Reynolds projections of several monomials: the list averages of
        z^e o g.  The representatives are taken one at a time, each
        through one `Substitution` that every monomial shares, so only
        one set of power tables is alive at once."""
        inners = [sum((Poly3.monomial(img, c) for img, c in self._subgroup_images(e)),
                      Poly3.zero()) for e in expos]
        sums = [Poly3.zero()] * len(inners)
        for r in self.reps:
            sub = Substitution(r)
            sums = [acc + sub.apply(inner) if inner.terms else acc
                    for acc, inner in zip(sums, inners)]
        return [acc * Fraction(1, self.count) for acc in sums]

    def average(self, expo) -> Poly3:
        """Reynolds projection of a single monomial."""
        return self.averages([expo])[0]


def reynolds_basis(mats, d: int):
    """Exact basis of the degree-d invariants, as a list of Poly3.

    Averages one degree-d monomial per orbit of the monomial subgroup and
    row-reduces the resulting coefficient vectors; the reduced echelon
    form depends only on their span, which the other monomials of each
    orbit do not enlarge.  Raises ValueError unless the matrices form a
    group.  Bases are cached per (matrix tuple, d), and the averager per
    matrix tuple; each call returns a new list.
    """
    return list(_reynolds_basis(tuple(mats), d))


@lru_cache(maxsize=8)
def _averager(mats: tuple) -> ReynoldsAverager:
    return ReynoldsAverager(mats)


@lru_cache(maxsize=128)
def _reynolds_basis(mats: tuple, d: int) -> tuple:
    monos = monomials_of_degree(d)
    avg = _averager(mats)
    vectors = []
    for p in avg.averages(avg.orbit_representatives(monos)):
        if not p.is_zero():
            vectors.append([p.coefficient(e) for e in monos])
    if not vectors:
        return ()
    reduced, pivots = Matrix.from_rows(vectors).rref()
    return tuple(Poly3({monos[j]: reduced[r][j] for j in range(len(monos))
                        if not reduced[r][j].is_zero()})
                 for r in range(len(pivots)))


def contains_up_to_scalar(basis, f: Poly3) -> bool:
    """Is f in the span of the basis polynomials?"""
    monos = sorted({e for p in list(basis) + [f] for e in p.terms})
    rows = [[p.coefficient(e) for e in monos] for p in basis]
    rank0 = Matrix.from_rows(rows).rank() if rows else 0
    rows.append([f.coefficient(e) for e in monos])
    return Matrix.from_rows(rows).rank() == rank0
