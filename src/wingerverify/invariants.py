"""Molien series and Reynolds-operator invariant spaces for a matrix group.

Two independent computations of the invariant dimensions: the Molien
average of 1/det(I - T*g) as an exact power series, and explicit bases
obtained by averaging monomials over the group.  The averaging has a
fast path through a diagonal subgroup: a diagonal matrix acts on a
monomial by a scalar, so the inner sum collapses to a weight filter.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import rational
from .linalg import Matrix
from .polys import Poly3, monomials_of_degree


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


def molien_series(mats, nterms: int = 31):
    """Rational coefficients of (1/|G|) sum over g of 1/det(I - T*g).

    Returns the first `nterms` coefficients.  Raises if any coefficient
    fails to be a nonnegative integer (a non-group input).
    """
    mats = list(mats)
    total = [rational(0)] * nterms
    for m in mats:
        # det(I - T*m) read off the characteristic polynomial:
        # charpoly T^3 + a2 T^2 + a1 T + a0 gives 1 + a2 T + a1 T^2 + a0 T^3
        cp = m.charpoly().coeffs  # lowest first: (a0, a1, a2, 1)
        den = [rational(1), cp[2], cp[1], cp[0]]
        rec = _series_reciprocal(den, nterms)
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


class ReynoldsAverager:
    """Group average of monomials, factored through a diagonal subgroup.

    If the group contains a diagonal element d of order 5, each left
    coset rep r contributes avg over j of (m o d^j o r); the inner
    average is the monomial itself when its diagonal weight is 0 mod 5
    and zero otherwise, so only |G|/5 polynomial substitutions remain.
    """

    def __init__(self, mats):
        self.mats = list(mats)
        self.diag = None
        for m in self.mats:
            if (m[0, 1].is_zero() and m[0, 2].is_zero() and m[1, 0].is_zero()
                    and m[1, 2].is_zero() and m[2, 0].is_zero() and m[2, 1].is_zero()
                    and m.order(limit=6) == 5):
                self.diag = m
                break
        if self.diag is not None:
            sub = {Matrix.identity(3)}
            p = self.diag
            while p not in sub:
                sub.add(p)
                p = p * self.diag
            # right cosets H*g, so that m o (h*g) = (m o h) o g and the
            # diagonal action hits the bare monomial
            reps = []
            seen = set()
            for g in self.mats:
                if g in seen:
                    continue
                reps.append(g)
                seen |= {h * g for h in sub}
            self.reps = reps
            # weight of a monomial under diag(e0, e1, e2): the scalar is
            # e0^a e1^b e2^c; record each diagonal entry as a power of the
            # order-5 root by matching against the subgroup powers
            self.weights = self._diagonal_weights()

    def _diagonal_weights(self):
        d = self.diag
        entries = [d[0, 0], d[1, 1], d[2, 2]]
        root = None
        for e in entries:
            if e != rational(1):
                root = e
                break
        powers = {rational(1): 0}
        p = root
        k = 1
        while p != rational(1):
            powers[p] = k
            p = p * root
            k += 1
        return tuple(powers[e] for e in entries)

    def average(self, expo) -> Poly3:
        """Reynolds projection of a single monomial."""
        mono = Poly3.monomial(expo, 1)
        if self.diag is not None:
            a, b, c = expo
            w = (self.weights[0] * a + self.weights[1] * b + self.weights[2] * c) % 5
            if w != 0:
                return Poly3.zero()
            acc = Poly3.zero()
            for r in self.reps:
                acc = acc + mono.act(r)
            return acc * Fraction(1, len(self.reps))
        acc = Poly3.zero()
        for m in self.mats:
            acc = acc + mono.act(m)
        return acc * Fraction(1, len(self.mats))


def reynolds_basis(mats, d: int):
    """Exact basis of the degree-d invariants, as a list of Poly3.

    Averages every degree-d monomial over the group and row-reduces the
    resulting coefficient vectors.
    """
    monos = monomials_of_degree(d)
    avg = ReynoldsAverager(mats)
    vectors = []
    for expo in monos:
        p = avg.average(expo)
        if not p.is_zero():
            vectors.append([p.coefficient(e) for e in monos])
    if not vectors:
        return []
    reduced, pivots = Matrix.from_rows(vectors).rref()
    basis = []
    for r in range(len(pivots)):
        basis.append(Poly3({monos[j]: reduced[r][j] for j in range(len(monos))
                            if not reduced[r][j].is_zero()}))
    return basis


def contains_up_to_scalar(basis, f: Poly3) -> bool:
    """Is f in the span of the basis polynomials?"""
    monos = sorted({e for p in list(basis) + [f] for e in p.terms})
    rows = [[p.coefficient(e) for e in monos] for p in basis]
    rank0 = Matrix.from_rows(rows).rank() if rows else 0
    rows.append([f.coefficient(e) for e in monos])
    return Matrix.from_rows(rows).rank() == rank0
