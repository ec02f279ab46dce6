"""Branched-cover arithmetic: orbifold signatures, the Riemann-Hurwitz genus,
degeneration combinatorics for the 20 tuple classes, and the binary
icosahedral group as unit quaternions, each its integer numerators over
one least denominator, as a `linalg.Matrix` is (`cyclo._IntegerForm`).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product

from .cyclo import _ZERO, Cyclo, _dot, _IntegerForm, _make, _numerators, rational
from .perms import Perm, alternating_group_5, finite_group
from .hurwitz import enumerate_tuple_classes

CYCLIC_STABILIZER_ORDERS = (1, 2, 3, 5)


def alpha_value(stabilizer_order: int) -> int:
    """Ramification weight 60 - 60/k of an orbit with cyclic stabilizer k."""
    if stabilizer_order not in CYCLIC_STABILIZER_ORDERS:
        raise ValueError(f"stabilizer order {stabilizer_order} not cyclic in the group")
    return 60 - 60 // stabilizer_order


def signature_solutions():
    """All orbifold signatures solving 138 = 120*g + sum of alpha values.

    Exhaustive over base genus and multisets of ramified-orbit weights;
    the bounds cover everything (a single weight is at least 30, so at
    most 4 points fit in 138; genus 1 leaves 18, less than one weight,
    and genus 2 overshoots).
    """
    weight_of = {alpha_value(k): k for k in (2, 3, 5)}
    solutions = []
    for g in (0, 1):
        rest = 138 - 120 * g
        for npts in range(5):
            for combo in combinations_with_replacement(sorted(weight_of), npts):
                if sum(combo) == rest:
                    orders = tuple(sorted((weight_of[w] for w in combo), reverse=True))
                    solutions.append((g, orders))
    return solutions


def riemann_hurwitz_genus(group_order: int, branch_orders):
    """The g of 2g - 2 = -2N + sum over branch points of N(1 - 1/o), as an
    int when it is integral and a Fraction otherwise; it may be negative."""
    n = group_order
    g = 1 - n + sum((n * (1 - Fraction(1, o)) for o in branch_orders), Fraction(0)) / 2
    return int(g) if g.denominator == 1 else g


# n: order of g3*g4 (node-stabilizer generator); nodes: e = 30/n;
# components: v = 60 / |<g1, g2, g3*g4>|; component_genus: an int, a
# Fraction or negative only for a faulty tuple; arithmetic_genus
DegenerationReport = namedtuple(
    "DegenerationReport", "n nodes components component_genus arithmetic_genus")


def degeneration_report(t) -> DegenerationReport:
    """Combinatorics of the degenerate cover where slots 3 and 4 coalesce.

    The coalesced monodromy is h = g3*g4 of order n (2, 3 or 5 for the
    tuple classes; the degeneration-reports claim judges the shapes); the
    normalization has one component per coset of H = <g1, g2, h>, each a
    regular H-cover of the line branched over (ord g1, ord g2, n), and
    the nodes form one orbit with stabilizer of order 2n.  The genus is
    not checked: a negative or non-integral one is a shape that the claim
    rejects.  The tuple holds A5 element indices.
    """
    a5 = alternating_group_5()
    g1, g2, g3, g4 = t
    h = a5.table[g3][g4]
    n = a5.orders[h]
    e = 60 // (2 * n)
    order = len(a5.generated((g1, g2, h)))
    v = 60 // order
    genus = riemann_hurwitz_genus(order, (a5.orders[g1], a5.orders[g2], n))
    p_a = v * genus + 1 - v + e
    return DegenerationReport(n=n, nodes=e, components=v,
                              component_genus=genus, arithmetic_genus=p_a)


def all_degeneration_reports():
    return [(cls, degeneration_report(cls)) for cls in enumerate_tuple_classes("rtl")]


# -- binary icosahedral group as unit quaternions -------------------------------


def _negated(n):
    return tuple(-x for x in n)


class Quaternion(_IntegerForm):
    """Quaternion over Q(zeta_5) on (1, i, j, k): coordinate k is nums[k] /
    den, in the canonical `cyclo._IntegerForm` of a `linalg.Matrix`, so
    the Hamilton product multiplies integers; the coordinates a, b, c, d
    and the norm are `Cyclo`s built when read."""

    __slots__ = ()

    def __new__(cls, a, b, c, d):
        return Quaternion._of(*_numerators((rational(a), rational(b), rational(c), rational(d))))

    a, b, c, d = (property(lambda q, k=k: q._entry(k)) for k in range(4))

    def __mul__(self, o):
        """The Hamilton product: each coordinate is a sum of four signed
        products of numerators, in Z[zeta_5]."""
        a1, b1, c1, d1 = self.nums
        a2, b2, c2, d2 = o.nums
        nb1, nc1, nd1 = _negated(b1), _negated(c1), _negated(d1)
        return Quaternion._of(self.den * o.den, (
            _dot((a1, nb1, nc1, nd1), (a2, b2, c2, d2)),
            _dot((a1, b1, c1, nd1), (b2, a2, d2, c2)),
            _dot((a1, nb1, c1, d1), (c2, d2, a2, b2)),
            _dot((a1, b1, nc1, d1), (d2, c2, b2, a2))))

    def __neg__(self):
        return Quaternion._of(self.den, tuple(map(_negated, self.nums)))

    def norm(self) -> Cyclo:
        return _make(*_dot(self.nums, self.nums), self.den * self.den)

    def sort_key(self):
        """The integer form, the four numerator tuples, then den; it
        orders the units of the binary checks."""
        return self.nums, self.den

    def __repr__(self):
        return f"({self.a}) + ({self.b})i + ({self.c})j + ({self.d})k"


def _even_permutations4():
    return [p for p in permutations(range(4)) if Perm(i + 1 for i in p).is_even()]


def binary_icosahedral_group():
    """The 120 icosian unit quaternions, all of norm 1.

    The 24 Hurwitz units (±1, ±i, ±j, ±k and (±1±i±j±k)/2) together with
    the 96 even coordinate permutations of (0, ±1, ±phi, ±1/phi)/2, each
    built from its numerators over 2: phi = -(zeta^2 + zeta^3) and
    1/phi = phi - 1 = -1 - zeta^2 - zeta^3.
    """
    units = set()
    for i in range(4):
        for s in (2, -2):
            units.add(Quaternion._of(2, [(s, 0, 0, 0) if k == i else _ZERO for k in range(4)]))
    for signs in product((1, -1), repeat=4):
        units.add(Quaternion._of(2, [(s, 0, 0, 0) for s in signs]))
    base = (_ZERO, (1, 0, 0, 0), (0, 0, -1, -1), (-1, 0, -1, -1))  # 0, 1, phi, 1/phi
    for perm in _even_permutations4():
        for signs in product((1, -1), repeat=3):
            sign = (1, *signs)  # by base value: the zero keeps its sign
            units.add(Quaternion._of(2, [tuple(sign[p] * x for x in base[p]) for p in perm]))
    return frozenset(units)


def binary_icosahedral_checks():
    """Closure, norms, center, perfectness and the quotient class sizes.
    The group is built on the units sorted by their integer form, so its
    element order, and the generators that `FiniteGroup` finds, do not
    depend on the hash."""
    units = binary_icosahedral_group()
    one = Quaternion(1, 0, 0, 0)
    report = {}
    report["order"] = len(units)
    report["norm_one"] = all(q.norm() == rational(1) for q in units)
    try:
        group = finite_group(tuple(sorted(units, key=Quaternion.sort_key)))
    except ValueError:
        report["closed"] = False
        return report
    report["closed"] = True
    center = group.centre()
    report["center_order"] = len(center)
    report["center_is_pm1"] = {group.elements[i] for i in center} == {one, -one}
    # perfect iff the commutators regenerate the whole group
    report["abelianization_order"] = len(group) // len(group.derived())
    # a class of the central quotient is the image of a class C of the
    # group, whose preimage is Z*C
    images = {frozenset(group.table[z][g] for z in center for g in cls)
              for cls in group.classes}
    report["quotient_class_sizes"] = sorted(len(c) // len(center) for c in images)
    return report
