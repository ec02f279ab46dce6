"""Branched-cover arithmetic: orbifold signatures, genera of regular covers,
degeneration combinatorics for the 20 tuple classes, the homology-lattice
character identity, and the binary icosahedral group as unit quaternions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from .characters import (a5_table, decompose, induced_character,
                         sign_class_function, sym_cube)
from .cyclo import Cyclo, golden, rational
from .perms import Perm, alternating_group_5, finite_group, parse_cycles
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


def regular_cover_genus(group_order: int, branch_orders) -> int:
    """Genus of a regular cover of P^1 from the Riemann-Hurwitz count.

    2g - 2 = -2N + sum over branch points of N(1 - 1/o).
    """
    n = group_order
    total = Fraction(-2 * n)
    for o in branch_orders:
        if n % o:
            raise ValueError(f"branch order {o} does not divide the group order {n}")
        total += Fraction(n) * (1 - Fraction(1, o))
    if total % 2:
        raise ValueError("odd Riemann-Hurwitz total; inconsistent data")
    g = (total + 2) / 2
    if g.denominator != 1 or g < 0:
        raise ValueError(f"non-integral or negative genus {g}")
    return int(g)


@dataclass(frozen=True)
class DegenerationReport:
    n: int            # order of g3*g4 (node-stabilizer generator)
    nodes: int        # e = 30/n
    components: int   # v = 60 / |<g1, g2, g3*g4>|
    component_genus: int
    arithmetic_genus: int


def degeneration_report(t) -> DegenerationReport:
    """Combinatorics of the degenerate cover where slots 3 and 4 coalesce.

    The coalesced monodromy is h = g3*g4 of order n in {2,3,5}; the
    normalization has one component per coset of H = <g1, g2, h>, each a
    regular H-cover of the line branched over (ord g1, ord g2, n), and
    the nodes form one orbit with stabilizer of order 2n.  The tuple
    holds A5 element indices.
    """
    a5 = alternating_group_5()
    g1, g2, g3, g4 = t
    h = a5.table[g3][g4]
    n = a5.orders[h]
    if n not in (2, 3, 5):
        raise ValueError(f"coalesced monodromy has order {n}")
    e = 60 // (2 * n)
    order = len(a5.generated((g1, g2, h)))
    v = 60 // order
    genus = regular_cover_genus(order, (a5.orders[g1], a5.orders[g2], n))
    p_a = v * genus + 1 - v + e
    return DegenerationReport(n=n, nodes=e, components=v,
                              component_genus=genus, arithmetic_genus=p_a)


def all_degeneration_reports():
    return [(cls, degeneration_report(cls.rep)) for cls in enumerate_tuple_classes("rtl")]


def homology_character_check():
    """The rank-10 lattice character and its doubled decomposition.

    Induces the order-parity sign character from a 6-element subgroup
    generated by a 3-cycle and a commuting involution; the result must
    be (10,-2,1,0,0), decompose as V + I + I', equal the symmetric cube
    of the 3-dimensional character, and double to the full degree-one
    cohomology decomposition V^2 + I^2 + I'^2.
    """
    a5 = alternating_group_5()
    s3 = a5.generated(a5.index[parse_cycles(s, 5)] for s in ("(123)", "(12)(45)"))
    chi_l = induced_character(s3, sign_class_function(s3))
    expected = (rational(10), rational(-2), rational(1), rational(0), rational(0))
    ok = len(s3) == 6 and chi_l.values == expected
    dec = decompose(chi_l)
    ok = ok and dec == {"V": 1, "I": 1, "I'": 1}
    ok = ok and chi_l.values == sym_cube(a5_table()[1]).values
    doubled = decompose(chi_l + chi_l)
    ok = ok and doubled == {"V": 2, "I": 2, "I'": 2}
    return ok, chi_l, doubled


# -- binary icosahedral group as unit quaternions -------------------------------


class Quaternion:
    """Quaternion with coefficients in Q(zeta_5) on (1, i, j, k)."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        for name, v in zip("abcd", (a, b, c, d)):
            object.__setattr__(self, name, v if isinstance(v, Cyclo) else rational(v))

    def __setattr__(self, *args):
        raise AttributeError("Quaternion is immutable")

    def __mul__(self, o):
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __neg__(self):
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def norm(self) -> Cyclo:
        return (self.a * self.a + self.b * self.b
                + self.c * self.c + self.d * self.d)

    def __eq__(self, o):
        if not isinstance(o, Quaternion):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (o.a, o.b, o.c, o.d)

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self):
        return f"({self.a}) + ({self.b})i + ({self.c})j + ({self.d})k"


def _even_permutations4():
    return [p for p in permutations(range(4)) if Perm(i + 1 for i in p).is_even()]


def binary_icosahedral_group():
    """The 120 icosian unit quaternions, all of norm 1.

    The 24 Hurwitz units (±1, ±i, ±j, ±k and (±1±i±j±k)/2) together with
    the 96 even coordinate permutations of (0, ±1, ±phi, ±1/phi)/2.
    """
    half = Fraction(1, 2)
    units = set()
    for i in range(4):
        for s in (1, -1):
            coords = [rational(0)] * 4
            coords[i] = rational(s)
            units.add(Quaternion(*coords))
    for sa in (half, -half):
        for sb in (half, -half):
            for sc in (half, -half):
                for sd in (half, -half):
                    units.add(Quaternion(rational(sa), rational(sb),
                                         rational(sc), rational(sd)))
    phi = golden()
    base = [rational(0), rational(1), phi, phi.inv()]
    for perm in _even_permutations4():
        vals = [base[perm[i]] for i in range(4)]
        nz = [i for i in range(4) if not vals[i].is_zero()]
        for s1 in (1, -1):
            for s2 in (1, -1):
                for s3 in (1, -1):
                    signs = dict(zip(nz, (s1, s2, s3)))
                    q = Quaternion(*[vals[i] * signs.get(i, 1) / 2 for i in range(4)])
                    units.add(q)
    return frozenset(units)


def binary_icosahedral_checks():
    """Closure, norms, center, perfectness and the quotient class sizes."""
    units = binary_icosahedral_group()
    one = Quaternion(1, 0, 0, 0)
    report = {}
    report["order"] = len(units)
    report["norm_one"] = all(q.norm() == rational(1) for q in units)
    try:
        group = finite_group(tuple(units))
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
