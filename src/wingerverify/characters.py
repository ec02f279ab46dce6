"""Class functions on A5 with exact cyclotomic values, and the one S5
character that is restricted to A5.

A `ClassFunction` holds one value per A5 class, ordered (1), (12)(34),
(123), (12345), (12354).  The S5 character is a plain tuple of values on
(1), (12), (12)(34), (123), (123)(45), (1234), (12345), which only
`restrict_to_a5` reads.
The irreducible table of A5 is assembled from scratch: the two
3-dimensional characters carry (1 +- sqrt5)/2, and the 4- and
5-dimensional ones are the permutation characters of the point
stabilizer A4 and of a dihedral subgroup of order 10, each induced from
the trivial character, minus the trivial character.  Conjugacy in S5 is
cycle type, so an S5 class function restricts by cycle type.
Subgroups of A5 are frozensets of A5 element indices (see perms).
"""

from __future__ import annotations

from functools import lru_cache

from .cyclo import Cyclo, golden, rational, sqrt5
from .perms import Perm, alternating_group_5, parse_cycles

A5_CLASS_REPS = ("()", "(12)(34)", "(123)", "(12345)", "(12354)")
S5_CLASS_REPS = ("()", "(12)", "(12)(34)", "(123)", "(123)(45)", "(1234)", "(12345)")

A5_IRREP_LABELS = ("1", "I", "I'", "V", "W")


class CharacterError(ValueError):
    pass


class ClassFunction:
    """Immutable: `values` holds one field element per class of A5_CLASS_REPS."""

    __slots__ = ("values",)

    def __init__(self, values):
        if len(values) != len(A5_CLASS_REPS):
            raise CharacterError(f"expected {len(A5_CLASS_REPS)} values")
        object.__setattr__(self, "values", tuple(map(rational, values)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name}: a ClassFunction is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name}: a ClassFunction is immutable")

    def __add__(self, other):
        return ClassFunction(tuple(a + b for a, b in zip(self.values, other.values)))

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


@lru_cache(maxsize=None)
def _class_data():
    """The element indices of the ordered A5 class representatives and
    their classes (tuples of element indices)."""
    a5 = alternating_group_5()
    reps = tuple(a5.index[parse_cycles(s, 5)] for s in A5_CLASS_REPS)
    return reps, tuple(a5.class_of[r] for r in reps)


def class_sizes() -> tuple:
    return tuple(len(c) for c in _class_data()[1])


def class_count() -> int:
    """The number of distinct A5 classes that the representatives meet."""
    return len(set(_class_data()[1]))


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Cyclo:
    """(1/|G|) sum over classes of size * chi * conj(psi); exact."""
    acc = rational(0)
    for size, a, b in zip(class_sizes(), chi.values, psi.values):
        acc = acc + a * b.conjugate() * size
    return acc / len(alternating_group_5())


def _permutation_character(gens) -> ClassFunction:
    """Ind_H^A5 of the trivial character minus the trivial character, for
    H generated by the given cycle strings; the characters-table-orthonormal
    claim judges the result."""
    a5 = alternating_group_5()
    sub = a5.generated(a5.index[parse_cycles(s, 5)] for s in gens)
    return ClassFunction(tuple(v - 1 for v in
                               induced_character(sub, dict.fromkeys(sub, 1)).values))


@lru_cache(maxsize=None)
def a5_table() -> tuple:
    """The five irreducible characters of A5, in the label order 1, I, I', V, W."""
    phi = golden()                        # (1+sqrt5)/2
    phibar = (1 - sqrt5()) / 2            # its Galois conjugate
    trivial = ClassFunction((1, 1, 1, 1, 1))
    chi_i = ClassFunction((3, -1, 0, phi, phibar))
    chi_ip = ClassFunction((3, -1, 0, phibar, phi))
    chi_v = _permutation_character(("(123)", "(12)(34)"))  # point stabilizer A4
    chi_w = _permutation_character(("(12345)", "(25)(34)"))  # dihedral D10
    return (trivial, chi_i, chi_ip, chi_v, chi_w)


@lru_cache(maxsize=None)
def power_maps():
    """For each A5 class index, the class indices of g^2 and g^3; a
    ValueError names a representative with a power in no listed class."""
    a5 = alternating_group_5()
    reps, classes = _class_data()
    sq, cu = [], []
    for name, r in zip(A5_CLASS_REPS, reps):
        square = a5.table[r][r]
        for power, g, out in (("square", square, sq), ("cube", a5.table[square][r], cu)):
            if a5.class_of[g] not in classes:
                raise ValueError(f"the {power} of {name} lies in no listed class")
            out.append(classes.index(a5.class_of[g]))
    return tuple(sq), tuple(cu)


def sym_cube(chi: ClassFunction) -> ClassFunction:
    """Character of the symmetric cube: (x(g)^3 + 3 x(g^2) x(g) + 2 x(g^3)) / 6."""
    sq, cu = power_maps()
    vals = []
    for i, v in enumerate(chi.values):
        vals.append((v * v * v + chi.values[sq[i]] * v * 3 + chi.values[cu[i]] * 2) / 6)
    return ClassFunction(tuple(vals))


def decompose(chi: ClassFunction) -> dict:
    """The nonzero inner products with the A5 irreducibles, by label: an
    int where it is an integer, else its exact value as a string, which
    marks chi as no character; the callers judge that."""
    out = {}
    for label, irr in zip(A5_IRREP_LABELS, a5_table()):
        m = inner_product(chi, irr)
        if m:
            out[label] = m.nums[0] if m.is_rational() and m.den == 1 else str(m)
    return out


def induced_character(sub: frozenset, chi_sub) -> ClassFunction:
    """Induce a class function on a subgroup of A5 up to A5.

    `chi_sub` is a dict from each element index of `sub` to a value.
    The value at g is |A5| / (|H| |g^A5|) times the sum of chi_sub over H
    meeting g^A5; that is the induced class function only when chi_sub is
    constant on `sub`-classes, which the caller judges.
    """
    a5 = alternating_group_5()
    _, classes = _class_data()
    vals = []
    for cls in classes:
        acc = rational(0)
        for h in sub.intersection(cls):
            acc = acc + rational(chi_sub[h])
        vals.append(acc * len(a5) / (len(sub) * len(cls)))
    return ClassFunction(tuple(vals))


def sign_class_function(sub: frozenset) -> dict:
    """The order-parity sign: -1 on elements of even order, by element
    index of `sub`.

    A character on the dihedral and symmetric-3 subgroups of A5; the
    homology-lattice-character claim checks that it is multiplicative on
    the subgroup it induces from.
    """
    a5 = alternating_group_5()
    return {h: rational(-1 if a5.orders[h] % 2 == 0 else 1) for h in sub}


def chi_e_s5() -> tuple:
    """The 6-dimensional irreducible character of S5, on S5_CLASS_REPS."""
    return (6, 0, -2, 0, 0, 0, 1)


def _cycle_type(g: Perm) -> tuple:
    return tuple(sorted(len(c) for c in g.cycles()))


def restrict_to_a5(values) -> ClassFunction:
    """Restriction along A5 < S5 of the S5 class function with `values`
    on S5_CLASS_REPS."""
    if len(values) != len(S5_CLASS_REPS):
        raise CharacterError(f"expected {len(S5_CLASS_REPS)} values")
    types = [_cycle_type(parse_cycles(s, 5)) for s in S5_CLASS_REPS]
    if len(set(types)) != len(types):
        raise CharacterError("two S5 class representatives share a cycle type")
    a5 = alternating_group_5()
    return ClassFunction(tuple(values[types.index(_cycle_type(a5.elements[r]))]
                               for r in _class_data()[0]))
