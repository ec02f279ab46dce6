"""Class functions on A5 and S5 with exact cyclotomic values.

The A5 class ordering is fixed as (1), (12)(34), (123), (12345), (12354);
for S5 it is (1), (12), (12)(34), (123), (123)(45), (1234), (12345).
The irreducible table of A5 is assembled from scratch: the two
3-dimensional characters carry (1 +- sqrt5)/2, the 4-dimensional one is
the natural permutation character minus the trivial one, and the
5-dimensional one comes from the 6-point coset action of a dihedral
subgroup of order 10, read from the Cayley table of A5.
Subgroups of A5 are frozensets of A5 element indices (see perms).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclo import Cyclo, golden, rational, sqrt5
from .perms import Perm, alternating_group_5, parse_cycles, symmetric_group_5

A5_CLASS_REPS = ("()", "(12)(34)", "(123)", "(12345)", "(12354)")
S5_CLASS_REPS = ("()", "(12)", "(12)(34)", "(123)", "(123)(45)", "(1234)", "(12345)")

A5_IRREP_LABELS = ("1", "I", "I'", "V", "W")


class CharacterError(ValueError):
    pass


@dataclass(frozen=True)
class ClassFunction:
    group: str  # "A5" or "S5"
    values: tuple

    def __post_init__(self):
        reps = A5_CLASS_REPS if self.group == "A5" else S5_CLASS_REPS
        if len(self.values) != len(reps):
            raise CharacterError(f"expected {len(reps)} values for {self.group}")
        object.__setattr__(self, "values",
                           tuple(v if isinstance(v, Cyclo) else rational(v) for v in self.values))

    def __add__(self, other):
        if self.group != other.group:
            raise CharacterError("group tag mismatch")
        return ClassFunction(self.group, tuple(a + b for a, b in zip(self.values, other.values)))

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.values) + ")"


@lru_cache(maxsize=None)
def _class_data(group: str):
    """The group, the element indices of its ordered class representatives
    and their classes (tuples of element indices)."""
    table = alternating_group_5() if group == "A5" else symmetric_group_5()
    reps = tuple(table.index[parse_cycles(s, 5)]
                 for s in (A5_CLASS_REPS if group == "A5" else S5_CLASS_REPS))
    classes = tuple(table.class_of[r] for r in reps)
    if len(set(classes)) != len(table.classes):
        raise CharacterError("class representatives do not cover the group")
    return table, reps, classes


def class_index(group: str, g: Perm) -> int:
    table, _, classes = _class_data(group)
    if g not in table.index:
        raise CharacterError(f"element {g} not in {group}")
    return classes.index(table.class_of[table.index[g]])


def class_sizes(group: str) -> tuple:
    return tuple(len(c) for c in _class_data(group)[2])


def inner_product(chi: ClassFunction, psi: ClassFunction) -> Cyclo:
    """(1/|G|) sum over classes of size * chi * conj(psi); exact."""
    if chi.group != psi.group:
        raise CharacterError("group tag mismatch")
    table, _, classes = _class_data(chi.group)
    acc = rational(0)
    for size, a, b in zip(class_sizes(chi.group), chi.values, psi.values):
        acc = acc + a * b.conjugate() * size
    return acc / len(table)


@lru_cache(maxsize=None)
def a5_table() -> tuple:
    """The five irreducible characters of A5, in the label order 1, I, I', V, W."""
    phi = golden()                        # (1+sqrt5)/2
    phibar = (rational(1) - sqrt5()) / 2  # its Galois conjugate
    trivial = ClassFunction("A5", (1, 1, 1, 1, 1))
    chi_i = ClassFunction("A5", (rational(3), rational(-1), rational(0), phi, phibar))
    chi_ip = ClassFunction("A5", (rational(3), rational(-1), rational(0), phibar, phi))
    # V: natural 5-point permutation character minus trivial
    a5, reps, _ = _class_data("A5")
    chi_v = ClassFunction("A5", tuple(len(a5.elements[r].fixed_points()) - 1
                                      for r in reps))
    # W: 6-point coset action of a dihedral subgroup of order 10, minus trivial
    d10 = a5.generated(a5.index[parse_cycles(s, 5)] for s in ("(12345)", "(25)(34)"))
    if len(d10) != 10:
        raise CharacterError(f"dihedral subgroup has order {len(d10)}, not 10")
    action = a5.coset_action(d10)
    chi_w = ClassFunction("A5", tuple(len(action[r].fixed_points()) - 1 for r in reps))
    table = (trivial, chi_i, chi_ip, chi_v, chi_w)
    for i, a in enumerate(table):
        for j, b in enumerate(table):
            expected = rational(1 if i == j else 0)
            if inner_product(a, b) != expected:
                raise CharacterError(f"irreducible table not orthonormal at ({i},{j})")
    return table


@lru_cache(maxsize=None)
def power_maps(group: str = "A5"):
    """For each class index, the class indices of g^2 and g^3."""
    table, reps, classes = _class_data(group)
    mul = table.table
    squares = [mul[r][r] for r in reps]
    sq = tuple(classes.index(table.class_of[s]) for s in squares)
    cu = tuple(classes.index(table.class_of[mul[s][r]]) for s, r in zip(squares, reps))
    return sq, cu


def sym_cube(chi: ClassFunction) -> ClassFunction:
    """Character of the symmetric cube: (x(g)^3 + 3 x(g^2) x(g) + 2 x(g^3)) / 6."""
    sq, cu = power_maps(chi.group)
    vals = []
    for i, v in enumerate(chi.values):
        vals.append((v * v * v + chi.values[sq[i]] * v * 3 + chi.values[cu[i]] * 2) / 6)
    return ClassFunction(chi.group, tuple(vals))


def decompose(chi: ClassFunction) -> dict:
    """Multiplicities of the A5 irreducibles; errors on non-characters."""
    if chi.group != "A5":
        raise CharacterError("decomposition implemented for A5 only")
    out = {}
    for label, irr in zip(A5_IRREP_LABELS, a5_table()):
        m = inner_product(chi, irr)
        if not m.is_rational():
            raise CharacterError(f"non-rational multiplicity for {label}: {m}")
        mq = m.to_fraction()
        if mq.denominator != 1 or mq < 0:
            raise CharacterError(f"non-integral or negative multiplicity for {label}: {mq}")
        if mq:
            out[label] = int(mq)
    return out


def induced_character(sub: frozenset, chi_sub) -> ClassFunction:
    """Induce a class function on a subgroup of A5 up to A5.

    `chi_sub` maps each element index of `sub` to a value (dict or
    callable); it must be constant on `sub`-classes.  The value at g is
    |A5| / (|H| |g^A5|) times the sum of chi_sub over H meeting g^A5.
    """
    a5 = alternating_group_5()
    val = chi_sub.__getitem__ if isinstance(chi_sub, dict) else chi_sub
    for h in sub:  # class-function sanity on the subgroup
        for x in sub:
            if val(a5.conjugate(h, x)) != val(h):
                raise CharacterError("not a class function on the subgroup")
    _, _, classes = _class_data("A5")
    vals = []
    for cls in classes:
        acc = rational(0)
        for h in sub.intersection(cls):
            v = val(h)
            acc = acc + (v if isinstance(v, Cyclo) else rational(v))
        vals.append(acc * len(a5) / (len(sub) * len(cls)))
    return ClassFunction("A5", tuple(vals))


def sign_class_function(sub: frozenset) -> dict:
    """The order-parity sign character: -1 on elements of even order.

    Valid for the subgroups of A5 used here (dihedral and symmetric-3
    types); multiplicativity is asserted.
    """
    a5 = alternating_group_5()
    sign = {h: rational(-1 if a5.orders[h] % 2 == 0 else 1) for h in sub}
    for a in sub:
        for b in sub:
            if sign[a5.table[a][b]] != sign[a] * sign[b]:
                raise CharacterError("order parity is not a character of this subgroup")
    return sign


def chi_e_s5() -> ClassFunction:
    """The 6-dimensional irreducible character of S5."""
    return ClassFunction("S5", (6, 0, -2, 0, 0, 0, 1))


def restrict_to_a5(chi: ClassFunction) -> ClassFunction:
    """Restriction of an S5 class function along the inclusion A5 < S5."""
    if chi.group != "S5":
        raise CharacterError("expected an S5 class function")
    a5, a5_reps, _ = _class_data("A5")
    return ClassFunction("A5", tuple(chi.values[class_index("S5", a5.elements[r])]
                                     for r in a5_reps))
