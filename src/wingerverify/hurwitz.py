"""Generating 4-tuples of A5 with order profile (5,2,2,2) and braid orbits.

The composition convention is inherited from perms: (g*h)(x) = g(h(x)),
the right factor acting first.  A left-to-right reading of a tuple
product is available for cross-checking convention-sensitive tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .perms import Perm, alternating_group_5, parse_cycles

CONVENTIONS = ("rtl", "ltr")


def tuple_product(t, convention: str = "rtl") -> Perm:
    """Product of a tuple of permutations.

    "rtl": g1*g2*...*gk under the package convention (rightmost acts
    first on points).  "ltr": the same symbols composed in the opposite
    reading, i.e. gk*...*g1.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    seq = t if convention == "rtl" else tuple(reversed(t))
    acc = seq[0]
    for g in seq[1:]:
        acc = acc * g
    return acc


@lru_cache(maxsize=None)
def order_sets():
    """Elements of each order r in {2, 3, 5}, in A5's element order."""
    a5 = alternating_group_5()
    out = {r: tuple(g for g, k in zip(a5.elements, a5.orders) if k == r)
           for r in (2, 3, 5)}
    return out


# one representative pair per orbit, tagged by the order of g1*g2
PAIR_REPRESENTATIVES = (
    (2, "(12345)", "(12)(35)"),
    (2, "(12354)", "(12)(34)"),
    (3, "(12345)", "(12)(34)"),
    (3, "(12354)", "(12)(45)"),
    (5, "(12345)", "(13)(25)"),
    (5, "(12354)", "(13)(25)"),
)


def pair_orbits():
    """Orbits of simultaneous conjugation on (order 5) x (order 2) pairs.

    Returns a list of orbits, each a frozenset of pairs.  There are six,
    all free (size 60), with ord(g1*g2) hitting 2, 3 and 5 twice each.
    """
    a5 = alternating_group_5()
    sets = order_sets()
    remaining = {(a5.index[g1], a5.index[g2]) for g1 in sets[5] for g2 in sets[2]}
    orbits = []
    while remaining:
        orbit = a5.conjugates(min(remaining))
        orbits.append(frozenset((a5.elements[i], a5.elements[j]) for i, j in orbit))
        remaining -= orbit
    return orbits


def involution_factorizations(h: Perm):
    """All ordered pairs (h1, h2) of involutions in A5 with h1*h2 = h."""
    r = h.order()
    if r not in (2, 3, 5):
        raise ValueError(f"order {r} not in {{2, 3, 5}}")
    invs = order_sets()[2]
    out = {(h1, h1.inverse() * h) for h1 in invs
           if (h1.inverse() * h).order() == 2}
    if any(h1 * h2 != h for h1, h2 in out):
        raise ValueError(f"a factorization of {h} does not multiply back to it")
    return out


# -- tuple classes ---------------------------------------------------------------


@dataclass(frozen=True, order=True)
class TupleClass:
    """Canonical representative of a simultaneous-conjugation class."""

    rep: tuple

    @property
    def r_value(self) -> int:
        """Order of g1*g2 (equivalently of (g3*g4)^-1)."""
        return (self.rep[0] * self.rep[1]).order()

    @property
    def g1_class(self) -> str:
        """Cycle string of the lexicographically least A5-conjugate of g1."""
        a5 = alternating_group_5()
        return a5.elements[a5.class_of[a5.index[self.rep[0]]][0]].cycle_string()


def canonical_class(t) -> TupleClass:
    # indices follow the element order, so the least index tuple is the
    # least conjugate
    a5 = alternating_group_5()
    least = min(a5.conjugates(tuple(a5.index[g] for g in t)))
    return TupleClass(tuple(a5.elements[i] for i in least))


def is_generating(t) -> bool:
    """Do the A5 elements with these indices generate A5?"""
    return len(alternating_group_5().generated(t)) == 60


@lru_cache(maxsize=None)
def enumerate_tuple_classes(convention: str = "rtl"):
    """All classes of generating (5,2,2,2)-tuples with product identity.

    Brute force over g1 in A5(5), g2, g3 in A5(2); g4 is forced by the
    product condition and kept when it is an involution and the four
    elements generate.  Exactly 20 classes.
    """
    a5 = alternating_group_5()
    table, inverse = a5.table, a5.inverse
    sets = {r: [a5.index[g] for g in order_sets()[r]] for r in (2, 5)}
    seen = set()
    classes = set()
    for g1 in sets[5]:
        for g2 in sets[2]:
            for g3 in sets[2]:
                if convention == "rtl":
                    # g1*g2*g3*g4 = e  =>  g4 = (g1*g2*g3)^-1
                    g4 = inverse[table[table[g1][g2]][g3]]
                else:
                    g4 = inverse[table[table[g3][g2]][g1]]
                t = (g1, g2, g3, g4)
                if a5.orders[g4] != 2 or t in seen or not is_generating(t):
                    continue
                orbit = a5.conjugates(t)
                seen |= orbit
                classes.add(TupleClass(tuple(a5.elements[i] for i in min(orbit))))
    return tuple(sorted(classes))


# -- braid moves ------------------------------------------------------------------


def hurwitz_move(k: int, t, inverse: bool = False, convention: str = "rtl"):
    """Braid move on slots k, k+1 (1-indexed); preserves the tuple product.

    Forward: (a, b) -> (a b a^-1, a), the conjugation written in the
    same reading as the tuple product, so that the formal word is
    unchanged.  Inverse: (a, b) -> (b, b^-1 a b).
    """
    if not 1 <= k <= len(t) - 1:
        raise ValueError("slot out of range")
    a, b = t[k - 1], t[k]
    if convention == "rtl":
        conj = (lambda x, y: x * y * x.inverse())
    else:
        conj = (lambda x, y: x.inverse() * y * x)
    if inverse:
        new = (b, conj(b.inverse(), a))
    else:
        new = (conj(a, b), a)
    return t[:k - 1] + new + t[k + 1:]


def _move_word(t, word, convention="rtl"):
    for k, inv in word:
        t = hurwitz_move(k, t, inverse=inv, convention=convention)
    return t


GENERATOR_SETS = {
    # squares of the three elementary braids: preserve every slot's class
    "pure": (((1, False), (1, False)), ((2, False), (2, False)),
             ((3, False), (3, False))),
    # braids fixing the distinguished order-5 slot setwise
    "weighted": (((2, False),), ((3, False),), ((1, False), (1, False))),
}


def braid_orbits(classes, generator_set: str, convention: str = "rtl"):
    """Partition of tuple classes under a named set of braid words."""
    words = GENERATOR_SETS[generator_set]
    pool = set(classes)
    orbits = []
    while pool:
        start = min(pool)
        frontier = [start.rep]
        members = {start}
        while frontier:
            nxt = []
            for t in frontier:
                for word in words:
                    for image in (_move_word(t, word, convention),
                                  _move_word(t, [(k, not inv) for k, inv in reversed(word)],
                                             convention)):
                        cls = canonical_class(image)
                        if cls not in members:
                            members.add(cls)
                            nxt.append(cls.rep)
            frontier = nxt
        if not members <= pool:
            raise ValueError("braid move left the class set")
        orbits.append(frozenset(members))
        pool -= members
    return orbits


# -- published tuple table ---------------------------------------------------------

TUPLE_TABLE_ROWS = (
    ("(12345)", "(12)(35)", "(15)(34)", "(14)(35)"),
    ("(12345)", "(12)(35)", "(14)(35)", "(15)(34)"),
    ("(12345)", "(12)(34)", "(15)(24)", "(24)(35)"),
    ("(12345)", "(12)(34)", "(13)(24)", "(15)(24)"),
    ("(12345)", "(12)(34)", "(24)(35)", "(13)(24)"),
    ("(12345)", "(13)(25)", "(14)(25)", "(15)(23)"),
    ("(12345)", "(13)(25)", "(12)(34)", "(24)(35)"),
    ("(12345)", "(13)(25)", "(13)(45)", "(12)(34)"),
    ("(12345)", "(13)(25)", "(15)(23)", "(13)(45)"),
    ("(12345)", "(13)(25)", "(24)(35)", "(14)(25)"),
)


def _parsed_table():
    return [tuple(parse_cycles(s, 5) for s in row) for row in TUPLE_TABLE_ROWS]


def validate_tuple_table(classes):
    """Match the ten published rows against the enumerated classes.

    A row validates if, after simultaneous conjugation and possibly
    slotwise inversion (which absorbs the reading direction of the
    published products), it lands on an enumerated class whose first
    slot is a 5-cycle conjugate to (12345).  Returns the list of matched
    classes; raises on any failure or double match.
    """
    by_rep = set(classes)
    matched = []
    for row in _parsed_table():
        candidates = {canonical_class(row),
                      canonical_class(tuple(g.inverse() for g in row))}
        hits = [c for c in candidates if c in by_rep]
        if not hits:
            raise ValueError(f"published row {row} matches no enumerated class")
        matched.append(hits[0])
    if len(set(matched)) != 10:
        raise ValueError("published rows do not hit 10 distinct classes")
    return matched
