"""Generating 4-tuples of A5 with order profile (5,2,2,2) and braid orbits.

An element of A5 is its index into `alternating_group_5()`, whose
element list is lexicographic, so the least index tuple is the least
permutation tuple.  A class under simultaneous conjugation is its least
tuple, which `canonical_class` reads from one centralizer coset
(`FiniteGroup.least_conjugate`), not from the whole conjugation orbit.
The composition convention is inherited from perms: (g*h)(x) = g(h(x)).
`tuple_product` alone knows how a tuple is read; its left-to-right reading
is for cross-checking convention-sensitive tables.
"""

from __future__ import annotations

from functools import lru_cache

from .perms import alternating_group_5, closure, parse_cycles

CONVENTIONS = ("rtl", "ltr")


def tuple_product(t, convention: str = "rtl") -> int:
    """Product of a tuple of A5 element indices.

    "rtl": g1*g2*...*gk under the package convention (rightmost acts
    first on points).  "ltr": the same symbols composed in the opposite
    reading, i.e. gk*...*g1.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}")
    table = alternating_group_5().table
    acc, *rest = t if convention == "rtl" else reversed(t)
    for g in rest:
        acc = table[acc][g]
    return acc


@lru_cache(maxsize=None)
def order_sets():
    """Element indices of each order r in {2, 3, 5}, ascending."""
    orders = alternating_group_5().orders
    return {r: tuple(g for g, k in enumerate(orders) if k == r) for r in (2, 3, 5)}


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

    Returns a list of orbits, each a frozenset of index pairs.  There are
    six, all free (size 60), with ord(g1*g2) hitting 2, 3 and 5 twice each.
    """
    a5 = alternating_group_5()
    sets = order_sets()
    remaining = {(g1, g2) for g1 in sets[5] for g2 in sets[2]}
    orbits = []
    while remaining:
        orbit = a5.conjugates(min(remaining))
        orbits.append(frozenset(orbit))
        remaining -= orbit
    return orbits


def involution_factorizations(h: int):
    """All ordered pairs (h1, h2) of involutions in A5 with h1*h2 = h."""
    a5 = alternating_group_5()
    table, inverse, orders = a5.table, a5.inverse, a5.orders
    if orders[h] not in (2, 3, 5):
        raise ValueError(f"order {orders[h]} not in {{2, 3, 5}}")
    return {(h1, table[inverse[h1]][h]) for h1 in order_sets()[2]
            if orders[table[inverse[h1]][h]] == 2}


# -- tuple classes ---------------------------------------------------------------


def canonical_class(t) -> tuple:
    return alternating_group_5().least_conjugate(tuple(t))


def r_value(t) -> int:
    """Order of g1*g2 (equivalently of (g3*g4)^-1)."""
    a5 = alternating_group_5()
    return a5.orders[a5.table[t[0]][t[1]]]


def g1_class(t) -> str:
    """Cycle string of the lexicographically least A5-conjugate of g1."""
    a5 = alternating_group_5()
    return a5.elements[a5.class_of[t[0]][0]].cycle_string()


def is_generating(t) -> bool:
    """Do the A5 elements with these indices generate A5?"""
    return len(alternating_group_5().generated(t)) == 60


@lru_cache(maxsize=None)
def enumerate_tuple_classes(convention: str):
    """All classes of generating (5,2,2,2)-tuples with product identity.

    Every class holds a tuple whose g1 is the least member of its A5
    class, so g1 runs over the least members of the two order-5 classes
    and g2, g3 over A5(2); g4 is forced by the product condition, read in
    `convention` as by `tuple_product`, and kept when it is an involution.
    Generation is a class property, checked once on each new class.
    Exactly 20 classes.

    The generation check never rejects a candidate here, so it is a
    guard, and the benchmark's `hurwitz.generating_ratio` reads 1.0 by
    design: in A5 the only proper subgroups with an element of order 5
    are C5 and D10, C5 holds no involution, and in D10 a product of three
    involutions is an involution, never the inverse of g1.
    """
    a5 = alternating_group_5()
    involutions = order_sets()[2]
    classes = set()
    for g1 in (cls[0] for cls in a5.classes if a5.orders[cls[0]] == 5):
        for g2 in involutions:
            g12 = tuple_product((g1, g2), convention)
            for g3 in involutions:
                # the product of (g1, g2, g3, g4) is e in the chosen reading
                g4 = a5.inverse[tuple_product((g12, g3), convention)]
                if a5.orders[g4] != 2:
                    continue
                cls = canonical_class((g1, g2, g3, g4))
                if cls not in classes and is_generating(cls):
                    classes.add(cls)
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
    inv = alternating_group_5().inverse
    if inverse:
        new = (b, tuple_product((inv[b], a, b), convention))
    else:
        new = (tuple_product((a, b, inv[a]), convention), a)
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
    """Partition of tuple classes under a named set of braid words.

    Each orbit is the `closure` of the least class left in the pool under
    one move per word, t -> canonical_class(word applied to t).  An orbit
    holds every class its words reach, in `classes` or not; the braid
    claims judge the orbits."""
    # a word permutes the finite set of classes, so its inverse is a power
    # of it and the forward closure is the orbit
    moves = [lambda t, word=word: canonical_class(_move_word(t, word, convention))
             for word in GENERATOR_SETS[generator_set]]
    pool = set(classes)
    orbits = []
    while pool:
        orbits.append(frozenset(closure(min(pool), moves)))
        pool -= orbits[-1]
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


def validate_tuple_table(classes):
    """Match the published rows against the enumerated classes.

    A row matches if, after simultaneous conjugation and possibly
    slotwise inversion (which absorbs the reading direction of the
    published products), it lands on one of `classes`.  Returns the
    matched classes, one per matching row, and the rows (as published)
    that match none.
    """
    a5 = alternating_group_5()
    known = set(classes)
    matched, unmatched = [], []
    for row in TUPLE_TABLE_ROWS:
        t = tuple(a5.index[parse_cycles(s, 5)] for s in row)
        hits = [c for c in (canonical_class(t),
                            canonical_class(a5.inverse[g] for g in t))
                if c in known]
        if hits:
            matched.append(hits[0])
        else:
            unmatched.append(row)
    return matched, unmatched
