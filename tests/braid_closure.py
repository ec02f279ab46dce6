"""Reference braid moves for the test oracles.

`hurwitz.braid_orbits` follows each word forward only; this is the
closure it replaced, which also applies each word's inverse at every
step, with the inverse move that no report makes, kept as their
reference.  The inverse and the order of a `Perm`, from its images, are
the permutation oracles of the tests that recompute A5's tables.
"""

from wingerverify.hurwitz import GENERATOR_SETS, _move_word, canonical_class, tuple_product
from wingerverify.perms import Perm, alternating_group_5


def perm_inverse(p: Perm) -> Perm:
    """The inverse permutation: i at the index of its image."""
    out = [0] * p.degree
    for i, image in enumerate(p.images, 1):
        out[image - 1] = i
    return Perm(out)


def perm_order(p: Perm) -> int:
    """The least k >= 1 with p^k the identity, by repeated products."""
    k, q, identity = 1, p, Perm.identity(p.degree)
    while q != identity:
        q, k = q * p, k + 1
    return k


def inverse_move(k: int, t, convention: str = "rtl"):
    """The inverse of `hurwitz_move` on slots k, k+1: (a, b) -> (b, b^-1 a b),
    the conjugation written in the tuple product's reading."""
    a, b = t[k - 1], t[k]
    inverse = alternating_group_5().inverse
    return t[:k - 1] + (b, tuple_product((inverse[b], a, b), convention)) + t[k + 1:]


def inverse_word(t, word, convention: str = "rtl"):
    """The inverse of the word of slots `word`: its inverse moves, last
    slot first."""
    for k in reversed(word):
        t = inverse_move(k, t, convention)
    return t


def two_way_braid_orbits(classes, generator_set: str, convention: str = "rtl"):
    """Partition of tuple classes under a named set of braid words and
    their inverses."""
    words = GENERATOR_SETS[generator_set]
    pool = set(classes)
    orbits = []
    while pool:
        start = min(pool)
        frontier = [start]
        members = {start}
        while frontier:
            nxt = []
            for t in frontier:
                for word in words:
                    for image in (_move_word(t, word, convention),
                                  inverse_word(t, word, convention)):
                        cls = canonical_class(image)
                        if cls not in members:
                            members.add(cls)
                            nxt.append(cls)
            frontier = nxt
        orbits.append(frozenset(members))
        pool -= members
    return orbits
