"""Reference braid closure for the test oracles.

`hurwitz.braid_orbits` follows each word forward only; this is the
closure it replaced, which also applies each word's inverse at every
step, kept as its reference.
"""

from wingerverify.hurwitz import GENERATOR_SETS, _move_word, canonical_class


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
                                  _move_word(t, [(k, not inv) for k, inv in reversed(word)],
                                             convention)):
                        cls = canonical_class(image)
                        if cls not in members:
                            members.add(cls)
                            nxt.append(cls)
            frontier = nxt
        orbits.append(frozenset(members))
        pool -= members
    return orbits
