"""Permutations and the finite-group layer (Cayley tables, classes,
least conjugates, subgroups); A5 is the one permutation group built here.

Composition convention is fixed once and for all: (g * h)(x) = g(h(x)),
i.e. the right factor acts first.  Every product of group elements in
this package uses this convention.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations


class Perm:
    """A permutation stored by its image sequence (image of i+1 at index i)."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a bijection of 1..{len(images)}: {images}")
        object.__setattr__(self, "images", images)

    def __setattr__(self, *a):
        raise AttributeError("Perm is immutable")

    @staticmethod
    def identity(degree: int) -> "Perm":
        return Perm(range(1, degree + 1))

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Perm":
        images = list(range(1, degree + 1))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a - 1] = b
        return Perm(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Perm") -> "Perm":
        # right factor acts first
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        si = self.images
        return Perm(si[o - 1] for o in other.images)

    def inverse(self) -> "Perm":
        out = [0] * self.degree
        for i, im in enumerate(self.images):
            out[im - 1] = i + 1
        return Perm(out)

    def order(self) -> int:
        k, p = 1, self
        ident = Perm.identity(self.degree)
        while p != ident:
            p = p * self
            k += 1
        return k

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + "".join(str(x) for x in c) + ")" for c in cycs)

    def __eq__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        return self.images == other.images

    def __hash__(self):
        return hash(self.images)


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse compact cycle notation, one digit per point, like "(12345)",
    "(12)(35)" or "()"."""
    text = text.strip()
    if text == "()":
        return Perm.identity(degree)
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        pts = [int(ch) for ch in chunk]
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point in cycle: {chunk!r}")
        cycles.append(tuple(pts))
    return Perm.from_cycles(cycles, degree)


def closure(start, moves) -> tuple:
    """`start` and every element that the one-argument functions `moves`
    reach from it, each once, in breadth-first order: `start` first, then
    the others by the number of moves from it, ties in the order found.
    Every subgroup, point orbit and braid orbit of the package is one.
    Elements must be hashable, and the reachable set finite."""
    found = [start]
    seen = {start}
    for x in found:  # the list grows while it is read: the queue
        for move in moves:
            y = move(x)
            if y not in seen:
                seen.add(y)
                found.append(y)
    return tuple(found)


class FiniteGroup:
    """A finite group given by its full element list, indexed once.

    `table[i][j]` is the index of elements[i] * elements[j]; the identity,
    inverses, element orders and conjugacy classes are read from it, and
    every method below speaks element indices, translated by `index` and
    `elements`.  Elements are hashable and multiply with `*`; a list that
    is empty, repeats an element or is not closed under `*` raises
    ValueError.

    Only generator rows cost element products.  Scanning the list in
    order, an element whose row is still unknown becomes a generator s,
    its row is multiplied out (every product must land in the list), and
    the rows of its `closure` under left multiplication by the generators
    follow: the row of k = s*h is row(s) composed with row(h), since
    k*x = s*(h*x).  Every element ends up a word in the generators, so the
    list is a finite semigroup inside a group: closed, hence a group.  The
    generators' indices are kept, in that order, as `generators`; a
    property of the elements that products preserve holds for all of them
    once it holds for these.

    `to_least[c]` lists the conjugators that send c to the least member
    of its class, `class_of[c][0]`: a coset of that member's centralizer,
    kept from the conjugations that find the classes.
    """

    def __init__(self, elements):
        elements = tuple(elements)
        if not elements:
            raise ValueError("empty element list")
        index = {g: i for i, g in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("repeated element")
        n = len(elements)
        table, gens = [None] * n, []
        for i, g in enumerate(elements):
            if table[i] is not None:
                continue
            row = [index.get(g * h) for h in elements]
            if None in row:
                raise ValueError("element list is not closed under the product")
            table[i] = row
            gens.append(i)
            # the closure of g is the subgroup that gens generate; read in
            # its order, the row of h is known when h reaches a new element
            for h in closure(i, [table[s].__getitem__ for s in gens]):
                for s in gens:
                    k = table[s][h]
                    if table[k] is None:
                        table[k] = [table[s][x] for x in table[h]]
        fixing = list(range(n))
        identity = next((i for i, row in enumerate(table) if row == fixing), None)
        if identity is None:
            raise ValueError("no identity element")
        self.elements, self.index, self.table = elements, index, table
        self.identity, self.generators = identity, tuple(gens)
        self.inverse = [row.index(identity) for row in table]
        self.orders = []
        for g in range(n):
            k, p = 1, g
            while p != identity:
                p, k = table[p][g], k + 1
            self.orders.append(k)
        # classes ordered by least member g, each a sorted index tuple;
        # c = x*g*x^-1 goes back to g by x^-1
        self.classes, self.class_of = [], [None] * n
        self.to_least = [[] for _ in range(n)]
        for g in range(n):
            if self.class_of[g] is None:
                images = [self.conjugate(g, x) for x in range(n)]
                for x, c in enumerate(images):
                    self.to_least[c].append(self.inverse[x])
                cls = tuple(sorted(set(images)))
                self.classes.append(cls)
                for c in cls:
                    self.class_of[c] = cls

    def __len__(self) -> int:
        return len(self.elements)

    def conjugate(self, g: int, x: int) -> int:
        """x * g * x^-1."""
        return self.table[self.table[x][g]][self.inverse[x]]

    def conjugates(self, t) -> set:
        """The orbit of an index tuple under simultaneous conjugation."""
        return {tuple(self.conjugate(g, x) for g in t) for x in range(len(self))}

    def least_conjugate(self, t) -> tuple:
        """min(self.conjugates(t)) for a nonempty t: the least tuple starts
        with the least member of the class of t[0], and only the coset
        `to_least[t[0]]` of its centralizer reaches that member."""
        return min(tuple(self.conjugate(g, x) for g in t) for x in self.to_least[t[0]])

    def centre(self) -> list:
        return [cls[0] for cls in self.classes if len(cls) == 1]

    def generated(self, gens) -> frozenset:
        """The subgroup generated by the given element indices: the
        `closure` of the identity under left multiplication by each of
        them, which in a finite group reaches every word in them."""
        return frozenset(closure(self.identity, [self.table[g].__getitem__ for g in gens]))

    def derived(self) -> frozenset:
        """The subgroup generated by all commutators a b a^-1 b^-1."""
        table, inverse = self.table, self.inverse
        n = len(table)
        return self.generated({table[table[table[a][b]][inverse[a]]][inverse[b]]
                               for a in range(n) for b in range(n)})


@lru_cache(maxsize=8)
def finite_group(elements: tuple) -> FiniteGroup:
    """`FiniteGroup(elements)`, built once per element tuple."""
    return FiniteGroup(elements)


@lru_cache(maxsize=None)
def alternating_group_5() -> FiniteGroup:
    """A5: the even degree-5 permutations, in lexicographic order."""
    return FiniteGroup(p for p in map(Perm, permutations(range(1, 6))) if p.is_even())
