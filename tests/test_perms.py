from functools import cache
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from braid_closure import perm_inverse, perm_order
from wingerverify.characters import S5_CLASS_REPS
from wingerverify.covers import Quaternion, binary_icosahedral_group
from wingerverify.linalg import Matrix
from wingerverify.perms import FiniteGroup, Perm, alternating_group_5, closure, parse_cycles
from wingerverify.winger import reconstruct_group


def idx(group, *cycles):
    return [group.index[parse_cycles(c, 5)] for c in cycles]


@cache
def symmetric_group_5():
    """S5 as degree-5 permutations, in lexicographic order."""
    return FiniteGroup(Perm(p) for p in permutations(range(1, 6)))


def test_parse_and_cycle_string():
    g = parse_cycles("(12345)", 5)
    assert g(1) == 2 and g(5) == 1
    assert g.cycle_string() == "(12345)"
    assert parse_cycles("(12)(34)", 5).cycle_string() == "(12)(34)"
    assert parse_cycles("()", 5) == Perm.identity(5)


def test_composition_convention_right_first():
    # (g*h)(x) = g(h(x))
    g = parse_cycles("(12)", 5)
    h = parse_cycles("(23)", 5)
    assert (g * h)(3) == g(h(3)) == 1
    assert (g * h).cycle_string() == "(123)"
    assert (h * g).cycle_string() == "(132)"


def test_inverse_and_order():
    # the table's inverses and orders against the permutation oracles
    g = parse_cycles("(12345)", 5)
    assert g * perm_inverse(g) == parse_cycles("()", 5)
    assert perm_order(g) == 5
    assert perm_order(parse_cycles("(12)(34)", 5)) == 2
    a5 = alternating_group_5()
    assert a5.elements[a5.identity] == parse_cycles("()", 5)
    for i, g in enumerate(a5.elements):
        assert a5.elements[a5.inverse[i]] == perm_inverse(g)
        assert a5.orders[i] == perm_order(g)


def test_group_sizes():
    assert len(alternating_group_5()) == 60
    assert len(symmetric_group_5()) == 120


def test_a5_class_sizes():
    sizes = sorted(len(c) for c in alternating_group_5().classes)
    assert sizes == [1, 12, 12, 15, 20]
    assert sorted(len(c) for c in symmetric_group_5().classes) == [
        1, 10, 15, 20, 20, 24, 30]
    assert alternating_group_5().centre() == [alternating_group_5().identity]


def test_s5_classes_are_cycle_types():
    # restricting an S5 class function to A5 rests on this
    s5 = symmetric_group_5()

    def cycle_type(g):
        return sorted(len(c) for c in g.cycles())
    reps = idx(s5, *S5_CLASS_REPS)
    assert [len(s5.class_of[r]) for r in reps] == [1, 10, 15, 20, 20, 30, 24]
    for r in reps:
        assert set(s5.class_of[r]) == {g for g, p in enumerate(s5.elements)
                                       if cycle_type(p) == cycle_type(s5.elements[r])}


def test_five_cycle_classes_split_in_a5_not_s5():
    a5, s5 = alternating_group_5(), symmetric_group_5()
    g, h, g_inv = idx(a5, "(12345)", "(12354)", "(15432)")
    assert a5.class_of[g] != a5.class_of[h]
    assert a5.class_of[g] == a5.class_of[g_inv]  # inverses stay in one A5 class
    g, h = idx(s5, "(12345)", "(12354)")
    assert s5.class_of[g] == s5.class_of[h]


def test_closure_subgroups():
    a5 = alternating_group_5()
    d10 = a5.generated(idx(a5, "(12345)", "(25)(34)"))
    assert len(d10) == 10
    s3 = a5.generated(idx(a5, "(123)", "(12)(45)"))
    assert len(s3) == 6
    assert a5.generated(idx(a5, "(12345)", "(12)(34)")) == frozenset(range(60))
    assert a5.derived() == frozenset(range(60))  # A5 is perfect


def test_closure_is_breadth_first():
    # Z/12 under +3 and +4: every residue, each once, nearest first
    moves = [lambda x: (x + 3) % 12, lambda x: (x + 4) % 12]
    found = closure(0, moves)
    assert found == (0, 3, 4, 6, 7, 8, 9, 10, 11, 1, 2, 5)
    assert len(set(found)) == len(found) == 12
    level, distance = {0}, {0: 0}
    for d in range(1, 12):
        level = {m(x) for x in level for m in moves} - set(distance)
        distance.update(dict.fromkeys(level, d))
    steps = [distance[x] for x in found]
    assert steps == sorted(steps)
    # a cycle back to the start ends the closure
    assert closure(0, [lambda x: (x + 1) % 5]) == (0, 1, 2, 3, 4)
    assert closure("a", [lambda x: x]) == ("a",)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 119), min_size=1, max_size=3))
def test_generated_matches_sympy(gens):
    s5 = symmetric_group_5()
    group = PermutationGroup([Permutation([i - 1 for i in s5.elements[g].images])
                              for g in gens])
    want = {s5.index[Perm(i + 1 for i in p.array_form)] for p in group.elements}
    assert s5.generated(gens) == want


def test_group_table_validation():
    e = Perm.identity(5)
    with pytest.raises(ValueError):
        FiniteGroup([])
    with pytest.raises(ValueError):
        FiniteGroup([e, parse_cycles("(12)", 5), e])  # repeated element
    with pytest.raises(ValueError):
        FiniteGroup([e, Perm.identity(4)])  # mixed degrees


def test_list_without_inverses_rejected():
    # {0, 1} under integer multiplication is closed with identity 1, but 0
    # has no inverse: the error names it
    with pytest.raises(ValueError, match="element 0 has no inverse"):
        FiniteGroup([0, 1])
    with pytest.raises(ValueError, match="element 0 has no inverse"):
        FiniteGroup([1, 0])


def test_non_closed_list_rejected():
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup([Perm.identity(5), parse_cycles("(12)", 5),
                     parse_cycles("(23)", 5)])


def test_a5_table_matches_perm_product():
    a5 = alternating_group_5()
    els = a5.elements
    assert all(els[a5.table[a][b]] == els[a] * els[b]
               for a in range(60) for b in range(60))


def test_centralizer_orders():
    # |C(g)| = |G| / |class of g|
    a5 = alternating_group_5()
    orders = [60 // len(a5.class_of[g]) for g in idx(a5, "(12345)", "(12)(34)", "(123)")]
    assert orders == [5, 4, 3]


# -- the generator-row Cayley table against the all-pairs oracle ----------------


def all_pairs_data(elements):
    """Table, inverses, orders and classes from all |G|^2 element products:
    the construction the generator-row table replaced, kept as its oracle."""
    index = {g: i for i, g in enumerate(elements)}
    table = [[index[g * h] for h in elements] for g in elements]
    n = len(elements)
    identity = table.index(list(range(n)))
    inverse = [row.index(identity) for row in table]
    orders = []
    for g in range(n):
        k, p = 1, g
        while p != identity:
            p, k = table[p][g], k + 1
        orders.append(k)
    classes = []
    for g in range(n):
        if not any(g in c for c in classes):
            classes.append(tuple(sorted({table[table[x][g]][inverse[x]]
                                         for x in range(n)})))
    return table, inverse, orders, classes


def assert_matches_all_pairs(group):
    table, inverse, orders, classes = all_pairs_data(group.elements)
    assert group.table == table
    assert group.inverse == inverse
    assert group.orders == orders
    assert group.classes == classes


def test_a5_s5_tables_match_all_pairs():
    assert_matches_all_pairs(alternating_group_5())
    assert_matches_all_pairs(symmetric_group_5())


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 119), min_size=1, max_size=3), st.randoms())
def test_shuffled_s5_subgroups_match_all_pairs(gens, rnd):
    s5 = symmetric_group_5()
    elements = [s5.elements[i] for i in sorted(s5.generated(gens))]
    rnd.shuffle(elements)
    group = FiniteGroup(elements)
    assert group.elements == tuple(elements)
    assert_matches_all_pairs(group)


def test_matrix_and_unit_tables_match_all_pairs():
    assert_matches_all_pairs(reconstruct_group())
    assert_matches_all_pairs(FiniteGroup(binary_icosahedral_group()))


def count_products(monkeypatch, cls):
    calls = []
    mul = cls.__mul__

    def counting(a, b):
        calls.append(1)
        return mul(a, b)
    monkeypatch.setattr(cls, "__mul__", counting)
    return calls


def test_only_generator_rows_cost_products(monkeypatch):
    # two generators for the 120 units and three for the 60 matrices, in
    # the order the package builds their groups in
    units = sorted(binary_icosahedral_group(), key=Quaternion.sort_key)
    matrices = reconstruct_group().elements
    calls = count_products(monkeypatch, Quaternion)
    assert len(FiniteGroup(units).generators) == 2
    assert len(calls) == 2 * 120
    calls = count_products(monkeypatch, Matrix)
    assert len(FiniteGroup(matrices).generators) == 3
    assert len(calls) == 3 * 60


# -- least conjugates from centralizer cosets, against the whole orbit ---------


def test_least_conjugate_matches_orbit_minimum_on_pairs():
    a5 = alternating_group_5()
    for t in [(g,) for g in range(60)] + [(g, h) for g in range(60) for h in range(60)]:
        assert a5.least_conjugate(t) == min(a5.conjugates(t))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 59), min_size=3, max_size=4))
def test_least_conjugate_matches_orbit_minimum(t):
    a5 = alternating_group_5()
    assert a5.least_conjugate(tuple(t)) == min(a5.conjugates(tuple(t)))


GROUPS = {"a5": alternating_group_5,
          "matrices": reconstruct_group,
          "units": lambda: FiniteGroup(binary_icosahedral_group())}


@pytest.mark.parametrize("which", GROUPS)
def test_generators_generate_the_group(which):
    group = GROUPS[which]()
    assert group.generated(group.generators) == frozenset(range(len(group)))


@pytest.mark.parametrize("which", GROUPS)
def test_to_least_is_a_centralizer_coset(which):
    group = GROUPS[which]()
    for c in range(len(group)):
        coset, least = group.to_least[c], group.class_of[c][0]
        assert all(group.conjugate(c, x) == least for x in coset)
        assert len(set(coset)) == len(coset)
        assert len(coset) * len(group.class_of[c]) == len(group)


# -- the derived subgroup as a normal closure, against all pairs ---------------


def all_pairs_derived(group):
    """The subgroup generated by every commutator a b a^-1 b^-1: the
    definition that the normal closure of the generators' commutators
    replaced, kept as its oracle."""
    table, inverse, n = group.table, group.inverse, len(group)
    return group.generated({table[table[table[a][b]][inverse[a]]][inverse[b]]
                            for a in range(n) for b in range(n)})


@pytest.mark.parametrize("which", [*GROUPS, "s5"])
def test_derived_matches_all_pairs(which):
    group = symmetric_group_5() if which == "s5" else GROUPS[which]()
    derived = group.derived()
    assert derived == all_pairs_derived(group)
    assert len(derived) == (60 if which == "s5" else len(group))  # A5 and 2.A5 are perfect


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 119), min_size=1, max_size=3), st.randoms())
def test_derived_of_shuffled_s5_subgroups_matches_all_pairs(gens, rnd):
    s5 = symmetric_group_5()
    elements = [s5.elements[i] for i in sorted(s5.generated(gens))]
    rnd.shuffle(elements)
    group = FiniteGroup(elements)
    assert group.derived() == all_pairs_derived(group)
