import pytest

from wingerverify.perms import (FiniteGroup, Perm, alternating_group_5,
                                parse_cycles, symmetric_group_5)


def idx(group, *cycles):
    return [group.index[parse_cycles(c, 5)] for c in cycles]


def test_parse_and_cycle_string():
    g = parse_cycles("(12345)", 5)
    assert g(1) == 2 and g(5) == 1
    assert g.cycle_string() == "(12345)"
    assert parse_cycles("(12)(34)", 5).cycle_string() == "(12)(34)"
    assert parse_cycles("()", 5) == Perm.identity(5)
    assert parse_cycles("(1 2 3)", 5) == parse_cycles("(123)", 5)


def test_composition_convention_right_first():
    # (g*h)(x) = g(h(x))
    g = parse_cycles("(12)", 5)
    h = parse_cycles("(23)", 5)
    assert (g * h)(3) == g(h(3)) == 1
    assert (g * h).cycle_string() == "(123)"
    assert (h * g).cycle_string() == "(132)"


def test_inverse_and_order():
    g = parse_cycles("(12345)", 5)
    assert g * g.inverse() == parse_cycles("()", 5)
    assert g.order() == 5
    assert parse_cycles("(12)(34)", 5).order() == 2
    a5 = alternating_group_5()
    assert a5.elements[a5.identity] == parse_cycles("()", 5)
    for i, g in enumerate(a5.elements):
        assert a5.elements[a5.inverse[i]] == g.inverse()
        assert a5.orders[i] == g.order()


def test_group_sizes():
    assert len(alternating_group_5()) == 60
    assert len(symmetric_group_5()) == 120


def test_a5_class_sizes():
    sizes = sorted(len(c) for c in alternating_group_5().classes)
    assert sizes == [1, 12, 12, 15, 20]
    assert sorted(len(c) for c in symmetric_group_5().classes) == [
        1, 10, 15, 20, 20, 24, 30]
    assert alternating_group_5().centre() == [alternating_group_5().identity]


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


def test_coset_action_degrees():
    a5 = alternating_group_5()
    action = a5.coset_action(a5.generated(idx(a5, "(12345)", "(25)(34)")))
    assert all(p.degree == 6 for p in action)
    assert len(set(action)) == 60  # faithful
    # the action is a homomorphism
    assert all(action[a5.table[a][b]] == action[a] * action[b]
               for a in range(60) for b in range(60))


def test_group_table_validation():
    e = Perm.identity(5)
    with pytest.raises(ValueError):
        FiniteGroup([])
    with pytest.raises(ValueError):
        FiniteGroup([e, parse_cycles("(12)", 5), e])  # repeated element
    with pytest.raises(ValueError):
        FiniteGroup([e, Perm.identity(4)])  # mixed degrees


def test_non_closed_list_rejected():
    with pytest.raises(ValueError, match="not closed"):
        FiniteGroup([Perm.identity(5), parse_cycles("(12)", 5),
                     parse_cycles("(23)", 5)])


def test_a5_table_matches_perm_product():
    a5 = alternating_group_5()
    els = a5.elements
    assert all(els[a5.table[a][b]] == els[a] * els[b]
               for a in range(60) for b in range(60))


def test_homomorphism_on_generators():
    a5 = alternating_group_5()
    p5, p2 = idx(a5, "(12345)", "(12)(34)")
    assert a5.homomorphism(a5, {p5: p5, p2: p2}) == list(range(60))
    # (12345) -> (12)(34) respects no relation of A5
    assert a5.homomorphism(a5, {p5: p2, p2: p2}) is None


def test_centralizer_orders():
    # |C(g)| = |G| / |class of g|
    a5 = alternating_group_5()
    orders = [60 // len(a5.class_of[g]) for g in idx(a5, "(12345)", "(12)(34)", "(123)")]
    assert orders == [5, 4, 3]
