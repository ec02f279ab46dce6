import json
from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclo_loops
from braid_closure import perm_order
from strategies import field_elements
from wingerverify import covers
from wingerverify.covers import (Quaternion, alpha_value, all_degeneration_reports,
                                 binary_icosahedral_checks, binary_icosahedral_group,
                                 riemann_hurwitz_genus, signature_solutions)
from wingerverify.cli import main
from wingerverify.cyclo import rational
from wingerverify.hurwitz import r_value
from wingerverify.perms import Perm, alternating_group_5


def test_alpha_values():
    assert [alpha_value(k) for k in (1, 2, 3, 5)] == [0, 30, 40, 48]
    with pytest.raises(ValueError):
        alpha_value(4)


def test_signature_unique():
    assert signature_solutions() == [(0, (5, 2, 2, 2))]


def test_regular_cover_genera():
    assert riemann_hurwitz_genus(60, (5, 2, 2, 2)) == 10
    assert riemann_hurwitz_genus(3, [3] * 12) == 10
    assert riemann_hurwitz_genus(10, (5, 2, 2)) == 0
    assert riemann_hurwitz_genus(60, (5, 2, 5)) == 4
    # 3 does not divide 10: no such cover, and the genus says so
    genus = riemann_hurwitz_genus(10, (3,))
    assert genus == Fraction(-17, 3) and type(genus) is Fraction


def test_degeneration_shapes():
    reports = all_degeneration_reports()
    assert len(reports) == 20
    shapes = Counter((r.n, r.nodes, r.components, r.component_genus)
                     for _, r in reports)
    assert shapes == Counter({(2, 15, 6, 0): 4, (3, 10, 1, 0): 6,
                              (5, 6, 1, 4): 10})
    for _, r in reports:
        assert r.arithmetic_genus == 10
        assert r.nodes * 2 * r.n == 60
    # the coalesced order and the component count, recomputed with Perm
    # arithmetic on the class's elements
    elements = alternating_group_5().elements
    for cls, r in reports:
        g1, g2, g3, g4 = (elements[g] for g in cls)
        assert r.n == perm_order(g3 * g4) == r_value(cls)
        assert r.components == 60 // len(perm_closure((g1, g2, g3 * g4)))


def perm_closure(gens):
    """The subgroup generated by some permutations, by repeated products."""
    members = {Perm.identity(gens[0].degree)}
    frontier = list(members)
    while frontier:
        frontier = list({g * p for p in frontier for g in gens} - members)
        members.update(frontier)
    return members


def test_homology_character(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["homology", "--json", str(path)]) == 0
    capsys.readouterr()
    [claim] = json.loads(path.read_text())["claims"]
    assert claim["id"] == "homology-lattice-character"
    assert claim["status"] == "pass"
    assert claim["witness"] == {"induced": "(10, -2, 1, 0, 0)",
                                "doubled_decomposition": {"V": 2, "I": 2, "I'": 2}}


def test_quaternion_arithmetic():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    assert i * j == k
    assert j * i == -k
    assert (i * i).a == rational(-1)
    assert i.norm() == rational(1)
    assert i * Quaternion(0, -1, 0, 0) == Quaternion(1, 0, 0, 0)


def test_binary_icosahedral_group():
    units = binary_icosahedral_group()
    assert len(units) == 120
    rep = binary_icosahedral_checks()
    assert rep["closed"] and rep["norm_one"]
    assert rep["center_order"] == 2 and rep["center_is_pm1"]
    assert rep["abelianization_order"] == 1
    assert rep["quotient_class_sizes"] == [1, 12, 12, 15, 20]


# -- the integer quaternions against the Cyclo formulas ---------------------------

COORDINATES = st.one_of(
    st.just(0), st.integers(-3, 3), st.fractions(-5, 5, max_denominator=9),
    field_elements(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)),
                   st.sampled_from([1, 2, 3, 6, 2**65 + 1])))
QUATERNIONS = st.builds(Quaternion, COORDINATES, COORDINATES, COORDINATES, COORDINATES)


@settings(max_examples=50)
@given(QUATERNIONS, QUATERNIONS)
def test_hamilton_product_matches_the_cyclo_formula(p, q):
    assert p * q == cyclo_loops.hamilton(p, q)
    assert q * p == cyclo_loops.hamilton(q, p)
    assert p.norm() == cyclo_loops.norm(p)
    assert -p == Quaternion(-p.a, -p.b, -p.c, -p.d)


def assert_canonical(q):
    assert q.den > 0 and len(q.nums) == 4
    assert gcd(q.den, *chain.from_iterable(q.nums)) == 1
    assert Quaternion(q.a, q.b, q.c, q.d) == q


@settings(max_examples=40)
@given(QUATERNIONS)
def test_equal_quaternions_have_one_form(q):
    one, i = Quaternion(1, 0, 0, 0), Quaternion(0, 1, 0, 0)
    minus_i = Quaternion(0, -1, 0, 0)
    for h in (Quaternion(q.a, q.b, q.c, q.d), q * one, one * q, -(-q), q * i * minus_i):
        assert (h.den, h.nums) == (q.den, q.nums)
        assert hash(h) == hash(q)
        assert_canonical(h)
    assert_canonical(q * q)


def test_units_from_integers_match_the_field_construction():
    units = binary_icosahedral_group()
    assert isinstance(units, frozenset)
    assert units == cyclo_loops.binary_icosahedral_group()
    for q in units:
        assert_canonical(q)
        assert cyclo_loops.norm(q) == 1


def test_quaternion_arithmetic_builds_no_field_element(monkeypatch):
    # the units, the Hamilton product, negation, == and hash run on the
    # integer numerators; a Cyclo is built only when a coordinate is read
    def refuse(*args):
        raise AssertionError("a field element was built")

    with monkeypatch.context() as patch:
        patch.setattr("wingerverify.cyclo._make", refuse)
        patch.setattr("wingerverify.covers._make", refuse)
        units = sorted(binary_icosahedral_group(), key=Quaternion.sort_key)
        p, q = units[7], units[90]
        got = [p * q, q * p, -p]
        one = Quaternion(1, 0, 0, 0)
        same = (p * one == p, p != q, hash(one * p) == hash(p))
    assert same == (True, True, True)
    assert got == [cyclo_loops.hamilton(p, q), cyclo_loops.hamilton(q, p),
                   Quaternion(-p.a, -p.b, -p.c, -p.d)]


def test_binary_checks_report_non_closed_units(monkeypatch):
    units = binary_icosahedral_group() - {Quaternion(-1, 0, 0, 0)}
    monkeypatch.setattr(covers, "binary_icosahedral_group", lambda: units)
    rep = binary_icosahedral_checks()
    assert rep["order"] == 119 and rep["closed"] is False
