import json
from collections import Counter
from fractions import Fraction

import pytest

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
        assert r.n == (g3 * g4).order() == r_value(cls)
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


def test_binary_checks_report_non_closed_units(monkeypatch):
    units = binary_icosahedral_group() - {Quaternion(-1, 0, 0, 0)}
    monkeypatch.setattr(covers, "binary_icosahedral_group", lambda: units)
    rep = binary_icosahedral_checks()
    assert rep["order"] == 119 and rep["closed"] is False
