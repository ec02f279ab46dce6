from collections import Counter

import pytest

from wingerverify import covers
from wingerverify.covers import (DegenerationReport, Quaternion, alpha_value,
                                 all_degeneration_reports,
                                 binary_icosahedral_checks,
                                 binary_icosahedral_group, degeneration_report,
                                 homology_character_check, regular_cover_genus,
                                 signature_solutions)
from wingerverify.cyclo import rational


def test_alpha_values():
    assert [alpha_value(k) for k in (1, 2, 3, 5)] == [0, 30, 40, 48]
    with pytest.raises(ValueError):
        alpha_value(4)


def test_signature_unique():
    assert signature_solutions() == [(0, (5, 2, 2, 2))]


def test_regular_cover_genera():
    assert regular_cover_genus(60, (5, 2, 2, 2)) == 10
    assert regular_cover_genus(3, [3] * 12) == 10
    assert regular_cover_genus(10, (5, 2, 2)) == 0
    assert regular_cover_genus(60, (5, 2, 5)) == 4
    with pytest.raises(ValueError):
        regular_cover_genus(10, (3,))  # 3 does not divide 10


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
    # the r-value of the class matches the coalesced order
    for cls, r in reports:
        assert r.n == (cls.rep[2] * cls.rep[3]).order()


def test_homology_character():
    ok, chi, doubled = homology_character_check()
    assert ok
    assert str(chi) == "(10, -2, 1, 0, 0)"
    assert doubled == {"V": 2, "I": 2, "I'": 2}


def test_quaternion_arithmetic():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    assert i * j == k
    assert j * i == -k
    assert (i * i).a == rational(-1)
    assert i.norm() == rational(1)
    assert i * i.conjugate() == Quaternion(1, 0, 0, 0)


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
