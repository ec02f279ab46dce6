"""Exactness: `cyclo.rational` is the one gate into Q(zeta_5), the source
holds no floating-point arithmetic, and no report witness holds a float.

A float is a binary value (0.1 is 3602879701896397 / 2^55), so letting
one into a coefficient would change the element without an error.
"""

import ast
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from test_acceptance import FAULTS, cli_run
from wingerverify.characters import ClassFunction, induced_character
from wingerverify.covers import Quaternion
from wingerverify.cyclo import Cyclo, golden, make, rational, zeta
from wingerverify.linalg import Matrix
from wingerverify.perms import alternating_group_5
from wingerverify.polys import Poly3
from wingerverify.winger import normalize_point

SRC = Path(__file__).resolve().parents[1] / "src" / "wingerverify"

# every way a plain value becomes a field element, applied to one value
ENTRY_POINTS = {
    "rational": rational,
    "make": lambda v: make([0, v]),
    "Cyclo": lambda v: Cyclo((v, 0, 0, 0)),
    "Matrix.__mul__": lambda v: Matrix.identity(3) * v,
    "Matrix": lambda v: Matrix((v, 0, 0, 0, 1, 0, 0, 0, 1)),
    "Poly3": lambda v: Poly3({(0, 0, 6): v}),
    "Poly3.evaluate": lambda v: Poly3.monomial((1, 0, 0)).evaluate((v, 0, 1)),
    "normalize_point": lambda v: normalize_point((v, 0, 1)),
    "Quaternion": lambda v: Quaternion(0, v, 0, 0),
    "ClassFunction": lambda v: ClassFunction((1, v, 0, 0, 0)),
    "induced_character": lambda v: induced_character(
        frozenset({alternating_group_5().identity}), {alternating_group_5().identity: v}),
}
INEXACT = {"float": 0.5, "str": "1/2", "Decimal": Decimal("0.5")}


@pytest.mark.parametrize("value", INEXACT.values(), ids=INEXACT)
@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_entry_point_refuses_inexact_values(entry, value):
    with pytest.raises(TypeError):
        entry(value)


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_entry_point_takes_an_int(entry):
    entry(2)  # so each refusal above comes from the value, not the call


def test_gate_returns_an_element_unchanged():
    for x in (zeta(), golden(), rational(Fraction(-3, 7))):
        assert rational(x) is x


def test_validating_constructor_takes_only_ints():
    with pytest.raises(TypeError):
        Cyclo((Fraction(1, 2), 0, 0, 0))
    with pytest.raises(TypeError):
        Cyclo((1, 0, 0, 0), Fraction(2))
    assert Cyclo((1, 0, 0, 0), 2) == rational(1) / 2


# -- no floating point in the source --------------------------------------------

MATH_NAMES = {"comb", "gcd", "lcm", "isqrt"}  # the integer functions of `math`


def float_sites(tree):
    """(line, what) for each float or complex literal, float() call and
    import from `math` beyond its integer functions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float() call"
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            yield node.lineno, "import math"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            extra = sorted({a.name for a in node.names} - MATH_NAMES)
            if extra:
                yield node.lineno, f"from math import {', '.join(extra)}"


def test_source_has_no_floating_point():
    found = [f"{path.relative_to(SRC)}:{line}: {what}" for path in sorted(SRC.rglob("*.py"))
             for line, what in float_sites(ast.parse(path.read_text()))]
    assert found == []


def test_float_scan_finds_each_kind():
    code = "import math\nfrom math import gcd, sqrt\nx = float(2) * 0.5 + 1j\n"
    assert {what for _, what in float_sites(ast.parse(code))} == {
        "import math", "from math import sqrt", "float() call", "literal 0.5", "literal 1j"}


# -- no float in a report ---------------------------------------------------------


def exact(value) -> bool:
    """Does a JSON value hold only strings, ints, bools, None, lists and
    dicts with string keys, at any depth?"""
    if value is None or isinstance(value, (str, int)):  # a bool is an int
        return True
    if isinstance(value, list):
        return all(map(exact, value))
    if isinstance(value, dict):
        return all(isinstance(k, str) and exact(v) for k, v in value.items())
    return False


RUNS = [("all", "--deep"), ("tuples", "--convention", "ltr"),
        *((suite, "--corrupt", spec) for suite, spec in FAULTS)]


@pytest.mark.parametrize("argv", RUNS, ids=" ".join)
def test_witnesses_hold_no_float(argv):
    claims = cli_run(argv)[2]["claims"]
    assert [c["id"] for c in claims if not exact(c["witness"])] == []


def test_exact_rejects_a_nested_float():
    assert exact({"a": [1, "x", None, True, {"b": [2]}]})
    assert not exact({"a": [1, {"b": 0.5}]})
