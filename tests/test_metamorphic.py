"""Verdicts that do not depend on the labels or the coordinates.

Each claim is a fact about the icosahedral action, the pencil and the
covers, not about the order in which the six lines are listed or the
coordinates in which the paper writes them.  So a relabeling of the six
lines, or a change of coordinates z = T z' of det 1, leaves the exit code,
every status and every witness of `all --deep` as they are: two
metamorphic relations (Chen et al., "Metamorphic Testing: A Review of
Challenges and Opportunities", ACM Computing Surveys 51(1), 2018).  A
corrupted run keeps its statuses; its failing witnesses name points,
which move with T.

The inputs are patched where the package reads them, and every cache is
cleared before and after each run.
"""

import json

import pytest

from test_cli import package_caches
from wingerverify import discriminant, winger
from wingerverify.cli import main
from wingerverify.linalg import Matrix

RELABELINGS = [(5, 4, 3, 2, 1, 0), (2, 0, 4, 1, 5, 3)]
CORRUPTIONS = [("--corrupt", "f:0,0,6"), ("--corrupt", "matrix:3")]
# a signed permutation: the fast paths keep their shapes
T = Matrix.from_rows([[0, 0, 1], [0, -1, 0], [1, 0, 0]])


def verdicts(path, *argv):
    """Exit code and each claim's (id, status, witness) of one in-process
    run of `all --deep`, every cache cleared before and after it."""
    caches = package_caches().values()
    for cached in caches:
        cached.cache_clear()
    try:
        code = main(["all", "--deep", *argv, "--json", str(path)])
    finally:
        for cached in caches:
            cached.cache_clear()
    return code, [(c["id"], c["status"], c["witness"])
                  for c in json.loads(path.read_text())["claims"]]


def statuses(run):
    code, claims = run
    return code, [(i, status) for i, status, _ in claims]


@pytest.fixture(scope="module")
def standard(tmp_path_factory):
    """The runs on the paper's inputs, uncorrupted and corrupted."""
    path = tmp_path_factory.mktemp("standard") / "report.json"
    return {argv: verdicts(path, *argv) for argv in [(), *CORRUPTIONS]}


@pytest.mark.parametrize("order", RELABELINGS, ids=str)
def test_a_relabeling_of_the_lines_keeps_every_verdict(order, standard, tmp_path, monkeypatch):
    rows = winger.six_lines()
    monkeypatch.setattr(winger, "six_lines", lambda: tuple(rows[i] for i in order))
    path = tmp_path / "report.json"
    assert verdicts(path) == standard[()]
    for argv in CORRUPTIONS:
        assert statuses(verdicts(path, *argv)) == statuses(standard[argv])


def test_a_change_of_coordinates_keeps_every_verdict(standard, tmp_path, monkeypatch):
    # z = T z': the line rows r T, Q o T and T^t G T, so that F becomes
    # F o T and every lam keeps its value
    rows = tuple(tuple(T.transpose().apply(row)) for row in winger.six_lines())
    q, gram = winger.q_poly().act(T), T.transpose() * winger.gram_matrix() * T
    monkeypatch.setattr(winger, "six_lines", lambda: rows)
    monkeypatch.setattr(winger, "gram_matrix", lambda: gram)
    for module in (winger, discriminant):
        monkeypatch.setattr(module, "q_poly", lambda: q)
    assert verdicts(tmp_path / "report.json") == standard[()]
