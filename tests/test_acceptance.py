"""Acceptance gate: one test per criterion, one printed verdict line each.

The mathematics lives in the claims of the command line's report; a
criterion passes when every claim mapped to it in `CRITERIA` passes in
one in-process run of `winger-verify all --deep`.
"""

import json
from pathlib import Path

import pytest

from wingerverify import cli

CRITERIA = {
    1: ("60 matrices, class sizes 1/15/20/12/12, trace multiset = a "
        "3-dimensional character row",
        ("group-reconstruction-60", "group-class-sizes", "group-trace-character")),
    2: ("Q, F, the bilinear form and det 1 fixed by all 60 elements",
        ("invariance-conic-sextic-form",)),
    3: ("singular members exactly {0, -1, 27/5, infinity} on the 12/6/10/15 "
        "orbits, with nodes where claimed",
        ("lines-no-three-concurrent", "irregular-orbit-sizes", "lambda-six-orbit",
         "lambda-ten-orbit", "lambda-fifteen-orbit", "node-nondegeneracy",
         "base-locus-twelve-points", "no-extra-singular-orbits")),
    4: ("Molien series matches (1+T^15)/((1-T^2)(1-T^6)(1-T^10)); Reynolds "
        "dimensions agree; dim of the sextic space is 28",
        ("molien-closed-form", "reynolds-dimensions", "degree6-invariants")),
    5: ("character table orthonormal; symmetric cube is (10,-2,1,0,0) = I+I'+V; "
        "E restricts to I+I'",
        ("characters-table-orthonormal", "characters-symcube-rank10",
         "characters-restrict-E")),
    6: ("induced sign character is (10,-2,1,0,0); doubled it is V^2 + (I+I')^2",
        ("homology-lattice-character",)),
    7: ("20 tuple classes with the 4/6/10 and 10/10 splits; the ten published "
        "rows validate; 6 free pair orbits; r involution factorizations per "
        "order-r element",
        ("order-sets", "pair-orbits-free-6", "involution-factorizations",
         "tuple-classes-20", "tuple-table-rows")),
    8: ("pure and weighted braid generators each give two orbits of size 10 = "
        "the g1-class blocks, each containing all r-types",
        ("braid-pure-orbits", "braid-weighted-orbits")),
    9: ("(0;5,2,2,2) is the unique signature; genus checks 10/10/0/4 all hold",
        ("alpha-values", "signature-unique", "riemann-hurwitz-genera")),
    10: ("all 20 classes fall into the three degeneration shapes, every "
         "arithmetic genus is 10",
         ("degeneration-reports",)),
    11: ("120 unit quaternions: closed, perfect, center {+1, -1}, quotient has "
         "the icosahedral class sizes",
         ("binary-icosahedral",)),
    13: ("discriminant of degree 60 vanishes exactly at 0, -1, 27/5 (orders 44, "
         "6, 10), the degree drop below 75 being the member at infinity",
         ("discriminant-root-set",)),
}

# (subcommand, corruption spec) -> the claims that must fail, and only those
FAULTS = {
    ("orbits", "f:6,0,0"): {"invariance-conic-sextic-form"},
    ("orbits", "f:3,2,1"): {"invariance-conic-sextic-form"},
    ("pencil", "f:0,0,6"): {"lambda-six-orbit", "lambda-ten-orbit",
                            "lambda-fifteen-orbit", "node-nondegeneracy",
                            "base-locus-twelve-points"},
    ("orbits", "matrix:0"): {"invariance-conic-sextic-form"},
    ("orbits", "matrix:17"): {"invariance-conic-sextic-form"},
    ("invariants", "matrix:3"): {"molien-closed-form", "reynolds-dimensions",
                                 "degree6-invariants"},
}


def run_report(argv, path):
    """Exit code and claims (by id) of one in-process CLI run."""
    code = cli.main([*argv, "--json", str(path)])
    return code, {c["id"]: c for c in json.loads(path.read_text())["claims"]}


@pytest.fixture(scope="module")
def claims(tmp_path_factory):
    path = tmp_path_factory.mktemp("acceptance") / "report.json"
    return run_report(["all", "--deep"], path)[1]


def verdict(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def gate(claims, num):
    text, ids = CRITERIA[num]
    failing = [i for i in ids if claims.get(i, {}).get("status") != "pass"]
    verdict(num, not failing, text + (f" [not passing: {failing}]" if failing else ""))


REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def test_report_matches_benchmark_references(claims):
    # the benchmark's stored reports of `all` and `pencil --deep` (read
    # only): same claims in the same order, and each status and witness
    # unchanged, except that a claim skipped there may pass here
    for name in ("report-all", "pencil-deep"):
        ref = json.loads((REFERENCE / f"{name}.json").read_text())["claims"]
        if name == "report-all":
            assert [c["id"] for c in ref] == list(claims)
        for want in ref:
            got = claims[want["id"]]
            if want["status"] == "skipped":
                assert got["status"] in ("skipped", "pass"), want["id"]
                continue
            assert (got["status"], got["witness"]) == (want["status"], want["witness"]), \
                want["id"]


def test_every_claim_is_gated(claims):
    mapped = [i for _, ids in CRITERIA.values() for i in ids]
    assert len(mapped) == len(set(mapped)) == 32
    assert set(mapped) == set(claims)


def test_criterion_01_group_reconstruction(claims):
    gate(claims, 1)


def test_criterion_02_invariance(claims):
    gate(claims, 2)


def test_criterion_03_singular_fibers(claims):
    gate(claims, 3)


def test_criterion_04_molien(claims):
    gate(claims, 4)


def test_criterion_05_characters(claims):
    gate(claims, 5)


def test_criterion_06_homology(claims):
    gate(claims, 6)


def test_criterion_07_tuples(claims):
    gate(claims, 7)


def test_criterion_08_braid_orbits(claims):
    gate(claims, 8)


def test_criterion_09_riemann_hurwitz(claims):
    gate(claims, 9)


def test_criterion_10_degenerations(claims):
    gate(claims, 10)


def test_criterion_11_binary_icosahedral(claims):
    gate(claims, 11)


def test_criterion_12_fault_injection(tmp_path, capsys):
    got = {}
    for (suite, spec), want in FAULTS.items():
        code, report = run_report([suite, "--corrupt", spec], tmp_path / "report.json")
        got[suite, spec] = (code, {i for i, c in report.items() if c["status"] == "fail"})
    capsys.readouterr()
    wrong = {run: res for run, res in got.items() if res != (1, FAULTS[run])}
    verdict(12, not wrong, "each injected corruption of F or a group matrix fails "
                           "exactly its expected claims"
                           + (f" [differs: {wrong}]" if wrong else ""))


def test_criterion_13_discriminant(claims):
    gate(claims, 13)
