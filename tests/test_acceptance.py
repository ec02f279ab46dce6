"""Acceptance gate: one test per criterion, one printed verdict line each.

The mathematics lives in the claims of the command line's report; a
criterion passes when every claim mapped to it in `CRITERIA` passes in
one in-process run of `winger-verify all --deep`.

The same-output runs (`GOLDEN_RUNS`) keep their exit code, text report
and JSON report, without `millis`, in `tests/golden/`; every run of the
program must give them again.  After a change that is meant to alter
them, rewrite them by hand from the tree's own program with

    PYTHONPATH=src:tests python -c "import test_acceptance as t; t.write_golden()"

and list every changed line in the change's notes.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from functools import lru_cache
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


GOLDEN_RUNS = (("all",), ("all", "--deep"), ("tuples", "--convention", "ltr"),
               ("pencil", "--deep"), ("degenerations",),
               *((suite, "--corrupt", spec) for suite, spec in FAULTS),
               ("pencil", "--deep", "--corrupt", "f:0,0,6"))
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


@lru_cache(maxsize=None)
def cli_run(argv: tuple):
    """Exit code, stdout and JSON report of one in-process CLI run, made
    once per test session for all the tests that read it; they must not
    change the report."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        with redirect_stdout(io.StringIO()) as out:
            code = cli.main([*argv, "--json", str(path)])
        return code, out.getvalue(), json.loads(path.read_text())


def golden_record(code, stdout, report, argv):
    """What a golden file holds of one run: all but the `millis`."""
    claims = [{k: v for k, v in c.items() if k != "millis"} for c in report["claims"]]
    return {"argv": list(argv), "exit_code": code, "stdout": stdout.splitlines(),
            "report": {**report, "claims": claims}}


def golden_path(argv):
    name = "_".join(argv).replace("--", "").replace(":", "-").replace(",", "-")
    return GOLDEN / f"{name}.json"


def write_golden():
    """Rewrites every golden file from the in-process runs of this tree."""
    GOLDEN.mkdir(exist_ok=True)
    for argv in GOLDEN_RUNS:
        record = golden_record(*cli_run(argv), argv)
        golden_path(argv).write_text(json.dumps(record, indent=1) + "\n")


@pytest.fixture(scope="module")
def claims():
    return {c["id"]: c for c in cli_run(("all", "--deep"))[2]["claims"]}


def verdict(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def gate(claims, num):
    text, ids = CRITERIA[num]
    failing = [i for i in ids if claims.get(i, {}).get("status") != "pass"]
    verdict(num, not failing, text + (f" [not passing: {failing}]" if failing else ""))


REFERENCE = ROOT / "perfbench" / "reference"


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


def test_criterion_12_fault_injection():
    got = {}
    for suite, spec in FAULTS:
        code, _, report = cli_run((suite, "--corrupt", spec))
        got[suite, spec] = (code, {c["id"] for c in report["claims"] if c["status"] == "fail"})
    wrong = {run: res for run, res in got.items() if res != (1, FAULTS[run])}
    verdict(12, not wrong, "each injected corruption of F or a group matrix fails "
                           "exactly its expected claims"
                           + (f" [differs: {wrong}]" if wrong else ""))


def test_criterion_13_discriminant(claims):
    gate(claims, 13)


def test_runs_give_the_golden_files():
    assert sorted(GOLDEN.glob("*.json")) == sorted(map(golden_path, GOLDEN_RUNS))
    for argv in GOLDEN_RUNS:
        want = json.loads(golden_path(argv).read_text())
        assert golden_record(*cli_run(argv), argv) == want, " ".join(argv)


def test_stdout_json_follows_the_text_report():
    # `--json -`, the path every benchmark report takes: the text report,
    # then one JSON document
    argv = ("tuples", "--convention", "ltr")
    with redirect_stdout(io.StringIO()) as out:
        code = cli.main([*argv, "--json", "-"])
    want = json.loads(golden_path(argv).read_text())
    lines = out.getvalue().splitlines()
    text = len(want["stdout"])
    report = json.loads("\n".join(lines[text:]))
    assert golden_record(code, "\n".join(lines[:text]), report, argv) == want


def test_witnesses_rest_on_no_hash_layout():
    # a fresh process under a fixed string-hash seed names the same
    # culprits as the stored run: no witness depends on a set's layout
    argv = ("pencil", "--corrupt", "f:0,0,6")
    env = {**os.environ, "PYTHONHASHSEED": "1", "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "wingerverify.cli", *argv, "--json", "-"],
                          capture_output=True, text=True, env=env, timeout=120)
    want = json.loads(golden_path(argv).read_text())
    text = len(want["stdout"])
    lines = proc.stdout.splitlines()
    report = json.loads("\n".join(lines[text:]))
    assert golden_record(proc.returncode, "\n".join(lines[:text]), report, argv) == want
