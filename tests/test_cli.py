import ast
import importlib
import json
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wingerverify import (characters, cli, covers, discriminant, hurwitz, invariants,
                          perms, winger)
from wingerverify.cli import Corruption, main
from wingerverify.cyclo import rational, zeta
from wingerverify.linalg import Matrix
from wingerverify.report import ClaimReport, run_claim

SRC = Path(__file__).resolve().parents[1] / "src"


def run(argv):
    return main(argv)


def test_fast_subcommands_pass(capsys):
    for sub in ("characters", "covers", "degenerations", "homology"):
        assert run([sub]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "0 failed" in out


def test_json_report_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["covers", "--json", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert set(data) == {"version", "convention", "claims"}
    assert data["convention"] == "rtl"
    ids = [c["id"] for c in data["claims"]]
    assert len(ids) == len(set(ids))
    for claim in data["claims"]:
        assert claim["status"] in ("pass", "fail", "skipped")
        if claim["status"] == "pass":
            assert claim["witness"]


def test_unwritable_json_path_is_a_usage_error(tmp_path, capsys):
    # every claim passes, so exit 1 ("a claim failed") would mislead
    assert run(["covers"]) == 0
    plain = capsys.readouterr().out
    path = tmp_path / "missing" / "r.json"
    assert run(["covers", "--json", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == plain
    assert captured.err.count("\n") == 1 and str(path) in captured.err
    assert "Traceback" not in captured.err
    assert not path.exists()


def test_tuples_subcommand_and_ltr(capsys):
    assert run(["tuples", "--convention", "ltr"]) == 0
    out = capsys.readouterr().out
    assert "tuple-classes-20-ltr" in out
    assert "tuple-classes-20:" in out  # default convention recomputed alongside


def test_pencil_skips_deep_by_default(capsys):
    assert run(["pencil"]) == 0
    out = capsys.readouterr().out
    assert "SKIP discriminant-root-set" in out


def test_usage_error_exit_2():
    for argv in (["bogus"], ["all", "--digits", "3"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


LOADED_MODULES = """\
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import wingerverify.cli
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = wingerverify.cli.main(sys.argv[2:])
    if code:
        sys.exit(f"exit {code}")
print(" ".join(sys.modules))
"""


def loaded_modules(*argv):
    """The modules that `import wingerverify.cli`, then a run of the CLI
    on `argv` if one is given, load into a fresh process: sympy loads
    mpmath into the test process, and the tests import every wingerverify
    module, so only a fresh one can tell."""
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, str(SRC), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def package_modules(modules):
    return {m.removeprefix("wingerverify.") for m in modules
            if m.startswith("wingerverify.")}


@pytest.fixture(scope="module")
def cli_import_modules():
    return loaded_modules()


def test_cli_import_loads_no_float_library(cli_import_modules):
    assert "wingerverify.cli" in cli_import_modules
    assert "mpmath" not in cli_import_modules


def test_cli_import_defers_the_discriminant(cli_import_modules):
    # `deep()` imports it, so commands without --deep never pay for it;
    # likewise each suite module is imported on its suite's first call, and
    # each suite imports its layers when it runs
    assert "wingerverify.discriminant" not in cli_import_modules
    assert package_modules(cli_import_modules) == {"cli", "report"}
    assert "fractions" not in cli_import_modules


# standard modules that only an error path or a record decorator would load
ERROR_PATH_MODULES = {"dataclasses", "inspect", "traceback"}


def test_cli_import_loads_no_error_path_module(cli_import_modules):
    assert ERROR_PATH_MODULES.isdisjoint(cli_import_modules)


def json_modules(modules):
    return {m for m in modules if m.split(".")[0] in ("json", "_json")}


def test_only_a_json_report_loads_json(cli_import_modules):
    # `ClaimReport.to_json` and a failing witness import it, so a passing
    # run without --json never does
    assert json_modules(cli_import_modules) == set()
    assert json_modules(loaded_modules("tuples", "--convention", "ltr")) == set()
    assert "json" in loaded_modules("tuples", "--json", "-")


def test_tuples_load_only_the_permutation_layers():
    modules = loaded_modules("tuples", "--convention", "ltr")
    assert package_modules(modules) == {"cli", "report", "suites", "suites.tuples",
                                        "hurwitz", "perms"}
    assert "fractions" not in modules
    assert ERROR_PATH_MODULES.isdisjoint(modules)


def test_pencil_deep_loads_only_its_suite_and_the_discriminant():
    loaded = package_modules(loaded_modules("pencil", "--deep"))
    assert {"suites.pencil", "discriminant", "winger"} <= loaded
    assert {m for m in loaded if m.startswith("suites.")} == {"suites.pencil"}
    assert loaded.isdisjoint({"invariants", "characters", "covers", "hurwitz"})


def test_pencil_loads_no_group_theory_layer():
    loaded = package_modules(loaded_modules("pencil"))
    assert {"winger", "cyclo", "polys"} <= loaded
    assert loaded.isdisjoint({"invariants", "characters", "covers", "hurwitz",
                              "discriminant"})


def test_corruption_specs():
    c = Corruption("f:3,2,1")
    assert c.f_expo == (3, 2, 1)
    with pytest.raises(ValueError):
        Corruption("f:1,1,1")  # not degree 6
    with pytest.raises(ValueError):
        Corruption("nonsense:1")


@pytest.mark.parametrize("spec, message", [
    ("matrix:60", "corruption matrix index must be in 0..59"),
    ("matrix:-1", "corruption matrix index must be in 0..59"),
    ("f:1,2", "corruption exponent must be a degree-6 triple"),
    ("f:", "corruption exponent must be a degree-6 triple"),
    ("f:a,b,c", "corruption exponent must be a degree-6 triple"),
    ("matrix:x", "corruption matrix index must be in 0..59"),
    ("bogus:1", "unknown corruption spec 'bogus:1'")])
def test_bad_corruption_spec_is_a_usage_error(spec, message, capsys):
    # refused before any suite runs: no report, one message on stderr
    with pytest.raises(SystemExit) as exc:
        run(["orbits", "--corrupt", spec])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines()
            if line.startswith("winger-verify: error:")] == [
        f"winger-verify: error: {message}"]
    assert "Traceback" not in captured.err


def test_corrupted_sextic_fails(capsys):
    assert run(["orbits", "--corrupt", "f:6,0,0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_corrupted_sextic_fails_degree6_invariants(capsys):
    assert run(["invariants", "--corrupt", "f:6,0,0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL degree6-invariants" in out
    assert "PASS reynolds-dimensions" in out


def pencil_claims(tmp_path, argv, code):
    path = tmp_path / "report.json"
    assert run(["pencil", *argv, "--json", str(path)]) == code
    return {c["id"]: c for c in json.loads(path.read_text())["claims"]}


def orbit_strings(size):
    return [[str(c) for c in p] for p in winger.irregular_orbits()[size]]


def test_node_witness_counts_nodal_points(tmp_path, capsys):
    claim = pencil_claims(tmp_path, [], 0)["node-nondegeneracy"]
    assert claim["witness"] == {"nodal_points": 31, "triple_conic_degenerate": True}
    claim = pencil_claims(tmp_path, ["--corrupt", "f:0,0,6"], 1)["node-nondegeneracy"]
    capsys.readouterr()
    witness = claim["witness"]
    assert claim["status"] == "fail" and witness["nodal_points"] < 31
    # the first point off its wanted pair is the 6-orbit's own fixed point
    # (0:0:1), where z2^6 added to F moves the nodal member to lambda = -1/2
    assert (witness["orbit"], witness["lambda"], witness["node"]) == (6, "-1/2", True)
    assert witness["point"] == ["0", "0", "1"] == orbit_strings(6)[0]


def test_base_locus_witness_names_the_member_and_point(tmp_path, capsys):
    claim = pencil_claims(tmp_path, [], 0)["base-locus-twelve-points"]
    assert claim["witness"] == {"points": 12, "members_checked": 6}
    claim = pencil_claims(tmp_path, ["--corrupt", "f:0,0,6"], 1)["base-locus-twelve-points"]
    capsys.readouterr()
    # z2^6 added to F: Q^3 (lambda = 0) still vanishes on the conic points,
    # Q^3 + F' at lambda = 1 is the first member that does not
    witness = claim["witness"]
    assert claim["status"] == "fail"
    assert {k: witness[k] for k in ("points", "members_checked", "lambda")} == {
        "points": 12, "members_checked": 6, "lambda": "1"}
    assert witness["point"] in orbit_strings(12)


def test_package_has_no_assert_statements():
    # python -O strips asserts, so no correctness check may rest on one
    package = SRC / "wingerverify"
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not lines, f"{path.relative_to(package)}: assert on lines {lines}"


def test_corrupted_matrix_fails(capsys):
    assert run(["orbits", "--corrupt", "matrix:3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL invariance-conic-sextic-form" in out


def direct_violations(m, i, f):
    """The invariance claim's (label, i) violations of matrix i, checked on
    that matrix alone."""
    q, gram = winger.q_poly(), winger.gram_matrix()
    return [(label, i) for label, holds in (
        ("Q", q.act(m) == q), ("F", f.act(m) == f),
        ("gram", m.transpose() * gram * m == gram), ("det", m.det() == rational(1)))
        if not holds]


def invariance_report(spec, tmp_path):
    """Exit code, failing claim ids and the invariance witness of one
    `orbits --corrupt spec` run."""
    path = tmp_path / "report.json"
    code = run(["orbits", "--corrupt", spec, "--json", str(path)])
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    failing = {i for i, c in claims.items() if c["status"] != "pass"}
    return code, failing, claims["invariance-conic-sextic-form"]["witness"]


def as_witness(violations):
    return {"violations": [list(v) for v in violations[:5]], "count": len(violations)}


def test_every_matrix_fault_fails_only_invariance(tmp_path, capsys):
    # the claim checks the generators of the group and proves the rest;
    # each corrupted matrix, the three generator indices among them, is no
    # group member and must show exactly the violations of a check of all
    # 60 matrices one by one
    group, f = winger.reconstruct_group(), winger.f_poly()
    base = [direct_violations(m, i, f) for i, m in enumerate(group.elements)]
    assert base == [[]] * 60
    for k in range(60):
        mats = Corruption(f"matrix:{k}").matrices()
        want = [v for i, m in enumerate(mats)
                for v in (direct_violations(m, i, f) if i == k else base[i])]
        assert want
        got = invariance_report(f"matrix:{k}", tmp_path)
        assert got == (1, {"invariance-conic-sextic-form"}, as_witness(want)), k
    capsys.readouterr()


@pytest.mark.parametrize("spec", ["f:6,0,0", "f:3,2,1"])
def test_sextic_fault_witness_matches_the_direct_check(spec, tmp_path, capsys):
    # the generators fail, so every matrix is checked
    f = Corruption(spec).sextic()
    want = [v for i, m in enumerate(winger.reconstruct_group().elements)
            for v in direct_violations(m, i, f)]
    assert invariance_report(spec, tmp_path) == (
        1, {"invariance-conic-sextic-form"}, as_witness(want))
    capsys.readouterr()


def test_corrupted_matrix_fails_invariants(capsys):
    assert run(["invariants", "--corrupt", "matrix:3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL molien-closed-form" in out
    assert "FAIL reynolds-dimensions" in out
    assert "FAIL degree6-invariants" in out


def test_corrupted_matrix_invariant_witnesses(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["invariants", "--corrupt", "matrix:3", "--json", str(path)]) == 1
    capsys.readouterr()
    # each claim shows what it computed: the Molien average, whose T
    # coefficient is the trace sum over 60, here 1/60 (the corrupted entry
    # adds 1 to one trace), and the refusal of the Reynolds bases
    witnesses = {c["id"]: c["witness"] for c in json.loads(path.read_text())["claims"]}
    molien = witnesses.pop("molien-closed-form")
    assert molien["matches_closed_form"] is False
    assert len(molien["series"]) == 31 and molien["series"][:2] == ["1", "1/60"]
    not_closed = {"reynolds": "element list is not closed under the product"}
    assert witnesses == {"reynolds-dimensions": not_closed, "degree6-invariants": not_closed}


def test_all_builds_the_matrix_group_once(monkeypatch, capsys):
    builds = []
    init = perms.FiniteGroup.__init__

    def logged(self, elements):
        elements = tuple(elements)
        builds.append((type(elements[0]), len(elements)))
        init(self, elements)
    monkeypatch.setattr(perms.FiniteGroup, "__init__", logged)
    for cached in (winger.reconstruct_group, perms.finite_group,
                   invariants._reynolds_setup):
        cached.cache_clear()
    assert run(["all"]) == 0
    capsys.readouterr()
    assert builds.count((Matrix, 60)) == 1


def test_tuples_make_no_permutation_products(monkeypatch, capsys):
    # with the A5 Cayley table built, the tuple claims read every product
    # from it
    perms.alternating_group_5()
    for cached in (hurwitz.order_sets, hurwitz.enumerate_tuple_classes):
        cached.cache_clear()
    calls = []
    mul = perms.Perm.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)
    monkeypatch.setattr(perms.Perm, "__mul__", counted)
    assert run(["tuples", "--convention", "ltr"]) == 0
    capsys.readouterr()
    assert calls == []


def test_tuple_classes_walk_no_conjugation_orbits(monkeypatch, capsys):
    # canonical tuple classes search a centralizer coset; whole orbits are
    # walked only by pair_orbits, once per each of its six orbits
    perms.alternating_group_5()
    for cached in (hurwitz.order_sets, hurwitz.enumerate_tuple_classes):
        cached.cache_clear()
    callers = []
    conjugates = perms.FiniteGroup.conjugates

    def counted(self, t):
        callers.append(sys._getframe(1).f_code.co_name)
        return conjugates(self, t)
    monkeypatch.setattr(perms.FiniteGroup, "conjugates", counted)
    assert run(["tuples", "--convention", "ltr"]) == 0
    capsys.readouterr()
    assert callers == ["pair_orbits"] * 6


def test_characters_and_homology_make_no_permutation_products(monkeypatch, capsys):
    # with the A5 Cayley table built, characters are read from it and S5
    # classes from cycle types
    perms.alternating_group_5()
    for cached in (characters._class_data, characters.a5_table, characters.power_maps):
        cached.cache_clear()
    calls = []
    mul = perms.Perm.__mul__

    def counted(self, other):
        calls.append(other)
        return mul(self, other)
    monkeypatch.setattr(perms.Perm, "__mul__", counted)
    assert run(["characters"]) == 0
    assert run(["homology"]) == 0
    capsys.readouterr()
    assert calls == []


def test_all_enumerates_tuple_classes_once(capsys):
    enumerate_classes = hurwitz.enumerate_tuple_classes
    enumerate_classes.cache_clear()
    assert run(["all"]) == 0
    capsys.readouterr()
    info = enumerate_classes.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)
    enumerate_classes("rtl")  # the one entry is the "rtl" reading
    assert enumerate_classes.cache_info().misses == 1


def package_caches():
    """Every module-level lru_cache of the package, once each."""
    caches = {}
    for info in pkgutil.walk_packages([str(SRC / "wingerverify")], "wingerverify."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{info.name.removeprefix('wingerverify.')}.{name}"] = obj
    return caches


def test_every_cache_is_hit_by_all(capsys):
    # a cache that `all` never hits only costs its memory
    caches = package_caches()
    assert {"winger.reconstruct_group", "winger.singular_point"} <= set(caches)
    for cached in caches.values():
        cached.cache_clear()
    assert run(["all"]) == 0
    capsys.readouterr()
    unhit = [name for name, cached in caches.items() if cached.cache_info().hits < 1]
    assert unhit == []


def test_singular_lambda_is_computed_once_per_point_and_sextic(tmp_path, capsys):
    # the pencil claims ask 117 times about the 43 orbit points; the cache
    # is keyed by the sextic as well, so a corrupted pencil after a clean
    # one in the same process reads its own parameters
    cached = winger.singular_point
    cached.cache_clear()
    assert run(["pencil"]) == 0
    assert (cached.cache_info().misses, cached.cache_info().hits) == (43, 117 - 43)
    path = tmp_path / "report.json"
    assert run(["pencil", "--corrupt", "f:0,0,6", "--json", str(path)]) == 1
    capsys.readouterr()
    assert cached.cache_info().misses == 2 * 43
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert claims["node-nondegeneracy"]["witness"]["nodal_points"] == 5


def test_corrupted_sextic_fails_discriminant(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["pencil", "--deep", "--corrupt", "f:0,0,6", "--json", str(path)]) == 1
    capsys.readouterr()
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert claims["discriminant-root-set"]["status"] == "fail"


@pytest.mark.parametrize("fault", ["mismatch", "minor_vanishes"])
def test_failed_macaulay_control_fails_discriminant(fault, tmp_path, monkeypatch, capsys):
    resultant = discriminant.macaulay_resultant_value

    def faulty(fs, degrees):
        if fault == "minor_vanishes":
            raise ZeroDivisionError("degenerate minor")
        return resultant(fs, degrees) + 1
    monkeypatch.setattr(discriminant, "macaulay_resultant_value", faulty)
    path = tmp_path / "report.json"
    assert run(["pencil", "--deep", "--json", str(path)]) == 1
    capsys.readouterr()
    claim = {c["id"]: c for c in json.loads(path.read_text())["claims"]}["discriminant-root-set"]
    assert claim["status"] == "fail"
    assert claim["witness"]["degree"] == 60
    expect = ({"lambda": 1, "holds": False} if fault == "mismatch" else
              {"lambda": None, "holds": False, "minor_vanishes_up_to_lambda": 31})
    assert claim["witness"]["control"] == expect


def test_control_coordinates_of_another_determinant_fail_discriminant(tmp_path, monkeypatch, capsys):
    # the control scales det H by CONTROL_SCALE = 2^(25 + 125), det(T)^150
    # for its det T = 2, so coordinates of det 1 (in which the minor does
    # not vanish at lambda = 1) do not let the control hold
    monkeypatch.setattr(discriminant, "CONTROL_T", ((0, -1, 0), (0, 1, 1), (-1, 0, 0)))
    path = tmp_path / "report.json"
    assert run(["pencil", "--deep", "--json", str(path)]) == 1
    capsys.readouterr()
    claim = {c["id"]: c for c in json.loads(path.read_text())["claims"]}["discriminant-root-set"]
    assert claim["status"] == "fail"
    assert claim["witness"]["control"] == {"lambda": 1, "holds": False}


def table_rows_witness(k, row, tmp_path, monkeypatch, capsys):
    """The witness of `tuple-table-rows`, the one claim of a `tuples` run
    that fails, with published row k replaced by `row`."""
    rows = list(hurwitz.TUPLE_TABLE_ROWS)
    rows[k] = row
    monkeypatch.setattr(hurwitz, "TUPLE_TABLE_ROWS", tuple(rows))
    path = tmp_path / "report.json"
    assert run(["tuples", "--json", str(path)]) == 1
    capsys.readouterr()
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert claims["tuple-table-rows"]["status"] == "fail"
    assert [c["id"] for c in claims.values() if c["status"] != "pass"] == [
        "tuple-table-rows"]
    return claims["tuple-table-rows"]["witness"]


def test_bad_published_row_fails_its_claim(tmp_path, monkeypatch, capsys):
    row = hurwitz.TUPLE_TABLE_ROWS[0][:3] + ("(12)(34)",)
    assert table_rows_witness(0, row, tmp_path, monkeypatch, capsys) == {
        "rows_matched": 9,
        "unmatched": [["(12345)", "(12)(35)", "(15)(34)", "(12)(34)"]]}


def test_duplicated_published_row_fails_its_claim(tmp_path, monkeypatch, capsys):
    # every row matches, but two of them name the same class
    row = hurwitz.TUPLE_TABLE_ROWS[0]
    assert table_rows_witness(1, row, tmp_path, monkeypatch, capsys) == {
        "rows_matched": 10, "distinct_classes": 9}


def test_report_content_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["homology", "--json", str(p1)]) == 0
    assert run(["homology", "--json", str(p2)]) == 0
    capsys.readouterr()
    d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
    for c in d1["claims"] + d2["claims"]:
        c.pop("millis")  # wall-clock field; everything else must be identical
    assert d1 == d2


def test_claim_error_keeps_report(tmp_path, monkeypatch, capsys):
    def boom():
        raise RuntimeError("injected")
    monkeypatch.setattr(covers, "signature_solutions", boom)
    path = tmp_path / "report.json"
    assert run(["covers", "--json", str(path)]) == 3
    captured = capsys.readouterr()
    out = captured.out
    assert "ERROR signature-unique" in out and "3 claims, 0 failed, 1 errors" in out
    assert captured.err.startswith("Traceback (most recent call last):")
    assert "in boom" in captured.err and "RuntimeError: injected" in captured.err
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert claims["signature-unique"]["status"] == "error"
    assert claims["signature-unique"]["witness"] == {"type": "RuntimeError",
                                                     "message": "injected"}
    assert claims["alpha-values"]["status"] == "pass"
    assert claims["riemann-hurwitz-genera"]["status"] == "pass"


def test_suite_crash_keeps_other_suites(tmp_path, monkeypatch, capsys):
    def crash(report, args, corruption):
        raise KeyError("setup")
    monkeypatch.setattr(cli, "ALL_ORDER", ("homology", "covers"))
    monkeypatch.setitem(cli.SUITES, "homology", crash)
    path = tmp_path / "report.json"
    assert run(["all", "--json", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("Traceback (most recent call last):")
    assert "in crash" in captured.err and "KeyError: 'setup'" in captured.err
    assert "internal error in suite homology" in captured.err
    assert "ERROR suite-homology" in captured.out
    assert "4 claims, 0 failed, 1 errors" in captured.out
    claims = json.loads(path.read_text())["claims"]
    assert [c["id"] for c in claims] == ["suite-homology", "alpha-values",
                                         "signature-unique", "riemann-hurwitz-genera"]
    assert claims[0]["status"] == "error"
    assert claims[0]["witness"] == {"type": "KeyError", "message": "'setup'"}
    assert all(c["status"] == "pass" for c in claims[1:])


def test_reconstruction_fault_fails_its_claim(tmp_path, monkeypatch, capsys):
    def fault():
        raise winger.ReconstructionError("three of the six lines are concurrent")
    monkeypatch.setattr(winger, "reconstruct_group", fault)
    path = tmp_path / "report.json"
    assert run(["orbits", "--json", str(path)]) == 1
    capsys.readouterr()
    claims = json.loads(path.read_text())["claims"]
    # the claims that read the group are skipped in their places; the
    # concurrency claim reads only the lines and runs
    skipped = {"requires": "group-reconstruction-60"}
    assert [(c["id"], c["status"], c["witness"]) for c in claims] == [
        ("group-reconstruction-60", "fail", "three of the six lines are concurrent"),
        ("group-class-sizes", "skipped", skipped),
        ("group-trace-character", "skipped", skipped),
        ("invariance-conic-sextic-form", "skipped", skipped),
        ("lines-no-three-concurrent", "pass", {"triples_checked": 20}),
        ("irregular-orbit-sizes", "skipped", skipped)]


def test_tuple_enumeration_error_stays_in_its_claims(tmp_path, monkeypatch, capsys):
    # the classes are read inside each claim that uses them, so a raising
    # enumeration errors those four claims and loses no other
    def crash(conv):
        raise RuntimeError(f"no {conv} classes")
    monkeypatch.setattr(hurwitz, "enumerate_tuple_classes", crash)
    path = tmp_path / "report.json"
    assert run(["tuples", "--json", str(path)]) == 3
    capsys.readouterr()
    claims = json.loads(path.read_text())["claims"]
    assert [(c["id"], c["status"]) for c in claims] == [
        ("order-sets", "pass"), ("pair-orbits-free-6", "pass"),
        ("involution-factorizations", "pass"), ("tuple-classes-20", "error"),
        ("tuple-table-rows", "error"), ("braid-pure-orbits", "error"),
        ("braid-weighted-orbits", "error")]
    assert all(c["witness"] == {"type": "RuntimeError", "message": "no rtl classes"}
               for c in claims[3:])


def test_claim_dict_keys_come_in_json_order():
    report = ClaimReport(convention="rtl")
    witness = {"b": [1, 2], "a": {"c": (3,)}}
    run_claim(report, "some-claim", "a claim", lambda: (True, witness))
    (claim,) = report.claims
    data = claim._asdict()
    assert list(data) == ["id", "description", "status", "witness", "millis"]
    assert data["witness"] == witness and list(data["witness"]) == ["b", "a"]
    assert list(report.to_dict()) == ["version", "convention", "claims"]
    assert report.to_dict()["claims"] == [data]
    assert list(json.loads(report.to_json())["claims"][0]) == list(data)


def test_suites_ship_as_a_package():
    # `[tool.setuptools.packages.find]` ships only directories with an
    # `__init__.py`
    from setuptools import find_packages
    assert sorted(find_packages(str(SRC))) == ["wingerverify", "wingerverify.suites"]
    suites = SRC / "wingerverify" / "suites"
    shipped = {info.name for info in pkgutil.iter_modules([str(suites)])}
    assert shipped == set(cli.SUITE_MODULES.values())


def test_suites_never_import_the_cli():
    # run as `python -m wingerverify.cli`, a suite importing `cli` would
    # execute cli.py a second time under its package name
    for path in sorted((SRC / "wingerverify" / "suites").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sources = {node.module for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module}
        assert sources.isdisjoint({"cli", "wingerverify.cli"}), path.name


def unused_imports(tree):
    """(line, name) for each name that an import binds and the module
    never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault((alias.asname or alias.name).split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    tests = Path(__file__).resolve().parent
    found = [f"{path.relative_to(SRC.parent)}:{line}: {name}"
             for path in sorted([*SRC.rglob("*.py"), *tests.glob("*.py")])
             for line, name in unused_imports(ast.parse(path.read_text()))]
    assert found == []


def test_unused_import_scan_finds_each_kind():
    code = ("from __future__ import annotations\nimport os.path\nimport sys as system\n"
            "from json import dumps, loads\nx: system.Type = dumps(loads(os.sep))\n")
    assert unused_imports(ast.parse(code)) == []
    code = "import os.path\nimport sys as system\nfrom json import dumps, loads\nsys = 1\n"
    assert unused_imports(ast.parse(code)) == [
        (1, "os"), (2, "system"), (3, "dumps"), (3, "loads")]


def test_pass_without_witness_is_refused(capsys):
    # refused as a pass, it is an internal error of its own claim, and the
    # claims after it still run
    report = ClaimReport(convention="rtl")
    run_claim(report, "bare-pass", "a pass with an empty witness", lambda: (True, {}))
    run_claim(report, "next-claim", "a claim after it", lambda: (True, {"ran": True}))
    assert [(c.id, c.status, c.witness) for c in report.claims] == [
        ("bare-pass", "error",
         {"type": "ValueError", "message": "passing claim bare-pass has no witness"}),
        ("next-claim", "pass", {"ran": True})]
    assert "ValueError: passing claim bare-pass has no witness" in capsys.readouterr().err


def test_bare_pass_in_a_suite_keeps_its_later_claims(tmp_path, monkeypatch, capsys):
    from wingerverify.suites import covers as covers_suite
    real = covers_suite.run_claim

    def bare_alphas(report, claim_id, description, fn, **kwargs):
        bare = claim_id == "alpha-values"  # its verdict without its witness
        real(report, claim_id, description, (lambda: (True, {})) if bare else fn, **kwargs)
    monkeypatch.setattr(covers_suite, "run_claim", bare_alphas)
    path = tmp_path / "report.json"
    assert run(["covers", "--json", str(path)]) == 3
    capsys.readouterr()
    claims = json.loads(path.read_text())["claims"]
    assert [(c["id"], c["status"]) for c in claims] == [
        ("alpha-values", "error"), ("signature-unique", "pass"),
        ("riemann-hurwitz-genera", "pass")]
    assert claims[0]["witness"]["type"] == "ValueError"


# the claims that read the reconstructed group, by suite
READING_THE_GROUP = {
    "orbits": ("group-class-sizes", "group-trace-character",
               "invariance-conic-sextic-form", "irregular-orbit-sizes"),
    "invariants": ("molien-closed-form", "reynolds-dimensions", "degree6-invariants"),
    "pencil": ("lambda-six-orbit", "lambda-ten-orbit", "lambda-fifteen-orbit",
               "node-nondegeneracy", "base-locus-twelve-points",
               "no-extra-singular-orbits"),
}


@pytest.fixture
def reconstruction_fault(monkeypatch):
    def fault():
        raise winger.ReconstructionError("three of the six lines are concurrent")
    monkeypatch.setattr(winger, "reconstruct_group", fault)
    winger.irregular_orbits.cache_clear()
    winger.singular_point.cache_clear()


def test_reconstruction_fault_keeps_every_suite(reconstruction_fault, tmp_path, capsys):
    # in `all` the 13 claims that read the group find its claim failed and
    # are skipped in their places: no suite is lost and no claim errs
    path = tmp_path / "report.json"
    assert run(["all", "--json", str(path)]) == 1
    capsys.readouterr()
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert len(claims) == 32
    assert [i for i, c in claims.items() if c["status"] in ("fail", "error")] == [
        "group-reconstruction-60"]
    requires = {"requires": "group-reconstruction-60"}
    assert {i: c["witness"] for i, c in claims.items() if c["status"] == "skipped"} == {
        **{i: requires for ids in READING_THE_GROUP.values() for i in ids},
        "discriminant-root-set": None}


@pytest.mark.parametrize("suite", ["invariants", "pencil"])
def test_reconstruction_fault_errs_a_suite_run_alone(suite, reconstruction_fault, tmp_path,
                                                      capsys):
    # without the reconstruction claim in its report, the suite runs the
    # claims that read the group, so it never exits 0 with nothing verified
    path = tmp_path / "report.json"
    assert run([suite, "--json", str(path)]) == 3
    capsys.readouterr()
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert [i for i, c in claims.items() if c["status"] == "error"] == list(
        READING_THE_GROUP[suite])
    assert all(c["witness"]["type"] == "ReconstructionError"
               for c in claims.values() if c["status"] == "error")


def test_exact_witness_values_reach_the_json_report(tmp_path, monkeypatch, capsys):
    # a Fraction equals its int, so the claim passes; to_json writes it as
    # a string instead of losing the report
    alpha_value = covers.alpha_value
    monkeypatch.setattr(covers, "alpha_value", lambda k: Fraction(alpha_value(k)))
    path = tmp_path / "report.json"
    assert run(["covers", "--json", str(path)]) == 0
    capsys.readouterr()
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert claims["alpha-values"]["witness"] == {
        "alpha": {"1": "0", "2": "30", "3": "40", "5": "48"}}
    report = ClaimReport(convention="rtl")
    half, z = rational(Fraction(1, 2)), zeta()
    run_claim(report, "field-values", "a claim", lambda: (True, {"values": [half, z]}))
    assert json.loads(report.to_json())["claims"][0]["witness"] == {
        "values": [str(half), str(z)]}


def test_text_witness_shows_the_json_strings(tmp_path, monkeypatch, capsys):
    # a failing witness is printed as the JSON report writes it: "21/2",
    # not the repr Fraction(21, 2)
    genus = covers.riemann_hurwitz_genus
    monkeypatch.setattr(covers, "riemann_hurwitz_genus", lambda n, orders: genus(
        n, orders) + (Fraction(1, 2) if n == 3 else Fraction(0)))
    path = tmp_path / "report.json"
    assert run(["covers", "--json", str(path)]) == 1
    out = capsys.readouterr().out
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    witness = claims["riemann-hurwitz-genera"]["witness"]
    assert witness["genera"]["3,12x{3}"] == "21/2"
    lines = [line.split("witness: ", 1)[1] for line in out.splitlines() if "witness: " in line]
    assert lines == [json.dumps(witness)]
    assert "Fraction" not in out


def test_bad_character_table_fails_its_claims(tmp_path, monkeypatch, capsys):
    # the claims that read the table judge it; a5_table itself only builds it
    monkeypatch.setattr(characters, "golden", lambda: rational(2))
    characters.a5_table.cache_clear()
    claims = {}
    try:
        for suite in ("characters", "orbits", "homology"):
            path = tmp_path / f"{suite}.json"
            run([suite, "--json", str(path)])
            claims.update((c["id"], c) for c in json.loads(path.read_text())["claims"])
    finally:
        characters.a5_table.cache_clear()
    capsys.readouterr()
    for claim_id in ("characters-table-orthonormal", "group-trace-character",
                     "homology-lattice-character"):
        assert claims[claim_id]["status"] == "fail"
    assert [i for i in claims if i.startswith("suite-")] == []


def test_bad_character_table_fails_the_decompositions(tmp_path, monkeypatch, capsys):
    # non-integral multiplicities are a verdict of the claims that decompose
    monkeypatch.setattr(characters, "golden", lambda: rational(2))
    characters.a5_table.cache_clear()
    path = tmp_path / "characters.json"
    try:
        assert run(["characters", "--json", str(path)]) == 1
    finally:
        characters.a5_table.cache_clear()
    capsys.readouterr()
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    for claim_id in ("characters-symcube-rank10", "characters-restrict-E"):
        assert claims[claim_id]["status"] == "fail"
        multiplicities = claims[claim_id]["witness"]["decomposition"].values()
        assert not all(isinstance(m, int) for m in multiplicities)


def test_orbit_fault_fails_only_the_orbit_claims(tmp_path, monkeypatch, capsys):
    # irregular-orbit-sizes alone judges the sizes, and the witnesses count
    # the points that were checked
    orbit_of = winger.orbit_of

    def short(point, group):  # drops the last point of every orbit
        return orbit_of(point, group)[:-1]
    monkeypatch.setattr(winger, "orbit_of", short)
    winger.irregular_orbits.cache_clear()
    winger.singular_point.cache_clear()
    path = tmp_path / "report.json"
    try:
        assert run(["all", "--json", str(path)]) == 1
    finally:
        winger.irregular_orbits.cache_clear()
        winger.singular_point.cache_clear()
    capsys.readouterr()
    claims = {c["id"]: c for c in json.loads(path.read_text())["claims"]}
    assert len(claims) == 32
    assert [i for i, c in claims.items() if c["status"] in ("fail", "error")] == [
        "irregular-orbit-sizes", "node-nondegeneracy"]
    assert [claims[f"lambda-{n}-orbit"]["witness"]["orbit"]
            for n in ("six", "ten", "fifteen")] == [5, 9, 14]
    assert claims["base-locus-twelve-points"]["witness"]["points"] == 11
