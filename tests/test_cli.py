import json

import pytest

from wingerverify import cli, covers
from wingerverify.cli import Corruption, main


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
    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2


def test_corruption_specs():
    c = Corruption("f:3,2,1")
    assert c.f_expo == (3, 2, 1)
    with pytest.raises(ValueError):
        Corruption("f:1,1,1")  # not degree 6
    with pytest.raises(ValueError):
        Corruption("nonsense:1")


def test_corrupted_sextic_fails(capsys):
    assert run(["orbits", "--corrupt", "f:6,0,0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_corrupted_sextic_fails_degree6_invariants(capsys):
    assert run(["invariants", "--corrupt", "f:6,0,0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL degree6-invariants" in out
    assert "PASS reynolds-dimensions" in out


def test_corrupted_matrix_fails(capsys):
    assert run(["orbits", "--corrupt", "matrix:3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL invariance-conic-sextic-form" in out


def test_corrupted_matrix_fails_invariants(capsys):
    assert run(["invariants", "--corrupt", "matrix:3"]) == 1
    out = capsys.readouterr().out
    assert "FAIL molien-closed-form" in out
    assert "FAIL reynolds-dimensions" in out


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
    out = capsys.readouterr().out
    assert "ERROR signature-unique" in out and "3 claims, 0 failed, 1 errors" in out
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
    assert "internal error in suite homology" in captured.err
    assert "ERROR suite-homology" in captured.out
    assert "4 claims, 0 failed, 1 errors" in captured.out
    claims = json.loads(path.read_text())["claims"]
    assert [c["id"] for c in claims] == ["suite-homology", "alpha-values",
                                         "signature-unique", "riemann-hurwitz-genera"]
    assert claims[0]["status"] == "error"
    assert claims[0]["witness"] == {"type": "KeyError", "message": "'setup'"}
    assert all(c["status"] == "pass" for c in claims[1:])
