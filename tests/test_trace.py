"""The benchmark's tracer wraps functions by name, and raises LookupError
when one of them is gone; a traced run of one suite catches that here
instead of in a full benchmark run.  It also wraps the suites in
`cli.SUITES`, which the benchmark reads as the `cli.suite.*` spans (0 s
when absent), so a suite the CLI calls past that dict is caught too."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def traced(*cli_args):
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "trace.py"),
                           str(ROOT / "src"), *cli_args],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_traced_characters_run():
    result = traced("characters")
    assert result["exit"] == 0
    assert "cli.suite.characters" in result["spans"]


def test_traced_invariants_run():
    result = traced("invariants")
    assert result["exit"] == 0
    assert "cli.suite.invariants" in result["spans"]
    assert "invariants.reynolds@15" in result["spans"]


def test_traced_orbits_run():
    # the reconstruction goes through Matrix.det and inverts no matrix, and
    # the eigenvectors of the irregular orbits go through Matrix.kernel; the
    # field work goes through the Cyclo methods that the benchmark counts
    result = traced("orbits")
    assert result["exit"] == 0
    for counter in ("linalg.det_calls", "linalg.kernel_calls",
                    "cyclo.mul_calls", "cyclo.add_calls", "cyclo.inv_calls"):
        assert result["counts"].get(counter, 0) > 0, counter
    # Matrix.inverse is still wrapped, for the timing probe of perfbench
    assert result["counts"].get("linalg.inverse_calls", 0) == 0


def test_traced_pencil_deep_run():
    # the benchmark's per-layer discriminant metrics read these two spans:
    # one resultant polynomial and its one Macaulay control value
    result = traced("pencil", "--deep")
    assert result["exit"] == 0
    for span in ("discriminant.interp", "discriminant.resultant"):
        assert result["spans"][span]["calls"] == 1, span


def test_traced_tuples_ltr_run():
    # the tracer rebinds hurwitz.is_generating at each module global that
    # holds it; the tuples suite is the one that calls it, both conventions
    result = traced("tuples", "--convention", "ltr")
    assert result["exit"] == 0
    assert result["spans"]["hurwitz.enumerate"]["calls"] == 2
    assert result["spans"]["hurwitz.braid_orbits"]["calls"] == 4
    assert result["counts"]["hurwitz.is_generating_calls"] > 0
