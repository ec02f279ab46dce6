"""The benchmark's per-op probes call the package API directly (Matrix,
Cyclo, Poly3, Perm), and a signature change breaks them only when a traced
benchmark run reaches them; one seeded probe run catches that here."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROBE_KEYS = {"cyclo.mul_us", "cyclo.add_us", "cyclo.inv_us", "linalg.det3_us",
              "linalg.inverse3_us", "polys.act_us", "perms.mul_us"}


def test_probes_run():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "probes.py"),
                           str(ROOT / "src"), "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) == PROBE_KEYS
