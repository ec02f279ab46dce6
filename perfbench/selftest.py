"""Self-test of the benchmark harness.

Usage:  python3 perfbench/selftest.py

Runs the tuples-ltr workload once untraced and once traced, and checks that
every metric BENCHMARK.json names is emitted with its unit and nothing else,
that the layer split is the predicted one, and that a doctored report (a
missing claim, a flipped status, a changed witness, a crashed run, a failing
extra claim) raises the failed-claim share while a pristine one does not.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import check_report, load_reference  # noqa: E402

WORKLOAD = "tuples-ltr"


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


def run_benchmark(trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    expect(proc.returncode == 0, f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(result: dict, declared) -> None:
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"run not correct: {result}")
    expect(set(result["metrics"]) == {m["name"] for m in declared},
           f"metric names differ: {sorted(result['metrics'])}")
    for m in declared:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}")
        expect(isinstance(got["value"], (int, float)), f"{m['name']}: {got['value']!r}")


def check_doctoring() -> None:
    reference = load_reference(WORKLOAD)
    attempted = len(reference["claims"])
    expect(check_report(reference, reference, 0) == (attempted, 0), "pristine report")

    def failed_share(doctor, exit_code=0):
        report = copy.deepcopy(reference)
        doctor(report["claims"])
        _, failed = check_report(reference, report, exit_code)
        return failed / attempted

    def flip(claims):
        claims[0]["status"] = "fail"

    def rewitness(claims):
        claims[1]["witness"] = {"orbits": 5}

    def drop(claims):
        del claims[2]

    def extra_failing(claims):
        claims.append({"id": "extra", "status": "fail", "witness": None})

    def extra_passing(claims):
        claims.append({"id": "extra", "status": "pass", "witness": 1, "millis": 3})
        claims[0]["stage"] = "new field"

    for doctor in (flip, rewitness, drop, extra_failing):
        expect(failed_share(doctor) > 0, f"{doctor.__name__} did not raise the share")
    expect(failed_share(lambda claims: None, exit_code=1) == 1, "non-zero exit")
    expect(failed_share(extra_passing) == 0, "an extra passing claim was counted")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_doctoring()
    check_metrics(run_benchmark(0), spec["end_to_end"])
    traced = run_benchmark(1)
    check_metrics(traced, spec["per_layer"])
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    expect(layer["cyclo.mul_calls"] == 0, "tuples-ltr used the field")
    expect(layer["perms.mul_calls"] > 0, "tuples-ltr did not reach the perms layer")
    expect(layer["claims_failed_frac"] == 0, "claims failed")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
