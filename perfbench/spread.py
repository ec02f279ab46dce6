"""Run-to-run spread of the end-to-end metrics, against the bounds in BENCHMARK.json.

Usage:  python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs the benchmark once per seed, with the run length from BENCHMARK.json,
and prints, per metric, the median, the quartiles (statistics.quantiles with
n=4) and the spread (Q3 - Q1) / median next to a third of the metric's
bound.  The last line is a JSON object with every value, for the record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()),
              flush=True)

    steady = True
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        ok = spread < metric["bound"] / 3
        steady &= ok or metric["name"] == "setup_s"
        print(f"{metric['name']}: median {med:.6g} {metric['unit']}, Q1 {q1:.6g}, "
              f"Q3 {q3:.6g}, spread {spread:.4f} (a third of the bound: "
              f"{metric['bound'] / 3:.4f}) {'ok' if ok else 'TOO WIDE'}")
    print(json.dumps({"workload": args.workload, "values": values}))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
