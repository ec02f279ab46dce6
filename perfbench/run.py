"""Benchmark of the winger-verify claim report.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, both modes

Each report is one fresh interpreter running the CLI (timed.py), as a user
runs it, so the cold `lru_cache` fills (group reconstruction, orbits, binary
group) are paid on every report.  One client, one child at a time: a closed
loop.  Reports repeat until S seconds have passed (at least one).  Every
report is checked against `reference/<workload>.json`.

--trace 0 prints the end-to-end metrics.  The report time is given relative
to a calibration chunk timed during the report (see timed.py), and set-up
time is scaled to the machine's quiet speed with the same chunk, because raw
times on a shared machine move with the neighbours' load.
--trace 1 prints the per-layer metrics: the raw report times, counts and span
self times from one traced report (trace.py), the seeded per-op probes
(probes.py), and the trace overhead against the untraced reports of the
same run.  The CLI's inputs are fixed by the paper, so the seed drives only
the probe operands.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from timed import chunk

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {
    "report-all": ("all",),
    "pencil-deep": ("pencil", "--deep"),
    "tuples-ltr": ("tuples", "--convention", "ltr"),
}
SETUP_SAMPLES = 15
# time of one calibration chunk on a quiet core of the reference machine, a
# shared 2-core x86-64 Xeon with Python 3.11.7; set-up times are scaled to it
QUIET_CHUNK_S = 0.0025
SUITES = ("characters", "invariants", "orbits", "pencil", "tuples", "covers",
          "degenerations", "homology", "binary")

# per-layer metrics read from the trace: counters, and span names for calls and self time
COUNTS = ("cyclo.mul_calls", "cyclo.add_calls", "cyclo.inv_calls",
          "linalg.det_calls", "linalg.inverse_calls", "linalg.kernel_calls",
          "polys.mul_calls", "perms.mul_calls")
SPAN_CALLS = {"polys.act_calls": "polys.act",
              "discriminant.resultant_calls": "discriminant.resultant"}
SPAN_SELF = {
    "winger.reconstruct_group_s": "winger.reconstruct_group",
    "winger.irregular_orbits_s": "winger.irregular_orbits",
    "invariants.molien_s": "invariants.molien",
    "invariants.reynolds_s": "invariants.reynolds",
    "invariants.reynolds_d15_s": "invariants.reynolds@15",
    "polys.act_s": "polys.act",
    "covers.binary_checks_s": "covers.binary_checks",
    "hurwitz.enumerate_s": "hurwitz.enumerate",
    "hurwitz.braid_orbits_s": "hurwitz.braid_orbits",
    "discriminant.resultant_s": "discriminant.resultant",
    "discriminant.interp_s": "discriminant.interp",
    **{f"cli.suite.{s}_s": f"cli.suite.{s}" for s in SUITES},
}
PROBES = ("cyclo.mul_us", "cyclo.add_us", "cyclo.inv_us", "linalg.det3_us",
          "linalg.inverse3_us", "polys.act_us", "perms.mul_us")


class Child:
    """One finished child process: wall and CPU seconds, peak RSS, output."""

    def __init__(self, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   # fixed so that set iteration order, and the counts, repeat
                   PYTHONHASHSEED="0")
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True)
        err = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            self.stdout = proc.stdout.read()
            reader.join()
        except BaseException:
            proc.kill()
            raise
        finally:
            # wait4 reaps the child in every case and gives its rusage alone
            _, status, usage = os.wait4(proc.pid, 0)
        self.wall_s = perf_counter() - start
        proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
        self.stderr = err[0]
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024  # Linux reports KiB


def parse_report(stdout: str):
    """The JSON report that `--json -` prints after the claim lines."""
    lines = stdout.splitlines()
    try:
        start = lines.index("{")
        return json.loads("\n".join(lines[start:]))
    except ValueError:  # no report, or not JSON
        return None


def check_report(reference: dict, report, exit_code: int):
    """(attempted, failed) claims of one report against the reference.

    A reference claim fails when it is missing, when the reference says
    pass and the report does not, or when its witness differs from a
    reference witness.  A non-zero exit fails every reference claim.  Extra
    claims and extra fields are allowed when they pass.
    """
    ref_claims = reference["claims"]
    if exit_code != 0 or report is None:
        return len(ref_claims), len(ref_claims)
    got = {c.get("id"): c for c in report.get("claims", [])}
    failed = 0
    for ref in ref_claims:
        claim = got.pop(ref["id"], None)
        if (claim is None
                or (ref["status"] == "pass" and claim.get("status") != "pass")
                or (ref["witness"] is not None and claim.get("witness") != ref["witness"])):
            failed += 1
    failed += sum(1 for c in got.values() if c.get("status") != "pass")
    return len(ref_claims), failed


def load_reference(workload: str) -> dict:
    with open(HERE / "reference" / f"{workload}.json") as fh:
        return json.load(fh)


def run_report(script: str, workload: str):
    """One report in a child running `script`: (child, its JSON payload, attempted, failed)."""
    child = Child([sys.executable, str(HERE / script), str(SRC), *WORKLOADS[workload],
                   "--json", "-"])
    if child.exit != 0:  # the CLI's own failures come back in the payload
        raise RuntimeError(f"{script} failed:\n{child.stderr}")
    payload = json.loads(child.stdout.splitlines()[-1])
    attempted, failed = check_report(load_reference(workload),
                                     parse_report(payload["stdout"]), payload["exit"])
    if failed:
        print(f"{workload}: {failed} of {attempted} claims failed (exit {payload['exit']})\n"
              f"{child.stderr}", file=sys.stderr)
    return child, payload, attempted, failed


def chunk_s() -> float:
    start = perf_counter()
    chunk()
    return perf_counter() - start


def setup_sample() -> float:
    """Seconds of a fresh `import wingerverify.cli`, at the quiet machine speed.

    The calibration chunk is timed twice before and twice after the child,
    and the child's wall time is scaled by QUIET_CHUNK_S over their mean.
    """
    before = chunk_s() + chunk_s()
    child = Child([sys.executable, "-c", "import wingerverify.cli"])
    after = chunk_s() + chunk_s()
    if child.exit != 0:
        raise RuntimeError(f"importing the CLI failed:\n{child.stderr}")
    return child.wall_s * QUIET_CHUNK_S / ((before + after) / 4)


def measure(workload: str, seconds: float, setup_samples: int):
    """Set-up samples, then untraced reports for `seconds` (at least one)."""
    setup = [setup_sample() for _ in range(setup_samples)]
    reports, attempted, failed = [], 0, 0
    start = perf_counter()
    while not reports or perf_counter() - start < seconds:
        child, payload, a, f = run_report("timed.py", workload)
        attempted += a
        failed += f
        reports.append((child, payload["chunks"]))
    return setup, reports, attempted, failed


def end_to_end(setup, reports):
    samples = {
        # the mean chunk time is the mean slowdown over the report, as wall time is
        "wall_rel": ("x", [c.wall_s / statistics.fmean(ch) for c, ch in reports]),
        "peak_rss_mb": ("MB", [c.peak_rss_mb for c, _ in reports]),
        "setup_s": ("s", setup),
    }
    return summarize(samples)


def per_layer(workload, seed, reports, attempted, failed):
    """Traced report, probes and raw times; returns (metrics, attempted, failed)."""
    traced, trace, a, f = run_report("trace.py", workload)
    attempted += a
    failed += f
    probes = Child([sys.executable, str(HERE / "probes.py"), str(SRC), str(seed)])
    if probes.exit != 0:
        raise RuntimeError(f"probes failed:\n{probes.stderr}")
    probe_us = json.loads(probes.stdout.splitlines()[-1])
    attempted += len(PROBES)

    counts, spans = trace["counts"], trace["spans"]

    def span(key, field):  # a span that never ran did no work
        return spans.get(key, {}).get(field, 0)

    untraced = statistics.median(c.wall_s for c, _ in reports)
    metrics = {
        "report.wall_s": (untraced, "s"),
        "report.cpu_s": (statistics.median(c.cpu_s for c, _ in reports), "s"),
        "calibration.chunk_ms": (
            statistics.fmean(x for _, ch in reports for x in ch) * 1e3, "ms"),
    }
    metrics.update({name: (counts.get(name, 0), "count") for name in COUNTS})
    metrics.update({name: (span(key, "calls"), "count") for name, key in SPAN_CALLS.items()})
    gen_calls = counts.get("hurwitz.is_generating_calls", 0)
    metrics["hurwitz.generating_ratio"] = (
        counts.get("hurwitz.is_generating_true", 0) / gen_calls if gen_calls else 0.0,
        "ratio")
    metrics.update({name: (span(key, "self_s"), "s") for name, key in SPAN_SELF.items()})
    metrics["trace_overhead_frac"] = (traced.wall_s / untraced - 1, "frac")
    metrics.update({name: (probe_us[name], "us") for name in PROBES})
    metrics["claims_failed_frac"] = (failed / attempted, "frac")
    return metrics, attempted, failed


def summarize(samples):
    """Median of each sample list, with a printed line giving its sample count."""
    metrics = {}
    for name, (unit, values) in samples.items():
        metrics[name] = (statistics.median(values), unit)
        n = len(values)
        # the highest percentile with at least ten samples beyond it
        tail = (f"p{100 * (n - 10) // n} {sorted(values)[n - 11]:.6g}"
                if n >= 11 else "no percentile with 10 samples beyond it")
        print(f"  {name}: median {metrics[name][0]:.6g} {unit} of {n} samples; {tail}")
    return metrics


def result(metrics, attempted, failed) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_workload(workload, seed, seconds, trace):
    print(f"{workload} (trace {trace}): {' '.join(WORKLOADS[workload])}")
    # set-up time is an end-to-end metric, so a traced run skips it
    setup, reports, attempted, failed = measure(workload, seconds,
                                                0 if trace else SETUP_SAMPLES)
    if trace:
        metrics, attempted, failed = per_layer(workload, seed, reports, attempted, failed)
        for name, (value, unit) in metrics.items():
            print(f"  {name}: {value:.6g} {unit}")
    else:
        metrics = end_to_end(setup, reports)
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wingerverify" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'wingerverify'} is missing", file=sys.stderr)
        return 2

    if args.workload != "all":
        metrics, attempted, failed = run_workload(args.workload, args.seed,
                                                  args.seconds, args.trace)
        print(json.dumps(result(metrics, attempted, failed)))
        return 0 if failed == 0 else 1

    results, total_attempted, total_failed = {}, 0, 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            metrics, attempted, failed = run_workload(workload, args.seed,
                                                      args.seconds, trace)
            results[f"{workload}/trace{trace}"] = result(metrics, attempted, failed)
            total_attempted += attempted
            total_failed += failed
    print(json.dumps({"correct": total_failed == 0, "attempted": total_attempted,
                      "failed": total_failed, "workloads": results}))
    return 0 if total_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
