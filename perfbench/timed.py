"""One report of the winger-verify CLI that also samples the machine's speed.

Usage (a child process of run.py):  python3 timed.py SRC CLI-ARG...

On a shared machine the speed of a core can change by 2x from one second to
the next, so a report's wall time alone says as much about the neighbours as
about the program.  A real-time interval timer interrupts the run every
PERIOD_S seconds, and the handler times one fixed calibration chunk on the
same thread.  So each sample sees the speed the report sees, and the
program's instruction mix cannot affect it.  The chunks cost about 3% of the
run.
Prints one JSON object: the CLI exit code, its captured stdout and the chunk
durations in seconds.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import signal
import sys
from math import gcd
from pathlib import Path
from time import perf_counter

PERIOD_S = 0.1


def chunk(n: int = 400) -> int:
    """Fixed pure-Python integer work, like the field arithmetic: 2.5 ms on a quiet core."""
    acc = 0
    for i in range(n):
        a = [(i * 7 + k) * 12345678901 for k in range(4)]
        b = [(i * 3 - k) * 98765 for k in range(4)]
        conv = [0] * 7
        for x, ax in enumerate(a):
            for y, by in enumerate(b):
                conv[x + y] += ax * by
        g = 0
        for c in conv:
            g = gcd(g, c)
        acc ^= hash(tuple(c // (g or 1) for c in conv))
    return acc


def main(argv) -> int:
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("wingerverify.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"wingerverify imported from {cli.__file__}, not {src}")
    chunks = []

    def sample(signum, frame):
        start = perf_counter()
        chunk()
        chunks.append(perf_counter() - start)

    signal.signal(signal.SIGALRM, sample)
    captured = io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(list(argv[1:]))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sample(None, None)  # one sample even when the report is shorter than a period
    print(json.dumps({"exit": code, "stdout": captured.getvalue(), "chunks": chunks}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
