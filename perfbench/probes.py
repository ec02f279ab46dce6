"""Seeded per-op probes of the arithmetic layers, in microseconds per op.

Usage (a child process of run.py):  python3 probes.py SRC SEED

Operands come from SEED.  Each probe times a batch of operations several
times and reports the median batch time per op; then it checks the results
of one batch against an independent computation, so that no probe times a
wrong answer.  Prints one JSON object {metric: microseconds}; a failed check
raises, which exits non-zero.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

REPEATS = 5


def _timed(op, operands):
    """Median seconds per op over REPEATS batches, and the last batch's results."""
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        results = [op(*args) for args in operands]
        times.append(perf_counter() - start)
    return statistics.median(times) / len(operands) * 1e6, results


def _check(ok, what):
    if not ok:
        raise AssertionError(what)


def _ref_mul(a, b):
    """Product of coefficient 4-tuples in Q(zeta_5), using zeta^4 = -1-zeta-zeta^2-zeta^3."""
    conv = [Fraction(0)] * 7
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for k in range(6, 3, -1):
        c, conv[k] = conv[k], 0
        for i in range(k - 4, k):
            conv[i] -= c
    return tuple(conv[:4])


def run(seed: int) -> dict:
    from wingerverify.cyclo import rational, zeta
    from wingerverify.linalg import Matrix
    from wingerverify.perms import Perm
    from wingerverify.polys import Poly3

    rng = random.Random(seed)
    z = [rational(1), zeta(), zeta() ** 2, zeta() ** 3]

    def element(nonzero=False):
        while True:
            den = rng.randint(1, 9)
            x = sum((z[k] * Fraction(rng.randint(-9, 9), den) for k in range(4)),
                    rational(0))
            if not (nonzero and x.is_zero()):
                return x

    def matrix():
        while True:
            m = Matrix.from_rows([[element() for _ in range(3)] for _ in range(3)])
            if not m.det().is_zero():
                return m

    out = {}
    one = rational(1)

    pairs = [(element(), element()) for _ in range(2000)]
    out["cyclo.mul_us"], prods = _timed(lambda a, b: a * b, pairs)
    _check(all(p.coefficients() == _ref_mul(a.coefficients(), b.coefficients())
               for p, (a, b) in zip(prods, pairs)), "Cyclo product")
    out["cyclo.add_us"], sums = _timed(lambda a, b: a + b, pairs)
    _check(all(s.coefficients() == tuple(x + y for x, y in
                                         zip(a.coefficients(), b.coefficients()))
               for s, (a, b) in zip(sums, pairs)), "Cyclo sum")
    singles = [(element(nonzero=True),) for _ in range(100)]
    out["cyclo.inv_us"], invs = _timed(lambda a: a.inv(), singles)
    _check(all(a * i == one for (a,), i in zip(singles, invs)), "a * a.inv() == 1")

    mats = [(matrix(),) for _ in range(40)]
    ident = Matrix.identity(3)
    out["linalg.inverse3_us"], inverses = _timed(lambda m: m.inverse(), mats)
    _check(all(m * mi == ident for (m,), mi in zip(mats, inverses)), "M * M^-1 == I")
    out["linalg.det3_us"], dets = _timed(lambda m: m.det(), mats)
    _check(all(d * mi.det() == one for d, mi in zip(dets, inverses)),
           "det(M) * det(M^-1) == 1")

    # degree-6 forms with five terms; the check uses (f o m)(p) = f(m p)
    def form():
        f = Poly3.zero()
        for _ in range(5):
            a = rng.randint(0, 6)
            b = rng.randint(0, 6 - a)
            f = f + Poly3.monomial((a, b, 6 - a - b), element(nonzero=True))
        return f
    acts = [(form(), matrix()) for _ in range(10)]
    out["polys.act_us"], images = _timed(lambda f, m: f.act(m), acts)
    for img, (f, m) in zip(images, acts):
        p = (element(), element(), element())
        _check(img.evaluate(p) == f.evaluate(m.apply(p)), "(f o m)(p) == f(m p)")

    def perm():
        images = list(range(1, 6))
        rng.shuffle(images)
        return Perm(images)
    perm_pairs = [(perm(), perm()) for _ in range(5000)]
    out["perms.mul_us"], perm_prods = _timed(lambda p, q: p * q, perm_pairs)
    _check(all(pq(x) == p(q(x)) for pq, (p, q) in zip(perm_prods, perm_pairs)
               for x in range(1, 6)), "(p*q)(x) == p(q(x))")
    return out


def main(argv) -> int:
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import wingerverify
    if not Path(wingerverify.__file__).resolve().is_relative_to(src):
        raise ImportError(f"wingerverify imported from {wingerverify.__file__}, not {src}")
    print(json.dumps(run(int(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
