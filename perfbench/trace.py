"""Traced run of the winger-verify CLI: per-layer call counts and span self times.

Usage (a child process of run.py):  python3 trace.py SRC CLI-ARG...

SRC is the checkout's `src` directory.  The wrappers are installed from this
file at every place the program looks a function up (module globals that
hold it, class attributes for methods, and `cli.SUITES`), so the program under
test is unchanged.  Cached builders are wrapped outside their `lru_cache`, so
a cache hit shows as a cheap call.  Spans stay in memory until the CLI has
returned; then one JSON object goes to stdout with the CLI exit code, the
CLI's own stdout, the counts and, per span name, calls, total and self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, name, counter) for call counts only: these run millions of times,
# so they get a counter and no span.
COUNTED_METHODS = (
    ("cyclo", "Cyclo.__mul__", "cyclo.mul_calls"),
    ("cyclo", "Cyclo.__rmul__", "cyclo.mul_calls"),
    ("cyclo", "Cyclo.__add__", "cyclo.add_calls"),
    ("cyclo", "Cyclo.__radd__", "cyclo.add_calls"),
    ("cyclo", "Cyclo.inv", "cyclo.inv_calls"),
    ("linalg", "Matrix.det", "linalg.det_calls"),
    ("linalg", "Matrix.inverse", "linalg.inverse_calls"),
    ("linalg", "Matrix.kernel", "linalg.kernel_calls"),
    ("polys", "Poly3.__mul__", "polys.mul_calls"),
    ("polys", "Poly3.__rmul__", "polys.mul_calls"),
    ("perms", "Perm.__mul__", "perms.mul_calls"),
)

# (module, name, span name, detail) for spans; `detail` picks the argument
# a span is also grouped by, such as the degree of a Reynolds basis.
SPANNED = (
    ("polys", "Poly3.act", "polys.act", None),
    ("winger", "reconstruct_group", "winger.reconstruct_group", None),
    ("winger", "irregular_orbits", "winger.irregular_orbits", None),
    ("invariants", "molien_series", "invariants.molien", None),
    ("invariants", "reynolds_basis", "invariants.reynolds", lambda mats, d: d),
    ("covers", "binary_icosahedral_checks", "covers.binary_checks", None),
    ("hurwitz", "enumerate_tuple_classes", "hurwitz.enumerate", None),
    ("hurwitz", "braid_orbits", "hurwitz.braid_orbits", None),
    ("discriminant", "macaulay_resultant_value", "discriminant.resultant", None),
    ("discriminant", "pencil_discriminant", "discriminant.interp", None),
)


class Tracer:
    """Counters and an in-memory span list with parent links."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.spans = []  # (name, detail, start, end, parent index or -1)
        self._stack = []

    def counted(self, name, fn, true_name=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            result = fn(*args, **kwargs)
            if true_name is not None and result:
                counts[true_name] += 1
            return result
        return wrapper

    def spanned(self, name, fn, detail=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, detail(*args, **kwargs) if detail else None,
                                start, end, parent)
        return wrapper

    def summary(self):
        """Per span name (and per `name@detail`): calls, total_s, self_s."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {}
        for i, (name, detail, start, end, _) in enumerate(self.spans):
            keys = [name] if detail is None else [name, f"{name}@{detail}"]
            for key in keys:
                agg = out.setdefault(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                agg["calls"] += 1
                agg["total_s"] += end - start
                agg["self_s"] += end - start - covered[i]
        return out


def _rebind(original, wrapper):
    """Point every wingerverify module global that holds `original` at `wrapper`."""
    sites = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "wingerverify" or mod_name.startswith("wingerverify."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    sites += 1
    if not sites:
        raise LookupError(f"no lookup site holds {original!r}")


def _resolve(module, name):
    mod = importlib.import_module(f"wingerverify.{module}")
    owner_name, _, attr = name.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    return owner, attr


def install(tracer: Tracer, cli) -> None:
    """Wrap every traced function at each of its lookup sites."""
    wrapped = {}  # one wrapper per original, so aliases share it
    for module, name, counter in COUNTED_METHODS:
        owner, attr = _resolve(module, name)
        original = owner.__dict__[attr]
        if original not in wrapped:
            wrapped[original] = tracer.counted(counter, original)
        setattr(owner, attr, wrapped[original])
    gen = importlib.import_module("wingerverify.hurwitz").is_generating
    _rebind(gen, tracer.counted("hurwitz.is_generating_calls", gen,
                                true_name="hurwitz.is_generating_true"))
    for module, name, span, detail in SPANNED:
        owner, attr = _resolve(module, name)
        original = getattr(owner, attr)
        wrapper = tracer.spanned(span, original, detail)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)
    for suite, fn in list(cli.SUITES.items()):
        cli.SUITES[suite] = tracer.spanned(f"cli.suite.{suite}", fn)


def main(argv) -> int:
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("wingerverify.cli")
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"wingerverify imported from {cli.__file__}, not {src}")
    tracer = Tracer()
    install(tracer, cli)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(list(argv[1:]))
    print(json.dumps({"exit": code, "stdout": captured.getvalue(),
                      "counts": dict(tracer.counts), "spans": tracer.summary()}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
