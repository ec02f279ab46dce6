"""Every function of the package runs in a report, or says why not.

One child process installs a `sys.setprofile` hook, then imports the
package and runs the command line in process on each argument list of
`RUNS`; it prints every code object of `src/` that was called, as (file,
qualified name, first line).  Every function and lambda of `src/` that
no run calls must be in `UNREACHED` with its reason, and no entry of the
table may be called.  Code that no report runs and that has no reason
is deleted, not listed; a helper that only the tests need lives in their
oracle modules (`cyclo_loops`, `braid_closure`, ...).

`tests/test_dead_helpers.py` asks only whether a module-level name is
named; this asks whether anything runs each method and lambda too.
"""

import inspect
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "wingerverify"

# the golden runs that together reach every claim, the corrupted paths and
# --json, with their exit codes
RUNS = {
    ("all", "--deep"): 0,
    ("tuples", "--convention", "ltr"): 0,
    ("all", "--corrupt", "matrix:3"): 1,
    ("orbits", "--corrupt", "f:3,2,1"): 1,
    ("pencil", "--deep", "--corrupt", "f:0,0,6"): 1,
    ("all", "--json", "-"): 0,
}

GUARD = "guard: refuses a write to an immutable value"
ERROR_PATH = "error path: runs only when a claim raises or a form is refused"
CONSTRUCTOR = "public constructor"
REPR = "__repr__, or read only by one"
PERFBENCH = "named by perfbench: a probe or a counter of the benchmark"

# (file under src/wingerverify, qualified name) -> why no report calls it
UNREACHED = {
    ("characters.py", "ClassFunction.__setattr__"): GUARD,
    ("characters.py", "ClassFunction.__delattr__"): GUARD,
    ("cyclo.py", "Cyclo.__setattr__"): GUARD,
    ("cyclo.py", "_IntegerForm.__setattr__"): GUARD,
    ("perms.py", "Perm.__setattr__"): GUARD,
    ("polys.py", "Poly3.__setattr__"): GUARD,
    ("report.py", "error_witness"): ERROR_PATH,
    # only the irrational-coefficient refusal of discriminant._to_int_poly
    ("polys.py", "Poly3.__str__"): ERROR_PATH,
    ("polys.py", "Poly3.__str__.<locals>.<lambda>"): ERROR_PATH,
    ("cyclo.py", "Cyclo.__new__"): CONSTRUCTOR,
    ("cyclo.py", "Cyclo.__repr__"): REPR,
    ("covers.py", "Quaternion.__repr__"): REPR,
    # the getters of the coordinates a..d
    ("covers.py", "Quaternion.<genexpr>.<lambda>"): REPR,
    ("linalg.py", "Matrix.apply"): PERFBENCH,
    ("polys.py", "Poly3.zero"): PERFBENCH,
    ("cyclo.py", "Cyclo.coefficients"): PERFBENCH,
}

CHILD = """\
import contextlib, io, json, sys
src = sys.argv[1]
called = set()


def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(src):
        called.add(frame.f_code)


sys.setprofile(hook)
sys.path.insert(0, src)
from wingerverify import cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
sys.setprofile(None)
print(json.dumps({"exit": codes, "called": sorted(
    (c.co_filename, c.co_qualname, c.co_firstlineno) for c in called)}))
"""

pytestmark = pytest.mark.skipif(sys.version_info < (3, 11),
                                reason="code objects name their qualified name from 3.11")


def key(filename, qualname):
    return Path(filename).relative_to(PACKAGE).as_posix(), qualname


def defined() -> dict:
    """(file, qualified name) -> first lines of every function and lambda
    of the package, from its compiled code objects."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            # a class body or the module is not optimized; comprehensions
            # are named <listcomp>, <genexpr>, ...
            if code.co_flags & inspect.CO_OPTIMIZED and (
                    code.co_name == "<lambda>" or not code.co_name.startswith("<")):
                out.setdefault(key(path, code.co_qualname), []).append(code.co_firstlineno)
    return out


@pytest.fixture(scope="module")
def called():
    """The (file, qualified name) of every function of the package that the
    runs call, from one child process."""
    proc = subprocess.run([sys.executable, "-c", CHILD, str(SRC), json.dumps(list(RUNS))],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["exit"] == list(RUNS.values())
    return {key(f, q) for f, q, _ in out["called"]}


def test_every_function_is_called_or_has_a_reason(called):
    functions = defined()
    # one function per qualified name, so that a name is called or not
    assert [k for k, lines in functions.items() if len(lines) > 1] == []
    assert sorted(functions.keys() - called - UNREACHED.keys()) == []


def test_no_function_with_a_reason_is_called(called):
    assert sorted(UNREACHED.keys() & called) == []
    assert sorted(UNREACHED.keys() - defined().keys()) == []


def test_perfbench_names_what_it_keeps():
    text = "".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))
    for (_, qualname), reason in UNREACHED.items():
        if reason == PERFBENCH:
            assert re.search(rf"\.{qualname.rsplit('.', 1)[-1]}\b", text), qualname
