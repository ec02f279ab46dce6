"""No dead helpers: every module-level function and class of the package
is named by code somewhere else in it.

A name counts when the source refers to it outside its own definition:
as a variable, an attribute or an imported name; a mention in a
docstring or comment does not count.  The `check_*` suites are the one
exception, since `cli._suite` looks each up by name with `getattr`.

The strategies that the property tests share keep to the same rule: each
name that `tests/strategies.py` defines is imported by some test file, and
no test file builds a Q(zeta_5) element from numerators itself.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wingerverify"


def referenced_names(tree, skip=None):
    """The names that the nodes of `tree` refer to, outside the subtree
    `skip`."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_every_module_level_helper_is_named_elsewhere():
    trees = {path.relative_to(SRC): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    dead = []
    for path, tree in trees.items():
        elsewhere = set().union(*(referenced_names(other) for p, other in trees.items()
                                  if p != path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("check_")
                    and node.name not in elsewhere | referenced_names(tree, node)):
                dead.append(f"{path}:{node.lineno} {node.name}")
    assert dead == []


def parsed_test_files():
    return [(path.name, ast.parse(path.read_text())) for path in sorted(TESTS.glob("test_*.py"))]


def test_every_shared_strategy_is_drawn_by_a_test_file():
    used = {alias.name for _, tree in parsed_test_files() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "strategies"
            for alias in node.names}
    defined = []
    for node in ast.parse((TESTS / "strategies.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, ast.Assign):
            defined.extend(target.id for target in node.targets)
    assert defined and [name for name in defined if name not in used] == []


def test_field_elements_are_built_only_by_the_strategies_module():
    # st.builds(lambda ...: make(...), ...) belongs in strategies.field_elements
    builders = [f"{name}:{node.lineno}" for name, tree in parsed_test_files()
                for node in ast.walk(tree)
                if isinstance(node, ast.Call) and "builds" in referenced_names(node.func)
                and any(isinstance(call, ast.Call) and "make" in referenced_names(call.func)
                        for arg in node.args if isinstance(arg, ast.Lambda)
                        for call in ast.walk(arg))]
    assert builders == []
