"""No dead helpers: every module-level function and class of the package
is named by code somewhere else in it.

A name counts when the source refers to it outside its own definition:
as a variable, an attribute or an imported name; a mention in a
docstring or comment does not count.  The `check_*` suites are the one
exception, since `cli._suite` looks each up by name with `getattr`.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wingerverify"


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
