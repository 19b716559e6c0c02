"""Every name a module of the package imports is used in it or listed in its ``__all__``,
and every private module-level name is used somewhere in the package."""

import ast
from pathlib import Path

import pytest

import spheregrid

MODULES = sorted(Path(spheregrid.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    tree = TREES[path.name]
    nodes = list(ast.walk(tree))
    imported = {(alias.asname or alias.name).split(".")[0] for node in nodes
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in nodes:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    assert sorted(imported - used) == []


def private_names(tree):
    """The module-level functions, classes and constants named ``_x``, not ``__x__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_private_names_are_used_in_the_package(path):
    # a private name only the tests read is test-only code that ships
    loads = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             or isinstance(node, ast.Attribute)}
    assert sorted(private_names(TREES[path.name]) - loads) == []
