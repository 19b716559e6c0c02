"""Every name a module of the package imports is used in it or listed in its ``__all__``."""

import ast
from pathlib import Path

import pytest

import spheregrid

MODULES = sorted(Path(spheregrid.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_has_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = list(ast.walk(tree))
    imported = {(alias.asname or alias.name).split(".")[0] for node in nodes
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in nodes:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == ["__all__"]:
            used.update(ast.literal_eval(node.value))
    assert sorted(imported - used) == []
