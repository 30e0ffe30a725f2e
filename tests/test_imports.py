"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import vodsim

MODULES = sorted(Path(vodsim.__file__).parent.glob("*.py"))


def _imported(tree):
    """(name, line) of each name bound by an import, `__future__` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Names the module reads, plus the strings listed in `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line} {name}" for name, line in _imported(tree) if name not in used]
    assert unused == []
