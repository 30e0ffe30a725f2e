"""Every name a package module imports is used in that module, and every
parameter of its functions and lambdas is read in their bodies."""

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


def _unread_parameters(tree):
    """(function, parameter, line) of each parameter that no name in its
    function's body reads (nested functions included)."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        for p in params:
            if p is not None and p.arg not in read:
                yield name, p.arg, p.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_parameters(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = [f"{path.name}:{line} {func}({arg})" for func, arg, line in _unread_parameters(tree)]
    assert unread == []
